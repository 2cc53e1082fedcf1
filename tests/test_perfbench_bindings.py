"""The benchmark must keep running against the package under test.

`perfbench/tracing.instrument` raises when a module no longer imports one of
its IMPORTED_BINDINGS (e.g. `bilinear.integrate_with_tail`), which stops a
traced benchmark run.  The benchmark also checks every output against its
committed reference, so a drift in the boundary or J-sweep numerics fails
here as well as in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import qnls.cli
from tracing import Recorder, instrument
instrument(Recorder())
"""


# One small call to each function whose work the tracer counts from its
# arguments; a signature change that breaks a counter lands in count_errors.
WORK_SCRIPT = SCRIPT.replace("instrument(Recorder())", """
recorder = Recorder()
instrument(recorder)
import numpy as np
from qnls import boundary, quadrature
from qnls.grids import TimeSeries
f = TimeSeries(0.0, 1 / 63, np.sin(np.pi * np.arange(64) / 63) ** 2)
boundary.forcing_field(boundary.ForcingSpec(1.0, 0.0, f), np.array([0.0, 0.5]),
                       f.times[1::8])
quadrature.panel_sums(np.cos, np.array([0.0, 1.0, 2.0]), 8)
assert not recorder.count_errors, recorder.count_errors
roots = {s.name: s.work for s in recorder.spans if s.parent < 0}
assert roots.keys() == {"boundary.forcing_field", "quadrature.panel_sums"}, roots
assert all(roots.values()), roots
""")


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_binds_every_imported_name():
    _run(SCRIPT)


def test_tracer_counts_the_work_of_forcing_field_and_panel_sums():
    # the traced benchmark tests catch this too, but take about 19 s
    _run(WORK_SCRIPT)


def _traced_benchmark_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]


@pytest.mark.perfbench
def test_traced_contraction_benchmark_matches_reference():
    _traced_benchmark_is_correct("contraction")


@pytest.mark.perfbench
def test_traced_lab_benchmark_matches_reference():
    # simulate and mass-track are held to rounding level (rtol 1e-9)
    _traced_benchmark_is_correct("lab")


@pytest.mark.perfbench
def test_traced_jsweep_benchmark_matches_reference():
    # the traced pass also fails (exit 3) when a quadrature function the
    # benchmark counts, e.g. panel_sums, is bypassed and reads zero calls
    _traced_benchmark_is_correct("jsweep")
