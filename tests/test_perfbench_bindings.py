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

# The trace workload under the tracer, without the benchmark's timing gate: a
# work counter that raises, or an EXPECT_NONZERO counter of the tracer that
# reads zero (a layer bypassed), stops a traced benchmark run with exit 3.
TRACE_SCRIPT = SCRIPT.replace("instrument(Recorder())", """
import tempfile
from pathlib import Path
from tracing import WORK, layer_metrics
from workloads import EXPECT_NONZERO, WORKLOADS
recorder = Recorder()
instrument(recorder)
with tempfile.TemporaryDirectory() as out:
    for i, cmd in enumerate(WORKLOADS["trace"]):
        qnls.cli.run_experiment(cmd.name, cmd.config, 0, Path(out) / str(i), jobs=1)
assert not recorder.count_errors, recorder.count_errors
layers = layer_metrics(recorder.spans)
counted = [name for name in EXPECT_NONZERO["trace"]
           if name.endswith(".calls") or name.rsplit(".", 1)[0] in WORK]
zero = [name for name in counted if not layers.get(name)]
assert not zero, zero
""")


# One untraced benchmark pass over a workload, as a worker runs it, with the
# workload's dominant layer scaled by 1 + 1e-3 in every module that binds it;
# prints the layer's call count and the reference check's mismatches.
MUTATION_SCRIPT = SCRIPT.replace("instrument(Recorder())", """
import json, tempfile
from pathlib import Path
from qnls import boundary, ibvp, quadrature
from worker import check_pass, run_pass
from workloads import RTOL, WORKLOADS
workload, seed, by = sys.argv[1], 3, 1.0 + 1e-3


def scaled_run(result):
    states, ledger = result
    for state in states:
        state.u.samples *= by
        state.v.samples *= by
    for column in ("mass", "flux_u", "flux_v", "residual"):
        setattr(ledger, column, getattr(ledger, column) * by)
    return states, ledger


module, name, scale = {
    "contraction": (boundary, "forcing_field", lambda r: r * by),
    "trace": (boundary, "forcing_field", lambda r: r * by),
    "jsweep": (quadrature, "panel_sums", lambda r: r * by),
    "lab": (ibvp, "simulate", scaled_run),
}[workload]
original, calls = getattr(module, name), []


def mutated(*args, **kwargs):
    calls.append(1)
    return scale(original(*args, **kwargs))


for mod in [m for n, m in list(sys.modules.items()) if n.startswith("qnls.")]:
    for attr, obj in list(vars(mod).items()):
        if obj is original:
            setattr(mod, attr, mutated)
reference = json.loads(Path("perfbench/reference.json").read_text())
refs = [e["by_seed"][str(seed)] if "by_seed" in e else e for e in reference[workload]]
commands = WORKLOADS[workload]
with tempfile.TemporaryDirectory() as out:
    tally = check_pass(run_pass(commands, seed, Path(out)), refs,
                       [RTOL[c.name] for c in commands])
print(json.dumps({"calls": len(calls), "mismatches": tally["mismatches"]}))
""")


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_binds_every_imported_name():
    _run(SCRIPT)


def test_tracer_counts_the_work_of_forcing_field_and_panel_sums():
    # the traced benchmark tests catch this too, but take about 19 s
    _run(WORK_SCRIPT)


def test_tracer_counts_every_layer_of_the_trace_workload():
    # the traced benchmark tests cover contraction, lab and jsweep only
    _run(TRACE_SCRIPT)


@pytest.mark.parametrize("workload", [
    pytest.param("contraction", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 10: contraction's output moves by about 1e-11 "
                            "of its max when forcing_field moves by 1e-3, below RTOL")),
    "trace", "jsweep", "lab"])
def test_reference_check_sees_its_dominant_layer_scaled(workload):
    # the benchmark can only catch a wrong kernel that its reference sees
    got = json.loads(_run(MUTATION_SCRIPT, workload).strip().splitlines()[-1])
    assert got["calls"] > 0
    assert not [m for m in got["mismatches"] if ": raised " in m], got["mismatches"]
    assert got["mismatches"]


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
