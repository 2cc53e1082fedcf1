"""The benchmark's tracer must find every by-name import it wraps.

`perfbench/tracing.instrument` raises when a module no longer imports one of
its IMPORTED_BINDINGS (e.g. `bilinear.integrate_with_tail`), which stops a
traced benchmark run; this test runs it against the package under test.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import qnls.cli
from tracing import Recorder, instrument
instrument(Recorder())
"""


def test_tracer_binds_every_imported_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
