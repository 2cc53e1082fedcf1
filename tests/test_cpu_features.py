"""The boundary and sweep commands give the same numbers without numpy's
AVX-512 kernels.

numpy picks its SIMD kernels by CPU when it is imported, and
NPY_DISABLE_CPU_FEATURES turns some of them off for one process.  Without
X86_V4 and the AVX512_ICL and AVX512_SPR groups it runs at the X86_V3 (AVX2)
level of many laptops, so a run under that variable stands in for a run on
another x86-64 CPU.  The artifacts of `trace-check`, `contraction`, `j-sweep`,
`verify-bilinear`, `dispersion-sweep` and `region-map` must match a default
run by the benchmark's reference rule: `RTOL` of perfbench/workloads.py, as
perfbench/artifacts.py applies it.  `simulate` and `mass-track` are not
checked: their ledger's residual column is a cancellation that `RTOL` holds
to its own max, below one ulp of the masses it subtracts.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
BOUNDARY_COMMANDS = [
    ("trace-check", {"n": 1024, "lambda_list": [0.0, 0.25, -0.25], "dump_field": True}),
    ("contraction", {"k_iters": 3}),
]
SWEEP_COMMANDS = [
    ("j-sweep", {}),
    ("verify-bilinear", {"n_pairs": 5}),
    ("dispersion-sweep", {}),
    ("region-map", {}),
]
SCRIPT = """
import json, sys
from qnls.cli import run_experiment
for i, (name, cfg) in enumerate(json.loads(sys.argv[1])):
    run_experiment(name, cfg, 3, f"{sys.argv[2]}/{i}")
"""


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_commands(commands, out: Path, disabled: str | None):
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands), str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _assert_match_without_avx512(commands, tmp_path):
    artifacts = _perfbench("artifacts")
    rtol = _perfbench("workloads").RTOL
    _run_commands(commands, tmp_path / "default", None)
    _run_commands(commands, tmp_path / "no_avx512", NO_AVX512)
    for i, (name, _) in enumerate(commands):
        ref = artifacts.summarize_dir(tmp_path / "default" / str(i))
        got = artifacts.summarize_dir(tmp_path / "no_avx512" / str(i))
        assert got.keys() == ref.keys(), name
        bad = {f: artifacts.compare(ref[f], got[f], rtol[name]) for f in ref}
        assert not any(bad.values()), (name, bad)


def test_boundary_commands_match_a_default_run_without_avx512(tmp_path):
    _assert_match_without_avx512(BOUNDARY_COMMANDS, tmp_path)


def test_sweep_commands_match_a_default_run_without_avx512(tmp_path):
    _assert_match_without_avx512(SWEEP_COMMANDS, tmp_path)
