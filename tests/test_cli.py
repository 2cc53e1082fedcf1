import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnls.cli import CONFIGS, _validate, emit_report, main, run_experiment
from qnls.errors import EmptyDirectory, UnknownCommand


def test_region_map_marks_origin_admissible(tmp_path):
    # default step exercises lattice rounding: 0.05 increments must still
    # land exactly on 0 and 1/2
    manifest = run_experiment("region-map", {}, 0, tmp_path)
    assert manifest["passed"]
    csv_path = tmp_path / "region_map.csv"
    assert csv_path.exists()
    rows = csv_path.read_text().strip().splitlines()
    origin = [r for r in rows if r.startswith("0,0,") or r.startswith("-0,")]
    assert any(",1," in r or r.split(",")[2] == "1" for r in origin)


def test_simulate_homogeneous_reference(tmp_path):
    cfg = {"nx": 257, "dt": 2e-3, "T": 0.25}
    manifest = run_experiment("simulate", cfg, 0, tmp_path)
    assert manifest["contracts"]["mass_drift_within_tolerance"]
    assert (tmp_path / "simulate_ledger.csv").exists()
    # every output is referenced by exactly the one manifest
    listed = set(manifest["outputs"])
    on_disk = {p.name for p in tmp_path.iterdir()
               if not p.name.startswith("manifest")}
    assert listed == on_disk


def test_unknown_command_exits_2_writes_nothing(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fizzbuzz", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not valid json")
    code = main(["region-map", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists() or not list((tmp_path / "o").iterdir())


_BAD_CONFIGS = [
    ("verify-bilinear", {"n_pairs": 0}, "n_pairs must be a positive integer"),
    ("verify-bilinear", {"nx": 48}, "nx and nt must be powers of two"),
    ("contraction", {"nx": 128}, "nx must equal 2*(nx_sim-1)"),
    ("contraction", {"nx": 200, "nx_sim": 101}, "nx and nt must be powers of two"),
    ("contraction", {"nt": 48}, "nx and nt must be powers of two"),
    ("contraction", {"k_iters": 2}, "k_iters must be an integer >= 3"),
    ("contraction", {"T": 0.6, "k_iters": 3, "nx": 64, "nx_sim": 33, "nt": 16},
     "T=0.6 must be below t_span=0.5"),
    ("verify-bilinear", {"which": ["L5.9"], "n_pairs": 2}, "unknown estimates ['L5.9']"),
    ("simulate", {"dt": 0.5}, "dt above 0.1 is not accepted"),
    ("contraction", {"t_span": 0.0}, "t_span must be positive"),
    # a single name, not a list: read as its characters, it was four unknown names
    ("verify-bilinear", {"which": "L5.1", "n_pairs": 2},
     "which must be a list of estimate names"),
]


_BAD_J_SWEEP_CONFIGS = [
    pytest.param("j-sweep", {"indices": ["J9"], "radii": [1.0, 2.0]},
                 "unknown J indices ['J9']", id="j-sweep-unknown-index"),
    pytest.param("j-sweep", {"indices": "J1", "radii": [1.0, 2.0]},
                 "indices must be a list of J index names", id="j-sweep-indices-not-a-list"),
    # the stabilisation contract compares the last two radii
    pytest.param("j-sweep", {"indices": ["J1"], "radii": [5.0]},
                 "radii must be a list of at least two radii", id="j-sweep-one-radius"),
]


# Checked against `cli.CONFIGS`, a library parameter object or a window the
# command needs, before any work.
_BAD_CONFIGS_UP_FRONT = [
    pytest.param("region-map", {"bogus_key": 1},
                 "unknown keys ['bogus_key'] for region-map", id="region-map-unknown-key"),
    # one level compares nothing: the refinement contract passed vacuously
    pytest.param("mass-track", {"levels": 1}, "levels must be an integer >= 2",
                 id="mass-track-one-level"),
    # an unknown kind silently ran the zero boundary
    pytest.param("simulate", {"boundary": "bumpy"}, "boundary must be one of ['zero', 'bump']",
                 id="simulate-unknown-boundary"),
    # a contract threshold is not a config key
    pytest.param("verify-bilinear", {"stability_tol": 10.0},
                 "unknown keys ['stability_tol'] for verify-bilinear",
                 id="verify-bilinear-threshold-key"),
    pytest.param("region-map", {"step": 0}, "step must be positive", id="region-map-zero-step"),
    pytest.param("simulate", {"nx": 2.5}, "nx=2.5 is not of the kind of its default 257",
                 id="simulate-float-nx"),
    pytest.param("dispersion-sweep", {"n_samples": "10"},
                 "n_samples='10' is not of the kind of its default 100000",
                 id="dispersion-sweep-string-n-samples"),
    pytest.param("j-sweep", {"radii": ["a", "b"], "indices": ["J1"]},
                 "radii=['a', 'b'] is not of the kind of its default [10.0, 20.0, 40.0]",
                 id="j-sweep-string-radii"),
    pytest.param("trace-check", {"n": 1}, "n must be an integer >= 2",
                 id="trace-check-one-sample"),
    pytest.param("j-sweep", {"b": 0.6, "radii": [1.0, 2.0], "indices": ["J1"]},
                 "b, d must lie in (3/8, 1/2)", id="j-sweep-b-outside-window"),
    pytest.param("trace-check", {"a_list": [0.0]}, "a must be positive",
                 id="trace-check-zero-a"),
    pytest.param("trace-check", {"lambda_list": [-1.5]}, "trace identity needs lambda > -1",
                 id="trace-check-lambda-below-window"),
    # the one-sided boundary derivative reads three grid points
    pytest.param("simulate", {"nx": 2}, "nx must be at least 3", id="simulate-two-points"),
    # a single time sample is no boundary datum
    pytest.param("simulate", {"T": 0.001, "dt": 0.004}, "nor above T",
                 id="simulate-dt-above-T"),
    pytest.param("dispersion-sweep", {"a_list": [0.0], "n_samples": 10},
                 "a must be positive", id="dispersion-sweep-zero-a"),
    # an empty list checks nothing and passes
    pytest.param("trace-check", {"a_list": []}, "a_list=[] is not of the kind",
                 id="trace-check-empty-a-list"),
    pytest.param("j-sweep", {"expect_growth": 1}, "expect_growth=1 is not of the kind",
                 id="j-sweep-int-expect-growth"),
]

_ALL_BAD_CONFIGS = ([pytest.param(*case, id=f"{case[0]}-cfg{i}")
                     for i, case in enumerate(_BAD_CONFIGS)]
                    + _BAD_J_SWEEP_CONFIGS + _BAD_CONFIGS_UP_FRONT)


@pytest.mark.parametrize("command,cfg,message", _ALL_BAD_CONFIGS)
def test_bad_config_value_exits_2(tmp_path, capsys, command, cfg, message):
    code = main([command, "--config", str(_dump(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert message in err


@pytest.mark.parametrize("command,cfg,message", _ALL_BAD_CONFIGS)
def test_bad_config_writes_nothing(tmp_path, capsys, command, cfg, message):
    # every check runs before the output directory is made
    assert main([command, "--config", str(_dump(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_every_benchmark_config_passes_the_validator():
    # an over-strict CONFIGS table fails here before it fails the benchmark
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    commands = [c for cmds in workloads.WORKLOADS.values() for c in cmds]
    assert commands
    for c in commands:
        assert _validate(c.name, c.config) == {**CONFIGS[c.name], **c.config}


def test_dispersion_sweep_cli(tmp_path):
    cfg = {"a_list": [0.25, 1.0], "n_samples": 20_000}
    code = main(["dispersion-sweep", "--config", str(_dump(tmp_path, cfg)),
                 "--seed", "7", "--out", str(tmp_path / "res")])
    assert code == 0
    data = (tmp_path / "res" / "dispersion_sweep.csv").read_text()
    assert "SecondNonResonant" in data and "FirstNonResonant" in data


def _dump(tmp_path, cfg):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def test_trace_check_cli_and_report(tmp_path):
    out = tmp_path / "res"
    cfg = {"a_list": [1.0], "lambda_list": [0.0], "n": 1024}
    assert main(["trace-check", "--config", str(_dump(tmp_path, cfg)),
                 "--out", str(out)]) == 0
    summary = emit_report(out)
    assert summary == {"experiments": {"trace-check": "pass"},
                       "overall": "pass"}


def test_trace_check_dump_field(tmp_path):
    cfg = {"a_list": [1.0], "lambda_list": [0.25], "n": 1024, "dump_field": True}
    manifest = run_experiment("trace-check", cfg, 0, tmp_path)
    name = "forcing_field_a1.0_lam0.25.csv"
    assert name in manifest["outputs"]
    lines = (tmp_path / name).read_text().splitlines()
    assert lines[0] == "x,t,re,im"
    assert len(lines) - 1 == 64 * 32


def test_report_determinism_and_mixed_status(tmp_path):
    out = tmp_path / "res"
    run_experiment("region-map", {"step": 0.5}, 3, out)
    # forge a failing manifest alongside
    failing = {"command": "simulate", "config": {}, "seed": 3,
               "versions": {}, "wall_time_s": 1.0, "outputs": [],
               "contracts": {"finite_run": False}, "passed": False}
    (out / "manifest_simulate.json").write_text(json.dumps(failing))
    s1 = emit_report(out)
    bytes1 = (out / "summary.json").read_bytes()
    s2 = emit_report(out)
    bytes2 = (out / "summary.json").read_bytes()
    assert bytes1 == bytes2
    assert s1 == s2
    assert s1["experiments"]["simulate"] == "fail"
    assert s1["experiments"]["region-map"] == "pass"
    assert s1["overall"] == "fail"


def test_report_empty_directory(tmp_path):
    with pytest.raises(EmptyDirectory):
        emit_report(tmp_path)


def test_unknown_experiment_api():
    with pytest.raises(UnknownCommand):
        run_experiment("nope", {}, 0, "/tmp/qnls-nope")


def test_seeded_outputs_reproduce(tmp_path):
    cfg = {"a_list": [0.4], "n_samples": 5_000}
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_experiment("dispersion-sweep", cfg, 11, out1)
    run_experiment("dispersion-sweep", cfg, 11, out2)
    b1 = (out1 / "dispersion_sweep.csv").read_bytes()
    b2 = (out2 / "dispersion_sweep.csv").read_bytes()
    assert b1 == b2


def test_j_sweep_cli(tmp_path):
    cfg = {"a": 0.5, "radii": [8.0, 16.0], "indices": ["J1", "J4"]}
    code = main(["j-sweep", "--config", str(_dump(tmp_path, cfg)),
                 "--out", str(tmp_path / "res")])
    assert code == 0
    text = (tmp_path / "res" / "j_sweep.csv").read_text()
    assert text.count("J1") == 2 and text.count("J4") == 2


def test_import_leaves_scipy_signal_and_integrate_unloaded():
    # each costs every command about 0.5 s of start-up; qnls uses scipy.fft
    # and imports quad where an integral lemma is checked
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, qnls.cli; print([m for m in ('scipy.signal', "
            "'scipy.integrate') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
