import json

import pytest

from qnls.cli import emit_report, main, run_experiment
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


@pytest.mark.parametrize("command,cfg", [
    ("verify-bilinear", {"n_pairs": 0}),
    ("verify-bilinear", {"nx": 48}),
    ("contraction", {"nx": 128}),                   # not 2*(nx_sim-1)
    ("contraction", {"nx": 200, "nx_sim": 101}),
    ("contraction", {"nt": 48}),
    ("contraction", {"k_iters": 2}),
])
def test_bad_config_value_exits_2(tmp_path, capsys, command, cfg):
    code = main([command, "--config", str(_dump(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error:")


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


def test_j_sweep_cli_with_jobs(tmp_path):
    cfg = {"a": 0.5, "radii": [8.0, 16.0], "indices": ["J1", "J4"]}
    code = main(["j-sweep", "--config", str(_dump(tmp_path, cfg)),
                 "--out", str(tmp_path / "res"), "--jobs", "2"])
    assert code == 0
    text = (tmp_path / "res" / "j_sweep.csv").read_text()
    assert text.count("J1") == 2 and text.count("J4") == 2
