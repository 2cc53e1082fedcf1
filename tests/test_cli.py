import importlib.util
import json
from pathlib import Path

import pytest

from qnls import cli
from qnls.cli import CONFIGS, _validate, emit_report, main, run_experiment
from qnls.errors import InvalidConfig, SingularQuadratureFail, UnknownCommand


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
    # JSON's NaN and Infinity: a ValueError and an OverflowError traceback,
    # each after a failed manifest, and a sweep that passed on NaN rows
    ("simulate", {"dt": float("nan")}, "dt=nan is not of the kind"),
    ("simulate", {"T": float("inf")}, "T=inf is not of the kind"),
    ("dispersion-sweep", {"a_list": [0.25, float("nan")], "n_samples": 10},
     "a_list=[0.25, nan] is not of the kind"),
    # I_{-1/2 - lambda/2} needs an order above -2: these ran, then exited 1
    ("trace-check", {"n": 64, "lambda_list": [5.0]}, "lambda must lie in (-2, 3), got 5.0"),
    ("contraction", {"lambda1": 3.0, "k_iters": 3, "nx": 64, "nt": 16, "nx_sim": 33},
     "lambda1 and lambda2 must exceed -1 and lie below 3"),
    # h^2 underflows to 0: a complex division by zero in the stepper, and
    # non-finite samples in the contraction's time-stepper comparison
    ("simulate", {"L": 1e-300}, "must be finite and positive, got inf"),
    ("mass-track", {"L": 1e-300}, "must be finite and positive, got inf"),
    ("contraction", {"L": 1e-300, "k_iters": 3}, "must be finite and positive, got inf"),
    # h^2 overflows: theta is 0, and the sigma ladder's size overflowed
    ("contraction", {"L": 1e300, "k_iters": 3}, "must be finite and positive, got 0"),
]


_BAD_J_SWEEP_CONFIGS = [
    pytest.param("j-sweep", {"indices": ["J9"], "radii": [1.0, 2.0]},
                 "unknown J indices ['J9']", id="j-sweep-unknown-index"),
    pytest.param("j-sweep", {"indices": "J1", "radii": [1.0, 2.0]},
                 "indices must be a list of J index names", id="j-sweep-indices-not-a-list"),
    # the stabilisation contract compares the last two radii
    pytest.param("j-sweep", {"indices": ["J1"], "radii": [5.0]},
                 "radii must be a list of at least two radii", id="j-sweep-one-radius"),
    # the radii are frequency balls of growing size; these passed vacuously
    pytest.param("j-sweep", {"radii": [-5.0, -10.0], "indices": ["J1"]},
                 "radii must be positive and strictly increasing",
                 id="j-sweep-negative-radii"),
    pytest.param("j-sweep", {"radii": [0.0, 5.0], "indices": ["J1"]},
                 "radii must be positive and strictly increasing", id="j-sweep-zero-radius"),
    # the appendix branches raised mid-run and exited 1
    pytest.param("j-sweep", {"kappa": -0.2, "radii": [1.0, 2.0], "indices": ["J1", "A-J"]},
                 "A-J needs kappa >= 0, got kappa=-0.2", id="j-sweep-appendix-negative-kappa"),
    pytest.param("j-sweep", {"kappa": 0.1, "radii": [1.0, 2.0], "indices": ["A-J1"]},
                 "['A-J1'] need kappa <= 0, got kappa=0.1", id="j-sweep-appendix-1-positive-kappa"),
    pytest.param("j-sweep", {"kappa": 0.1, "radii": [1.0, 2.0],
                             "indices": ["A-J2", "J1", "A-J3"]},
                 "['A-J2', 'A-J3'] need kappa <= 0, got kappa=0.1",
                 id="j-sweep-appendix-2-3-positive-kappa"),
    # every sup of an empty region is 0, so the stabilisation contract failed vacuously
    pytest.param("j-sweep", {"a": 0.5, "radii": [1.0, 2.0], "indices": ["J1", "J2", "J5"]},
                 "the regions of ['J2', 'J5'] are empty at a = 0.5", id="j-sweep-resonant-j2-j5"),
    pytest.param("j-sweep", {"a": 0.5, "radii": [1.0, 2.0], "indices": ["J3", "J6"]},
                 "the regions of ['J3', 'J6'] are empty at a = 0.5", id="j-sweep-resonant-j3-j6"),
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
    pytest.param("trace-check", {"n": 1}, "n must be an integer >= 3",
                 id="trace-check-one-sample"),
    # the datum's half-order derivative: a numpy gradient traceback, exit 1
    pytest.param("trace-check", {"n": 2}, "n must be an integer >= 3",
                 id="trace-check-two-samples"),
    pytest.param("contraction", {"nt": 1}, "nt must be at least 4", id="contraction-one-time"),
    pytest.param("contraction", {"nt": 2}, "nt must be at least 4", id="contraction-two-times"),
    pytest.param("j-sweep", {"b": 0.6, "radii": [1.0, 2.0], "indices": ["J1"]},
                 "b, d must lie in (3/8, 1/2)", id="j-sweep-b-outside-window"),
    pytest.param("trace-check", {"a_list": [0.0]}, "a must be positive",
                 id="trace-check-zero-a"),
    pytest.param("trace-check", {"lambda_list": [-1.5]}, "trace identity needs lambda > -1",
                 id="trace-check-lambda-below-window"),
    # the one-sided boundary derivative reads three grid points
    pytest.param("simulate", {"nx": 2}, "nx must be at least 3", id="simulate-two-points"),
    # LAPACK's tridiagonal factorisation takes no fewer than 3 unknowns
    pytest.param("simulate", {"nx": 3}, "nx must be at least 5", id="simulate-three-points"),
    pytest.param("simulate", {"nx": 4}, "nx must be at least 5", id="simulate-four-points"),
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
    # the lemma claims no lower bound at a = 1/2; this sampled, then exited 1
    pytest.param("dispersion-sweep", {"a_list": [0.25, 0.5], "n_samples": 10},
                 "no lower bound is claimed at the resonant a = 1/2",
                 id="dispersion-sweep-resonant-a"),
    # a zero box length divided by zero in the field synthesis, then exited 1
    pytest.param("verify-bilinear", {"lx": 0.0, "n_pairs": 2}, "lx and lt must be positive",
                 id="verify-bilinear-zero-lx"),
    pytest.param("verify-bilinear", {"lt": -16.0, "n_pairs": 2},
                 "lx and lt must be positive", id="verify-bilinear-negative-lt"),
    # these wrote a header-only or origin-free map, then exited 1
    pytest.param("region-map", {"lo": 1.0, "hi": -1.0}, "lo must not exceed hi",
                 id="region-map-lo-above-hi"),
    pytest.param("region-map", {"lo": -1.0, "hi": 1.0, "step": 0.3},
                 "the lattice lo + k*step must contain 0", id="region-map-lattice-misses-origin"),
    # x = 0 is a node of the contraction grid: these ran an iterate, then exited 1
    pytest.param("contraction", {"lambda1": -1.5, "k_iters": 3},
                 "lambda1 and lambda2 must exceed -1", id="contraction-lambda1-below-minus-one"),
    pytest.param("contraction", {"lambda2": -2.5, "k_iters": 3},
                 "lambda1 and lambda2 must exceed -1", id="contraction-lambda2-below-minus-two"),
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


def test_failed_run_writes_a_manifest_that_report_counts(tmp_path, monkeypatch, capsys):
    out = tmp_path / "res"
    manifest = run_experiment("region-map", {"step": 0.5}, 3, out)
    # a successful run's manifest keeps its keys: the benchmark digests them
    assert set(manifest) == {"command", "config", "seed", "versions", "wall_time_s",
                             "outputs", "contracts", "passed"}

    def fails_after_validation(cfg, rng, out):
        raise SingularQuadratureFail("freezing error 1.00e+00 above 1% at x=3")

    monkeypatch.setitem(cli.COMMANDS, "contraction", fails_after_validation)
    assert main(["contraction", "--out", str(out)]) == 1
    assert "contract violation: freezing error" in capsys.readouterr().err
    failed = json.loads((out / "manifest_contraction.json").read_text())
    assert failed["passed"] is False
    assert failed["error"] == {"type": "SingularQuadratureFail",
                               "message": "freezing error 1.00e+00 above 1% at x=3"}
    assert failed["wall_time_s"] >= 0.0
    assert main(["report", "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"experiments": {"contraction": "fail", "region-map": "pass"},
                       "overall": "fail"}


@pytest.mark.parametrize("cfg", [{"a": 1e-300, "k_iters": 3},
                                 {"t_span": 1e-300, "T": 1e-301, "k_iters": 3},
                                 {"a": 1e-9, "k_iters": 3}],
                         ids=["tiny-a", "tiny-t-span", "table-past-its-bound"])
def test_an_unsizable_sigma_ladder_is_one_line_and_exit_1(tmp_path, capsys, cfg):
    # B ** 1.5 and math.ceil of an infinite panel count raised OverflowError;
    # at a = 1e-9 the panel table would have held 6.5e10 ladder indices
    assert main(["contraction", "--config", str(_dump(tmp_path, cfg)),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("contract violation: the sigma ladder of the column at B = ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys):
    # numpy's generator rejects it; that was a ValueError traceback, exit 1
    assert main(["region-map", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: seed must be")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["o", "o/sub"])
def test_out_through_a_file_exits_2_and_leaves_it(tmp_path, capsys, name):
    # making the output directory raised, and raised again in the failure handler
    (tmp_path / "o").write_text("kept")
    assert main(["region-map", "--out", str(tmp_path / name)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(f"{tmp_path / 'o'} is not a directory")
    assert (tmp_path / "o").read_text() == "kept"


@pytest.mark.parametrize("text", ["not json", '{"passed": true}',
                                  '{"command": "simulate"}', "[1, 2]",
                                  '{"command": "simulate", "passed": "false"}'],
                         ids=["not-json", "no-command", "no-passed", "not-an-object",
                              "passed-not-a-boolean"])
def test_report_names_a_foreign_manifest_and_exits_2(tmp_path, capsys, text):
    out = tmp_path / "res"
    run_experiment("region-map", {"step": 0.5}, 3, out)
    (out / "manifest_zz.json").write_text(text)
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "manifest_zz.json" in err[0]
    assert not (out / "summary.json").exists()


def test_report_empty_directory(tmp_path):
    with pytest.raises(InvalidConfig):
        emit_report(tmp_path)


@pytest.mark.parametrize("kind", ["missing", "empty", "file"])
def test_report_without_manifests_exits_2(tmp_path, capsys, kind):
    # these exited 1, as a contract violation
    out = tmp_path / "res"
    if kind == "empty":
        out.mkdir()
    elif kind == "file":
        out.write_text("kept")
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"usage error: no manifest found under {out}"]


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
