import csv
import importlib.util
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qnls import cli, dispersion, ibvp
from qnls.cli import CONFIGS, _validate, emit_report, main, run_experiment
from qnls.errors import InvalidConfig, SingularQuadratureFail, UnknownCommand
from qnls.grids import write_csv


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
    # the x >= 0 half, nx/2 + 1 points, is the time stepper's grid, which needs 5
    ("contraction", {"nx": 4}, "nx must be at least 8"),
    ("contraction", {"nx": 200}, "nx and nt must be powers of two"),
    ("contraction", {"nt": 48}, "nx and nt must be powers of two"),
    ("contraction", {"k_iters": 2}, "k_iters must be an integer >= 3"),
    ("contraction", {"T": 0.6, "k_iters": 3, "nx": 64, "nt": 16},
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
    ("contraction", {"lambda1": 3.0, "k_iters": 3, "nx": 64, "nt": 16},
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
    pytest.param("j-sweep", {"a": 0.5, "kappa": -0.75, "indices": ["A-J2"]},
                 "the regions of ['A-J2'] are empty at a = 0.5", id="j-sweep-resonant-a-j2"),
]


# Checked against `cli.CONFIGS`, a library parameter object or a window the
# command needs, before any work.
_BAD_CONFIGS_UP_FRONT = [
    pytest.param("region-map", [1, 2], "config must be a JSON object",
                 id="region-map-config-not-an-object"),
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
    # lx > 0, but lx / nx rounds to 0: the field refused the step, exit 1
    pytest.param("verify-bilinear", {"lx": 5e-324, "n_pairs": 2},
                 "lt / (2 nt) must not round to 0",
                 id="verify-bilinear-lx-step-rounds-to-zero"),
    pytest.param("verify-bilinear", {"lt": 5e-324, "n_pairs": 2},
                 "lt / (2 nt) must not round to 0",
                 id="verify-bilinear-lt-step-rounds-to-zero"),
    # the steps do not round to 0, but 2 pi k / lx overflows: two
    # RuntimeWarnings and grids' plain ValueError traceback, exit 1
    pytest.param("verify-bilinear", {"lx": 3.2e-322, "n_pairs": 2},
                 "2 pi BAND_MODES / lt must be finite",
                 id="verify-bilinear-lx-wavenumber-overflows"),
    pytest.param("verify-bilinear", {"lt": 3.2e-322, "n_pairs": 2},
                 "2 pi BAND_MODES / lt must be finite",
                 id="verify-bilinear-lt-wavenumber-overflows"),
    # these drew the a < 1/2 map, then exited 0
    pytest.param("region-map", {"a": 0.0}, "classify_regime: a must be positive, got 0.0",
                 id="region-map-a-zero"),
    pytest.param("region-map", {"a": -1.0}, "classify_regime: a must be positive, got -1.0",
                 id="region-map-a-negative"),
    # these wrote a header-only or origin-free map, then exited 1
    pytest.param("region-map", {"lo": 1.0, "hi": -1.0}, "lo must not exceed hi",
                 id="region-map-lo-above-hi"),
    pytest.param("region-map", {"lo": -1.0, "hi": 1.0, "step": 0.3},
                 "the lattice lo + k*step must contain 0", id="region-map-lattice-misses-origin"),
    # np.arange refused the lattice size: a ValueError traceback, exit 1
    pytest.param("region-map", {"step": 1e-300}, "at most 2**53 points per axis",
                 id="region-map-lattice-count-overflows"),
    pytest.param("region-map", {"lo": -1e300, "hi": 1e300}, "at most 2**53 points per axis",
                 id="region-map-lattice-past-2-53"),
    # x = 0 is a node of the contraction grid: these ran an iterate, then exited 1
    pytest.param("contraction", {"lambda1": -1.5, "k_iters": 3},
                 "lambda1 and lambda2 must exceed -1", id="contraction-lambda1-below-minus-one"),
    pytest.param("contraction", {"lambda2": -2.5, "k_iters": 3},
                 "lambda1 and lambda2 must exceed -1", id="contraction-lambda2-below-minus-two"),
    # t_span / nt rounds to 0: a ZeroDivisionError traceback, exit 1
    pytest.param("contraction", {"t_span": 5e-324}, "t_span / nt",
                 id="contraction-step-rounds-to-zero"),
    # T / (t_span / nt) overflows: an OverflowError traceback, exit 1
    pytest.param("contraction", {"t_span": 1e-320}, "T=0.1 must be below t_span=1e-320",
                 id="contraction-step-count-overflows"),
    # the free group's phase overflows: grids' ValueError traceback, exit 1
    pytest.param("contraction", {"a": 1.7976931348623157e308},
                 "the free group's phase a (pi/dx)^2 t_span must be finite",
                 id="contraction-group-phase-overflows"),
    # T / dt overflows: an OverflowError traceback, exit 1
    pytest.param("simulate", {"dt": 5e-324}, "T / dt must be a finite step count",
                 id="simulate-step-count-overflows"),
    pytest.param("mass-track", {"dt": 5e-324}, "T / dt must be a finite step count",
                 id="mass-track-step-count-overflows"),
    # T / dt is finite but past 2**53: numpy's "Maximum allowed size exceeded"
    # traceback, exit 1
    pytest.param("simulate", {"T": 1e300}, "T / dt must be a finite step count of at most 2**53",
                 id="simulate-step-count-past-2-53"),
    pytest.param("mass-track", {"T": 1e300}, "T / dt must be a finite step count of at most 2**53",
                 id="mass-track-step-count-past-2-53"),
    # level 0 has 2**53 steps and level 1 twice that: level 0 ran first and
    # ended out of memory, exit 1
    pytest.param("mass-track", {"dt": 2.0 ** -54}, "of at most 2**53, got T=0.5, dt=2.7",
                 id="mass-track-later-level-past-2-53"),
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


@pytest.mark.parametrize("cfg", [{"kappa": 1e300}, {"s": 1e300}],
                         ids=["huge-kappa", "huge-s"])
def test_verify_bilinear_norm_past_the_float_range_is_one_line_and_exit_1(tmp_path, capsys,
                                                                         cfg):
    # a Bourgain weight overflowed: two RuntimeWarnings, then nan in the
    # max_ratio column of every row
    out = tmp_path / "o"
    assert main(["verify-bilinear", "--config", str(_dump(tmp_path, {**cfg, "n_pairs": 2})),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("contract violation: the X norm at (s, b, a) = ")
    assert not (out / "bilinear_ratios.csv").exists()
    manifest = json.loads((out / "manifest_verify-bilinear.json").read_text())
    assert manifest["error"]["type"] == "NonFiniteNorm"


@pytest.mark.parametrize("cfg", [{"lt": 1e-300}, {"a": 1e300}], ids=["tiny-lt", "huge-a"])
def test_verify_bilinear_weight_past_the_square_overflow_is_finite(tmp_path, cfg):
    # the weights' brackets <z> of |z| ~ 1e300 overflowed in z*z, and each
    # run exited 1 with a NonFiniteNorm; <z> = |z| there, and the norms
    # and their ratios are finite
    out = tmp_path / "o"
    assert main(["verify-bilinear", "--config", str(_dump(tmp_path, {**cfg, "n_pairs": 2})),
                 "--out", str(out)]) == 0
    with open(out / "bilinear_ratios.csv") as fh:
        ratios = [float(row["max_ratio"]) for row in csv.DictReader(fh)]
    assert len(ratios) == 4 and all(np.isfinite(r) and r > 0 for r in ratios)


def test_j_sweep_past_the_bracket_overflow_grows(tmp_path, capsys):
    # <z> overflowed to inf above |z| ~ 1.3e154, so the windowed J1 stopped
    # growing: a sup of 3.3457609e31 at both radii passed J1_sup_stabilizes
    cfg = {"a": 2.0, "kappa": 0.3, "indices": ["J1"], "radii": [1e100, 1e150]}
    out = tmp_path / "o"
    assert main(["j-sweep", "--config", str(_dump(tmp_path, cfg)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    with open(out / "j_sweep.csv") as fh:
        sups = [float(row["sup"]) for row in csv.DictReader(fh)]
    assert sups == pytest.approx([5.0e40, 5.0e60], rel=1e-6)


def test_j_sweep_at_a_huge_a_is_one_line_and_exit_1(tmp_path, capsys):
    # the brackets overflowed: numpy warnings, and sups of exactly 0 for
    # J2, J3, J5 and J6
    code = main(["j-sweep", "--config", str(_dump(tmp_path, {"a": 1e300})),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "contract violation: J1: the windowed J does not converge at R = 10.0"]


def test_j_sweep_with_overflowing_weights_is_one_line_and_exit_1(tmp_path, capsys):
    # a base point's power of its bracket overflowed in Python's scalar pow:
    # an OverflowError traceback; with numpy's faults ignored, the windowed J
    # of J4 does not converge
    with np.errstate(all="ignore"):
        code = main(["j-sweep", "--config", str(_dump(tmp_path, {"s": 1e300})),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "contract violation: J4: the windowed J does not converge at R = 10.0"]


def test_j_sweep_with_overflowing_weights_warns_nothing(tmp_path, capsys):
    # <xi>^(2s) overflowed: four numpy RuntimeWarnings before the line above;
    # j_eval raises at the first overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["j-sweep", "--config", str(_dump(tmp_path, {"s": 1e300})),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "contract violation: J4 at (a, b, d, kappa, s) = (0.25, 0.4, 0.4, 0.0, 1e+300): "
        "overflow encountered in power"]


def test_dispersion_sweep_past_the_float_range_is_one_line_and_exit_1(tmp_path, capsys):
    # a * xi2^2 overflowed at a = 1e300: three numpy RuntimeWarnings, and a
    # min_residual of nan in the CSV that failed lower_bound_no_violations
    out = tmp_path / "o"
    cfg = {"a_list": [0.25, 1e300]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["dispersion-sweep", "--config", str(_dump(tmp_path, cfg)),
                     "--out", str(out)])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "contract violation: the lower-bound residual at a = 1e+300: "
        "overflow encountered in multiply"]
    assert not (out / "dispersion_sweep.csv").exists()
    manifest = json.loads((out / "manifest_dispersion-sweep.json").read_text())
    assert manifest["error"]["type"] == "ParamDomainViolated"


def test_contraction_refuses_k_iters_past_the_cap_before_any_work(tmp_path, capsys,
                                                                 monkeypatch):
    # k_iters = 2**40 ran past 40 s; the cap is the first k at which the
    # contract's largest ratio to the k-th power falls below double rounding
    eps = np.finfo(float).eps
    cap = cli.CONTRACTION_ITERS_MAX
    assert cli.CONTRACTION_RATIO_MAX ** cap < eps <= cli.CONTRACTION_RATIO_MAX ** (cap - 1)

    def iterate(*args, **kwargs):
        raise AssertionError("contraction_iterate ran")
    monkeypatch.setattr(ibvp, "contraction_iterate", iterate)
    code = main(["contraction", "--config", str(_dump(tmp_path, {"k_iters": 2 ** 40})),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: k_iters must be at most {cap}, where 0.9**k_iters first falls "
        f"below double rounding"]
    assert not (tmp_path / "o").exists()


def test_contraction_has_one_grid_size_key():
    # the time stepper's grid is the x >= 0 half of the contraction grid
    assert [k for k in CONFIGS["contraction"] if k.startswith("nx")] == ["nx"]


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


_SWEEP_HEADER = ["a", "scheme", "min_residual", "argmin_xi", "argmin_tau",
                 "argmin_xi2", "argmin_tau2"]
_B = cli._SWEEP_BLOCK


def _whole_array_sweep(quadruples, a_list, path):
    """dispersion-sweep's CSV bytes and violation count by the whole-array
    formulas; `quadruples()` gives the next a's `FrequencyPoint`."""
    rows, violations = [], 0
    for a in a_list:
        fp = quadruples()
        res = dispersion.lower_bound_residual(fp, a)
        tol = 1e-9 * (1.0 + fp.max_freq_sq())
        violations += int(np.sum(res < -tol))
        i = int(np.argmin(res + tol))
        rows.append([a, dispersion.classify_regime(a), float(np.min(res)),
                     float(fp.xi[i]), float(fp.tau[i]), float(fp.xi2[i]),
                     float(fp.tau2[i])])
    write_csv(path, _SWEEP_HEADER, rows)
    return path.read_bytes(), violations


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 3 * _B + 5])
@pytest.mark.parametrize("seed", [0, 3, 2024])
def test_dispersion_sweep_blocks_match_the_whole_array_formulas(tmp_path, seed, n):
    rng = np.random.default_rng(seed)
    # the draws in their order, scaled into a new array
    draw = lambda: dispersion.CAUCHY_SCALE * rng.standard_cauchy(n)
    expected, violations = _whole_array_sweep(
        lambda: dispersion.FrequencyPoint(draw(), draw(), draw(), draw()),
        CONFIGS["dispersion-sweep"]["a_list"], tmp_path / "whole.csv")
    manifest = run_experiment("dispersion-sweep", {"n_samples": n}, seed, tmp_path / "o")
    assert (tmp_path / "o" / "dispersion_sweep.csv").read_bytes() == expected
    assert manifest["contracts"]["lower_bound_no_violations"] == (violations == 0)


def _crafted_sweep(tmp_path, monkeypatch, xi, a_list):
    """dispersion-sweep over the quadruples (xi, row index, 0, 0) at every a,
    and the whole-array CSV of the same; both as CSV bytes."""
    n = xi.size
    fp = dispersion.FrequencyPoint(xi, np.arange(n, dtype=float),
                                   np.zeros(n), np.zeros(n))
    monkeypatch.setattr(dispersion, "sample_quadruples", lambda n, rng: fp)
    run_experiment("dispersion-sweep", {"a_list": a_list, "n_samples": n}, 0,
                   tmp_path / "o")
    expected, _ = _whole_array_sweep(lambda: fp, a_list, tmp_path / "whole.csv")
    return (tmp_path / "o" / "dispersion_sweep.csv").read_bytes(), expected


def _column(csv_bytes, name):
    header, *rows = csv_bytes.decode().splitlines()
    k = header.split(",").index(name)
    return [r.split(",")[k] for r in rows]


def test_dispersion_sweep_equal_minima_in_two_blocks_give_the_first(tmp_path, monkeypatch):
    # at xi2 = 0, res + tol is smallest where xi = 0, at a = 1/4 and at a = 2
    xi = np.ones(2 * _B + 3)
    xi[[_B - 1, _B + 5]] = 0.0
    got, expected = _crafted_sweep(tmp_path, monkeypatch, xi, [0.25, 2.0])
    assert got == expected
    assert _column(got, "argmin_tau") == [f"{_B - 1}", f"{_B - 1}"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dispersion_sweep_nan_or_inf_row_reduces_as_numpy(tmp_path, monkeypatch, bad):
    # rows of xi = nan or inf have a NaN residual: the first such row is the
    # argmin and NaN the minimum, past a smaller finite value in block 0
    xi = np.ones(3 * _B)
    xi[5] = 0.0
    xi[[_B + 7, 2 * _B + 1]] = bad
    with np.errstate(invalid="ignore"):
        got, expected = _crafted_sweep(tmp_path, monkeypatch, xi, [0.25, 2.0])
    assert got == expected
    assert _column(got, "argmin_tau") == [f"{_B + 7}", f"{_B + 7}"]
    assert _column(got, "min_residual") == ["nan", "nan"]


def test_dispersion_sweep_peak_memory(tmp_path):
    # the four draw arrays of one a take 3.2 MB; whole-array residuals, with
    # the previous a's draws held while the next drew, peaked near 8 MB
    tracemalloc.start()
    try:
        run_experiment("dispersion-sweep", {}, 3, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5e6


def test_an_allocation_failure_is_one_line_and_exit_1(tmp_path, capsys):
    # 10**17 draws need 800 PB, past any 64-bit address space, so numpy's
    # allocation fails outright, whatever the system's overcommit policy
    out = tmp_path / "o"
    assert main(["dispersion-sweep", "--config", str(_dump(tmp_path, {"n_samples": 10**17})),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    failed = json.loads((out / "manifest_dispersion-sweep.json").read_text())
    assert failed["passed"] is False and "error" in failed


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
