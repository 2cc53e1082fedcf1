"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here exactly as stated; nothing is deferred to later
calibration.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import csv
import json
import time

import numpy as np
from oracles import manufactured_error, semigroup_residual

from qnls import bilinear, dispersion
from qnls.cli import doubling_maxima, run_experiment
from qnls.grids import SpaceTimeField, TimeSeries
from qnls.profiles import smooth_bump


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sweep_sups(out):
    """index -> sups by growing radius, read from a j-sweep's j_sweep.csv."""
    sups = {}
    for r in _read_csv(out / "j_sweep.csv"):
        sups.setdefault(r["index"], []).append(float(r["sup"]))
    return sups


def _report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def bump_series(n=4096, t_end=1.0):
    t = np.linspace(0.0, t_end, n)
    return TimeSeries(0.0, t[1] - t[0], smooth_bump(t, 0.15 * t_end, 0.85 * t_end))


def test_criterion_1_fractional_semigroup():
    f = bump_series(n=4096)
    worst_res, worst_time = 0.0, 0.0
    for alpha, beta in ((0.5, 0.5), (0.25, 0.75), (1.0, -1.0)):
        t0 = time.perf_counter()
        res = semigroup_residual(f, alpha, beta)
        elapsed = time.perf_counter() - t0
        worst_res = max(worst_res, res)
        worst_time = max(worst_time, elapsed)
    ok = worst_res < 1e-3 and worst_time < 1.0
    _report(1, "fractional semigroup",
            ok, f"(max residual {worst_res:.2e}, max time {worst_time:.2f}s)")


def test_criterion_2_boundary_trace_identity(tmp_path):
    # the trace-check tolerances are this criterion's: 5e-3 at lambda = 0,
    # 1e-2 at lambda > 0, one phase variant selected for every lambda > 0
    cfg = {"a_list": [0.25, 0.5, 1, 2], "lambda_list": [0, 0.25, 0.5], "n": 4096}
    contracts = run_experiment("trace-check", cfg, 0, tmp_path)["contracts"]
    records = json.loads((tmp_path / "trace_check.json").read_text())["records"]
    worst_zero = max(r["residual"] for r in records if r["lambda"] == 0)
    worst_frac = max(r["residual"] for r in records if r["lambda"] != 0)
    phases = sorted({r["phase_selected"] for r in records if r["lambda"] != 0})
    ok = (contracts["trace_within_tolerance"] and contracts["phase_consistent"]
          and len(phases) == 1)
    _report(2, "boundary trace identity", ok,
            f"(lam=0 max {worst_zero:.2e}, lam>0 max {worst_frac:.2e}, "
            f"phase {phases})")


def test_criterion_3_mass_conservation(tmp_path):
    # simulate's zero boundary and stock Gaussians are this criterion's data,
    # and its contract is the bound: relative mass drift <= 1e-6 per unit time
    passed, worst_drift, worst_time = True, 0.0, 0.0
    for a in (0.5, 1.0):
        out = tmp_path / f"a{a}"
        cfg = {"nx": 1024, "dt": 1e-3, "T": 2.0, "a": a}
        manifest = run_experiment("simulate", cfg, 0, out)
        passed &= manifest["passed"]
        worst_time = max(worst_time, manifest["wall_time_s"])
        mass = np.array([float(r["M"]) for r in _read_csv(out / "simulate_ledger.csv")])
        worst_drift = max(worst_drift, np.max(np.abs(mass - mass[0])) / mass[0] / cfg["T"])
    ok = passed and worst_time < 60.0
    _report(3, "homogeneous mass conservation", ok,
            f"(max drift/unit time {worst_drift:.2e}, max time {worst_time:.1f}s)")


def test_criterion_4_mass_identity_refinement(tmp_path):
    # mass-track's defaults are this criterion's grid: L 24, nx 241/481/961,
    # dt 4e-3/2e-3/1e-3, a 0.8, bump boundary, residual ratios >= 3
    manifest = run_experiment("mass-track", {"levels": 3}, 0, tmp_path)
    res = [float(r["identity_residual"]) for r in _read_csv(tmp_path / "mass_track.csv")]
    ratios = [res[0] / res[1], res[1] / res[2]]
    ok = manifest["contracts"]["identity_residual_refines"]
    _report(4, "mass identity refinement", ok,
            f"(residuals {[f'{r:.2e}' for r in res]}, ratios "
            f"{[f'{r:.2f}' for r in ratios]})")


def test_criterion_5_scheme_order():
    errs = [manufactured_error(241, 0.02), manufactured_error(481, 0.01),
            manufactured_error(961, 0.005)]
    orders = [np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])]
    ok = all(o >= 1.9 for o in orders)
    _report(5, "manufactured-solution order", ok,
            f"(orders {[f'{o:.3f}' for o in orders]})")


def test_criterion_6_dispersion_lower_bounds(tmp_path):
    # the dispersion-sweep defaults are this criterion's: a in
    # (0.1, 0.25, 0.4, 0.75, 1, 2, 5), 100k Cauchy quadruples each, one
    # default_rng(2024) stream across all a
    manifest = run_experiment("dispersion-sweep", {}, 2024, tmp_path)
    rows = _read_csv(tmp_path / "dispersion_sweep.csv")
    worst = min(float(r["min_residual"]) for r in rows)
    elapsed = manifest["wall_time_s"]
    ok = manifest["contracts"]["lower_bound_no_violations"] and elapsed < 10.0
    _report(6, "dispersion lower bounds", ok,
            f"(min residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_7_j_boundedness_evidence(tmp_path):
    # j-sweep defaults are this criterion's: radii (10, 20, 40), b = d = 0.4,
    # kappa = s = 0, sup drift below 10% from R = 20 to R = 40
    stable = True
    worst_rel, worst_tag = -1.0, ""
    for a in (0.25, 0.5):
        out = tmp_path / f"a{a}"
        contracts = run_experiment("j-sweep", {"a": a}, 0, out)["contracts"]
        stable &= all(contracts.values())
        for idx, sups in _sweep_sups(out).items():
            rel = abs(sups[-1] - sups[-2]) / sups[-2]
            if rel > worst_rel:
                worst_rel, worst_tag = rel, f"{idx}@a={a}"
    out = tmp_path / "negative"
    neg_cfg = {"a": 0.5, "kappa": 0.4, "indices": ["J1"], "expect_growth": True}
    growing = run_experiment("j-sweep", neg_cfg, 0, out)["contracts"]["J1_grows"]
    neg = _sweep_sups(out)["J1"]
    ok = stable and growing
    _report(7, "J-boundedness evidence", ok,
            f"(max sup drift {worst_rel:.1%} at {worst_tag}, "
            f"negative control sups {[f'{s:.1f}' for s in neg]})")


def test_criterion_8_bilinear_ratio_stability():
    p = bilinear.EstimateParams(a=0.25, b=0.4, d=0.4, kappa=0.0, s=0.0)
    stable = True
    changes = []
    for which in ("L5.1", "L5.2"):
        # verify-bilinear's loop, on seeds 0..99
        maxima = doubling_maxima(p, which, range(100), 64, 64, 32.0, 16.0)
        change = abs(maxima[1] - maxima[0]) / maxima[0]
        changes.append(f"{which}:{change:.1%}")
        stable &= change < 0.20

    # single-mode closed form
    lx, lt, nx, nt = 32.0, 16.0, 64, 64
    dx, dt = lx / nx, lt / nt
    x = -lx / 2 + dx * np.arange(nx)
    t = -lt / 2 + dt * np.arange(nt)
    xi_u, tau_u = 2 * np.pi * 3 / lx, 2 * np.pi * (-2) / lt
    xi_v, tau_v = 2 * np.pi * (-1) / lx, 2 * np.pi * 4 / lt
    mode = lambda xi, tau: SpaceTimeField(
        x[0], dx, t[0], dt,
        np.exp(1j * (xi * x[:, None] + tau * t[None, :])))
    got = bilinear.bilinear_ratio(mode(xi_u, tau_u), mode(xi_v, tau_v), p, "L5.1")
    br = lambda z: np.sqrt(1 + z * z)
    w_left = (br(xi_v - xi_u) ** p.kappa
              * br((tau_v - tau_u) + (xi_v - xi_u) ** 2) ** (-p.d))
    w_u = br(xi_u) ** p.kappa * br(tau_u + p.a * xi_u ** 2) ** p.b
    w_v = br(xi_v) ** p.s * br(tau_v + xi_v ** 2) ** p.b
    expect = w_left / (w_u * w_v) / np.sqrt(lx * lt)
    closed = abs(got - expect) / expect
    ok = stable and closed < 1e-8
    _report(8, "bilinear ratio stability", ok,
            f"(doubling changes {changes}, closed-form rel err {closed:.1e})")


def test_criterion_9_contraction_evidence(tmp_path):
    # the contraction command's defaults are this criterion's grid, data and
    # bounds: ratios 2..5 <= 0.9, solver discrepancy <= 0.05
    contracts = run_experiment("contraction", {}, 0, tmp_path)["contracts"]
    summary = json.loads((tmp_path / "contraction_summary.json").read_text())
    ok = contracts["contraction_ratio"] and contracts["matches_time_stepper"]
    _report(9, "contraction evidence", ok,
            f"(ratios {[f'{r:.3f}' for r in summary['ratios'][1:5]]}, "
            f"solver agreement {summary['solver_discrepancy']:.2%})")


def test_criterion_10_regularity_map():
    ok = True
    for a in (0.1, 0.25, 0.5, 1.0, 5.0):
        ok &= dispersion.regularity_region(0.0, 0.0, a)[0]
    lattice = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.05), 10)
    for a in (0.25, 0.5, 1.0):
        for w in lattice:
            ok &= not dispersion.regularity_region(0.5, float(w), a)[0]
            ok &= not dispersion.regularity_region(float(w), 0.5, a)[0]
    # resonant case admits exactly the diagonal 0 <= kappa = s < 1
    for kappa in lattice:
        for s in lattice:
            admissible = dispersion.regularity_region(float(kappa), float(s), 0.5)[0]
            expected = (kappa == s and 0.0 <= kappa < 1.0
                        and kappa != 0.5)
            ok &= admissible == expected
    _report(10, "regularity map boundary cases", ok)
