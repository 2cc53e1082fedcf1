import numpy as np
import pytest

from qnls.bilinear import (EstimateParams, JSpec, applicable_indices,
                           bilinear_ratio, j_eval, j_sup_sweep, scheme_for)
from qnls.errors import ParamDomainViolated, ZeroDenominator
from qnls.grids import SpaceTimeField
from qnls.profiles import band_limited_pair


def params(a=0.25, b=0.4, d=0.4, kappa=0.0, s=0.0):
    return EstimateParams(a=a, b=b, d=d, kappa=kappa, s=s)


# --- j_eval ---

def test_j1_origin_matches_riemann_oracle():
    p = params()
    got = j_eval(JSpec("J1", (0.0, 0.0)), p)
    # brute-force midpoint Riemann sum, refined until the change is < 1%;
    # at this base the projected region-1 indicator reduces to |y| <= 1
    prev = None
    for n in (4001, 16001, 64001):
        edges = np.linspace(-1000.0, 1000.0, n)
        y = 0.5 * (edges[1:] + edges[:-1])
        h = edges[1] - edges[0]
        chi = (np.abs(y) <= 1.0) | (0.0 >= np.abs((0.25 - 1) * y * y))
        f = (1 + ((1 - 0.25) * y * y) ** 2) ** (-(4 * 0.4 - 1) / 2) * chi
        val = np.sum(f) * h
        if prev is not None:
            assert abs(val - prev) < 0.01 * abs(val)
        prev = val
    assert np.isfinite(got)
    assert abs(got - prev) < 0.01 * abs(prev)


def test_empty_region_returns_zero():
    p = params(a=0.5)
    for idx in ("J2", "J3", "J5", "J6"):
        assert j_eval(JSpec(idx, (3.0, 7.0)), p) == 0.0


def test_j4_finite_and_decreasing_in_base_tau():
    p = params()
    lo = j_eval(JSpec("J4", (0.0, 0.0)), p)
    mid = j_eval(JSpec("J4", (0.0, 40.0)), p)
    hi = j_eval(JSpec("J4", (0.0, 400.0)), p)
    assert np.isfinite(lo) and lo > 0
    assert lo > mid > hi


def test_indicator_forced_to_one_dominates():
    p = params()
    rng = np.random.default_rng(2)
    for _ in range(12):
        xi = float(rng.uniform(-5, 5))
        tau = float(rng.uniform(-25, 25))
        for idx in ("J1", "J2", "J3", "J4", "J5", "J6"):
            spec = JSpec(idx, (xi, tau))
            with_region = j_eval(spec, p, window=30.0)
            forced = j_eval(spec, p, window=30.0, ignore_region=True)
            assert forced >= with_region - 1e-12


def test_appendix_defers_to_lemma_path_below_cut():
    p = params()
    base = (2.0, 10.0)      # |tau| <= 10 xi^2
    assert j_eval(JSpec("A-J", base), p) == j_eval(JSpec("J1", base), p)
    above = (1.0, 20.0)     # |tau| > 10 xi^2
    val = j_eval(JSpec("A-J", above), p)
    assert np.isfinite(val) and val > 0
    assert val != j_eval(JSpec("J1", above), p)


def test_appendix_2d_finite_for_negative_kappa():
    p = params(kappa=-0.75, s=0.0)
    for idx, base in (("A-J1", (1.5, -3.0)), ("A-J2", (2.0, 1.0)),
                      ("A-J3", (1.5, 2.0))):
        val = j_eval(JSpec(idx, base), p, window=12.0)
        assert np.isfinite(val) and val >= 0


def test_appendix_2d_requires_nonpositive_kappa():
    with pytest.raises(ParamDomainViolated):
        j_eval(JSpec("A-J1", (1.0, 1.0)), params(kappa=0.5))
    with pytest.raises(ParamDomainViolated):
        j_eval(JSpec("A-J", (1.0, 100.0)), params(kappa=-0.5))


def test_estimate_params_window():
    with pytest.raises(ParamDomainViolated):
        params(b=0.55)
    with pytest.raises(ParamDomainViolated):
        params(d=0.3)
    with pytest.raises(ParamDomainViolated):
        params(a=-1.0)


def test_scheme_binding():
    assert scheme_for("J1", 0.25) == "R"
    assert scheme_for("J1", 2.0) == "A"
    assert scheme_for("J5", 0.25) == "S"
    assert scheme_for("J5", 2.0) == "B"
    assert scheme_for("J4", 0.5) == "RES"
    assert applicable_indices(params(a=0.5)) == ["J1", "J4", "A-J"]
    assert "A-J1" in applicable_indices(params(kappa=-0.5))


# --- sweeps ---

def test_sup_sweep_stabilizes_resonant():
    p = params(a=0.5)
    recs = j_sup_sweep("J1", p, (10.0, 20.0), n_base=5)
    sups = [r["sup"] for r in recs]
    assert all(np.isfinite(s) and s > 0 for s in sups)
    assert abs(sups[1] - sups[0]) < 0.1 * sups[0]


def test_sup_sweep_negative_control_grows():
    p = params(a=0.5, kappa=0.4, s=0.0)
    recs = j_sup_sweep("J1", p, (10.0, 20.0, 40.0), n_base=5)
    sups = [r["sup"] for r in recs]
    assert sups[0] < sups[1] < sups[2]


def test_sup_sweep_trend_in_b_d():
    sups = []
    for bd in (0.39, 0.43, 0.47):
        p = params(b=bd, d=bd)
        recs = j_sup_sweep("J1", p, (10.0,), n_base=5)
        sups.append(recs[0]["sup"])
    # larger b,d weaken the weights, so the sup decreases monotonically
    assert sups[0] > sups[1] > sups[2]


# --- bilinear ratios ---

def field_pair(seed=12, double=False):
    n = 128 if double else 64
    return band_limited_pair(seed, n, n, 32.0, 16.0)


def single_mode(nx, nt, lx, lt, k, m, amp=1.0):
    dx, dt = lx / nx, lt / nt
    x = -lx / 2 + dx * np.arange(nx)
    t = -lt / 2 + dt * np.arange(nt)
    xi = 2 * np.pi * k / lx
    tau = 2 * np.pi * m / lt
    z = amp * np.exp(1j * (xi * x[:, None] + tau * t[None, :]))
    return SpaceTimeField(x[0], dx, t[0], dt, z), xi, tau


def test_single_mode_closed_form():
    p = params()
    lx, lt = 32.0, 16.0
    u, xi_u, tau_u = single_mode(64, 64, lx, lt, 3, -2)
    v, xi_v, tau_v = single_mode(64, 64, lx, lt, -1, 4)
    got = bilinear_ratio(u, v, p, "L5.1")
    br = lambda z: np.sqrt(1 + z * z)
    # conj(u)*v is the single mode at (xi_v - xi_u, tau_v - tau_u)
    w_left = br(xi_v - xi_u) ** p.kappa * br((tau_v - tau_u) + (xi_v - xi_u) ** 2) ** (-p.d)
    w_u = br(xi_u) ** p.kappa * br(tau_u + p.a * xi_u ** 2) ** p.b
    w_v = br(xi_v) ** p.s * br(tau_v + xi_v ** 2) ** p.b
    expect = w_left / (w_u * w_v) / np.sqrt(lx * lt)
    assert abs(got - expect) < 1e-8 * expect


def test_ratio_homogeneity():
    p = params()
    u, v = field_pair()
    r1 = bilinear_ratio(u, v, p, "L5.1")
    u3 = SpaceTimeField(u.x0, u.dx, u.t0, u.dt, 3.0 * u.samples)
    v7 = SpaceTimeField(v.x0, v.dx, v.t0, v.dt, 7.0 * v.samples)
    r2 = bilinear_ratio(u3, v7, p, "L5.1")
    assert abs(r1 - r2) < 1e-12 * r1


def test_l52_symmetric_in_inputs():
    p = params()
    u, v = field_pair(seed=5)
    assert bilinear_ratio(u, v, p, "L5.2") == pytest.approx(
        bilinear_ratio(v, u, p, "L5.2"), rel=1e-12)


def test_ratio_stable_under_grid_doubling():
    p = params()
    for which in ("L5.1", "L5.2"):
        vals = []
        for double in (False, True):
            ratios = [bilinear_ratio(*field_pair(seed=s, double=double), p, which)
                      for s in range(20)]
            vals.append(max(ratios))
        assert abs(vals[1] - vals[0]) < 0.2 * vals[0]


def test_w_norm_ratios_finite():
    p = params()
    u, v = field_pair(seed=8)
    for which in ("L5.3", "L5.4"):
        r = bilinear_ratio(u, v, p, which)
        assert np.isfinite(r) and r > 0


def test_l51_placement_swap():
    p = params(kappa=0.3, s=0.1)
    u, v = field_pair(seed=9)
    r_stmt = bilinear_ratio(u, v, p, "L5.1", placement="statement")
    r_use = bilinear_ratio(u, v, p, "L5.1", placement="usage")
    assert np.isfinite(r_stmt) and np.isfinite(r_use)
    assert r_stmt != r_use


def test_zero_denominator():
    p = params()
    u, _ = field_pair()
    zero = SpaceTimeField(u.x0, u.dx, u.t0, u.dt, np.zeros_like(u.samples))
    with pytest.raises(ZeroDenominator):
        bilinear_ratio(zero, zero, p, "L5.1")
