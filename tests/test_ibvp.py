import numpy as np
import pytest

from qnls.errors import (BlowUpDetected, CompatibilityViolation, EmptyLedger,
                         NonConvergentNonlinearIteration)
from qnls.grids import GridFunction, TimeSeries
from qnls.ibvp import (MassLedger, SolverConfig, compatibility_check,
                       contraction_iterate, default_manufactured,
                       mass_identity_residual, regularity_region, simulate)
from qnls.profiles import gaussian, smooth_bump


def zero_series(n=101, dt=0.01):
    return TimeSeries(0.0, dt, np.zeros(n))


def gaussian_data(L=24.0, nx=513):
    x = np.linspace(0.0, L, nx)
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, gaussian(x, center=8.0, width=1.0))
    v0 = GridFunction(0.0, h, gaussian(x, center=10.0, width=1.5, amplitude=0.7))
    return u0, v0


def test_zero_data_zero_trajectory():
    cfg = SolverConfig(L=10.0, nx=65, dt=0.01, T=0.1, a=1.0)
    x = np.linspace(0, 10, 65)
    zero_gf = GridFunction(0.0, x[1] - x[0], np.zeros(65))
    states, ledger = simulate(cfg, zero_gf, zero_gf, zero_series(), zero_series())
    for st in states:
        assert np.all(st.u.samples == 0) and np.all(st.v.samples == 0)
    assert np.all(ledger.mass == 0)
    assert mass_identity_residual(ledger) == 0.0


def test_homogeneous_mass_conservation():
    u0, v0 = gaussian_data()
    cfg = SolverConfig(L=24.0, nx=513, dt=2e-3, T=1.0, a=1.0)
    _, ledger = simulate(cfg, u0, v0, zero_series(), zero_series(),
                         snapshot_stride=10 ** 9)
    drift = np.max(np.abs(ledger.mass - ledger.mass[0])) / ledger.mass[0]
    assert drift <= 1e-6
    assert mass_identity_residual(ledger) <= 1e-6


def _bump_boundary_run(nx, dt):
    L, T = 24.0, 0.5
    x = np.linspace(0.0, L, nx)
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, gaussian(x, center=6.0, width=1.0))
    v0 = GridFunction(0.0, h, gaussian(x, center=9.0, width=1.0, amplitude=0.6))
    nt = int(round(T / dt)) + 1
    tg = dt * np.arange(nt)
    f = TimeSeries(0.0, dt, 0.3 * smooth_bump(tg, 0.05, 0.45))
    g = TimeSeries(0.0, dt, 0.2j * smooth_bump(tg, 0.1, 0.4))
    cfg = SolverConfig(L=L, nx=nx, dt=dt, T=T, a=0.8)
    _, ledger = simulate(cfg, u0, v0, f, g, snapshot_stride=10 ** 9)
    return mass_identity_residual(ledger)


def test_mass_identity_refinement_with_boundary_data():
    coarse = _bump_boundary_run(241, 4e-3)
    fine = _bump_boundary_run(481, 2e-3)
    assert coarse > 0
    assert coarse / fine >= 3.0


def test_manufactured_sources_match_fd_substitution():
    # oracle: centered finite differences of the exact pair inside the PDE
    man = default_manufactured(0.7)
    x = np.linspace(-2.0, 2.0, 41)
    t0, h, k = 0.37, 1e-4, 1e-4
    u_t = (man["u"](x, t0 + k) - man["u"](x, t0 - k)) / (2 * k)
    u_xx = (man["u"](x + h, t0) - 2 * man["u"](x, t0) + man["u"](x - h, t0)) / h ** 2
    lhs1 = 1j * u_t + u_xx + np.conj(man["u"](x, t0)) * man["v"](x, t0)
    assert np.max(np.abs(lhs1 - man["F1"](x, t0))) < 1e-6
    v_t = (man["v"](x, t0 + k) - man["v"](x, t0 - k)) / (2 * k)
    v_xx = (man["v"](x + h, t0) - 2 * man["v"](x, t0) + man["v"](x - h, t0)) / h ** 2
    lhs2 = 1j * v_t + 0.7 * v_xx + man["u"](x, t0) ** 2
    assert np.max(np.abs(lhs2 - man["F2"](x, t0))) < 1e-6


def _manufactured_error(nx, dt, a=1.0, T=0.5, L=30.0):
    man = default_manufactured(a)
    x = np.linspace(0.0, L, nx)
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, man["u"](x, 0.0))
    v0 = GridFunction(0.0, h, man["v"](x, 0.0))
    nt = int(round(T / dt)) + 1
    tg = dt * np.arange(nt)
    f = TimeSeries(0.0, dt, man["u"](0.0, tg))
    g = TimeSeries(0.0, dt, man["v"](0.0, tg))
    cfg = SolverConfig(L=L, nx=nx, dt=dt, T=T, a=a)
    states, _ = simulate(cfg, u0, v0, f, g, sources=(man["F1"], man["F2"]),
                         snapshot_stride=10 ** 9)
    fin = states[-1]
    return (np.sqrt(np.sum(np.abs(fin.u.samples - man["u"](x, T)) ** 2) * h)
            + np.sqrt(np.sum(np.abs(fin.v.samples - man["v"](x, T)) ** 2) * h))


def test_manufactured_convergence_order():
    e1 = _manufactured_error(241, 0.02)
    e2 = _manufactured_error(481, 0.01)
    assert np.log2(e1 / e2) >= 1.9


def test_imaginary_part_cancellation():
    rng = np.random.default_rng(3)
    u = rng.normal(size=64) + 1j * rng.normal(size=64)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    lhs = np.imag(np.conj(u) ** 2 * v)
    rhs = -np.imag(u ** 2 * np.conj(v))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs) + 1e-300)


def test_locally_lipschitz_data_to_solution():
    u0, v0 = gaussian_data(nx=257)
    x = u0.x
    pert = GridFunction(0.0, u0.dx, gaussian(x, center=9.0, width=1.0))
    cfg = SolverConfig(L=24.0, nx=257, dt=5e-3, T=0.25, a=1.0)
    base, _ = simulate(cfg, u0, v0, zero_series(), zero_series(),
                       snapshot_stride=10 ** 9)
    ratios = []
    for delta in (1e-2, 1e-3):
        u0d = GridFunction(0.0, u0.dx, u0.samples + delta * pert.samples
                           / pert.l2())
        moved, _ = simulate(cfg, u0d, v0, zero_series(), zero_series(),
                            snapshot_stride=10 ** 9)
        dist = np.sqrt(np.sum(np.abs(moved[-1].u.samples - base[-1].u.samples) ** 2)
                       * u0.dx)
        ratios.append(dist / delta)
    assert 0.5 <= ratios[0] / ratios[1] <= 2.0


def test_blow_up_guard():
    L, nx = 10.0, 65
    x = np.linspace(0, L, nx)
    h = x[1] - x[0]
    tiny = GridFunction(0.0, h, 1e-8 * gaussian(x, center=5.0, width=1.0))
    pump = lambda xx, tt: np.ones_like(xx, dtype=complex)
    cfg = SolverConfig(L=L, nx=nx, dt=0.01, T=1.0, a=1.0)
    with pytest.raises(BlowUpDetected):
        simulate(cfg, tiny, tiny, zero_series(), zero_series(),
                 sources=(pump, pump), snapshot_stride=10 ** 9)


def test_nonconvergent_iteration_guard():
    L, nx = 10.0, 65
    x = np.linspace(0, L, nx)
    h = x[1] - x[0]
    big = GridFunction(0.0, h, 80.0 * gaussian(x, center=5.0, width=1.0))
    cfg = SolverConfig(L=L, nx=nx, dt=0.1, T=0.5, a=1.0, nonlinearity_iters=4)
    with pytest.raises((NonConvergentNonlinearIteration, BlowUpDetected)):
        simulate(cfg, big, big, zero_series(), zero_series())


def test_empty_ledger():
    ledger = MassLedger(np.array([]), np.array([]), np.array([]),
                        np.array([]), np.array([]), 1.0)
    with pytest.raises(EmptyLedger):
        mass_identity_residual(ledger)


# --- regularity map ---

def test_origin_admissible_all_regimes():
    for a in (0.1, 0.5, 1.0, 5.0):
        ok, _ = regularity_region(0.0, 0.0, a)
        assert ok


def test_half_indices_excluded():
    for a in (0.25, 0.5, 2.0):
        assert not regularity_region(0.5, 0.5, a)[0]
        assert not regularity_region(0.5, 0.25, a)[0]
        assert not regularity_region(0.0, 0.5, a)[0]


def test_first_nonresonant_upper_bound():
    ok, violated = regularity_region(0.0, 0.6, 1.0)
    assert not ok
    assert any("min" in c for c in violated)


def test_resonant_case_diagonal_only():
    assert regularity_region(0.3, 0.3, 0.5)[0]
    assert not regularity_region(0.3, 0.2, 0.5)[0]
    assert not regularity_region(-0.1, -0.1, 0.5)[0]
    assert not regularity_region(1.0, 1.0, 0.5)[0]


def test_second_nonresonant_wider_window():
    # admissible below a=1/2 but not above: s in [kappa+1/2, kappa+1)
    assert regularity_region(0.0, 0.75, 0.25)[0]
    assert not regularity_region(0.0, 0.75, 0.75)[0]


# --- compatibility ---

def test_compatibility_above_threshold():
    h = 0.1
    match = GridFunction(0.0, h, np.ones(16))
    f_match = TimeSeries(0.0, 0.01, np.ones(32))
    f_zero = TimeSeries(0.0, 0.01, np.zeros(32))
    assert compatibility_check(match, f_match, 0.6)
    assert not compatibility_check(match, f_zero, 0.6)
    assert compatibility_check(match, f_zero, 0.0)   # vacuous below 1/2
    with pytest.raises(CompatibilityViolation):
        cfg = SolverConfig(L=1.5, nx=16, dt=0.01, T=0.05, a=1.0)
        simulate(cfg, match, match, f_zero, f_zero, kappa=0.6)


# --- contraction ---

def test_contraction_zero_data_fixed_point():
    cfg = SolverConfig(L=10.0, nx=65, dt=0.005, T=0.1, a=1.0)
    x = np.linspace(0, 10, 65)
    zero_gf = GridFunction(0.0, x[1] - x[0], np.zeros(65))
    res = contraction_iterate(cfg, zero_gf, zero_gf, zero_series(),
                              zero_series(), 0.0, 0.0, k_iters=4,
                              nx=64, nt=16)
    assert all(d == 0.0 for d in res.distances)


def test_contraction_small_data_contracts():
    L = 16.0
    x = np.linspace(0, L, 65)
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, gaussian(x, center=5.0, width=1.0, amplitude=0.5))
    v0 = GridFunction(0.0, h, gaussian(x, center=6.0, width=1.0, amplitude=0.4))
    cfg = SolverConfig(L=L, nx=65, dt=0.005, T=0.1, a=1.0)
    res = contraction_iterate(cfg, u0, v0, zero_series(), zero_series(),
                              0.0, 0.0, k_iters=5, nx=128, nt=32)
    d = res.distances
    assert d[1] > 0
    for k in range(1, 4):
        assert d[k + 1] / d[k] <= 0.9
