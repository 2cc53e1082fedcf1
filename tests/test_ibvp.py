import numpy as np
import pytest
from oracles import default_manufactured, manufactured_error
from scipy.linalg import solve_banded

from qnls import cli
from qnls.dispersion import regularity_region
from qnls.errors import (BlowUpDetected, DivergentIteration, EmptyLedger,
                         NonConvergentNonlinearIteration)
from qnls.grids import GridFunction, TimeSeries
from qnls.ibvp import (MassLedger, SolverConfig, _boundary_deriv, _cayley_solver,
                       contraction_iterate, mass_identity_residual, simulate)
from qnls.profiles import gaussian, smooth_bump


def zero_series(n=101, dt=0.01):
    return TimeSeries(0.0, dt, np.zeros(n))


def gaussian_data(L=24.0, nx=513):
    x = np.linspace(0.0, L, nx)
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, gaussian(x, center=8.0, width=1.0))
    v0 = GridFunction(0.0, h, gaussian(x, center=10.0, width=1.5, amplitude=0.7))
    return u0, v0


@pytest.mark.parametrize("field, value", [("nx", 65.0), ("nx", True),
                                          ("nonlinearity_iters", 2.5),
                                          ("nonlinearity_iters", "2")])
def test_config_rejects_non_integral_counts(field, value):
    # a float nx or sweep count reached numpy's bare TypeError in simulate
    kwargs = dict(L=10.0, nx=65, dt=0.01, T=0.1, a=1.0, nonlinearity_iters=2)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverConfig(**kwargs)


def test_config_accepts_numpy_integer_counts():
    cfg = SolverConfig(L=10.0, nx=np.int64(65), dt=0.01, T=0.1, a=1.0,
                       nonlinearity_iters=np.int32(2))
    x = np.linspace(0, 10, 65)
    zero_gf = GridFunction(0.0, x[1] - x[0], np.zeros(65))
    states, _ = simulate(cfg, zero_gf, zero_gf, zero_series(), zero_series())
    assert states[-1].u.samples.size == 65


@pytest.mark.parametrize("iters", [0, -1])
def test_config_rejects_fewer_than_one_sweep(iters):
    # with no sweep every step returned u unchanged: no boundary datum, and a
    # ledger of perfect mass conservation
    with pytest.raises(ValueError, match="nonlinearity_iters must be at least 1"):
        SolverConfig(L=24.0, nx=241, dt=4e-3, T=0.5, a=0.8, nonlinearity_iters=iters)


def test_config_caps_the_step_count_at_2_53():
    # a finite T / dt past 2**53 ended in numpy's "Maximum allowed size
    # exceeded" traceback, and past it t0 + k*dt stops naming distinct times
    SolverConfig(L=24.0, nx=241, dt=0.0625, T=2.0 ** 49, a=0.8)
    with pytest.raises(ValueError, match=r"T / dt must be a finite step count of at most "
                                         r"2\*\*53, got T=1e\+300, dt=0.0625"):
        SolverConfig(L=24.0, nx=241, dt=0.0625, T=1e300, a=0.8)
    with pytest.raises(ValueError, match="of at most 2"):
        SolverConfig(L=24.0, nx=241, dt=0.0625, T=np.nextafter(2.0 ** 49, np.inf), a=0.8)


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


def test_manufactured_convergence_order():
    e1 = manufactured_error(241, 0.02)
    e2 = manufactured_error(481, 0.01)
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


def _non_finite_source_run(bad_field, bad=np.nan):
    L, nx = 10.0, 65
    x = np.linspace(0, L, nx)
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, gaussian(x, center=5.0, width=1.0))
    zero_src = lambda xx, tt: np.zeros_like(xx, dtype=complex)
    bad_src = lambda xx, tt: np.full_like(xx, bad if tt > 0.03 else 0.0, dtype=complex)
    cfg = SolverConfig(L=L, nx=nx, dt=0.01, T=0.1, a=1.0)
    sources = [zero_src, zero_src]
    sources[bad_field] = bad_src
    with pytest.raises(BlowUpDetected, match="non-finite right-hand side .* t=0.04"):
        simulate(cfg, u0, u0, zero_series(), zero_series(), sources=tuple(sources))


def test_non_finite_source_raises_blow_up_with_time():
    # a NaN from a user source reached scipy's bare ValueError before
    _non_finite_source_run(0)


def test_non_finite_v_source_raises_blow_up_with_time():
    _non_finite_source_run(1)


@pytest.mark.parametrize("field", [0, 1])
def test_inf_source_raises_blow_up_without_a_warning(field):
    # the product of inf by i*dt was invalid (0 * inf), and numpy's
    # RuntimeWarning escaped before the guard raised
    _non_finite_source_run(field, np.inf)


# --- the factored Cayley solve against scipy.linalg.solve_banded ---

def _banded(nx, theta):
    """Banded form of I - theta*T on the interior, for solve_banded."""
    n = nx - 2
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = -theta
    ab[1, :] = 1.0 + 2.0 * theta
    ab[2, :-1] = -theta
    return ab


# (L, nx, dt): `lab`'s simulate, both mass-track levels, contraction's stepper
_CLI_GRIDS = [(24.0, 4097, 5e-4), (24.0, 241, 4e-3), (24.0, 481, 2e-3),
              (20.0, 129, 0.5 / 64 / 8), (10.0, 5, 0.01)]


@pytest.mark.parametrize("a", [0.25, 1.0, 5.0])
@pytest.mark.parametrize("L,nx,dt", _CLI_GRIDS)
def test_factored_solve_matches_solve_banded_bitwise(L, nx, dt, a):
    h = L / (nx - 1)
    theta = a * 1j * dt / (2.0 * h * h)
    solve = _cayley_solver(nx, theta)
    rng = np.random.default_rng(nx)
    for scale in (1.0, 1e-8, 1e6):
        b = scale * (rng.normal(size=nx - 2) + 1j * rng.normal(size=nx - 2))
        expected = solve_banded((1, 1), _banded(nx, theta), b)
        np.testing.assert_array_equal(solve(b.copy()), expected)


def _parent_simulate(cfg, u0, v0, f, g, sources=None, snapshot_stride=1):
    """The stepper as it was: one solve_banded call per sweep and field, the
    boundary data read per step, and the fixed-point gap taken from copies."""
    nx = cfg.nx
    h = cfg.L / (nx - 1)
    x = h * np.arange(nx)
    n_steps = int(round(cfg.T / cfg.dt))
    dt = cfg.dt
    theta_u = 1j * dt / (2.0 * h * h)
    theta_v = cfg.a * theta_u
    ab_u, ab_v = _banded(nx, theta_u), _banded(nx, theta_v)
    u = np.interp(x, u0.x, u0.samples.real) + 1j * np.interp(x, u0.x, u0.samples.imag)
    v = np.interp(x, v0.x, v0.samples.real) + 1j * np.interp(x, v0.x, v0.samples.imag)
    u[0], v[0] = f(0.0), g(0.0)
    u[-1] = v[-1] = 0.0
    scale0 = u0.l2() + v0.l2() + f.sup() + g.sup()
    trap = np.ones(nx)
    trap[0] = trap[-1] = 0.5

    def mass(uu, vv):
        return float(np.sum(trap * (np.abs(uu) ** 2 + np.abs(vv) ** 2)) * h)

    def flux_density(uu, vv):
        return (2.0 * np.imag(np.conj(uu[0]) * _boundary_deriv(uu, h)),
                2.0 * np.imag(np.conj(vv[0]) * _boundary_deriv(vv, h)))

    times, masses, flux_u, flux_v = [0.0], [mass(u, v)], [0.0], [0.0]
    snaps = [(0.0, u.copy(), v.copy())]
    phi_u_prev, phi_v_prev = flux_density(u, v)
    for n in range(n_steps):
        t_next = n * dt + dt
        t_mid = n * dt + 0.5 * dt
        if sources is not None:
            F1_mid, F2_mid = sources[0](x, t_mid), sources[1](x, t_mid)
        else:
            F1_mid = F2_mid = 0.0
        lin_u = u + theta_u * (np.roll(u, -1) - 2 * u + np.roll(u, 1))
        lin_v = v + theta_v * (np.roll(v, -1) - 2 * v + np.roll(v, 1))
        u_new, v_new = u.copy(), v.copy()
        gap_first = None
        for sweep in range(cfg.nonlinearity_iters):
            u_mid = 0.5 * (u + u_new)
            v_mid = 0.5 * (v + v_new)
            rhs_u = (lin_u + 1j * dt * (np.conj(u_mid) * v_mid - F1_mid))[1:-1]
            rhs_v = (lin_v + 1j * dt * (u_mid * u_mid - F2_mid))[1:-1]
            rhs_u[0] += theta_u * f(t_next)
            rhs_v[0] += theta_v * g(t_next)
            prev_u, prev_v = u_new.copy(), v_new.copy()
            u_new[1:-1] = solve_banded((1, 1), ab_u, rhs_u)
            v_new[1:-1] = solve_banded((1, 1), ab_v, rhs_v)
            u_new[0], v_new[0] = f(t_next), g(t_next)
            u_new[-1] = v_new[-1] = 0.0
            gap = float(np.max(np.abs(u_new - prev_u)) + np.max(np.abs(v_new - prev_v)))
            if gap_first is None:
                gap_first = gap
        if gap > 10.0 * gap_first and gap > 1e-10 * max(scale0, 1e-300):
            raise NonConvergentNonlinearIteration(
                f"fixed-point gap grew from {gap_first:.3g} to {gap:.3g} at t={n * dt:.4g}")
        u, v = u_new, v_new
        phi_u, phi_v = flux_density(u, v)
        times.append(t_next)
        masses.append(mass(u, v))
        flux_u.append(flux_u[-1] + 0.5 * dt * (phi_u_prev + phi_u))
        flux_v.append(flux_v[-1] + 0.5 * dt * (phi_v_prev + phi_v))
        phi_u_prev, phi_v_prev = phi_u, phi_v
        if (n + 1) % snapshot_stride == 0 or n + 1 == n_steps:
            snaps.append((t_next, u.copy(), v.copy()))
    times, masses, flux_u, flux_v = map(np.array, (times, masses, flux_u, flux_v))
    residual = masses - masses[0] - flux_u - cfg.a * flux_v
    return snaps, times, masses, flux_u, flux_v, residual


def _assert_matches_parent(cfg, u0, v0, f, g, sources=None, snapshot_stride=1):
    states, ledger = simulate(cfg, u0, v0, f, g, sources=sources,
                              snapshot_stride=snapshot_stride)
    snaps, *columns = _parent_simulate(cfg, u0, v0, f, g, sources, snapshot_stride)
    assert len(states) == len(snaps)
    for st, (t, u, v) in zip(states, snaps):
        assert st.t == t
        np.testing.assert_array_equal(st.u.samples, u)
        np.testing.assert_array_equal(st.v.samples, v)
    for got, want in zip((ledger.times, ledger.mass, ledger.flux_u, ledger.flux_v,
                          ledger.residual), columns):
        np.testing.assert_array_equal(got, want)


def test_simulate_matches_parent_stepper_bump_boundary():
    L, nx, dt, T = 24.0, 241, 4e-3, 0.2
    x = np.linspace(0.0, L, nx)
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, gaussian(x, center=6.0, width=1.0))
    v0 = GridFunction(0.0, h, gaussian(x, center=9.0, width=1.0, amplitude=0.6))
    tg = dt * np.arange(int(round(T / dt)) + 1)
    f = TimeSeries(0.0, dt, 0.3 * smooth_bump(tg, 0.02, 0.18))
    g = TimeSeries(0.0, dt, 0.2j * smooth_bump(tg, 0.04, 0.16))
    _assert_matches_parent(SolverConfig(L=L, nx=nx, dt=dt, T=T, a=2.0), u0, v0, f, g)


def test_simulate_matches_parent_stepper_manufactured_sources():
    a, L, nx, dt, T = 0.7, 30.0, 121, 0.02, 0.3
    man = default_manufactured(a)
    x = np.linspace(0.0, L, nx)
    h = x[1] - x[0]
    tg = dt * np.arange(int(round(T / dt)) + 1)
    f = TimeSeries(0.0, dt, man["u"](0.0, tg))
    g = TimeSeries(0.0, dt, man["v"](0.0, tg))
    cfg = SolverConfig(L=L, nx=nx, dt=dt, T=T, a=a, nonlinearity_iters=4)
    _assert_matches_parent(cfg, GridFunction(0.0, h, man["u"](x, 0.0)),
                           GridFunction(0.0, h, man["v"](x, 0.0)), f, g,
                           sources=(man["F1"], man["F2"]))


def _bump_pair(dt, T, t_lo, t_hi):
    """Bump data on [t_lo, t_hi] (f) and inside it (g), sampled every dt."""
    tg = dt * np.arange(int(round(T / dt)) + 1)
    return (TimeSeries(0.0, dt, 0.3 * smooth_bump(tg, t_lo, t_hi)),
            TimeSeries(0.0, dt, 0.2j * smooth_bump(tg, t_lo + 0.2 * (t_hi - t_lo),
                                                   t_hi - 0.2 * (t_hi - t_lo))))


def _oracle_case(name):
    if name == "lab-grid":
        # `lab`'s simulate grid for 20 steps, with cli's stock data and bump
        u0, v0 = cli._gaussian_pair(24.0, 4097)
        f, g = cli._boundary_pair("bump", 5e-4, 0.01)
        return SolverConfig(L=24.0, nx=4097, dt=5e-4, T=0.01, a=1.0), u0, v0, f, g, 1
    if name == "contraction-stepper":
        # T/dt = 102.4: the final snapshot falls off the stride of 8
        x = np.linspace(0.0, 20.0, 129)
        u0 = GridFunction(0.0, x[1], gaussian(x, 5.0, 1.0, cli.CONTRACTION_AMP_U))
        v0 = GridFunction(0.0, x[1], gaussian(x, 7.0, 1.2, cli.CONTRACTION_AMP_V))
        cfg = SolverConfig(L=20.0, nx=129, dt=0.5 / 64 / 8, T=0.1, a=1.0)
        return cfg, u0, v0, zero_series(), zero_series(), 8
    u0, v0 = cli._gaussian_pair(24.0, 241)
    if name == "one-sweep":
        f, g = _bump_pair(4e-3, 0.2, 0.02, 0.18)
        cfg = SolverConfig(L=24.0, nx=241, dt=4e-3, T=0.2, a=0.8, nonlinearity_iters=1)
        return cfg, u0, v0, f, g, 5
    # off-grid-datum: sampled every 3e-3, read at the stepper's multiples of 2e-3
    f, g = _bump_pair(3e-3, 0.3, 0.03, 0.27)
    return SolverConfig(L=24.0, nx=241, dt=2e-3, T=0.3, a=2.0), u0, v0, f, g, 7


@pytest.mark.parametrize("name", ["lab-grid", "contraction-stepper", "one-sweep",
                                  "off-grid-datum"])
def test_simulate_matches_parent_stepper(name):
    cfg, u0, v0, f, g, stride = _oracle_case(name)
    _assert_matches_parent(cfg, u0, v0, f, g, snapshot_stride=stride)


def test_nonconvergent_guard_message_matches_parent_stepper():
    L, nx = 10.0, 65
    x = np.linspace(0, L, nx)
    big = GridFunction(0.0, x[1], 20.0 * gaussian(x, center=5.0, width=1.0))
    cfg = SolverConfig(L=L, nx=nx, dt=0.05, T=0.5, a=1.0)
    with pytest.raises(NonConvergentNonlinearIteration) as want:
        _parent_simulate(cfg, big, big, zero_series(), zero_series())
    with pytest.raises(NonConvergentNonlinearIteration) as got:
        simulate(cfg, big, big, zero_series(), zero_series())
    assert str(got.value) == str(want.value)
    assert str(want.value) == "fixed-point gap grew from 7.69e+03 to 3.72e+05 at t=0.15"


def test_empty_ledger():
    ledger = MassLedger(np.array([]), np.array([]), np.array([]),
                        np.array([]), np.array([]))
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


# --- contraction ---

def test_contraction_zero_data_fixed_point():
    cfg = SolverConfig(L=10.0, nx=65, dt=0.005, T=0.1, a=1.0)
    x = np.linspace(0, 10, 65)
    zero_gf = GridFunction(0.0, x[1] - x[0], np.zeros(65))
    res = contraction_iterate(cfg, zero_gf, zero_gf, zero_series(),
                              zero_series(), 0.0, 0.0, k_iters=4,
                              nx=64, nt=16, t_span=0.4)
    assert all(d == 0.0 for d in res.distances)


def test_contraction_small_data_contracts():
    L = 16.0
    x = np.linspace(0, L, 65)
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, gaussian(x, center=5.0, width=1.0, amplitude=0.5))
    v0 = GridFunction(0.0, h, gaussian(x, center=6.0, width=1.0, amplitude=0.4))
    cfg = SolverConfig(L=L, nx=65, dt=0.005, T=0.1, a=1.0)
    res = contraction_iterate(cfg, u0, v0, zero_series(), zero_series(),
                              0.0, 0.0, k_iters=5, nx=128, nt=32, t_span=0.4)
    d = res.distances
    assert d[1] > 0
    for k in range(1, 4):
        assert d[k + 1] / d[k] <= 0.9


def test_contraction_of_large_data_raises_divergent_iteration():
    # contraction's stock Gaussians scaled 16-fold: the iterate distances
    # grow three times running (8-fold, the iteration still contracts)
    cfg = cli.CONFIGS["contraction"]
    dtc = cfg["t_span"] / cfg["nt"]
    # the contraction grid's x >= 0 half is the time stepper's grid
    nx_sim = cfg["nx"] // 2 + 1
    sc = SolverConfig(cfg["L"], nx_sim, dtc / 8.0, cfg["T"], cfg["a"])
    x = np.linspace(0.0, cfg["L"], nx_sim)
    u0 = GridFunction(0.0, x[1], gaussian(x, 5.0, 1.0, 16 * cli.CONTRACTION_AMP_U))
    v0 = GridFunction(0.0, x[1], gaussian(x, 7.0, 1.2, 16 * cli.CONTRACTION_AMP_V))
    with pytest.raises(DivergentIteration, match=r"iterate distances increasing: \[28\.26"):
        contraction_iterate(sc, u0, v0, zero_series(), zero_series(), 0.0, 0.0,
                            cfg["k_iters"], nx=cfg["nx"], nt=cfg["nt"], t_span=cfg["t_span"])
