import numpy as np
import pytest
from oracles import ParamOrderViolated, inhomog_estimate_ratio, smoothing_ratio
from scipy.integrate import cumulative_trapezoid

from qnls.errors import NonFiniteNorm, NonPositiveA
from qnls.grids import GridFunction, SpaceTimeField
from qnls.profiles import gaussian
from qnls.spectral import (BourgainParams, _bracket, bourgain_norm, cutoff, duhamel,
                           group_field, sobolev_norm_1d)


def make_grid(n=256, half=20.0):
    dx = 2.0 * half / n
    return -half, dx, -half + dx * np.arange(n)


def band_limited_noise(rng, n, dx, kmax_frac=0.25):
    coef = np.zeros(n, dtype=complex)
    kmax = int(n * kmax_frac / 2)
    idx = np.r_[0:kmax, n - kmax:n]
    coef[idx] = rng.normal(size=2 * kmax) + 1j * rng.normal(size=2 * kmax)
    return np.fft.ifft(coef) * n


# --- cutoff ---

def test_cutoff_shape():
    assert cutoff(0.5) == 1.0
    assert cutoff(3.0) == 0.0
    assert cutoff(-0.2) == 1.0
    ts = np.linspace(1.0, 2.0, 101)
    vals = cutoff(ts)
    assert np.all(np.diff(vals) <= 0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_cutoff_scaling_is_exact():
    ts = np.linspace(-5, 5, 257)
    assert np.array_equal(cutoff(ts, 0.3), cutoff(ts / 0.3))


# --- free group ---

def test_group_identity_at_t0():
    x0, dx, x = make_grid()
    phi = GridFunction(x0, dx, gaussian(x, width=2.0))
    out = group_field(phi, 1.0, [0.0])[:, 0]
    assert np.allclose(out, phi.samples, atol=1e-14)


def test_group_single_mode_phase():
    x0, dx, x = make_grid()
    k = 2.0 * np.pi * 8 / (dx * 256)   # exact lattice mode
    phi = GridFunction(x0, dx, np.exp(1j * k * x))
    out = group_field(phi, 1.0, [0.3])[:, 0]
    expect = np.exp(-1j * k ** 2 * 0.3) * np.exp(1j * k * x)
    assert np.max(np.abs(out - expect)) < 1e-12


def test_group_unitary_on_random_band_limited():
    rng = np.random.default_rng(7)
    x0, dx, x = make_grid()
    phi = GridFunction(x0, dx, band_limited_noise(rng, 256, dx))
    out = GridFunction(x0, dx, group_field(phi, 0.7, [1.3])[:, 0])
    assert abs(out.l2() - phi.l2()) < 1e-12 * phi.l2()


def test_group_law():
    x0, dx, x = make_grid()
    phi = GridFunction(x0, dx, gaussian(x, width=2.0) * np.exp(1j * x))
    half = GridFunction(x0, dx, group_field(phi, 0.5, [0.4])[:, 0])
    one = group_field(half, 0.5, [0.35])[:, 0]
    two = group_field(phi, 0.5, [0.75])[:, 0]
    assert np.max(np.abs(one - two)) < 1e-10 * np.max(np.abs(two))


def test_group_rejects_nonpositive_a():
    x0, dx, x = make_grid()
    with pytest.raises(NonPositiveA):
        group_field(GridFunction(x0, dx, gaussian(x)), -1.0, [0.1])


# --- duhamel ---

def field_grid(nx=128, nt=64, half=20.0, t_end=1.0):
    dx = 2.0 * half / nx
    dt = t_end / nt
    x = -half + dx * np.arange(nx)
    t = dt * np.arange(nt)
    return dx, dt, x, t


def test_duhamel_zero():
    dx, dt, x, t = field_grid()
    F = SpaceTimeField(x[0], dx, 0.0, dt, np.zeros((x.size, t.size)))
    out = duhamel(F, 1.0)
    assert np.all(out.samples == 0)


def test_duhamel_of_free_wave_is_t_times_free_wave():
    dx, dt, x, t = field_grid(nx=64, nt=32)
    phi = GridFunction(x[0], dx, gaussian(x, width=2.0))
    free = group_field(phi, 0.8, t)
    F = SpaceTimeField(x[0], dx, 0.0, dt, free)
    out = duhamel(F, 0.8)
    expect = free * t[None, :]
    assert np.max(np.abs(out.samples - expect)) < 1e-10


def _duhamel_fd_residual(nx, nt):
    dx, dt, x, t = field_grid(nx=nx, nt=nt, half=16.0, t_end=0.5)
    env = np.exp(-x ** 2 / 4.0)[:, None] * np.exp(-((t - 0.25) / 0.1) ** 2)[None, :]
    F = SpaceTimeField(x[0], dx, 0.0, dt, env.astype(complex))
    S = duhamel(F, 1.0)
    u = S.samples
    dt_u = (u[:, 2:] - u[:, :-2]) / (2 * dt)
    dxx_u = (np.roll(u, -1, axis=0) - 2 * u + np.roll(u, 1, axis=0)) / dx ** 2
    res = 1j * dt_u + 1.0 * dxx_u[:, 1:-1] - 1j * F.samples[:, 1:-1]
    return np.sqrt(np.sum(np.abs(res) ** 2) * dx * dt)


def test_duhamel_solves_inhomogeneous_equation():
    coarse = _duhamel_fd_residual(128, 64)
    fine = _duhamel_fd_residual(256, 128)
    assert coarse / fine > 3.0


def test_duhamel_running_integral_is_cumulative_trapezoid():
    # duhamel sums its running integral with np.cumsum so that importing
    # qnls does not load scipy.integrate; the numbers must not move
    rng = np.random.default_rng(4)
    dx, dt, x, _ = field_grid(nx=64, nt=32)
    F = SpaceTimeField(x[0], dx, 0.0, dt, rng.normal(size=(64, 32))
                       + 1j * rng.normal(size=(64, 32)))
    xi = 2.0 * np.pi * np.fft.fftfreq(64, d=dx)
    phase = np.exp(1j * 0.7 * np.outer(xi ** 2, F.t))
    running = cumulative_trapezoid(np.fft.fft(F.samples, axis=0) * phase, dx=dt,
                                   axis=1, initial=0.0)
    expect = np.fft.ifft(np.conj(phase) * running, axis=0)
    assert np.array_equal(duhamel(F, 0.7).samples, expect)


# --- bourgain norms ---

def test_norm_zero_field():
    dx, dt, x, t = field_grid(nx=32, nt=32)
    u = SpaceTimeField(x[0], dx, 0.0, dt, np.zeros((32, 32)))
    assert bourgain_norm(u, BourgainParams(0.7, 0.3, 1.0)) == 0.0


def test_norm_plancherel():
    rng = np.random.default_rng(3)
    dx, dt, x, t = field_grid(nx=64, nt=32)
    z = rng.normal(size=(64, 32)) + 1j * rng.normal(size=(64, 32))
    u = SpaceTimeField(x[0], dx, 0.0, dt, z)
    n = bourgain_norm(u, BourgainParams(0.0, 0.0, 2.0))
    assert abs(n - u.l2()) < 1e-10 * u.l2()


def test_norm_single_mode_weight():
    dx, dt, x, t = field_grid(nx=64, nt=64, half=16.0, t_end=2.0)
    lx, lt = 64 * dx, 64 * dt
    xi0 = 2.0 * np.pi * 5 / lx
    tau0 = 2.0 * np.pi * (-3) / lt
    amp = 1.0 / np.sqrt(lx * lt)     # unit L^2 mass
    z = amp * np.exp(1j * (xi0 * x[:, None] + tau0 * t[None, :]))
    u = SpaceTimeField(x[0], dx, 0.0, dt, z)
    s, b, a = 0.6, 0.4, 0.8
    got = bourgain_norm(u, BourgainParams(s, b, a))
    expect = (1 + xi0 ** 2) ** (s / 2) * (1 + (tau0 + a * xi0 ** 2) ** 2) ** (b / 2)
    assert abs(got - expect) < 1e-8 * expect


@pytest.mark.parametrize("family", ["X", "W"])
def test_bourgain_norm_past_the_float_range_raises(family):
    # samples of 1e306 overflow the transform, which raised a plain
    # ValueError; s = 1e300 overflows the weights, which returned inf or NaN
    dx, dt, x, t = field_grid(nx=32, nt=32)
    wave = np.exp(1j * x)[:, None] * np.exp(1j * t)[None, :]
    huge = SpaceTimeField(x[0], dx, 0.0, dt, np.full((32, 32), 1e306))
    with pytest.raises(NonFiniteNorm, match=rf"the {family} norm at \(s, b, a\) = "
                                            r"\(0.0, 0.4, 1.0\): the field transform"):
        bourgain_norm(huge, BourgainParams(0.0, 0.4, 1.0, family))
    with pytest.raises(NonFiniteNorm, match=r"\(1e\+300, 0.4, 1.0\): the weighted sum"):
        bourgain_norm(SpaceTimeField(x[0], dx, 0.0, dt, wave),
                      BourgainParams(1e300, 0.4, 1.0, family))


def test_bracket_is_exact_past_the_overflow_of_its_square():
    # z*z overflows above |z| ~ 1.3e154: sqrt(1 + z*z) was inf there, with a
    # RuntimeWarning; it is |z|, to which it already rounds from |z| ~ 1e8
    z = np.array([1e200, -1e300, -2e154, 3.0, -0.5, 1e8, 1e154, np.inf, -np.inf])
    got = _bracket(z)
    finite = np.abs(z) < 1.3e154
    assert np.array_equal(got[finite], np.sqrt(1.0 + z[finite] * z[finite]))
    assert np.array_equal(got[~finite], np.abs(z[~finite]))
    assert _bracket(-1e300) == 1e300 and np.ndim(_bracket(-1e300)) == 0
    # the switch is seamless: below the overflow the bracket already is |z|
    big = 10.0 ** np.random.default_rng(5).uniform(8.3, 154.0, 10000)
    assert np.array_equal(_bracket(big), big)


# --- smoothing ratio ---

def test_smoothing_ratio_zero_and_scale_invariance():
    x0, dx, x = make_grid()
    zero = GridFunction(x0, dx, np.zeros(256))
    assert smoothing_ratio(zero, 0.0, 1.0) == 0.0
    phi = GridFunction(x0, dx, gaussian(x, width=1.5))
    r1 = smoothing_ratio(phi, 0.0, 1.0)
    phi2 = GridFunction(x0, dx, 2.0 * gaussian(x, width=1.5))
    r2 = smoothing_ratio(phi2, 0.0, 1.0)
    assert abs(r1 - r2) < 1e-12 * r1


def test_smoothing_ratio_refuses_nonpositive_a_for_a_zero_datum():
    # a zero datum returns before group_field, whose check would refuse a
    x0, dx, _ = make_grid()
    with pytest.raises(NonPositiveA, match="a must be positive, got 0.0"):
        smoothing_ratio(GridFunction(x0, dx, np.zeros(256)), 0.0, 0.0)


def test_smoothing_ratio_stable_under_refinement():
    vals = []
    for n in (256, 512):
        dx = 40.0 / n
        x = -20.0 + dx * np.arange(n)
        phi = GridFunction(-20.0, dx, gaussian(x, width=1.5))
        vals.append(smoothing_ratio(phi, 0.0, 1.0))
    assert vals[0] > 0
    assert abs(vals[1] - vals[0]) < 0.2 * vals[0]


# --- inhomogeneous estimate ---

def test_inhomog_zero_and_homogeneity():
    rng = np.random.default_rng(5)
    dx, dt, x, t = field_grid(nx=64, nt=64, t_end=1.0)
    zero = SpaceTimeField(x[0], dx, 0.0, dt, np.zeros((64, 64)))
    assert inhomog_estimate_ratio(zero, 0.0, 0.4, -0.4, 1.0, 0.5) == 0.0
    z = band_limited_noise(rng, 64, dx)[:, None] * band_limited_noise(rng, 64, dt)[None, :]
    F = SpaceTimeField(x[0], dx, 0.0, dt, z)
    r1 = inhomog_estimate_ratio(F, 0.0, 0.4, -0.4, 1.0, 0.5)
    F5 = SpaceTimeField(x[0], dx, 0.0, dt, 5.0 * z)
    r5 = inhomog_estimate_ratio(F5, 0.0, 0.4, -0.4, 1.0, 0.5)
    assert r1 > 0
    assert abs(r1 - r5) < 1e-12 * r1


def test_inhomog_no_blowup_as_T_shrinks():
    rng = np.random.default_rng(11)
    dx, dt, x, t = field_grid(nx=64, nt=64, t_end=1.0)
    z = band_limited_noise(rng, 64, dx)[:, None] * band_limited_noise(rng, 64, dt)[None, :]
    F = SpaceTimeField(x[0], dx, 0.0, dt, z)
    r_half = inhomog_estimate_ratio(F, 0.0, 0.4, -0.4, 1.0, 0.5)
    r_quarter = inhomog_estimate_ratio(F, 0.0, 0.4, -0.4, 1.0, 0.25)
    assert np.isfinite(r_half) and np.isfinite(r_quarter)
    assert r_quarter <= 1.25 * r_half


def test_inhomog_param_window():
    dx, dt, x, t = field_grid(nx=32, nt=32)
    F = SpaceTimeField(x[0], dx, 0.0, dt, np.ones((32, 32)))
    with pytest.raises(ParamOrderViolated):
        inhomog_estimate_ratio(F, 0.0, 0.4, 0.1, 1.0, 0.5)
    with pytest.raises(ParamOrderViolated):
        inhomog_estimate_ratio(F, 0.0, 0.4, -0.4, 1.0, 1.5)


def test_inhomog_refuses_nonpositive_a_through_bourgain_params():
    # the X-norm parameters are the first to see a; duhamel has no check
    rng = np.random.default_rng(5)
    dx, dt, x, t = field_grid(nx=32, nt=32)
    z = band_limited_noise(rng, 32, dx)[:, None] * band_limited_noise(rng, 32, dt)[None, :]
    F = SpaceTimeField(x[0], dx, 0.0, dt, z)
    with pytest.raises(NonPositiveA, match="a must be positive, got -1.0"):
        inhomog_estimate_ratio(F, 0.0, 0.4, -0.4, -1.0, 0.5)


def test_duhamel_rejects_nonzero_t0():
    dx, dt, x, t = field_grid(nx=32, nt=32)
    F = SpaceTimeField(x[0], dx, 0.5, dt, np.ones((32, 32)))
    with pytest.raises(ValueError):
        duhamel(F, 1.0)


@pytest.mark.parametrize("r", [-0.5, 0.0, 0.25, 1.0])
def test_sobolev_norm_along_last_axis_equals_per_row_calls(r):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(7, 128)) + 1j * rng.normal(size=(7, 128))
    got = sobolev_norm_1d(rows, 0.05, r)
    assert got.shape == (7,)
    for i in range(rows.shape[0]):
        one = sobolev_norm_1d(rows[i], 0.05, r)
        assert isinstance(one, float)
        assert abs(got[i] - one) <= 1e-15 * one
