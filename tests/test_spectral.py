import numpy as np
import pytest

from qnls.errors import AliasRisk, NonPositiveA, ParamOrderViolated
from qnls.grids import GridFunction, SpaceTimeField
from qnls.profiles import gaussian
from qnls.spectral import (BourgainParams, bourgain_norm, cutoff, duhamel,
                           group_field, inhomog_estimate_ratio, linear_group,
                           smoothing_ratio, sobolev_norm_1d)


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


# --- linear group ---

def test_group_identity_at_t0():
    x0, dx, x = make_grid()
    phi = GridFunction(x0, dx, gaussian(x, width=2.0))
    out = linear_group(phi, 1.0, 0.0)
    assert np.allclose(out.samples, phi.samples, atol=1e-14)


def test_group_single_mode_phase():
    x0, dx, x = make_grid()
    k = 2.0 * np.pi * 8 / (dx * 256)   # exact lattice mode
    phi = GridFunction(x0, dx, np.exp(1j * k * x))
    out = linear_group(phi, 1.0, 0.3)
    expect = np.exp(-1j * k ** 2 * 0.3) * np.exp(1j * k * x)
    assert np.max(np.abs(out.samples - expect)) < 1e-12


def test_group_unitary_on_random_band_limited():
    rng = np.random.default_rng(7)
    x0, dx, x = make_grid()
    phi = GridFunction(x0, dx, band_limited_noise(rng, 256, dx))
    out = linear_group(phi, 0.7, 1.3)
    assert abs(out.l2() - phi.l2()) < 1e-12 * phi.l2()


def test_group_law():
    x0, dx, x = make_grid()
    phi = GridFunction(x0, dx, gaussian(x, width=2.0, wavenumber=1.0))
    one = linear_group(linear_group(phi, 0.5, 0.4), 0.5, 0.35)
    two = linear_group(phi, 0.5, 0.75)
    assert np.max(np.abs(one.samples - two.samples)) < 1e-10 * np.max(np.abs(two.samples))


def test_group_alias_guard():
    x0, dx, x = make_grid()
    phi = GridFunction(x0, dx, np.exp(1j * (np.pi / dx) * 0.995 * x))
    with pytest.raises(AliasRisk):
        linear_group(phi, 1.0, 0.1)
    with pytest.raises(NonPositiveA):
        linear_group(GridFunction(x0, dx, gaussian(x)), -1.0, 0.1)


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
