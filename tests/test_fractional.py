import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from qnls.errors import NonPositiveStep, OrderOutOfRange, UnsupportedSupport
from qnls.fractional import _integrate, rl_apply, semigroup_residual
from qnls.grids import TimeSeries
from qnls.profiles import smooth_bump


def bump_series(n=4096, t_end=1.0):
    t = np.linspace(0.0, t_end, n)
    return TimeSeries(0.0, t[1] - t[0], smooth_bump(t, 0.15 * t_end, 0.85 * t_end))


def test_order_one_is_running_integral_of_constant():
    n = 257
    f = TimeSeries(0.0, 1.0 / (n - 1), np.ones(n))
    out = rl_apply(f, 1.0)
    assert np.allclose(out.samples, f.times, atol=1e-12)


def test_order_zero_is_identity_for_any_signal():
    rng = np.random.default_rng(0)
    f = TimeSeries(0.0, 0.01, rng.normal(size=64) + 1j * rng.normal(size=64))
    out = rl_apply(f, 0.0)
    assert np.array_equal(out.samples, f.samples)


def test_order_one_of_linear_signal():
    n = 513
    t = np.linspace(0.0, 1.0, n)
    f = TimeSeries(0.0, t[1] - t[0], t)
    out = rl_apply(f, 1.0)
    assert np.allclose(out.samples, t ** 2 / 2.0, atol=1e-12)


def test_half_integral_composes_to_running_integral():
    f = bump_series()
    twice = rl_apply(rl_apply(f, 0.5), 0.5)
    # independent oracle: composite-trapezoid running integral
    oracle = cumulative_trapezoid(f.samples, dx=f.dt, initial=0.0)
    err = np.max(np.abs(twice.samples - oracle))
    assert err / np.max(np.abs(oracle)) < 1e-3


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.25, 0.75), (1.0, -1.0)])
def test_semigroup_residual_small_on_bump(alpha, beta):
    f = bump_series()
    assert semigroup_residual(f, alpha, beta) < 1e-3


def test_semigroup_identity_pair_is_exact():
    f = bump_series(n=256)
    assert semigroup_residual(f, 0.0, 0.0) == 0.0


def test_linearity():
    rng = np.random.default_rng(1)
    n = 512
    dt = 1.0 / (n - 1)
    f = TimeSeries(0.0, dt, rng.normal(size=n) + 1j * rng.normal(size=n))
    g = TimeSeries(0.0, dt, rng.normal(size=n) + 1j * rng.normal(size=n))
    a, b = 1.7 - 0.3j, -0.4 + 2.2j
    for alpha in (0.3, 1.0, 1.5):
        lhs = rl_apply(TimeSeries(0.0, dt, a * f.samples + b * g.samples), alpha)
        rhs = a * rl_apply(f, alpha).samples + b * rl_apply(g, alpha).samples
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs.samples - rhs)) < 1e-10 * scale


def test_refinement_halving_reduces_residual():
    coarse = semigroup_residual(bump_series(n=1024), 0.5, 0.5)
    fine = semigroup_residual(bump_series(n=2048), 0.5, 0.5)
    assert coarse / fine >= 1.8


def test_negative_half_matches_centered_derivative_of_half():
    f = bump_series(n=2048)
    half = rl_apply(f, 0.5)
    deriv = rl_apply(f, -0.5)
    manual = np.gradient(half.samples, f.dt, edge_order=2)
    scale = np.max(np.abs(manual))
    assert np.max(np.abs(deriv.samples - manual)) < 1e-8 * scale


def test_nonpositive_step_rejected():
    with pytest.raises(NonPositiveStep):
        TimeSeries(0.0, 0.0, np.zeros(4))


def test_order_out_of_range():
    f = bump_series(n=64)
    with pytest.raises(OrderOutOfRange):
        rl_apply(f, -2.0)


def test_unsupported_support():
    n = 128
    f = TimeSeries(0.0, 1.0 / n, np.ones(n))
    with pytest.raises(UnsupportedSupport):
        rl_apply(f, -0.5)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.75])
def test_integrate_along_axis_0_equals_per_column_calls(alpha):
    rng = np.random.default_rng(11)
    block = rng.normal(size=(300, 9)) + 1j * rng.normal(size=(300, 9))
    got = _integrate(block, 0.01, alpha)
    for j in range(block.shape[1]):
        assert np.array_equal(got[:, j], _integrate(block[:, j], 0.01, alpha))
    # a reversed view, as the spatial convolution of the boundary layer uses
    rev = _integrate(block[::-1], 0.01, alpha)
    for j in range(block.shape[1]):
        assert np.array_equal(rev[:, j], _integrate(block[::-1, j], 0.01, alpha))
