import math

import numpy as np
import pytest

from qnls.boundary import (KERNEL_REL_TOL, ForcingSpec, _column_values,
                           _datum_bounds, _half_order_series,
                           _osc_tail_factor, boundary_estimate_ratio,
                           delta_coefficient, forcing_eval, forcing_field,
                           kernel_constant, pde_residual, trace_check)
from qnls.errors import (LambdaOutOfRange, NonPositiveA,
                         SingularQuadratureFail, SupportViolation,
                         WindowViolation)
from qnls.grids import SpaceTimeField, TimeSeries
from qnls.profiles import smooth_bump
from qnls.quadrature import panel_sums


def bump_series(n=2048, t_end=1.0):
    t = np.linspace(0.0, t_end, n)
    return TimeSeries(0.0, t[1] - t[0], smooth_bump(t, 0.15 * t_end, 0.85 * t_end))


def test_spec_validation():
    f = bump_series(n=64)
    with pytest.raises(NonPositiveA):
        ForcingSpec(0.0, 0.0, f)
    with pytest.raises(LambdaOutOfRange):
        ForcingSpec(1.0, -2.0, f)


def test_kernel_constants():
    assert kernel_constant(1.0) == pytest.approx(2.0 * np.exp(-0.75j * np.pi))
    assert abs(kernel_constant(4.0)) == pytest.approx(4.0)
    # realized point-source coefficient carries the conjugate phase
    assert delta_coefficient(1.0) == pytest.approx(np.conj(kernel_constant(1.0)))


def test_zero_datum_gives_zero_field():
    f = TimeSeries(0.0, 0.01, np.zeros(128))
    spec = ForcingSpec(1.0, 0.0, f)
    assert forcing_eval(spec, 0.7, 0.9) == 0.0
    assert forcing_eval(spec, 0.0, 0.5) == 0.0


def test_vanishes_at_initial_time():
    spec = ForcingSpec(1.0, 0.0, bump_series(n=512))
    assert forcing_eval(spec, 0.8, 0.0) == 0.0


def test_base_trace_reproduces_datum():
    f = bump_series(n=4096)
    for a in (0.25, 0.5, 1.0, 2.0):
        assert trace_check(ForcingSpec(a, 0.0, f)).residual < 5e-3


def test_pointwise_value_matches_brute_force_quadrature():
    f = bump_series(n=2048)
    spec = ForcingSpec(1.0, 0.0, f)
    x, t = 1.0, 0.5
    got = forcing_eval(spec, x, t)
    # oracle: composite midpoint rule in the sigma variable at 10x resolution
    from qnls.fractional import rl_apply
    m = rl_apply(f, -0.5)
    n_o = 200_000
    edges = np.linspace(0.0, np.sqrt(t), n_o + 1)
    sig = 0.5 * (edges[1:] + edges[:-1])
    h = edges[1] - edges[0]
    mt = np.interp(t - sig ** 2, m.times, m.samples.real)
    phase = np.exp(1j * x * x / (4.0 * spec.a * sig ** 2))
    oracle = (2.0 / np.sqrt(np.pi)) * np.sum(phase * mt) * h
    assert abs(got - oracle) < 2e-3 * abs(oracle)


def test_trace_phase_selection():
    f = bump_series(n=2048)
    for a in (0.5, 1.0):
        for lam in (0.25, 0.5):
            rep = trace_check(ForcingSpec(a, lam, f), n_samples=16)
            assert rep.phase == "lambda*pi/4"
            assert rep.residual < 1e-2
            assert rep.residuals["3*lambda*pi/4"] > 10 * rep.residual


def test_linearity_in_datum():
    f = bump_series(n=1024)
    g = TimeSeries(f.t0, f.dt, f.samples * np.exp(1j * 2.0 * f.times))
    both = TimeSeries(f.t0, f.dt, 2.0 * f.samples + 1j * g.samples)
    pt = (0.7, 0.6)
    va = forcing_eval(ForcingSpec(1.0, 0.0, f), *pt)
    vb = forcing_eval(ForcingSpec(1.0, 0.0, g), *pt)
    vc = forcing_eval(ForcingSpec(1.0, 0.0, both), *pt)
    # panel structure adapts to each signal, so exact linearity is not expected
    assert abs(vc - (2.0 * va + 1j * vb)) < 1e-6 * abs(vc)


def test_continuity_in_x_at_origin():
    # the continuity modulus at the origin is eps^(lambda+1), so the grid
    # probes shrink with the order
    f = bump_series(n=1024)
    for lam, eps in ((0.0, 0.02), (0.25, 1e-6), (-0.5, 1e-6)):
        spec = ForcingSpec(1.0, lam, f)
        mid = forcing_eval(spec, 0.0, 0.5)
        left = forcing_eval(spec, -eps, 0.5)
        right = forcing_eval(spec, eps, 0.5)
        assert abs(left - right) < 1e-2 * max(abs(mid), abs(right))


def test_point_value_is_the_one_by_one_field():
    f = bump_series(n=1024)
    for lam in (0.0, 0.25, -0.5):
        spec = ForcingSpec(1.0, lam, f)
        for x, t in ((0.7, 0.6), (0.0, 0.5), (-0.3, 0.9)):
            assert forcing_eval(spec, x, t) == forcing_field(spec, [x], [t])[0, 0]


def test_representation_consistency_at_quarter():
    f = bump_series(n=2048)
    spec = ForcingSpec(1.0, 0.25, f)
    for x, t in ((0.5, 0.5), (0.0, 0.6), (-0.8, 0.5)):
        v1 = forcing_eval(spec, x, t, "def0")
        v2 = forcing_eval(spec, x, t, "alt")
        assert abs(v1 - v2) < 5e-2 * abs(v1)


def _test_field(nx, nt, x_center=0.0):
    xh, T = 6.0, 1.0
    dx, dt = 2 * xh / nx, T / nt
    x = -xh + dx * np.arange(nx)
    t = dt * np.arange(nt)
    z = (smooth_bump(x, x_center - 2.5, x_center + 2.5)[:, None]
         * smooth_bump(t, 0.2, 0.8)[None, :]).astype(complex)
    return SpaceTimeField(x[0], dx, 0.0, dt, z)


def test_pde_residual_zero_datum():
    f = TimeSeries(0.0, 0.01, np.zeros(128))
    spec = ForcingSpec(1.0, 0.0, f)
    assert pde_residual(spec, _test_field(32, 32)) == 0.0


def test_pde_residual_refines_at_second_order():
    spec = ForcingSpec(1.0, 0.0, bump_series(n=2048))
    coarse = abs(pde_residual(spec, _test_field(64, 64)))
    fine = abs(pde_residual(spec, _test_field(128, 128)))
    assert coarse / fine >= 3.0


def test_pde_residual_pure_discretization_off_source():
    spec = ForcingSpec(1.0, 0.0, bump_series(n=2048))
    r = abs(pde_residual(spec, _test_field(128, 128, x_center=3.2)))
    assert r < 1e-3


def test_pde_residual_support_guards():
    spec = ForcingSpec(1.0, 0.0, bump_series(n=512))
    xh = 4.0
    dx, dt = 2 * xh / 32, 1.0 / 32
    x = -xh + dx * np.arange(32)
    t = dt * np.arange(32)
    z = np.ones((32, 32), dtype=complex)     # touches the boundary
    with pytest.raises(SupportViolation):
        pde_residual(spec, SpaceTimeField(x[0], dx, 0.0, dt, z))
    neg_spec = ForcingSpec(1.0, -0.5, bump_series(n=512))
    with pytest.raises(SupportViolation):
        pde_residual(neg_spec, _test_field(32, 32, x_center=0.0))


def test_estimate_ratio_zero_datum():
    f = TimeSeries(0.0, 0.01, np.zeros(128))
    assert boundary_estimate_ratio(ForcingSpec(1.0, 0.0, f), 0.0, "SpaceTraces") == 0.0


def test_estimate_ratio_space_traces_stable():
    spec = ForcingSpec(1.0, 0.0, bump_series(n=2048))
    r1 = boundary_estimate_ratio(spec, 0.0, "SpaceTraces", nx=128, nt=64)
    r2 = boundary_estimate_ratio(spec, 0.0, "SpaceTraces", nx=256, nt=128)
    assert np.isfinite(r1) and r1 > 0
    assert abs(r2 - r1) < 0.25 * r1


def test_estimate_ratio_time_traces_both_signs():
    f = bump_series(n=1024)
    for lam in (0.9, -0.9):
        r = boundary_estimate_ratio(ForcingSpec(1.0, lam, f), 0.0, "TimeTraces",
                                    nx=64, nt=32)
        assert np.isfinite(r) and r > 0


def test_estimate_ratio_windows():
    f = bump_series(n=256)
    with pytest.raises(WindowViolation):
        boundary_estimate_ratio(ForcingSpec(1.0, 0.6, f), 0.0, "SpaceTraces")
    with pytest.raises(WindowViolation):
        boundary_estimate_ratio(ForcingSpec(1.0, 0.0, f), 0.0, "Bourgain", b=0.7)
    with pytest.raises(WindowViolation):
        boundary_estimate_ratio(ForcingSpec(1.0, 0.0, f), 0.0, "Nope")


def _ladder_column_values(m, bounds, a, x, ts):
    """Reference evaluator: every output time interpolates the datum at every
    node of the sigma ladder, masked per time by sigma <= sqrt(t)."""
    m_sup, m_dsup = bounds
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(ts.size, dtype=complex)
    live = ts > 0.0
    if not np.any(live) or m_sup == 0.0:
        return out
    t_live = ts[live]
    rt = np.sqrt(t_live)
    t_max = float(np.max(t_live))
    B = x * x / (4.0 * a)
    scale0 = m_sup * min(math.sqrt(t_max), 1.0) + 1e-300

    if B < 1e-300:
        edges = math.sqrt(t_max) * np.linspace(0.0, 1.0, 65)
    else:
        md = m_dsup + 1e-300
        k_min = max(1, math.ceil(B / (np.pi * t_max)))
        K = math.ceil((0.4 * md * B ** 1.5 / (KERNEL_REL_TOL * scale0)) ** 0.4 / np.pi)
        K = min(max(K, k_min + 8), k_min + 4096)
        edges = np.sqrt(B / (np.pi * np.arange(K, k_min - 1, -1, dtype=float)))
        gap = math.sqrt(t_max) - edges[-1]
        if gap > 1e-14:
            n_top = max(8, min(48, int(np.ceil(48 * gap / math.sqrt(t_max)))))
            edges = np.concatenate([edges,
                                    np.linspace(edges[-1], math.sqrt(t_max),
                                                n_top + 1)[1:]])

    def ladder(sig):
        phase = np.exp(1j * B / (sig * sig)) if B > 0 else np.ones_like(sig)
        return m(t_live[:, None] - sig[None, :] ** 2) * phase[None, :]

    panel_vals = panel_sums(ladder, edges, 8)
    complete = edges[1:][None, :] <= rt[:, None] + 1e-15
    vals = np.sum(np.where(complete, panel_vals, 0.0), axis=1)

    idx = np.searchsorted(edges, rt + 1e-15, side="right") - 1
    has = idx >= 0
    lo_t = np.where(has, edges[np.clip(idx, 0, edges.size - 1)], 0.0)
    half_t = 0.5 * np.maximum(rt - lo_t, 0.0) * has

    def top(u):
        sig_t = (lo_t + half_t)[:, None] + half_t[:, None] * u[None, :]
        ph_t = np.exp(1j * B / (sig_t ** 2 + 1e-300)) if B > 0 else np.ones_like(sig_t)
        return m(t_live[:, None] - sig_t ** 2) * ph_t

    vals += panel_sums(top, np.array([-1.0, 1.0]), 8)[:, 0] * half_t

    s_eff = np.minimum(edges[0], rt)
    if B > 0:
        tail = m(t_live - s_eff ** 2) * s_eff * _osc_tail_factor(B / (s_eff ** 2 + 1e-300))
        vals += tail
        err = 0.4 * (m_dsup + 1e-300) * float(np.max(s_eff)) ** 5 / B
        if err > 0.01 * max(float(np.max(np.abs(vals))), 0.1 * scale0):
            raise SingularQuadratureFail(
                f"freezing error {err:.2e} above 1% at x={x:.3g}")
    out[live] = (2.0 / math.sqrt(np.pi)) * vals
    return out


def _oracle_cases():
    """(datum, output-time sets) on the datum grid, past its end and off it.

    The first set of each datum spans its window; its column max scales the
    error of the later sets too, since a single point of a column that
    cancels to 1e-10 of the datum carries rounding noise of that order.
    """
    dtc = 0.5 / 64
    tc = dtc * np.arange(64)
    yield TimeSeries(0.0, dtc, smooth_bump(tc, 0.02, 0.4)
                     * np.exp(2j * np.pi * 3.0 * tc)), [tc]
    trace = bump_series(n=4096)
    ts = trace.times[np.unique(np.linspace(1, trace.n - 1, 48).astype(int))]
    # ts + dt reaches t_end + dt, past the sampled window
    yield trace, [ts, ts + trace.dt, ts - trace.dt]
    f = bump_series(n=2048)
    mixed = np.concatenate([f.times[[100, 701, 1500, 2047]],
                            [0.1234, 0.5, 0.8765, f.times[900] + 0.5 * f.dt]])
    yield f, [(f.t_end / 64) * np.arange(64), np.array([0.5]),
              np.array([0.7331]), np.array([f.t_end]), mixed]


@pytest.mark.parametrize("lam", [0.0, 0.25, -0.25])
def test_lag_binned_columns_match_per_time_ladder(lam):
    for f, time_sets in _oracle_cases():
        m = _half_order_series(ForcingSpec(1.0, lam, f))
        bounds = _datum_bounds(m)
        for a in (0.25, 1.0, 2.0):
            for x in (0.0, 0.3, 2.0, 7.5, 19.8):
                col_max = 0.0
                for ts in time_sets:
                    try:
                        ref = _ladder_column_values(m, bounds, a, x, ts)
                    except SingularQuadratureFail:
                        with pytest.raises(SingularQuadratureFail):
                            _column_values(m, bounds, a, x, ts)
                        continue
                    got = _column_values(m, bounds, a, x, ts)
                    col_max = max(col_max, float(np.max(np.abs(ref))))
                    err = float(np.max(np.abs(got - ref)))
                    assert err <= 1e-8 * col_max, (f.n, a, x, ts.size, err / col_max)


def test_field_rows_at_plus_and_minus_x_are_equal():
    spec = ForcingSpec(1.0, 0.0, bump_series(n=256))
    xs = -4.0 + 0.25 * np.arange(32)
    field = forcing_field(spec, xs, spec.f.times[::8])
    for i in range(1, xs.size):
        assert np.array_equal(field[i], field[xs.size - i])


def test_freezing_error_guard_raises():
    t = np.linspace(0.0, 1.0, 2048)
    f = TimeSeries(0.0, t[1] - t[0], np.sin(2 * np.pi * 200 * t) * t * (1 - t))
    spec = ForcingSpec(0.25, 0.0, f)
    with pytest.raises(SingularQuadratureFail, match="freezing error"):
        forcing_field(spec, np.array([40.0, 100.0, 300.0]), f.times[1024::256])
