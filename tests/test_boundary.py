import math
import re

import numpy as np
import pytest
from oracles import pde_residual

from qnls import boundary
from qnls.boundary import (KERNEL_REL_TOL, ForcingSpec, _alt_field, _base_field,
                           _datum_bounds, _DatumGrid, _half_order_series,
                           _osc_tail_factor, _PanelTable, _ray_grid,
                           boundary_estimate_ratio, delta_coefficient, forcing_field,
                           trace_check)
from qnls.errors import (LambdaOutOfRange, NonPositiveA, NonUniformGrid,
                         SingularQuadratureFail, SupportViolation,
                         WindowViolation)
from qnls.fractional import _integrate
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
    # the base kernel acts on I_{-1/2 - lambda/2} f, an order above -2
    with pytest.raises(LambdaOutOfRange, match=r"lambda must lie in \(-2, 3\), got 3.0"):
        ForcingSpec(1.0, 3.0, f)


def test_datum_must_start_at_zero():
    with pytest.raises(SupportViolation, match="start at t = 0"):
        ForcingSpec(1.0, 0.0, TimeSeries(0.1, 0.01, np.ones(64)))


@pytest.mark.parametrize("xs", [[0.0, 0.5, 1.5], [1.0, 0.5, 0.0], [0.5, 0.5]],
                         ids=["uneven", "descending", "repeated"])
def test_ray_needs_uniformly_spaced_increasing_xs(xs):
    # a descending grid gave NaN columns and a repeated one an overflow
    f = bump_series(n=64)
    # at lambda = 0 there is no ray, so any xs will do
    assert np.all(np.isfinite(forcing_field(ForcingSpec(1.0, 0.0, f), xs, [0.5])))
    for lam in (0.25, -0.25):
        with pytest.raises(NonUniformGrid, match="uniformly spaced and increasing"):
            forcing_field(ForcingSpec(1.0, lam, f), xs, [0.5])


def test_a_ladder_past_the_panel_table_fails_before_the_table_is_built():
    # k reaches B / (pi t_max), about 1e11 at x = 20 and a = 1e-9: a table
    # indexed by k would take hundreds of GB
    spec = ForcingSpec(1e-9, 0.0, bump_series(n=64))
    with pytest.raises(SingularQuadratureFail,
                       match=r"the sigma ladder of the column at B = 1e\+11 reaches k = "):
        forcing_field(spec, [1.0, 20.0], [0.5, 1.0])


@pytest.mark.parametrize("lam", [-0.25, 0.0, 0.25])
def test_empty_xs_gives_the_empty_field(lam):
    # lambda = +-1/4 raised a bare IndexError from the ray's last x
    got = forcing_field(ForcingSpec(1.0, lam, bump_series(n=64)), [], [0.5, 0.75])
    assert got.shape == (0, 2) and got.dtype == complex


def test_kernel_constants():
    # the point-source coefficient carries the conjugate phase of the trace
    # normalisation 2 sqrt(a) exp(-3 pi i / 4)
    assert delta_coefficient(1.0) == pytest.approx(2.0 * np.exp(0.75j * np.pi))
    assert abs(delta_coefficient(4.0)) == pytest.approx(4.0)


def test_zero_datum_gives_zero_field():
    f = TimeSeries(0.0, 0.01, np.zeros(128))
    spec = ForcingSpec(1.0, 0.0, f)
    assert forcing_field(spec, [0.7], [0.9])[0, 0] == 0.0
    assert forcing_field(spec, [0.0], [0.5])[0, 0] == 0.0


def test_vanishes_at_initial_time():
    spec = ForcingSpec(1.0, 0.0, bump_series(n=512))
    assert forcing_field(spec, [0.8], [0.0])[0, 0] == 0.0


def test_base_trace_reproduces_datum():
    f = bump_series(n=4096)
    reports = trace_check([ForcingSpec(a, 0.0, f) for a in (0.25, 0.5, 1.0, 2.0)])
    assert all(rep.residual < 5e-3 for rep in reports)


def test_pointwise_value_matches_brute_force_quadrature():
    f = bump_series(n=2048)
    spec = ForcingSpec(1.0, 0.0, f)
    x, t = 1.0, 0.5
    got = forcing_field(spec, [x], [t])[0, 0]
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
    for rep in trace_check([ForcingSpec(a, lam, f) for a in (0.5, 1.0) for lam in (0.25, 0.5)]):
        assert rep.phase == "lambda*pi/4"
        assert rep.residual < 1e-2
        assert rep.residuals["3*lambda*pi/4"] > 10 * rep.residual


def test_trace_check_needs_lambda_above_minus_one():
    # forcing_field refuses x = 0 at lambda <= -1 too, with another message
    with pytest.raises(LambdaOutOfRange, match="trace identity needs lambda > -1"):
        trace_check([ForcingSpec(1.0, -1.0, bump_series(n=256))])


def test_trace_check_evaluates_each_scaled_ray_once(monkeypatch):
    # criterion 2's datum and a's, and a = 0.1: x = 0 sees a only through
    # y / sqrt(a), so a = 1/4, 1/2 and 1 share one ray; a = 2's step is
    # clipped and a = 0.1's ray is longer, so each is its own
    f = bump_series(n=4096)
    a_list = [0.25, 0.5, 1.0, 2.0, 0.1]
    idx = np.unique(np.linspace(1, f.n - 1, 48).astype(int))
    calls = []

    def spy(spec, xs, ts):
        calls.append(spec.a)
        return forcing_field(spec, xs, ts)

    monkeypatch.setattr(boundary, "forcing_field", spy)
    for lam in (0.0, 0.25, -0.25):
        specs = [ForcingSpec(a, lam, f) for a in a_list]
        calls.clear()
        reports = trace_check(specs)
        # one evaluation per ray, at the a nearest 1 on it; at lambda = 0
        # (B = 0 at x = 0) one for every a
        assert calls == ([1.0] if lam == 0.0 else [1.0, 2.0, 0.1])
        assert reports[0] is reports[1] is reports[2]
        assert len({id(rep) for rep in reports}) == len(calls)
        for spec, rep in zip(specs, reports):
            # the per-spec rule: the trace of this spec alone
            got = forcing_field(spec, [0.0], f.times[idx])[0]
            ref = spec.a ** (lam / 2.0) * f.samples[idx]
            for name, k in (("lambda*pi/4", 0.25), ("3*lambda*pi/4", 0.75)):
                own = (np.max(np.abs(got - np.exp(1j * k * np.pi * lam) * ref))
                       / np.max(np.abs(ref)))
                assert rep.residuals[name] == pytest.approx(own, rel=0.0, abs=1e-12)
            assert rep.residual == min(rep.residuals.values())


def test_trace_check_shares_no_evaluation_between_data(monkeypatch):
    f, g = bump_series(n=256), bump_series(n=256, t_end=0.5)
    calls = []

    def spy(spec, xs, ts):
        calls.append(spec.f)
        return forcing_field(spec, xs, ts)

    monkeypatch.setattr(boundary, "forcing_field", spy)
    reports = trace_check([ForcingSpec(1.0, 0.0, f), ForcingSpec(1.0, 0.0, g)])
    assert [c is f for c in calls] == [True, False]
    assert reports[0] is not reports[1]


def test_linearity_in_datum():
    f = bump_series(n=1024)
    g = TimeSeries(f.t0, f.dt, f.samples * np.exp(1j * 2.0 * f.times))
    both = TimeSeries(f.t0, f.dt, 2.0 * f.samples + 1j * g.samples)
    pt = ([0.7], [0.6])
    va = forcing_field(ForcingSpec(1.0, 0.0, f), *pt)[0, 0]
    vb = forcing_field(ForcingSpec(1.0, 0.0, g), *pt)[0, 0]
    vc = forcing_field(ForcingSpec(1.0, 0.0, both), *pt)[0, 0]
    # panel structure adapts to each signal, so exact linearity is not expected
    assert abs(vc - (2.0 * va + 1j * vb)) < 1e-6 * abs(vc)


def test_continuity_in_x_at_origin():
    # the continuity modulus at the origin is eps^(lambda+1), so the grid
    # probes shrink with the order
    f = bump_series(n=1024)
    for lam, eps in ((0.0, 0.02), (0.25, 1e-6), (-0.5, 1e-6)):
        spec = ForcingSpec(1.0, lam, f)
        mid = forcing_field(spec, [0.0], [0.5])[0, 0]
        left = forcing_field(spec, [-eps], [0.5])[0, 0]
        right = forcing_field(spec, [eps], [0.5])[0, 0]
        assert abs(left - right) < 1e-2 * max(abs(mid), abs(right))


def test_representation_consistency_at_quarter():
    # the integrated-by-parts form holds for every lambda > -2; at 1/4 it is
    # the reference for the ray convolution forcing_field runs there
    f = bump_series(n=2048)
    spec = ForcingSpec(1.0, 0.25, f)
    for x, t in ((0.5, 0.5), (0.0, 0.6), (-0.8, 0.5)):
        v1 = forcing_field(spec, [x], [t])[0, 0]
        v2 = _alt_field(spec, np.array([x]), np.array([t]))[0, 0]
        assert abs(v1 - v2) < 5e-2 * abs(v1)


def _test_field(nx, nt, x_center=0.0, shift=0.0):
    """Bump test field; shift moves the grid by that fraction of a cell, so
    shift = 0.5 leaves x = 0 halfway between two nodes."""
    xh, T = 6.0, 1.0
    dx, dt = 2 * xh / nx, T / nt
    x = -xh + dx * (np.arange(nx) + shift)
    t = dt * np.arange(nt)
    z = (smooth_bump(x, x_center - 2.5, x_center + 2.5)[:, None]
         * smooth_bump(t, 0.2, 0.8)[None, :]).astype(complex)
    return SpaceTimeField(x[0], dx, 0.0, dt, z)


def test_pde_residual_zero_datum():
    f = TimeSeries(0.0, 0.01, np.zeros(128))
    spec = ForcingSpec(1.0, 0.0, f)
    assert pde_residual(spec, _test_field(32, 32)) == 0.0


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("shift", [0.0, 0.5], ids=["on-node", "off-node"])
def test_pde_residual_refines_at_second_order(lam, shift):
    # with x = 0 between two nodes the source pairing interpolates
    # (I_lam z)(0, t); pairing about the last node x <= 0 instead refined at
    # first order for lam > 0
    spec = ForcingSpec(1.0, lam, bump_series(n=2048))
    coarse = abs(pde_residual(spec, _test_field(32, 32, shift=shift)))
    fine = abs(pde_residual(spec, _test_field(64, 64, shift=shift)))
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
    # for lambda >= 0 the source at x = 0 is read between two nodes
    test = _test_field(32, 32)
    moved = SpaceTimeField(1.0, test.dx, 0.0, test.dt, test.samples)
    with pytest.raises(SupportViolation, match="x = 0 inside the grid"):
        pde_residual(ForcingSpec(1.0, 0.25, bump_series(n=512)), moved)


def test_estimate_ratio_zero_datum():
    f = TimeSeries(0.0, 0.01, np.zeros(128))
    assert boundary_estimate_ratio(ForcingSpec(1.0, 0.0, f), 0.0, "SpaceTraces") == 0.0


@pytest.mark.parametrize("which,b", [("SpaceTraces", None), ("Bourgain", 0.4)],
                         ids=["SpaceTraces", "Bourgain"])
def test_estimate_ratio_space_traces_stable(which, b):
    spec = ForcingSpec(1.0, 0.0, bump_series(n=2048))
    r1 = boundary_estimate_ratio(spec, 0.0, which, b, nx=128, nt=64)
    r2 = boundary_estimate_ratio(spec, 0.0, which, b, nx=256, nt=128)
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
        _assert_columns_match_ladder(m, (0.25, 1.0, 2.0), (0.0, 0.3, 2.0, 7.5, 19.8),
                                     time_sets)


def test_columns_match_per_time_ladder_when_the_datum_starts_nonzero():
    # the interpolant jumps from 0 to m(0) at t = 0: the panels above sqrt(t)
    # still read zero and the straddling panel is removed node by node
    dt = 1.0 / 511
    m = TimeSeries(0.0, dt, (1.0 + dt * np.arange(512))
                   * np.exp(2j * np.pi * 3.0 * dt * np.arange(512)))
    assert m(0.0) != 0.0
    on_grid = m.times[1::7]
    off_grid = np.concatenate([(m.t_end / 64) * np.arange(1, 65),
                               m.times[[3, 200]] + 0.37 * dt])
    _assert_columns_match_ladder(m, (0.5, 1.0), (0.0, 0.3, 2.0, 7.5),
                                 [on_grid, off_grid])


def _grouping_times(build, m):
    k = np.arange(1, m.n)
    if build == "arange":
        return m.dt * k
    if build == "linspace":
        return np.linspace(0.0, m.t_end, m.n)[1:]
    # t0 + k dt, every other time moved by one ulp up or down
    ts = m.t0 + k * m.dt
    return np.where(k % 2, np.nextafter(ts, np.inf), np.nextafter(ts, 0.0))


@pytest.mark.parametrize("build", ["arange", "linspace", "ulp"])
def test_datum_times_form_one_offset_group(build):
    m = bump_series(n=2048)
    grid = _DatumGrid(m, _grouping_times(build, m))
    assert grid.phis.tolist() == [0.0]
    # off the grid, at 0.37 dt past each datum time
    grid = _DatumGrid(m, _grouping_times(build, m) + 0.37 * m.dt)
    assert grid.phis.size == 1 and abs(grid.phis[0] - 0.37) < 1e-9


@pytest.mark.parametrize("offset", [4.9e-10, -4.9e-10, 5.1e-10, -5.1e-10])
def test_offset_grouping_rounds_at_half_a_nano_step(offset):
    # offsets are rounded to 1e-9 dt: within 5e-10 dt of a datum time a time
    # joins its group, beyond it starts a group of its own.  A CPU whose
    # last bits of u - k moved a time across the threshold splits the group,
    # which shows here rather than as a moved number.
    near = abs(offset) < 5e-10
    assert np.round(offset, 9) == (0.0 if near else math.copysign(1e-9, offset))
    m = bump_series(n=64)
    k = np.arange(10, 20, dtype=float)
    ts = np.concatenate([k * m.dt, (k + offset) * m.dt])
    assert _DatumGrid(m, ts).phis.size == (1 if near else 2)


def _mixed_field_case():
    """A datum, a, columns and time sets that mix what one field can hold:
    the x = 0 column (no ladder rows), columns with and without top panels,
    times below the deepest ladder edge and off-grid times in several
    offset groups."""
    m = _half_order_series(ForcingSpec(1.0, 0.0, bump_series(n=512)))
    a = 0.5
    on_grid = np.concatenate([m.times[1:4], m.times[8::16]])
    t_max = float(on_grid.max())
    # sqrt(B / (pi k)) = sqrt(t_max) at B = pi k t_max: the ladder ends at
    # the top time, which leaves no room for top panels
    flush = [float(np.nextafter(math.sqrt(4 * a * math.pi * k * t_max), 0.0))
             for k in (3, 7)]
    off_grid = np.concatenate([[0.0], m.times[[1, 2, 50, 300, 480]]
                               + np.array([0.25, 0.5, 0.37, 0.25, 0.9]) * m.dt])
    return m, a, (0.0, 1.0, *flush, 5.0), [on_grid, off_grid]


def test_mixed_field_matches_per_time_ladder():
    m, a, x_values, time_sets = _mixed_field_case()
    on_grid, off_grid = time_sets
    m_sup, m_dsup = _datum_bounds(m)
    t_max = float(on_grid.max())
    table = _PanelTable(np.square(x_values) / (4.0 * a), t_max, m_dsup,
                        m_sup * min(math.sqrt(t_max), 1.0))
    assert table.n[0] == 0 and table.n_top[0] == 64
    assert list(table.n_top[2:4]) == [0, 0] and table.n_top[1] > 0 and table.n_top[4] > 0
    deep = table.edge(np.arange(1, 5), 0).min()
    assert np.sqrt(on_grid[0]) < deep and np.sqrt(off_grid[1]) < deep
    assert _DatumGrid(m, off_grid[1:]).phis.size == 4
    _assert_columns_match_ladder(m, (a,), x_values, time_sets)


class _GuardedGrid(_DatumGrid):
    """The datum grid with a band of NaN around both halves of `ext`, as
    wide as each half: a read outside the padded datum gives NaN."""

    made = 0

    def __init__(self, m, t):
        super().__init__(m, t)
        band = np.full(self.span, np.nan, dtype=complex)
        self.ext = np.concatenate([band, self.ext[:self.span], band,
                                   band, self.ext[self.span:], band])
        self.base = self.base + self.span
        self.span *= 3
        _GuardedGrid.made += 1


def test_no_read_leaves_the_padded_datum(monkeypatch):
    # every straddle slot, the unused ones at weight 0 too, reads a real
    # node of its column; NaN * 0 is NaN, so a slot that read past the
    # padding would show in the field
    monkeypatch.setattr(boundary, "_DatumGrid", _GuardedGrid)
    monkeypatch.setattr(_GuardedGrid, "made", 0)
    m, a, x_values, time_sets = _mixed_field_case()
    xs = np.concatenate([x_values, np.negative(x_values)])
    grid = _GuardedGrid(m, time_sets[0])
    assert np.all(np.isnan(grid.read(np.full((time_sets[0].size, 1), 3.0))))
    for ts in time_sets:
        field = _base_field(m, _datum_bounds(m), a, xs, ts)
        assert np.all(np.isfinite(field))
    assert _GuardedGrid.made == 1 + len(time_sets)


def test_no_folded_window_leaves_the_padded_datum(monkeypatch):
    # each time's lag window spans every lag, zero-weighted ones too; a
    # window reaching past the padding would read the NaN band
    monkeypatch.setattr(boundary, "_DatumGrid", _GuardedGrid)
    m, a, x_values, time_sets = _mixed_field_case()
    xs = np.concatenate([x_values, np.negative(x_values)])
    rows = np.vstack([np.ones(xs.size), np.arange(xs.size)])
    for ts in time_sets:
        assert np.all(np.isfinite(_base_field(m, _datum_bounds(m), a, xs, ts, rows)))


def _assert_columns_match_ladder(m, a_values, x_values, time_sets):
    """Each x alone, then every x and its negative in one field, against the
    ladder; a field with a failing column raises for the smallest one."""
    bounds = _datum_bounds(m)
    xs = np.concatenate([x_values, np.negative(x_values)])
    for a in a_values:
        col_max = dict.fromkeys(x_values, 0.0)
        for ts in time_sets:
            refs = {}
            for x in x_values:
                try:
                    refs[x] = _ladder_column_values(m, bounds, a, x, ts)
                except SingularQuadratureFail:
                    with pytest.raises(SingularQuadratureFail):
                        _base_field(m, bounds, a, [x], ts)
                    continue
                col_max[x] = max(col_max[x], float(np.max(np.abs(refs[x]))))
                got = _base_field(m, bounds, a, [x], ts)[0]
                err = float(np.max(np.abs(got - refs[x])))
                assert err <= 1e-8 * col_max[x], (m.n, a, x, ts.size, err / col_max[x])
            failing = [x for x in x_values if x not in refs]
            if failing:
                with pytest.raises(SingularQuadratureFail,
                                   match=re.escape(f"at x={min(failing):.3g}") + "$"):
                    _base_field(m, bounds, a, xs, ts)
                continue
            field = _base_field(m, bounds, a, xs, ts)
            for row, x in zip(field, [*x_values, *x_values]):
                err = float(np.max(np.abs(row - refs[x])))
                assert err <= 1e-8 * col_max[x], (m.n, a, x, xs.size, err / col_max[x])


@pytest.mark.parametrize("lam", [0.25, -0.25])
def test_trace_sized_def0_field_has_no_column_by_datum_table(lam, peak_bytes):
    # 171 ray columns of 48 times from a 4096-sample datum (two such fields,
    # at t +- dt, for lambda < 0); a table of columns x datum samples (11 MB)
    # or of times x lags (3 MB) would raise the benchmark's peak RSS
    f = bump_series(n=4096)
    spec = ForcingSpec(2.0, lam, f)
    ts = f.times[np.unique(np.linspace(1, f.n - 1, 48).astype(int))]
    peak = peak_bytes(lambda: forcing_field(spec, np.array([0.0]), ts))
    assert peak < 4 * 2 ** 20, peak / 2 ** 20


def test_contraction_sized_field_has_no_whole_field_node_table(peak_bytes):
    # 129 |x| columns of 64 datum times, 670 k ladder nodes in all; node,
    # weight and lag arrays over all of them at once (about 27 MB) would
    # raise the benchmark's peak RSS
    f, _ = next(_oracle_cases())
    xs = -20.0 + (40.0 / 256) * np.arange(256)
    peak = peak_bytes(lambda: forcing_field(ForcingSpec(1.0, 0.0, f), xs, f.times))
    assert peak < 4 * 2 ** 20, peak / 2 ** 20


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
    # each of the three columns fails alone; the field names the smallest |x|
    for xs in ([40.0, 100.0, 300.0], [300.0, -100.0, -40.0]):
        with pytest.raises(SingularQuadratureFail,
                           match=r"^freezing error .* above 1% at x=40$"):
            forcing_field(spec, np.array(xs), f.times[1024::256])


def _unfolded_rows(spec, xs, ts):
    """The ray rule applied to the whole ray's base field, column by column:
    the reference the folded rows are held to."""
    m = _half_order_series(spec)
    bounds = _datum_bounds(m)
    ys, dy = _ray_grid(xs, spec)
    if spec.lam > 0.0:
        G = _base_field(m, bounds, spec.a, ys, ts)
        return _integrate(G[::-1], dy, spec.lam)[::-1][:xs.size]
    delta = spec.f.dt
    g_plus = _base_field(m, bounds, spec.a, ys, ts + delta)
    g_minus = _base_field(m, bounds, spec.a, ys, ts - delta)
    dt_term = 1j * (g_plus - g_minus) / (2.0 * delta)
    out = -_integrate(dt_term[::-1], dy, spec.lam + 2.0)[::-1][:xs.size] / spec.a
    x_neg = np.zeros_like(xs)
    neg = xs < 0.0
    x_neg[neg] = (-xs[neg]) ** (spec.lam + 1.0)
    out += (delta_coefficient(spec.a) / spec.a / math.gamma(spec.lam + 2.0)
            * np.outer(x_neg, m(ts)))
    return out


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.9, -0.25, -0.5, -0.75])
def test_folded_trace_row_matches_unfolded_rule(monkeypatch, lam):
    # the fold sums the rule's weights into lag bins before the datum, the
    # unfolded rule sums the columns first: the rows agree to rounding, the
    # worst through the 1 / (2 dt) difference at lambda < 0
    xs = np.array([0.0])
    calls = _counting_column_sums(monkeypatch)
    for n in (1024, 4096):
        f = bump_series(n=n)
        ts = f.times[np.unique(np.linspace(1, f.n - 1, 48).astype(int))]
        mixed = np.concatenate([[0.0, -f.dt], ts[::6], ts[1::8] + 0.37 * f.dt,
                                ts[2::9] + 0.25 * f.dt])
        for a in (0.25, 1.0, 2.0):
            spec = ForcingSpec(a, lam, f)
            for times in (ts, ts + 0.37 * f.dt, mixed):
                want = _unfolded_rows(spec, xs, times)[0]
                calls.clear()
                got = forcing_field(spec, xs, times)[0]
                # the one row folds, and no column is above the guard's bound
                assert calls == [], (n, a, times.size)
                err = float(np.max(np.abs(got - want)))
                assert err <= 1e-11 * float(np.max(np.abs(want))), (n, a, times.size, err)


@pytest.mark.parametrize("lam", [0.25, -0.25])
def test_many_row_field_keeps_the_unfolded_rule(monkeypatch, lam):
    # rows at off-grid times, one offset group each: folding does not pay,
    # so every distinct |y| of the ray is summed once per field (two fields
    # at lambda < 0), and the rows weigh the sums
    f = bump_series(n=1024)
    spec = ForcingSpec(1.0, lam, f)
    xs = -2.0 + 0.25 * np.arange(16)
    ts = (f.t_end / 16) * np.arange(16)
    want = _unfolded_rows(spec, xs, ts)
    calls = _counting_column_sums(monkeypatch)
    got = forcing_field(spec, xs, ts)
    assert len(calls) == {0.25: 56, -0.25: 112}[lam]
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_pde_residual_field_does_not_fold(monkeypatch):
    # pde_residual's 64 x 64 grid at lambda = 1/4, 64 rows: folding there
    # made pde_residual take 11.2 s against 0.49 s with the column sums
    test = _test_field(64, 64)
    spec = ForcingSpec(1.0, 0.25, bump_series(n=2048))
    calls = _counting_column_sums(monkeypatch)
    forcing_field(spec, test.x, test.t)
    assert len(calls) == np.unique(np.abs(_ray_grid(test.x, spec)[0])).size


def _trace_times(f):
    return f.times[np.unique(np.linspace(1, f.n - 1, 48).astype(int))]


def _wide_column_case():
    """Columns at x = 0, 0.3, 2, 7.5 and 19.8 for a = 1/4: the last has
    more nodes than RUN_NODES and runs alone, the others share a run."""
    f = bump_series(n=1024)
    m = _half_order_series(ForcingSpec(0.25, 0.0, f))
    return f, m, np.array([0.0, 0.3, 2.0, 7.5, 19.8])


def test_run_cut_cases_hold_a_wide_column_and_times_below_its_deepest_edge():
    f, m, xs = _wide_column_case()
    m_sup, m_dsup = _datum_bounds(m)
    ts = _trace_times(f)
    t_max = float(ts.max())
    table = _PanelTable(xs * xs, t_max, m_dsup, m_sup * min(math.sqrt(t_max), 1.0))
    nodes = 8 * table.p
    assert nodes[-1] > boundary.RUN_NODES and nodes[:-1].sum() <= boundary.RUN_NODES
    assert boundary._runs(nodes, np.zeros(xs.size, dtype=bool)) == [(0, 4), (4, 5)]
    assert math.sqrt(f.dt) < table.edge(4, 0)


def _run_cut_fields():
    """Fields whose columns RUN_NODES cuts into runs of several columns."""
    f = bump_series(n=4096)
    x0 = np.array([0.0])
    g = bump_series(n=1024)
    ts = _trace_times(g)
    # test_folded_trace_row_matches_unfolded_rule's three offset groups
    mixed = np.concatenate([[0.0, -g.dt], ts[::6], ts[1::8] + 0.37 * g.dt,
                            ts[2::9] + 0.25 * g.dt])
    _, m, xs = _wide_column_case()
    bounds = _datum_bounds(m)
    below = np.concatenate([[g.dt, 2 * g.dt], ts])
    fold = np.ones((1, xs.size))
    return {
        "trace row, lambda = 1/4":
            lambda: forcing_field(ForcingSpec(2.0, 0.25, f), x0, _trace_times(f)),
        "trace row, lambda = -1/4":
            lambda: forcing_field(ForcingSpec(2.0, -0.25, f), x0, _trace_times(f)),
        "three offset groups":
            lambda: forcing_field(ForcingSpec(1.0, 0.25, g), x0, mixed),
        "three offset groups, lambda = -1/4":
            lambda: forcing_field(ForcingSpec(1.0, -0.25, g), x0, mixed),
        # the datum-grid group reads only nodes at lag 1, so a column's last
        # bin there has the next column's lag
        "a group of early times only":
            lambda: forcing_field(ForcingSpec(1.0, 0.25, g), x0,
                                  np.concatenate([[g.dt, 2 * g.dt], ts + 0.37 * g.dt])),
        "a column above the budget, folded":
            lambda: _base_field(m, bounds, 0.25, xs, ts, fold),
        "a column above the budget, summed":
            lambda: _base_field(m, bounds, 0.25, xs, ts),
        "times below the deepest edge, folded":
            lambda: _base_field(m, bounds, 0.25, xs, below, fold),
        "times below the deepest edge, summed":
            lambda: _base_field(m, bounds, 0.25, xs, below),
    }


@pytest.mark.parametrize("case", list(_run_cut_fields()))
def test_field_does_not_depend_on_how_its_columns_are_cut_into_runs(monkeypatch, case):
    # a bin starts where a column starts, and the fold adds each run's bins
    # in column order, so runs of one column give the same field bit for bit
    field = _run_cut_fields()[case]
    want = field()
    monkeypatch.setattr(boundary, "RUN_NODES", 0)
    assert np.array_equal(field(), want)


def test_folded_trace_row_bins_its_columns_in_runs(monkeypatch):
    # a fall-back to one column per pass keeps every field and shows only
    # in the benchmark's time
    f = bump_series(n=4096)
    spec = ForcingSpec(2.0, 0.25, f)
    xs = np.array([0.0])
    runs = []
    real = boundary._run_bins
    monkeypatch.setattr(boundary, "_run_bins",
                        lambda table, grid, c0, c1: runs.append(c1 - c0)
                        or real(table, grid, c0, c1))
    calls = _counting_column_sums(monkeypatch)
    forcing_field(spec, xs, _trace_times(f))
    columns = np.unique(np.abs(_ray_grid(xs, spec)[0])).size
    assert calls == [] and sum(runs) == columns
    assert len(runs) < columns, (len(runs), columns)


def _high_frequency_case():
    """test_freezing_error_guard_raises's datum: columns at x >= 40 fail the
    freezing guard, those at x <= 30 are below 0.1 % of scale0."""
    t = np.linspace(0.0, 1.0, 2048)
    f = TimeSeries(0.0, t[1] - t[0], np.sin(2 * np.pi * 200 * t) * t * (1 - t))
    return f, f.times[1024::256]


def _counting_column_sums(monkeypatch):
    calls = []
    real = boundary._column_sum
    monkeypatch.setattr(boundary, "_column_sum",
                        lambda *args: calls.append(1) or real(*args))
    return calls


def test_folded_guard_sums_only_the_columns_above_its_bound(monkeypatch):
    f, ts = _high_frequency_case()
    m = _half_order_series(ForcingSpec(0.25, 0.0, f))
    bounds = _datum_bounds(m)
    xs = np.array([7.5, -300.0, 19.8, 100.0, -40.0, 30.0])
    with pytest.raises(SingularQuadratureFail) as unfolded:
        _base_field(m, bounds, 0.25, xs, ts)
    calls = _counting_column_sums(monkeypatch)
    with pytest.raises(SingularQuadratureFail) as folded:
        _base_field(m, bounds, 0.25, xs, ts, np.ones((1, xs.size)))
    assert str(folded.value) == str(unfolded.value)
    assert str(folded.value).endswith("at x=40")
    assert len(calls) == 3


def test_folded_field_below_the_guard_bound_reads_no_column(monkeypatch):
    f, ts = _high_frequency_case()
    m = _half_order_series(ForcingSpec(0.25, 0.0, f))
    bounds = _datum_bounds(m)
    xs = np.array([0.3, -2.0, 7.5, 19.8, 30.0])
    rows = np.vstack([np.ones(xs.size), np.linspace(-1.0, 2.0, xs.size)])
    want = rows @ _base_field(m, bounds, 0.25, xs, ts)
    calls = _counting_column_sums(monkeypatch)
    got = _base_field(m, bounds, 0.25, xs, ts, rows)
    assert calls == []
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_alt_field_refuses_the_origin_before_any_base_field(monkeypatch):
    # SpaceTraces' xs hold 0.0; lambda <= -1 is singular there, and both ray
    # fields were made before that was checked
    calls = []
    real = boundary._base_field
    monkeypatch.setattr(boundary, "_base_field",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    spec = ForcingSpec(1.0, -1.2, bump_series(n=256))
    with pytest.raises(LambdaOutOfRange, match="singular at x = 0"):
        boundary_estimate_ratio(spec, 0.0, "SpaceTraces", nx=32, nt=16)
    assert calls == []
