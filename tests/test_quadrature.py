import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnls import quadrature
from qnls.quadrature import (MAX_PANELS, MAX_ROUNDS, _budget_message, _on, _pick, _starts,
                             adaptive_panels, integrate_with_tail, panel_sums, tail_probe)


def test_panel_sums_exact_on_degree_15_polynomial():
    # an 8-node Gauss-Legendre rule integrates degree 2*8 - 1 exactly
    coef = np.random.default_rng(3).standard_normal(16)
    poly = np.polynomial.Polynomial(coef)
    edges = np.array([-1.5, -0.2, 0.4, 2.0])
    got = panel_sums(poly, edges, 8)
    anti = poly.integ()
    exact = anti(edges[1:]) - anti(edges[:-1])
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
    assert np.sum(got) == pytest.approx(anti(2.0) - anti(-1.5), rel=1e-13)


def test_batched_integrand_matches_row_by_row_calls():
    shifts = np.array([0.0, 0.3, -1.2, 2.5, 0.7])
    row = lambda c: (lambda y: np.exp(1j * c * y) / (1.0 + (y - c) ** 2))
    batch = lambda y: np.exp(1j * shifts[:, None] * y[None, :]) \
        / (1.0 + (y[None, :] - shifts[:, None]) ** 2)
    edges = np.linspace(-4.0, 5.0, 13)
    got = panel_sums(batch, edges, 8)
    assert got.shape == (shifts.size, edges.size - 1)
    for i, c in enumerate(shifts):
        assert np.array_equal(got[i], panel_sums(row(c), edges, 8))


def test_tail_probe_on_cubic_decay():
    # both tails of |y|^-3 beyond W hold W^-2 in closed form
    for W in (4.0, 12.0, 100.0):
        est = tail_probe(lambda y: np.abs(y) ** -3.0, W)
        assert est == pytest.approx(W ** -2, rel=0.02)


def _alone(f):
    """A one-integral f(y) as the integrand of a batch of one."""
    return lambda y, rows: f(y)


def test_adaptive_rule_keeps_the_imaginary_part():
    got, failed = adaptive_panels(_alone(lambda y: np.exp(1j * y)), [0.0], [np.pi])
    assert got.dtype == complex and not failed
    assert got[0] == pytest.approx(2j, abs=1e-12)


def test_adaptive_rule_fails_past_its_panel_budget():
    # the value is ~0.0627+0.0627i; a rule that stops at its budget and
    # returns the running sum gives 0.454-0.336i here
    got, failed = adaptive_panels(_alone(lambda y: np.exp(400j * y * y)), [-50.0], [50.0])
    assert list(failed) == [0]
    assert np.isnan(got[0])


# --- batches: a ragged table of integrals, one row each ---

def test_ragged_panel_sums_equal_lone_calls():
    shifts = np.array([0.0, 0.3, -1.2, 2.5])
    row_edges = [np.linspace(-4.0, 5.0, 13), np.array([-1.0, 2.0]),
                 np.linspace(0.0, 9.0, 13), np.array([-3.0, -1.0, 0.5])]
    f = lambda y, rows: np.exp(1j * shifts[rows] * y) / (1.0 + (y - shifts[rows]) ** 2)
    got = panel_sums(f, np.concatenate(row_edges), 8, [e.size - 1 for e in row_edges])
    want = [panel_sums(lambda y: f(y, np.full(y.size, r)), e, 8)
            for r, e in enumerate(row_edges)]
    assert np.array_equal(got, np.concatenate(want))


def _batch_integrand(shift, wiggle):
    """Lorentzian rows, and cos(400 y^2) rows that exceed the panel budget."""
    def f(y, rows):
        return np.where(wiggle[rows], np.cos(400.0 * y * y),
                        (np.abs(y) > 0.5) / (1.0 + (y - shift[rows]) ** 2))
    return f


def test_adaptive_batch_equals_lone_calls():
    shift = np.array([0.0, 1.3, -2.0, 0.4, 3.0])
    wiggle = np.array([False, False, True, False, False])
    lo = np.array([-5.0, -1.0, -50.0, 2.0, -10.0])
    hi = np.array([5.0, 7.5, 50.0, 2.0, 10.0])        # row 3 is empty
    bps = np.array([[-0.5, 0.5], [-0.5, np.nan], [np.nan, np.nan],
                    [np.nan, np.nan], [0.5, 30.0]])
    f = _batch_integrand(shift, wiggle)
    values, failed = adaptive_panels(f, lo, hi, bps, rel_tol=1e-9)
    for r in range(lo.size):
        fr = lambda y, rows, r=r: f(y, np.full(y.size, r))
        want, msg = adaptive_panels(fr, lo[r:r + 1], hi[r:r + 1],
                                    bps[r:r + 1, ~np.isnan(bps[r])], rel_tol=1e-9)
        assert np.array_equal(values[r], want[0], equal_nan=True)
        assert failed.get(r) == msg.get(0)
    assert list(failed) == [2]          # its neighbours are untouched


def _reevaluating_panels(fvec, lo, hi, breakpoints, rel_tol):
    """adaptive_panels as it was before it carried panel sums: each round
    evaluates the coarse and fine rule on every live panel afresh."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bps = np.asarray(breakpoints, dtype=float)
    if not bps.size:
        bps = np.empty((lo.size, 0))
    n = lo.size
    done, failed = [], {}
    rows = np.flatnonzero(hi > lo)
    cand = np.column_stack([lo[rows], hi[rows], bps[rows]])
    inside = (cand > lo[rows, None]) & (cand < hi[rows, None])
    inside[:, :2] = True
    cand = np.sort(np.where(inside, cand, np.nan), axis=1)
    keep = ~np.isnan(cand)
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    edges, counts = cand[keep], keep.sum(axis=1)
    err_sum = np.zeros(rows.size)
    for _ in range(MAX_ROUNDS):
        if not rows.size:
            break
        g, panels = _on(fvec, rows), counts - 1
        coarse = panel_sums(g, edges, 8, panels)
        at = 2 * np.arange(edges.size) - np.repeat(np.arange(rows.size), counts)
        left = np.delete(np.arange(edges.size - 1), _starts(counts)[1:] - 1)
        split = np.empty(2 * edges.size - rows.size)
        split[at] = edges
        split[at[left] + 1] = 0.5 * (edges[left] + edges[left + 1])
        fine = panel_sums(g, split, 8, 2 * panels)
        fine_per_panel = fine[0::2] + fine[1::2]
        err = np.abs(fine_per_panel - coarse)
        starts = _starts(panels)
        total = np.add.reduceat(fine_per_panel, starts)
        err_sum = np.add.reduceat(err, starts)
        conv = err_sum <= rel_tol * np.abs(total)
        done.append((rows[conv], total[conv]))
        over = ~conv & (counts > MAX_PANELS)
        for i in np.flatnonzero(over):
            failed[rows[i]] = _budget_message(err_sum[i], lo[rows[i]], hi[rows[i]],
                                              counts[i])
        go = ~conv & ~over
        live = np.repeat(go, panels)
        pick = np.zeros(err.size, dtype=bool)
        pick[live] = _pick(err[live], panels[go])[0]
        keep = np.repeat(go, 2 * counts - 1)
        keep[at[left] + 1] &= pick
        edges = split[keep]
        counts = (counts + np.add.reduceat(pick.astype(np.intp), starts))[go]
        rows, err_sum = rows[go], err_sum[go]
    for r, e, k in zip(rows, err_sum, counts):
        failed[r] = _budget_message(e, lo[r], hi[r], k)
    values = np.zeros(n, dtype=np.result_type(float, *(v for _, v in done)))
    for r, v in done:
        values[r] = v
    values[list(failed)] = np.nan
    return values, failed


def _mixed_batch():
    """Lorentzian rows and two cos(400 y^2) rows that exceed the panel budget."""
    shift = np.array([0.0, 1.3, -2.0, 0.4, 3.0, 0.0])
    wiggle = np.array([False, False, True, False, False, True])
    lo = np.array([-5.0, -1.0, -50.0, 2.0, -10.0, -20.0])
    hi = np.array([5.0, 7.5, 50.0, 2.0, 10.0, 40.0])
    bps = np.array([[-0.5, 0.5], [-0.5, np.nan], [np.nan, np.nan],
                    [np.nan, np.nan], [0.5, 30.0], [0.0, 3.0]])
    return _batch_integrand(shift, wiggle), lo, hi, bps


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
def test_carried_sums_equal_reevaluated_ones(rel_tol):
    f, lo, hi, bps = _mixed_batch()
    got, failed = adaptive_panels(f, lo, hi, bps, rel_tol)
    want, want_failed = _reevaluating_panels(f, lo, hi, bps, rel_tol)
    assert np.array_equal(got, want, equal_nan=True)
    assert failed == want_failed and set(failed) == {2, 5}
    # a complex integrand, and a lone row
    g = _alone(lambda y: np.exp(3j * y) / (1.0 + y * y))
    for args in (([-40.0, 0.0], [40.0, 9.0], [[-1.0, 2.0], [1.0, np.nan]]),
                 ([-40.0], [40.0], [[]])):
        got, failed = adaptive_panels(g, *args, rel_tol)
        want, want_failed = _reevaluating_panels(g, *args, rel_tol)
        assert got.dtype == complex and np.array_equal(got, want)
        assert failed == want_failed


def _reference_pick(rows):
    """The bisection pick, row by row in plain Python: rank a row's panels by
    error, the larger first and the higher index first among equal errors,
    and keep the prefix whose running sum stays below 95 % of the row's
    ranked sum, plus one panel."""
    pick = []
    for row in rows:
        ranked = sorted(range(len(row)), key=lambda i: (-row[i], -i))
        total = 0.0
        for i in ranked:
            total += row[i]
        chosen, running = set(), 0.0
        for i in ranked:
            chosen.add(i)
            running += row[i]
            if not running < 0.95 * total:
                break
        pick.extend(i in chosen for i in range(len(row)))
    return np.array(pick, dtype=bool)


def _engine_pick(rows):
    sizes = [len(r) for r in rows]
    pick, n_picked = _pick(np.concatenate(rows).astype(float), np.array(sizes))
    assert np.array_equal(n_picked, [p.sum() for p in np.split(pick, np.cumsum(sizes)[:-1])])
    return pick


def test_pick_matches_the_reference_rule():
    a, b = 0.00098789, 0.01351327
    long_row = np.full(21, 0.01)
    long_row[[0, 2, 3, 5, 7, 8, 9, 11, 12, 14, 15, 17, 18, 19, 20]] = 1.0
    long_row[10] = 10.0
    rows = [[0.0, a, b, 0.0, 0.0, b, a, 0.0],        # mirrored equal errors
            [0.1, 0.2, 0.3, 0.3, 0.2, 0.1],
            [0.7],
            [0.0, 0.0, 0.0],                          # no error: one panel
            list(long_row)]
    got = _engine_pick(rows)
    assert np.array_equal(got, _reference_pick(rows))
    # the 95 % cut falls inside the run of fifteen equal errors: 10 and the
    # fourteen of them with the highest panel indices are picked
    long_pick = got[-21:]
    assert long_pick.sum() == 15 and not long_pick[0]
    assert np.array_equal(got[:8], [False, False, True, False, False, True, True, False])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0, 2.0]),
                         min_size=1, max_size=40), min_size=1, max_size=6))
def test_pick_matches_the_reference_rule_on_tied_rows(rows):
    assert np.array_equal(_engine_pick(rows), _reference_pick(rows))


def test_pick_ranks_a_nan_error_first():
    assert np.array_equal(_engine_pick([[1.0, np.nan, 2.0], [3.0, 0.1]]),
                          [False, True, False, True, False])


def test_pick_padding_stays_small_in_a_j_sweep(monkeypatch):
    # _pick pads every live row to the longest one; a J sweep's rows grow
    # together, so the padded table stays near the live panel count
    from qnls import bilinear
    seen = []

    def recording(err, panels):
        seen.append((panels.size * panels.max(initial=0), panels.sum()))
        return _pick(err, panels)

    monkeypatch.setattr(quadrature, "_pick", recording)
    p = bilinear.EstimateParams(a=0.5, b=0.4, d=0.4, kappa=0.4, s=0.0)
    bilinear.j_sup_sweep("J1", p, (10.0, 20.0, 40.0))
    cells, live = np.array([s for s in seen if s[1] > 0]).T
    assert len(live) > 10
    assert cells.sum() <= 1.5 * live.sum()      # 1.27 when written
    assert np.all(cells <= 2.0 * live)          # at most 1.73 per round


def test_a_row_map_of_a_row_map_is_one_map():
    # each layer that renumbers a batch's rows wraps the integrand with _on;
    # the maps compose, so f sees a node's row after one lookup, called
    # from the same depth as through a single map
    seen = []

    def f(y, rows):
        seen.append((np.array(rows), len(inspect.stack(0))))
        return y

    a, b = np.array([4, 0, 3, 1, 2]), np.array([3, 0, 2])
    r, y = np.array([1, 2, 2, 0]), np.zeros(4)
    _on(f, a[b])(y, r)
    _on(_on(f, a), b)(y, r)
    (once, depth_once), (twice, depth_twice) = seen
    assert np.array_equal(twice, a[b][r]) and np.array_equal(once, twice)
    assert depth_twice == depth_once


def _recorded_calls(monkeypatch, fvec, *args):
    """Run adaptive_panels on fvec; return, per panel_sums call, its edges,
    panels and the (rows, y) its integrand saw."""
    seen, calls = [], []

    def recording(y, rows):
        seen.append((np.array(rows), np.array(y)))
        return fvec(y, rows)

    def spy(f, edges, order, panels=None):
        out = panel_sums(f, edges, order, panels)
        calls.append((edges, np.asarray(panels), *seen.pop()))
        assert not seen
        return out

    monkeypatch.setattr(quadrature, "panel_sums", spy)
    adaptive_panels(recording, *args)
    return calls


def test_no_node_is_evaluated_twice(monkeypatch):
    # re-evaluating every live panel each round repeats nodes.  Every node a
    # ragged call evaluates belongs to one of its integrals' panels, so every
    # node evaluated is used, and used once
    f, lo, hi, bps = _mixed_batch()
    seen = []       # (row, y) of every node evaluated
    for _, _, rows, y in _recorded_calls(monkeypatch, f, lo, hi, bps, 1e-9):
        seen.extend(zip(rows.tolist(), y.tolist()))
    assert len(seen) == len(set(seen)) > 0


def test_panel_sums_node_count_is_the_number_of_nodes_evaluated(monkeypatch):
    # a ragged call evaluates its integrals' own panels and no panel joining
    # two of them: (len(edges) - len(panels)) * order nodes.  perfbench reads
    # (len(edges) - 1) * order, which a plain call evaluates
    f, lo, hi, bps = _mixed_batch()
    calls = _recorded_calls(monkeypatch, f, lo, hi, bps, 1e-9)
    assert len(calls) > 2 and any(panels.size > 1 for _, panels, _, _ in calls)
    for edges, panels, rows, y in calls:
        assert rows.size == y.size == (edges.size - panels.size) * 8
    seen = []
    edges = np.linspace(-1.0, 2.0, 7)
    panel_sums(lambda y: seen.append(y.size) or np.cos(y), edges, 8)
    assert seen == [(edges.size - 1) * 8]


def test_fvec_sees_only_its_rows_interval():
    # each node of a row lies in the row's [lo, hi]; a panel joining two
    # integrals of a ragged call would reach past one row's hi or below the
    # next row's lo
    f, lo, hi, bps = _mixed_batch()
    outside = []

    def recording(y, rows):
        outside.append(np.count_nonzero((y < lo[rows]) | (y > hi[rows])))
        return f(y, rows)

    adaptive_panels(recording, lo, hi, bps, 1e-9)
    assert len(outside) > 2 and sum(outside) == 0


@pytest.mark.parametrize("window", [None, 4.0, 40.0])
def test_tail_batch_equals_lone_calls(window):
    shift = np.array([0.0, 1.3, -2.0, 6.0])
    wiggle = np.zeros(4, dtype=bool)
    lorentz = _batch_integrand(shift, wiggle)
    # row 2 does not decay, so without a window its blocks never shrink
    f = lambda y, rows: np.where(rows == 2, 1.0, lorentz(y, rows))
    bps = np.array([[-0.5, 0.5], [-0.5, 0.5], [np.nan, np.nan], [0.5, -0.5]])
    values, tails, failed = integrate_with_tail(f, bps, window=window, rel_tol=1e-8)
    for r in range(shift.size):
        fr = lambda y, rows, r=r: f(y, np.full(y.size, r))
        want, tail, msg = integrate_with_tail(fr, bps[r:r + 1, ~np.isnan(bps[r])],
                                              window=window, rel_tol=1e-8)
        assert np.array_equal([values[r], tails[r]], [want[0], tail[0]], equal_nan=True)
        assert failed.get(r) == msg.get(0)
    assert (2 in failed) == (window is None)


@pytest.mark.parametrize("window,bps", [
    pytest.param(w, bps, id=str(w)) for w, bps in
    [(4.0, []), (30.0, [-20.0, 20.0]), (100.0, []), (1000.0, []), (1e9, [])]])
def test_windowed_integral_stops_at_the_window(window, bps):
    # the blocks settle geometrically long before |y| = window; a completion
    # out to infinity gives pi, not 2 atan(window).  1e9 lies beyond the
    # MAX_DOUBLINGS blocks that end an unwindowed integral.  Windows 4 and 30
    # (breakpoints +-20) lie inside the first block: the window is the domain.
    lorentz = _alone(lambda y: 1.0 / (1.0 + y * y))
    value, _, failed = integrate_with_tail(lorentz, np.array([bps]), window=window,
                                           rel_tol=1e-10)
    assert not failed
    assert value[0] == pytest.approx(2.0 * np.arctan(window), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(-5.0, 5.0), w=st.floats(0.2, 3.0),
       extra=st.lists(st.floats(-40.0, 40.0), max_size=6))
def test_value_invariant_under_extra_breakpoints(c, w, extra):
    # 1/(1 + (y-c)^2) off |y - c| <= w, on [-30, 30]
    f = _alone(lambda y: (np.abs(y - c) > w) / (1.0 + (y - c) ** 2))
    (value,), failed = adaptive_panels(f, [-30.0], [30.0], [[c - w, c + w]], rel_tol=1e-10)
    (more,), more_failed = adaptive_panels(f, [-30.0], [30.0], [[c - w, c + w] + extra],
                                           rel_tol=1e-10)
    assert not failed and not more_failed
    assert more == pytest.approx(value, rel=1e-9)
    exact = np.arctan(30.0 - c) + np.arctan(30.0 + c) - 2.0 * np.arctan(w)
    assert value == pytest.approx(exact, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the geometric tail completion is accepted at 10 % of "
                          "(1 - r) whatever rel_tol asks (ROADMAP item 6)")
def test_tail_completion_meets_rel_tol():
    # the Lorentzian off |y - c| <= w over the real line is pi - 2 atan w; at
    # rel_tol 1e-9 the completed values are 3e-5 to 6.4e-4 off, and no row fails
    c, w = (a.ravel() for a in np.meshgrid([0.0, 0.3, -1.7], [0.5, 1.0, 2.0]))
    f = lambda y, rows: (np.abs(y - c[rows]) > w[rows]) / (1.0 + (y - c[rows]) ** 2)
    rel_tol = 1e-9
    values, _, failed = integrate_with_tail(f, np.column_stack([c - w, c + w]),
                                            rel_tol=rel_tol)
    assert not failed
    exact = np.pi - 2.0 * np.arctan(w)
    assert np.max(np.abs(values / exact - 1.0)) <= rel_tol
