import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnls.quadrature import adaptive_panels, integrate_with_tail, panel_sums, tail_probe


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
