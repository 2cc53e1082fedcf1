import numpy as np
import pytest
from scipy.integrate import quad

from qnls import bilinear
from qnls.bilinear import (ARGMAX_REL_TOL, J_INDICES, SWEEP_REL_TOL, EstimateParams, JSpec,
                           applicable_indices, bilinear_ratio, j_eval, j_sup_sweep,
                           scheme_for)
from qnls.dispersion import FrequencyPoint, classify_region
from qnls.errors import ParamDomainViolated, QuadratureNonConvergent, ZeroDenominator
from qnls.grids import SpaceTimeField
from qnls.profiles import band_limited_pair
from qnls.quadrature import integrate_with_tail, panel_sums, tail_probe
from qnls.spectral import _bracket


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


# --- batches of base points ---

# (-1, 25/3) is a J3 bracket-vertex point whose blocks never settle at
# a = 1/4; (-4, 400) an A-J point above the cut whose tail is too heavy;
# A-J defers to J1 at (0, 0), (1.5, -2.25) and (4, -16)
BATCH_BASES = np.array([(0.0, 0.0), (-1.0, 8.333333333333334), (0.5, -3.0),
                        (1.5, -2.25), (-4.0, 400.0), (2.5, 10.0), (4.0, -16.0),
                        (-0.75, 0.5)])


def lone(index, base, p, **kw):
    try:
        return j_eval(JSpec(index, tuple(base)), p, **kw)
    except QuadratureNonConvergent:
        return np.nan


@pytest.mark.parametrize("index", ["J1", "J2", "J3", "J4", "J5", "J6", "A-J"])
@pytest.mark.parametrize("a,kappa,s", [(0.25, 0.0, 0.0), (0.5, 0.1, 0.2),
                                       (2.0, 0.1, 0.2), (2.0, 0.3, 0.0)])
@pytest.mark.parametrize("window", [None, 12.0])
def test_batch_equals_lone_calls(index, a, kappa, s, window):
    # at a = 1/2 the regions of J2, J3, J5 and J6 are empty, and at every a
    # J2's is for |xi| < 1; at a = 2, kappa = 0.3 no unwindowed J1 converges
    p = params(a=a, kappa=kappa, s=s)
    got = j_eval(JSpec(index, BATCH_BASES), p, window=window, rel_tol=SWEEP_REL_TOL)
    want = [lone(index, base, p, window=window, rel_tol=SWEEP_REL_TOL)
            for base in BATCH_BASES]
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("index", ["J1", "J3", "J4", "J5", "J6", "A-J"])
@pytest.mark.parametrize("a", [0.25, 2.0])
def test_zero_exponent_weights_cost_no_bracket(index, a, monkeypatch):
    # at kappa = s = 0 every weight <.>^e has e = 0 and is exactly 1: each
    # integrand call evaluates only its quadratic bracket, at every node
    sizes, per_call = [], []

    def spy(z):
        sizes.append(np.size(z))
        return _bracket(z)

    def counting(fvec, *args, **kw):
        def g(y, r):
            start = len(sizes)
            out = fvec(y, r)
            per_call.append((y.size, sizes[start:]))
            return out
        return integrate_with_tail(g, *args, **kw)

    monkeypatch.setattr(bilinear, "_bracket", spy)
    monkeypatch.setattr(bilinear, "integrate_with_tail", counting)
    j_eval(JSpec(index, BATCH_BASES), params(a=a), window=12.0, rel_tol=SWEEP_REL_TOL)
    assert per_call and all(s == [n] for n, s in per_call)


@pytest.mark.parametrize("index", ["J1", "J2", "J3", "J4", "J5", "J6"])
def test_batch_equals_lone_calls_without_region(index):
    p = params(a=0.5)
    got = j_eval(JSpec(index, BATCH_BASES), p, ignore_region=True)
    want = [lone(index, base, p, ignore_region=True) for base in BATCH_BASES]
    assert np.array_equal(got, want, equal_nan=True)


# mirror pairs: xi > 0 here, -xi in the same batch; (1, 25/3) is a J3
# bracket-vertex point that fails at a = 1/4, (4, 400) an A-J point whose
# tail is too heavy
MIRROR_BASES = np.array([(0.5, -3.0), (1.0, 8.333333333333334), (1.5, -2.25),
                         (2.5, 10.0), (4.0, -16.0), (4.0, 400.0), (0.75, 0.5),
                         (3.0, -9.0)])


def _assert_even_in_xi(index, bases, p, **kw):
    mirror = bases * [-1.0, 1.0]
    values = j_eval(JSpec(index, np.concatenate([bases, mirror])), p,
                    rel_tol=SWEEP_REL_TOL, **kw)
    plus, minus = values[:len(bases)], values[len(bases):]
    assert np.array_equal(np.isnan(plus), np.isnan(minus))
    live = ~np.isnan(plus)
    assert np.all(np.abs(minus[live] - plus[live]) <= 1e-12 * np.abs(plus[live]))


# the dispersion relations are even in xi, and the regions and weights see
# xi only through squares and absolute values, so J(-xi, tau) = J(xi, tau);
# j_sup_sweep evaluates one point of each mirror pair on that ground.
# Schemes R and S at a = 1/4, A and B at a = 2, RES at a = 1/2; A-J has no
# region switch.  Every index but the 2-d appendix ones, which are slow.
APPENDIX_2D = ("A-J1", "A-J2", "A-J3")


@pytest.mark.parametrize("index,ignore_region", [
    (index, off) for index in J_INDICES if index not in APPENDIX_2D
    for off in ((False, True) if index.startswith("J") else (False,))])
@pytest.mark.parametrize("a,kappa,s", [(0.25, 0.0, 0.0), (2.0, 0.1, 0.2), (0.5, 0.1, 0.2)])
@pytest.mark.parametrize("window", [None, 12.0])
def test_j_is_even_in_xi(index, ignore_region, a, kappa, s, window):
    _assert_even_in_xi(index, MIRROR_BASES, params(a=a, kappa=kappa, s=s),
                       window=window, ignore_region=ignore_region)


@pytest.mark.parametrize("index", APPENDIX_2D)
@pytest.mark.parametrize("a", [0.25, 2.0])
@pytest.mark.parametrize("window", [None, 12.0])
def test_appendix_2d_is_even_in_xi(index, a, window):
    bases = np.array([(2.0, 1.0), (0.5, -1.0), (1.5, -2.25), (3.0, -9.0), (2.5, 10.0),
                      (1.25, 4.0)])
    _assert_even_in_xi(index, bases, params(a=a, kappa=-0.75), window=window)


def test_non_convergent_row_leaves_its_neighbours_alone():
    p = params()
    bad = (-1.0, 8.333333333333334)
    with pytest.raises(QuadratureNonConvergent):
        j_eval(JSpec("J3", bad), p, rel_tol=SWEEP_REL_TOL)
    good = np.array([(0.0, 0.0), (2.5, 10.0)])
    alone = j_eval(JSpec("J3", good), p, rel_tol=SWEEP_REL_TOL)
    mixed = j_eval(JSpec("J3", np.array([good[0], bad, good[1]])), p,
                   rel_tol=SWEEP_REL_TOL)
    assert np.isnan(mixed[1])
    assert np.array_equal(mixed[[0, 2]], alone)


def _appendix_2d_oracle(index, base, p, window, rel_tol):
    """The appendix 2-d integral at one base point, node by node: each outer
    node's inner integral is its own batch of one.  Returns (value, message),
    the message of the first node that fails or of the failed tail check."""
    P, Q = base
    a, b, d, kappa, s = p.a, p.b, p.d, p.kappa, p.s
    region = {"A-J1": 1, "A-J2": 2, "A-J3": 3}[index]
    scheme = scheme_for(index, a)
    if scheme == "RES" and region > 1:
        return 0.0, None
    t_window = None if window is None else window * window

    def integral(g, bps):
        val, _, failed = integrate_with_tail(lambda y, rows: g(y), np.reshape(bps, (1, -1)),
                                             window=t_window, rel_tol=10 * rel_tol)
        if failed:
            raise QuadratureNonConvergent(failed[0])
        return float(val[0])

    if index == "A-J1":
        pref = _bracket(Q) ** kappa * _bracket(Q + P * P) ** (-2 * d)

        def inner(xi2):
            def g(tau2):
                fp = FrequencyPoint(P, Q, np.full_like(tau2, xi2), tau2)
                chi = (classify_region(fp, a, scheme) == region).astype(float)
                w1 = (Q - tau2) - (P - xi2) ** 2
                w2 = tau2 + a * xi2 ** 2
                return (_bracket(P - xi2) ** (-2 * kappa) * _bracket(xi2) ** (-2 * s)
                        * chi * _bracket(w1) ** (-2 * b) * _bracket(w2) ** (-2 * b))
            return integral(g, [Q - (P - xi2) ** 2, -a * xi2 ** 2])
        outer_bps = [-1.0, 1.0, P]
    elif index == "A-J2":
        pref = _bracket(P) ** (2 * s) * _bracket(Q + a * P * P) ** (-2 * b)
        if abs(P) < 1.0:
            return 0.0, None

        def inner(xi):
            def g(tau):
                fp = FrequencyPoint(np.full_like(tau, xi), tau,
                                    np.full_like(tau, P), np.full_like(tau, Q))
                chi = (classify_region(fp, a, scheme) == region).astype(float)
                w = tau + xi ** 2
                w1 = (tau - Q) - (xi - P) ** 2
                return (_bracket(xi - P) ** (-2 * kappa) * _bracket(tau) ** kappa
                        * chi * _bracket(w1) ** (-2 * b) * _bracket(w) ** (-2 * d))
            return integral(g, [-xi ** 2, Q + (xi - P) ** 2, 0.0])
        outer_bps = [P - 1.0, P + 1.0, P]
    else:
        pref = _bracket(P) ** (-2 * kappa) * _bracket(Q - P * P) ** (-2 * b)

        def inner(xi2):
            def g(tau2):
                fp = FrequencyPoint(np.full_like(tau2, P + xi2), Q + tau2,
                                    np.full_like(tau2, xi2), tau2)
                chi = (classify_region(fp, a, scheme) == region).astype(float)
                w2 = tau2 + a * xi2 ** 2
                return (_bracket(Q + tau2) ** kappa * _bracket(xi2) ** (-2 * s)
                        * chi * _bracket(P + xi2) ** (-4 * d) * _bracket(w2) ** (-2 * b))
            return integral(g, [-a * xi2 ** 2, -Q])
        outer_bps = [-1.0, 1.0, -P]

    fvec = lambda ys: np.array([inner(float(y)) for y in np.atleast_1d(ys)])
    if window is None:
        gap = max(abs(1.0 - 2.0 * a), 0.05)
        W = max(16.0, 2.0 * np.sqrt(12.0 * (1.0 + abs(Q + P * P)) / gap))
    else:
        W = window
    ladder = [2.0 ** k for k in range(1, int(np.ceil(np.log2(W))) + 1) if 2.0 ** k < W]
    edges = sorted({float(e) for e in [-W, W] + ladder + [-l for l in ladder]
                    + [e for e in outer_bps if abs(e) < W]})
    try:
        value = float(np.sum(panel_sums(fvec, np.asarray(edges), 12))) * pref
        tail = tail_probe(fvec, W) * pref
    except QuadratureNonConvergent as exc:
        return np.nan, str(exc)
    if window is None and tail > 0.05 * max(abs(value), 1e-300):
        return np.nan, f"{index} tail exceeds 5% of value"
    return value, None


# Without a window A-J2 at (2, 1) and A-J1 at a = 1/2 fail the 5% tail
# check, and at kappa = 0 the A-J3 inner integrals decay like |tau|^(-2b)
# and fail node by node.  A-J2 is empty at (0.5, 1), where |xi| < 1, and
# A-J2 and A-J3 are empty at a = 1/2.
@pytest.mark.parametrize("index,a,kappa,bases", [
    ("A-J1", 0.25, -0.75, [(2.0, 1.0)]),
    ("A-J2", 0.25, -0.75, [(2.0, 1.0), (0.5, 1.0)]),
    ("A-J3", 0.25, -0.75, [(-2.0, 3.0)]),
    ("A-J3", 0.25, 0.0, [(2.0, 1.0)]),
    ("A-J1", 0.5, -0.75, [(2.0, 1.0)]),
    ("A-J2", 0.5, -0.75, [(2.0, 1.0)]),
    ("A-J3", 0.5, -0.75, [(2.0, 1.0)]),
])
@pytest.mark.parametrize("window", [None, 12.0])
def test_appendix_2d_equals_node_by_node_oracle(index, a, kappa, bases, window):
    p = params(a=a, kappa=kappa)
    want = [_appendix_2d_oracle(index, base, p, window, SWEEP_REL_TOL) for base in bases]
    got = j_eval(JSpec(index, np.array(bases)), p, window=window, rel_tol=SWEEP_REL_TOL)
    assert np.array_equal(got, [v for v, _ in want], equal_nan=True)
    for base, (_, msg) in zip(bases, want):
        if msg is None:
            continue
        with pytest.raises(QuadratureNonConvergent) as exc:
            j_eval(JSpec(index, base), p, window=window, rel_tol=SWEEP_REL_TOL)
        assert str(exc.value) == msg


def _quad_on_window(g, W, cuts):
    points = sorted(c for c in cuts if -W < c < W)
    return quad(g, -W, W, points=points, limit=500, epsabs=0.0, epsrel=1e-12)[0]


def _real_roots(*coef):
    return [r.real for r in np.roots(coef) if abs(r.imag) < 1e-12]


@pytest.mark.parametrize("base", [(0.5, 3.0), (-1.5, -2.0), (2.0, 10.0)])
def test_windowed_j1_matches_scipy_quad(base):
    # scheme R at a = 1/4: the region is |y| <= 1 or 2|tau + xi^2| >= |msum|
    a, b, d, W = 0.25, 0.49, 0.49, 12.0
    P, Q = base
    br = lambda z: np.sqrt(1.0 + z * z)
    msum = lambda y: (a - 1.0) * y * y + 2.0 * P * y + Q - P * P
    K = 2.0 * abs(Q + P * P)
    g = lambda y: (br(-(a - 1.0) * y * y - 2.0 * P * y + Q + P * P) ** (-(4 * b - 1))
                   * float(abs(y) <= 1.0 or K >= abs(msum(y))))
    cuts = [-1.0, 1.0] + _real_roots(a - 1.0, 2.0 * P, Q - P * P - K) \
        + _real_roots(a - 1.0, 2.0 * P, Q - P * P + K)
    want = br(Q + P * P) ** (-2 * d) * _quad_on_window(g, W, cuts)
    got = j_eval(JSpec("J1", base), params(a=a, b=b, d=d), window=W, rel_tol=1e-10)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("base", [(2.0, 1.0), (-3.0, -5.0)])
def test_windowed_j4_matches_scipy_quad(base):
    # scheme S at a = 1/4 for |xi| > 1: the region is 2|lam| >= |bracket|
    a, b, d, kappa, s, W = 0.25, 0.45, 0.45, 0.1, 0.2, 12.0
    P, Q = base
    br = lambda z: np.sqrt(1.0 + z * z)
    lam = Q + a * P * P
    bracket = lambda y: 2.0 * y * y - 2.0 * P * y + Q + P * P
    g = lambda y: (br(P) ** (2 * s) * br(P - y) ** (-2 * kappa) * br(y) ** (-2 * kappa)
                   * br(bracket(y)) ** (-(4 * b - 1)) * float(2 * abs(lam) >= abs(bracket(y))))
    cuts = _real_roots(2.0, -2.0 * P, Q + P * P - 2 * abs(lam)) + [P]
    want = br(lam) ** (-2 * d) * _quad_on_window(g, W, cuts)
    got = j_eval(JSpec("J4", base), params(a=a, b=b, d=d, kappa=kappa, s=s),
                 window=W, rel_tol=1e-10)
    assert got == pytest.approx(want, rel=1e-9)


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


def test_sup_sweep_argmax_ties_maxima_equal_up_to_rounding(monkeypatch):
    # values even in xi, with peaks at |xi| = 1.5 and |xi| = 1, the latter
    # 1 ulp larger: the sup is the larger value, the argmax the first of the
    # maxima in scan order (xi = -1.5)
    def stub(spec, p, window=None, rel_tol=None):
        xi, tau = np.asarray(spec.base, dtype=float).T
        v = 1.0 / (1.0 + np.minimum((np.abs(xi) - 1.5) ** 2, (np.abs(xi) - 1.0) ** 2)
                   + (tau / 100.0) ** 2)
        return np.where(np.abs(xi) == 1.0, np.nextafter(v, np.inf), v)

    monkeypatch.setattr(bilinear, "j_eval", stub)
    for rec in j_sup_sweep("J1", params(), (10.0, 20.0), n_base=5):
        # the peak is 1 at (-1.5, 0) and its neighbour 1 ulp above at (-1, 0)
        assert rec["sup"] == np.nextafter(1.0, 2.0)
        assert (rec["argmax_xi"], rec["argmax_tau"]) == (-1.5, 0.0)


def _unfolded_sweep(index, p, radii, n_base=9):
    """The sweep without the fold: both points of every mirror pair are
    evaluated, and the NaN points of each radius are re-evaluated as they are."""
    offsets = (0.0, -2.0, 2.0, -8.0, 8.0)
    xi_anchors = (0.0, 1.0, -1.0, 1.5, -1.5, 2.5, -2.5, 4.0, -4.0)
    grids = []
    for R in radii:
        xs = np.unique(np.concatenate([np.linspace(-R, R, n_base), xi_anchors]))
        taus = np.linspace(-R * R, R * R, n_base)
        grids.append(np.array([
            (x, tau) for x in xs for tau in np.concatenate(
                [taus, [anchor + off for anchor in bilinear._peak_anchors(index, p, x)
                        for off in offsets]])]))
    points, where = np.unique(np.concatenate(grids), axis=0, return_inverse=True)
    values = j_eval(JSpec(index, points), p, rel_tol=SWEEP_REL_TOL)
    records, start = [], 0
    for R, grid in zip(radii, grids):
        vals = values[where[start:start + len(grid)]]
        start += len(grid)
        miss = np.isnan(vals)
        if miss.any():
            vals[miss] = j_eval(JSpec(index, grid[miss]), p, window=R,
                                rel_tol=SWEEP_REL_TOL)
            if np.isnan(vals).any():
                raise QuadratureNonConvergent(
                    f"{index}: the windowed J does not converge at R = {R}")
        sup = vals.max()
        k = int(np.argmax(vals >= sup - ARGMAX_REL_TOL * abs(sup)))
        records.append({"index": index, "R": float(R), "sup": float(sup),
                        "argmax_xi": float(grid[k, 0]), "argmax_tau": float(grid[k, 1])})
    return records


@pytest.mark.parametrize("index", J_INDICES)
def test_base_grid_equals_the_point_by_point_grid(index):
    # the argmax rule reads scan order, so the whole-array grid must be the
    # point-by-point one element for element; a = 1 drops the vertex anchor
    for p in (params(), params(a=1.0), params(a=2.0, kappa=-0.75)):
        for R in (10.0, 20.0, 40.0):
            xs = np.unique(np.concatenate([np.linspace(-R, R, 9), bilinear._XI_ANCHORS]))
            taus = np.linspace(-R * R, R * R, 9)
            want = np.array([
                (x, tau) for x in xs for tau in np.concatenate(
                    [taus, [anchor + off for anchor in bilinear._peak_anchors(index, p, x)
                            for off in bilinear._TAU_OFFSETS]])])
            got = bilinear._base_grid(index, p, R, 9)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# j-sweep's defaults (criterion 7's a = 1/4) and the other configs of
# criterion 7, then one where no unwindowed J1 converges, at radii (10, 20, 40);
# each runs the windowed fall-back somewhere
@pytest.mark.parametrize("cfg", [
    {"a": 0.25}, {"a": 0.5}, {"a": 0.5, "kappa": 0.4, "indices": ["J1"]},
    {"a": 2.0, "kappa": 0.3, "s": 0.1, "indices": ["J1", "J4", "J5", "A-J"]},
], ids=["a0.25", "a0.5", "negative-control", "a2"])
def test_folded_sweep_matches_unfolded_oracle(monkeypatch, cfg):
    p = params(**{k: v for k, v in cfg.items() if k != "indices"})
    radii = (10.0, 20.0, 40.0)
    calls = []
    real = bilinear.j_eval

    def spy(spec, p, window=None, **kw):
        calls.append((window, np.asarray(spec.base, dtype=float)))
        return real(spec, p, window=window, **kw)

    windows = set()
    for index in cfg.get("indices") or applicable_indices(p):
        want = _unfolded_sweep(index, p, radii)
        calls.clear()
        monkeypatch.setattr(bilinear, "j_eval", spy)
        got = j_sup_sweep(index, p, radii)
        monkeypatch.setattr(bilinear, "j_eval", real)
        for g, w in zip(got, want, strict=True):
            assert g["sup"] == pytest.approx(w["sup"], rel=1e-12, abs=0.0)
            assert (g["argmax_xi"], g["argmax_tau"]) == (w["argmax_xi"], w["argmax_tau"])
        # one unwindowed batch; every batch on xi <= 0, each distinct point once
        assert [window for window, _ in calls].count(None) == 1
        for window, base in calls:
            windows.add(window)
            assert np.all(base[:, 0] <= 0.0)
            assert len(np.unique(base, axis=0)) == len(base)
    assert windows == {None, *radii}


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
