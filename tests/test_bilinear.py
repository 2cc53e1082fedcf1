import numpy as np
import pytest
from scipy.integrate import quad

from qnls import bilinear
from qnls.bilinear import (ARGMAX_REL_TOL, J_INDICES, SWEEP_REL_TOL, EstimateParams,
                           applicable_indices, bilinear_ratio, j_eval, j_sup_sweep,
                           scheme_for)
from qnls.dispersion import FrequencyPoint, classify_region, modulations
from qnls.errors import ParamDomainViolated, QuadratureNonConvergent, ZeroDenominator
from qnls.grids import SpaceTimeField
from qnls.profiles import band_limited_pair
from qnls.quadrature import integrate_with_tail, panel_sums, tail_probe
from qnls.spectral import _bracket


def params(a=0.25, b=0.4, d=0.4, kappa=0.0, s=0.0):
    return EstimateParams(a=a, b=b, d=d, kappa=kappa, s=s)


def lone(index, base, p, **kw):
    """j_eval at one base point, a batch of one: (value, message or None)."""
    values, failed = j_eval(index, [base], p, **kw)
    assert set(failed) <= {0}
    return values[0], failed.get(0)


# --- j_eval ---

def test_j1_origin_matches_riemann_oracle():
    p = params()
    got, _ = lone("J1", (0.0, 0.0), p)
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
    for idx in ("J2", "J3", "J5", "J6", "A-J2", "A-J3"):
        assert lone(idx, (3.0, 7.0), p) == (0.0, None)


def test_j4_finite_and_decreasing_in_base_tau():
    p = params()
    lo, mid, hi = (lone("J4", base, p)[0] for base in [(0.0, 0.0), (0.0, 40.0), (0.0, 400.0)])
    assert np.isfinite(lo) and lo > 0
    assert lo > mid > hi


def test_appendix_defers_to_lemma_path_below_cut():
    p = params()
    base = (2.0, 10.0)      # |tau| <= 10 xi^2
    assert lone("A-J", base, p) == lone("J1", base, p)
    above = (1.0, 20.0)     # |tau| > 10 xi^2
    val, _ = lone("A-J", above, p)
    assert np.isfinite(val) and val > 0
    assert val != lone("J1", above, p)[0]


def test_appendix_2d_finite_for_negative_kappa():
    p = params(kappa=-0.75, s=0.0)
    for idx, base in (("A-J1", (1.5, -3.0)), ("A-J2", (2.0, 1.0)),
                      ("A-J3", (1.5, 2.0))):
        val, _ = lone(idx, base, p, window=12.0)
        assert np.isfinite(val) and val >= 0


def test_appendix_2d_requires_nonpositive_kappa():
    with pytest.raises(ParamDomainViolated, match=r"\['A-J1'\] need kappa <= 0"):
        j_eval("A-J1", [(1.0, 1.0)], params(kappa=0.5))
    with pytest.raises(ParamDomainViolated, match="A-J needs kappa >= 0"):
        j_eval("A-J", [(1.0, 100.0)], params(kappa=-0.5))


def test_estimate_params_window():
    with pytest.raises(ParamDomainViolated):
        params(b=0.55)
    with pytest.raises(ParamDomainViolated):
        params(d=0.3)
    with pytest.raises(ParamDomainViolated):
        params(a=-1.0)


def test_unknown_j_index_is_refused():
    with pytest.raises(ParamDomainViolated, match="unknown J index 'J7'"):
        j_eval("J7", [(0.0, 0.0)], params())


def test_scheme_binding():
    assert scheme_for("J1", 0.25) == "R"
    assert scheme_for("J1", 2.0) == "A"
    assert scheme_for("J5", 0.25) == "S"
    assert scheme_for("J5", 2.0) == "B"
    assert scheme_for("J4", 0.5) == "RES"
    assert applicable_indices(params(a=0.5)) == ["J1", "J4", "A-J"]
    assert "A-J1" in applicable_indices(params(kappa=-0.5))


def test_applicable_indices_leave_out_the_empty_appendix_regions():
    # at a = 1/2 the regions of A-J2 and A-J3 are empty, as are those of
    # J2, J3, J5 and J6, and a sweep of one fails its contract
    assert applicable_indices(params(a=0.5, kappa=-0.75)) == ["J1", "J4", "A-J1"]
    assert applicable_indices(params(a=0.25, kappa=-0.75)) == [
        "J1", "J2", "J3", "J4", "J5", "J6", "A-J1", "A-J2", "A-J3"]
    with pytest.raises(ParamDomainViolated, match=r"the regions of \['A-J2'\] are empty"):
        j_sup_sweep("A-J2", params(a=0.5, kappa=-0.75), (1.0, 2.0))


# --- batches of base points ---

# (-1, 25/3) is a J3 bracket-vertex point whose blocks never settle at
# a = 1/4; (-4, 400) an A-J point above the cut whose tail is too heavy;
# A-J defers to J1 at (0, 0), (1.5, -2.25) and (4, -16)
BATCH_BASES = np.array([(0.0, 0.0), (-1.0, 8.333333333333334), (0.5, -3.0),
                        (1.5, -2.25), (-4.0, 400.0), (2.5, 10.0), (4.0, -16.0),
                        (-0.75, 0.5)])


@pytest.mark.parametrize("index", ["J1", "J2", "J3", "J4", "J5", "J6", "A-J"])
@pytest.mark.parametrize("a,kappa,s", [(0.25, 0.0, 0.0), (0.5, 0.1, 0.2),
                                       (2.0, 0.1, 0.2), (2.0, 0.3, 0.0)])
@pytest.mark.parametrize("window", [None, 12.0])
def test_batch_equals_lone_calls(index, a, kappa, s, window):
    # at a = 1/2 the regions of J2, J3, J5 and J6 are empty, and at every a
    # J2's is for |xi| < 1; at a = 2, kappa = 0.3 no unwindowed J1 converges
    p = params(a=a, kappa=kappa, s=s)
    got, failed = j_eval(index, BATCH_BASES, p, window=window, rel_tol=SWEEP_REL_TOL)
    want = [lone(index, base, p, window=window, rel_tol=SWEEP_REL_TOL)
            for base in BATCH_BASES]
    assert np.array_equal(got, [v for v, _ in want], equal_nan=True)
    assert failed == {k: msg for k, (_, msg) in enumerate(want) if msg is not None}


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
    j_eval(index, BATCH_BASES, params(a=a), window=12.0, rel_tol=SWEEP_REL_TOL)
    assert per_call and all(s == [n] for n, s in per_call)


# mirror pairs: xi > 0 here, -xi in the same batch; (1, 25/3) is a J3
# bracket-vertex point that fails at a = 1/4, (4, 400) an A-J point whose
# tail is too heavy
MIRROR_BASES = np.array([(0.5, -3.0), (1.0, 8.333333333333334), (1.5, -2.25),
                         (2.5, 10.0), (4.0, -16.0), (4.0, 400.0), (0.75, 0.5),
                         (3.0, -9.0)])


def _assert_even_in_xi(index, bases, p, **kw):
    mirror = bases * [-1.0, 1.0]
    values, _ = j_eval(index, np.concatenate([bases, mirror]), p,
                       rel_tol=SWEEP_REL_TOL, **kw)
    plus, minus = values[:len(bases)], values[len(bases):]
    assert np.array_equal(np.isnan(plus), np.isnan(minus))
    live = ~np.isnan(plus)
    assert np.all(np.abs(minus[live] - plus[live]) <= 1e-12 * np.abs(plus[live]))


# the dispersion relations are even in xi, and the regions and weights see
# xi only through squares and absolute values, so J(-xi, tau) = J(xi, tau);
# j_sup_sweep evaluates one point of each mirror pair on that ground.
# Schemes R and S at a = 1/4, A and B at a = 2, RES at a = 1/2.  Every index
# but the 2-d appendix ones, which are slow.
APPENDIX_2D = ("A-J1", "A-J2", "A-J3")


# The case ids keep the "-False" suffix of the deleted region-off axis, so
# each case keeps the name it has always been recorded under.
@pytest.mark.parametrize("index", [pytest.param(index, id=f"{index}-False")
                                   for index in J_INDICES if index not in APPENDIX_2D])
@pytest.mark.parametrize("a,kappa,s", [(0.25, 0.0, 0.0), (2.0, 0.1, 0.2), (0.5, 0.1, 0.2)])
@pytest.mark.parametrize("window", [None, 12.0])
def test_j_is_even_in_xi(index, a, kappa, s, window):
    _assert_even_in_xi(index, MIRROR_BASES, params(a=a, kappa=kappa, s=s), window=window)


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
    value, msg = lone("J3", bad, p, rel_tol=SWEEP_REL_TOL)
    assert np.isnan(value) and msg
    good = np.array([(0.0, 0.0), (2.5, 10.0)])
    alone, failed = j_eval("J3", good, p, rel_tol=SWEEP_REL_TOL)
    assert not failed
    mixed, failed = j_eval("J3", np.array([good[0], bad, good[1]]), p,
                           rel_tol=SWEEP_REL_TOL)
    assert np.isnan(mixed[1]) and failed == {1: msg}
    assert np.array_equal(mixed[[0, 2]], alone)


# --- region indicators ---

# Each 1-d J fixes a base (P, Q), integrates y and has integrated out one
# time frequency t: the quadruple (xi, tau, xi2, tau2) as a function of
# (P, Q, y, t).
_QUADRUPLE = {
    "J1": lambda P, Q, y, t: (P, Q, y, t), "J4": lambda P, Q, y, t: (P, Q, y, t),
    "J2": lambda P, Q, y, t: (y, t, P, Q), "J5": lambda P, Q, y, t: (y, t, P, Q),
    "J3": lambda P, Q, y, t: (P + y, Q + t, y, t),
    "J6": lambda P, Q, y, t: (P + y, Q + t, y, t),
}


def _region_reached(index, a, P, Q, y):
    """Whether some t puts the quadruple of (P, Q, y, t) in the index's region.

    The three modulations are affine in t with slopes -1, 0 or 1, so which
    of their absolute values is largest changes only where two of them
    cross (w_i = +-w_j).  classify_region at every crossing, at the
    midpoints between neighbouring ones and beyond both ends therefore
    sees every region the t-line meets.
    """
    family, region = bilinear.J_REGIONS[index]

    def mods(t):
        return np.stack(modulations(FrequencyPoint(*_QUADRUPLE[index](P, Q, y, t)), a, family))
    base = mods(np.zeros_like(P))
    slope = np.round(mods(np.ones_like(P)) - base)
    cross = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for sign in (1.0, -1.0):
            den = slope[i] - sign * slope[j]
            with np.errstate(divide="ignore", invalid="ignore"):
                cross.append(np.where(den != 0, (sign * base[j] - base[i]) / den, np.nan))
    cross = np.sort(np.column_stack(cross), axis=1)       # NaN last
    lo, hi = np.nanmin(cross, axis=1), np.nanmax(cross, axis=1)
    t = np.column_stack([cross, 0.5 * (cross[:, 1:] + cross[:, :-1]), lo - 1.0, hi + 1.0])
    fp = FrequencyPoint(*_QUADRUPLE[index](P[:, None], Q[:, None], y[:, None],
                                           np.nan_to_num(t, nan=lo[:, None])))
    return np.any(classify_region(fp, a, family) == region, axis=1)


@pytest.mark.parametrize("index", ["J1", "J2", "J3", "J4", "J5", "J6"])
@pytest.mark.parametrize("a", [0.25, 0.75, 1.0, 2.0])
def test_projected_indicator_is_the_region_of_classify_region(index, a):
    # the indicator is on at (P, Q, y) exactly when some value of the
    # integrated-out time frequency puts the quadruple in the region
    rng = np.random.default_rng(36)
    P, y = rng.normal(0.0, 3.0, (2, 300))
    Q = rng.normal(0.0, 10.0, 300)
    _, f, _, empty = bilinear._pieces(index, P, Q, params(a=a))
    on = (f(y, np.arange(P.size)) != 0) & ~empty
    assert np.array_equal(on, _region_reached(index, a, P, Q, y))


def test_projected_indicator_at_one_half():
    # regions 2 and 3 are empty at a = 1/2, and region 1 is everything
    p = params(a=0.5)
    assert bilinear.check_indices(["J1", "J2", "J3", "J4", "J5", "J6"], p) == [
        "J2", "J3", "J5", "J6"]
    rng = np.random.default_rng(36)
    P, Q, y = rng.normal(0.0, 3.0, (3, 300))
    for index in ("J1", "J4"):
        _, f, _, _ = bilinear._pieces(index, P, Q, p)
        assert np.all(f(y, np.arange(P.size)) != 0)
        assert np.all(_region_reached(index, 0.5, P, Q, y))


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
                chi = (classify_region(fp, a, "N1") == region).astype(float)
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
                chi = (classify_region(fp, a, "N1") == region).astype(float)
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
                chi = (classify_region(fp, a, "N1") == region).astype(float)
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
    got, failed = j_eval(index, np.array(bases), p, window=window, rel_tol=SWEEP_REL_TOL)
    assert np.array_equal(got, [v for v, _ in want], equal_nan=True)
    assert failed == {k: msg for k, (_, msg) in enumerate(want) if msg is not None}


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
    got, _ = lone("J1", base, params(a=a, b=b, d=d), window=W, rel_tol=1e-10)
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
    got, _ = lone("J4", base, params(a=a, b=b, d=d, kappa=kappa, s=s),
                  window=W, rel_tol=1e-10)
    assert got == pytest.approx(want, rel=1e-9)


# --- sweeps ---

def test_sup_sweep_stabilizes_resonant():
    p = params(a=0.5)
    recs = j_sup_sweep("J1", p, (10.0, 20.0))
    sups = [r["sup"] for r in recs]
    assert all(np.isfinite(s) and s > 0 for s in sups)
    assert abs(sups[1] - sups[0]) < 0.1 * sups[0]


def test_sup_sweep_negative_control_grows():
    p = params(a=0.5, kappa=0.4, s=0.0)
    recs = j_sup_sweep("J1", p, (10.0, 20.0, 40.0))
    sups = [r["sup"] for r in recs]
    assert sups[0] < sups[1] < sups[2]


def test_sup_sweep_trend_in_b_d():
    sups = []
    for bd in (0.39, 0.43, 0.47):
        p = params(b=bd, d=bd)
        recs = j_sup_sweep("J1", p, (10.0,))
        sups.append(recs[0]["sup"])
    # larger b,d weaken the weights, so the sup decreases monotonically
    assert sups[0] > sups[1] > sups[2]


def test_j3_sup_stabilizes_at_a_equal_one():
    # over the outside of the other small ball J3's sups grew like 2R,
    # 18, 38 and 78; the small ball's region 3 has one sup at every radius
    sups = [r["sup"] for r in j_sup_sweep("J3", params(a=1.0), (10.0, 20.0, 40.0))]
    assert sups == pytest.approx([0.4603] * 3, rel=1e-4)


@pytest.mark.parametrize("index", ["J2", "J3", "J5", "J6"])
def test_regions_two_and_three_vanish_as_a_falls_to_one_half(index):
    # the regions are empty at a = 1/2, and the R = 40 sup falls toward 0
    # as a -> 1/2+; over the outside of the other small ball it read
    # 1.2-3.1 at each of these a
    sups = [j_sup_sweep(index, params(a=a), (10.0, 20.0, 40.0))[-1]["sup"]
            for a in (0.6, 0.51, 0.501)]
    assert 0.6 > sups[0] > sups[1] > sups[2]
    assert sups[2] < 0.05


def test_sup_sweep_raises_where_the_windowed_j_does_not_converge():
    # R^2 is finite, but the window reaches |y| > 1.3e154, where y * y
    # overflows and the integrand is NaN: the sweep raises, not a NaN sup
    with np.errstate(all="ignore"), pytest.raises(
            QuadratureNonConvergent,
            match=r"^J1: the windowed J does not converge at R = 1\.32e\+154$"):
        j_sup_sweep("J1", params(), (1.32e154, 1.33e154))


def test_sup_sweep_argmax_ties_maxima_equal_up_to_rounding(monkeypatch):
    # values even in xi, with peaks at |xi| = 1.5 and |xi| = 1, the latter
    # 1 ulp larger: the sup is the larger value, the argmax the first of the
    # maxima in scan order (xi = -1.5)
    def stub(index, bases, p, window=None, rel_tol=None):
        xi, tau = np.asarray(bases, dtype=float).T
        v = 1.0 / (1.0 + np.minimum((np.abs(xi) - 1.5) ** 2, (np.abs(xi) - 1.0) ** 2)
                   + (tau / 100.0) ** 2)
        return np.where(np.abs(xi) == 1.0, np.nextafter(v, np.inf), v), {}

    monkeypatch.setattr(bilinear, "j_eval", stub)
    for rec in j_sup_sweep("J1", params(), (10.0, 20.0)):
        # the peak is 1 at (-1.5, 0) and its neighbour 1 ulp above at (-1, 0)
        assert rec["sup"] == np.nextafter(1.0, 2.0)
        assert (rec["argmax_xi"], rec["argmax_tau"]) == (-1.5, 0.0)


def _unfolded_sweep(index, p, radii):
    """The sweep without the fold: both points of every mirror pair are
    evaluated, and the NaN points of each radius are re-evaluated as they are."""
    offsets = (0.0, -2.0, 2.0, -8.0, 8.0)
    xi_anchors = (0.0, 1.0, -1.0, 1.5, -1.5, 2.5, -2.5, 4.0, -4.0)
    grids = []
    for R in radii:
        xs = np.unique(np.concatenate([np.linspace(-R, R, 9), xi_anchors]))
        taus = np.linspace(-R * R, R * R, 9)
        grids.append(np.array([
            (x, tau) for x in xs for tau in np.concatenate(
                [taus, [anchor + off for anchor in bilinear._peak_anchors(index, p, x)
                        for off in offsets]])]))
    points, where = np.unique(np.concatenate(grids), axis=0, return_inverse=True)
    values, _ = j_eval(index, points, p, rel_tol=SWEEP_REL_TOL)
    records, start = [], 0
    for R, grid in zip(radii, grids):
        vals = values[where[start:start + len(grid)]]
        start += len(grid)
        miss = np.isnan(vals)
        if miss.any():
            vals[miss] = j_eval(index, grid[miss], p, window=R, rel_tol=SWEEP_REL_TOL)[0]
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
            got = bilinear._base_grid(index, p, R)
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

    def spy(index, bases, p, window=None, **kw):
        calls.append((window, np.asarray(bases, dtype=float)))
        return real(index, bases, p, window=window, **kw)

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


def test_unknown_estimate_is_refused():
    u, v = field_pair()
    with pytest.raises(ParamDomainViolated, match="unknown estimate 'L5.9'"):
        bilinear_ratio(u, v, params(), "L5.9")


def test_zero_denominator():
    p = params()
    u, _ = field_pair()
    zero = SpaceTimeField(u.x0, u.dx, u.t0, u.dt, np.zeros_like(u.samples))
    with pytest.raises(ZeroDenominator):
        bilinear_ratio(zero, zero, p, "L5.1")
