"""J-integral quadrature, boundedness sweeps, and bilinear norm ratios.

Each 1-d J integral fixes a base pair (two of the four convolution
coordinates), integrates one frequency, and has already absorbed the
remaining time frequency through the elementary integral estimates.  The
region indicator therefore enters in projected form: conditions on the
integrated-out variable are replaced by their exact existential reduction
(a dominance condition 2|fixed modulation| >= |modulation sum|), while
conditions involving only surviving variables apply verbatim.  Forcing the
indicator to 1 always dominates the true value.

Boundedness is certified empirically: sup over base-point grids of growing
radius R, with the integration variable windowed to the same frequency ball,
stabilizes for admissible parameters and grows for violating ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import FrequencyPoint, classify_region
from .errors import ParamDomainViolated, QuadratureNonConvergent, ZeroDenominator
from .grids import SpaceTimeField
from .quadrature import (_on, _panel_nodes, _probe_points, integrate_with_tail,
                         panel_sums, tail_probe)
from .spectral import BourgainParams, _bracket, bourgain_norm

J_INDICES = ("J1", "J2", "J3", "J4", "J5", "J6", "A-J", "A-J1", "A-J2", "A-J3")
ESTIMATES = ("L5.1", "L5.2", "L5.3", "L5.4")
#: relative tolerance of every J evaluation in a boundedness sweep
SWEEP_REL_TOL = 3e-4
#: a sweep's argmax is the first base point within this relative distance of
#: the sup, so maxima equal up to rounding tie
ARGMAX_REL_TOL = 1e-12


@dataclass
class EstimateParams:
    """Parameters of the bilinear estimates."""

    a: float
    b: float
    d: float
    kappa: float
    s: float

    def __post_init__(self):
        if self.a <= 0:
            raise ParamDomainViolated(f"a must be positive, got {self.a}")
        if not (0.375 < self.b < 0.5 and 0.375 < self.d < 0.5):
            raise ParamDomainViolated(
                f"b, d must lie in (3/8, 1/2), got b={self.b}, d={self.d}")


@dataclass
class JSpec:
    """One J integral: index and base point; `scheme_for` binds its scheme.

    `base` may also be an (n, 2) array of base points, which `j_eval`
    evaluates as one batch.
    """

    index: str
    base: tuple

    def __post_init__(self):
        if self.index not in J_INDICES:
            raise ParamDomainViolated(f"unknown J index {self.index!r}")


def scheme_for(index: str, a: float) -> str:
    if a == 0.5:
        return "RES"
    first_family = index in ("J1", "J2", "J3", "A-J", "A-J1", "A-J2", "A-J3")
    if a < 0.5:
        return "R" if first_family else "S"
    return "A" if first_family else "B"


def _quad_roots(A, B, C):
    """Real roots of A y^2 + B y + C per base point: two columns, NaN where
    a root is missing (one root when A vanishes, none when B does too)."""
    A, B, C = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (A, B, C)))
    out = np.full(A.shape + (2,), np.nan)
    lin = np.abs(A) < 1e-14
    one = lin & (np.abs(B) >= 1e-14)
    out[one, 0] = -C[one] / B[one]
    disc = B * B - 4.0 * A * C
    two = ~lin & (disc >= 0)
    r = np.sqrt(disc[two])
    out[two, 0] = (-B[two] - r) / (2 * A[two])
    out[two, 1] = (-B[two] + r) / (2 * A[two])
    return out


def _level_roots(A, B, C, K):
    """Roots of |A y^2 + B y + C| = K."""
    return np.hstack([_quad_roots(A, B, C - K), _quad_roots(A, B, C + K)])


def _ball_roots2(pc, q, r, s, c):
    """Roots of |p*y + q| = c*|r*y + s|."""
    return _quad_roots(pc * pc - c * c * r * r,
                       2.0 * (pc * q - c * c * r * s),
                       q * q - c * c * s * s)


def _ball_roots(pc, q, c):
    """Roots of |p*y + q| = c*|y|."""
    return _ball_roots2(pc, q, 1.0, 0.0, c)


def _vertex(A, B):
    """Vertex -B/(2A) of A y^2 + B y + C, NaN where |A| <= 1e-14."""
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    out = np.full(A.shape, np.nan)
    ok = np.abs(A) > 1e-14
    out[ok] = -B[ok] / (2 * A[ok])
    return out


def _bp_table(n, *cols):
    """(n, m) breakpoint table from scalars, per-point values and root
    columns; non-finite entries become NaN (no breakpoint)."""
    table = np.column_stack([c if np.ndim(c) == 2 else np.broadcast_to(c, (n,))
                             for c in cols])
    return np.where(np.isfinite(table), table, np.nan)


def _rowpow(x, e):
    """x ** e per base point with the scalar pow of a one-point evaluation;
    numpy's vectorized pow may round differently."""
    return np.array([v ** e for v in np.asarray(x, dtype=float).tolist()])


def _times(w, factor):
    """w * factor, where w None is the empty product."""
    return factor if w is None else w * factor


def _pieces(index: str, P, Q, p: EstimateParams, ignore_region: bool):
    """Prefactors, batch integrand, breakpoints and empty rows of a 1-d J.

    P, Q hold the base points.  Returns (pref, f, bps, empty): f(y, rows)
    evaluates base point rows[k]'s integrand at y[k] in the operation order
    of a lone evaluation, powers of a base point alone come from _rowpow,
    bps is the (n, m) breakpoint table and `empty` marks base points whose
    region is empty (value 0).

    f does per node only the work that varies per node.  A factor, of node
    or base-point size, whose exponent is 0 is exactly 1.0: neither it nor
    its argument is evaluated, and the other factors multiply in their
    order, so the value keeps its bits.  The terms of a base point alone
    (2P, Q + P^2, 2|Q + P^2|, ...) are computed once per batch and read per
    node, each where it is a sub-expression of the lone evaluation's, so
    every node runs the same floating-point operations.
    """
    a, b, d, kappa, s = p.a, p.b, p.d, p.kappa, p.s
    scheme = scheme_for(index, a)
    n = P.size
    c = (2.0 * a - 1.0) / 4.0
    region = not ignore_region and scheme != "RES"
    nowhere = np.zeros(n, dtype=bool)
    # the RES scheme leaves the regions of J2, J3, J5 and J6 empty
    res_empty = np.full(n, scheme == "RES" and not ignore_region)
    # the quadratic bracket's exponent is never 0: b and d lie in (3/8, 1/2)
    e_4b, e_bd = -(4 * b - 1), -(2 * b + 2 * d - 1)

    if index == "J1":
        C2_ = Q + P * P
        pref = _rowpow(_bracket(C2_), -2 * d)
        A2_, B2_ = -(a - 1.0), -2.0 * P
        e_y = -2 * s + 2 * abs(kappa)
        # modulation sum w1+w2 = tau - (xi-y)^2 + a y^2 as (a-1) y^2 + mB y + mC
        mB, mC, dom_lhs = 2.0 * P, Q - P * P, 2 * np.abs(C2_)

        def f(y, r):
            # bracket tau - (a-1)y^2 - 2 xi y + xi^2 as A y^2 + B y + C
            val = _bracket(A2_ * y * y + B2_[r] * y + C2_[r]) ** e_4b
            if e_y:
                val = _bracket(y) ** e_y * val
            if not region:
                return val
            dom = dom_lhs[r] >= np.abs((a - 1.0) * y * y + mB[r] * y + mC[r])
            if scheme == "R":
                chi = (np.abs(y) <= 1.0) | dom
            else:  # A
                Pr, abs_y = P[r], np.abs(y)
                cy = c * abs_y
                chi = ((abs_y <= 1.0)
                       | (np.abs((1 - a) * y - Pr) >= cy)
                       | ((np.abs(Pr - 0.5 * y) >= cy) & dom))
            return val * chi.astype(float)
        bps = _bp_table(n, -1.0, 1.0, _quad_roots(A2_, B2_, C2_),
                        _level_roots(a - 1.0, mB, mC, dom_lhs),
                        _ball_roots(1 - a, -P, c), _ball_roots(-0.5, P, c),
                        _vertex(A2_, B2_))
        return pref, f, bps, nowhere

    if index == "J2":
        omega2 = Q + a * P * P
        pref = _rowpow(_bracket(omega2), -2 * b)
        e_w = -2 * s + 2 * abs(kappa)
        wconst = _rowpow(_bracket(P), e_w) if e_w else None
        B2_, C2_ = -2.0 * P, Q + P * P
        half_P, cP, dom_lhs = 0.5 * P, c * np.abs(P), 2 * np.abs(omega2)

        def f(y, r):
            bracket = 2.0 * y * y + B2_[r] * y + C2_[r]
            val = _bracket(bracket) ** e_bd
            if wconst is not None:
                val = wconst[r] * val
            if not (region and scheme == "A"):
                return val
            chi = (np.abs(y - half_P[r]) >= cP[r]) & (dom_lhs[r] >= np.abs(bracket))
            return val * chi.astype(float)
        bps = _bp_table(n, _quad_roots(2.0, B2_, C2_), _vertex(2.0, B2_),
                        _level_roots(2.0, B2_, C2_, dom_lhs), half_P - cP, half_P + cP)
        # the region needs |xi2| >= 1
        return pref, f, bps, res_empty | (not ignore_region) & (np.abs(P) < 1.0)

    if index == "J3":
        omega1 = Q - P * P
        pref = _rowpow(_bracket(omega1), -2 * b)
        A2_, B2_, C2_ = 1.0 - a, 2.0 * P, Q + P * P
        e_y = -2 * s + 2 * abs(kappa)
        dom_lhs = 2 * np.abs(omega1)

        def f(y, r):
            bracket = A2_ * y * y + B2_[r] * y + C2_[r]
            val = _bracket(bracket) ** e_bd
            if e_y:
                val = _bracket(y) ** e_y * val
            if not region:
                return val
            abs_y = np.abs(y)
            if scheme == "A":
                chi = ((abs_y >= 1.0)
                       & (np.abs(P[r] + 0.5 * y) >= c * abs_y)
                       & (dom_lhs[r] >= np.abs(bracket)))
            else:  # R
                chi = abs_y >= 1.0
            return val * chi.astype(float)
        bps = _bp_table(n, -1.0, 1.0, _quad_roots(A2_, B2_, C2_),
                        _level_roots(A2_, B2_, C2_, dom_lhs),
                        _ball_roots(0.5, P, c), _vertex(A2_, B2_))
        return pref, f, bps, res_empty

    if index == "J4":
        lam = Q + a * P * P
        pref = _rowpow(_bracket(lam), -2 * d)
        e_s, e_k = 2 * s, -2 * kappa
        w0 = _rowpow(_bracket(P), e_s) if e_s else None
        B2_, C2_ = -2.0 * P, Q + P * P
        cP, half_P, dom_lhs = c * np.abs(P), 0.5 * P, 2 * np.abs(lam)
        cross_P, inside = (1 - a) * P, np.abs(P) <= 1.0

        def f(y, r):
            bracket = 2.0 * y * y + B2_[r] * y + C2_[r]
            w = None if w0 is None else w0[r]
            if e_k:
                w = _times(w, _bracket(P[r] - y) ** e_k) * _bracket(y) ** e_k
            val = _times(w, _bracket(bracket) ** e_4b)
            if not region:
                return val
            dom = dom_lhs[r] >= np.abs(bracket)
            if scheme == "S":
                chi = dom
            else:  # B
                cPr = cP[r]
                chi = ((np.abs(y - half_P[r]) >= cPr)
                       | ((np.abs(cross_P[r] - y) >= cPr) & dom))
            return val * np.where(inside[r], 1.0, chi.astype(float))
        bps = _bp_table(n, _quad_roots(2.0, B2_, C2_), _vertex(2.0, B2_), P,
                        _level_roots(2.0, B2_, C2_, dom_lhs),
                        half_P - cP, half_P + cP, cross_P - cP, cross_P + cP)
        return pref, f, bps, nowhere

    if index == "J5":
        lam2 = Q + P * P
        pref = _rowpow(_bracket(lam2), -2 * b)
        e_s, e_k = 2 * s, -2 * kappa
        w1 = _rowpow(_bracket(P), e_k) if e_k else None
        A2_, B2_, C2_ = a - 1.0, 2.0 * P, Q - P * P
        dom_lhs = 2 * np.abs(lam2)

        def f(y, r):
            bracket = A2_ * y * y + B2_[r] * y + C2_[r]
            w = _bracket(y) ** e_s if e_s else None
            if e_k:
                w = _times(w, _bracket(y - P[r]) ** e_k) * w1[r]
            val = _times(w, _bracket(bracket) ** e_bd)
            if ignore_region:
                return val
            abs_y = np.abs(y)
            chi = (abs_y >= 1.0) & (dom_lhs[r] >= np.abs(bracket))
            if scheme == "B":
                chi &= np.abs((1 - a) * y - P[r]) >= c * abs_y
            return val * chi.astype(float)
        bps = _bp_table(n, -1.0, 1.0, P, _quad_roots(A2_, B2_, C2_),
                        _level_roots(A2_, B2_, C2_, dom_lhs),
                        _ball_roots(1 - a, -P, c), _vertex(A2_, B2_))
        return pref, f, bps, res_empty

    if index == "J6":
        lam1 = Q + P * P
        pref = _rowpow(_bracket(lam1), -2 * b)
        e_s, e_k = 2 * s, -2 * kappa
        w1 = _rowpow(_bracket(P), e_k) if e_k else None
        A2_, dA = a + 1.0, a - 1.0
        B2_, C2_, dom_lhs = 2.0 * a * P, Q + a * P * P, 2 * np.abs(lam1)

        def f(y, r):
            By, Cr = B2_[r] * y, C2_[r]
            Py = P[r] + y if e_s or not ignore_region else None
            w = _bracket(Py) ** e_s if e_s else None
            if e_k:
                w = _times(w, w1[r]) * _bracket(y) ** e_k
            val = _times(w, _bracket(A2_ * y * y + By + Cr) ** e_bd)
            if ignore_region:
                return val
            dom = dA * y * y + By + Cr
            chi = (np.abs(Py) >= 1.0) & (dom_lhs[r] >= np.abs(dom))
            if scheme == "B":
                chi &= np.abs((1 - a) * Py - y) >= c * np.abs(Py)
            return val * chi.astype(float)
        bps = _bp_table(n, -P - 1.0, -P + 1.0, -P,
                        _quad_roots(A2_, B2_, C2_),
                        _level_roots(dA, B2_, C2_, dom_lhs),
                        _ball_roots2(-a, (1 - a) * P, 1.0, P, c),
                        _vertex(A2_, B2_))
        return pref, f, bps, res_empty

    raise ParamDomainViolated(f"index {index} has no 1-d reduction")


def j_eval(spec: JSpec, p: EstimateParams, window: float | None = None,
           ignore_region: bool = False, rel_tol: float = 1e-6):
    """Evaluate one J integral at its base point.

    With `window`, the integration variable is restricted to |y| <= window
    (the sweep's frequency ball) and the tail beyond it is only estimated.
    Without it, the domain grows until the quadrature converges; a verified
    lack of decay raises QuadratureNonConvergent, as does an estimated tail
    above 5% of the value.

    A spec whose base is an (n, 2) array of base points evaluates them as
    one batch and returns their n values, each bit for bit its lone call's;
    where the lone call raises QuadratureNonConvergent the value is NaN.
    """
    base = np.asarray(spec.base, dtype=float)
    values, failed = _j_rows(spec.index, base.reshape(-1, 2), p, window,
                             ignore_region, rel_tol)
    if base.ndim == 2:
        return values
    if failed:
        raise QuadratureNonConvergent(failed[0])
    return values[0]


def _j_rows(index, base, p, window, ignore_region, rel_tol):
    """Values and failure messages of one J index at each base point."""
    P, Q = np.ascontiguousarray(base[:, 0]), np.ascontiguousarray(base[:, 1])
    if index == "A-J":
        return _appendix_j(P, Q, p, window, rel_tol)
    if index in ("A-J1", "A-J2", "A-J3"):
        return _appendix_2d(index, P, Q, p, window, rel_tol)
    pref, f, bps, empty = _pieces(index, P, Q, p, ignore_region)
    return _scaled_integrals(index, P, Q, pref, f, bps, ~empty, window, rel_tol)


def _scaled_integrals(index, P, Q, pref, f, bps, live, window, rel_tol):
    """pref times the integral of f at the base points `live` (0 elsewhere).

    Failures are integrate_with_tail's plus, without a window, an estimated
    tail above 5% of the value.
    """
    values, failed = np.zeros(P.size), {}
    rows = np.flatnonzero(live)
    if not rows.size:
        return values, failed
    integral, tail, bad = integrate_with_tail(_on(f, rows), bps[rows], window=window,
                                              rel_tol=rel_tol)
    value, tail = integral * pref[rows], tail * pref[rows]
    values[rows] = value
    failed.update((rows[k], msg) for k, msg in bad.items())
    if window is None:
        for k in np.flatnonzero(tail > 0.05 * np.maximum(np.abs(value), 1e-300)):
            failed[rows[k]] = (f"{index} at base ({P[rows[k]]}, {Q[rows[k]]}): tail "
                               f"estimate {tail[k]:.3g} exceeds 5% of value {value[k]:.3g}")
    values[list(failed)] = np.nan
    return values, failed


def _appendix_j(P, Q, p, window, rel_tol):
    """Appendix integral for kappa >= 0; defers below the |tau| > 10 xi^2 cut."""
    if p.kappa < 0:
        raise ParamDomainViolated("appendix A-J branch requires kappa >= 0")
    a, b, d, kappa, s = p.a, p.b, p.d, p.kappa, p.s
    lemma = np.abs(Q) <= 10.0 * P * P
    A2_, B2_, C2_ = -(a - 1.0), -2.0 * P, Q + P * P
    pref = _rowpow(_bracket(C2_), -(2 * d - kappa))
    e_k, e_s, e_4b = -2 * kappa, -2 * s, -(4 * b - 1)

    def f(y, r):
        # the work per node as in _pieces
        w = _bracket(P[r] - y) ** e_k if e_k else None
        if e_s:
            w = _times(w, _bracket(y) ** e_s)
        return _times(w, _bracket(A2_ * y * y + B2_[r] * y + C2_[r]) ** e_4b)
    vertex = _vertex(A2_, B2_)
    bps = _bp_table(P.size, _quad_roots(A2_, B2_, C2_), P,
                    np.where(np.isnan(vertex), 0.0, vertex))
    values, failed = _scaled_integrals("A-J", P, Q, pref, f, bps, ~lemma, window, rel_tol)
    rows = np.flatnonzero(lemma)
    if rows.size:
        values[rows], bad = _j_rows("J1", np.column_stack([P[rows], Q[rows]]), p,
                                    window, False, rel_tol)
        failed.update((rows[k], msg) for k, msg in bad.items())
    return values, failed


def _appendix_2d(index, P, Q, p, window, rel_tol):
    """Two-dimensional appendix integrals of the kappa <= -1/2 branch.

    The outer frequency runs over fixed dyadic Gauss panels; without an
    explicit window the outer domain is sized from the region indicator's
    support bound.  Each base point is one batch: the inner time frequency
    is integrated adaptively at all its outer nodes and tail probe points
    at once, one row per node.  A failing row fails its base point with the
    message of the first failing node.
    """
    if p.kappa > 0:
        raise ParamDomainViolated("appendix 2-d branch requires kappa <= 0")
    values, failed = np.zeros(P.size), {}
    for i, pq in enumerate(zip(P.tolist(), Q.tolist())):
        values[i], msg = _appendix_point(index, *pq, p, window, rel_tol)
        if msg:
            failed[i] = msg
    return values, failed


def _appendix_point(index, P, Q, p, window, rel_tol):
    """(value, None) of one appendix 2-d integral at base (P, Q), or
    (NaN, message) when it fails."""
    a, b, d, kappa, s = p.a, p.b, p.d, p.kappa, p.s
    region = {"A-J1": 1, "A-J2": 2, "A-J3": 3}[index]
    scheme = scheme_for(index, a)
    # A-J2's region needs |xi2| >= 1
    if scheme == "RES" and region > 1 or index == "A-J2" and abs(P) < 1.0:
        return 0.0, None
    if window is None:
        # support bound from the dominance condition of the region indicator
        fixed_mod = abs(Q + P * P)
        gap = max(abs(1.0 - 2.0 * a), 0.05)
        W = max(16.0, 2.0 * np.sqrt(12.0 * (1.0 + fixed_mod) / gap))
    else:
        W = window
    outer_bps = {"A-J1": [-1.0, 1.0, P], "A-J2": [P - 1.0, P + 1.0, P],
                 "A-J3": [-1.0, 1.0, -P]}[index]
    ladder = [2.0 ** k for k in range(1, int(np.ceil(np.log2(W))) + 1) if 2.0 ** k < W]
    edges = np.array(sorted({float(e) for e in
                             [-W, W] + ladder + [-l for l in ladder]
                             + [b_ for b_ in outer_bps if abs(b_) < W]}))

    # the inner integrand g(tau, rows) at the outer nodes and tail probe
    # points x[rows] (xi2, or xi for A-J2), one row per point; factors of a
    # point alone come from _rowpow
    x = np.concatenate([_panel_nodes(edges, 12)[0].ravel(), _probe_points(W)])
    if index == "A-J1":
        pref = _bracket(Q) ** kappa * _bracket(Q + P * P) ** (-2 * d)
        w0 = _rowpow(_bracket(P - x), -2 * kappa) * _rowpow(_bracket(x), -2 * s)
        sq, axx = _rowpow(P - x, 2), a * _rowpow(x, 2)

        def g(tau2, r):
            fp = FrequencyPoint(P, Q, x[r], tau2)
            chi = (classify_region(fp, a, scheme) == region).astype(float)
            w1 = (Q - tau2) - sq[r]
            w2 = tau2 + axx[r]
            return w0[r] * chi * _bracket(w1) ** (-2 * b) * _bracket(w2) ** (-2 * b)
        bps = np.column_stack([Q - sq, -axx])
    elif index == "A-J2":
        pref = _bracket(P) ** (2 * s) * _bracket(Q + a * P * P) ** (-2 * b)
        w0 = _rowpow(_bracket(x - P), -2 * kappa)
        xx, sq = _rowpow(x, 2), _rowpow(x - P, 2)

        def g(tau, r):
            # quadruple (xi, tau, xi2=P, tau2=Q), integrating (xi, tau)
            fp = FrequencyPoint(x[r], tau, np.full_like(tau, P), np.full_like(tau, Q))
            chi = (classify_region(fp, a, scheme) == region).astype(float)
            w = tau + xx[r]
            w1 = (tau - Q) - sq[r]
            return (w0[r] * _bracket(tau) ** kappa
                    * chi * _bracket(w1) ** (-2 * b) * _bracket(w) ** (-2 * d))
        bps = np.column_stack([-xx, Q + sq, np.zeros(x.size)])
    else:  # A-J3
        pref = _bracket(P) ** (-2 * kappa) * _bracket(Q - P * P) ** (-2 * b)
        ws, wd = _rowpow(_bracket(x), -2 * s), _rowpow(_bracket(P + x), -4 * d)
        axx = a * _rowpow(x, 2)

        def g(tau2, r):
            fp = FrequencyPoint(P + x[r], Q + tau2, x[r], tau2)
            chi = (classify_region(fp, a, scheme) == region).astype(float)
            w2 = tau2 + axx[r]
            return (_bracket(Q + tau2) ** kappa * ws[r]
                    * chi * wd[r] * _bracket(w2) ** (-2 * b))
        bps = np.column_stack([-axx, np.full(x.size, -Q)])

    t_window = None if window is None else window * window
    inner, _, bad = integrate_with_tail(g, bps, window=t_window, rel_tol=10 * rel_tol)
    if bad:
        return np.nan, bad[min(bad)]
    # the outer rule and the tail probe read the inner integrals at their points
    at = dict(zip(x.tolist(), inner.tolist()))
    fvec = lambda ys: np.array([at[y] for y in ys.tolist()])
    value = float(np.sum(panel_sums(fvec, edges, 12))) * pref
    tail = tail_probe(fvec, W) * pref
    if window is None and tail > 0.05 * max(abs(value), 1e-300):
        return np.nan, f"{index} tail exceeds 5% of value"
    return value, None


def applicable_indices(p: EstimateParams) -> list[str]:
    """1-d J indices with nonempty regions for the given parameters, plus the
    appendix branch matching the sign of kappa."""
    if p.a == 0.5:
        out = ["J1", "J4"]
    else:
        out = ["J1", "J2", "J3", "J4", "J5", "J6"]
    if p.kappa >= 0:
        out.append("A-J")
    if p.kappa <= -0.5:
        out.extend(["A-J1", "A-J2", "A-J3"])
    return out


def _peak_anchors(index: str, p: EstimateParams, x):
    """Base tau values nulling the prefactor modulation and the bracket vertex.

    x may be a float or an array; each anchor then has x's shape."""
    a = p.a
    x2 = x * x
    idx = "J1" if index in ("A-J", "A-J1", "A-J2", "A-J3") else index
    mod_null = {"J1": -x2, "J2": -a * x2, "J3": x2,
                "J4": -a * x2, "J5": -x2, "J6": -x2}[idx]
    if idx in ("J2", "J4"):
        vert_null = -0.5 * x2
    elif idx in ("J1", "J3"):
        vert_null = a * x2 / (1.0 - a) if a != 1.0 else None
    elif idx == "J5":
        vert_null = -a * x2 / (1.0 - a) if a != 1.0 else None
    else:  # J6
        vert_null = -a * x2 / (a + 1.0)
    out = [mod_null]
    if vert_null is not None:
        out.append(vert_null)
    return out


#: the sweep's fixed O(1) xi anchors and its modulation offsets of the peak anchors
_XI_ANCHORS = (0.0, 1.0, -1.0, 1.5, -1.5, 2.5, -2.5, 4.0, -4.0)
_TAU_OFFSETS = (0.0, -2.0, 2.0, -8.0, 8.0)


def _base_grid(index: str, p: EstimateParams, R: float, n_base: int) -> np.ndarray:
    """The (xi, tau) base points of radius R in scan order: for each xi, the
    uniform taus, then each peak anchor at every offset."""
    xs = np.unique(np.concatenate([np.linspace(-R, R, n_base), _XI_ANCHORS]))
    taus = np.linspace(-R * R, R * R, n_base)
    peaks = np.stack(_peak_anchors(index, p, xs), axis=1)[:, :, None] + np.array(_TAU_OFFSETS)
    rows = np.concatenate([np.broadcast_to(taus, (xs.size, n_base)),
                           peaks.reshape(xs.size, -1)], axis=1)
    return np.column_stack([np.repeat(xs, rows.shape[1]), rows.ravel()])


def _fold(points):
    """Base points (xi, tau) mapped to (-|xi|, tau); xi = 0 keeps its sign."""
    return np.column_stack([np.where(points[:, 0] > 0, -points[:, 0], points[:, 0]),
                            points[:, 1]])


def j_sup_sweep(index: str, p: EstimateParams, radii,
                n_base: int = 9) -> list[dict]:
    """Sup of a J integral over base grids of growing radius.

    Base points cover |xi| <= R uniformly and |tau| <= R^2 uniformly,
    augmented by fixed O(1) xi anchors and (at fixed modulation offsets
    0, -+2, -+8) by the two surfaces where each integral peaks: prefactor
    modulation zero and bracket vertex zero.  Uniform grids of growing
    radius dilute the O(1) frequency scale the sup lives at, so without
    the anchors the sup would be a sampling artifact of the radius rather
    than a property of the integral.  Each J
    is evaluated to convergence when its tail decays; a divergent integrand
    falls back to the frequency window |y| <= R, so negative controls
    report finite, R-growing surrogates instead of failing.

    Every J is even in xi: the dispersion relations tau = -xi^2 and
    tau = -a xi^2 are, and the regions and weights see the frequencies only
    through squares and absolute values of linear forms.  So each base point
    is folded onto xi <= 0, the side scanned first, and a grid point reads
    the value of its folded point.  The unwindowed J does not depend on R
    either, so each distinct folded point is evaluated once, in one batch
    for all radii; the windowed fall-back of a radius evaluates its distinct
    folded points once.  The argmax is still a point of the grid, the first
    in scan order among the maxima.
    """
    grids = [_base_grid(index, p, R, n_base) for R in radii]
    # the unwindowed J depends neither on R nor on the sign of xi: each
    # distinct folded point once
    points, where = np.unique(_fold(np.concatenate(grids)), axis=0, return_inverse=True)
    values = j_eval(JSpec(index, points), p, rel_tol=SWEEP_REL_TOL)
    records, start = [], 0
    for R, grid in zip(radii, grids):
        vals = values[where[start:start + len(grid)]]
        start += len(grid)
        miss = np.isnan(vals)
        if miss.any():
            folded, back = np.unique(_fold(grid[miss]), axis=0, return_inverse=True)
            vals[miss] = j_eval(JSpec(index, folded), p, window=R,
                                rel_tol=SWEEP_REL_TOL)[back]
            if np.isnan(vals).any():
                raise QuadratureNonConvergent(
                    f"{index}: the windowed J does not converge at R = {R}")
        sup = vals.max()
        # the first of the maxima equal up to rounding, in scan order
        k = int(np.argmax(vals >= sup - ARGMAX_REL_TOL * abs(sup)))
        records.append({"index": index, "R": float(R), "sup": float(sup),
                        "argmax_xi": float(grid[k, 0]), "argmax_tau": float(grid[k, 1])})
    return records


def bilinear_ratio(u: SpaceTimeField, v: SpaceTimeField, p: EstimateParams,
                   which: str, placement: str = "statement") -> float:
    """Left-norm over product-of-right-norms for one bilinear estimate.

    which = "L5.1": conj(u)*v in X^{kappa,-d}; "L5.2": u*v in X_a^{s,-d};
    "L5.3": conj(u)*v in W^{kappa,-d}; "L5.4": u*v in W_a^{kappa,-d}.
    `placement` swaps which right factor carries the a-adapted space in L5.1
    ("statement" puts u there, "usage" puts v there).
    """
    if which not in ESTIMATES:
        raise ParamDomainViolated(f"unknown estimate {which!r}")
    if u.samples.shape != v.samples.shape or u.dx != v.dx or u.dt != v.dt:
        raise ValueError("u and v must share one grid")
    a, b, d, kappa, s = p.a, p.b, p.d, p.kappa, p.s
    if which == "L5.1":
        prod = np.conj(u.samples) * v.samples
        left = BourgainParams(kappa, -d, 1.0)
        if placement == "statement":
            ru = BourgainParams(kappa, b, a)
            rv = BourgainParams(s, b, 1.0)
        else:
            ru = BourgainParams(kappa, b, 1.0)
            rv = BourgainParams(s, b, a)
    elif which == "L5.2":
        prod = u.samples * v.samples
        left = BourgainParams(s, -d, a)
        ru = rv = BourgainParams(kappa, b, 1.0)
    elif which == "L5.3":
        prod = np.conj(u.samples) * v.samples
        left = BourgainParams(kappa, -d, 1.0, family="W")
        ru = BourgainParams(kappa, b, 1.0)
        rv = BourgainParams(s, b, a)
    else:  # L5.4
        prod = u.samples * v.samples
        left = BourgainParams(kappa, -d, a, family="W")
        ru = BourgainParams(kappa, b, 1.0)
        rv = BourgainParams(s, b, 1.0)
    den = (bourgain_norm(u, ru) * bourgain_norm(v, rv))
    if den == 0.0:
        raise ZeroDenominator("right-hand norms vanish")
    num = bourgain_norm(SpaceTimeField(u.x0, u.dx, u.t0, u.dt, prod), left)
    return num / den
