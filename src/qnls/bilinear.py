"""J-integral quadrature, boundedness sweeps, and bilinear norm ratios.

Each 1-d J integral fixes the base pair of one modulation (its frequency
and time frequency), integrates one frequency, and has already absorbed the
remaining time frequency through the elementary integral estimates.  The
region indicator therefore enters in projected form: conditions on the
integrated-out variable are replaced by their exact existential reduction
(a dominance condition 2|fixed modulation| >= |modulation sum|), while
conditions involving only surviving variables apply verbatim: the gates and
the small ball of `dispersion.outside_small_ball`.  So each indicator is
`dispersion.classify_region`'s region of its index, projected.

The six 1-d J's are one evaluator, `_pieces`, over one row each (`_ROWS`):
the bracket quadratic and, for J1 and J6, a dominance quadratic of its own.
The rest follows from the index's family, region and fixed modulation
(`J_REGIONS`): the coordinates, weights, prefactor, exponents, indicator
and breakpoint table.  The dominance comparison is written once, there.

Boundedness is certified empirically: sup over base-point grids of growing
radius R, with the integration variable windowed to the same frequency ball,
stabilizes for admissible parameters and grows for violating ones.

`j_eval` evaluates one J index at an (n, 2) batch of base points (xi, tau)
and returns (values, failed): a NaN value where a point failed, and failed
maps that point to its message.  A point gets the value and message it has
alone, so one point is a batch of one.  `check_indices` is the one rule of
where each J index is defined, `J_REGIONS` of its family, region and fixed
modulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dispersion import (MAXIMAL, SCHEMES, FrequencyPoint, classify_region,
                         classify_regime, outside_small_ball, small_ball_edges)
from .errors import ParamDomainViolated, QuadratureNonConvergent, ZeroDenominator
from .grids import SpaceTimeField
from .quadrature import (_on, _panel_nodes, _probe_points, integrate_with_tail,
                         panel_sums, tail_probe)
from .spectral import BourgainParams, _bracket, bourgain_norm

#: each J index's modulation family, its region in that family's scheme and
#: its fixed modulation, the one whose base pair (frequency, time frequency)
#: the J fixes and whose bracket its prefactor is
J_REGIONS = {"J1": ("N1", 1, "w"), "J2": ("N1", 2, "w2"), "J3": ("N1", 3, "w1"),
             "J4": ("N2", 1, "w"), "J5": ("N2", 2, "w2"), "J6": ("N2", 3, "w1"),
             "A-J": ("N1", 1, "w"), "A-J1": ("N1", 1, "w"), "A-J2": ("N1", 2, "w2"),
             "A-J3": ("N1", 3, "w1")}
J_INDICES = tuple(J_REGIONS)
#: the two-dimensional appendix integrals, defined for kappa <= 0
_APPENDIX_2D = ("A-J1", "A-J2", "A-J3")
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


def scheme_for(index: str, a: float) -> str:
    """The region scheme of the J index's family at a."""
    return SCHEMES[classify_regime(a), J_REGIONS[index][0]]


def check_indices(indices, p: EstimateParams, sweep: bool = False) -> list[str]:
    """Refuse the J indices of `indices` undefined at p; return those whose
    regions are empty there.

    Refused: an unknown index, A-J at kappa < 0 and A-J1..A-J3 at kappa > 0.
    At the resonant a = 1/2 the regions of J2, J3, J5, J6, A-J2 and A-J3
    are empty: j_eval gives them the value 0, the integral over an empty
    region, and a sweep refuses them, as a sup of 0 passes no contract.
    """
    unknown = [i for i in indices if i not in J_INDICES]
    if unknown:
        raise ParamDomainViolated(f"unknown J index {unknown[0]!r}")
    if p.kappa < 0 and "A-J" in indices:
        raise ParamDomainViolated(f"A-J needs kappa >= 0, got kappa={p.kappa}")
    two_d = [i for i in indices if i in _APPENDIX_2D]
    if p.kappa > 0 and two_d:
        raise ParamDomainViolated(f"{two_d} need kappa <= 0, got kappa={p.kappa}")
    empty = [i for i in indices if J_REGIONS[i][1] > 1 and scheme_for(i, p.a) == "RES"]
    if sweep and empty:
        raise ParamDomainViolated(f"the regions of {empty} are empty at a = {p.a}")
    return empty


def applicable_indices(p: EstimateParams) -> list[str]:
    """The J indices a sweep at p runs by default: each that check_indices
    admits for a sweep, the 2-d appendix ones only at kappa <= -1/2, the
    branch that needs them."""
    out = []
    for index in J_INDICES:
        try:
            check_indices([index], p, sweep=True)
        except ParamDomainViolated:
            continue
        if index not in _APPENDIX_2D or p.kappa <= -0.5:
            out.append(index)
    return out


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


def _has_vertex(A):
    """Whether A y^2 + B y + C has a vertex: |A| > 1e-14."""
    return np.abs(A) > 1e-14


def _vertex(A, B):
    """Vertex -B/(2A) of A y^2 + B y + C, NaN where it has none."""
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    out = np.full(A.shape, np.nan)
    ok = _has_vertex(A)
    out[ok] = -B[ok] / (2 * A[ok])
    return out


def _bp_table(n, *cols):
    """(n, m) breakpoint table from scalars, per-point values and root
    columns; non-finite entries become NaN (no breakpoint)."""
    table = np.column_stack([c if np.ndim(c) == 2 else np.broadcast_to(c, (n,))
                             for c in cols])
    return np.where(np.isfinite(table), table, np.nan)


#: each 1-d J as one row: its bracket A y^2 + B y + C in the integration
#: variable y and, where it differs, its dominance quadratic, each (A, B, C)
#: of the base (P, Q) and a; J_REGIONS gives the rest
_ROWS = {
    "J1": (lambda P, Q, a: (-(a - 1.0), -2.0 * P, Q + P * P),
           lambda P, Q, a: (a - 1.0, 2.0 * P, Q - P * P)),
    "J2": (lambda P, Q, a: (2.0, -2.0 * P, Q + P * P), None),
    "J3": (lambda P, Q, a: (1.0 - a, 2.0 * P, Q + P * P), None),
    "J4": (lambda P, Q, a: (2.0, -2.0 * P, Q + P * P), None),
    "J5": (lambda P, Q, a: (a - 1.0, 2.0 * P, Q - P * P), None),
    "J6": (lambda P, Q, a: (a + 1.0, 2.0 * a * P, Q + a * P * P),
           lambda P, Q, a: (a - 1.0, 2.0 * a * P, Q + a * P * P)),
}
#: the frequencies (xi, xi1, xi2) of a 1-d J as lines s y + t P, each (s, t),
#: by its fixed modulation: the base pair (P, Q) is (xi, tau) for w, (xi1,
#: tau1) for w1 and (xi2, tau2) for w2, so (xi, xi2) is (P, y), (P + y, y)
#: or (y, P), and xi1 = xi - xi2
_LINES = {"w": ((0, 1), (-1, 1), (1, 0)),
          "w1": ((1, 1), (0, 1), (1, 0)),
          "w2": ((1, 0), (1, -1), (0, 1))}


def _on_line(line, P, y, r):
    """s y + t P at the nodes y of base rows r, for line = (s, t), in the
    operation order of a lone evaluation: P, y, P + y, P - y or y - P."""
    s, t = line
    if not s:
        return P[r]
    if not t:
        return y
    return P[r] + y if s == t else P[r] - y if t > 0 else y - P[r]


def _weigh(weights, x, r, last):
    """(w_1 * w_2 * ...) * last, the weights multiplied from the left.

    weights holds each weight (frequency k, exponent e, per-base-row value
    or None) whose exponent is not 0: a factor <z>^0 is exactly 1.0 and is
    neither evaluated nor multiplied.  A weight is its per-row value at the
    rows r, or <x[k]>^e with x[k] the frequency at the nodes."""
    out = None
    for k, e, per_row in weights:
        factor = per_row[r] if per_row is not None else _bracket(x[k]) ** e
        out = factor if out is None else out * factor
    return last if out is None else out * last


def _pieces(index: str, P, Q, p: EstimateParams):
    """Prefactors, batch integrand, breakpoints and empty rows of a 1-d J.

    P, Q hold the base points.  Returns (pref, f, bps, empty): f(y, rows)
    evaluates base point rows[k]'s integrand at y[k] in the operation order
    of a batch of one, bps is the (n, m) breakpoint table and `empty`
    marks base points whose region is empty (value 0).

    Everything but the row's quadratics follows from the index's family,
    region and fixed modulation (`J_REGIONS`): the frequencies (`_LINES`),
    the weights, the gate variable (xi2 for N1, xi for N2), the
    prefactor <fixed>^(-2d) for w and ^(-2b) otherwise, and the bracket's
    exponent, -(4b - 1) in region 1 and -(2b + 2d - 1) otherwise.  The
    indicator is none under RES; `(|g| <= 1) | dom | outside` in region 1
    and `(|g| >= 1) & dom & ~outside` in regions 2 and 3.  `outside` is
    `dispersion.outside_small_ball`, read under A and B only; `dom`, the
    dominance 2|fixed| >= |dominance quadratic|, is read only where the
    fixed modulation is the region's maximal one (`dispersion.MAXIMAL`).
    A gate on the base is per base point: region 1 is whole where it holds,
    regions 2 and 3 empty where it fails.  On the gate's edge |g| = 1 both
    sides hold.

    The table lists the edges of a per-node gate, the bracket's roots and
    vertex, the dominance quadratic's roots at +-2|fixed| (always: where
    dom is not read they resolve the bracket), the centres of the weights
    that move with P and, under A and B, `dispersion.small_ball_edges` at
    the (xi, xi2) that f passes to `outside_small_ball`.

    f does per node only the work that varies per node.  A factor, of node
    or base-point size, whose exponent is 0 is exactly 1.0: neither it nor
    its argument is evaluated, and the other factors multiply in their
    order, so the value keeps its bits.  The terms of a base point alone
    (2P, Q + P^2, 2|Q + P^2|, ...) are computed once per batch and read per
    node, each where it is a sub-expression of the lone evaluation's, so
    every node runs the same floating-point operations.
    """
    a, b, d = p.a, p.b, p.d
    family, region, fixed = J_REGIONS[index]
    scheme = scheme_for(index, a)
    lines = _LINES[fixed]
    # the fixed modulation at its base pair: Q + c P^2, as dispersion.modulations
    c = {"N1": {"w": 1.0, "w1": -1.0, "w2": a}, "N2": {"w": a, "w1": 1.0, "w2": 1.0}}
    mod = Q + c[family][fixed] * P * P
    pref = _bracket(mod) ** (-2 * d if fixed == "w" else -2 * b)
    # the quadratic bracket's exponent is never 0: b and d lie in (3/8, 1/2)
    e_br = -(4 * b - 1) if region == 1 else -(2 * b + 2 * d - 1)
    bracket, dominance = _ROWS[index]
    A, B, C = bracket(P, Q, a)
    dA, dB, dC = (A, B, C) if dominance is None else dominance(P, Q, a)
    dom_lhs = 2 * np.abs(mod)
    # the weights (frequency k of (xi, xi1, xi2), exponent) in their order:
    # <xi2>^(2|kappa| - 2s) for N1, <xi>^(2s) <xi1>^(-2kappa) <xi2>^(-2kappa) for N2
    family_weights = (((2, -2 * p.s + 2 * abs(p.kappa)),) if family == "N1" else
                      ((0, 2 * p.s), (1, -2 * p.kappa), (2, -2 * p.kappa)))
    weights = [(k, e, None if lines[k][0] else _bracket(P) ** e)
               for k, e in family_weights if e]
    g = 2 if family == "N1" else 0          # the gate variable, xi2 or xi
    node_gate = lines[g][0] != 0
    inside = np.abs(P) <= 1.0
    empty = np.zeros(P.size, dtype=bool) if node_gate or region == 1 else np.abs(P) < 1.0
    # j_eval never asks for the empty regions of J2, J3, J5 and J6 at
    # a = 1/2; there the RES scheme puts no condition on those of J1 and J4
    dom = scheme != "RES" and fixed == ("w" if region == 1 else MAXIMAL[scheme][region - 2])
    ball = scheme in ("A", "B")
    # the frequencies f reads at the nodes, each computed once per call, and
    # how it joins the indicator's conditions
    at_nodes = ({k for k, _, per_row in weights if per_row is None}
                | ({g} if node_gate else set()) | ({0, 2} if ball else set()))
    join = np.logical_or if region == 1 else np.logical_and

    def f(y, r):
        x = {k: _on_line(lines[k], P, y, r) for k in at_nodes}
        q = A * y * y + B[r] * y + C[r]
        val = _weigh(weights, x, r, _bracket(q) ** e_br)
        if scheme == "RES":
            return val
        on = []
        if node_gate:
            on.append(np.abs(x[g]) <= 1.0 if region == 1 else np.abs(x[g]) >= 1.0)
        elif region == 1:
            on.append(inside[r])
        if dom:
            if dominance is not None:       # J1's and J6's own quadratic
                q = dA * y * y + dB[r] * y + dC[r]
            on.append(dom_lhs[r] >= np.abs(q))
        if ball:
            out = outside_small_ball(x[0], x[2], a, family)
            on.append(out if region == 1 else ~out)
        if not on:
            return val
        chi = reduce(join, on)
        return val * chi.astype(float)

    cols = [_quad_roots(A, B, C), _vertex(A, B), _level_roots(dA, dB, dC, dom_lhs)]
    if node_gate:       # the lines of xi and xi2 have slope 0 or 1
        offset = P if lines[g][1] else 0.0
        cols += [-offset - 1.0, -offset + 1.0]
    cols += [P if s != t else -P for s, t in (lines[k] for k, _ in family_weights) if s and t]
    if ball:
        cols.append(small_ball_edges(*((float(s), P if t else 0.0) for s, t in lines[::2]),
                                     a, family))
    return pref, f, _bp_table(P.size, *cols), empty


def j_eval(index: str, bases, p: EstimateParams, window: float | None = None,
           rel_tol: float = 1e-6):
    """Evaluate one J integral at each base point of `bases`, an (n, 2) array.

    With `window`, the integration variable is restricted to |y| <= window
    (the sweep's frequency ball) and the tail beyond it is only estimated.
    Without it, the domain grows until the quadrature converges; a verified
    lack of decay fails a point, as does an estimated tail above 5% of the
    value.

    Returns (values, failed): failed maps each point that failed to its
    message, and that point's value is NaN.  Every value and message is
    the one the point has in a batch of one.  check_indices refuses an
    index undefined at p; an index whose region is empty is 0 everywhere.
    A float overflow, invalid operation or division by zero anywhere in the
    batch raises ParamDomainViolated: p takes the integrand past the float
    range.  A fault that the caller's numpy error state ignores stays ignored.
    """
    bases = np.asarray(bases, dtype=float)
    if check_indices([index], p):       # the region is empty
        return np.zeros(len(bases)), {}
    try:
        # numpy warns of each of these faults by default; here it raises
        with np.errstate(**{k: "raise" for k, v in np.geterr().items() if v == "warn"}):
            return _j_rows(index, np.ascontiguousarray(bases[:, 0]),
                           np.ascontiguousarray(bases[:, 1]), p, window, rel_tol)
    except FloatingPointError as exc:
        raise ParamDomainViolated(f"{index} at (a, b, d, kappa, s) = ({p.a}, {p.b}, {p.d}, "
                                  f"{p.kappa}, {p.s}): {exc}") from exc


def _j_rows(index, P, Q, p, window, rel_tol):
    """Values and failure messages of one J index at the base points (P, Q)."""
    if index == "A-J":
        return _appendix_j(P, Q, p, window, rel_tol)
    if index in _APPENDIX_2D:
        return _appendix_2d(index, P, Q, p, window, rel_tol)
    pref, f, bps, empty = _pieces(index, P, Q, p)
    return _scaled_integrals(index, P, Q, pref, f, bps, ~empty, window, rel_tol)


def _tail_dominates(tail, value):
    """The J tail rule: a tail estimate above 5% of the value fails the point."""
    return tail > 0.05 * np.maximum(np.abs(value), 1e-300)


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
        for k in np.flatnonzero(_tail_dominates(tail, value)):
            failed[rows[k]] = (f"{index} at base ({P[rows[k]]}, {Q[rows[k]]}): tail "
                               f"estimate {tail[k]:.3g} exceeds 5% of value {value[k]:.3g}")
    values[list(failed)] = np.nan
    return values, failed


def _appendix_j(P, Q, p, window, rel_tol):
    """Appendix integral for kappa >= 0; defers below the |tau| > 10 xi^2 cut."""
    a, b, d, kappa, s = p.a, p.b, p.d, p.kappa, p.s
    lemma = np.abs(Q) <= 10.0 * P * P
    A2_, B2_, C2_ = _ROWS["J1"][0](P, Q, a)
    pref = _bracket(C2_) ** (-(2 * d - kappa))
    e_4b, lines = -(4 * b - 1), _LINES["w"]
    weights = [(k, e, None) for k, e in ((1, -2 * kappa), (2, -2 * s)) if e]

    def f(y, r):
        # J1's bracket, weighed as in _pieces by <xi1>^(-2kappa) <xi2>^(-2s)
        return _weigh(weights, {k: _on_line(lines[k], P, y, r) for k, _, _ in weights}, r,
                      _bracket(A2_ * y * y + B2_[r] * y + C2_[r]) ** e_4b)
    vertex = _vertex(A2_, B2_)
    bps = _bp_table(P.size, _quad_roots(A2_, B2_, C2_), P,
                    np.where(np.isnan(vertex), 0.0, vertex))
    values, failed = _scaled_integrals("A-J", P, Q, pref, f, bps, ~lemma, window, rel_tol)
    rows = np.flatnonzero(lemma)
    if rows.size:
        values[rows], bad = _j_rows("J1", P[rows], Q[rows], p, window, rel_tol)
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
    family, region, _ = J_REGIONS[index]
    # A-J2's region needs |xi2| >= 1
    if index == "A-J2" and abs(P) < 1.0:
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
    # points x[rows] (xi2, or xi for A-J2), one row per point
    nodes = _panel_nodes(edges, 12)[0].ravel()
    x = np.concatenate([nodes, _probe_points(W)])
    if index == "A-J1":
        pref = _bracket(Q) ** kappa * _bracket(Q + P * P) ** (-2 * d)
        w0 = _bracket(P - x) ** (-2 * kappa) * _bracket(x) ** (-2 * s)
        sq, axx = (P - x) ** 2, a * x ** 2

        def g(tau2, r):
            fp = FrequencyPoint(P, Q, x[r], tau2)
            chi = (classify_region(fp, a, family) == region).astype(float)
            w1 = (Q - tau2) - sq[r]
            w2 = tau2 + axx[r]
            return w0[r] * chi * _bracket(w1) ** (-2 * b) * _bracket(w2) ** (-2 * b)
        bps = np.column_stack([Q - sq, -axx])
    elif index == "A-J2":
        pref = _bracket(P) ** (2 * s) * _bracket(Q + a * P * P) ** (-2 * b)
        w0 = _bracket(x - P) ** (-2 * kappa)
        xx, sq = x ** 2, (x - P) ** 2

        def g(tau, r):
            # quadruple (xi, tau, xi2=P, tau2=Q), integrating (xi, tau)
            fp = FrequencyPoint(x[r], tau, np.full_like(tau, P), np.full_like(tau, Q))
            chi = (classify_region(fp, a, family) == region).astype(float)
            w = tau + xx[r]
            w1 = (tau - Q) - sq[r]
            return (w0[r] * _bracket(tau) ** kappa
                    * chi * _bracket(w1) ** (-2 * b) * _bracket(w) ** (-2 * d))
        bps = np.column_stack([-xx, Q + sq, np.zeros(x.size)])
    else:  # A-J3
        pref = _bracket(P) ** (-2 * kappa) * _bracket(Q - P * P) ** (-2 * b)
        ws, wd = _bracket(x) ** (-2 * s), _bracket(P + x) ** (-4 * d)
        axx = a * x ** 2

        def g(tau2, r):
            fp = FrequencyPoint(P + x[r], Q + tau2, x[r], tau2)
            chi = (classify_region(fp, a, family) == region).astype(float)
            w2 = tau2 + axx[r]
            return (_bracket(Q + tau2) ** kappa * ws[r]
                    * chi * wd[r] * _bracket(w2) ** (-2 * b))
        bps = np.column_stack([-axx, np.full(x.size, -Q)])

    t_window = None if window is None else window * window
    inner, _, bad = integrate_with_tail(g, bps, window=t_window, rel_tol=10 * rel_tol)
    if bad:
        return np.nan, bad[min(bad)]
    # the outer rule and the tail probe read the inner integrals at the
    # points they evaluate, which x lists in their order
    value = float(np.sum(panel_sums(lambda _: inner[:nodes.size], edges, 12))) * pref
    tail = tail_probe(lambda _: inner[nodes.size:], W) * pref
    if window is None and _tail_dominates(tail, value):
        return np.nan, f"{index} tail exceeds 5% of value"
    return value, None


def _peak_anchors(index: str, p: EstimateParams, x):
    """Base tau values nulling the prefactor modulation and the bracket vertex.

    The vertex anchor is there where the row's bracket has a vertex, by
    _vertex's rule on its leading coefficient.  x may be a float or an
    array; each anchor then has x's shape."""
    a = p.a
    x2 = x * x
    idx = "J1" if index in ("A-J", "A-J1", "A-J2", "A-J3") else index
    mod_null = {"J1": -x2, "J2": -a * x2, "J3": x2,
                "J4": -a * x2, "J5": -x2, "J6": -x2}[idx]
    if not _has_vertex(_ROWS[idx][0](0.0, 0.0, a)[0]):
        return [mod_null]
    if idx in ("J2", "J4"):
        vert_null = -0.5 * x2
    elif idx in ("J1", "J3"):
        vert_null = a * x2 / (1.0 - a)
    elif idx == "J5":
        vert_null = -a * x2 / (1.0 - a)
    else:  # J6
        vert_null = -a * x2 / (a + 1.0)
    return [mod_null, vert_null]


#: the sweep's uniform samples of xi, and of tau, per radius
_N_BASE = 9
#: the sweep's fixed O(1) xi anchors and its modulation offsets of the peak anchors
_XI_ANCHORS = (0.0, 1.0, -1.0, 1.5, -1.5, 2.5, -2.5, 4.0, -4.0)
_TAU_OFFSETS = (0.0, -2.0, 2.0, -8.0, 8.0)


def _base_grid(index: str, p: EstimateParams, R: float) -> np.ndarray:
    """The (xi, tau) base points of radius R in scan order: for each xi, the
    uniform taus, then each peak anchor at every offset."""
    xs = np.unique(np.concatenate([np.linspace(-R, R, _N_BASE), _XI_ANCHORS]))
    taus = np.linspace(-R * R, R * R, _N_BASE)
    peaks = np.stack(_peak_anchors(index, p, xs), axis=1)[:, :, None] + np.array(_TAU_OFFSETS)
    rows = np.concatenate([np.broadcast_to(taus, (xs.size, _N_BASE)),
                           peaks.reshape(xs.size, -1)], axis=1)
    return np.column_stack([np.repeat(xs, rows.shape[1]), rows.ravel()])


def _fold(points):
    """Base points (xi, tau) mapped to (-|xi|, tau); xi = 0 keeps its sign."""
    return np.column_stack([np.where(points[:, 0] > 0, -points[:, 0], points[:, 0]),
                            points[:, 1]])


def j_sup_sweep(index: str, p: EstimateParams, radii) -> list[dict]:
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
    check_indices([index], p, sweep=True)
    grids = [_base_grid(index, p, R) for R in radii]
    # the unwindowed J depends neither on R nor on the sign of xi: each
    # distinct folded point once
    points, where = np.unique(_fold(np.concatenate(grids)), axis=0, return_inverse=True)
    values, _ = j_eval(index, points, p, rel_tol=SWEEP_REL_TOL)
    records, start = [], 0
    for R, grid in zip(radii, grids):
        vals = values[where[start:start + len(grid)]]
        start += len(grid)
        miss = np.isnan(vals)
        if miss.any():
            folded, back = np.unique(_fold(grid[miss]), axis=0, return_inverse=True)
            vals[miss] = j_eval(index, folded, p, window=R,
                                rel_tol=SWEEP_REL_TOL)[0][back]
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
                   which: str) -> float:
    """Left-norm over product-of-right-norms for one bilinear estimate.

    which = "L5.1": conj(u)*v in X^{kappa,-d}, u in the a-adapted space;
    "L5.2": u*v in X_a^{s,-d}; "L5.3": conj(u)*v in W^{kappa,-d};
    "L5.4": u*v in W_a^{kappa,-d}.
    """
    if which not in ESTIMATES:
        raise ParamDomainViolated(f"unknown estimate {which!r}")
    if u.samples.shape != v.samples.shape or u.dx != v.dx or u.dt != v.dt:
        raise ValueError("u and v must share one grid")
    a, b, d, kappa, s = p.a, p.b, p.d, p.kappa, p.s
    if which == "L5.1":
        prod = np.conj(u.samples) * v.samples
        left = BourgainParams(kappa, -d, 1.0)
        ru = BourgainParams(kappa, b, a)
        rv = BourgainParams(s, b, 1.0)
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
