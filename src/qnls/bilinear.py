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
from .quadrature import integrate_with_tail, panel_sums, tail_probe
from .spectral import BourgainParams, _bracket, bourgain_norm

J_INDICES = ("J1", "J2", "J3", "J4", "J5", "J6", "A-J", "A-J1", "A-J2", "A-J3")
ESTIMATES = ("L5.1", "L5.2", "L5.3", "L5.4")
#: relative tolerance of every J evaluation in a boundedness sweep
SWEEP_REL_TOL = 3e-4


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
    """One J integral: index and base point; `scheme_for` binds its scheme."""

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
    if abs(A) < 1e-14:
        return [] if abs(B) < 1e-14 else [-C / B]
    disc = B * B - 4.0 * A * C
    if disc < 0:
        return []
    r = np.sqrt(disc)
    return [(-B - r) / (2 * A), (-B + r) / (2 * A)]


def _level_roots(A, B, C, K):
    """Roots of |A y^2 + B y + C| = K."""
    return _quad_roots(A, B, C - K) + _quad_roots(A, B, C + K)


def _ball_roots2(pc, q, r, s, c):
    """Roots of |p*y + q| = c*|r*y + s|."""
    return _quad_roots(pc * pc - c * c * r * r,
                       2.0 * (pc * q - c * c * r * s),
                       q * q - c * c * s * s)


def _ball_roots(pc, q, c):
    """Roots of |p*y + q| = c*|y|."""
    return _ball_roots2(pc, q, 1.0, 0.0, c)


def _pieces(spec: JSpec, p: EstimateParams, ignore_region: bool):
    """Prefactor, vectorized integrand, breakpoints and zero-flag for a 1-d J."""
    P, Q = spec.base
    a, b, d, kappa, s = p.a, p.b, p.d, p.kappa, p.s
    scheme = scheme_for(spec.index, a)
    idx = spec.index
    c = (2.0 * a - 1.0) / 4.0
    one = lambda y: np.ones_like(np.asarray(y, dtype=float))

    if idx == "J1":
        omega = Q + P * P
        pref = _bracket(omega) ** (-2 * d)
        # bracket tau - (a-1)y^2 - 2 xi y + xi^2 as A y^2 + B y + C
        A2_, B2_, C2_ = -(a - 1.0), -2.0 * P, Q + P * P
        bracket = lambda y: A2_ * y * y + B2_ * y + C2_
        weight = lambda y: _bracket(y) ** (-2 * s + 2 * abs(kappa))
        # modulation sum w1+w2 = tau - (xi-y)^2 + a y^2
        sA, sB, sC = a - 1.0, 2.0 * P, Q - P * P
        msum = lambda y: sA * y * y + sB * y + sC
        if scheme == "RES" or ignore_region:
            chi = one
        elif scheme == "R":
            chi = lambda y: ((np.abs(y) <= 1.0)
                             | (2 * abs(omega) >= np.abs(msum(y)))).astype(float)
        else:  # A
            chi = lambda y: ((np.abs(y) <= 1.0)
                             | (np.abs((1 - a) * y - P) >= c * np.abs(y))
                             | ((np.abs(P - 0.5 * y) >= c * np.abs(y))
                                & (2 * abs(omega) >= np.abs(msum(y))))).astype(float)
        f = lambda y: weight(y) * _bracket(bracket(y)) ** (-(4 * b - 1)) * chi(y)
        bps = ([-1.0, 1.0] + _quad_roots(A2_, B2_, C2_)
               + _level_roots(sA, sB, sC, 2 * abs(omega))
               + _ball_roots(1 - a, -P, c) + _ball_roots(-0.5, P, c))
        if abs(A2_) > 1e-14:
            bps.append(-B2_ / (2 * A2_))
        return pref, f, bps, False

    if idx == "J2":
        omega2 = Q + a * P * P
        pref = _bracket(omega2) ** (-2 * b)
        wconst = _bracket(P) ** (-2 * s + 2 * abs(kappa))
        A2_, B2_, C2_ = 2.0, -2.0 * P, Q + P * P
        bracket = lambda y: A2_ * y * y + B2_ * y + C2_
        if scheme == "RES" and not ignore_region:
            return pref, one, [], True
        if not ignore_region and abs(P) < 1.0:
            return pref, one, [], True          # region needs |xi2| >= 1
        if scheme == "A" and not ignore_region:
            chi = lambda y: ((np.abs(y - 0.5 * P) >= c * abs(P))
                             & (2 * abs(omega2) >= np.abs(bracket(y)))).astype(float)
        else:
            chi = one
        f = lambda y: wconst * _bracket(bracket(y)) ** (-(2 * b + 2 * d - 1)) * chi(y)
        bps = (_quad_roots(A2_, B2_, C2_) + [-B2_ / (2 * A2_)]
               + _level_roots(A2_, B2_, C2_, 2 * abs(omega2))
               + [0.5 * P - c * abs(P), 0.5 * P + c * abs(P)])
        return pref, f, bps, False

    if idx == "J3":
        omega1 = Q - P * P
        pref = _bracket(omega1) ** (-2 * b)
        weight = lambda y: _bracket(y) ** (-2 * s + 2 * abs(kappa))
        A2_, B2_, C2_ = 1.0 - a, 2.0 * P, Q + P * P
        bracket = lambda y: A2_ * y * y + B2_ * y + C2_
        if scheme == "RES" and not ignore_region:
            return pref, one, [], True
        if scheme == "A" and not ignore_region:
            chi = lambda y: ((np.abs(y) >= 1.0)
                             & (np.abs(P + 0.5 * y) >= c * np.abs(y))
                             & (2 * abs(omega1) >= np.abs(bracket(y)))).astype(float)
        elif scheme == "R" and not ignore_region:
            chi = lambda y: (np.abs(y) >= 1.0).astype(float)
        else:
            chi = one
        f = lambda y: weight(y) * _bracket(bracket(y)) ** (-(2 * b + 2 * d - 1)) * chi(y)
        bps = ([-1.0, 1.0] + _quad_roots(A2_, B2_, C2_)
               + _level_roots(A2_, B2_, C2_, 2 * abs(omega1))
               + _ball_roots(0.5, P, c))
        if abs(A2_) > 1e-14:
            bps.append(-B2_ / (2 * A2_))
        return pref, f, bps, False

    if idx == "J4":
        lam = Q + a * P * P
        pref = _bracket(lam) ** (-2 * d)
        weight = lambda y: (_bracket(P) ** (2 * s) * _bracket(P - y) ** (-2 * kappa)
                            * _bracket(y) ** (-2 * kappa))
        A2_, B2_, C2_ = 2.0, -2.0 * P, Q + P * P
        bracket = lambda y: A2_ * y * y + B2_ * y + C2_
        if scheme == "RES" or ignore_region or abs(P) <= 1.0:
            chi = one
        elif scheme == "S":
            chi = lambda y: (2 * abs(lam) >= np.abs(bracket(y))).astype(float)
        else:  # B
            chi = lambda y: ((np.abs(y - 0.5 * P) >= c * abs(P))
                             | ((np.abs((1 - a) * P - y) >= c * abs(P))
                                & (2 * abs(lam) >= np.abs(bracket(y))))).astype(float)
        f = lambda y: weight(y) * _bracket(bracket(y)) ** (-(4 * b - 1)) * chi(y)
        bps = (_quad_roots(A2_, B2_, C2_) + [-B2_ / (2 * A2_), P]
               + _level_roots(A2_, B2_, C2_, 2 * abs(lam))
               + [0.5 * P - c * abs(P), 0.5 * P + c * abs(P),
                  (1 - a) * P - c * abs(P), (1 - a) * P + c * abs(P)])
        return pref, f, bps, False

    if idx == "J5":
        lam2 = Q + P * P
        pref = _bracket(lam2) ** (-2 * b)
        weight = lambda y: (_bracket(y) ** (2 * s) * _bracket(y - P) ** (-2 * kappa)
                            * _bracket(P) ** (-2 * kappa))
        A2_, B2_, C2_ = a - 1.0, 2.0 * P, Q - P * P
        bracket = lambda y: A2_ * y * y + B2_ * y + C2_
        if scheme == "RES" and not ignore_region:
            return pref, one, [], True
        if ignore_region:
            chi = one
        elif scheme == "S":
            chi = lambda y: ((np.abs(y) >= 1.0)
                             & (2 * abs(lam2) >= np.abs(bracket(y)))).astype(float)
        else:  # B
            chi = lambda y: ((np.abs(y) >= 1.0)
                             & (np.abs((1 - a) * y - P) >= c * np.abs(y))
                             & (2 * abs(lam2) >= np.abs(bracket(y)))).astype(float)
        f = lambda y: weight(y) * _bracket(bracket(y)) ** (-(2 * b + 2 * d - 1)) * chi(y)
        bps = ([-1.0, 1.0, P] + _quad_roots(A2_, B2_, C2_)
               + _level_roots(A2_, B2_, C2_, 2 * abs(lam2))
               + _ball_roots(1 - a, -P, c))
        if abs(A2_) > 1e-14:
            bps.append(-B2_ / (2 * A2_))
        return pref, f, bps, False

    if idx == "J6":
        lam1 = Q + P * P
        pref = _bracket(lam1) ** (-2 * b)
        weight = lambda y: (_bracket(P + y) ** (2 * s) * _bracket(P) ** (-2 * kappa)
                            * _bracket(y) ** (-2 * kappa))
        A2_, B2_, C2_ = a + 1.0, 2.0 * a * P, Q + a * P * P
        bracket = lambda y: A2_ * y * y + B2_ * y + C2_
        dA, dB, dC = a - 1.0, 2.0 * a * P, Q + a * P * P
        dom = lambda y: dA * y * y + dB * y + dC
        if scheme == "RES" and not ignore_region:
            return pref, one, [], True
        if ignore_region:
            chi = one
        elif scheme == "S":
            chi = lambda y: ((np.abs(P + y) >= 1.0)
                             & (2 * abs(lam1) >= np.abs(dom(y)))).astype(float)
        else:  # B
            chi = lambda y: ((np.abs(P + y) >= 1.0)
                             & (np.abs((1 - a) * (P + y) - y) >= c * np.abs(P + y))
                             & (2 * abs(lam1) >= np.abs(dom(y)))).astype(float)
        f = lambda y: weight(y) * _bracket(bracket(y)) ** (-(2 * b + 2 * d - 1)) * chi(y)
        bps = ([-P - 1.0, -P + 1.0, -P] + _quad_roots(A2_, B2_, C2_)
               + _level_roots(dA, dB, dC, 2 * abs(lam1))
               + _ball_roots2(-a, (1 - a) * P, 1.0, P, c))
        if abs(A2_) > 1e-14:
            bps.append(-B2_ / (2 * A2_))
        return pref, f, bps, False

    raise ParamDomainViolated(f"index {idx} has no 1-d reduction")


def j_eval(spec: JSpec, p: EstimateParams, window: float | None = None,
           ignore_region: bool = False, rel_tol: float = 1e-6) -> float:
    """Evaluate one J integral at its base point.

    With `window`, the integration variable is restricted to |y| <= window
    (the sweep's frequency ball) and the tail beyond it is only estimated.
    Without it, the domain grows until the quadrature converges; a verified
    lack of decay raises QuadratureNonConvergent, as does an estimated tail
    above 5% of the value.
    """
    idx = spec.index
    if idx == "A-J":
        return _appendix_j(spec, p, window, rel_tol)
    if idx in ("A-J1", "A-J2", "A-J3"):
        return _appendix_2d(spec, p, window, rel_tol)

    pref, f, bps, empty = _pieces(spec, p, ignore_region)
    if empty:
        return 0.0
    bps = sorted({float(b) for b in bps if np.isfinite(b)})
    value, tail = integrate_with_tail(f, bps, window=window, rel_tol=rel_tol)
    value *= pref
    tail *= pref
    if window is None and tail > 0.05 * max(abs(value), 1e-300):
        raise QuadratureNonConvergent(
            f"{idx} at base {spec.base}: tail estimate {tail:.3g} "
            f"exceeds 5% of value {value:.3g}")
    return value


def _appendix_j(spec, p, window, rel_tol):
    """Appendix integral for kappa >= 0; defers below the |tau| > 10 xi^2 cut."""
    if p.kappa < 0:
        raise ParamDomainViolated("appendix A-J branch requires kappa >= 0")
    P, Q = spec.base
    if abs(Q) <= 10.0 * P * P:
        return j_eval(JSpec("J1", spec.base), p, window, rel_tol=rel_tol)
    a, b, d, kappa, s = p.a, p.b, p.d, p.kappa, p.s
    pref = _bracket(Q + P * P) ** (-(2 * d - kappa))
    A2_, B2_, C2_ = -(a - 1.0), -2.0 * P, Q + P * P
    f = lambda y: (_bracket(P - y) ** (-2 * kappa) * _bracket(y) ** (-2 * s)
                   * _bracket(A2_ * y * y + B2_ * y + C2_) ** (-(4 * b - 1)))
    bps = sorted({float(r) for r in
                  _quad_roots(A2_, B2_, C2_) + [P, -B2_ / (2 * A2_) if abs(A2_) > 1e-14 else 0.0]})
    value, tail = integrate_with_tail(f, bps, window=window, rel_tol=rel_tol)
    value *= pref
    tail *= pref
    if window is None and tail > 0.05 * max(abs(value), 1e-300):
        raise QuadratureNonConvergent("A-J tail exceeds 5% of value")
    return value


def _appendix_2d(spec, p, window, rel_tol):
    """Two-dimensional appendix integrals of the kappa <= -1/2 branch.

    The outer frequency runs over fixed dyadic Gauss panels (the inner time
    frequency is integrated adaptively per node); without an explicit window
    the outer domain is sized from the region indicator's support bound.
    """
    if p.kappa > 0:
        raise ParamDomainViolated("appendix 2-d branch requires kappa <= 0")
    P, Q = spec.base
    a, b, d, kappa, s = p.a, p.b, p.d, p.kappa, p.s
    region = {"A-J1": 1, "A-J2": 2, "A-J3": 3}[spec.index]
    scheme = scheme_for(spec.index, a)
    if scheme == "RES" and region > 1:
        return 0.0
    t_window = None if window is None else window * window

    if spec.index == "A-J1":
        pref = _bracket(Q) ** kappa * _bracket(Q + P * P) ** (-2 * d)

        def inner(xi2):
            def g(tau2):
                fp = FrequencyPoint(P, Q, np.full_like(tau2, xi2), tau2)
                chi = (classify_region(fp, a, scheme) == region).astype(float)
                w1 = (Q - tau2) - (P - xi2) ** 2
                w2 = tau2 + a * xi2 ** 2
                return (_bracket(P - xi2) ** (-2 * kappa) * _bracket(xi2) ** (-2 * s)
                        * chi * _bracket(w1) ** (-2 * b) * _bracket(w2) ** (-2 * b))
            bps = [Q - (P - xi2) ** 2, -a * xi2 ** 2]
            val, _ = integrate_with_tail(g, bps, window=t_window, rel_tol=10 * rel_tol)
            return val
        outer_bps = [-1.0, 1.0, P]
    elif spec.index == "A-J2":
        pref = _bracket(P) ** (2 * s) * _bracket(Q + a * P * P) ** (-2 * b)
        if abs(P) < 1.0:    # region needs |xi2| >= 1
            return 0.0

        def inner(xi):
            def g(tau):
                # quadruple (xi, tau, xi2=P, tau2=Q), integrating (xi, tau)
                fp = FrequencyPoint(np.full_like(tau, xi), tau,
                                    np.full_like(tau, P), np.full_like(tau, Q))
                chi = (classify_region(fp, a, scheme) == region).astype(float)
                w = tau + xi ** 2
                w1 = (tau - Q) - (xi - P) ** 2
                return (_bracket(xi - P) ** (-2 * kappa) * _bracket(tau) ** kappa
                        * chi * _bracket(w1) ** (-2 * b) * _bracket(w) ** (-2 * d))
            bps = [-xi ** 2, Q + (xi - P) ** 2, 0.0]
            val, _ = integrate_with_tail(g, bps, window=t_window, rel_tol=10 * rel_tol)
            return val
        outer_bps = [P - 1.0, P + 1.0, P]
    else:  # A-J3
        pref = _bracket(P) ** (-2 * kappa) * _bracket(Q - P * P) ** (-2 * b)

        def inner(xi2):
            def g(tau2):
                fp = FrequencyPoint(np.full_like(tau2, P + xi2), Q + tau2,
                                    np.full_like(tau2, xi2), tau2)
                chi = (classify_region(fp, a, scheme) == region).astype(float)
                w2 = tau2 + a * xi2 ** 2
                return (_bracket(Q + tau2) ** kappa * _bracket(xi2) ** (-2 * s)
                        * chi * _bracket(P + xi2) ** (-4 * d) * _bracket(w2) ** (-2 * b))
            bps = [-a * xi2 ** 2, -Q]
            val, _ = integrate_with_tail(g, bps, window=t_window, rel_tol=10 * rel_tol)
            return val
        outer_bps = [-1.0, 1.0, -P]

    fvec = lambda ys: np.array([inner(float(y)) for y in np.atleast_1d(ys)])
    if window is None:
        # support bound from the dominance condition of the region indicator
        fixed_mod = abs(Q + P * P)
        gap = max(abs(1.0 - 2.0 * a), 0.05)
        W = max(16.0, 2.0 * np.sqrt(12.0 * (1.0 + fixed_mod) / gap))
    else:
        W = window
    ladder = [2.0 ** k for k in range(1, int(np.ceil(np.log2(W))) + 1) if 2.0 ** k < W]
    edges = sorted({float(e) for e in
                    [-W, W] + ladder + [-l for l in ladder]
                    + [b_ for b_ in outer_bps if abs(b_) < W]})
    value = float(np.sum(panel_sums(fvec, np.asarray(edges), 12)))
    tail = tail_probe(fvec, W)
    value *= pref
    tail *= pref
    if window is None and tail > 0.05 * max(abs(value), 1e-300):
        raise QuadratureNonConvergent(f"{spec.index} tail exceeds 5% of value")
    return value


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


def _peak_anchors(index: str, p: EstimateParams, x: float) -> list[float]:
    """Base tau values nulling the prefactor modulation and the bracket vertex."""
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
    """
    offsets = (0.0, -2.0, 2.0, -8.0, 8.0)
    xi_anchors = (0.0, 1.0, -1.0, 1.5, -1.5, 2.5, -2.5, 4.0, -4.0)
    records = []
    for R in radii:
        xs = np.unique(np.concatenate([np.linspace(-R, R, n_base), xi_anchors]))
        taus = np.linspace(-R * R, R * R, n_base)
        best, arg = -np.inf, (0.0, 0.0)
        for x in xs:
            surf = [anchor + off for anchor in _peak_anchors(index, p, x)
                    for off in offsets]
            for tau in np.concatenate([taus, surf]):
                spec = JSpec(index, (float(x), float(tau)))
                try:
                    val = j_eval(spec, p, rel_tol=SWEEP_REL_TOL)
                except QuadratureNonConvergent:
                    val = j_eval(spec, p, window=R, rel_tol=SWEEP_REL_TOL)
                if val > best:
                    best, arg = val, (float(x), float(tau))
        records.append({"index": index, "R": float(R), "sup": float(best),
                        "argmax_xi": arg[0], "argmax_tau": arg[1]})
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
