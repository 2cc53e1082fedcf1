"""Resonance functions, regime classification, region decompositions.

A convolution quadruple (xi, tau, xi2, tau2) determines the complementary
pair xi1 = xi - xi2, tau1 = tau - tau2.  Two modulation families appear:

  N1 (conjugate-first coupling):  w = tau + xi^2,  w1 = tau1 - xi1^2,
                                  w2 = tau2 + a*xi2^2;
  N2 (square coupling):           w = tau + a*xi^2, w1 = tau1 + xi1^2,
                                  w2 = tau2 + xi2^2.

All functions accept scalars or numpy arrays componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import (BelowResonance, NonPositiveA, ParamDomainViolated,
                     ResonantA, SchemeMismatch)
from .spectral import _bracket

REGIMES = ("SecondNonResonant", "Resonant", "FirstNonResonant")
SCHEMES = ("R", "A", "S", "B", "RES")
#: scale of the Cauchy draws of sample_quadruples
CAUCHY_SCALE = 5.0


@dataclass
class FrequencyPoint:
    """Convolution quadruple with derived complementary coordinates."""

    xi: float
    tau: float
    xi2: float
    tau2: float

    @property
    def xi1(self):
        return self.xi - self.xi2

    @property
    def tau1(self):
        return self.tau - self.tau2

    def max_freq_sq(self):
        return np.maximum(np.maximum(np.square(self.xi), np.square(self.xi1)),
                          np.square(self.xi2))


def classify_regime(a: float) -> str:
    """Resonance regime of the dispersion coefficient; a = 1/2 is exact."""
    if a <= 0:
        raise NonPositiveA(f"a must be positive, got {a}")
    if a == 0.5:
        return "Resonant"
    return "SecondNonResonant" if a < 0.5 else "FirstNonResonant"


def modulations(fp: FrequencyPoint, a: float, family: str):
    """Return (w, w1, w2) for the requested modulation family."""
    if a <= 0:
        raise NonPositiveA(f"a must be positive, got {a}")
    if family == "N1":
        return (fp.tau + fp.xi ** 2,
                fp.tau1 - fp.xi1 ** 2,
                fp.tau2 + a * fp.xi2 ** 2)
    if family == "N2":
        return (fp.tau + a * fp.xi ** 2,
                fp.tau1 + fp.xi1 ** 2,
                fp.tau2 + fp.xi2 ** 2)
    raise ValueError(f"unknown modulation family {family!r}")


def resonance(fp: FrequencyPoint, a: float, family: str):
    """|w - w1 - w2| in closed form for the given family."""
    if a <= 0:
        raise NonPositiveA(f"a must be positive, got {a}")
    if family == "N1":
        return np.abs(fp.xi ** 2 + fp.xi1 ** 2 - a * fp.xi2 ** 2)
    if family == "N2":
        return np.abs(a * fp.xi ** 2 - fp.xi1 ** 2 - fp.xi2 ** 2)
    raise ValueError(f"unknown modulation family {family!r}")


def mu(a: float) -> float:
    """Root parameter (1 - sqrt(2a-1))/2 of the factored resonance, a >= 1/2."""
    if a < 0.5:
        raise BelowResonance(f"mu is defined for a >= 1/2, got {a}")
    return (1.0 - np.sqrt(2.0 * a - 1.0)) / 2.0


def resonance_lower_bound(fp: FrequencyPoint, a: float):
    """Claimed lower bound for the N1 resonance away from a = 1/2."""
    if a <= 0:
        raise NonPositiveA(f"a must be positive, got {a}")
    if a == 0.5:
        raise ResonantA("no lower bound is claimed at a = 1/2")
    if a < 0.5:
        return (1.0 - 2.0 * a) * (fp.xi ** 2 + fp.xi1 ** 2)
    m = mu(a)
    return 2.0 * np.abs(fp.xi - m * fp.xi2) * np.abs(fp.xi - (1.0 - m) * fp.xi2)


def lower_bound_residual(fp: FrequencyPoint, a: float):
    """resonance - bound; nonnegative up to rounding for every quadruple."""
    return resonance(fp, a, "N1") - resonance_lower_bound(fp, a)


def _scheme_family(scheme: str) -> str:
    return "N1" if scheme in ("R", "A") else "N2"


def _check_scheme(a: float, scheme: str) -> None:
    if scheme not in SCHEMES:
        raise SchemeMismatch(f"unknown scheme {scheme!r}")
    if scheme in ("R", "S") and not a < 0.5:
        raise SchemeMismatch(f"scheme {scheme} needs a < 1/2, got a={a}")
    if scheme in ("A", "B") and not a > 0.5:
        raise SchemeMismatch(f"scheme {scheme} needs a > 1/2, got a={a}")
    if scheme == "RES" and a != 0.5:
        raise SchemeMismatch(f"scheme RES needs a = 1/2, got a={a}")


def classify_region(fp: FrequencyPoint, a: float, scheme: str):
    """Assign each quadruple to exactly one region (1, 2 or 3) of a scheme.

    Max-modulation ties and tangent ball boundaries are resolved by the fixed
    priority 1 < 2 < 3, so the classification is a total function.
    """
    if a <= 0:
        raise NonPositiveA(f"a must be positive, got {a}")
    _check_scheme(a, scheme)
    xi = np.asarray(fp.xi, dtype=float)
    out = np.ones(np.broadcast(xi, fp.tau, fp.xi2, fp.tau2).shape, dtype=int)
    if scheme == "RES":
        return out if out.ndim else int(out)

    w, w1, w2 = modulations(fp, a, _scheme_family(scheme))
    aw, aw1, aw2 = np.abs(w), np.abs(w1), np.abs(w2)
    big = np.maximum(np.maximum(aw, aw1), aw2)

    if scheme == "R":
        # region 2: |w1| maximal, region 3: |w2| maximal, all on |xi2| >= 1
        sel = np.abs(fp.xi2) >= 1.0
        out = np.where(sel & (aw < big) & (aw1 == big), 2, out)
        out = np.where(sel & (aw < big) & (aw1 < big), 3, out)
    elif scheme == "S":
        sel = np.abs(xi) >= 1.0
        out = np.where(sel & (aw < big) & (aw2 == big), 2, out)
        out = np.where(sel & (aw < big) & (aw2 < big), 3, out)
    else:
        c = (2.0 * a - 1.0) / 4.0
        if scheme == "A":
            gate = np.abs(fp.xi2) >= 1.0
            ball1 = np.abs((1.0 - a) * fp.xi2 - xi) >= c * np.abs(fp.xi2)
            ball2 = np.abs(xi - 0.5 * fp.xi2) >= c * np.abs(fp.xi2)
        else:  # scheme B
            gate = np.abs(xi) >= 1.0
            ball1 = np.abs(fp.xi2 - 0.5 * xi) >= c * np.abs(xi)
            ball2 = np.abs((1.0 - a) * xi - fp.xi2) >= c * np.abs(xi)
        # ball2 with a subordinate maximal modulation splits into regions 2/3
        inner = gate & ~ball1 & (aw < big)
        out = np.where(inner & (aw2 == big), 2, out)
        out = np.where(inner & (aw2 < big), 3, out)
    return out if out.ndim else int(out)


def sample_quadruples(n: int, rng: np.random.Generator) -> FrequencyPoint:
    """Heavy-tailed (Cauchy) random quadruples for asymptotic bound probing."""
    draw = lambda: CAUCHY_SCALE * rng.standard_cauchy(n)
    return FrequencyPoint(draw(), draw(), draw(), draw())


def integral_lemma_check(kind: str, **params) -> tuple[float, float]:
    """Numerically evaluate one elementary integral estimate.

    Returns (lhs, rhs_shape): the quadrature value of the left side and the
    claimed right-side shape with unit constant.  The empirical constant of a
    sweep is the running max of lhs/rhs_shape over its parameter grid.
    """
    if kind == "GTV":
        b1, b2 = params["b1"], params["b2"]
        alpha, beta = params["alpha"], params["beta"]
        if not (b1 < 0.5 and b2 < 0.5 and b1 + b2 > 0.5):
            raise ParamDomainViolated("GTV needs b1,b2 < 1/2 and b1+b2 > 1/2")
        f = lambda y: _bracket(y - alpha) ** (-2 * b1) * _bracket(y - beta) ** (-2 * b2)
        lo, hi = sorted((alpha, beta))
        pad = max(1.0, hi - lo)
        cuts = [lo - 10 * pad, lo, 0.5 * (lo + hi), hi, hi + 10 * pad]
        # map the infinite tails through u = 1/(y - cut); the extra power
        # substitution u = w^p flattens the endpoint so the integrand is bounded
        p = 1.0 / (2.0 * b1 + 2.0 * b2 - 1.0)
        tail = lambda cut, sgn: quad(
            lambda w: f(cut + sgn * w ** -p) * p * w ** (p - 1.0) / w ** (2.0 * p),
            0.0, 1.0, limit=200)[0]
        lhs = tail(cuts[0], -1.0) + tail(cuts[-1], 1.0)
        lhs += quad(f, cuts[0] - 1.0, cuts[0], limit=200)[0]
        lhs += quad(f, cuts[-1], cuts[-1] + 1.0, limit=200)[0]
        for left, right in zip(cuts[:-1], cuts[1:]):
            lhs += quad(f, left, right, limit=200)[0]
        rhs = float(_bracket(alpha - beta) ** (-(2 * b1 + 2 * b2 - 1)))
        return lhs, rhs
    if kind == "Quadratic":
        b = params["b"]
        a0, a1 = params["alpha0"], params["alpha1"]
        if not b > 0.5:
            raise ParamDomainViolated("Quadratic needs b > 1/2")
        f = lambda x: _bracket(a0 + a1 * x + x * x) ** (-2 * b)
        vertex = -a1 / 2.0
        lhs = quad(f, -np.inf, vertex)[0] + quad(f, vertex, np.inf)[0]
        return lhs, 1.0
    if kind == "HolmerWeighted":
        b = params["b"]
        alpha, beta = params["alpha"], params["beta"]
        if not (b < 0.5 and beta > 0):
            raise ParamDomainViolated("HolmerWeighted needs b < 1/2 and beta > 0")
        g = lambda x: _bracket(x) ** (-(4 * b - 1))
        lhs = 0.0
        # substitute u = sqrt(|x - alpha|) on each side of the singularity
        for lo, hi, sgn in ((-beta, min(alpha, beta), -1.0),
                            (max(alpha, -beta), beta, 1.0)):
            if hi <= lo:
                continue
            u_hi = np.sqrt(hi - alpha) if sgn > 0 else np.sqrt(alpha - lo)
            u_lo = np.sqrt(max(0.0, (alpha - hi) if sgn < 0 else (lo - alpha)))
            h = lambda u: 2.0 * g(alpha + sgn * u * u)
            lhs += quad(h, u_lo, u_hi)[0]
        rhs = float((1.0 + beta) ** (2 - 4 * b) / _bracket(alpha) ** 0.5)
        return lhs, rhs
    raise ParamDomainViolated(f"unknown integral lemma kind {kind!r}")
