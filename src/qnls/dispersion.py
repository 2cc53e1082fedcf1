"""Resonance functions, regime classification, region decompositions, regularity.

A convolution quadruple (xi, tau, xi2, tau2) determines the complementary
pair xi1 = xi - xi2, tau1 = tau - tau2.  Two modulation families appear:

  N1 (conjugate-first coupling):  w = tau + xi^2,  w1 = tau1 - xi1^2,
                                  w2 = tau2 + a*xi2^2;
  N2 (square coupling):           w = tau + a*xi^2, w1 = tau1 + xi1^2,
                                  w2 = tau2 + xi2^2.

All functions accept scalars or numpy arrays componentwise.  Each rule that
depends on a asks `classify_regime` where a lies against the resonant 1/2
(it refuses a <= 0); `SCHEMES` gives the region scheme of a regime and family,
and `MAXIMAL` the modulation maximal in regions 2 and 3 of each scheme.
Regions 2 and 3 of schemes A and B lie in one small ball, which
`outside_small_ball` states for `classify_region` and every 1-d J indicator;
`small_ball_edges` gives where it flips along a line, for the J tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BelowResonance, NonPositiveA, ResonantA

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
    if family == "N1":
        return np.abs(fp.xi ** 2 + fp.xi1 ** 2 - a * fp.xi2 ** 2)
    if family == "N2":
        return np.abs(a * fp.xi ** 2 - fp.xi1 ** 2 - fp.xi2 ** 2)
    raise ValueError(f"unknown modulation family {family!r}")


def mu(a: float) -> float:
    """Root parameter (1 - sqrt(2a-1))/2 of the factored resonance, a >= 1/2."""
    if classify_regime(a) == "SecondNonResonant":
        raise BelowResonance(f"mu is defined for a >= 1/2, got {a}")
    return (1.0 - np.sqrt(2.0 * a - 1.0)) / 2.0


def resonance_lower_bound(fp: FrequencyPoint, a: float):
    """Claimed lower bound for the N1 resonance away from a = 1/2."""
    regime = classify_regime(a)
    if regime == "Resonant":
        raise ResonantA("no lower bound is claimed at a = 1/2")
    if regime == "SecondNonResonant":
        return (1.0 - 2.0 * a) * (fp.xi ** 2 + fp.xi1 ** 2)
    m = mu(a)
    return 2.0 * np.abs(fp.xi - m * fp.xi2) * np.abs(fp.xi - (1.0 - m) * fp.xi2)


def lower_bound_residual(fp: FrequencyPoint, a: float):
    """resonance - bound; nonnegative up to rounding for every quadruple."""
    return resonance(fp, a, "N1") - resonance_lower_bound(fp, a)


#: the region scheme of each (regime, modulation family); RES has region 1 only
SCHEMES = {("SecondNonResonant", "N1"): "R", ("SecondNonResonant", "N2"): "S",
           ("Resonant", "N1"): "RES", ("Resonant", "N2"): "RES",
           ("FirstNonResonant", "N1"): "A", ("FirstNonResonant", "N2"): "B"}
#: the modulation whose absolute value is maximal in regions 2 and 3 of each
#: scheme with three regions
MAXIMAL = {"R": ("w1", "w2"), "S": ("w2", "w1"), "A": ("w2", "w1"), "B": ("w2", "w1")}


def outside_small_ball(xi, xi2, a: float, family: str):
    """Whether (xi, xi2) lies outside the small ball of scheme A (N1) or B (N2):
    with c = (2a - 1)/4, |(1-a) xi2 - xi| < c|xi2| or |xi2 - xi/2| < c|xi|."""
    c = (2.0 * a - 1.0) / 4.0
    if family == "N1":
        return np.abs((1.0 - a) * xi2 - xi) >= c * np.abs(xi2)
    return np.abs(xi2 - 0.5 * xi) >= c * np.abs(xi)


def small_ball_edges(xi, xi2, a: float, family: str):
    """The y where outside_small_ball(xi(y), xi2(y), a, family) flips, for xi
    and xi2 affine in y, each a pair (slope, offset) of scalars or arrays.

    The predicate is |u| >= c|v| for linear forms u, v of (xi, xi2), so the
    edges solve u = c v and u = -c v: one column each, NaN where the
    equation's slope in y is below 1e-14 in magnitude.
    """
    c = (2.0 * a - 1.0) / 4.0
    (s, o), (s2, o2) = xi, xi2
    u, v = ((((1.0 - a) * s2 - s, (1.0 - a) * o2 - o), (s2, o2)) if family == "N1"
            else ((s2 - 0.5 * s, o2 - 0.5 * o), (s, o)))
    pm = np.array([-c, c])
    slope, offset = np.broadcast_arrays(*(np.expand_dims(x, -1) + pm * np.expand_dims(y, -1)
                                          for x, y in zip(u, v)))
    ok = np.abs(slope) >= 1e-14
    return np.where(ok, -offset / np.where(ok, slope, 1.0), np.nan)


def classify_region(fp: FrequencyPoint, a: float, family: str):
    """Assign each quadruple to exactly one region (1, 2 or 3) of its family's scheme.

    Max-modulation ties and the small ball's boundary are resolved by the fixed
    priority 1 < 2 < 3, so the classification is a total function.
    """
    scheme = SCHEMES[classify_regime(a), family]
    xi = np.asarray(fp.xi, dtype=float)
    out = np.ones(np.broadcast(xi, fp.tau, fp.xi2, fp.tau2).shape, dtype=int)
    if scheme == "RES":
        return out if out.ndim else int(out)

    aw, aw1, aw2 = (np.abs(m) for m in modulations(fp, a, family))
    big = np.maximum(np.maximum(aw, aw1), aw2)
    # past the gate (|xi2| >= 1 for N1, |xi| >= 1 for N2) and, under A and B,
    # in the small ball, a quadruple whose |w| is not maximal is in region 2
    # where region 2's modulation is maximal, else in region 3
    inner = (np.abs(fp.xi2 if family == "N1" else xi) >= 1.0) & (aw < big)
    if scheme in ("A", "B"):
        inner &= ~outside_small_ball(xi, fp.xi2, a, family)
    second = {"w1": aw1, "w2": aw2}[MAXIMAL[scheme][0]] == big
    out = np.where(inner & second, 2, out)
    out = np.where(inner & ~second, 3, out)
    return out if out.ndim else int(out)


def regularity_region(kappa: float, s: float, a: float):
    """Admissibility of a Sobolev index pair, with the binding inequalities.

    Returns (admissible, constraints): when inadmissible the list holds the
    violated inequalities of a's regime; when admissible, those met with equality.
    """
    regime = classify_regime(a)
    checks = []
    if regime == "FirstNonResonant":
        checks.append((abs(kappa) - 0.5 <= s, "|kappa|-1/2 <= s"))
        checks.append((s < min(kappa + 0.5, 2 * kappa + 0.5, 1.0),
                       "s < min(kappa+1/2, 2kappa+1/2, 1)"))
        checks.append((kappa < 1.0, "kappa < 1"))
    elif regime == "Resonant":
        checks.append((kappa == s, "kappa = s"))
        checks.append((0.0 <= kappa, "0 <= kappa"))
        checks.append((kappa < 1.0, "kappa < 1"))
    else:
        checks.append((max(-0.5, abs(kappa) - 1.0) <= s,
                       "max(-1/2, |kappa|-1) <= s"))
        checks.append((s < min(kappa + 1.0, 2 * kappa + 1.0, 1.0),
                       "s < min(kappa+1, 2kappa+1, 1)"))
        checks.append((kappa < 1.0, "kappa < 1"))
    checks.append((s != 0.5, "s != 1/2"))
    checks.append((kappa != 0.5, "kappa != 1/2"))
    violated = [name for ok, name in checks if not ok]
    if violated:
        return False, violated
    binding = []
    if regime == "FirstNonResonant" and abs(kappa) - 0.5 == s:
        binding.append("|kappa|-1/2 = s")
    if regime == "SecondNonResonant" and max(-0.5, abs(kappa) - 1.0) == s:
        binding.append("max(-1/2, |kappa|-1) = s")
    if regime == "Resonant" and kappa == 0.0:
        binding.append("kappa = 0")
    return True, binding


def sample_quadruples(n: int, rng: np.random.Generator) -> FrequencyPoint:
    """Heavy-tailed (Cauchy) random quadruples for asymptotic bound probing."""
    def draw():
        x = rng.standard_cauchy(n)
        x *= CAUCHY_SCALE       # in place: no second array of n draws
        return x
    return FrequencyPoint(draw(), draw(), draw(), draw())
