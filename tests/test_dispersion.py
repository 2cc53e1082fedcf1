import numpy as np
import pytest
from scipy.integrate import quad

from qnls.dispersion import (FrequencyPoint, classify_region, classify_regime,
                             lower_bound_residual, modulations, mu, outside_small_ball,
                             resonance, sample_quadruples, small_ball_edges)
from qnls.errors import BelowResonance, NonPositiveA, ParamDomainViolated, ResonantA
from qnls.spectral import _bracket


def test_regime_labels():
    assert classify_regime(0.3) == "SecondNonResonant"
    assert classify_regime(0.5) == "Resonant"
    assert classify_regime(2.0) == "FirstNonResonant"
    with pytest.raises(NonPositiveA):
        classify_regime(0.0)


def test_resonance_zero_frequencies():
    fp = FrequencyPoint(0.0, 3.0, 0.0, 1.0)
    assert resonance(fp, 0.7, "N1") == 0.0


def test_resonance_degenerate_at_half():
    fp = FrequencyPoint(1.0, 0.0, 2.0, 0.0)   # xi1 = -1
    assert resonance(fp, 0.5, "N1") == pytest.approx(abs(1 + 1 - 0.5 * 4))
    assert resonance(fp, 0.5, "N1") == 0.0


def test_resonance_direct_arithmetic():
    fp = FrequencyPoint(1.0, 0.0, 0.0, 0.0)   # xi1 = 1
    assert resonance(fp, 0.25, "N1") == pytest.approx(2.0)


def test_mu_values():
    assert mu(0.5) == pytest.approx(0.5)
    assert mu(1.0) == pytest.approx(0.0)
    assert mu(5.0) == pytest.approx(-1.0)
    with pytest.raises(BelowResonance):
        mu(0.25)


def test_mu_decreasing():
    a = np.linspace(0.5, 6.0, 200)
    vals = np.array([mu(ai) for ai in a])
    assert np.all(np.diff(vals) < 0)


def test_lower_bound_residual_examples():
    assert lower_bound_residual(FrequencyPoint(0.0, 0.0, 0.0, 0.0), 0.25) == 0.0
    fp = FrequencyPoint(3.0, 0.0, 1.0, 0.0)   # xi1 = 2... spec uses xi1 via xi-xi2
    # direct arithmetic of both sides at a = 1/4
    lhs = abs(3.0 ** 2 + 2.0 ** 2 - 0.25 * 1.0)
    rhs = 0.5 * (3.0 ** 2 + 2.0 ** 2)
    assert lower_bound_residual(fp, 0.25) == pytest.approx(lhs - rhs)
    with pytest.raises(ResonantA):
        lower_bound_residual(fp, 0.5)


@pytest.mark.parametrize("a", [0.1, 0.25, 0.4, 0.75, 1.0, 2.0, 5.0])
def test_lower_bound_random_sweep(a):
    rng = np.random.default_rng(42)
    fp = sample_quadruples(100_000, rng)
    res = lower_bound_residual(fp, a)
    tol = 1e-9 * (1.0 + fp.max_freq_sq())
    assert np.sum(res < -tol) == 0


def test_modulation_consistency_with_closed_forms():
    rng = np.random.default_rng(9)
    fp = sample_quadruples(10_000, rng)
    for a in (0.25, 0.5, 2.0):
        for fam in ("N1", "N2"):
            w, w1, w2 = modulations(fp, a, fam)
            direct = np.abs(w - w1 - w2)
            closed = resonance(fp, a, fam)
            scale = 1.0 + np.abs(closed)
            assert np.max(np.abs(direct - closed) / scale) < 1e-12


# --- regions ---

def test_region_small_xi2_is_one():
    fp = FrequencyPoint(4.0, -3.0, 0.5, 100.0)
    assert classify_region(fp, 0.25, "N1") == 1


def test_region_dominant_w_is_one():
    # spec example quadruple; with tau1 = tau - tau2 the modulations are
    # w = 100, w1 = 96, w2 = 1, so w dominates and region 1 results
    fp = FrequencyPoint(0.0, 100.0, 2.0, 0.0)
    assert classify_region(fp, 0.25, "N1") == 1


def test_resonant_scheme_always_region_one():
    rng = np.random.default_rng(1)
    fp = sample_quadruples(1000, rng)
    for family in ("N1", "N2"):
        assert np.all(classify_region(fp, 0.5, family) == 1)


# the ids name the scheme SCHEMES gives each (a, family)
@pytest.mark.parametrize("a,family", [pytest.param(0.25, "N1", id="0.25-R"),
                                      pytest.param(0.25, "N2", id="0.25-S"),
                                      pytest.param(2.0, "N1", id="2.0-A"),
                                      pytest.param(2.0, "N2", id="2.0-B"),
                                      pytest.param(0.5, "N1", id="0.5-RES")])
def test_region_cover_is_total(a, family):
    rng = np.random.default_rng(3)
    fp = sample_quadruples(1_000_000, rng)
    regions = classify_region(fp, a, family)
    assert regions.shape == (1_000_000,)
    assert np.all((regions >= 1) & (regions <= 3))


def test_region_two_and_three_reachable():
    rng = np.random.default_rng(5)
    fp = sample_quadruples(20_000, rng)
    for a, family in [(0.25, "N1"), (0.25, "N2"), (2.0, "N1"), (2.0, "N2")]:
        regions = classify_region(fp, a, family)
        assert set(np.unique(regions)) == {1, 2, 3}


# which modulation is maximal in regions 2 and 3 of each scheme, written out
# here rather than read from dispersion.MAXIMAL, which the 1-d J indicators
# and their oracle share
@pytest.mark.parametrize("a,family,region2,region3", [
    pytest.param(0.25, "N1", "w1", "w2", id="R"), pytest.param(0.25, "N2", "w2", "w1", id="S"),
    pytest.param(2.0, "N1", "w2", "w1", id="A"), pytest.param(2.0, "N2", "w2", "w1", id="B")])
def test_the_maximal_modulation_of_regions_2_and_3(a, family, region2, region3):
    fp = sample_quadruples(200_000, np.random.default_rng(39))
    regions = classify_region(fp, a, family)
    mods = dict(zip(("w", "w1", "w2"), (np.abs(m) for m in modulations(fp, a, family))))
    big = np.maximum(np.maximum(mods["w"], mods["w1"]), mods["w2"])
    for region, name in ((2, region2), (3, region3)):
        held = regions == region
        assert held.sum() > 100 and np.all(mods[name][held] == big[held])
        assert np.all(mods["w"][held] < big[held])


@pytest.mark.parametrize("family", ["N1", "N2"])
@pytest.mark.parametrize("a", [0.6, 0.75, 2.0])
def test_small_ball_edges_are_where_the_predicate_flips(a, family):
    # along random lines (xi, xi2) = (s y + o, s2 y + o2), a fine scan of
    # outside_small_ball flips in every step that holds a returned edge and
    # in no other step
    rng = np.random.default_rng(38)
    s, o, s2, o2 = rng.normal(0.0, 1.0, (4, 20))
    edges = small_ball_edges((s, o), (s2, o2), a, family)
    assert edges.shape == (20, 2)
    y = np.linspace(-30.0, 30.0, 60_001)
    out = outside_small_ball(s[:, None] * y + o[:, None], s2[:, None] * y + o2[:, None],
                             a, family)
    for row, flips in zip(edges, out[:, 1:] != out[:, :-1]):
        k = np.flatnonzero(flips)
        seen = row[np.abs(row) < 30.0]       # a NaN (no edge) compares False
        holds = (y[k, None] - 1e-9 <= seen) & (seen <= y[k + 1, None] + 1e-9)
        assert seen.size == k.size and holds.any(axis=0).all() and holds.any(axis=1).all()


# --- elementary integral lemmas ---

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


def test_gtv_equal_centers():
    lhs, rhs = integral_lemma_check("GTV", b1=0.4, b2=0.4, alpha=1.3, beta=1.3)
    assert rhs == pytest.approx(1.0)
    # oracle: direct quadrature of <y-alpha>^{-1.6}
    oracle = quad(lambda y: (1 + (y - 1.3) ** 2) ** -0.8, -np.inf, np.inf)[0]
    assert lhs == pytest.approx(oracle, rel=1e-8)


def test_gtv_shape_tracks_separation():
    sweep = []
    for beta in (1e2, 1e3, 1e4, 1e5):
        lhs, rhs = integral_lemma_check("GTV", b1=0.35, b2=0.35, alpha=0.0, beta=beta)
        sweep.append(lhs / rhs)
    sweep = np.asarray(sweep)
    # empirical constant stabilizes against the claimed separation shape
    steps = np.diff(sweep)
    assert np.all(steps[1:] < steps[:-1])
    assert abs(sweep[-1] - sweep[-2]) < 0.1 * sweep[-2]


def test_quadratic_lemma():
    lhs, rhs = integral_lemma_check("Quadratic", b=0.6, alpha0=0.0, alpha1=0.0)
    oracle = quad(lambda x: (1 + x ** 4) ** -0.6, -np.inf, np.inf)[0]
    assert rhs == 1.0
    assert lhs == pytest.approx(oracle, rel=1e-8)
    # uniformity: shifting the quadratic keeps lhs below its vertex-max shape
    worst = max(integral_lemma_check("Quadratic", b=0.6, alpha0=a0, alpha1=a1)[0]
                for a0 in (-30.0, 0.0, 30.0) for a1 in (-6.0, 0.0, 6.0))
    assert np.isfinite(worst)


def test_holmer_weighted_lemma():
    lhs, rhs = integral_lemma_check("HolmerWeighted", b=0.4, alpha=0.0, beta=10.0)
    assert rhs == pytest.approx(11.0 ** 0.4)
    assert np.isfinite(lhs) and lhs > 0
    # oracle: tanh-substituted Riemann sum away from the singularity split
    xs = np.linspace(-10.0, 10.0, 2_000_001)
    xs = 0.5 * (xs[1:] + xs[:-1])
    vals = (1 + xs ** 2) ** (-(4 * 0.4 - 1) / 2) / np.sqrt(np.abs(xs))
    oracle = np.sum(vals) * (xs[1] - xs[0])
    assert lhs == pytest.approx(oracle, rel=1e-3)


def test_lemma_domain_violations():
    with pytest.raises(ParamDomainViolated):
        integral_lemma_check("GTV", b1=0.6, b2=0.4, alpha=0.0, beta=1.0)
    with pytest.raises(ParamDomainViolated):
        integral_lemma_check("Quadratic", b=0.4, alpha0=0.0, alpha1=0.0)
    with pytest.raises(ParamDomainViolated):
        integral_lemma_check("HolmerWeighted", b=0.6, alpha=0.0, beta=1.0)
    with pytest.raises(ParamDomainViolated):
        integral_lemma_check("Unknown")
