import numpy as np
import pytest

from qnls.errors import QuadratureNonConvergent
from qnls.quadrature import adaptive_panels, panel_sums, tail_probe


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


def test_adaptive_rule_keeps_the_imaginary_part():
    got = adaptive_panels(lambda y: np.exp(1j * y), 0.0, np.pi)
    assert isinstance(got, complex)
    assert got == pytest.approx(2j, abs=1e-12)


def test_adaptive_rule_raises_past_its_panel_budget():
    # the value is ~0.0627+0.0627i; a rule that stops at its budget and
    # returns the running sum gives 0.454-0.336i here
    with pytest.raises(QuadratureNonConvergent):
        adaptive_panels(lambda y: np.exp(400j * y * y), -50.0, 50.0)
