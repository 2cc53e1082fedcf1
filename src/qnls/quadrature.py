"""Panel-based adaptive quadrature for vectorized integrands.

Built for integrands mixing polynomial weights, bracket decay and indicator
edges: the caller seeds panels at known breakpoints (indicator roots, bracket
vertices), refinement bisects the panels carrying the error, and infinite
tails extend dyadically with a geometric remainder estimate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureNonConvergent

#: adaptive_panels budget: edges and bisection rounds
MAX_PANELS, MAX_ROUNDS = 4000, 60
#: integrate_with_tail: smallest first half-width, dyadic blocks beyond it
TAIL_START, MAX_DOUBLINGS = 8.0, 24


@lru_cache(maxsize=None)
def _gl(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def panel_sums(fvec, edges: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Legendre integral on each panel [edges[i], edges[i+1]].

    fvec maps the flat node array to one value per node, or to one row of
    values per integrand of a batch; the result then has one row of panel
    integrals per integrand.
    """
    pts, weights, half = _panel_nodes(edges, order)
    vals = fvec(pts.ravel())
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    return (vals @ weights) * half


def _panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes of each panel [edges[i], edges[i+1]].

    Returns (pts, weights, half): the nodes, shape (panels, order), the
    reference weights on [-1, 1] and the panel half-widths, so the rule on
    panel i is sum(weights * f(pts[i])) * half[i].
    """
    nodes, weights = _gl(order)
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    mid = lo + half
    return mid[:, None] + half[:, None] * nodes[None, :], weights, half


def adaptive_panels(fvec, lo: float, hi: float, breakpoints=(),
                    rel_tol: float = 1e-7):
    """Adaptively integrate fvec on [lo, hi], bisecting error-carrying panels.

    Raises QuadratureNonConvergent past MAX_PANELS edges or MAX_ROUNDS rounds.
    """
    if hi <= lo:
        return 0.0
    pts = [lo, hi] + [float(b) for b in np.atleast_1d(breakpoints)
                      if lo < b < hi]
    edges = np.unique(np.asarray(pts, dtype=float))
    for _ in range(MAX_ROUNDS):
        coarse = panel_sums(fvec, edges, 8)
        fine_mid = 0.5 * (edges[:-1] + edges[1:])
        split = np.sort(np.concatenate([edges, fine_mid]))
        fine = panel_sums(fvec, split, 8)
        fine_per_panel = fine[0::2] + fine[1::2]
        err = np.abs(fine_per_panel - coarse)
        total = np.sum(fine_per_panel)
        if np.sum(err) <= rel_tol * abs(total):
            return complex(total) if np.iscomplexobj(fine) else float(total)
        if edges.size > MAX_PANELS:
            break
        # bisect the panels holding the top share of the error
        order = np.argsort(err)[::-1]
        cum = np.cumsum(err[order])
        keep = order[:np.searchsorted(cum, 0.95 * cum[-1]) + 1]
        new_edges = fine_mid[keep]
        edges = np.sort(np.concatenate([edges, new_edges]))
    raise QuadratureNonConvergent(
        f"error {np.sum(err):.3g} on [{lo:.6g}, {hi:.6g}] after {edges.size} edges")


def integrate_with_tail(fvec, breakpoints=(), window: float | None = None,
                        rel_tol: float = 1e-6):
    """Integrate fvec over the real line (or |y| <= window).

    Returns (value, tail_estimate).  Without a window the domain grows in
    dyadic blocks; once the block ratio stabilizes below 1, the (exact for
    power laws) geometric completion finishes the tail and the ratio drift
    bounds the remainder.  A non-shrinking block sequence raises
    QuadratureNonConvergent.
    """
    bre = np.atleast_1d(breakpoints) if len(np.atleast_1d(breakpoints)) else np.array([0.0])
    x0 = max(TAIL_START, 2.0 * float(np.max(np.abs(bre))) + 1.0)
    if window is not None and window < x0:
        value = adaptive_panels(fvec, -window, window, breakpoints, rel_tol)
        tail = tail_probe(fvec, window)
        return value, tail
    value = adaptive_panels(fvec, -x0, x0, breakpoints, rel_tol)
    scale = abs(value)
    blocks = []
    x = x0
    for _ in range(MAX_DOUBLINGS):
        if window is not None and x >= window:
            return value, tail_probe(fvec, window)
        nxt = 2.0 * x if window is None else min(2.0 * x, window)
        block = (adaptive_panels(fvec, x, nxt, (), rel_tol)
                 + adaptive_panels(fvec, -nxt, -x, (), rel_tol))
        value += block
        scale = max(scale, abs(value))
        if abs(block) <= 0.5 * rel_tol * max(scale, 1e-300):
            return value, abs(block)
        blocks.append(block)
        if len(blocks) >= 3:
            r1 = abs(blocks[-1]) / max(abs(blocks[-2]), 1e-300)
            r0 = abs(blocks[-2]) / max(abs(blocks[-3]), 1e-300)
            if window is None and r1 >= 1.0 and r0 >= 1.0:
                raise QuadratureNonConvergent(
                    f"blocks not decaying (ratio {r1:.3f}) beyond |y| = {x:.3g}")
            if r1 < 0.98 and abs(r1 - r0) < 0.1 * (1.0 - r1):
                geo = block * r1 / (1.0 - r1)
                value += geo
                drift = abs(geo) * abs(r1 - r0) / (1.0 - r1)
                return value, max(drift, rel_tol * abs(block))
        x = nxt
    if window is not None:
        return value, tail_probe(fvec, window)
    raise QuadratureNonConvergent(
        f"no stable block decay out to |y| = {x:.3g}")


def tail_probe(fvec, window: float) -> float:
    """Crude one-octave power-law estimate of the mass beyond the window."""
    ys = np.array([window * 1.01, window * 2.0, -window * 1.01, -window * 2.0])
    v = np.abs(fvec(ys))
    est = 0.0
    for inner, outer in ((v[0], v[1]), (v[2], v[3])):
        if inner <= 0.0:
            continue
        if outer >= inner:      # not decaying: report one octave of mass
            est += inner * window
            continue
        p = np.log2(inner / max(outer, 1e-300))   # local decay exponent
        if p <= 1.0:
            est += inner * window
        else:
            est += inner * window / (p - 1.0)
    return est
