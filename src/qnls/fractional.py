"""Riemann-Liouville fractional integrals and derivatives on sampled signals.

For order alpha > 0 the operator is the convolution with t_+^{alpha-1}/Gamma(alpha),
discretized by product integration: the kernel is integrated exactly against the
piecewise-linear interpolant of the signal, which keeps accuracy near the
endpoint singularity of the kernel.  Orders alpha <= 0 are realized as numerical
time derivatives of a positive-order integral.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import fftconvolve

from .errors import OrderOutOfRange, UnsupportedSupport
from .grids import TimeSeries

#: relative tolerance on |f(t0)| below which a signal counts as vanishing at t0
SUPPORT_RTOL = 1e-8


def product_weights(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Convolution weights of the product-trapezoid rule for order alpha > 0.

    Returns (b, c): the integral at node k is
        h^alpha / Gamma(alpha+2) * (sum_j b[k-j] f[j] + c[k-1] f[0]),  k >= 1,
    where b holds the interior second-difference weights and c the endpoint
    correction for the first sample.
    """
    m = np.arange(1, n, dtype=float)
    b = np.empty(n)
    b[0] = 1.0
    b[1:] = (m + 1.0) ** (alpha + 1) - 2.0 * m ** (alpha + 1) + (m - 1.0) ** (alpha + 1)
    c = m ** alpha * (m + alpha + 1.0) - (m + 1.0) ** (alpha + 1)
    return b, c


def _integrate(samples: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """Product-trapezoid integral of order alpha along axis 0 of samples."""
    n = samples.shape[0]
    b, c = product_weights(alpha, n)
    col = (slice(None),) + (None,) * (samples.ndim - 1)
    out = fftconvolve(samples, b[col], axes=0)[:n]
    out[1:] += c[col] * samples[0]
    out[0] = 0.0
    return out * dt ** alpha / math.gamma(alpha + 2.0)


def rl_apply(f: TimeSeries, alpha: float) -> TimeSeries:
    """Apply the fractional integral of order alpha (derivative for alpha < 0).

    alpha = 0 is the identity.  For alpha < 0 the result is the k-fold
    numerical derivative of the order alpha+k integral, with k the smallest
    integer placing alpha+k in (0, 1]; this branch requires f(t0) = 0.
    """
    if alpha <= -2.0:
        raise OrderOutOfRange(f"alpha must exceed -2, got {alpha}")
    if alpha == 0.0:
        return f.copy()
    if alpha > 0.0:
        return TimeSeries(f.t0, f.dt, _integrate(f.samples, f.dt, alpha))

    sup = f.sup()
    if sup > 0 and abs(f.samples[0]) > SUPPORT_RTOL * sup:
        raise UnsupportedSupport(
            "differentiation branch needs f(t0) = 0; "
            f"got |f(t0)| = {abs(f.samples[0]):.3g} vs sup {sup:.3g}")
    k = math.ceil(-alpha)
    if alpha + k <= 0.0:
        k += 1
    y = _integrate(f.samples, f.dt, alpha + k)
    for _ in range(k):
        y = np.gradient(y, f.dt, edge_order=2)
    return TimeSeries(f.t0, f.dt, y)


def semigroup_residual(f: TimeSeries, alpha: float, beta: float) -> float:
    """Sup-norm defect of the composition law I_alpha I_beta = I_{alpha+beta}.

    Returns ||I_alpha(I_beta f) - I_{alpha+beta} f||_sup normalized by the
    sup of the direct evaluation.
    """
    composed = rl_apply(rl_apply(f, beta), alpha)
    direct = rl_apply(f, alpha + beta)
    num = float(np.max(np.abs(composed.samples - direct.samples)))
    den = direct.sup()
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den
