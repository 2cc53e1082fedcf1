"""Stock data profiles used by tests and CLI experiments."""

from __future__ import annotations

import numpy as np

from .grids import SpaceTimeField
from .spectral import cutoff

BAND_MODES = 6      # |k|, |m| <= 6: 13 x 13 plane waves per field


def smooth_bump(t, lo: float, hi: float):
    """C-infinity bump supported exactly on (lo, hi), peak value 1."""
    t = np.asarray(t, dtype=float)
    s = (t - lo) / (hi - lo)
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    # exp(-1/(s(1-s))) normalized to 1 at the midpoint
    out[inside] = np.exp(4.0 - 1.0 / (si * (1.0 - si)))
    return out


def gaussian(x, center: float = 0.0, width: float = 1.0, amplitude: float = 1.0,
             wavenumber: float = 0.0):
    """Gaussian envelope with optional carrier wave."""
    x = np.asarray(x, dtype=float)
    env = amplitude * np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
    if wavenumber:
        return env * np.exp(1j * wavenumber * x)
    return env.astype(complex)


def sech(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / np.cosh(x)


def band_limited_pair(seed: int, nx: int, nt: int, lx: float, lt: float):
    """Two random band-limited fields on [-lx/2, lx/2) x [-lt/2, lt/2).

    Each field is cutoff(t, lt/6) * sum_{k,m} c_km exp(i(xi_k x + tau_m t))
    with xi_k = 2 pi k / lx, tau_m = 2 pi m / lt and |k|, |m| <= BAND_MODES;
    the coefficients of u, then of v, are complex normals drawn from
    default_rng(seed), so one seed gives the same fields on every grid.
    The sum is separable and is evaluated as Ex @ C @ Et^T.
    """
    rng = np.random.default_rng(seed)
    shape = (2 * BAND_MODES + 1, 2 * BAND_MODES + 1)
    cu = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cv = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    dx, dt = lx / nx, lt / nt
    x = -lx / 2 + dx * np.arange(nx)
    t = -lt / 2 + dt * np.arange(nt)
    k = np.arange(-BAND_MODES, BAND_MODES + 1)
    ex = np.exp(1j * (2 * np.pi * k / lx) * x[:, None])
    et = np.exp(1j * (2 * np.pi * k / lt) * t[:, None]) * cutoff(t, lt / 6.0)[:, None]
    return tuple(SpaceTimeField(x[0], dx, t[0], dt, ex @ c @ et.T) for c in (cu, cv))
