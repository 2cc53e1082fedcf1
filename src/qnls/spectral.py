"""Full-line Schrodinger group, Duhamel integral, Bourgain norms, cutoffs.

Conventions.  The group at dispersion a acts as the Fourier multiplier
exp(-i a t xi^2), so a plane wave exp(i xi0 x) evolves to
exp(-i a t xi0^2) exp(i xi0 x) and the free surface is tau = -a xi^2.
Discrete norms are normalized so that unit weights reproduce the grid
L^2 norm exactly (Parseval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteNorm, NonPositiveA
from .grids import GridFunction, SpaceTimeField


def cutoff(t, scale: float = 1.0):
    """Smooth cutoff: 1 on |t| <= scale, 0 on |t| >= 2*scale.

    The transition is the classical exp(-1/t) smoothstep, so the function is
    C-infinity, monotone on the shoulders, and takes values in [0, 1].
    """
    s = np.abs(np.asarray(t, dtype=float)) / scale
    out = np.ones_like(s)
    out[s >= 2.0] = 0.0
    mid = (s > 1.0) & (s < 2.0)
    r = 2.0 - s[mid]            # in (0, 1); 1 at the plateau edge
    h_r = np.exp(-1.0 / r)
    h_1mr = np.exp(-1.0 / (1.0 - r))
    out[mid] = h_r / (h_r + h_1mr)
    return out


@dataclass
class BourgainParams:
    """Weight parameters for the discrete Bourgain-type norms.

    family "X": L^2 of <xi>^s <tau + a*xi^2>^b |u_hat|.
    family "W": sqrt of the integral of <tau>^(s/2) <tau - a*xi^2>^(2b) |u_hat|^2;
    the s/2 power sits inside the squared integrand and the bracket sign
    differs from X, both deliberately.
    """

    s: float
    b: float
    a: float
    family: str = "X"

    def __post_init__(self):
        if self.a <= 0:
            raise NonPositiveA(f"a must be positive, got {self.a}")
        if self.family not in ("X", "W"):
            raise ValueError(f"unknown norm family {self.family!r}")


def _bracket(z):
    """<z> = sqrt(1 + z^2), exact past the overflow of z*z (|z| > ~1.3e154).

    There it is |z|: from |z| ~ 1e8 on, sqrt(1 + z*z) already rounds to |z|.
    """
    with np.errstate(over="ignore"):
        out = np.sqrt(1.0 + z * z)
    over = np.isinf(out)
    # [()] returns a scalar for a scalar z
    return np.where(over, np.abs(z), out)[()] if over.any() else out


def _xi_grid(n: int, dx: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=dx)


def group_field(phi: GridFunction, a: float, ts: np.ndarray) -> np.ndarray:
    """Free evolution of phi sampled at all times in ts, shape (nx, nt)."""
    if a <= 0:
        raise NonPositiveA(f"a must be positive, got {a}")
    xi = _xi_grid(phi.n, phi.dx)
    phi_hat = np.fft.fft(phi.samples)
    phases = np.exp(-1j * a * np.outer(xi ** 2, np.asarray(ts, dtype=float)))
    return np.fft.ifft(phases * phi_hat[:, None], axis=0)


def duhamel(F: SpaceTimeField, a: float) -> SpaceTimeField:
    """Retarded Duhamel integral of F under the group at dispersion a.

    Output at time t_j is the trapezoid-in-t' integral over [0, t_j] of the
    group applied to the time slices; the slice at t=0 is exactly zero.
    Computed in Fourier space: one phase conjugation turns the time integral
    into a cumulative trapezoid per frequency.
    """
    if F.t0 != 0.0:
        raise ValueError("duhamel requires the time grid to start at t0=0")
    xi = _xi_grid(F.nx, F.dx)
    ts = F.t
    F_hat = np.fft.fft(F.samples, axis=0)
    phase = np.exp(1j * a * np.outer(xi ** 2, ts))
    g = F_hat * phase
    # the cumulative trapezoid along t, in scipy.integrate.cumulative_trapezoid's order
    running = np.zeros_like(g)
    running[:, 1:] = np.cumsum(F.dt * (g[:, 1:] + g[:, :-1]) / 2.0, axis=1)
    out = np.fft.ifft(np.conj(phase) * running, axis=0)
    return SpaceTimeField(F.x0, F.dx, F.t0, F.dt, out)


def bourgain_norm(u: SpaceTimeField, p: BourgainParams) -> float:
    """Discrete Bourgain-type norm of a spacetime field."""
    xi = _xi_grid(u.nx, u.dx)[:, None]
    tau = _xi_grid(u.nt, u.dt)[None, :]
    measure = u.dx * u.dt / (u.nx * u.nt)
    # a transform or weight past the float range is inf, and inf * 0 is NaN;
    # every weight is >= 0, so either makes the norm non-finite, which the
    # check below names
    with np.errstate(over="ignore", invalid="ignore"):
        u_hat = np.fft.fft2(u.samples)
        if p.family == "X":
            w2 = _bracket(xi) ** (2.0 * p.s) * _bracket(tau + p.a * xi ** 2) ** (2.0 * p.b)
        else:
            w2 = _bracket(tau) ** (p.s / 2.0) * _bracket(tau - p.a * xi ** 2) ** (2.0 * p.b)
        norm = float(np.sqrt(np.sum(w2 * np.abs(u_hat) ** 2) * measure))
    if not np.isfinite(norm):
        what = "weighted sum" if np.all(np.isfinite(u_hat)) else "field transform"
        raise NonFiniteNorm(f"the {p.family} norm at (s, b, a) = ({p.s}, {p.b}, {p.a}): "
                            f"the {what} is not finite")
    return norm


def sobolev_norm_1d(samples: np.ndarray, step: float, r: float):
    """Discrete H^r norm of uniformly sampled signals via Fourier weights.

    The signal runs along the last axis: a 1-d input gives a float, an
    (m, n) input one norm per row.
    """
    n = samples.shape[-1]
    hat = np.fft.fft(samples, axis=-1)
    w2 = _bracket(_xi_grid(n, step)) ** (2.0 * r)
    norms = np.sqrt(np.sum(w2 * np.abs(hat) ** 2, axis=-1) * step / n)
    return float(norms) if norms.ndim == 0 else norms
