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
from scipy.integrate import cumulative_trapezoid

from .errors import AliasRisk, NonPositiveA, ParamOrderViolated
from .grids import GridFunction, SpaceTimeField

#: fraction of L^2 energy tolerated within 1% of the Nyquist band
ALIAS_ENERGY_TOL = 1e-6
#: smoothing_ratio's time grid: SMOOTHING_NT samples on
#: [-SMOOTHING_T_HALF, SMOOTHING_T_HALF), beyond the cutoff's support
SMOOTHING_T_HALF = 4.0
SMOOTHING_NT = 512


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
    return np.sqrt(1.0 + z * z)


def _xi_grid(n: int, dx: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=dx)


def linear_group(phi: GridFunction, a: float, t: float) -> GridFunction:
    """Evolve phi by the free group at dispersion a for time t."""
    phi_hat = np.fft.fft(phi.samples)
    total = np.sum(np.abs(phi_hat) ** 2)
    if total > 0:
        near_nyquist = np.abs(_xi_grid(phi.n, phi.dx)) >= 0.99 * np.pi / phi.dx
        frac = np.sum(np.abs(phi_hat[near_nyquist]) ** 2) / total
        if frac > ALIAS_ENERGY_TOL:
            raise AliasRisk(
                f"{frac:.2e} of the energy sits within 1% of Nyquist")
    return GridFunction(phi.x0, phi.dx, group_field(phi, a, np.array([t]))[:, 0])


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
    if a <= 0:
        raise NonPositiveA(f"a must be positive, got {a}")
    if F.t0 != 0.0:
        raise ValueError("duhamel requires the time grid to start at t0=0")
    xi = _xi_grid(F.nx, F.dx)
    ts = F.t
    F_hat = np.fft.fft(F.samples, axis=0)
    phase = np.exp(1j * a * np.outer(xi ** 2, ts))
    running = cumulative_trapezoid(F_hat * phase, dx=F.dt, axis=1, initial=0.0)
    out = np.fft.ifft(np.conj(phase) * running, axis=0)
    return SpaceTimeField(F.x0, F.dx, F.t0, F.dt, out)


def bourgain_norm(u: SpaceTimeField, p: BourgainParams) -> float:
    """Discrete Bourgain-type norm of a spacetime field."""
    xi = _xi_grid(u.nx, u.dx)[:, None]
    tau = _xi_grid(u.nt, u.dt)[None, :]
    u_hat = np.fft.fft2(u.samples)
    if not np.all(np.isfinite(u_hat)):
        raise ValueError("field transform is not finite")
    measure = u.dx * u.dt / (u.nx * u.nt)
    if p.family == "X":
        w2 = _bracket(xi) ** (2.0 * p.s) * _bracket(tau + p.a * xi ** 2) ** (2.0 * p.b)
    else:
        w2 = _bracket(tau) ** (p.s / 2.0) * _bracket(tau - p.a * xi ** 2) ** (2.0 * p.b)
    return float(np.sqrt(np.sum(w2 * np.abs(u_hat) ** 2) * measure))


def sobolev_norm_1d(samples: np.ndarray, step: float, r: float):
    """Discrete H^r norm of uniformly sampled signals via Fourier weights.

    The signal runs along the last axis: a 1-d input gives a float, an
    (m, n) input one norm per row.
    """
    n = samples.shape[-1]
    freq = 2.0 * np.pi * np.fft.fftfreq(n, d=step)
    hat = np.fft.fft(samples, axis=-1)
    w2 = _bracket(freq) ** (2.0 * r)
    norms = np.sqrt(np.sum(w2 * np.abs(hat) ** 2, axis=-1) * step / n)
    return float(norms) if norms.ndim == 0 else norms


def smoothing_ratio(phi: GridFunction, s: float, a: float) -> float:
    """Empirical constant of the local smoothing trace estimate.

    sup over grid x of the discrete H^{(2s+1)/4} time norm of the cutoff
    free evolution, divided by the discrete H^s norm of phi.
    """
    if a <= 0:
        raise NonPositiveA(f"a must be positive, got {a}")
    den = sobolev_norm_1d(phi.samples, phi.dx, s)
    if den == 0.0:
        return 0.0
    dt = 2.0 * SMOOTHING_T_HALF / SMOOTHING_NT
    ts = -SMOOTHING_T_HALF + dt * np.arange(SMOOTHING_NT)
    field = group_field(phi, a, ts) * cutoff(ts)[None, :]
    norms = sobolev_norm_1d(field, dt, (2.0 * s + 1.0) / 4.0)
    return float(np.max(norms)) / den


def inhomog_estimate_ratio(F: SpaceTimeField, s: float, b: float, bp: float,
                           a: float, T: float) -> float:
    """Empirical constant of the inhomogeneous X-norm Duhamel estimate.

    ||psi_T * duhamel(F)||_{X^{s,b}} / (T^{1+bp-b} ||F||_{X^{s,bp}}).
    """
    if not (-0.5 < bp <= 0.0 <= b <= bp + 1.0):
        raise ParamOrderViolated(f"need -1/2 < bp <= 0 <= b <= bp+1, got b={b}, bp={bp}")
    if not (0.0 < T <= 1.0):
        raise ParamOrderViolated(f"need 0 < T <= 1, got {T}")
    den = bourgain_norm(F, BourgainParams(s, bp, a))
    if den == 0.0:
        return 0.0
    out = duhamel(F, a)
    out.samples *= cutoff(out.t, T)[None, :]
    num = bourgain_norm(out, BourgainParams(s, b, a))
    return num / (T ** (1.0 + bp - b) * den)
