"""Half-line IBVP solver, mass ledger, contraction map, regularity predicates.

The coupled system

    i u_t + u_xx + conj(u) v = F1,    i v_t + a v_xx + u^2 = F2

is advanced on [0, L] by Crank-Nicolson in the linear parts with the
quadratic couplings evaluated at the time midpoint through a per-step
fixed-point loop.  The linear half is a Cayley transform, so with
homogeneous boundary data the discrete mass is conserved up to the
fixed-point residual.  Dirichlet data enter at x = 0, a homogeneous
Dirichlet wall sits at x = L (validity requires the solution to stay away
from it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from . import boundary, spectral
from .errors import (BlowUpDetected, CompatibilityViolation, DivergentIteration,
                     EmptyLedger, NonConvergentNonlinearIteration)
from .grids import GridFunction, SpaceTimeField, TimeSeries
from .profiles import sech

COMPAT_RTOL = 1e-6


@dataclass
class SolverConfig:
    L: float
    nx: int
    dt: float
    T: float
    a: float
    nonlinearity_iters: int = 2

    def __post_init__(self):
        if min(self.L, self.nx, self.dt, self.T, self.a) <= 0:
            raise ValueError("L, nx, dt, T, a must be positive")
        if self.dt > min(0.1, self.T):
            raise ValueError("dt above 0.1 is not accepted (accuracy guard), nor above T")
        if self.nx < 3:
            raise ValueError("nx must be at least 3 (one-sided boundary stencil)")


@dataclass
class State:
    u: GridFunction
    v: GridFunction
    t: float


@dataclass
class MassLedger:
    """Samples of the mass functional and its boundary-flux integrals."""

    times: np.ndarray
    mass: np.ndarray
    flux_u: np.ndarray
    flux_v: np.ndarray
    residual: np.ndarray
    a: float

    def to_csv(self, path) -> None:
        data = np.column_stack([self.times, self.mass, self.flux_u,
                                self.flux_v, self.residual])
        header = "t,M,flux_u,flux_v,residual"
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")


def mass_identity_residual(ledger: MassLedger) -> float:
    """Sup over time of the mass-identity defect, relative to the initial mass."""
    if ledger.times.size == 0:
        raise EmptyLedger("ledger holds no samples")
    m0 = ledger.mass[0]
    defect = np.max(np.abs(ledger.residual))
    if m0 == 0.0:
        return 0.0 if defect == 0.0 else float("inf")
    return float(defect / m0)


def default_manufactured(a: float) -> dict:
    """Exact solution pair (e^{it} sech x, e^{2it} sech x) with its sources."""
    def u_exact(x, t):
        return np.exp(1j * t) * sech(x)

    def v_exact(x, t):
        return np.exp(2j * t) * sech(x)

    def F1(x, t):
        # i u_t + u_xx + conj(u) v for the pair above
        s = sech(x)
        return np.exp(1j * t) * (s ** 2 - 2.0 * s ** 3)

    def F2(x, t):
        s = sech(x)
        return np.exp(2j * t) * ((a - 2.0) * s - 2.0 * a * s ** 3 + s ** 2)

    return {"u": u_exact, "v": v_exact, "F1": F1, "F2": F2}


def _banded(nx: int, theta: complex) -> np.ndarray:
    """Banded form of I - theta*T on the interior (T = second difference)."""
    n = nx - 2
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = -theta
    ab[1, :] = 1.0 + 2.0 * theta
    ab[2, :-1] = -theta
    return ab


def _boundary_deriv(w: np.ndarray, h: float) -> complex:
    """Second-order one-sided d/dx at the left endpoint."""
    return (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * h)


def simulate(cfg: SolverConfig, u0: GridFunction, v0: GridFunction,
             f: TimeSeries, g: TimeSeries, kappa: float = 0.0, s: float = 0.0,
             sources=None, snapshot_stride: int = 1):
    """Advance the coupled system; returns (trajectory, mass ledger).

    `sources` is None or a pair (F1, F2) of callables of (x, t), e.g. the
    sources of `default_manufactured`.
    """
    if not compatibility_check(u0, f, kappa, v0, g, s):
        raise CompatibilityViolation(
            "endpoint data mismatch for the declared regularity class")

    nx = cfg.nx
    h = cfg.L / (nx - 1)
    x = h * np.arange(nx)
    n_steps = int(round(cfg.T / cfg.dt))
    dt = cfg.dt
    theta_u = 1j * dt / (2.0 * h * h)
    theta_v = cfg.a * theta_u
    ab_u = _banded(nx, theta_u)
    ab_v = _banded(nx, theta_v)

    u = np.interp(x, u0.x, u0.samples.real) + 1j * np.interp(x, u0.x, u0.samples.imag)
    v = np.interp(x, v0.x, v0.samples.real) + 1j * np.interp(x, v0.x, v0.samples.imag)
    u[0], v[0] = f(0.0), g(0.0)
    u[-1] = v[-1] = 0.0

    scale0 = u0.l2() + v0.l2() + f.sup() + g.sup()
    trap = np.ones(nx)
    trap[0] = trap[-1] = 0.5

    def mass(uu, vv):
        return float(np.sum(trap * (np.abs(uu) ** 2 + np.abs(vv) ** 2)) * h)

    times = np.empty(n_steps + 1)
    masses = np.empty(n_steps + 1)
    flux_u = np.empty(n_steps + 1)
    flux_v = np.empty(n_steps + 1)
    residual = np.empty(n_steps + 1)
    times[0], masses[0] = 0.0, mass(u, v)
    flux_u[0] = flux_v[0] = residual[0] = 0.0

    def flux_density(uu, vv):
        # d/dt ||u||^2 = 2 Re <u_t, u> puts a factor 2 on each boundary flux;
        # without it the identity residual stalls at flux size under refinement
        return (2.0 * np.imag(np.conj(uu[0]) * _boundary_deriv(uu, h)),
                2.0 * np.imag(np.conj(vv[0]) * _boundary_deriv(vv, h)))

    phi_u_prev, phi_v_prev = flux_density(u, v)
    states = [State(GridFunction(0.0, h, u.copy()), GridFunction(0.0, h, v.copy()), 0.0)]

    for n in range(n_steps):
        t_now = n * dt
        t_next = t_now + dt
        t_mid = t_now + 0.5 * dt
        if sources is not None:
            F1_mid = sources[0](x, t_mid)
            F2_mid = sources[1](x, t_mid)
        else:
            F1_mid = F2_mid = 0.0
        lin_u = u + theta_u * (np.roll(u, -1) - 2 * u + np.roll(u, 1))
        lin_v = v + theta_v * (np.roll(v, -1) - 2 * v + np.roll(v, 1))

        u_new, v_new = u.copy(), v.copy()
        gap_first = gap = None
        for sweep in range(cfg.nonlinearity_iters):
            u_mid = 0.5 * (u + u_new)
            v_mid = 0.5 * (v + v_new)
            n1 = np.conj(u_mid) * v_mid - F1_mid
            n2 = u_mid * u_mid - F2_mid
            rhs_u = (lin_u + 1j * dt * n1)[1:-1]
            rhs_v = (lin_v + 1j * dt * n2)[1:-1]
            rhs_u[0] += theta_u * f(t_next)
            rhs_v[0] += theta_v * g(t_next)
            sol_u = solve_banded((1, 1), ab_u, rhs_u)
            sol_v = solve_banded((1, 1), ab_v, rhs_v)
            prev_u, prev_v = u_new.copy(), v_new.copy()
            u_new[1:-1], v_new[1:-1] = sol_u, sol_v
            u_new[0], v_new[0] = f(t_next), g(t_next)
            u_new[-1] = v_new[-1] = 0.0
            gap = float(np.max(np.abs(u_new - prev_u)) + np.max(np.abs(v_new - prev_v)))
            if gap_first is None:
                gap_first = gap
        if gap_first is not None and gap > 10.0 * gap_first and gap > 1e-10 * max(scale0, 1e-300):
            raise NonConvergentNonlinearIteration(
                f"fixed-point gap grew from {gap_first:.3g} to {gap:.3g} at t={t_now:.4g}")

        u, v = u_new, v_new
        m_now = mass(u, v)
        if not np.isfinite(m_now) or math.sqrt(m_now) > 1e6 * max(scale0, 1e-30):
            raise BlowUpDetected(f"norm exceeded 1e6 x initial scale at t={t_next:.4g}")
        phi_u, phi_v = flux_density(u, v)
        k = n + 1
        times[k] = t_next
        masses[k] = m_now
        flux_u[k] = flux_u[k - 1] + 0.5 * dt * (phi_u_prev + phi_u)
        flux_v[k] = flux_v[k - 1] + 0.5 * dt * (phi_v_prev + phi_v)
        residual[k] = masses[k] - masses[0] - flux_u[k] - cfg.a * flux_v[k]
        phi_u_prev, phi_v_prev = phi_u, phi_v
        if k % snapshot_stride == 0 or k == n_steps:
            states.append(State(GridFunction(0.0, h, u.copy()),
                                GridFunction(0.0, h, v.copy()), t_next))

    ledger = MassLedger(times, masses, flux_u, flux_v, residual, cfg.a)
    return states, ledger


def regularity_region(kappa: float, s: float, a: float):
    """Admissibility of a Sobolev index pair, with the binding inequalities.

    Returns (admissible, constraints): when inadmissible the list holds the
    violated inequalities; when admissible it holds those met with equality.
    """
    checks = []
    if a > 0.5:
        checks.append((abs(kappa) - 0.5 <= s, "|kappa|-1/2 <= s"))
        checks.append((s < min(kappa + 0.5, 2 * kappa + 0.5, 1.0),
                       "s < min(kappa+1/2, 2kappa+1/2, 1)"))
        checks.append((kappa < 1.0, "kappa < 1"))
    elif a == 0.5:
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
    if a > 0.5 and abs(kappa) - 0.5 == s:
        binding.append("|kappa|-1/2 = s")
    if a < 0.5 and max(-0.5, abs(kappa) - 1.0) == s:
        binding.append("max(-1/2, |kappa|-1) = s")
    if a == 0.5 and kappa == 0.0:
        binding.append("kappa = 0")
    return True, binding


def compatibility_check(u0: GridFunction, f: TimeSeries, kappa: float,
                        v0: GridFunction | None = None,
                        g: TimeSeries | None = None,
                        s: float | None = None) -> bool:
    """Endpoint matching u0(0)=f(0) above kappa=1/2 (and v0(0)=g(0) above s=1/2)."""
    def matches(w0, h):
        scale = max(float(np.max(np.abs(w0.samples))), h.sup())
        if scale == 0.0:
            return True
        return abs(w0.samples[0] - h.samples[0]) <= COMPAT_RTOL * scale

    ok = True
    if kappa > 0.5:
        ok = ok and matches(u0, f)
    if v0 is not None and g is not None and s is not None and s > 0.5:
        ok = ok and matches(v0, g)
    return ok


@dataclass
class ContractionResult:
    distances: list
    u: SpaceTimeField
    v: SpaceTimeField
    iterations: int


def contraction_iterate(cfg: SolverConfig, u0: GridFunction, v0: GridFunction,
                        f: TimeSeries, g: TimeSeries, lambda1: float,
                        lambda2: float, k_iters: int, nx: int = 256,
                        nt: int = 64, t_span: float | None = None) -> ContractionResult:
    """Fixed-point iteration of the boundary-forced Duhamel map on the line.

    Initial data extend by zero to x < 0; the boundary correction feeds the
    measured trace mismatch through the forcing operator class, with the
    prefactor chosen to cancel the operator's own trace factor
    a^(lambda/2) e^(i lambda pi/4).  Iterates start from zero; returns the
    grid-norm distances between consecutive iterates.
    """
    if t_span is None:
        t_span = max(4.0 * cfg.T, 32 * cfg.dt)
    dx = 2.0 * cfg.L / nx
    xs = -cfg.L + dx * np.arange(nx)
    dtc = t_span / nt
    ts = dtc * np.arange(nt)

    def extend(w: GridFunction) -> np.ndarray:
        out = np.interp(xs, w.x, w.samples.real) + 1j * np.interp(xs, w.x, w.samples.imag)
        out[xs < 0.0] = 0.0
        return out

    u0_ext = GridFunction(xs[0], dx, extend(u0))
    v0_ext = GridFunction(xs[0], dx, extend(v0))
    psi = spectral.cutoff(ts)
    psi_T = spectral.cutoff(ts, cfg.T)
    free_u = spectral.group_field(u0_ext, 1.0, ts)
    free_v = spectral.group_field(v0_ext, cfg.a, ts)
    f_ext = f(ts)
    g_ext = g(ts)
    i0 = int(np.argmin(np.abs(xs)))      # column at x = 0

    def boundary_term(h_samples: np.ndarray, a: float, lam: float) -> np.ndarray:
        h_samples = h_samples.copy()
        h_samples[0] = 0.0               # restriction to t > 0
        series = TimeSeries(0.0, dtc, h_samples)
        if series.sup() == 0.0:
            return np.zeros((nx, nt), dtype=complex)
        spec = boundary.ForcingSpec(a, lam, series)
        pref = np.exp(-0.25j * np.pi * lam) / a ** (lam / 2.0)
        return pref * boundary.forcing_field(spec, xs, ts)

    U = np.zeros((nx, nt), dtype=complex)
    V = np.zeros((nx, nt), dtype=complex)
    distances = []
    grew = 0
    for it in range(k_iters):
        N1 = psi_T[None, :] * np.conj(U) * V
        N2 = psi_T[None, :] * U * U
        S1 = spectral.duhamel(SpaceTimeField(xs[0], dx, 0.0, dtc, N1), 1.0).samples
        S2 = spectral.duhamel(SpaceTimeField(xs[0], dx, 0.0, dtc, N2), cfg.a).samples
        h1 = psi * (f_ext - free_u[i0, :] - 1j * S1[i0, :])
        h2 = psi * (g_ext - free_v[i0, :] - 1j * S2[i0, :])
        B1 = boundary_term(h1, 1.0, lambda1)
        B2 = boundary_term(h2, cfg.a, lambda2)
        U_new = psi[None, :] * (free_u + 1j * S1 + B1)
        V_new = psi[None, :] * (free_v + 1j * S2 + B2)
        d = (np.sqrt(np.sum(np.abs(U_new - U) ** 2) * dx * dtc)
             + np.sqrt(np.sum(np.abs(V_new - V) ** 2) * dx * dtc))
        distances.append(float(d))
        if len(distances) >= 2 and distances[-1] > distances[-2]:
            grew += 1
            if grew >= 3:
                raise DivergentIteration(
                    f"iterate distances increasing: {distances[-4:]}")
        else:
            grew = 0
        U, V = U_new, V_new
    return ContractionResult(distances,
                             SpaceTimeField(xs[0], dx, 0.0, dtc, U),
                             SpaceTimeField(xs[0], dx, 0.0, dtc, V),
                             k_iters)
