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
from scipy.linalg.lapack import zgttrf, zgttrs

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
        for name in ("nx", "nonlinearity_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if min(self.L, self.nx, self.dt, self.T, self.a) <= 0:
            raise ValueError("L, nx, dt, T, a must be positive")
        if self.dt > min(0.1, self.T):
            raise ValueError("dt above 0.1 is not accepted (accuracy guard), nor above T")
        if self.nx < 3:
            raise ValueError("nx must be at least 3 (one-sided boundary stencil)")
        if self.nx < 5:
            raise ValueError("nx must be at least 5 (the tridiagonal factorisation "
                             "needs 3 interior points)")
        if self.nonlinearity_iters < 1:
            raise ValueError("nonlinearity_iters must be at least 1 (with none, "
                             "no step imposes the boundary datum)")


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


def _cayley_solver(nx: int, theta: complex):
    """solve(b) = (I - theta*T)^{-1} b on the interior (T = second difference).

    The matrix is factored once (LAPACK zgttrf) and each solve only
    substitutes (zgttrs): the elimination and back-substitution arithmetic of
    zgtsv, which `scipy.linalg.solve_banded` runs per call.  For imaginary
    theta, |1 + 2 theta| > 2 |theta|: the matrix is strictly diagonally
    dominant, so no row is pivoted.  `solve` overwrites b.
    """
    n = nx - 2
    off = np.full(n - 1, -theta)
    factors = zgttrf(off, np.full(n, 1.0 + 2.0 * theta), off)[:5]

    def solve(b: np.ndarray) -> np.ndarray:
        return zgttrs(*factors, b, overwrite_b=1)[0]
    return solve


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
    solve_u = _cayley_solver(nx, theta_u)
    solve_v = _cayley_solver(nx, theta_v)

    u = np.interp(x, u0.x, u0.samples.real) + 1j * np.interp(x, u0.x, u0.samples.imag)
    v = np.interp(x, v0.x, v0.samples.real) + 1j * np.interp(x, v0.x, v0.samples.imag)
    u[0], v[0] = f(0.0), g(0.0)
    u[-1] = v[-1] = 0.0

    scale0 = u0.l2() + v0.l2() + f.sup() + g.sup()
    # The loop's own t_next = n*dt + dt, and np.interp works point by point,
    # so one call per run gives the values of one call per step.
    t_next_all = np.arange(n_steps) * dt + dt
    f_all, g_all = f(t_next_all), g(t_next_all)

    # One step writes only into these buffers: the next state (its x = L
    # entry stays 0), and per field the interior lin, mid and rhs terms.
    u_new, v_new = np.zeros(nx, dtype=complex), np.zeros(nx, dtype=complex)
    lin_u, lin_v, mid_u, mid_v, rhs_u, rhs_v = np.empty((6, nx - 2), dtype=complex)
    dev = np.empty(nx - 2)
    finite = np.empty(2 * (nx - 2), dtype=bool)
    dens, dens_v = np.empty((2, nx))
    idt = 1j * dt

    def mass(uu, vv):
        # trapezoid rule: halving the end densities is exact, as is the
        # product by 1 everywhere else
        np.square(np.abs(uu, out=dens), out=dens)
        np.add(dens, np.square(np.abs(vv, out=dens_v), out=dens_v), out=dens)
        dens[0] *= 0.5
        dens[-1] *= 0.5
        return float(np.sum(dens) * h)

    def cn_lin(w, theta, out):
        # w[1:-1] + theta * (w[2:] - 2 * w[1:-1] + w[:-2]), into out
        np.multiply(2, w[1:-1], out=out)
        np.subtract(w[2:], out, out=out)
        np.add(out, w[:-2], out=out)
        np.multiply(theta, out, out=out)
        np.add(w[1:-1], out, out=out)

    def finite_rhs(rhs):
        return np.isfinite(rhs.view(float), out=finite).all()

    def sweep_gap(sol, prev, edge):
        # max |w_new - w_prev| over the grid: the interior before the
        # assignment, the datum at x = 0, and 0 at x = L; mid_u is spent
        np.abs(np.subtract(sol, prev[1:-1], out=mid_u), out=dev)
        return max(dev.max(), abs(edge - prev[0]))

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
        if sources is not None:
            t_mid = t_now + 0.5 * dt
            F1_mid = sources[0](x, t_mid)[1:-1]
            F2_mid = sources[1](x, t_mid)[1:-1]
        f_next, g_next = f_all[n], g_all[n]
        cn_lin(u, theta_u, lin_u)
        cn_lin(v, theta_v, lin_v)

        # the first sweep's iterate is the current state itself
        prev_u, prev_v = u, v
        gap_first = None
        for sweep in range(cfg.nonlinearity_iters):
            np.multiply(0.5, np.add(u[1:-1], prev_u[1:-1], out=mid_u), out=mid_u)
            np.multiply(0.5, np.add(v[1:-1], prev_v[1:-1], out=mid_v), out=mid_v)
            np.multiply(np.conj(mid_u, out=rhs_u), mid_v, out=rhs_u)
            np.multiply(mid_u, mid_u, out=rhs_v)
            if sources is not None:
                np.subtract(rhs_u, F1_mid, out=rhs_u)
                np.subtract(rhs_v, F2_mid, out=rhs_v)
            # an inf entry makes the product by i*dt invalid (0 * inf);
            # finite_rhs reports it below
            with np.errstate(invalid="ignore"):
                np.multiply(idt, rhs_u, out=rhs_u)
                np.multiply(idt, rhs_v, out=rhs_v)
            np.add(lin_u, rhs_u, out=rhs_u)
            np.add(lin_v, rhs_v, out=rhs_v)
            rhs_u[0] += theta_u * f_next
            rhs_v[0] += theta_v * g_next
            if not (finite_rhs(rhs_u) and finite_rhs(rhs_v)):
                raise BlowUpDetected(
                    f"non-finite right-hand side in the step to t={t_next:.4g}")
            sol_u, sol_v = solve_u(rhs_u), solve_v(rhs_v)
            gap = float(sweep_gap(sol_u, prev_u, f_next)
                        + sweep_gap(sol_v, prev_v, g_next))
            u_new[1:-1], v_new[1:-1] = sol_u, sol_v
            u_new[0], v_new[0] = f_next, g_next
            prev_u, prev_v = u_new, v_new
            if gap_first is None:
                gap_first = gap
        if gap > 10.0 * gap_first and gap > 1e-10 * max(scale0, 1e-300):
            raise NonConvergentNonlinearIteration(
                f"fixed-point gap grew from {gap_first:.3g} to {gap:.3g} at t={t_now:.4g}")

        u, u_new = u_new, u
        v, v_new = v_new, v
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
