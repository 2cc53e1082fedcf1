"""Half-line IBVP solver, mass ledger and contraction map.

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
from .errors import (BlowUpDetected, DivergentIteration, EmptyLedger,
                     NonConvergentNonlinearIteration)
from .grids import MAX_STEPS, GridFunction, SpaceTimeField, TimeSeries, write_csv


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
        # the step count T / dt, which a dt near the smallest float overflows
        if not self.T / self.dt <= MAX_STEPS:
            raise ValueError(f"T / dt must be a finite step count of at most 2**53, "
                             f"got T={self.T!r}, dt={self.dt!r}")
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
        # the Cayley steps' theta = i dt / (2 h^2) and a theta, which a grid
        # step whose square underflows or overflows makes infinite or 0
        h = self.L / (self.nx - 1)
        rate = self.dt / (2.0 * h * h) if h * h > 0.0 else math.inf
        if not all(0.0 < r < math.inf for r in (rate, self.a * rate)):
            raise ValueError(f"dt / (2 h^2) and a dt / (2 h^2), with h = L/(nx-1), must "
                             f"be finite and positive, got {rate:.3g} and "
                             f"{self.a * rate:.3g}")


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

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "M", "flux_u", "flux_v", "residual"],
                  zip(self.times, self.mass, self.flux_u, self.flux_v, self.residual))


def mass_identity_residual(ledger: MassLedger) -> float:
    """Sup over time of the mass-identity defect, relative to the initial mass."""
    if ledger.times.size == 0:
        raise EmptyLedger("ledger holds no samples")
    m0 = ledger.mass[0]
    defect = np.max(np.abs(ledger.residual))
    if m0 == 0.0:
        return 0.0 if defect == 0.0 else float("inf")
    return float(defect / m0)


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
             f: TimeSeries, g: TimeSeries, sources=None, snapshot_stride: int = 1):
    """Advance the coupled system; returns (trajectory, mass ledger).

    `sources` is None or a pair (F1, F2) of callables of (x, t), the
    right-hand sides of the system above.
    """
    nx = cfg.nx
    h = cfg.L / (nx - 1)
    x = h * np.arange(nx)
    n_steps = int(round(cfg.T / cfg.dt))
    dt = cfg.dt
    theta_u = 1j * dt / (2.0 * h * h)
    theta_v = cfg.a * theta_u
    solve_u = _cayley_solver(nx, theta_u)
    solve_v = _cayley_solver(nx, theta_v)

    u, v = u0(x), v0(x)
    u[0], v[0] = f(0.0), g(0.0)
    u[-1] = v[-1] = 0.0

    scale0 = u0.l2() + v0.l2() + f.sup() + g.sup()
    # The loop's own t_next = n*dt + dt, and interpolation works point by point,
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

        # the first sweep's iterate is the current state itself, so its
        # midpoint 0.5 * (w + w) is w: the state's interior is read there
        prev_u, prev_v = u, v
        gap_first = None
        for sweep in range(cfg.nonlinearity_iters):
            if sweep == 0:
                mu, mv = u[1:-1], v[1:-1]
            else:
                mu = np.multiply(0.5, np.add(u[1:-1], prev_u[1:-1], out=mid_u), out=mid_u)
                mv = np.multiply(0.5, np.add(v[1:-1], prev_v[1:-1], out=mid_v), out=mid_v)
            np.multiply(np.conj(mu, out=rhs_u), mv, out=rhs_u)
            np.multiply(mu, mu, out=rhs_v)
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

    ledger = MassLedger(times, masses, flux_u, flux_v, residual)
    return states, ledger


@dataclass
class ContractionResult:
    distances: list
    u: SpaceTimeField
    v: SpaceTimeField


def contraction_iterate(cfg: SolverConfig, u0: GridFunction, v0: GridFunction,
                        f: TimeSeries, g: TimeSeries, lambda1: float,
                        lambda2: float, k_iters: int, nx: int, nt: int,
                        t_span: float) -> ContractionResult:
    """Fixed-point iteration of the boundary-forced Duhamel map on the line.

    Initial data extend by zero to x < 0; the boundary correction feeds the
    measured trace mismatch through the forcing operator class, with the
    prefactor chosen to cancel the operator's own trace factor
    a^(lambda/2) e^(i lambda pi/4).  Iterates start from zero; returns the
    grid-norm distances between consecutive iterates.

    One update advances u and then v: the field's nonlinearity goes straight
    into its Duhamel term, whose x = 0 mismatch feeds the boundary term, and
    the new iterate's distance to the old one is taken at once.  The old u is
    dropped as soon as v's Duhamel term exists, so five (nx, nt) fields are
    live while a boundary term is built: U, V, the two free groups and that
    field's Duhamel term.
    """
    dx = 2.0 * cfg.L / nx
    xs = -cfg.L + dx * np.arange(nx)
    dtc = t_span / nt
    ts = dtc * np.arange(nt)

    u0_ext = GridFunction(xs[0], dx, np.where(xs < 0.0, 0.0, u0(xs)))
    v0_ext = GridFunction(xs[0], dx, np.where(xs < 0.0, 0.0, v0(xs)))
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

    def duhamel_term(N: np.ndarray, a: float) -> np.ndarray:
        return spectral.duhamel(SpaceTimeField(xs[0], dx, 0.0, dtc, N), a).samples

    def update(S, free, datum, a, lam, old):
        # the new iterate from the field's Duhamel term S, and its distance to old
        B = boundary_term(psi * (datum - free[i0, :] - 1j * S[i0, :]), a, lam)
        new = psi[None, :] * (free + 1j * S + B)
        return new, np.sqrt(np.sum(np.abs(new - old) ** 2) * dx * dtc)

    U = np.zeros((nx, nt), dtype=complex)
    V = np.zeros((nx, nt), dtype=complex)
    distances = []
    grew = 0
    for it in range(k_iters):
        S = duhamel_term(psi_T[None, :] * np.conj(U) * V, 1.0)
        U_new, du = update(S, free_u, f_ext, 1.0, lambda1, U)
        S = duhamel_term(psi_T[None, :] * U * U, cfg.a)
        U = U_new
        V, dv = update(S, free_v, g_ext, cfg.a, lambda2, V)
        distances.append(float(du + dv))
        if len(distances) >= 2 and distances[-1] > distances[-2]:
            grew += 1
            if grew >= 3:
                raise DivergentIteration(
                    f"iterate distances increasing: {distances[-4:]}")
        else:
            grew = 0
    return ContractionResult(distances,
                             SpaceTimeField(xs[0], dx, 0.0, dtc, U),
                             SpaceTimeField(xs[0], dx, 0.0, dtc, V))
