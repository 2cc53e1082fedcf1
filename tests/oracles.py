"""Oracles that stay tests: no command runs them.

- `semigroup_residual` (acceptance criterion 1) measures the composition
  law of the fractional integrals.
- `default_manufactured` (criterion 5) is an exact solution pair with the
  sources that make it solve the coupled system, and `manufactured_error`
  is the solver's distance from it.
- `pde_residual` is the weak-form defect of the boundary forcing class.
  ROADMAP item 3 pins its Laplace-domain evaluator against it.
- `smoothing_ratio` and `inhomog_estimate_ratio` are the empirical
  constants of the local smoothing estimate and of the inhomogeneous
  X^{s,b} Duhamel estimate with b < 1/2.  ROADMAP items 9 and 12 bring back
  into `qnls` what their commands call of them.
"""

import numpy as np

from qnls.boundary import ForcingSpec, _half_order_series, delta_coefficient, forcing_field
from qnls.errors import NonPositiveA, QnlsError, SupportViolation
from qnls.fractional import _integrate, rl_apply
from qnls.grids import GridFunction, SpaceTimeField, TimeSeries
from qnls.ibvp import SolverConfig, simulate
from qnls.spectral import (BourgainParams, bourgain_norm, cutoff, duhamel, group_field,
                           sobolev_norm_1d)

#: smoothing_ratio's time grid: SMOOTHING_NT samples on
#: [-SMOOTHING_T_HALF, SMOOTHING_T_HALF), beyond the cutoff's support
SMOOTHING_T_HALF = 4.0
SMOOTHING_NT = 512


class ParamOrderViolated(QnlsError):
    """Exponent pair (b, b') outside -1/2 < b' <= 0 <= b <= b'+1, or T outside (0, 1]."""


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


def sech(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / np.cosh(x)


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


def manufactured_error(nx, dt, a=1.0, T=0.5, L=30.0):
    """L2 error at T of the solver driven by `default_manufactured`'s sources
    and boundary data on an nx-point grid with step dt, both fields summed."""
    man = default_manufactured(a)
    x = np.linspace(0.0, L, nx)
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, man["u"](x, 0.0))
    v0 = GridFunction(0.0, h, man["v"](x, 0.0))
    nt = int(round(T / dt)) + 1
    tg = dt * np.arange(nt)
    f = TimeSeries(0.0, dt, man["u"](0.0, tg))
    g = TimeSeries(0.0, dt, man["v"](0.0, tg))
    cfg = SolverConfig(L=L, nx=nx, dt=dt, T=T, a=a)
    states, _ = simulate(cfg, u0, v0, f, g, sources=(man["F1"], man["F2"]),
                         snapshot_stride=10 ** 9)
    fin = states[-1]
    return (np.sqrt(np.sum(np.abs(fin.u.samples - man["u"](x, T)) ** 2) * h)
            + np.sqrt(np.sum(np.abs(fin.v.samples - man["v"](x, T)) ** 2) * h))


def pde_residual(spec: ForcingSpec, testfn: SpaceTimeField) -> complex:
    """Weak-form defect of the forced Schrodinger identity against a test field.

    Pairs the operator field with (-i d_t + a d_xx) of the test function and
    subtracts the paired source term; all integrations by parts sit on the
    test function, so the result is pure discretization error, O(dx^2+dt^2).
    For lambda >= 0 the source term is C sum_t m(t) (I_lambda z)(0, t) dt
    (I_0 the identity), interpolated between the nodes around x = 0, which
    the grid must contain; for lambda < 0 z must vanish on x <= 0.
    """
    z = testfn.samples
    edge_mass = (np.abs(z[0, :]).max() + np.abs(z[-1, :]).max()
                 + np.abs(z[:, 0]).max() + np.abs(z[:, -1]).max())
    if edge_mass > 1e-12 * max(np.abs(z).max(), 1e-300):
        raise SupportViolation("test function must vanish on the grid boundary")
    lam = spec.lam
    xs, ts_grid = testfn.x, testfn.t
    if lam < 0.0 and np.any((np.abs(z) > 0) & (xs[:, None] <= 0.0)):
        raise SupportViolation(
            "for lambda < 0 the source pairing needs support in x > 0")
    # the nodes x[j] <= 0 < x[j+1] the source pairing interpolates between;
    # side="right" reads an origin on the grid at its own node
    j = int(np.searchsorted(xs, 0.0, side="right")) - 1
    if lam >= 0.0 and not 0 <= j < xs.size - 1:
        raise SupportViolation("for lambda >= 0 the source pairing needs x = 0 "
                               "inside the grid")
    field = forcing_field(spec, xs, ts_grid)
    dt_z = np.zeros_like(z)
    dt_z[:, 1:-1] = (z[:, 2:] - z[:, :-2]) / (2.0 * testfn.dt)
    dxx_z = np.zeros_like(z)
    dxx_z[1:-1, :] = (z[2:, :] - 2 * z[1:-1, :] + z[:-2, :]) / testfn.dx ** 2
    adj = -1j * dt_z + spec.a * dxx_z
    lhs = np.sum(field * adj) * testfn.dx * testfn.dt

    if lam < 0.0:
        return complex(lhs)     # the support check above leaves no source
    iz = z if lam == 0.0 else _integrate(z, testfn.dx, lam)
    w = -xs[j] / testfn.dx
    line = (1 - w) * iz[j, :] + w * iz[j + 1, :]
    m_src = _half_order_series(spec)(ts_grid)
    rhs = delta_coefficient(spec.a) * np.sum(m_src * line) * testfn.dt
    return complex(lhs - rhs)


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
