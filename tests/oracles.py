"""Oracles of acceptance criteria 1 and 5, which stay tests: no command runs them.

`semigroup_residual` measures the composition law of the fractional
integrals; `default_manufactured` is an exact solution pair with the
sources that make it solve the coupled system, and `manufactured_error`
is the solver's distance from it.
"""

import numpy as np

from qnls.fractional import rl_apply
from qnls.grids import GridFunction, TimeSeries
from qnls.ibvp import SolverConfig, simulate


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
