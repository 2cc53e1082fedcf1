"""Duhamel boundary forcing operator and its fractional class.

The base operator convolves the half-order time derivative of the boundary
datum against the free-propagator kernel (t-t')^{-1/2} exp(i x^2/(4a(t-t'))).
The substitution sigma = sqrt(t-t') removes the endpoint singularity; the
remaining oscillation exp(i B/sigma^2), B = x^2/(4a), is integrated on
half-period panels with a Fresnel-integral completion below the last panel
(exact for a frozen signal, with a bound on the freezing error).

The datum enters only through its piecewise-linear interpolant on a uniform
grid and the kernel depends on t - t' alone, so the sum over the complete
panels is a causal convolution (convolution quadrature, Lubich 1988): output
times at the same offset on the datum grid read every quadrature node in the
same datum interval at a fixed lag behind them.  Per offset, the node
weights are binned once by completion level and lag into weights on each
interval's left sample and on its step; the complete panels at time t are a
prefix of the ladder, so each time sums the bins up to its own level against
the samples at those lags.  Times on the datum grid form one offset group.
Each time then adds its partial top panel and the Fresnel tail.  A column
depends on x only through x^2, so each |x| is evaluated once per field.
Nothing is cached across calls: the panel ladder depends on the datum's sup
and derivative sup.

Class members of order lambda are built from the base evaluations on a
uniform ray: for lambda > 0 the spatial kernel (y-x)^{lambda-1} is applied
by product integration (exact on the piecewise-linear interpolant, reusing
the fractional-integral weights from the right); for -2 < lambda < 0 the
integrated-by-parts representation with the explicit one-sided boundary
term is used, with the time derivative taken by central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fresnel

from .errors import (LambdaOutOfRange, NonPositiveA, SingularQuadratureFail,
                     SupportViolation, WindowViolation)
from .fractional import _integrate, rl_apply
from .grids import SpaceTimeField, TimeSeries
from .quadrature import _panel_nodes, panel_sums
from .spectral import BourgainParams, bourgain_norm, cutoff, sobolev_norm_1d

#: relative accuracy the sigma ladder of the kernel quadrature is sized for
KERNEL_REL_TOL = 1e-5


def kernel_constant(a: float) -> complex:
    """Normalization making the base operator reproduce the datum at x = 0."""
    return 2.0 * np.exp(-0.75j * np.pi) * np.sqrt(a)


def delta_coefficient(a: float) -> complex:
    """Coefficient of the point source the trace-normalized kernel satisfies.

    The kernel that reproduces the datum at x = 0 solves the free equation
    away from the origin with a Dirac line source whose coefficient is
    2 sqrt(a) exp(3 pi i / 4) -- the conjugate phase of kernel_constant.
    Normalizing the trace and normalizing the source force opposite phases
    for this kernel; the value is pinned by the weak-form refinement check.
    """
    return 2.0 * np.exp(0.75j * np.pi) * np.sqrt(a)


@dataclass
class ForcingSpec:
    """Dispersion a, class order lambda, and boundary datum supported in [0, T]."""

    a: float
    lam: float
    f: TimeSeries

    def __post_init__(self):
        if self.a <= 0:
            raise NonPositiveA(f"a must be positive, got {self.a}")
        if self.lam <= -2.0:
            raise LambdaOutOfRange(f"lambda must exceed -2, got {self.lam}")
        if self.f.t0 != 0.0:
            raise ValueError("boundary datum must start at t = 0")


@dataclass
class TraceReport:
    residual: float
    phase: str
    residuals: dict
    a: float
    lam: float


def _osc_tail_factor(z):
    """E(z) = integral over v in [1, inf) of exp(i z v^2) / v^2, for z >= 0."""
    z = np.asarray(z, dtype=float)
    out = np.ones(z.shape, dtype=complex)
    pos = z > 0
    zp = z[pos]
    w = np.sqrt(2.0 * zp / np.pi)
    s_f, c_f = fresnel(w)
    j_full = 0.5 * np.sqrt(np.pi / zp) * np.exp(0.25j * np.pi)
    j_head = np.sqrt(np.pi / (2.0 * zp)) * (c_f + 1j * s_f)
    out[pos] = np.exp(1j * zp) + 2j * zp * (j_full - j_head)
    return out


def _half_order_series(spec: ForcingSpec) -> TimeSeries:
    """I_{-1/2 - lambda/2} f, the series the base kernel acts on."""
    return rl_apply(spec.f, -0.5 - spec.lam / 2.0)


def _datum_bounds(m: TimeSeries) -> tuple[float, float]:
    """Sup of the series and of its derivative, for the error budget."""
    grad = np.gradient(m.samples, m.dt) if m.n > 2 else np.zeros(m.n)
    return m.sup(), float(np.max(np.abs(grad)))


def _column_values(m: TimeSeries, bounds, a: float, x: float,
                   ts: np.ndarray) -> np.ndarray:
    """Base-operator values at one x for all times, sharing the sigma ladder.

    At fixed x the oscillation edges and phases are time-independent; the
    panels complete at time t (sigma <= sqrt(t)) are summed by the
    lag-binned convolution of `_full_panels`, then each time adds its
    partial top panel and the Fresnel tail below the deepest edge.
    `bounds` is `_datum_bounds(m)`.
    """
    m_sup, m_dsup = bounds
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(ts.size, dtype=complex)
    live = ts > 0.0
    if not np.any(live) or m_sup == 0.0:
        return out
    t_live = ts[live]
    rt = np.sqrt(t_live)
    t_max = float(np.max(t_live))
    B = x * x / (4.0 * a)
    scale0 = m_sup * min(math.sqrt(t_max), 1.0) + 1e-300

    if B < 1e-300:
        edges = math.sqrt(t_max) * np.linspace(0.0, 1.0, 65)
    else:
        md = m_dsup + 1e-300
        k_min = max(1, math.ceil(B / (np.pi * t_max)))
        K = math.ceil((0.4 * md * B ** 1.5 / (KERNEL_REL_TOL * scale0)) ** 0.4 / np.pi)
        K = min(max(K, k_min + 8), k_min + 4096)
        edges = np.sqrt(B / (np.pi * np.arange(K, k_min - 1, -1, dtype=float)))
        gap = math.sqrt(t_max) - edges[-1]
        if gap > 1e-14:
            n_top = max(8, min(48, int(np.ceil(48 * gap / math.sqrt(t_max)))))
            edges = np.concatenate([edges,
                                    np.linspace(edges[-1], math.sqrt(t_max),
                                                n_top + 1)[1:]])

    vals = _full_panels(m, edges, B, t_live, rt)

    # partial top panel [last complete edge, sqrt(t)], one per time, on the
    # reference panel [-1, 1]
    idx = np.searchsorted(edges, rt + 1e-15, side="right") - 1
    has = idx >= 0
    lo_t = np.where(has, edges[np.clip(idx, 0, edges.size - 1)], 0.0)
    half_t = 0.5 * np.maximum(rt - lo_t, 0.0) * has

    def top(u):
        sig_t = (lo_t + half_t)[:, None] + half_t[:, None] * u[None, :]
        ph_t = np.exp(1j * B / (sig_t ** 2 + 1e-300)) if B > 0 else np.ones_like(sig_t)
        return m(t_live[:, None] - sig_t ** 2) * ph_t

    vals += panel_sums(top, np.array([-1.0, 1.0]), 8)[:, 0] * half_t

    # Fresnel completion below the deepest covered edge
    s_eff = np.minimum(edges[0], rt)
    if B > 0:
        tail = m(t_live - s_eff ** 2) * s_eff * _osc_tail_factor(B / (s_eff ** 2 + 1e-300))
        vals += tail
        err = 0.4 * (m_dsup + 1e-300) * float(np.max(s_eff)) ** 5 / B
        if err > 0.01 * max(float(np.max(np.abs(vals))), 0.1 * scale0):
            raise SingularQuadratureFail(
                f"freezing error {err:.2e} above 1% at x={x:.3g}")
    out[live] = (2.0 / math.sqrt(np.pi)) * vals
    return out


def _full_panels(m: TimeSeries, edges: np.ndarray, B: float, t_live: np.ndarray,
                 rt: np.ndarray) -> np.ndarray:
    """Sum over the panels [edges[p], edges[p+1]] with edges[p+1] <= sqrt(t).

    Each node sigma reads the datum's linear interpolant at t - sigma^2.
    Times t = (k + phi) dt at the same offset phi on the datum grid see each
    node in the same datum interval, at the same lag behind k and with the
    same interpolation fraction.  So, per offset, the node weights are
    binned once by (level slot, lag) into weights on the interval's left
    sample and on its step; the complete panels at a time are a prefix of
    the ladder, so each time sums the bins of its offset up to its own
    level against the samples at those lags.  Offsets are compared after
    rounding to 1e-9 dt: the times on the datum grid form one group.
    """
    level = np.searchsorted(edges[1:], rt + 1e-15, side="right")
    n_pan = int(level.max())
    if n_pan == 0:
        return np.zeros(t_live.size, dtype=complex)
    pts, weights, half = _panel_nodes(edges[:n_pan + 1], 8)
    order = weights.size
    phase = np.exp(1j * B / (pts * pts)) if B > 0 else 1.0 + 0.0j
    w = weights[None, :] * half[:, None] * phase
    u = (t_live - m.t0) / m.dt
    k = np.rint(u)
    phis, group = np.unique(np.round(u - k, 9), return_inverse=True)
    k = k.astype(np.intp)

    # one slot per distinct (offset, level), ordered by offset, then level
    stride = n_pan + 1
    keys, slot = np.unique(group * stride + level, return_inverse=True)
    runs = np.concatenate(([0], np.flatnonzero(np.diff(keys // stride)) + 1,
                           [keys.size]))
    top = keys[runs[1:] - 1] % stride          # panels each offset needs
    # every (offset, panel) pair below the offset's top level; a node of
    # panel p counts at each level above p, so it is binned at the first
    # slot of its offset above p
    pair_g = np.repeat(np.arange(phis.size), top)
    pair_p = np.arange(pair_g.size) - np.repeat(np.cumsum(top) - top, top)
    first = np.repeat(np.searchsorted(keys, pair_g * stride + pair_p, side="right"),
                      order)
    node = (order * pair_p[:, None] + np.arange(order)).ravel()
    # node at datum position (k + phi) - s: interval k - lag, fraction frac
    s = ((pts * pts).ravel() / m.dt)[node] - np.repeat(phis[pair_g], order)
    lag = np.ceil(s)
    frac = lag - s
    lag = lag.astype(np.intp)
    # bin the node weights by (slot, lag); within an offset the nodes run up
    # the ladder, so slot and lag never decrease and each bin is one run
    width = int(lag.max()) + 1
    cell = first * width + lag
    starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
    cells = cell[starts]
    wn = w.ravel()[node]
    on_left = np.add.reduceat(wn, starts)
    on_step = np.add.reduceat(wn * frac, starts)

    # each time sums the bins of its offset up to its own slot: a run of
    # `cells` from the offset's first slot
    lo_c = np.searchsorted(cells, runs[group] * width)
    n_c = np.searchsorted(cells, (slot + 1) * width) - lo_c
    t_of = np.repeat(np.arange(t_live.size), n_c)
    c = np.arange(t_of.size) - np.repeat(np.cumsum(n_c) - n_c - lo_c, n_c)

    # interval i reads the datum for 0 <= i <= n-2 and zero elsewhere, with
    # no ramp into the sampled window; `ext` holds the left samples, then the
    # steps, each padded by zeros on both sides
    c_lag = cells % width
    pad = max(int(c_lag.max() - k.min()), 0)
    span = pad + m.n - 1 + max(int(k.max() - c_lag.min()) - (m.n - 2), 0)
    ext = np.zeros(2 * span, dtype=complex)
    ext[pad:pad + m.n - 1] = m.samples[:-1]
    ext[span + pad:span + pad + m.n - 1] = np.diff(m.samples)
    idx = (k + pad)[t_of] - c_lag[c]
    terms = on_left[c] * ext[idx] + on_step[c] * ext[idx + span]
    return (np.bincount(t_of, terms.real, t_live.size)
            + 1j * np.bincount(t_of, terms.imag, t_live.size))


def _base_field(m: TimeSeries, bounds, a: float, ys, ts) -> np.ndarray:
    """Base-operator field on ys x ts; the kernel sees y only through y^2,
    so each |y| is evaluated once."""
    ts = np.asarray(ts, dtype=float)
    ay, inv = np.unique(np.abs(np.asarray(ys, dtype=float)), return_inverse=True)
    cols = np.empty((ay.size, ts.size), dtype=complex)
    for i, y in enumerate(ay):
        cols[i, :] = _column_values(m, bounds, a, float(y), ts)
    return cols[inv]


def _ray_grid(xs: np.ndarray, spec: ForcingSpec):
    """Uniform y-grid extending xs to the right for the spatial convolution.

    The spacing resolves the propagator's spatial oscillation where the
    field still carries mass (local wavelength ~ sqrt(a T) there).
    """
    xs = np.asarray(xs, dtype=float)
    t_max = spec.f.t_end
    if xs.size > 1:
        dy = xs[1] - xs[0]
        if not np.allclose(np.diff(xs), dy):
            raise ValueError("xs must be uniformly spaced")
    else:
        dy = float(np.clip(0.1 * math.sqrt(spec.a * t_max), 0.01, 0.1))
    pad = max(12.0 * math.sqrt(spec.a * t_max), 6.0, 32 * dy)
    n_extra = int(np.ceil(pad / dy))
    return np.concatenate([xs, xs[-1] + dy * np.arange(1, n_extra + 1)]), dy


def forcing_field(spec: ForcingSpec, xs, ts, representation: str = "auto") -> np.ndarray:
    """Class-operator field on the tensor grid xs x ts, shape (nx, nt).

    representation: "auto" picks the direct kernel at lambda = 0, the
    right-sided fractional convolution for lambda > 0, and the
    integrated-by-parts form for lambda < 0; "def0"/"alt" force a branch.
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    lam = spec.lam
    if representation == "auto":
        representation = "kernel" if lam == 0.0 else ("def0" if lam > 0 else "alt")
    m = _half_order_series(spec)
    bounds = _datum_bounds(m)

    if representation == "kernel":
        if lam != 0.0:
            raise LambdaOutOfRange("direct kernel representation needs lambda = 0")
        return _base_field(m, bounds, spec.a, xs, ts)

    if representation == "def0":
        if lam <= 0.0:
            raise LambdaOutOfRange("def0 representation needs lambda > 0")
        ys, dy = _ray_grid(xs, spec)
        G = _base_field(m, bounds, spec.a, ys, ts)
        return _integrate(G[::-1], dy, lam)[::-1][:xs.size]

    if representation != "alt":
        raise ValueError(f"unknown representation {representation!r}")
    if not (-2.0 < lam):
        raise LambdaOutOfRange(f"alt representation needs lambda > -2, got {lam}")
    ys, dy = _ray_grid(xs, spec)
    delta = spec.f.dt
    g_plus = _base_field(m, bounds, spec.a, ys, ts + delta)
    g_minus = _base_field(m, bounds, spec.a, ys, ts - delta)
    dt_term = 1j * (g_plus - g_minus) / (2.0 * delta)
    out = -_integrate(dt_term[::-1], dy, lam + 2.0)[::-1][:xs.size] / spec.a
    # explicit one-sided boundary term C' / a * x_-^{lambda+1}/Gamma(lambda+2)
    if lam <= -1.0 and np.any(xs == 0.0):
        raise LambdaOutOfRange("boundary term singular at x = 0 for lambda <= -1")
    x_neg = np.zeros_like(xs)
    neg = xs < 0.0
    x_neg[neg] = (-xs[neg]) ** (lam + 1.0)
    out += (delta_coefficient(spec.a) / spec.a / math.gamma(lam + 2.0)
            * np.outer(x_neg, m(ts)))
    return out


def forcing_eval(spec: ForcingSpec, x: float, t: float,
                 representation: str = "auto"):
    """Class-operator value at a single point."""
    field = forcing_field(spec, np.array([x]), np.array([t]), representation)
    return complex(field[0, 0])


def trace_check(spec: ForcingSpec, n_samples: int = 48) -> TraceReport:
    """Compare the x = 0 trace against both candidate phase variants.

    The reference amplitude is a^(lambda/2), the unique power consistent
    with the base identity trace = f at lambda = 0 (any fixed sqrt(a)
    amplitude fails there for a != 1); the kernel quadrature confirms it
    to 5 digits across a and lambda.  The phase winner is selected
    empirically between exp(i lambda pi/4) and exp(3 i lambda pi/4) and
    reported alongside both residuals.
    """
    if spec.lam <= -1.0:
        raise LambdaOutOfRange("trace identity needs lambda > -1")
    f = spec.f
    idx = np.unique(np.linspace(1, f.n - 1, n_samples).astype(int))
    ts = f.times[idx]
    got = forcing_field(spec, np.array([0.0]), ts)[0, :]
    ref = spec.a ** (spec.lam / 2.0) * f.samples[idx]
    den = float(np.max(np.abs(ref)))
    if den == 0.0:
        return TraceReport(0.0, "lambda*pi/4", {}, spec.a, spec.lam)
    residuals = {}
    for name, phase in (("lambda*pi/4", np.exp(0.25j * np.pi * spec.lam)),
                        ("3*lambda*pi/4", np.exp(0.75j * np.pi * spec.lam))):
        residuals[name] = float(np.max(np.abs(got - phase * ref)) / den)
    phase = min(residuals, key=residuals.get)
    return TraceReport(residuals[phase], phase, residuals, spec.a, spec.lam)


def pde_residual(spec: ForcingSpec, testfn: SpaceTimeField) -> complex:
    """Weak-form defect of the forced Schrodinger identity against a test field.

    Pairs the operator field with (-i d_t + a d_xx) of the test function and
    subtracts the paired source term; all integrations by parts sit on the
    test function, so the result is pure discretization error, O(dx^2+dt^2).
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
    field = forcing_field(spec, xs, ts_grid)
    dt_z = np.zeros_like(z)
    dt_z[:, 1:-1] = (z[:, 2:] - z[:, :-2]) / (2.0 * testfn.dt)
    dxx_z = np.zeros_like(z)
    dxx_z[1:-1, :] = (z[2:, :] - 2 * z[1:-1, :] + z[:-2, :]) / testfn.dx ** 2
    adj = -1j * dt_z + spec.a * dxx_z
    lhs = np.sum(field * adj) * testfn.dx * testfn.dt

    C = delta_coefficient(spec.a)
    m_src = _half_order_series(spec)(ts_grid)
    if lam == 0.0:
        # line source on x = 0: interpolate the test function there
        if np.any(xs == 0.0):
            line = z[int(np.argwhere(xs == 0.0)[0, 0]), :]
        else:
            right = int(np.searchsorted(xs, 0.0))
            if right == 0 or right == xs.size:
                line = np.zeros(ts_grid.size)
            else:
                w = -xs[right - 1] / testfn.dx
                line = (1 - w) * z[right - 1, :] + w * z[right, :]
        rhs = C * np.sum(m_src * line) * testfn.dt
    elif lam > 0.0:
        neg = xs <= 0.0
        if np.count_nonzero(neg) < 2:
            rhs = 0.0
        else:
            kernel_vals = _integrate(z[neg, :], testfn.dx, lam)[-1]
            rhs = C * np.sum(m_src * kernel_vals) * testfn.dt
    else:
        rhs = 0.0       # support check above guarantees the source is absent
    return complex(lhs - rhs)


#: admissible lambda window per estimate branch, as (lower, upper) callables
_WINDOWS = {
    "SpaceTraces": lambda s: (s - 1.5, min(s + 0.5, 0.5)),
    "TimeTraces": lambda s: (-1.0, 1.0),
    "Bourgain": lambda s: (s - 0.5, min(s + 0.5, 0.5)),
}


def boundary_estimate_ratio(spec: ForcingSpec, s: float, which: str,
                            b: float | None = None, nx: int = 128,
                            nt: int = 64, x_half: float = 12.0) -> float:
    """Left-side discrete norm of one trace estimate over ||f||_{H^{(2s+1)/4}}."""
    if which not in _WINDOWS:
        raise WindowViolation(f"unknown branch {which!r}")
    lo, hi = _WINDOWS[which](s)
    if not (lo < spec.lam < hi):
        raise WindowViolation(
            f"{which} needs lambda in ({lo:.3g}, {hi:.3g}), got {spec.lam}")
    if which == "Bourgain":
        if b is None or not b < 0.5:
            raise WindowViolation("Bourgain branch needs b < 1/2")
    f = spec.f
    if f.sup() == 0.0:
        return 0.0
    pad = np.concatenate([f.samples, np.zeros(f.n)])
    den = sobolev_norm_1d(pad, f.dt, (2.0 * s + 1.0) / 4.0)

    dx = 2.0 * x_half / nx
    xs = -x_half + dx * np.arange(nx)
    dt = f.t_end / nt
    ts = dt * np.arange(nt)
    field = forcing_field(spec, xs, ts)
    if which == "SpaceTraces":
        half = np.where(xs[:, None] < 0.0, 0.0, field)
        return float(np.max(sobolev_norm_1d(half.T, dx, s))) / den
    loc = field * cutoff(ts)[None, :]
    if which == "TimeTraces":
        return float(np.max(sobolev_norm_1d(loc, dt, (2.0 * s + 1.0) / 4.0))) / den
    u = SpaceTimeField(xs[0], dx, 0.0, dt, loc)
    return bourgain_norm(u, BourgainParams(s, b, spec.a)) / den
