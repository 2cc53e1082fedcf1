"""Duhamel boundary forcing operator and its fractional class.

The base operator convolves the half-order time derivative of the boundary
datum against the free-propagator kernel (t-t')^{-1/2} exp(i x^2/(4a(t-t'))).
The substitution sigma = sqrt(t-t') removes the endpoint singularity; the
remaining oscillation exp(i B/sigma^2), B = x^2/(4a), is integrated on
half-period panels with a Fresnel-integral completion below the last panel
(exact for a frozen signal, with a bound on the freezing error).

The datum enters only through its piecewise-linear interpolant on a uniform
grid, which reads zero before t = 0, and the kernel depends on t - t' alone.
So every panel above sqrt(t) adds nothing, the complete panels at time t are
the whole ladder minus the one panel that straddles sqrt(t), and their sum
is a causal convolution (convolution quadrature, Lubich 1988): output times
at the same offset on the datum grid read every quadrature node in the same
datum interval at a fixed lag behind them.  Per offset, the node weights are
binned once by lag into weights on each interval's left sample and on its
step, and every time of the offset sums the same bins; times on the datum
grid form one offset group.  Each time then removes its straddling panel and
adds its partial top panel and the Fresnel tail.  A column depends on x only
through x^2, so each |x| is evaluated once per field, and the datum is laid
out for the output times once per field.  Nothing is cached across calls:
the panel ladder depends on the datum's sup and derivative sup.

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


class _DatumGrid:
    """The datum's interpolant laid out for the live output times t.

    t = (k + phi) dt is kept as its offset phi, rounded to 1e-9 dt so the
    times on the datum grid form one group, and as `base`, k's index into
    `ext`.  `ext` holds each datum interval's left sample, then its step,
    padded by zeros on both sides: interval i reads the datum for
    0 <= i <= n-2 and zero elsewhere, with no ramp into the sampled window.
    """

    def __init__(self, m: TimeSeries, t: np.ndarray):
        self.t, self.rt, self.dt = t, np.sqrt(t), m.dt
        self.t_max = float(np.max(t))
        u = (t - m.t0) / m.dt
        k = np.rint(u)
        self.phis, self.group = np.unique(np.round(u - k, 9), return_inverse=True)
        self.members = [np.flatnonzero(self.group == g) for g in range(self.phis.size)]
        k = k.astype(np.intp)
        # nodes sigma <= sqrt(t) lie at lags below ceil(t / dt) + 3
        pad = max(math.ceil(self.t_max / m.dt) + 3 - int(k.min()), 0)
        self.span = pad + max(m.n - 1, int(k.max()) + 1)
        self.base = k + pad
        self.ext = np.zeros(2 * self.span, dtype=complex)
        self.ext[pad:pad + m.n - 1] = m.samples[:-1]
        self.ext[self.span + pad:self.span + pad + m.n - 1] = np.diff(m.samples)

    def lags(self, sig, groups):
        """Where node sigma reads at time (k + phi) dt: interval k - lag, at
        fraction lag - s, with s = sigma^2 / dt - phi."""
        s = sig * sig / self.dt - self.phis[groups]
        lag = np.ceil(s)
        return lag.astype(np.intp), lag - s

    def read(self, sig, at=slice(None)):
        """The interpolant at t - sig^2 for the times `at`; sig is (times, nodes)."""
        lag, frac = self.lags(sig, self.group[at, None])
        i = self.base[at, None] - lag
        return self.ext[i] + frac * self.ext[i + self.span]


def _column_values(grid: _DatumGrid, bounds, a: float, x: float) -> np.ndarray:
    """Base-operator values at one x for all live times, sharing the sigma ladder.

    At fixed x the oscillation edges and phases are time-independent; the
    panels complete at time t (sigma <= sqrt(t)) are summed by the
    lag-binned convolution of `_full_panels`, then each time adds its
    partial top panel and the Fresnel tail below the deepest edge.
    `bounds` is `_datum_bounds(m)`.
    """
    m_sup, m_dsup = bounds
    rt = grid.rt
    t_max = grid.t_max
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

    vals = _full_panels(grid, edges, B)

    # partial top panel [last complete edge, sqrt(t)], one per time, on the
    # reference panel [-1, 1]
    idx = np.searchsorted(edges, rt + 1e-15, side="right") - 1
    lo_t = np.minimum(edges[np.maximum(idx, 0)], rt)
    half_t = 0.5 * (rt - lo_t)

    def top(u):
        sig_t = (lo_t + half_t)[:, None] + half_t[:, None] * u[None, :]
        ph_t = np.exp(1j * B / (sig_t ** 2 + 1e-300)) if B > 0 else 1.0
        return grid.read(sig_t) * ph_t

    vals += panel_sums(top, np.array([-1.0, 1.0]), 8)[:, 0] * half_t

    # Fresnel completion below the deepest covered edge
    s_eff = np.minimum(edges[0], rt)
    if B > 0:
        vals += (grid.read(s_eff[:, None])[:, 0] * s_eff
                 * _osc_tail_factor(B / (s_eff ** 2 + 1e-300)))
        err = 0.4 * (m_dsup + 1e-300) * float(np.max(s_eff)) ** 5 / B
        if err > 0.01 * max(float(np.max(np.abs(vals))), 0.1 * scale0):
            raise SingularQuadratureFail(
                f"freezing error {err:.2e} above 1% at x={x:.3g}")
    return (2.0 / math.sqrt(np.pi)) * vals


def _full_panels(grid: _DatumGrid, edges: np.ndarray, B: float) -> np.ndarray:
    """Sum over the panels [edges[p], edges[p+1]] with edges[p+1] <= sqrt(t).

    The interpolant reads zero before t = 0, so every panel above sqrt(t)
    adds nothing: the complete panels at t are the ladder up to the top
    level of t's offset group, minus the one panel that straddles sqrt(t).
    Times at the same offset on the datum grid see each node in the same
    datum interval, at the same lag behind them and with the same
    interpolation fraction.  So, per offset, the node weights are binned
    once by lag into weights on the interval's left sample and on its step,
    and every time of the offset sums the same bins: one dense (times x
    lags) gather and two mat-vecs.  Each time below its offset's top level
    then subtracts the 8 nodes of its straddling panel, read the same way.
    """
    level = np.searchsorted(edges[1:], grid.rt + 1e-15, side="right")
    pts, weights, half = _panel_nodes(edges[:int(level.max()) + 1], 8)
    phase = np.exp(1j * B / (pts * pts)) if B > 0 else 1.0 + 0.0j
    w = weights[None, :] * half[:, None] * phase
    vals = np.empty(grid.t.size, dtype=complex)
    for g, at in enumerate(grid.members):
        # the nodes run up the ladder, so the lag never decreases and each
        # lag bin is one run of nodes
        top = int(level[at].max())
        lag, frac = grid.lags(pts[:top].ravel(), g)
        starts = np.flatnonzero(np.diff(lag, prepend=-1))
        on_left = np.add.reduceat(w[:top].ravel(), starts)
        on_step = np.add.reduceat(w[:top].ravel() * frac, starts)
        i = grid.base[at, None] - lag[starts]
        # one dot per time: OpenBLAS runs a mat-vec this small on threads
        # that then spin, doubling the CPU time without saving wall time
        vals[at] = (np.vecdot(on_left.conj(), grid.ext[i])
                    + np.vecdot(on_step.conj(), grid.ext[i + grid.span]))
        st = at[level[at] < top]
        vals[st] -= np.sum(w[level[st]] * grid.read(pts[level[st]], st), axis=1)
    return vals


def _base_field(m: TimeSeries, bounds, a: float, ys, ts) -> np.ndarray:
    """Base-operator field on ys x ts.  The kernel sees y only through y^2,
    so each |y| is evaluated once; the datum grid depends only on m and ts,
    so it is laid out once.  `bounds` is `_datum_bounds(m)`."""
    ts = np.asarray(ts, dtype=float)
    ay, inv = np.unique(np.abs(np.asarray(ys, dtype=float)), return_inverse=True)
    cols = np.zeros((ay.size, ts.size), dtype=complex)
    live = ts > 0.0
    if np.any(live) and bounds[0] > 0.0:
        grid = _DatumGrid(m, ts[live])
        for i, y in enumerate(ay):
            cols[i, live] = _column_values(grid, bounds, a, float(y))
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


def forcing_field(spec: ForcingSpec, xs, ts) -> np.ndarray:
    """Class-operator field on the tensor grid xs x ts, shape (nx, nt).

    The order lambda alone picks the form: the direct kernel at lambda = 0,
    the right-sided fractional convolution of the base field along a ray
    for lambda > 0, and the integrated-by-parts form (`_alt_field`) for
    lambda < 0.
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    lam = spec.lam
    if lam < 0.0:
        return _alt_field(spec, xs, ts)
    m = _half_order_series(spec)
    bounds = _datum_bounds(m)
    if lam == 0.0:
        return _base_field(m, bounds, spec.a, xs, ts)
    ys, dy = _ray_grid(xs, spec)
    G = _base_field(m, bounds, spec.a, ys, ts)
    return _integrate(G[::-1], dy, lam)[::-1][:xs.size]


def _alt_field(spec: ForcingSpec, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Integrated-by-parts form of the class operator, for every lambda > -2.

    The order-(lambda + 2) ray convolution of the base field's central time
    difference, plus the explicit one-sided boundary term at x < 0.
    """
    lam = spec.lam
    m = _half_order_series(spec)
    bounds = _datum_bounds(m)
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
