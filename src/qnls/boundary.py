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
grid form one offset group.

A field is one pass over its columns.  A column depends on x only through
x^2, so each |x| is one column, and the datum is laid out for the output
times once per field.  The ladder edges sqrt(B/(pi k)) scale with sqrt(B),
so the phase at panel k, node j depends on (k, j) alone: it is tabulated
once per field over the union of the columns' k-ranges, and each column
corrects it to first order for the rounding of its own nodes.  Each column
then sums its ladder by the lag-binned convolution and removes each time's
straddling panel.  The per-time terms -- the partial top panel, the Fresnel
tail and the freezing guard -- run once over (times x columns), one pass per
Gauss-Legendre node of the top panel.  Nothing is cached across calls: the
panel ladder depends on the datum's sup and derivative sup.

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

from .errors import (LambdaOutOfRange, NonPositiveA, NonUniformGrid,
                     SingularQuadratureFail, SupportViolation, WindowViolation)
from .fractional import _integrate, rl_apply
from .grids import SpaceTimeField, TimeSeries
from .quadrature import _gl, _panel_nodes
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
            raise SupportViolation("boundary datum must start at t = 0")


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
        """The interpolant at t - sig^2 for the times `at`, which index
        sig's first axis."""
        lag, frac = self.lags(sig, self.group[at, None])
        i = self.base[at, None] - lag
        return self.ext[i] + frac * self.ext[i + self.span]


def _ladder_range(B: float, t_max: float, m_dsup: float, scale0: float):
    """(k_min, K): the column's ladder edges are sqrt(B / (pi k)) for
    k = K, ..., k_min, with K sized for KERNEL_REL_TOL."""
    k_min = max(1, math.ceil(B / (np.pi * t_max)))
    K = math.ceil((0.4 * (m_dsup + 1e-300) * B ** 1.5 / (KERNEL_REL_TOL * scale0))
                  ** 0.4 / np.pi)
    return k_min, min(max(K, k_min + 8), k_min + 4096)


def _phase_table(ranges):
    """The phases exp(i B / sigma^2) of the ladder nodes, over the union of
    the columns' (k_min, K) ranges.

    At B the ladder edges sqrt(B / (pi k)) are sqrt(B) times those at
    B = 1, so the phase at panel k, node j depends on (k, j) alone.  The
    table keeps the edges k some range uses, in descending k (ascending
    sigma); a panel joining two runs of used k belongs to no range and is
    never read.  Returns theta = 1 / sigma^2 at B = 1 and exp(i theta), one
    row per panel, and each range's first row: range (k_min, K) owns the
    K - k_min rows from there.
    """
    k_hi = max((K for _, K in ranges), default=0)
    used = np.zeros(k_hi + 1 - min((k for k, _ in ranges), default=1), dtype=bool)
    for k_min, K in ranges:
        used[k_hi - K:k_hi - k_min + 1] = True      # edge k at k_hi - k
    row = np.cumsum(used) - 1
    ks = k_hi - np.flatnonzero(used).astype(float)
    pts = _panel_nodes(np.sqrt(1.0 / (np.pi * ks)), 8)[0]
    theta = 1.0 / (pts * pts)
    return theta, np.exp(1j * theta), {r: int(row[k_hi - r[1]]) for r in ranges}


def _base_field(m: TimeSeries, bounds, a: float, ys, ts) -> np.ndarray:
    """Base-operator field on ys x ts, every |y| column in one pass.

    Per column, the panels complete at each time (sigma <= sqrt(t)) are the
    ladder up to the top level of t's offset group, read by one dense
    (times x lags) gather of the lag bins and two dots per time, minus each
    time's straddling panel.  Then, over (times x columns), each time adds
    its partial top panel and its Fresnel tail, and the freezing guard
    raises for the smallest failing |y|.  `bounds` is `_datum_bounds(m)`.
    """
    ts = np.asarray(ts, dtype=float)
    ay, inv = np.unique(np.abs(np.asarray(ys, dtype=float)), return_inverse=True)
    cols = np.zeros((ay.size, ts.size), dtype=complex)
    live = ts > 0.0
    if not np.any(live) or not bounds[0] > 0.0:
        return cols[inv]
    m_sup, m_dsup = bounds
    grid = _DatumGrid(m, ts[live])
    rt, root_max = grid.rt, math.sqrt(grid.t_max)
    scale0 = m_sup * min(root_max, 1.0) + 1e-300
    Bs = [float(y) * float(y) / (4.0 * a) for y in ay]
    ranges = [_ladder_range(B, grid.t_max, m_dsup, scale0) if B >= 1e-300 else None
              for B in Bs]
    theta, table, first = _phase_table([r for r in ranges if r])

    vals = np.empty((rt.size, ay.size), dtype=complex)
    lo = np.empty((rt.size, ay.size))
    deep = np.empty(ay.size)
    for c, B in enumerate(Bs):
        if B < 1e-300:
            edges, r0, n = root_max * np.linspace(0.0, 1.0, 65), 0, 0
        else:
            k_min, K = ranges[c]
            r0, n = first[k_min, K], K - k_min
            edges = np.sqrt(B / (np.pi * np.arange(K, k_min - 1, -1, dtype=float)))
            gap = root_max - edges[-1]
            if gap > 1e-14:
                n_top = max(8, min(48, int(np.ceil(48 * gap / root_max))))
                edges = np.concatenate([edges, np.linspace(edges[-1], root_max,
                                                           n_top + 1)[1:]])
        pts, weights, half = _panel_nodes(edges, 8)
        # The ladder's phases come from the table.  This column's nodes,
        # rounded at B, sit a few ulp off sqrt(B) times the table's, which
        # moves the argument by d ~ 1e-16 theta, and exp(i d) = 1 + i d to
        # rounding.  B * (1 / sigma^2) rounds as the complex argument
        # 1j * B / sigma^2 of the top panels does, so every phase is
        # exp(i B / sigma^2) at this column's own nodes.
        lad, top_pts = pts[:n], pts[n:]
        d = B * (1.0 / (lad * lad)) - theta[r0:r0 + n]
        w = weights * half[:, None] * np.concatenate(
            [table[r0:r0 + n] * (1.0 + 1j * d), np.exp(1j * B / (top_pts * top_pts))])

        level = np.searchsorted(edges[1:], rt + 1e-15, side="right")
        col = vals[:, c]
        for g, at in enumerate(grid.members):
            # the nodes run up the ladder, so the lag never decreases and
            # each lag bin is one run of nodes
            top = int(level[at].max())
            lag, frac = grid.lags(pts[:top].ravel(), g)
            starts = np.flatnonzero(np.diff(lag, prepend=-1))
            on_left = np.add.reduceat(w[:top].ravel(), starts)
            on_step = np.add.reduceat(w[:top].ravel() * frac, starts)
            i = grid.base[at, None] - lag[starts]
            # one dot per time: OpenBLAS runs a mat-vec this small on threads
            # that then spin, doubling the CPU time without saving wall time
            col[at] = (np.vecdot(on_left.conj(), grid.ext[i])
                       + np.vecdot(on_step.conj(), grid.ext[i + grid.span]))
            st = at[level[at] < top]
            col[st] -= np.sum(w[level[st]] * grid.read(pts[level[st]], st), axis=1)
        below = np.searchsorted(edges, rt + 1e-15, side="right") - 1
        lo[:, c] = np.minimum(edges[np.maximum(below, 0)], rt)
        deep[c] = edges[0]

    # partial top panel [last complete edge, sqrt(t)] on the reference
    # panel [-1, 1], one node of every (time, column) at a time
    half = 0.5 * (rt[:, None] - lo)
    mid = lo + half
    Bv = np.array(Bs)
    part = np.zeros_like(vals)
    for u, wu in zip(*_gl(8)):
        sig = mid + half * u
        part += wu * (grid.read(sig) * np.exp(1j * Bv / (sig ** 2 + 1e-300)))
    vals += part * half

    # Fresnel completion below the deepest covered edge
    osc = np.flatnonzero(Bv > 0)
    if osc.size:
        s_eff = np.minimum(deep[osc], rt[:, None])
        vals[:, osc] += (grid.read(s_eff) * s_eff
                         * _osc_tail_factor(Bv[osc] / (s_eff ** 2 + 1e-300)))
        err = 0.4 * (m_dsup + 1e-300) * np.max(s_eff, axis=0) ** 5 / Bv[osc]
        bad = np.flatnonzero(err > 0.01 * np.maximum(np.max(np.abs(vals[:, osc]), axis=0),
                                                     0.1 * scale0))
        if bad.size:
            raise SingularQuadratureFail(f"freezing error {err[bad[0]]:.2e} above 1% "
                                         f"at x={ay[osc[bad[0]]]:.3g}")
    cols[:, live] = (2.0 / math.sqrt(np.pi)) * vals.T
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
        # the ray extends past xs[-1] with step dy, so dy must be positive
        if not (dy > 0.0 and np.allclose(np.diff(xs), dy)):
            raise NonUniformGrid("xs must be uniformly spaced and increasing")
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
    lambda < 0.  An empty xs gives the empty (0, nt) field.
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if not xs.size:
        return np.zeros((0, ts.size), dtype=complex)
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
