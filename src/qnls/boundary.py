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
B, so each |x| is one column, and the datum is laid out for the output times
once per field.  The ladder edges sqrt(B/(pi k)) scale with sqrt(B), so the
phase at ladder panel k, node j depends on (k, j) alone: one table per field
holds it over the union of the columns' k-ranges, beside every column's top
panels, and each column corrects it to first order for the rounding of its
own nodes.  The columns are binned a run at a time: consecutive columns of
up to RUN_NODES nodes in all go through one flat pass that makes their
edges, nodes, weights and lag bins together, a bin starting where the lag
changes or where a column starts, so a column's bins do not depend on the
run it is in.  Each column then sums its bins by the lag-binned
convolution.  The per-time terms -- the straddling panel each time
removes, the partial top panel, the Fresnel tail and the freezing guard --
run once over (times x columns), one pass per Gauss-Legendre node; the
Fresnel factor is made once per column at its deepest edge, and per (time,
column) only where sqrt(t) is below that edge.  Nothing is cached across
calls: the panel ladder depends on the datum's sup and derivative sup.

Class members of order lambda are built from the base evaluations on a
uniform ray: for lambda > 0 the spatial kernel (y-x)^{lambda-1} is applied
by product integration (exact on the piecewise-linear interpolant, reusing
the fractional-integral weights from the right); for -2 < lambda < 0 the
integrated-by-parts representation with the explicit one-sided boundary
term is used, with the time derivative taken by central differences.  An
output row is then a weighted sum of ray columns, and the base field takes
the rule's rows and applies them itself, choosing from the sizes it has
built.  Where few rows are wanted (the x = 0 trace: one row, one offset
group) the rows fold into the lag bins: each run's bins, times their
columns' weights, go into one lag-weight vector per row, in column order,
and each time reads the datum once per row instead of once per column.
Many rows sum every column and weigh the sums, which is cheaper there.  The
freezing guard needs no folded column's values: it passes any column whose
bound is at most 0.1 % of the datum scale, whatever its values, and the
columns above that are summed for the guard alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (LambdaOutOfRange, NonPositiveA, NonUniformGrid,
                     SingularQuadratureFail, SupportViolation, WindowViolation)
from .fractional import _integrate, product_weights, rl_apply
from .grids import SpaceTimeField, TimeSeries
from .quadrature import _gl, _panel_nodes
from .spectral import BourgainParams, bourgain_norm, cutoff, sobolev_norm_1d

#: relative accuracy the sigma ladder of the kernel quadrature is sized for
KERNEL_REL_TOL = 1e-5
#: ladder nodes that consecutive columns bin in one flat pass
RUN_NODES = 8192
#: the largest ladder index k a field's panel table is built for; its
#: k-indexed arrays hold up to this many entries (the workloads reach
#: k = 1320, the tests 36821)
MAX_LADDER_K = 1 << 22


def delta_coefficient(a: float) -> complex:
    """Coefficient of the point source the trace-normalized kernel satisfies.

    The kernel that reproduces the datum at x = 0 solves the free equation
    away from the origin with a Dirac line source whose coefficient is
    2 sqrt(a) exp(3 pi i / 4) -- the conjugate of the trace normalisation
    2 sqrt(a) exp(-3 pi i / 4).
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
        # the base kernel acts on I_{-1/2 - lambda/2} f, an order above -2
        if not -2.0 < self.lam < 3.0:
            raise LambdaOutOfRange(f"lambda must lie in (-2, 3), got {self.lam}")
        if self.f.t0 != 0.0:
            raise SupportViolation("boundary datum must start at t = 0")


@dataclass
class TraceReport:
    residual: float
    phase: str
    residuals: dict


def _osc_tail_factor(z):
    """E(z) = integral over v in [1, inf) of exp(i z v^2) / v^2, for z >= 0."""
    # only the commands that build a boundary field load scipy.special
    from scipy.special import fresnel

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


def _tail_factors(B, deep, s_eff):
    """_osc_tail_factor(B / s_eff^2) for each time and column, s_eff being
    the column's deepest edge or sqrt(t) below it: made once per column,
    and per (time, column) only where sqrt(t) is below that edge."""
    factor = np.repeat(_osc_tail_factor(B / (deep ** 2 + 1e-300))[None], len(s_eff), axis=0)
    below = s_eff < deep
    factor[below] = _osc_tail_factor((B / (s_eff ** 2 + 1e-300))[below])
    return factor


def _half_order_series(spec: ForcingSpec) -> TimeSeries:
    """I_{-1/2 - lambda/2} f, the series the base kernel acts on."""
    return rl_apply(spec.f, -0.5 - spec.lam / 2.0)


def _datum_bounds(m: TimeSeries) -> tuple[float, float]:
    """Sup of the series and of its derivative, for the error budget.  On a
    step so fine that the derivative overflows its sup is inf, which the
    ladder sizing and the freezing guard each refuse."""
    with np.errstate(over="ignore"):
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
        self.rt, self.dt = np.sqrt(t), m.dt
        self.t_max = float(np.max(t))
        u = (t - m.t0) / m.dt
        k = np.rint(u)
        self.phis, self.group = np.unique(np.round(u - k, 9), return_inverse=True)
        self.members = [np.flatnonzero(self.group == g) for g in range(self.phis.size)]
        # sqrt(t) and the 1e-15 a complete panel's top edge may pass it by:
        # each time's, then each group's largest and the largest of all
        reach = self.rt + 1e-15
        self.reach = np.concatenate((reach, [reach[at].max() for at in self.members],
                                     [reach.max()]))
        k = k.astype(np.intp)
        # nodes sigma <= sqrt(t) lie at lags below ceil(t / dt) + 3
        self.n_lags = math.ceil(self.t_max / m.dt) + 3
        pad = max(self.n_lags - int(k.min()), 0)
        self.span = pad + max(m.n - 1, int(k.max()) + 1)
        self.base = k + pad
        self.ext = np.zeros(2 * self.span, dtype=complex)
        self.ext[pad:pad + m.n - 1] = m.samples[:-1]
        self.ext[self.span + pad:self.span + pad + m.n - 1] = np.diff(m.samples)

    def lags(self, s2, groups):
        """Where node sigma^2 = s2 reads at time (k + phi) dt: interval
        k - lag, at fraction lag - s, with s = s2 / dt - phi."""
        s = s2 / self.dt
        s -= self.phis[groups]
        lag = np.ceil(s)
        return lag.astype(np.intp), np.subtract(lag, s, out=s)

    def read(self, s2):
        """The interpolant at t - s2[i, j] for every time t = t[i]."""
        lag, frac = self.lags(s2, self.group[:, None])
        i = self.base[:, None] - lag
        return self.ext[i] + frac * self.ext[self.span:][i]


def _ladder_range(B: float, t_max: float, m_dsup: float, scale0: float):
    """(k_min, K): the column's ladder edges are sqrt(B / (pi k)) for
    k = K, ..., k_min, with K sized for KERNEL_REL_TOL."""
    lowest = B / (np.pi * t_max)
    try:
        estimate = (0.4 * (m_dsup + 1e-300) * B ** 1.5 / (KERNEL_REL_TOL * scale0)) \
            ** 0.4 / np.pi
    except OverflowError:       # B ** 1.5 beyond the float range
        estimate = math.inf
    if not (math.isfinite(lowest) and math.isfinite(estimate)):
        raise SingularQuadratureFail(f"the sigma ladder of the column at B = {B:.3g} "
                                     f"has no finite panel count for t_max = {t_max:.3g}")
    k_min = max(1, math.ceil(lowest))
    K = math.ceil(estimate)
    return k_min, min(max(K, k_min + 8), k_min + 4096)


class _PanelTable:
    """A field's sigma-panels, one run per |x| column.

    Column c has p[c] panels: n[c] ladder panels on the edges
    sqrt(B / (pi k)), k = K, ..., k_min, then n_top[c] panels evenly from
    its last ladder edge (0 at x = 0) up to sqrt(t_max).  Each panel reads a
    row of `theta`, the phase angles at its 8 Gauss-Legendre nodes, and of
    `phase` = exp(i theta).  The ladder edges at B are sqrt(B) times those
    at B = 1, so the angle B / sigma^2 at ladder panel k, node j depends on
    (k, j) alone: the ladder rows are the B = 1 ladder over the union of the
    columns' k-ranges, shared by the columns, and each column corrects them
    to first order for the rounding of its own nodes.  The top rows are each
    column's own; a row joining two columns' top runs is never read.
    """

    def __init__(self, Bv, t_max: float, m_dsup: float, scale0: float):
        osc = Bv >= 1e-300
        self.k_min, self.K = np.ones((2, Bv.size), dtype=np.intp)
        for c in np.flatnonzero(osc):
            self.k_min[c], self.K[c] = _ladder_range(float(Bv[c]), t_max, m_dsup, scale0)
        root_max = math.sqrt(t_max)
        start = np.sqrt(Bv / (np.pi * self.k_min))
        gap = root_max - start
        n_top = np.where(gap > 1e-14, np.clip(np.ceil(48 * gap / root_max), 8, 48), 0)
        # a column at B = 0 has no ladder and 64 top panels
        self.n_top = np.where(osc, n_top, 64).astype(np.intp)
        self.B, self.n = Bv, self.K - self.k_min
        self.p = self.n + self.n_top
        # numpy.linspace(start, root_max, n_top + 1), one run per column
        runs = self.n_top + 1
        self.t0 = np.cumsum(runs) - runs
        step = np.repeat((root_max - start) / np.maximum(self.n_top, 1), runs)
        self.top_edges = ((np.arange(runs.sum()) - np.repeat(self.t0, runs)) * step
                          + np.repeat(start, runs))
        self.top_edges[(self.t0 + self.n_top)[self.n_top > 0]] = root_max

        k_hi = int(self.K[osc].max(initial=0))
        # `pik` holds k_hi entries and `used` the span of k below it
        if k_hi > MAX_LADDER_K:
            c = np.flatnonzero(osc)[np.argmax(self.K[osc])]
            raise SingularQuadratureFail(
                f"the sigma ladder of the column at B = {Bv[c]:.3g} reaches k = {k_hi:.3g} "
                f"for t_max = {t_max:.3g}, beyond the panel table's {MAX_LADDER_K}")
        used = np.zeros(k_hi + 1 - int(self.k_min[osc].min(initial=1)), dtype=bool)
        for lo, hi in zip(self.k_min[osc], self.K[osc]):
            used[k_hi - hi:k_hi - lo + 1] = True        # edge k at k_hi - k
        unit = _panel_nodes(np.sqrt(1.0 / (np.pi * (k_hi - np.flatnonzero(used)))), 8)[0]
        self.r0 = np.zeros(Bv.size, dtype=np.intp)
        self.r0[osc] = (np.cumsum(used) - 1)[k_hi - self.K[osc]]
        top = _panel_nodes(self.top_edges, 8)[0]
        self.top = unit.shape[0] + self.t0
        self.theta = np.concatenate((1.0 / (unit * unit),
                                     np.repeat(Bv, runs)[:-1, None] / (top * top)))
        self.phase = np.exp(1j * self.theta)
        # pi k for k = k_top, ..., 1: column c's ladder edges are sqrt(B /
        # pik[k_top - K:k_top - k_min + 1]); and, as Python ints for runs of
        # columns, each column's (k_top - K, n, t0, n_top, r0, top)
        k_top = max(k_hi, 1)
        self.pik = np.pi * np.arange(k_top, 0, -1, dtype=float)
        self.spans = list(zip((k_top - self.K).tolist(), self.n.tolist(), self.t0.tolist(),
                              self.n_top.tolist(), self.r0.tolist(), self.top.tolist()))

    def edge(self, c, q):
        """Edge q of column c; c and q broadcast."""
        n = self.n[c]
        return np.where(q < n, np.sqrt(self.B[c] / (np.pi * np.maximum(self.K[c] - q, 1))),
                        self.top_edges[self.t0[c] + np.maximum(q - n, 0)])

    def nodes(self, c, q):
        """For each Gauss-Legendre node j in turn, sigma^2 and the weight
        times the phase at node j of panel q of column c; c and q
        broadcast."""
        lo = self.edge(c, q)
        half = 0.5 * (self.edge(c, q + 1) - lo)
        n = self.n[c]
        row = np.where(q < n, self.r0[c] + q, self.top[c] - n + q)
        for j, u in enumerate(_gl(8)[0]):
            sig = (lo + half) + half * u
            s2 = sig * sig
            yield s2, _weigh(self.B[c] * (1.0 / s2), half, self.theta[row, j],
                             self.phase[row, j], j)


def _weigh(angle, half, theta, phase, j=slice(None)):
    """The weight times the phase exp(i angle) at nodes of angle B / sigma^2,
    made in `phase` from the table's exp(i theta) there."""
    # exp(i angle) = exp(i theta) (1 + i d) to rounding, where
    # d = angle - theta comes from the rounding of the column's own nodes
    z = np.empty(angle.shape, dtype=complex)
    z.real = 1.0
    np.subtract(angle, theta, out=z.imag)
    phase *= z
    phase *= _gl(8)[1][j] * half
    return phase


def _runs(nodes, summed):
    """The columns cut into runs of consecutive columns, (first, end)
    pairs: a run takes columns of one kind, all summed or all folded, while
    their nodes stay within RUN_NODES (a larger column runs alone)."""
    runs, first, total = [], 0, 0
    for c, k in enumerate(nodes):
        if c > first and (summed[c] != summed[first] or total + k > RUN_NODES):
            runs.append((first, c))
            first, total = c, 0
        total += k
    runs.append((first, len(nodes)))
    return runs


def _take(v, first, counts):
    """Rows first[j], ..., first[j] + counts[j] - 1 of v for each j in turn,
    one after another: v itself when they are all of v, in order."""
    ends = [f + k for f, k in zip(first, counts)]
    if [0, *ends] == [*first[:len(ends)], len(v)]:
        return v
    return np.concatenate([v[f:e] for f, e in zip(first, ends)])


def _run_bins(table: _PanelTable, grid: _DatumGrid, c0: int, c1: int):
    """Columns c0, ..., c1 - 1's complete panels as lag bins, one set per
    offset group, from one flat pass over their nodes.

    Each group takes each column's panels up to its times' top level.  The
    nodes run up each column's ladder, so within a column the lag never
    decreases: a bin is one run of nodes, starting where the lag changes or
    where a column starts.  Returns each time's count of complete panels
    and each group's top level, one column each, and, per group, the bins'
    lags, their weights on each interval's left sample and on its step,
    and where each column's bins start (then the count of bins).
    """
    spans, Bs = table.spans[c0:c1], table.B[c0:c1].tolist()
    # the columns' edges one after another: column j's ladder edges
    # sqrt(B / (pi k)), k = K, ..., k_min, then its top edges, from e0[j]
    lad = np.concatenate([table.pik[k0:k0 + n + 1] for k0, n, *_ in spans])
    pieces, e0, at = [], [0], 0
    for B, (_, n, t0, n_top, *_) in zip(Bs, spans):
        piece = lad[at:at + n + 1]
        np.divide(B, piece, out=piece)
        pieces += [piece, table.top_edges[t0 + 1:t0 + n_top + 1]]
        at += n + 1
        e0.append(e0[-1] + n + n_top + 1)
    np.sqrt(lad, out=lad)
    edges = np.concatenate(pieces)
    hits = np.empty((grid.reach.size, c1 - c0), dtype=np.intp)
    for j in range(c1 - c0):
        hits[:, j] = np.searchsorted(edges[e0[j] + 1:e0[j + 1]], grid.reach, side="right")
    level, tops = hits[:grid.rt.size], hits[grid.rt.size:-1]
    # panel i lies on [edges[i], edges[i + 1]]; each column's panels up to
    # the top level of all its times, k[j] of them, from row row0[j]
    k = hits[-1].tolist()
    row0 = list(accumulate(k, initial=0))
    sig, _, half = _panel_nodes(edges, 8)
    sig, half = (_take(v, e0, k) for v in (sig, half))
    s2 = sig * sig
    angle = 1.0 / s2
    rows = []
    for B, (_, n, _, _, r0, top), kj, r in zip(Bs, spans, k, row0):
        angle[r:r + kj] *= B
        rows += [slice(r0, r0 + min(kj, n)), slice(top, top + max(kj - n, 0))]
    w = _weigh(angle, half[:, None], *(np.concatenate([v[r] for r in rows])
                                       for v in (table.theta, table.phase)))
    bins = []
    for g, k_g in enumerate(tops.tolist()):
        s2_g, w_g = (_take(v, row0, k_g).ravel() for v in (s2, w))
        lag, frac = grid.lags(s2_g, g)
        new = np.ones(lag.size, dtype=bool)
        np.not_equal(lag[1:], lag[:-1], out=new[1:])
        first = [8 * r for r in accumulate(k_g, initial=0)]
        new[[f for f, kj in zip(first[1:], k_g[1:]) if kj]] = True
        starts = np.flatnonzero(new)
        bins.append((lag[starts], np.add.reduceat(w_g, starts),
                     np.add.reduceat(w_g * frac, starts), np.searchsorted(starts, first)))
    return level, tops, bins


def _column_sum(grid: _DatumGrid, bins, j: int) -> np.ndarray:
    """Column j of a run's lag bins summed against the datum at each time,
    by one dense (times x lags) gather per offset group and two dots per
    time."""
    col = np.empty(grid.rt.size, dtype=complex)
    for at, (lag, on_left, on_step, cuts) in zip(grid.members, bins):
        b = slice(cuts[j], cuts[j + 1])
        i = grid.base[at, None] - lag[b]
        # one dot per time: OpenBLAS runs a mat-vec this small on threads
        # that then spin, doubling the CPU time without saving wall time
        col[at] = (np.vecdot(on_left[b].conj(), grid.ext[i])
                   + np.vecdot(on_step[b].conj(), grid.ext[grid.span:][i]))
    return col


def _base_field(m: TimeSeries, bounds, a: float, ys, ts, rows=None) -> np.ndarray:
    """Base-operator field on ys x ts, every |y| column in one pass.

    The columns bin their complete panels by lag a run at a time
    (`_run_bins`, runs cut by `_runs`), and each summed column sums its
    bins against the datum (`_column_sum`).  Then, over (times x columns),
    each time removes the panel that straddles sqrt(t) and adds its partial
    top panel and its Fresnel tail, and the freezing guard raises for the
    smallest failing |y|.  The tail's Fresnel factor is made once per column
    at its deepest edge, and per (time, column) only where sqrt(t) is below
    it.  `bounds` is `_datum_bounds(m)`.

    Given `rows`, an (r, len(ys)) weight matrix, it returns rows @ field,
    shape (r, len(ts)), without making the field, in the cheaper of two
    orders, chosen once the grid and the panel table are built.  Folded,
    each run's lag bins, times their columns' weights, go into one dense
    lag-weight vector per row and offset group by one `np.add.at` each, in
    column order as the columns one by one would add them, and each time
    reads the datum once per row, as one contiguous window; a column whose
    freezing bound is at most 0.1 % of scale0 passes the guard whatever its
    values, so only the columns above that are summed by `_column_sum`, for
    the guard.  Otherwise every column is summed and the rows weigh the
    sums.
    """
    ts = np.asarray(ts, dtype=float)
    ay, inv = np.unique(np.abs(np.asarray(ys, dtype=float)), return_inverse=True)
    if rows is not None:
        # each |y| column's weight in each row
        weights = np.zeros((rows.shape[0], ay.size), dtype=complex)
        np.add.at(weights.T, inv, rows.T)
    out = np.zeros((ay.size if rows is None else rows.shape[0], ts.size), dtype=complex)
    live = ts > 0.0
    if not np.any(live) or not bounds[0] > 0.0:
        return out[inv] if rows is None else out
    m_sup, m_dsup = bounds
    grid = _DatumGrid(m, ts[live])
    rt = grid.rt[:, None]
    scale0 = m_sup * min(math.sqrt(grid.t_max), 1.0) + 1e-300
    Bv = ay * ay / (4.0 * a)
    osc = np.flatnonzero(Bv >= 1e-300)
    table = _PanelTable(Bv, grid.t_max, m_dsup, scale0)
    # Fresnel completion below the deepest edge, added last
    deep = table.edge(osc, 0)
    s_eff = np.minimum(deep, rt)
    tail = grid.read(s_eff * s_eff) * s_eff * _tail_factors(Bv[osc], deep, s_eff)
    err = 0.4 * (m_dsup + 1e-300) * np.max(s_eff, axis=0) ** 5 / Bv[osc]

    # folding costs rows x (groups x nodes + 2 times x lags): each node's
    # weight goes into every row's vector of its offset group, and each time
    # reads two lag windows per row; summing the columns costs 2 times x nodes
    nodes, times = 8 * int(table.p.sum()), grid.rt.size
    fold = rows is not None and (rows.shape[0] * (grid.phis.size * nodes
                                                  + 2 * times * grid.n_lags)
                                 < 2 * times * nodes)
    # folding, only the columns the guard below could fail are summed: one
    # whose bound is at most 0.1 % of scale0 passes whatever its values
    summed = np.full(ay.size, not fold)
    summed[osc[err > 0.01 * (0.1 * scale0)]] = True
    if fold:
        # the (left, step) lag weights of each offset group and row, lag l
        # at n_lags - 1 - l, so that a time reads the datum in its own order
        lag_rows = np.zeros((2, grid.phis.size, out.shape[0], grid.n_lags), dtype=complex)
    vals = np.zeros((grid.rt.size, ay.size), dtype=complex)
    level = np.empty(vals.shape, dtype=np.intp)
    tops = np.empty((grid.phis.size, ay.size), dtype=np.intp)
    for c0, c1 in _runs(8 * table.p, summed):
        level[:, c0:c1], tops[:, c0:c1], bins = _run_bins(table, grid, c0, c1)
        if summed[c0]:
            for c in range(c0, c1):
                vals[:, c] = _column_sum(grid, bins, c - c0)
            continue
        # in column order, as the columns one by one would: one np.add.at
        # per offset group and row
        for g, (lag, on_left, on_step, cuts) in enumerate(bins):
            back = grid.n_lags - 1 - lag
            for r, wr in enumerate(np.repeat(weights[:, c0:c1], np.diff(cuts), axis=1)):
                np.add.at(lag_rows[0, g, r], back, wr * on_left)
                np.add.at(lag_rows[1, g, r], back, wr * on_step)
    # the straddling panel, which t's group read unless it read none (those
    # read a panel of the column at weight 0), and the partial top panel
    # [last complete edge, sqrt(t)] on the reference panel [-1, 1], one node
    # of every (time, column) at a time
    straddle = np.minimum(level, table.p - 1)
    lo = np.minimum(table.edge(np.arange(ay.size), level), rt)
    half = 0.5 * (rt - lo)
    mid = lo + half
    removed = np.zeros_like(vals)
    part = np.zeros_like(vals)
    for (s2, w), u, wu in zip(table.nodes(np.arange(ay.size), straddle), *_gl(8)):
        removed += w * grid.read(s2)
        sig = mid + half * u
        part += wu * (grid.read(sig ** 2) * np.exp(1j * Bv / (sig ** 2 + 1e-300)))
    vals -= removed * (level < tops[grid.group])
    vals += part * half
    vals[:, osc] += tail

    bad = np.flatnonzero(err > 0.01 * np.maximum(np.max(np.abs(vals[:, osc]), axis=0),
                                                 0.1 * scale0))
    if bad.size:
        raise SingularQuadratureFail(f"freezing error {err[bad[0]]:.2e} above 1% "
                                     f"at x={ay[osc[bad[0]]]:.3g}")
    if rows is None:
        out[:, live] = (2.0 / math.sqrt(np.pi)) * vals.T
        return out[inv]
    # vecdot, not matmul: OpenBLAS runs products this small on threads
    # that then spin (see _column_sum)
    rowed = np.vecdot(weights.conj()[:, None, :], vals)
    if fold:
        lag_rows = lag_rows.conj()
        for t, (b, g) in enumerate(zip(grid.base - (grid.n_lags - 1), grid.group)):
            window = slice(b, b + grid.n_lags)
            rowed[:, t] += (np.vecdot(lag_rows[0, g], grid.ext[window])
                            + np.vecdot(lag_rows[1, g], grid.ext[grid.span:][window]))
    out[:, live] = (2.0 / math.sqrt(np.pi)) * rowed
    return out


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


def _ray_rows(n_rows: int, ny: int, dy: float, alpha: float) -> np.ndarray:
    """The first n_rows rows of the order-alpha product-trapezoid rule along
    the ray, read from the right: row r is what
    `_integrate(G[::-1], dy, alpha)[::-1][r]` takes of each G[i]."""
    b, c = product_weights(alpha, ny)
    d = np.arange(ny) - np.arange(n_rows)[:, None]
    w = np.where(d >= 0, b[np.maximum(d, 0)], 0.0)
    w[:, -1] += c[ny - 2 - np.arange(n_rows)]
    return w * (dy ** alpha / math.gamma(alpha + 2.0))


def forcing_field(spec: ForcingSpec, xs, ts) -> np.ndarray:
    """Class-operator field on the tensor grid xs x ts, shape (nx, nt).

    The order lambda alone picks the form: the direct kernel at lambda = 0,
    the right-sided fractional convolution of the base field along a ray
    for lambda > 0, and the integrated-by-parts form (`_alt_field`) for
    lambda < 0.  An empty xs gives the empty (0, nt) field.  At lambda != 0
    the ray rule's rows go to `_base_field`, which applies them to the ray's
    base field.
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
    return _base_field(m, bounds, spec.a, ys, ts, _ray_rows(xs.size, ys.size, dy, lam))


def _alt_field(spec: ForcingSpec, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Integrated-by-parts form of the class operator, for every lambda > -2.

    The order-(lambda + 2) ray convolution of the base field's central time
    difference, plus the explicit one-sided boundary term at x < 0.
    """
    lam = spec.lam
    if lam <= -1.0 and np.any(xs == 0.0):
        raise LambdaOutOfRange("boundary term singular at x = 0 for lambda <= -1")
    m = _half_order_series(spec)
    bounds = _datum_bounds(m)
    ys, dy = _ray_grid(xs, spec)
    delta = spec.f.dt
    # the rule's rows times i / (2 delta a), of opposite signs at t +- delta
    rows = _ray_rows(xs.size, ys.size, dy, lam + 2.0) * (1j / (2.0 * delta * spec.a))
    out = (_base_field(m, bounds, spec.a, ys, ts - delta, rows)
           - _base_field(m, bounds, spec.a, ys, ts + delta, rows))
    # explicit one-sided boundary term C' / a * x_-^{lambda+1}/Gamma(lambda+2)
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
        return TraceReport(0.0, "lambda*pi/4", {})
    residuals = {}
    for name, phase in (("lambda*pi/4", np.exp(0.25j * np.pi * spec.lam)),
                        ("3*lambda*pi/4", np.exp(0.75j * np.pi * spec.lam))):
        residuals[name] = float(np.max(np.abs(got - phase * ref)) / den)
    phase = min(residuals, key=residuals.get)
    return TraceReport(residuals[phase], phase, residuals)


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
