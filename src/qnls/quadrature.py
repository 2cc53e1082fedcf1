"""Panel-based adaptive quadrature for vectorized integrands.

Built for integrands mixing polynomial weights, bracket decay and indicator
edges: the caller seeds panels at known breakpoints (indicator roots, bracket
vertices), refinement bisects the panels carrying the error, and infinite
tails extend dyadically with a geometric remainder estimate.

`adaptive_panels` and `integrate_with_tail` integrate a batch of rows.  A
batch is a ragged (integral, panel) table: `fvec(y, rows)` evaluates
integral rows[i] at y[i], breakpoints come as an (n, m) array padded with
NaN, and each round evaluates the new panels of every unfinished row at
once.  Each live panel carries its coarse sum and its two half sums from
round to round, and a bisected panel's half sums are its children's coarse
sums, so a round evaluates only the halves of the panels it just made.
`panel_sums` reduces each panel alone, so a carried sum equals a recomputed
one bit for bit.  Converged rows retire after each round.  Each row makes
the refinement decisions it would make alone and gets its value bit for
bit, so a single integral is a batch of one.  A row that does not converge
is a failure, never a value: its value is NaN and its message is returned.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: adaptive_panels budget: edges and bisection rounds
MAX_PANELS, MAX_ROUNDS = 4000, 60
#: integrate_with_tail: smallest first half-width, dyadic blocks beyond it
TAIL_START, MAX_DOUBLINGS = 8.0, 24


@lru_cache(maxsize=None)
def _gl(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _starts(counts: np.ndarray) -> np.ndarray:
    return np.cumsum(counts) - counts


def _runs(counts: np.ndarray):
    """Runs of a flat array grouped by length: (run numbers, arange(n)) per n."""
    for n in np.unique(counts):
        yield np.flatnonzero(counts == n), np.arange(n)


def _run_sums(vals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.sum of each run of counts[r] values.  Runs of one length are
    reduced together along axis 1, which rounds as np.sum of each alone."""
    out = np.empty(counts.size, dtype=vals.dtype)
    starts = _starts(counts)
    for runs, offs in _runs(counts):
        out[runs] = vals[starts[runs, None] + offs].sum(axis=1)
    return out


def panel_sums(fvec, edges: np.ndarray, order: int, panels=None) -> np.ndarray:
    """Gauss-Legendre integral on each panel [edges[i], edges[i+1]].

    fvec maps the flat node array to one value per node, or to one row of
    values per integrand of a batch; the result then has one row of panel
    integrals per integrand.

    With `panels`, edges holds the edge arrays of len(panels) integrals one
    after another, integral r with panels[r] panels, and fvec(y, owner)
    gets the integral owning each node.  The panel joining two integrals is
    evaluated and dropped.  The result is each integral's panel sums in
    turn.  Each panel is reduced alone, so its sum does not depend on its
    place in the call: a ragged call, a batch row and a lone call agree bit
    for bit.
    """
    pts, weights, half = _panel_nodes(edges, order)
    if panels is None:
        vals = fvec(pts.ravel())
        vals = vals.reshape(vals.shape[:-1] + pts.shape)
        return (vals * weights).sum(axis=-1) * half
    panels = np.asarray(panels)
    owner = np.repeat(np.arange(panels.size), panels + 1)[:-1]
    vals = fvec(pts.ravel(), np.repeat(owner, order)).reshape(pts.shape)
    sums = (vals * weights).sum(axis=-1) * half
    return np.delete(sums, np.cumsum(panels + 1)[:-1] - 1)


def _panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes of each panel [edges[i], edges[i+1]].

    Returns (pts, weights, half): the nodes, shape (panels, order), the
    reference weights on [-1, 1] and the panel half-widths, so the rule on
    panel i is sum(weights * f(pts[i])) * half[i].
    """
    nodes, weights = _gl(order)
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    mid = lo + half
    return mid[:, None] + half[:, None] * nodes[None, :], weights, half


def _on(f, rows):
    """Batch integrand f on its rows `rows`, renumbered 0, 1, ..."""
    return lambda y, r: f(y, rows[r])


def adaptive_panels(fvec, lo, hi, breakpoints=(), rel_tol: float = 1e-7):
    """Adaptively integrate the n rows of fvec, row i on [lo[i], hi[i]],
    bisecting error-carrying panels; breakpoints is an (n, m) table.

    Returns (values, failed): failed maps each row that exceeds MAX_PANELS
    edges or MAX_ROUNDS rounds to its message, and that row's value is NaN.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bps = np.asarray(breakpoints, dtype=float)
    if not bps.size:
        bps = np.empty((lo.size, 0))
    n = lo.size
    done, failed = [], {}     # rows with hi <= lo keep the value 0
    rows = np.flatnonzero(hi > lo)
    # seed edges: lo, hi and the breakpoints strictly inside, sorted, unique
    cand = np.column_stack([lo[rows], hi[rows], bps[rows]])
    inside = (cand > lo[rows, None]) & (cand < hi[rows, None])
    inside[:, :2] = True
    cand = np.sort(np.where(inside, cand, np.nan), axis=1)
    keep = ~np.isnan(cand)
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    edges, counts = cand[keep], keep.sum(axis=1)
    err_sum = np.zeros(rows.size)
    # per live panel: its coarse sum and its two half sums; `todo` marks the
    # panels whose half sums the round has yet to evaluate
    coarse = halves = todo = None
    for _ in range(MAX_ROUNDS):
        if not rows.size:
            break
        panels = counts - 1
        # fine split: each row's edges interleaved with its panel midpoints
        at = 2 * np.arange(edges.size) - np.repeat(np.arange(rows.size), counts)
        left = np.delete(np.arange(edges.size - 1), _starts(counts)[1:] - 1)
        split = np.empty(2 * edges.size - rows.size)
        split[at] = edges
        split[at[left] + 1] = 0.5 * (edges[left] + edges[left + 1])
        if coarse is None:      # the first round evaluates every panel
            coarse = panel_sums(_on(fvec, rows), edges, 8, panels)
            todo = np.ones(coarse.size, dtype=bool)
            halves = np.empty((coarse.size, 2), dtype=coarse.dtype)
        halves[todo] = _half_sums(fvec, rows, split, at[left], panels, todo)
        fine_per_panel = halves[:, 0] + halves[:, 1]
        err = np.abs(fine_per_panel - coarse)
        total = _run_sums(fine_per_panel, panels)
        err_sum = _run_sums(err, panels)
        conv = err_sum <= rel_tol * np.abs(total)
        done.append((rows[conv], total[conv]))
        over = ~conv & (counts > MAX_PANELS)
        for i in np.flatnonzero(over):
            failed[rows[i]] = _budget_message(err_sum[i], lo[rows[i]], hi[rows[i]],
                                              counts[i])
        go = ~conv & ~over
        # bisect, per row, the panels holding the top share of the error
        pick = np.zeros(err.size, dtype=bool)
        starts = _starts(panels)
        for runs, offs in _runs(panels):
            runs = runs[go[runs]]
            idx = starts[runs, None] + offs
            order = np.argsort(err[idx], axis=1)[:, ::-1]
            cum = np.cumsum(np.take_along_axis(err[idx], order, axis=1), axis=1)
            n_keep = np.sum(cum < 0.95 * cum[:, -1:], axis=1) + 1
            chosen = offs < n_keep[:, None]
            pick[np.take_along_axis(idx, order, axis=1)[chosen]] = True
        keep = np.repeat(go, 2 * counts - 1)
        keep[at[left] + 1] &= pick
        edges = split[keep]
        counts = (counts + np.add.reduceat(pick.astype(np.intp), starts))[go]
        rows, err_sum = rows[go], err_sum[go]
        # an unpicked panel carries its sums; a picked one's half sums become
        # its two children's coarse sums, and the children's halves are todo
        live = np.repeat(go, panels)
        n_new = 1 + pick[live]
        src = np.repeat(np.flatnonzero(live), n_new)
        todo = np.repeat(pick[live], n_new)
        right = np.r_[False, src[1:] == src[:-1]]
        coarse = np.where(todo, halves[src, right.astype(np.intp)], coarse[src])
        halves = halves[src]
    for r, e, k in zip(rows, err_sum, counts):
        failed[r] = _budget_message(e, lo[r], hi[r], k)
    values = np.zeros(n, dtype=np.result_type(float, *(v for _, v in done)))
    for r, v in done:
        values[r] = v
    values[list(failed)] = np.nan
    return values, failed


def _half_sums(fvec, rows, split, first, panels, todo):
    """Half sums, shape (todo panels, 2), of the panels marked in `todo`.

    split holds each row's edges interleaved with its panel midpoints, and
    split[first[p]] is panel p's left edge.  Each run of consecutive todo
    panels of a row is one integral of the ragged call.
    """
    row_of = np.repeat(np.arange(rows.size), panels)
    opens = todo.copy()
    opens[1:] &= ~todo[:-1] | (row_of[1:] != row_of[:-1])
    run_of = np.cumsum(opens)[todo] - 1
    at = first[todo]
    used = np.zeros(split.size, dtype=bool)
    used[at] = used[at + 1] = used[at + 2] = True
    owner = rows[row_of[opens]]
    sums = panel_sums(lambda y, r: fvec(y, owner[r]), split[used], 8,
                      2 * np.bincount(run_of))
    return sums.reshape(-1, 2)


def _budget_message(err, lo, hi, n_edges):
    return f"error {err:.3g} on [{lo:.6g}, {hi:.6g}] after {n_edges} edges"


def integrate_with_tail(fvec, breakpoints, window: float | None = None,
                        rel_tol: float = 1e-6):
    """Integrate the rows of fvec over the real line (or |y| <= window).

    breakpoints is an (n, m) table of n rows.  Returns (values, tails,
    failed): the integrals, their tail estimates, and failed as in
    adaptive_panels.  The domain grows in dyadic blocks.  With a window
    they march out to it and tail_probe estimates the mass beyond.  Without
    one, once the block ratio stabilizes below 1, the (exact for power
    laws) geometric completion finishes the tail and the ratio drift bounds
    the remainder; a non-shrinking block sequence fails its row.
    """
    bps = np.asarray(breakpoints, dtype=float)
    n = bps.shape[0]
    bound = np.where(np.isnan(bps), 0.0, np.abs(bps)).max(axis=1, initial=0.0)
    x0 = np.maximum(TAIL_START, 2.0 * bound + 1.0)
    if window is not None:
        # a window inside the first block is the whole domain: the row ends
        # at the march's first exit check
        x0 = np.minimum(x0, window)
    done, failed = [], {}     # done: (rows, values, tails) as each row ends

    def probe(rows):
        return tail_probe(lambda y: fvec(np.tile(y, rows.size), np.repeat(rows, y.size))
                          .reshape(rows.size, y.size), window)

    def adaptive(rows, lo, hi, row_bps):
        """adaptive_panels on rows; their failures are recorded."""
        values, bad = adaptive_panels(_on(fvec, rows), lo, hi, row_bps, rel_tol)
        for i in sorted(bad):
            failed.setdefault(rows[i], bad[i])
        return values

    value = adaptive(np.arange(n), -x0, x0, bps)
    rows = np.flatnonzero(~np.isnan(value))
    value, x = value[rows], x0[rows]
    scale = np.abs(value)
    blocks = []
    # under a window the blocks march all the way out to it, and the exit
    # check at the top of the loop runs once more after the last block
    doublings = MAX_DOUBLINGS if window is None else \
        max(MAX_DOUBLINGS, int(np.log2(window / TAIL_START)) + 2)
    for _ in range(doublings):
        if window is not None:
            out = x >= window
            if out.any():
                done.append((rows[out], value[out], probe(rows[out])))
                rows, value, x = rows[~out], value[~out], x[~out]
        if not rows.size:
            break
        nxt = 2.0 * x if window is None else np.minimum(2.0 * x, window)
        # both halves of each block in one batch; a row reports its first
        # failing half, the right one before the left
        k = rows.size
        halves = adaptive(np.concatenate([rows, rows]), np.concatenate([x, -nxt]),
                          np.concatenate([nxt, -x]), np.empty((2 * k, 0)))
        block = halves[:k] + halves[k:]
        ok = ~np.isnan(block)
        value = value + block
        if window is None:
            # a negligible block ends the row; so does a settled geometric
            # decay, whose completion is the tail out to infinity
            scale = np.maximum(scale, np.abs(value))
            stop = ok & (np.abs(block) <= 0.5 * rel_tol * np.maximum(scale, 1e-300))
            done.append((rows[stop], value[stop], np.abs(block[stop])))
            ok &= ~stop
            blocks.append(block)
            if len(blocks) >= 3:
                r1 = np.abs(blocks[-1]) / np.maximum(np.abs(blocks[-2]), 1e-300)
                r0 = np.abs(blocks[-2]) / np.maximum(np.abs(blocks[-3]), 1e-300)
                grow = ok & (r1 >= 1.0) & (r0 >= 1.0)
                for i in np.flatnonzero(grow):
                    failed[rows[i]] = (f"blocks not decaying (ratio {r1[i]:.3f}) "
                                       f"beyond |y| = {x[i]:.3g}")
                ok &= ~grow
                geo = ok & (r1 < 0.98) & (np.abs(r1 - r0) < 0.1 * (1.0 - r1))
                g1, g0, blk = r1[geo], r0[geo], block[geo]
                tail = blk * g1 / (1.0 - g1)
                drift = np.abs(tail) * np.abs(g1 - g0) / (1.0 - g1)
                done.append((rows[geo], value[geo] + tail,
                             np.maximum(drift, rel_tol * np.abs(blk))))
                ok &= ~geo
            scale = scale[ok]
            blocks = [b[ok] for b in blocks[-2:]]
        rows, value, x = rows[ok], value[ok], nxt[ok]
    # only an unwindowed row can be left: a windowed one exits in the loop
    for r, xr in zip(rows, x):
        failed[r] = f"no stable block decay out to |y| = {xr:.3g}"
    values = np.zeros(n, dtype=np.result_type(float, *(v for _, v, _ in done)))
    tails = np.zeros(n)
    for r, v, t in done:
        values[r], tails[r] = v, t
    values[list(failed)] = tails[list(failed)] = np.nan
    return values, tails, failed


def _probe_points(window: float) -> np.ndarray:
    """The points tail_probe evaluates fvec at: one octave out on each side."""
    return np.array([window * 1.01, window * 2.0, -window * 1.01, -window * 2.0])


def tail_probe(fvec, window: float):
    """Crude one-octave power-law estimate of the mass beyond the window.

    fvec may return one row of values per integrand of a batch; the result
    then has one estimate per integrand.
    """
    v = np.abs(fvec(_probe_points(window)))
    est = 0.0
    for inner, outer in ((v[..., 0], v[..., 1]), (v[..., 2], v[..., 3])):
        mass = inner * window
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.log2(inner / np.maximum(outer, 1e-300))   # local decay exponent
            # not decaying, or too slowly to sum: report one octave of mass
            mass = np.where((outer >= inner) | (p <= 1.0), mass, mass / (p - 1.0))
        est = est + np.where(inner <= 0.0, 0.0, mass)
    return est
