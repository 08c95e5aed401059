"""Grid-scan utilities: membership sets, their boundary roots, extremum refinement.

The credible-set endpoints are piecewise smooth with isolated jumps, so the
level sets {x : L(x) <= t_j <= U(x)} of a curve pair curves(xs) -> (U, L)
are found by scanning one dense grid for all levels at once, each curve its
own flag.  crossing_cells is the one level-set primitive: one searchsorted
per endpoint column (one comparison, for a single level) counts, at each
grid point, the levels on the false side of t <= U and of L <= t, and a
cell flips level j on a curve exactly when j lies between its counts at the
two ends, so no level scans its window on its own.  One vectorised
multisection solver, whose round evaluates sections - 1 uniform interior
points of every open cell in one call, refines every boundary (boundary
mode, refine_boundaries) and every extremum (extremum mode, refine_extrema).
A crossing is the sign change of its own curve's margin, U - t or t - L,
and the member set is where both flags hold, so a set inside one cell, its
ends on different curves, is kept.  Each round adds a geometric cluster
about the regula falsi estimate from the bracket's end margins, so a smooth
boundary settles below BISECT_TOL / 128 in two or three rounds, while the
uniform points narrow a jump or NaN edge as fast as multisection alone.  An
extremum keeps the two sub-cells around its best sample each round, down to
a relative tol set by the caller: graze_points, the one sliver guard, runs
it at 1e-13 on the local extrema of U and L that graze a target level,
calling curves once per round for both endpoints; coverage.dip_search runs
it on U at 1e-8, and on C only where no corner of C or domain end is the dip.
Inversion is the same scan: sign_change_roots reads the roots of fn off
{fn >= 0}, the pair (fn, -inf) at level 0, whose U margin is fn.  Everything
is vectorized so that one pass can serve many windows and levels at once,
and many curve pairs: the endpoint table has one row per pair (per config
of one law and lam, for coverage), each level scanned on every row.
Two constants that no caller sets size every grid (build_grid).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["BISECT_TOL", "N_BASE", "TOL_TAIL", "crossing_cells", "member_intervals", "sign_change_roots"]

# The abscissa accuracy of every refined boundary or root, and the inner
# rung of the ladder that build_grid puts about each special abscissa.
BISECT_TOL = 1e-10

# The error-law mass a truncated scan window may leave outside it.
TOL_TAIL = 1e-9

# Base points per span (a window plus 64 reach) of a wide scan union, and
# of a narrow union whole, spread at one step over the union (build_grid).
N_BASE = 4096
_SCAN_POINTS = 1024

# Fixed cost of one curve call in points' worth: an endpoint table costs
# 65-120 us per call plus 0.06-0.25 us per point (2-vCPU Xeon VM).  It sizes the
# uniform samples of a solver round: these set the round count of extremum
# mode and bound that of jump and NaN-edge boundaries, while a smooth
# boundary settles through its regula falsi cluster in two or three rounds
# whatever the section count.
_CALL_POINTS = 2000


@functools.lru_cache(maxsize=None)
def section_count(n_cells: int, iters: int, keep: int = 1) -> int:
    """The power of two m, 2 keep <= m <= 128, minimising rounds x (call cost +
    points per round) for n_cells cells needing iters bisection steps, where a
    round that keeps keep of the m sub-cells gains log2(m / keep) steps: wide
    rounds for the few cells of a query, narrow ones for batches of hundreds."""
    cost = lambda b: -(-iters // (b + 1 - keep)) * (_CALL_POINTS + n_cells * ((1 << b) - 1))
    return 1 << min(range(keep, 8), key=cost)


def build_grid(lo, hi, specials, reach=None) -> np.ndarray:
    """Sorted deduplicated grid over [lo, hi] with a geometric ladder at each special point.

    lo and hi may also be sorted arrays of equal-width windows: the grid then
    covers their union at one step on every piece, so its size follows the
    union, not the window count.  The step is min(U / (_SCAN_POINTS - 1),
    (w + N_BASE / 64 reach) / (N_BASE - 1)), U the total length of the
    union's connected pieces, w one window's width and reach (default w / 2)
    how far from its level a window's crossings lie: one window gets
    _SCAN_POINTS points, and past about (w + 64 reach) / 4 of union every
    window keeps (N_BASE - 1) w / (w + N_BASE / 64 reach) base points or
    more, 124 at the default reach.  The base grid only separates crossings
    and exposes grazes (ladders, the sliver guard and the boundary solver
    set the accuracy), so 1,024 is chosen for speed: a coarser grid needs
    more solver rounds (2,011, 2,075, 2,177 endpoint calls for 1,300 point
    queries at 2,048, 1,024, 512), and 512 measured no faster, 2,048 slower.
    Every window edge is a grid point.  Each special abscissa p (the
    band edges, the atom threshold, the target of an inversion or
    post-selection scan; coverage adds none for theta0) gets a ladder
    p +- BISECT_TOL 8^j, j >= -1, out to the first rung at or past the step
    (_cluster's offsets), kept with p itself where it falls on a piece.  The
    parts are deduplicated as np.unique does it (its sort, then a mask), bit for bit.
    """
    lo, hi = np.atleast_1d(np.asarray(lo, float)), np.atleast_1d(np.asarray(hi, float))
    if not (ok := lo < hi).all():
        raise ValueError(f"empty scan window [{lo[~ok][0]}, {hi[~ok][0]}]")
    pts = np.array([p for p in specials if p is not None], float)
    pts = pts[np.isfinite(pts)]
    breaks = np.nonzero(lo[1:] > hi[:-1])[0]
    starts, ends = np.concatenate([lo[:1], lo[breaks + 1]]), np.concatenate([hi[breaks], hi[-1:]])
    width = hi[0] - lo[0]
    span = width + N_BASE / 64.0 * (0.5 * width if reach is None else reach)
    step = min((ends - starts).sum() / (_SCAN_POINTS - 1), span / (N_BASE - 1))
    k = 2 + max(0, math.ceil(math.log(step / BISECT_TOL, 8)))
    ladder = (pts[:, None] + np.concatenate([BISECT_TOL * _cluster(k), [0.0]])).ravel()
    parts = [lo, hi]
    for a, b in zip(starts, ends):
        parts.append(np.linspace(a, b, int(math.ceil((b - a) / step - 1e-6)) + 1))
        parts.append(ladder[(a <= ladder) & (ladder <= b)])
    grid = np.sort(np.concatenate(parts))
    return grid[np.concatenate([[True], grid[1:] != grid[:-1]])]


def bisect_iters(widths, tol: float) -> int:
    """Bisection steps that bring the widest cell to tol (0 for no cells)."""
    return 0 if np.size(widths) == 0 else min(80, math.ceil(math.log2(max(float(np.max(widths)), tol) / tol)) + 1)


def refine_boundaries(margin, lo, hi, g_lo, g_hi, tol: float) -> np.ndarray:
    """Boundary mode: the point where the flag margin >= 0 changes in each (lo, hi) cell.

    margin(xs, rows) gives signed margins at the flat abscissas xs, where
    rows[k] is the index of the cell xs[k] belongs to (for per-cell context
    such as a level); NaN counts as false.  g_lo and g_hi are the margins at
    the cell ends, whose flags differ.  Each round evaluates, in one call,
    the m - 1 uniform interior points of every open cell (m from
    section_count) and a geometric cluster about its regula falsi estimate
    from the end margins (none where a margin is NaN): offsets stop * 8^i /
    8 on both sides, out to half the widest open cell's uniform step, those
    outside a cell not evaluated.  It keeps the first sub-cell where the
    flag changes, with its end margins, so a smooth root is bracketed within
    seven times the error of a secant step on the previous bracket and
    converges superlinearly, while a jump or NaN edge narrows m-fold per
    round as in plain multisection.  Each cell retires once its width is at
    most stop = max(tol / 128, 4 ulp(|x|)), |x| the larger of its current
    ends, a bound that ends the rounds at any |x|, and its regula falsi
    point (the midpoint where a margin is NaN) is returned, within a few ulp
    of a smooth root; no call is made for an empty cell array.
    """
    cells = np.array([lo, hi, g_lo, g_hi], float).reshape(4, -1)
    stop = lambda a, b: np.maximum(tol / 128.0, 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
    s = stop(cells[0], cells[1])
    at = np.flatnonzero(cells[1] - cells[0] > s)
    cur, s = cells[:, at], s[at]  # the open cells' (a, b, g_a, g_b) and stops
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while at.size:
            a, b, ga, gb = cur
            w = b - a
            spans = w / s
            m = section_count(at.size, bisect_iters(spans, 1.0))
            k = 1 + max(0, math.ceil(math.log(4.0 * spans.max() / m, 8)))
            # The cell as fractions 0 .. 1 with its samples sorted between.
            # Cluster points outside it sort before 0 or after 1 and take the
            # end margins; a NaN secant leaves its cluster NaN, sorted last.
            frac = np.empty((at.size, m + 2 * k + 1))
            frac[:, :m] = _uniform(m)
            np.add((ga / (ga - gb))[:, None], _cluster(k) / spans[:, None], out=frac[:, m:-1])
            frac[:, -1] = 1.0
            frac.sort(axis=1)
            xs = a[:, None] + w[:, None] * frac
            right = frac > 0.0
            g = np.where(right, gb[:, None], ga[:, None])
            inside = right & (frac < 1.0)
            g[inside] = margin(xs[inside], at[np.nonzero(inside)[0]])
            flags = g >= 0.0
            j = (flags != flags[:, :1]).argmax(axis=1) + np.arange(0, g.size, g.shape[1]) - [[1], [0]]
            cur = np.concatenate([xs.ravel()[j], g.ravel()[j]])
            s = stop(cur[0], cur[1])
            live = cur[1] - cur[0] > s
            if not live.all():
                cells[:, at[~live]] = cur[:, ~live]
                at, cur, s = at[live], cur[:, live], s[live]
        lo, hi, g_lo, g_hi = cells
        t = g_lo / (g_lo - g_hi)
        return lo + (hi - lo) * np.where(t == t, t, 0.5)


@functools.lru_cache(maxsize=None)
def _uniform(m: int) -> np.ndarray:
    """The fractions 0, 1/m, ..., (m - 1)/m of a round's uniform samples."""
    return np.arange(m) / m


@functools.lru_cache(maxsize=None)
def _cluster(k: int) -> np.ndarray:
    """Offsets +-8^(i - 1), i < k, of a regula falsi cluster in units of the
    stopping width: a root within one stopping width of the estimate lands in
    a sub-cell no wider than that, the inner ring 7/8 of it."""
    pw = 8.0 ** (np.arange(k) - 1.0)
    return np.concatenate([-pw[::-1], pw])


def refine_extrema(fn, lo, hi, maximize, tol: float = 1e-13):
    """Extremum mode: one maximum (or minimum, per ``maximize``) of fn per (lo, hi) bracket.

    fn(xs, rows) gives the values at xs as margin does in refine_boundaries.
    Each round evaluates, in one call, the m - 1 interior points of every
    bracket (m from section_count) and keeps the two sub-cells around the
    best sample, which a NaN sample (the atom region) never is, so
    ceil(iters / log2(m / 2)) rounds bring every bracket below tol (1 + |x|),
    |x| least on the bracket, as iters bisection steps would; an extremum at
    a bracket end is approached from inside.  Returns the final bracket
    midpoints, each the abscissa of its last best sample up to rounding, and
    those best values; no call is made for an empty bracket array.
    """
    lo, hi = np.array(lo, float), np.array(hi, float)
    n = lo.size
    if n == 0:
        return lo, lo.copy()
    sign = np.where(np.broadcast_to(maximize, lo.shape), 1.0, -1.0)[:, None]
    iters = bisect_iters((hi - lo) / (1.0 + np.maximum(0.0, np.maximum(lo, -hi))), tol)
    sections = section_count(n, iters, 2)
    rows = np.repeat(np.arange(n), sections - 1)
    at = np.arange(n)
    for _ in range(-(-iters // (sections.bit_length() - 2))):
        xs = lo[:, None] + (hi - lo)[:, None] * (np.arange(1, sections) / sections)
        vals = fn(xs.ravel(), rows).reshape(n, sections - 1)
        k = np.argmax(np.fmax(sign * vals, -np.inf), axis=1)
        ends = np.column_stack([lo, xs, hi])
        lo, hi = ends[at, k], ends[at, k + 2]
    return 0.5 * (lo + hi), vals[at, k]


def graze_cells(vals: np.ndarray, levels) -> tuple[np.ndarray, np.ndarray]:
    """Grid extrema of ``vals`` that may graze one of ``levels`` between grid points.

    A local maximum sitting just below a level (or a local minimum just
    above) can hide a membership sliver narrower than the grid step.  Returns
    the indices of such extrema (detected from slope sign changes, within
    four local slope spans of the nearest level on the grazing side) and
    whether each is a maximum.  A peak or pit between two equal grid values
    is found at the end of the flat stretch, while a rise, a flat stretch
    and a rise is no extremum; NaN values are never extrema.
    """
    levels = np.sort(np.atleast_1d(np.asarray(levels, float)))
    with np.errstate(invalid="ignore"):
        dv = vals[1:] - vals[:-1]
        up, down = dv >= 0, dv <= 0
    # at: the slopes after which the next one is of another kind (rise, fall, flat or NaN, as
    # across a constant +-inf stretch).  A turn is a sign step of +-2 there, or two equal steps
    # of +-1 around a flat stretch: a peak where the step is negative, else a pit.
    at = np.flatnonzero((up[:-1] != up[1:]) | (down[:-1] != down[1:]))
    step = np.sign(dv[at + 1]) - np.sign(dv[at])
    size = np.abs(step)
    turn = (size == 2) | ((size == 1) & (np.concatenate([[np.nan], step[:-1]]) == step))
    idx, maximize = at[turn] + 1, step[turn] < 0
    if idx.size == 0:
        return idx, maximize
    v = vals[idx]
    # the nearest level at or above a peak, at or below a pit
    j = np.where(maximize, np.searchsorted(levels, v, "left"), np.searchsorted(levels, v, "right") - 1)
    ok = (j >= 0) & (j < levels.size)
    level = levels.take(j, mode="clip")
    margin = np.where(maximize, level - v, v - level)
    span = np.abs(dv[idx - 1]) + np.abs(dv[idx])
    with np.errstate(invalid="ignore"):
        ok &= np.isfinite(margin) & np.isfinite(span) & (margin >= 0.0) & (margin < 4.0 * span)
    return idx[ok], maximize[ok]


def graze_points(grid: np.ndarray, table, levels, curves):
    """The sliver guard: the grid and its curve table (U, L) with every local
    extremum of U or L that grazes one of ``levels`` between grid points added.

    The table may have one row per curve pair, curves as in member_intervals.
    One graze_cells pass over every row of U, then of L, laid end to end (a
    NaN between the columns, a row's ends excluded) finds the candidates,
    refined in one refine_extrema batch that calls curves once per round for
    both endpoints; only the new abscissas are then evaluated, once, and
    merged into the sorted grid and table.
    """
    i, maximize = graze_cells(np.concatenate([np.ravel(table[0]), [np.nan], np.ravel(table[1])]), levels)
    on_u = i < np.size(table[0])
    row, idx = np.divmod(np.where(on_u, i, i - np.size(table[0]) - 1), grid.size)
    keep = np.flatnonzero((0 < idx) & (idx < grid.size - 1))
    if keep.size == 0:
        return grid, table
    on_u, row, idx = on_u[keep], row[keep], idx[keep]
    column = lambda xs, rows: np.where(on_u[rows], *curves(xs, row[rows]))
    extra = refine_extrema(column, grid[idx - 1], grid[idx + 1], maximize[keep])[0]
    extra = np.setdiff1d(extra, grid)
    at = np.searchsorted(grid, extra)
    flat = (at + grid.size * np.arange(np.size(table[0]) // grid.size)[:, None]).ravel()  # at, in every row
    grow = lambda v, x: np.insert(np.ravel(v), flat, np.ravel(x)).reshape(np.shape(v)[:-1] + (-1,))
    return np.insert(grid, at, extra), tuple(grow(v, x) for v, x in zip(table, curves(extra)))


def crossing_cells(table, levels, i0, i1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (level j, cell k, curve c) where t_j <= U (c = 0) or L <= t_j (c = 1)
    flips on grid cell k -> k + 1.

    table = (U, L) on a sorted grid of n points (or (rows, n) tables, every
    level scanned on every row, cell k of row r numbered r n + k), levels t
    sorted, and level j's window the grid points i0[j] .. i1[j] - 1 (i0 and
    i1 nondecreasing, as for equal-width windows about sorted levels); only
    cells inside the window are returned.  One searchsorted per column
    counts, at each grid point, the levels on the false side of each flag,
    NaN counting as +inf in L and -inf in U so that its flag is false; a
    cell flips level j on a curve exactly when j lies between the curve's
    counts at its two ends (given one level, where its flag changes), so a
    cell where both curves flip one level is listed twice.  The triples come
    back as the L crossings, then the U crossings, each sorted by cell, then level.
    """
    n_grid = np.shape(table[0])[-1]
    upper, lower = (np.ravel(v) for v in table)
    levels = np.atleast_1d(np.asarray(levels, float))
    m = levels.size
    # L <= t_j for j >= c_l; t_j <= U for j < m - c_u (searchsorted sorts NaN
    # above every level, so a NaN end is false for every level).
    if m == 1:  # the flags themselves
        c_l, c_u = lower <= levels[0], levels[0] <= upper
    else:
        c_l = np.searchsorted(levels, lower, "left")
        c_u = np.searchsorted(-levels[::-1], -upper, "left")
    k = np.flatnonzero((c_l[1:] != c_l[:-1]) | (c_u[1:] != c_u[:-1]))
    if m == 1:  # the cells of the window where each curve's flag flips
        k = k[(i0[0] <= k % n_grid) & (k % n_grid + 1 < i1[0])]
        on = np.concatenate([c_l[k] != c_l[k + 1], c_u[k] != c_u[k + 1]])
        return np.zeros(np.count_nonzero(on), int), np.concatenate([k, k])[on], 1 - np.flatnonzero(on) // k.size
    # The L flips of each cell, then its U flips, clipped to the levels whose
    # window holds the cell (i0[j] <= k and k + 1 < i1[j], so never a cell
    # from one row to the next).
    a = np.concatenate([c_l[k], m - c_u[k]])
    b = np.concatenate([c_l[k + 1], m - c_u[k + 1]])
    curve, k = np.repeat([1, 0], k.size), np.concatenate([k, k])
    cell = k % n_grid
    lo = np.maximum(np.minimum(a, b), np.searchsorted(i1, cell + 1, "right"))
    n = np.maximum(np.minimum(np.maximum(a, b), np.searchsorted(i0, cell, "right")) - lo, 0)
    end = np.cumsum(n)
    j = np.repeat(lo - end + n, n) + np.arange(end[-1] if end.size else 0)
    return j, np.repeat(k, n), np.repeat(curve, n)


def _member_stretches(cuts, group, curve, start, lo, hi):
    """(group, a, b) for every stretch on which both flags are set, in group order.

    Group g's flag on curve c is start[c, g] at lo[g] and flips at each of
    its cuts on that curve in [lo[g], hi[g]] (cuts in any order); empty
    stretches are dropped.
    """
    n_group = lo.size
    n_cut = np.bincount(group, minlength=n_group)
    order = np.lexsort((cuts, group))
    # Group g's edges lo[g], its sorted cuts, hi[g] as one block of the flat edges.
    block = (n_cut + 2).cumsum() - n_cut - 2
    at = np.arange(cuts.size) + 2 * group[order] + 1
    edges = np.empty(cuts.size + 2 * n_group)
    edges[block], edges[block + n_cut + 1], edges[at] = lo, hi, cuts[order]
    # Each curve's flip parity up to each edge, counted from its block's lo.
    odd = np.zeros((2, edges.size), int)
    odd[curve[order], at] = 1
    odd = odd.cumsum(axis=1) & 1
    group = np.repeat(np.arange(n_group), n_cut + 2)
    flag = np.logical_and(*(start[:, group] ^ (odd != odd[:, block[group]])))
    left, right = edges[:-1], edges[1:]
    on = flag[:-1] & (group[1:] == group[:-1]) & (right > left)
    return group[:-1][on], left[on], right[on]


def member_intervals(curves, levels, lo, hi, specials, reach=None):
    """Connected components of {x in [lo_j, hi_j] : L(x) <= t_j <= U(x)} for every level t_j.

    curves(xs) -> (U, L) is the curve pair, or one row per pair ((rows,
    len(xs)) arrays), and curves(xs, rows) gives row rows[k]'s pair at
    xs[k]; NaN values compare false.  levels are sorted with equal-width
    windows [lo_j, hi_j] (or scalars for one level), each scanned on every
    row, reach as in build_grid.  One endpoint table on a grid over the
    union of the windows passes through the graze_points sliver guard for
    all levels, the crossings of each curve come from crossing_cells, and
    every crossing is refined on its own curve's margin (U - t or t - L),
    read at its cell's ends alone, in one refine_boundaries batch, but for
    one whose other curve's flag is false at both cell ends, which cannot
    bound the set and keeps its flip at the cell's left end.  The set is
    where both flags hold.  Returns flat arrays (owner, a, b), owner =
    row * len(levels) + j, grouped by owner; touching stretches (within
    1e-15) of one owner are merged.
    """
    levels, lo, hi = (np.atleast_1d(np.asarray(v, float)) for v in (levels, lo, hi))
    grid = build_grid(lo, hi, specials, reach)
    grid, table = graze_points(grid, tuple(np.atleast_2d(v) for v in curves(grid)), levels, curves)
    i0, i1 = np.searchsorted(grid, lo, "left"), np.searchsorted(grid, hi, "right")
    owner, k, curve = crossing_cells(table, levels, i0, i1)
    (row, cell), t, ends, on_u = np.divmod(k, grid.size), levels[owner], np.array([k, k + 1]), curve == 0
    # A crossing bounds the set where the other curve's flag holds at an end
    # of its cell; it is refined on its own margin, U - t or t - L = -(L - t).
    u_end, l_end = (v.ravel()[ends] - t for v in table)
    bound = np.flatnonzero(np.where(on_u, np.fmin(*l_end) <= 0.0, np.fmax(*u_end) >= 0.0))
    g_lo, g_hi = np.where(on_u, u_end, -l_end)[:, bound]
    owner, (row, on_u, t_b, cell_b) = row * levels.size + owner, (v[bound] for v in (row, on_u, t, cell))

    def margin(xs, q):
        u = on_u[q]
        d = np.where(u, *curves(xs, row[q])) - t_b[q]
        return np.where(u, d, -d)

    cuts = grid[cell]
    cuts[bound] = refine_boundaries(margin, grid[cell_b], grid[cell_b + 1], g_lo, g_hi, BISECT_TOL)
    start = np.array([levels <= table[0][:, i0], table[1][:, i0] <= levels]).reshape(2, -1)
    lo, hi = (np.concatenate([v] * len(table[0])) for v in (lo, hi))
    owner, a, b = _member_stretches(cuts, owner, curve, start, lo, hi)
    touch = (a[1:] <= b[:-1] + 1e-15) & (owner[1:] == owner[:-1])
    new = np.flatnonzero(np.concatenate([[True], ~touch])[: a.size])
    return owner[new], a[new], b[np.concatenate([new[1:], [a.size]])[: new.size] - 1]


def sign_change_roots(fn, lo, hi, specials, accept_tol: float):
    """The roots of fn on the window [lo, hi]: the inner ends of the level set {fn >= 0}.

    fn(xs) returns (values, *tags): the values of fn and any further
    per-point arrays (the regime codes of an inversion), which come back
    evaluated at the roots from the one call that checks them, as (roots,
    *tags).  The set comes from one member_intervals call on the curve pair
    (fn, -inf) at level 0, whose U margin is fn itself, so the roots pass the
    same grid, sliver guard and boundary solver as every other level set,
    and a root pair between two grid points is found like any other sliver;
    NaN values of fn lie outside the set.  Stretch ends where |fn| exceeds
    accept_tol (jumps of a discontinuous fn and NaN edges, not roots) are
    dropped.  Tangent roots are not guaranteed.
    """
    curves = lambda xs, rows=None: (fn(xs)[0], np.full(np.shape(xs), -np.inf))
    _, a, b = member_intervals(curves, 0.0, lo, hi, specials)
    ends = np.sort(np.concatenate([a, b]))
    ends = ends[(lo < ends) & (ends < hi)]
    values, *tags = fn(ends)
    keep = np.flatnonzero(np.abs(values) <= accept_tol)
    keep = keep[np.diff(ends[keep], prepend=-np.inf) > 10.0 * BISECT_TOL]
    return (ends[keep], *(t[keep] for t in tags))
