"""Grid-scan utilities: membership sets, sign-change roots, extremum refinement.

The credible-set endpoints are piecewise smooth with isolated jumps, so
measurable sets like {x : L(x) <= t <= U(x)} are found by scanning a dense
grid, refining every flag transition with one vectorised multisection
solver, and guarding against near-tangent slivers by locating local extrema
of the endpoint curves that graze a target level.  A multisection round
evaluates sections - 1 interior points of every open cell in one call, so a
boundary reaches bisect_tol / 2 in ceil(iters / log2(sections)) rounds, not
the iters rounds of bisection (four or five instead of 26-30 for the few
cells of a query), jump cells included; section_count sizes the sections
from the cell count.  Everything is vectorized so that one pass can serve
many windows and levels at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ScanSettings", "member_intervals", "sign_change_roots"]

# Fixed cost of one predicate call in points' worth: an endpoint table costs
# 120-300 us per call plus 0.13-0.5 us per point.  Median of 10 interleaved
# runs on a 2-vCPU VM, this rule / fixed 32 / fixed 16 sections: 48
# post-selection sets and 96 inversions 0.72 / 0.80 / 0.85 s, figure 1 at
# --fig-grid-n 4 0.42 / 0.41 / 0.42 s, laplace bounds 0.18 / 0.19 / 0.19 s.
_CALL_POINTS = 2000


def section_count(n_cells: int, iters: int) -> int:
    """The power of two from 2 to 128 minimising rounds x (call cost + points
    per round) for n_cells cells needing iters bisection steps: wide rounds
    for the few cells of a query, narrow ones for batches of hundreds."""
    bits = min(range(1, 8), key=lambda b: -(-iters // b) * (_CALL_POINTS + n_cells * ((1 << b) - 1)))
    return 1 << bits


@dataclass(frozen=True)
class ScanSettings:
    """Resolution controls for membership and inversion scans.

    n_base points cover the whole window, with n_dense extra points in a
    unit-halfwidth block around each special abscissa (band edges, atom
    threshold, target point).  tol_tail is the error-law mass allowed to
    fall outside truncated windows; bisect_tol is the abscissa accuracy of
    every refined boundary or root.
    """

    n_base: int = 4096
    n_dense: int = 512
    tol_tail: float = 1e-9
    bisect_tol: float = 1e-10

    def __post_init__(self):
        if self.n_base < 16 or self.n_dense < 0:
            raise ValueError("scan grid too small")
        if not 0.0 < self.tol_tail < 1.0:
            raise ValueError(f"tol_tail must lie in (0, 1), got {self.tol_tail}")
        if not 0.0 < self.bisect_tol < 1.0:
            raise ValueError("bisect_tol must lie in (0, 1)")


def build_grid(lo, hi, specials, scan: ScanSettings) -> np.ndarray:
    """Sorted deduplicated grid over [lo, hi] densified near special points.

    lo and hi may also be sorted arrays of equal-width windows: the grid then
    covers their union, each connected piece at one window's base step
    (hi - lo) / (n_base - 1), with every window edge a grid point.  Each
    special abscissa gets n_dense points on its unit-halfwidth block clipped
    to the piece and is itself a grid point when inside it.
    """
    lo, hi = np.atleast_1d(np.asarray(lo, float)), np.atleast_1d(np.asarray(hi, float))
    if not np.all(lo < hi):
        raise ValueError(f"empty scan window [{lo[0]}, {hi[0]}]")
    pts = np.array([p for p in specials if p is not None], float)
    pts = pts[np.isfinite(pts)]
    step = (hi[0] - lo[0]) / (scan.n_base - 1)
    breaks = np.nonzero(lo[1:] > hi[:-1])[0]
    parts = [lo, hi]
    for a, b in zip(np.concatenate([lo[:1], lo[breaks + 1]]), np.concatenate([hi[breaks], hi[-1:]])):
        parts.append(np.linspace(a, b, int(math.ceil((b - a) / step - 1e-6)) + 1))
        lo_d, hi_d = np.maximum(a, pts - 1.0), np.minimum(b, pts + 1.0)
        keep = lo_d < hi_d
        parts.append(np.linspace(lo_d[keep], hi_d[keep], scan.n_dense, axis=-1).ravel())
        parts.append(pts[(a <= pts) & (pts <= b)])
    return np.unique(np.concatenate(parts))


def bisect_iters(widths, tol: float) -> int:
    """Bisection steps that bring the widest cell to tol (0 for no cells)."""
    if np.size(widths) == 0:
        return 0
    return min(80, math.ceil(math.log2(max(float(np.max(widths)), tol) / tol)) + 1)


def refine_flag_boundaries(pred, lo, hi, lo_flag, iters: int) -> np.ndarray:
    """Vectorized multisection: one transition point per (lo, hi) cell.

    pred(xs, rows) gives the boolean flags at the flat abscissas xs, where
    rows[k] is the index of the cell xs[k] belongs to (for per-cell context
    such as a level or a predicate kind).  Each round evaluates sections - 1
    interior points of every cell in one call (sections from section_count)
    and keeps the first sub-cell whose right end has left lo_flag, so
    ceil(iters / log2(sections)) rounds narrow every cell at least as far as
    iters bisection steps.  Returns the final cell midpoints; no call is
    made for an empty cell array.
    """
    lo, hi = np.array(lo, float), np.array(hi, float)
    n = lo.size
    if n == 0:
        return lo
    sections = section_count(n, iters)
    lo_flag = np.broadcast_to(lo_flag, (n,))[:, None]
    rows = np.repeat(np.arange(n), sections - 1)
    at = np.arange(n)
    for _ in range(-(-iters // (sections.bit_length() - 1))):
        xs = lo[:, None] + (hi - lo)[:, None] * (np.arange(1, sections) / sections)
        left = np.ones((n, sections), dtype=bool)
        left[:, :-1] = pred(xs.ravel(), rows).reshape(n, sections - 1) != lo_flag
        k = np.argmax(left, axis=1)
        ends = np.column_stack([lo, xs, hi])
        lo, hi = ends[at, k], ends[at, k + 1]
    return 0.5 * (lo + hi)


def graze_cells(vals: np.ndarray, levels) -> tuple[np.ndarray, np.ndarray]:
    """Grid extrema of ``vals`` that may graze one of ``levels`` between grid points.

    A local maximum sitting just below a level (or a local minimum just
    above) can hide a membership sliver narrower than the grid step.  Returns
    the indices of such extrema (detected from slope sign changes, within
    four local slope spans of the nearest level on the grazing side) and
    whether each is a maximum.
    """
    levels = np.sort(np.atleast_1d(np.asarray(levels, float)))
    dv = np.diff(vals)
    with np.errstate(invalid="ignore"):
        peak = (dv[:-1] > 0) & (dv[1:] < 0)
        pit = (dv[:-1] < 0) & (dv[1:] > 0)
    idx = np.nonzero(peak | pit)[0] + 1
    maximize = peak[idx - 1]
    v = vals[idx]
    # the nearest level at or above a peak, at or below a pit
    j = np.where(maximize, np.searchsorted(levels, v, "left"), np.searchsorted(levels, v, "right") - 1)
    ok = (j >= 0) & (j < levels.size)
    level = levels[np.clip(j, 0, levels.size - 1)]
    margin = np.where(maximize, level - v, v - level)
    span = np.abs(dv[idx - 1]) + np.abs(dv[idx])
    with np.errstate(invalid="ignore"):
        ok &= np.isfinite(margin) & np.isfinite(span) & (margin >= 0.0) & (margin < 4.0 * span)
    return idx[ok], maximize[ok]


def graze_points(grid: np.ndarray, vals: np.ndarray, level, fn) -> list[float]:
    """Refined local extrema of fn that graze ``level`` (one or more levels)
    between grid points, located by golden-section search on fn."""
    idx, maximize = graze_cells(vals, level)
    return golden_extrema(fn, grid[idx - 1], grid[idx + 1], maximize).tolist()


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_extrema(fn, a, b, maximize, iters: int = 60) -> np.ndarray:
    """Vectorized golden-section search: one extremum of fn per bracket [a_i, b_i].

    fn maps an abscissa array to values elementwise; ``maximize`` selects a
    maximum or a minimum per bracket.  The search stops once every bracket
    is narrower than 1e-13 relative; brackets that got there earlier keep
    shrinking meanwhile, which only sharpens them.
    """
    a, b = np.array(a, float), np.array(b, float)
    if a.size == 0:
        return a
    sgn = np.where(maximize, 1.0, -1.0)
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = sgn * fn(c), sgn * fn(d)
    for _ in range(iters):
        if np.all(b - a < 1e-13 * (1.0 + np.abs(a))):
            break
        # fc > fd: the extremum lies in [a, d], else in [c, b]
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = sgn * fn(x)
        c, d, fc, fd = np.where(left, x, d), np.where(left, c, x), np.where(left, fx, fd), np.where(left, fc, fx)
    return 0.5 * (a + b)


def member_intervals(
    pred, lo: float, hi: float, specials, scan: ScanSettings, graze=None
) -> list[tuple[float, float]]:
    """Connected components of {x in [lo, hi] : pred(x)} via scan + multisection.

    pred(xs) returns the membership flags at xs together with the curve
    table they were computed from, as (flags, table).  graze, when given,
    maps the grid and its table to extra abscissas worth sampling (sliver
    protection), so the table is evaluated once for both; the extras alone
    are then evaluated and merged into the grid.
    """
    grid = build_grid(lo, hi, specials, scan)
    flags, table = pred(grid)
    if graze is not None:
        extra = np.setdiff1d([p for p in graze(grid, table) if lo < p < hi], grid)
        if extra.size:
            at = np.searchsorted(grid, extra)
            grid, flags = np.insert(grid, at, extra), np.insert(flags, at, pred(extra)[0])
    trans = np.flatnonzero(flags[1:] != flags[:-1])
    a, b = grid[trans], grid[trans + 1]
    iters = bisect_iters(b - a, scan.bisect_tol)
    cuts = refine_flag_boundaries(lambda xs, rows: pred(xs)[0], a, b, flags[trans], iters)
    # Member stretches alternate between cuts from the flag at lo; stretches
    # that touch (within 1e-15) are merged.
    edges = np.concatenate([[lo], cuts, [hi]])[0 if flags[0] else 1 :]
    a, b = edges[0:-1:2], edges[1::2]
    a, b = a[b > a], b[b > a]
    new = np.flatnonzero(a > np.append(-np.inf, b[:-1])[: a.size] + 1e-15)
    return list(zip(a[new].tolist(), b[np.append(new[1:], a.size)[: new.size] - 1].tolist()))


def sign_change_roots(fn, lo, hi, specials, scan: ScanSettings, accept_tol: float) -> np.ndarray:
    """All simple roots of fn on [lo, hi] found by sign-change scanning.

    lo and hi may be arrays of equal-width windows, scanned as one union
    grid (see build_grid); a cell between two windows is refined only if fn
    is finite at both of its ends.  Cells whose ends have opposite finite
    signs are refined in one multisection batch; converged points where
    |fn| exceeds accept_tol (jumps of a discontinuous fn, not roots) are
    dropped.  Tangent (even-order) roots between grid points are not
    detected.
    """
    grid = build_grid(lo, hi, specials, scan)
    vals = fn(grid)
    finite, sign = np.isfinite(vals), np.sign(vals)
    cells = np.flatnonzero(finite[:-1] & finite[1:] & (sign[:-1] * sign[1:] < 0))
    a, b, lo_sign = grid[cells], grid[cells + 1], sign[cells]
    iters = bisect_iters(b - a, scan.bisect_tol)
    cand = refine_flag_boundaries(lambda xs, rows: np.sign(fn(xs)) == lo_sign[rows], a, b, True, iters)
    if cand.size:
        cand = cand[np.abs(fn(cand)) <= accept_tol]
    allr = np.sort(np.concatenate([grid[finite & (vals == 0.0)], cand]))
    return allr[np.diff(allr, prepend=-np.inf) > 10.0 * scan.bisect_tol]
