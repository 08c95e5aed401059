"""Grid-scan utilities: membership sets, sign-change roots, extremum refinement.

The credible-set endpoints are piecewise smooth with isolated jumps, so
measurable sets like {x : L(x) <= t <= U(x)} are found by scanning a dense
grid, refining every flag transition by bisection, and guarding against
near-tangent slivers by locating local extrema of the endpoint curves that
graze a target level.  Grids, graze candidates and golden-section searches
are vectorized so that one pass can serve many windows and levels at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ScanSettings", "member_intervals", "sign_change_roots"]


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


def bisect_iters(width: float, tol: float) -> int:
    if width <= tol:
        return 1
    return min(80, int(math.ceil(math.log2(width / tol))) + 1)


def refine_flag_boundaries(pred, lo, hi, lo_flag, iters: int) -> np.ndarray:
    """Vectorized boolean bisection: one transition point per (lo, hi) cell."""
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        same = pred(mid) == lo_flag
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
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
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = sgn * fn(c)
    fd = sgn * fn(d)
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
    pred,
    lo: float,
    hi: float,
    specials,
    scan: ScanSettings,
    graze=None,
) -> list[tuple[float, float]]:
    """Connected components of {x in [lo, hi] : pred(x)} via scan + bisection.

    pred is a vectorized boolean predicate.  graze, when given, maps the
    evaluated grid to extra abscissas worth sampling (sliver protection);
    the grid is rebuilt once with those points included.
    """
    grid = build_grid(lo, hi, specials, scan)
    flags = pred(grid)
    if graze is not None:
        extra = [p for p in graze(grid) if lo < p < hi]
        if extra:
            grid = np.unique(np.concatenate([grid, np.asarray(extra, float)]))
            flags = pred(grid)
    trans = np.nonzero(flags[1:] != flags[:-1])[0]
    if trans.size:
        iters = bisect_iters(float(np.max(grid[trans + 1] - grid[trans])), scan.bisect_tol)
        cuts = refine_flag_boundaries(pred, grid[trans], grid[trans + 1], flags[trans], iters)
    else:
        cuts = np.empty(0)
    edges = np.concatenate([[lo], cuts, [hi]])
    out = []
    state = bool(flags[0])
    for a, b in zip(edges[:-1], edges[1:]):
        if state and b > a:
            out.append((float(a), float(b)))
        state = not state
    return _merge_touching(out)


def _merge_touching(intervals):
    merged = []
    for a, b in intervals:
        if merged and a <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def sign_change_roots(
    fn,
    lo: float,
    hi: float,
    specials,
    scan: ScanSettings,
    accept_tol: float,
) -> np.ndarray:
    """All simple roots of fn on [lo, hi] found by sign-change scanning.

    Cells whose endpoints have opposite finite signs are refined by
    bisection; converged points where |fn| exceeds accept_tol (jumps of a
    discontinuous fn, not roots) are dropped.  Tangent (even-order) roots
    between grid points are not detected.
    """
    grid = build_grid(lo, hi, specials, scan)
    vals = fn(grid)
    finite = np.isfinite(vals)
    exact = grid[finite & (vals == 0.0)]
    sign = np.sign(vals)
    cells = np.nonzero(finite[:-1] & finite[1:] & (sign[:-1] * sign[1:] < 0))[0]
    roots = [exact]
    if cells.size:
        lo_x = grid[cells].astype(float).copy()
        hi_x = grid[cells + 1].astype(float).copy()
        lo_s = sign[cells]
        iters = bisect_iters(float(np.max(hi_x - lo_x)), scan.bisect_tol)
        for _ in range(iters):
            mid = 0.5 * (lo_x + hi_x)
            same = np.sign(fn(mid)) == lo_s
            lo_x = np.where(same, mid, lo_x)
            hi_x = np.where(same, hi_x, mid)
        cand = 0.5 * (lo_x + hi_x)
        ok = np.abs(fn(cand)) <= accept_tol
        roots.append(cand[ok])
    allr = np.sort(np.concatenate(roots))
    if allr.size > 1:
        keep = np.concatenate([[True], np.diff(allr) > 10.0 * scan.bisect_tol])
        allr = allr[keep]
    return allr
