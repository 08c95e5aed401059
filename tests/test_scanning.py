import math
import warnings

import numpy as np
import pytest

import hpdcover.hpd as hpd_mod
import hpdcover.posterior as posterior_mod
import hpdcover.scanning as scanning_mod
from hpdcover import PriorConfig, invert_upper, post_selection_set, smallest_lower_inverse
from hpdcover.cli import parse_dist_spec
from hpdcover.scanning import (
    BISECT_TOL,
    N_BASE,
    bisect_iters,
    build_grid,
    crossing_cells,
    graze_cells,
    graze_points,
    member_intervals,
    refine_boundaries,
    refine_extrema,
    section_count,
    sign_change_roots,
)

TOL = BISECT_TOL


@pytest.fixture
def coarse(monkeypatch):
    """Narrow scan grids of 256 base points: a step wide enough to hide a
    sliver between grid points, and exact step figures to check."""
    monkeypatch.setattr(scanning_mod, "_SCAN_POINTS", 256)


def _ladder(p, step):
    """p and the rungs p +- TOL 8^j for j = -1, 0, 1, ... up to the first
    rung at or past step."""
    j = -1
    while TOL * 8.0**j < step:
        j += 1
    rungs = TOL * 8.0 ** np.arange(-1.0, j + 1.0)
    return p + np.concatenate([-rungs[::-1], [0.0], rungs])


def _one_window_grid(lo, hi, specials, n_scan):
    """The single-window rule written out: n_scan points from lo to hi, and
    each special's ladder at that step, kept inside the window."""
    step = (hi - lo) / (n_scan - 1)
    pts = [p for p in specials if p is not None and math.isfinite(p)]
    ladders = np.concatenate([[], *(_ladder(p, step) for p in pts)])
    inside = ladders[(lo <= ladders) & (ladders <= hi)]
    return np.unique(np.concatenate([[lo, hi], np.linspace(lo, hi, n_scan), inside]))


def test_build_grid_single_window(coarse):
    grid = build_grid(-3.0, 5.0, [0.5, None, math.inf, 9.0])
    assert grid[0] == -3.0 and grid[-1] == 5.0
    assert np.all(np.diff(grid) > 0)
    assert 0.5 in grid
    assert np.max(np.diff(grid)) <= 8.0 / 255 * (1 + 1e-12)
    # The ladder about 0.5 has 12 rungs a side, TOL / 8 out to TOL 8^10 =
    # 0.107, the first past the step 8 / 255; within 0.01 of 0.5 (no base
    # point) the grid is its 21 inner points.
    ladder = _ladder(0.5, 8.0 / 255)
    assert ladder.size == 25 and np.all(np.isin(ladder, grid))
    assert np.array_equal(grid[np.abs(grid - 0.5) < 0.01], ladder[2:-2])
    with pytest.raises(ValueError):
        build_grid(1.0, 1.0, [])


def test_build_grid_names_the_empty_window():
    # The first window with lo >= hi or a NaN edge is named, not the batch's first.
    with pytest.raises(ValueError, match=r"^empty scan window \[5\.0, 5\.0\]$"):
        build_grid(np.array([0.0, 1.0, 5.0]), np.array([2.0, 3.0, 5.0]), [])
    with pytest.raises(ValueError, match=r"^empty scan window \[1\.0, nan\]$"):
        build_grid(np.array([0.0, 1.0, 4.0]), np.array([2.0, np.nan, 6.0]), [])


@pytest.mark.parametrize(
    "lo, hi, specials",
    [(-3.0, 5.0, [0.5, None, math.inf, 9.0]), (0.137 - 6.3, 0.137 + 6.3, [0.5, -0.5, 2.9, -2.9]),
     (1e3, 1e3 + 0.7, [1e3 + 0.2]), (-40.0, 11.0, [])],
)
@pytest.mark.parametrize("n_scan", [256, scanning_mod._SCAN_POINTS], ids=["scan0", "scan1"])
def test_build_grid_one_window_keeps_the_single_window_rule(monkeypatch, lo, hi, specials, n_scan):
    # One window, passed as scalars or as length-1 arrays, gets _SCAN_POINTS
    # points at step (hi - lo) / (_SCAN_POINTS - 1), bit for bit.
    monkeypatch.setattr(scanning_mod, "_SCAN_POINTS", n_scan)
    want = _one_window_grid(lo, hi, specials, n_scan)
    assert np.array_equal(build_grid(lo, hi, specials), want)
    assert np.array_equal(build_grid(np.array([lo]), np.array([hi]), specials), want)


def _base_points(grid, a, b):
    return grid[(a <= grid) & (grid <= b)]


def test_build_grid_disjoint_windows_share_one_step(coarse):
    # Pieces [0, 8] and [20, 28] (two windows of width 8): 256 points over
    # their total length 16, so the step is 16 / 255 on both pieces and each
    # is evenly spaced from edge to edge with ceil(length / step) = 128 cells.
    two = build_grid(np.array([0.0, 20.0]), np.array([8.0, 28.0]), [])
    assert np.array_equal(two, np.union1d(np.linspace(0.0, 8.0, 129), np.linspace(20.0, 28.0, 129)))
    # Pieces [0, 11] and [20, 28] (three windows): their total length 19 is
    # past (8 + N_BASE / 64 * 4) (255 / 4095) = 16.4, so the step stops at
    # the wide-union bound 264 / 4095 on both pieces: 171 cells on the
    # first, 125 on the second.
    lo = np.array([0.0, 3.0, 20.0])
    grid = build_grid(lo, lo + 8.0, [])
    step = (8.0 + N_BASE / 64.0 * 4.0) / (N_BASE - 1)
    first = np.union1d(np.linspace(0.0, 11.0, 172), [3.0, 8.0])
    assert np.array_equal(_base_points(grid, 0.0, 11.0), first)
    assert np.array_equal(_base_points(grid, 20.0, 28.0), np.linspace(20.0, 28.0, 126))
    assert grid.size == 172 + 126 + 2
    assert np.all(np.isin(np.concatenate([lo, lo + 8.0]), grid))
    # Specials add their ladders at that step on the piece that holds them,
    # cut at the piece's end, and a special in the gap adds nothing.
    dense = build_grid(lo, lo + 8.0, [5.0, 27.95, 15.0])
    ladders = np.concatenate([_ladder(5.0, step), _ladder(27.95, step)])
    assert np.array_equal(dense, np.union1d(grid, ladders[ladders <= 28.0]))
    assert np.count_nonzero(ladders > 28.0) == 1 and 15.0 not in dense


def test_build_grid_overlap_is_one_piece(coarse):
    # Three overlapping windows of width 8 make one piece [0, 12.5]: 256
    # evenly spaced points at step 12.5 / 255 (not 8 / 255), plus the inner
    # window edges.
    lo = np.array([0.0, 3.0, 4.5])
    edges = np.concatenate([lo, lo + 8.0])
    grid = build_grid(lo, lo + 8.0, [])
    assert np.array_equal(grid, np.union1d(np.linspace(0.0, 12.5, 256), edges))
    assert np.max(np.diff(grid)) <= 12.5 / 255 * (1 + 1e-12)
    dense = build_grid(lo, lo + 8.0, [2.0])
    assert dense[0] == 0.0 and dense[-1] == 12.5 and 2.0 in dense
    assert np.all(np.isin(edges, dense)) and np.all(np.isin(grid, dense))


@pytest.mark.parametrize("n_base, least", [(N_BASE, 124), (256, 85)], ids=["scan0-124", "scan1-85"])
def test_build_grid_caps_the_step_of_a_wide_union(monkeypatch, n_base, least):
    # 201 windows of width 12 five apart make one piece [0, 1012], wider
    # than a window plus N_BASE / 128 spans of 2 reach = 12: the step is
    # capped at (12 + N_BASE / 64 * 6) / (N_BASE - 1), and every window
    # keeps at least (N_BASE - 1) / (1 + N_BASE / 128) base points.
    monkeypatch.setattr(scanning_mod, "N_BASE", n_base)
    lo = np.linspace(0.0, 1000.0, 201)
    edges = np.concatenate([lo, lo + 12.0])
    grid = build_grid(lo, lo + 12.0, [])
    step = (12.0 + n_base / 64.0 * 6.0) / (n_base - 1)
    base = np.linspace(0.0, 1012.0, math.ceil(1012.0 / step - 1e-6) + 1)
    assert np.array_equal(grid, np.union1d(base, edges))
    assert np.max(np.diff(base)) <= step * (1 + 1e-12)
    per_window = np.searchsorted(base, lo + 12.0, "right") - np.searchsorted(base, lo, "left")
    assert per_window.min() >= least
    # The same windows under the default reach of width / 2.
    assert np.array_equal(build_grid(lo, lo + 12.0, [], 6.0), grid)


def test_build_grid_resolves_one_sided_member_spans():
    # One-sided-shaped windows: 1,305 wide, their crossings within reach
    # 3.7 of the level (t3 member sets are about 7 wide).  Thirty levels
    # about 100 apart share one piece over 4,300 wide, and each 2 reach
    # span about a level still holds at least 19 grid points.
    levels = np.linspace(6.0, 3000.0, 30)
    grid = build_grid(levels - 1301.3, levels + 3.7, [], 3.7)
    per_span = np.searchsorted(grid, levels + 3.7, "right") - np.searchsorted(grid, levels - 3.7, "left")
    assert per_span.min() >= 19
    assert grid.size < 3 * N_BASE


_KINKS = np.array([0.3137, -2.5, 40.0])

EXTREMUM_CASES = {
    # cos has maxima at 0 and 2 pi and a minimum at pi; each bracket holds
    # one.  A smooth extremum is flat to rounding within about 1e-8.
    "cos-mixed": (
        lambda xs, rows: np.cos(xs),
        np.array([-0.5, np.pi - 0.3, 2.0 * np.pi - 0.2]),
        np.array([0.4, np.pi + 0.6, 2.0 * np.pi + 0.7]),
        np.array([True, False, True]),
        np.array([0.0, np.pi, 2.0 * np.pi]),
        1e-7,
    ),
    # |x - c| with c per bracket: the kink is found to the stopping width.
    "kink": (lambda xs, rows: np.abs(xs - _KINKS[rows]), _KINKS - 0.7, _KINKS + 1.1, False, _KINKS, 0.0),
    # Monotone fn: the extremum is the bracket end, approached from inside.
    "monotone": (
        lambda xs, rows: xs**3,
        np.array([1.0, 1.0, -7.0]),
        np.array([2.0, 2.0, -3.0]),
        np.array([True, False, True]),
        np.array([2.0, 1.0, -3.0]),
        0.0,
    ),
    # NaN samples (as U and L on the atom region) are never the best: the
    # maximum of -x right of the NaN stretch is its edge 0.25, and the pit of
    # |x - 0.6| is found past the NaNs left of 0.5.
    "nan-interior": (
        lambda xs, rows: np.where(xs < 0.25 + 0.25 * rows, np.nan, np.where(rows == 0, -xs, np.abs(xs - 0.6))),
        np.array([-1.0, -1.0]),
        np.array([1.0, 1.0]),
        np.array([True, False]),
        np.array([0.25, 0.6]),
        0.0,
    ),
}


@pytest.mark.parametrize("case", EXTREMUM_CASES)
def test_refine_extrema_rounds_and_accuracy(case):
    fn, lo, hi, maximize, expected, atol = EXTREMUM_CASES[case]
    calls = []

    def counted(xs, rows):
        calls.append(xs.size)
        return fn(xs, rows)

    found, best = refine_extrema(counted, lo, hi, maximize)
    # Every bracket ends narrower than 1e-13 (1 + |x|), the stopping rule.
    assert np.all(np.abs(found - expected) <= max(atol, 1e-13) * (1.0 + np.abs(expected)))
    # The best value is fn at the returned midpoint, up to its rounding.
    assert np.allclose(best, fn(found, np.arange(lo.size)), rtol=0.0, atol=1e-12)
    # Each round samples m - 1 interior points per bracket in one call and
    # keeps two of the m sub-cells, gaining log2(m / 2) halvings.
    iters = bisect_iters((hi - lo) / (1.0 + np.maximum(0.0, np.maximum(lo, -hi))), 1e-13)
    sections = section_count(lo.size, iters, keep=2)
    assert 4 <= sections <= 128
    assert len(calls) == math.ceil(iters / math.log2(sections / 2))
    assert set(calls) == {lo.size * (sections - 1)}


def test_refine_extrema_empty_input_makes_no_call():
    def fn(xs, rows):
        raise AssertionError("fn called on no brackets")

    out, best = refine_extrema(fn, [], [], [])
    assert isinstance(out, np.ndarray) and out.size == 0 and best.size == 0


@pytest.mark.parametrize(
    "vals",
    [np.full(50, -np.inf), np.array([0.0, 1.0, 2.0, np.inf, np.inf, np.inf, 2.0, 1.0, 0.0])],
    ids=["all_minus_inf", "plus_inf_stretch"],
)
def test_graze_cells_non_finite_columns(vals):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx, maximize = graze_cells(vals, [0.0, 2.5])
    assert idx.size == 0 and maximize.size == 0


def test_graze_cells_flat_topped_extrema():
    # The grid is symmetric about 2 pi, so the two grid values around the cos
    # peak there are equal; the peak is a candidate at the flat stretch's end.
    grid = np.linspace(0.0, 4.0 * np.pi, 200)
    vals = np.cos(grid)
    assert vals[99] == vals[100]
    idx, maximize = graze_cells(vals, 1.0 + 1e-6)
    assert idx.tolist() == [100] and maximize.tolist() == [True]
    assert grid[idx - 1] < 2.0 * np.pi < grid[idx + 1]
    assert graze_cells(-vals, -1.0 - 1e-6)[0].tolist() == [100]
    # A rise into a flat stretch and a further rise (U = -lam on regime IV)
    # is no extremum, at any level near the flat value.
    assert graze_cells(np.array([-3.0, -2.0, -2.0, -2.0, -1.0]), [-2.0 - 1e-9, -2.0, -2.0 + 1e-9])[0].size == 0


def test_graze_points_multiple_levels():
    # U = sin has peaks of value 1 at pi/2, 5pi/2 and pits of -1 at 3pi/2,
    # 7pi/2; L = cos(x - 1) peaks at 1, 1 + 2pi and has pits at 1 + pi,
    # 1 + 3pi.  Only levels just above a peak or just below a pit make them
    # grazing candidates, refined for both columns at once.
    grid = np.linspace(0.0, 4.0 * np.pi, 200)
    calls = []

    def curves(xs, rows=None):
        calls.append(xs.size)
        return np.sin(xs), np.cos(xs - 1.0)

    table = curves(grid)

    def added(levels):
        calls.clear()
        new_grid, new_table = graze_points(grid, table, levels, curves)
        extra = np.setdiff1d(new_grid, grid)
        assert new_grid.size == grid.size + extra.size and np.all(np.diff(new_grid) > 0)
        assert all(np.array_equal(v, ref) for v, ref in zip(new_table, (np.sin(new_grid), np.cos(new_grid - 1.0))))
        # Every extremum-mode round is one call for both curves, and the final
        # call evaluates the new abscissas alone.
        assert not calls or (calls[-1] == extra.size and len(set(calls[:-1])) == 1)
        return extra

    assert added(5.0).size == 0 and calls == []
    assert graze_points(grid, table, 5.0, curves)[0] is grid
    peaks = added(1.0 + 1e-6)
    pits = added(-1.0 - 1e-6)
    both = added([-1.0 - 1e-6, 1.0 + 1e-6])
    assert np.allclose(peaks, np.sort([0.5 * np.pi, 2.5 * np.pi, 1.0, 1.0 + 2.0 * np.pi]), rtol=0.0, atol=1e-7)
    assert np.allclose(pits, np.sort([1.5 * np.pi, 3.5 * np.pi, 1.0 + np.pi, 1.0 + 3.0 * np.pi]), rtol=0.0, atol=1e-7)
    assert np.allclose(both, np.sort(np.concatenate([peaks, pits])), rtol=0.0, atol=1e-12)


def _grid_parts(lo, hi, specials, reach=None):
    """build_grid's parts in the order it concatenates them: the window
    edges, then per piece of the union its base points and ladder points."""
    lo, hi = np.atleast_1d(np.asarray(lo, float)), np.atleast_1d(np.asarray(hi, float))
    pts = np.array([p for p in specials if p is not None and math.isfinite(p)], float)
    breaks = np.flatnonzero(lo[1:] > hi[:-1])
    starts, ends = np.append(lo[0], lo[breaks + 1]), np.append(hi[breaks], hi[-1])
    width = hi[0] - lo[0]
    span = width + N_BASE / 64.0 * (0.5 * width if reach is None else reach)
    step = min(np.sum(ends - starts) / (scanning_mod._SCAN_POINTS - 1), span / (N_BASE - 1))
    rungs = TOL * 8.0 ** (np.arange(2 + max(0, math.ceil(math.log(step / TOL, 8)))) - 1.0)
    ladder = (pts[:, None] + np.concatenate([-rungs[::-1], rungs, [0.0]])).ravel()
    parts = [lo, hi]
    for a, b in zip(starts, ends):
        parts += [np.linspace(a, b, math.ceil((b - a) / step - 1e-6) + 1), ladder[(a <= ladder) & (ladder <= b)]]
    return parts


@pytest.mark.parametrize(
    "lo, hi, specials",
    [
        ([-0.0], [1.0], [0.0, -0.0]),
        ([-1.0], [-0.0], [0.0, -0.5]),
        ([0.0], [1.0], [-0.0, 0.25]),
        ([0.0], [scanning_mod._SCAN_POINTS - 1.0], [7.0, 100.0, 1000.5]),
        ([-0.0, 0.3, 10.0, 10.2], [2.0, 2.3, 12.0, 12.2], [1.0, 10.5, 100.0, None]),
    ],
    ids=["minus_zero_edge", "minus_zero_end", "plus_zero_edge", "specials_on_base_points", "batch"],
)
def test_build_grid_is_np_unique_of_its_parts(lo, hi, specials):
    # The sort and duplicate mask keep np.unique's grid bit for bit: which of
    # a -0.0 window edge and the +0.0 base and ladder points stays is its
    # sort's choice, and a special on a base point (step 1 on [0, _SCAN_POINTS - 1])
    # is one grid point.
    got = build_grid(np.array(lo), np.array(hi), specials)
    want = np.unique(np.concatenate(_grid_parts(lo, hi, specials)))
    assert np.count_nonzero(got == 0.0) == (min(lo) <= 0.0 <= max(hi))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _graze_points_by_column(grid, table, levels, curves):
    """The sliver guard with one graze_cells pass per column, U then L."""
    (iu, max_u), (il, max_l) = (graze_cells(np.ravel(v), levels) for v in table)
    row, idx = np.divmod(np.concatenate([iu, il]), grid.size)
    keep = np.flatnonzero((0 < idx) & (idx < grid.size - 1))
    if keep.size == 0:
        return grid, table
    on_u, row, idx = keep < iu.size, row[keep], idx[keep]
    column = lambda xs, rows: np.where(on_u[rows], *curves(xs, row[rows]))
    extra = refine_extrema(column, grid[idx - 1], grid[idx + 1], np.concatenate([max_u, max_l])[keep])[0]
    extra = np.setdiff1d(extra, grid)
    at = np.searchsorted(grid, extra)
    flat = (at + grid.size * np.arange(np.size(table[0]) // grid.size)[:, None]).ravel()
    grow = lambda v, x: np.insert(np.ravel(v), flat, np.ravel(x)).reshape(np.shape(v)[:-1] + (-1,))
    return np.insert(grid, at, extra), tuple(grow(v, x) for v, x in zip(table, curves(extra)))


def _graze_case(law, kind):
    """(grid, table, levels, curves) of a scan whose table has a graze candidate."""
    if kind == "column":
        # A coverage-style column config, one row per w, with a level 1e-6
        # below each row's min U beyond the band edge.
        base = PriorConfig(parse_dist_spec(law), 2.0, 1.0, 0.05)
        cfg = posterior_mod._with_w(base, np.array([[0.25], [0.5], [1.0]]))
        curves = lambda xs, rows=np.arange(3)[:, None]: hpd_mod.endpoint_values(posterior_mod._rows(cfg, rows), xs)
        lows = [hpd_mod._upper_profile(PriorConfig(base.dist, 2.0, w, 0.05), 10.0)[0] - 1e-6 for w in (0.25, 0.5, 1.0)]
        levels = np.sort(np.concatenate([np.linspace(2.5, 6.0, 6), lows]))
        half, t_alpha = hpd_mod._half_width(cfg), np.ravel(cfg.t_alpha)
        grid = build_grid(levels - half, levels + half, [2.0, -2.0, *t_alpha, *-t_alpha])
        return grid, curves(grid), levels, curves
    # The post-selection pins of test_scan_pins 1e-6 below min U, and an
    # inversion at that target: U - theta0 and sign_change_roots' -inf column.
    x = {"laplace": 7.996593500395057, "t3": 8.236196453628608, "subexp:0.5": 32.45316974683144}[law]
    cfg = PriorConfig(parse_dist_spec(law), 5.0, 1.0, 0.05)
    if kind == "inversion":
        curves = lambda xs, rows=None: (hpd_mod.upper_values(cfg, xs) - x, np.full(np.shape(xs), -np.inf))
        levels = [0.0]
    else:
        curves = lambda xs, rows=None: hpd_mod.endpoint_values(cfg, xs)
        levels = [x]
    grid = build_grid(*hpd_mod._set_window(cfg, x), [5.0, -5.0, x, -x])
    return grid, tuple(np.atleast_2d(v) for v in curves(grid)), levels, curves


@pytest.mark.parametrize(
    "law, kind",
    [("laplace", "post_selection"), ("t3", "post_selection"), ("subexp:0.5", "post_selection"),
     ("laplace", "column"), ("laplace", "inversion")],
)
def test_graze_points_one_pass_matches_the_column_passes(law, kind):
    # One graze_cells pass over U and L laid end to end, a NaN between them,
    # finds the candidates the per-column passes find, in the same order, so
    # the grown grid and table are the same bit for bit.
    grid, table, levels, curves = _graze_case(law, kind)
    got, want = graze_points(grid, table, levels, curves), _graze_points_by_column(grid, table, levels, curves)
    assert got[0].size > grid.size and np.array_equal(got[0], want[0])
    assert all(np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(got[1], want[1]))


def test_graze_points_columns_meet_through_a_nan():
    # U ends below L's first value and L starts flat, then falls: laid end to
    # end with nothing between them, the rise into L's flat start and its
    # fall would read as a peak just under the level.  Alone, L has no peak
    # there, and the NaN between the columns keeps it so.
    grid = np.linspace(0.0, 1.0, 9)
    table = (0.1 * grid, np.array([0.5, 0.5, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0, -0.1]))
    curves = lambda xs, rows=None: (0.1 * xs, np.interp(xs, grid, table[1]))
    assert graze_cells(np.concatenate(table), 0.5 + 1e-9)[0].tolist() == [11]
    assert graze_points(grid, table, 0.5 + 1e-9, curves)[0] is grid
    assert _graze_points_by_column(grid, table, 0.5 + 1e-9, curves)[0] is grid


def _bisection_reference(pred, lo, hi, lo_flag, iters):
    """Plain boolean bisection, the solver the multisection replaced."""
    lo, hi = np.array(lo, float), np.array(hi, float)
    rows = np.arange(lo.size)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        same = pred(mid, rows) == lo_flag
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _step_cells():
    """Cells with a known transition of the margin: smooth crossings of
    x**3 - c**3, one jump of a discontinuous margin across zero, and two
    cells narrower than TOL."""
    rng = np.random.default_rng(3)
    lo = np.concatenate([rng.uniform(-5.0, 5.0, 40), [1.0, 2.0, -3.0]])
    width = np.concatenate([rng.uniform(1e-3, 2.0, 40), [0.5, 0.3 * TOL, 0.9 * TOL]])
    cut = lo + width * np.concatenate([rng.uniform(0.01, 0.99, 40), [0.37, 0.5, 0.25]])
    jump = np.zeros(lo.size, dtype=bool)
    jump[40] = True

    def margin(xs, rows):
        c = cut[rows]
        # -1 - x below the cut, 2 + x from it on: a jump across zero at c.
        return np.where(jump[rows], np.where(xs < c, -1.0 - xs, 2.0 + xs), xs**3 - c**3)

    return margin, lo, lo + width, cut


def _ends(margin, lo, hi):
    rows = np.arange(np.size(lo))
    return margin(np.asarray(lo, float), rows), margin(np.asarray(hi, float), rows)


def test_multisection_finds_known_transitions_within_half_tol():
    margin, lo, hi, cut = _step_cells()
    g_lo, g_hi = _ends(margin, lo, hi)
    found = refine_boundaries(margin, lo, hi, g_lo, g_hi, TOL, (hi, g_hi))
    # Every cell ends no wider than the stopping width TOL / 128.
    assert np.max(np.abs(found - cut)) <= TOL / 128
    pred = lambda xs, rows: margin(xs, rows) >= 0.0
    ref = _bisection_reference(pred, lo, hi, False, bisect_iters(hi - lo, TOL))
    assert np.max(np.abs(found - ref)) <= TOL


def test_multisection_per_cell_start_flags():
    # Flags that start True and turn False, mixed with the opposite kind.
    margin, lo, hi, cut = _step_cells()
    sign = np.where(np.arange(lo.size) % 2 == 1, -1.0, 1.0)
    flipped = lambda xs, rows: sign[rows] * margin(xs, rows)
    g_lo, g_hi = _ends(flipped, lo, hi)
    found = refine_boundaries(flipped, lo, hi, g_lo, g_hi, TOL, (hi, g_hi))
    assert np.max(np.abs(found - cut)) <= TOL / 128


def _smooth_cells(n_cells, at=0.0):
    """Cells 1e-4 .. 1e-2 wide, as grid cells are, about ``at``, whose
    margins expm1(x - c), sin(x - c) (2 + cos x) and -3 (x - c)(1 + (x - c)^2)
    are smooth with the exact root c."""
    rng = np.random.default_rng(n_cells)
    lo = at + rng.uniform(-5.0, 5.0, n_cells)
    width = 10.0 ** rng.uniform(-4.0, -2.0, n_cells)
    root = lo + width * rng.uniform(0.01, 0.99, n_cells)
    kind = np.arange(n_cells) % 3

    def margin(xs, rows):
        d, k = xs - root[rows], kind[rows]
        return np.select([k == 0, k == 1], [np.expm1(d), np.sin(d) * (2.0 + np.cos(xs))], -3.0 * d * (1.0 + d * d))

    return margin, lo, lo + width, root


@pytest.mark.parametrize("n_cells", [1, 2, 50, 700])
def test_boundaries_smooth_roots_in_three_rounds(n_cells):
    margin, lo, hi, root = _smooth_cells(n_cells)
    calls = []

    def counted(xs, rows):
        calls.append(xs.size)
        return margin(xs, rows)

    g_lo, g_hi = _ends(margin, lo, hi)
    found = refine_boundaries(counted, lo, hi, g_lo, g_hi, TOL, (hi, g_hi))  # no third sample
    assert 1 <= len(calls) <= 3
    # The regula falsi point of the last bracket is within a few ulp.
    assert np.all(np.abs(found - root) <= 4.0 * np.spacing(np.abs(root)))


@pytest.mark.parametrize("n_cells", [1, 2, 50, 700])
def test_boundaries_smooth_roots_in_two_rounds_with_a_neighbour(n_cells):
    # With a third sample one cell width past each cell, as member_intervals
    # passes the next grid point, the cluster sits on the inverse quadratic
    # through the three samples: one round brings the root within a few
    # stops and the next retires every cell.
    margin, lo, hi, root = _smooth_cells(n_cells)
    calls = []

    def counted(xs, rows):
        calls.append(xs.size)
        return margin(xs, rows)

    x_c = 2.0 * hi - lo
    found = refine_boundaries(counted, lo, hi, *_ends(margin, lo, hi), TOL, (x_c, _ends(margin, x_c, x_c)[0]))
    assert 1 <= len(calls) <= 2
    assert np.all(np.abs(found - root) <= 4.0 * np.spacing(np.abs(root)))


def test_boundaries_centre_falls_back_to_regula_falsi():
    # Where the third sample cannot place an inverse quadratic inside the
    # cell, the first round samples exactly the points it samples given a
    # copy of the cell's end, which is no third sample: a NaN margin or
    # abscissa, a margin equal to the end's, or an interpolated point outside
    # the cell.  A usable third sample moves the cluster.
    lo, hi = np.array([0.0]), np.array([1.0])
    margin = lambda xs, rows: np.expm1(xs - 0.3)
    g_lo, g_hi = _ends(margin, lo, hi)

    def first_round(near):
        seen = []
        refine_boundaries(lambda xs, rows: seen.append(np.sort(xs)) or margin(xs, rows), lo, hi, g_lo, g_hi, TOL, near)
        return seen[0]

    plain = first_round((hi, g_hi))
    g_c = margin(np.array([2.0]), None)
    for near in ((2.0, np.nan), (np.nan, g_c), (2.0, g_hi), (2.0, g_hi + 1e-4)):
        assert np.array_equal(first_round(tuple(np.atleast_1d(v) for v in near)), plain), near
    assert not np.array_equal(first_round((np.array([2.0]), g_c)), plain)


@pytest.mark.parametrize("n_cells", [1, 2, 50, 700])
@pytest.mark.parametrize("iters", [1, 4, 5, 6, 26, 34])
def test_multisection_round_count(n_cells, iters):
    # Jump cells (margin -1 below 0.3, +1 from it on) whose widest cell needs
    # iters bisection steps to the stopping width: the uniform samples keep
    # the multisection schedule, ceil(iters / log2 m) rounds at most.
    calls = []

    def margin(xs, rows):
        calls.append(xs.size)
        return np.where(xs >= 0.3, 1.0, -1.0)

    lo = -np.linspace(0.0, 0.6, n_cells)
    hi = lo + np.where(np.arange(n_cells) % 2 == 0, 1.0, 1.5)
    stop = 1.5 / 2.0 ** (iters - 1)
    assert bisect_iters((hi - lo) / stop, 1.0) == iters
    found = refine_boundaries(margin, lo, hi, -np.ones(n_cells), np.ones(n_cells), 128.0 * stop, (hi, np.ones(n_cells)))
    sections = section_count(n_cells, iters)
    assert 2 <= sections <= 128 and sections & (sections - 1) == 0
    assert len(calls) <= math.ceil(iters / math.log2(sections))
    assert calls == [] or calls[0] >= n_cells * (sections - 1)
    # The secant point of a +-1 jump is the midpoint of the last cell.
    assert np.all(np.abs(found - 0.3) <= stop / 2)


@pytest.mark.parametrize("n_cells", [1, 50])
def test_boundaries_nan_edges_keep_multisection_schedule(n_cells):
    # NaN on one side of the cut (as U and L on the atom region): no secant
    # estimate, so no cluster; the uniform points narrow each cell m-fold.
    rng = np.random.default_rng(7)
    lo = rng.uniform(-5.0, 5.0, n_cells)
    hi = lo + 10.0 ** rng.uniform(-3.0, -2.0, n_cells)
    cut = lo + (hi - lo) * rng.uniform(0.01, 0.99, n_cells)
    calls = []

    def margin(xs, rows):
        calls.append(xs.size)
        return np.where(xs < cut[rows], np.nan, 1.0 + xs * xs)

    found = refine_boundaries(margin, lo, hi, np.full(n_cells, np.nan), 1.0 + hi * hi, TOL, (hi, 1.0 + hi * hi))
    iters = bisect_iters((hi - lo) / (TOL / 128), 1.0)
    sections = section_count(n_cells, iters)
    assert len(calls) <= math.ceil(iters / math.log2(sections))
    assert calls[0] == n_cells * (sections - 1)
    assert np.all(np.abs(found - cut) <= TOL / 128)


@pytest.mark.parametrize("at", [1e4, -1e4, 1e8, -1e8])
def test_boundaries_terminate_at_large_abscissa(at):
    # At |x| = 1e8 an ulp (1.5e-8) is far above TOL / 128, so the rounds stop
    # at 4 ulp: smooth roots land within a few ulp, jumps within the stop.
    margin, lo, hi, root = _smooth_cells(30, at)
    jump = lambda xs, rows: np.where(xs < root[rows], -1.0, 1.0)
    stop = np.maximum(TOL / 128, 4.0 * np.spacing(np.abs(root)))
    for fn, rounds, atol in ((margin, 3, 4.0 * np.spacing(np.abs(root))), (jump, 20, stop)):
        calls = []

        def counted(xs, rows):
            # A stop below the ulp would never end: fail instead of hanging.
            calls.append(xs.size)
            assert len(calls) <= 20, "rounds do not terminate"
            return fn(xs, rows)

        g_lo, g_hi = _ends(fn, lo, hi)
        found = refine_boundaries(counted, lo, hi, g_lo, g_hi, TOL, (hi, g_hi))
        assert len(calls) <= rounds
        assert np.all(np.abs(found - root) <= atol)


def test_section_count_follows_cell_count():
    # Few cells: wide rounds, since the call cost dominates; many: narrow.
    counts = [section_count(n, 27) for n in (1, 10, 100, 1000, 100_000)]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] >= 32 and counts[-1] == 2


def test_multisection_empty_input_makes_no_call():
    def margin(xs, rows):
        raise AssertionError("margin called on no cells")

    out = refine_boundaries(margin, np.empty(0), np.empty(0), np.empty(0), np.empty(0), TOL, (np.empty(0), np.empty(0)))
    assert isinstance(out, np.ndarray) and out.size == 0
    assert bisect_iters(np.empty(0), TOL) == 0


def _nan_gap(xs):
    # As on the atom region, fn is NaN on |x| <= 0.5, so the root at 0.2 there is no root.
    out = (xs - 2.0) * (xs + 1.5) * (xs - 0.2)
    return np.where(np.abs(xs) <= 0.5, np.nan, out)


@pytest.mark.parametrize(
    "fn, roots",
    [
        (_nan_gap, [-1.5, 2.0]),
        # A root pair 2e-3 apart inside the grid cell (1, 1.0235): the sliver guard finds it.
        (lambda xs: (xs - 1.01) ** 2 - 1e-6, [1.01 - 1e-3, 1.01 + 1e-3]),
    ],
    ids=["nan_gap", "root_pair_in_one_cell"],
)
def test_sign_change_roots_one_window(coarse, fn, roots):
    # The root pair lies inside one base cell, so the sliver guard is what finds it.
    base = build_grid(-3.0, 3.0, [])
    assert np.searchsorted(base, 1.01 - 1e-3) == np.searchsorted(base, 1.01 + 1e-3)
    calls = []

    def tagged(xs):
        calls.append(xs.size)
        return fn(xs), np.floor(xs)

    got, tags = sign_change_roots(tagged, -3.0, 3.0, [], 1e-6)
    assert np.allclose(got, roots, rtol=0.0, atol=TOL)
    # The tags come back at the roots from the one call that checks them.
    assert np.array_equal(tags, np.floor(got)) and calls[-1] >= got.size
    plain = sign_change_roots(lambda xs: (fn(xs),), -3.0, 3.0, [], 1e-6)
    assert len(plain) == 1 and np.array_equal(plain[0], got)


def _crossing_reference(table, levels, i0, i1):
    """Per-level, per-curve flag diff: the (j, k, c) where t_j <= U (c = 0)
    or L <= t_j (c = 1) flips on cell k -> k + 1 inside level j's window."""
    upper, lower = table
    triples = []
    with np.errstate(invalid="ignore"):
        for j, t in enumerate(levels):
            s = slice(i0[j], i1[j])
            for k in range(max(i1[j] - i0[j] - 1, 0)):
                for c, flag in enumerate((t <= upper[s], lower[s] <= t)):
                    if flag[k] != flag[k + 1]:
                        triples.append((j, k + i0[j], c))
    return triples


def test_crossing_cells_matches_per_level_flag_diff():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(2, 80))
        upper = np.cumsum(rng.normal(size=n))
        lower = upper - rng.uniform(0.0, 3.0, n)
        # NaN stretches at both ends, as on the atom region of a scan.
        upper[: rng.integers(0, n // 3 + 1)] = np.nan
        lower[n - rng.integers(0, n // 3 + 1) :] = np.nan
        finite = np.concatenate([upper, lower])
        finite = finite[np.isfinite(finite)]
        levels = rng.normal(scale=3.0, size=int(rng.integers(1, 8)))
        if finite.size:
            # Levels exactly equal to table values, one of them twice.
            exact = rng.choice(finite, 2)
            levels = np.concatenate([levels, exact, exact[:1]])
        levels = np.sort(levels)
        if trial % 3 == 0:
            # A single level is counted by comparisons, not searchsorted.
            levels = levels[rng.integers(levels.size)][None]
        # Equal-width windows clipped at the table ends.
        width = int(rng.integers(2, n + 1))
        i0 = np.sort(rng.integers(-width // 2, n - width // 2, levels.size))
        i0, i1 = np.clip(i0, 0, n), np.clip(i0 + width, 0, n)
        got = crossing_cells((upper, lower), levels, i0, i1)
        assert sorted(zip(*(v.tolist() for v in got))) == _crossing_reference((upper, lower), levels, i0, i1)


def test_crossing_cells_lists_a_cell_once_per_curve():
    # Level 1.0 lies in [L, U] at no grid point, but on cell 1 -> 2 U rises
    # through it and L too, so the member set sits inside that cell: the
    # cell is listed for each curve, L first.  Level 3.0 is crossed by U
    # alone, on cell 2 -> 3, and level -1.0 by neither.
    upper = np.array([0.0, 0.5, 1.5, 3.0])
    lower = np.array([-0.5, 0.2, 1.2, 2.5])
    levels = np.array([-1.0, 1.0, 3.0])
    j, k, c = crossing_cells((upper, lower), levels, np.zeros(3, int), np.full(3, 4))
    assert list(zip(j.tolist(), k.tolist(), c.tolist())) == [(1, 1, 1), (1, 1, 0), (2, 2, 0)]
    # The same table at level 1.0 alone, counted by comparisons.
    j, k, c = crossing_cells((upper, lower), levels[1:2], np.array([0]), np.array([4]))
    assert list(zip(j.tolist(), k.tolist(), c.tolist())) == [(0, 1, 1), (0, 1, 0)]


def test_crossing_cells_empty_result():
    upper, lower = np.linspace(5.0, 6.0, 50), np.linspace(3.0, 4.0, 50)
    j, k, c = crossing_cells((upper, lower), np.array([4.5]), np.array([0]), np.array([50]))
    assert j.size == 0 and k.size == 0 and c.size == 0
    # A level crossed only outside its window is no crossing either.
    j, k, c = crossing_cells((upper, lower), np.array([5.5]), np.array([0]), np.array([10]))
    assert j.size == 0 and k.size == 0 and c.size == 0


def test_member_intervals_keeps_a_set_inside_one_cell():
    # {x : L <= t <= U} = [a, b] for U = t + 50 (x - a), L = t + 50 (x - b):
    # 1e-6 wide, inside one cell of the 5e-4 step, both ends false, and both
    # curves monotone, so no graze point is added; each curve's crossing is
    # refined on its own margin and the set is where both flags hold.
    a, b, t = 0.3001234, 0.3001244, 0.7
    curves = lambda xs, rows=None: (t + 50.0 * (xs - a), t + 50.0 * (xs - b))
    owner, lo, hi = member_intervals(curves, t, -1.0, 1.0, [])
    assert owner.tolist() == [0]
    assert abs(lo[0] - a) <= TOL and abs(hi[0] - b) <= TOL


def test_member_intervals_many_levels(coarse):
    # {x : x - 1 <= t <= x + 1} = [t - 1, t + 1], with the NaN band |x| < 0.5
    # cut out; one scan serves every level, including a duplicate.
    def curves(xs, rows=None):
        nan = np.abs(xs) < 0.5
        return np.where(nan, np.nan, xs + 1.0), np.where(nan, np.nan, xs - 1.0)

    levels = np.array([-3.0, 0.0, 0.0, 2.5])
    owner, a, b = member_intervals(curves, levels, levels - 4.0, levels + 4.0, [])
    want = [(0, -4.0, -2.0), (1, -1.0, -0.5), (1, 0.5, 1.0), (2, -1.0, -0.5), (2, 0.5, 1.0), (3, 1.5, 3.5)]
    assert owner.tolist() == [w[0] for w in want]
    assert np.allclose(np.column_stack([a, b]), [w[1:] for w in want], rtol=0.0, atol=TOL)
    # One level as scalars gives the same stretches as its row of the batch.
    one = member_intervals(curves, 2.5, -1.5, 6.5, [])
    assert one[0].tolist() == [0] and np.allclose([one[1][0], one[2][0]], [1.5, 3.5], rtol=0.0, atol=TOL)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_query_scans_stay_within_endpoint_call_budget(monkeypatch, law):
    # A post-selection set is one level-stage table and at most three
    # boundary rounds, with no endpoint pass; an inversion is one endpoint
    # table, at most three rounds and one call more, the one that checks its
    # roots and reads their regimes.  Refinement in a fixed
    # ceil(iters / log2 m) rounds (four to seven here) breaks either budget.
    calls, levels = [], []
    real, real_levels = hpd_mod._endpoint_pass, hpd_mod.tail_levels
    monkeypatch.setattr(hpd_mod, "_endpoint_pass", lambda cfg, x: calls.append(np.size(x)) or real(cfg, x))
    monkeypatch.setattr(hpd_mod, "tail_levels", lambda cfg, s: levels.append(1) or real_levels(cfg, s))
    dist = parse_dist_spec(law)
    post_selection_set(PriorConfig(dist, 2.0, 1.0, 0.05), 5.0)
    assert calls == [] and len(levels) <= 4  # the level stage alone
    for lam, w, target in ((2.0, 1.0, 6.0), (2.0, 0.5, 6.0), (0.5, 1.0, 3.5)):
        calls.clear()
        inverse = invert_upper(PriorConfig(dist, lam, w, 0.05), target)
        assert len(calls) <= 5 and calls[-1] == len(inverse.roots)


@pytest.mark.parametrize("law, counts", [
    ("gaussian", (3, 4)), ("laplace", (3, 4)), ("t3", (3, 4)), ("subexp:0.5", (3, 4)),
])
def test_one_answer_work_counts(monkeypatch, law, counts):
    # The fixed cost of one answer, pinned so that a new pass cannot slip in.
    # counts = (level-stage calls of a post-selection set, endpoint passes of
    # an inversion).  A post-selection set scans the level test alone: the
    # table and two boundary rounds call the level stage, with no endpoint
    # pass and no quantile but the window's two, on Python floats.  An
    # inversion is one endpoint table, two rounds and the call that checks
    # its roots; each scan makes one graze_cells pass over both columns.  An
    # inversion whose window misses the atom region and a valid fixed-point
    # inverse solve no t_alpha.  One-point work takes the scalar route: a
    # set, each fixed-point step and an inversion's root check call the
    # level stage (tail_levels) on numpy scalars, never on an array.
    ends, grazes, solves, arrays, quantiles = [], [], [], [], []
    real_pass, real_graze, real_solve = hpd_mod._endpoint_pass, scanning_mod.graze_cells, posterior_mod.atom_threshold
    real_levels = hpd_mod.tail_levels
    dist = parse_dist_spec(law)
    real_ppf = dist.ppf_upper
    monkeypatch.setattr(hpd_mod, "_endpoint_pass", lambda cfg, x: ends.append(1) or real_pass(cfg, x))
    monkeypatch.setattr(scanning_mod, "graze_cells", lambda v, t: grazes.append(1) or real_graze(v, t))
    monkeypatch.setattr(posterior_mod, "atom_threshold", lambda cfg: solves.append(1) or real_solve(cfg))
    monkeypatch.setattr(hpd_mod, "tail_levels",
                        lambda cfg, s: arrays.append(isinstance(s, np.ndarray)) or real_levels(cfg, s))
    monkeypatch.setattr(dist, "ppf_upper", lambda q: quantiles.append(type(q)) or real_ppf(q))
    post_selection_set(PriorConfig(dist, 2.0, 1.0, 0.05), 5.0)
    assert (len(ends), arrays, len(grazes)) == (0, [True] * counts[0], 1)
    assert quantiles == [float, float]
    ends.clear(), grazes.clear(), arrays.clear()
    answer = invert_upper(PriorConfig(dist, 2.0, 1.0, 0.05), 6.0)
    assert (len(ends), len(grazes)) == (counts[1], 1)
    assert 0 < len(answer.roots) <= hpd_mod._POINTS_MAX and arrays[-len(answer.roots):] == [False] * len(answer.roots)
    cfg = PriorConfig(dist, 2.0, 0.25, 0.05)
    assert invert_upper(cfg, 12.0).roots and solves == [] and "t_alpha" not in vars(cfg)
    for x in (0.5, 3.0, -7.0):
        arrays.clear()
        hpd_mod.hpd_set(cfg, x)
        assert arrays == [False]
    arrays.clear()
    smallest_lower_inverse(cfg, 6.0)
    assert solves == [] and "t_alpha" not in vars(cfg)
    assert len(arrays) > 1 and not any(arrays)
    with pytest.raises(ValueError, match="must exceed max"):
        smallest_lower_inverse(cfg, 1.0)
    assert solves == [1]


def test_member_intervals_refines_only_crossings_that_can_bound_the_set(monkeypatch):
    # A crossing whose other curve's flag is false at both ends of its cell
    # cannot bound the member set once the sliver guard has run, so
    # member_intervals keeps its flip at the cell's left end unrefined.
    # Against refining every crossing (the reference below), fewer cells are
    # refined and (owner, a, b) moves by at most 1e-12.
    from hpdcover.figures import _coverage_grid

    cfg = PriorConfig(parse_dist_spec("laplace"), 5.0, 0.5, 0.05)
    ts = _coverage_grid(cfg.dist, cfg.lam, cfg.alpha, 4, False)
    half = hpd_mod._half_width(cfg)
    specials = [cfg.lam, -cfg.lam, cfg.t_alpha, -cfg.t_alpha]
    curves = lambda xs, rows=None: hpd_mod.endpoint_values(cfg, xs)

    grid = build_grid(ts - half, ts + half, specials)
    grid, table = graze_points(grid, curves(grid), ts, curves)
    i0, i1 = np.searchsorted(grid, ts - half, "left"), np.searchsorted(grid, ts + half, "right")
    j, k, c = crossing_cells(table, ts, i0, i1)
    sign, t = 1.0 - 2.0 * c, ts[j]
    margin = lambda ul, r=slice(None): sign[r] * (np.where(c[r] == 0, *ul) - t[r])
    g_lo, g_hi = (margin([v[i] for v in table]) for i in (k, k + 1))
    cuts = refine_boundaries(lambda xs, r: margin(curves(xs), r), grid[k], grid[k + 1], g_lo, g_hi, TOL, (grid[k + 1], g_hi))
    start = np.array([ts <= table[0][i0], table[1][i0] <= ts])
    owner, a, b = scanning_mod._member_stretches(cuts, j, c, start, ts - half, ts + half)
    new = np.flatnonzero(np.append(True, ~((a[1:] <= b[:-1] + 1e-15) & (owner[1:] == owner[:-1])))[: a.size])
    want = owner[new], a[new], b[np.append(new[1:], a.size)[: new.size] - 1]

    refined = []
    real = scanning_mod.refine_boundaries
    monkeypatch.setattr(scanning_mod, "refine_boundaries", lambda m, lo, *args: refined.append(np.size(lo)) or real(m, lo, *args))
    got = member_intervals(curves, ts, ts - half, ts + half, specials)
    assert refined and refined[0] < j.size
    assert np.array_equal(got[0], want[0])
    assert np.max(np.abs(np.concatenate(got[1:]) - np.concatenate(want[1:]))) <= 1e-12
