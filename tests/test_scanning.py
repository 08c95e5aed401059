import math

import numpy as np
import pytest

from hpdcover.scanning import (
    ScanSettings,
    bisect_iters,
    build_grid,
    golden_extrema,
    graze_points,
    refine_flag_boundaries,
    section_count,
    sign_change_roots,
)

SCAN = ScanSettings(n_base=256, n_dense=32)
TOL = ScanSettings().bisect_tol


def test_build_grid_single_window():
    grid = build_grid(-3.0, 5.0, [0.5, None, math.inf, 9.0], SCAN)
    assert grid[0] == -3.0 and grid[-1] == 5.0
    assert np.all(np.diff(grid) > 0)
    assert 0.5 in grid
    assert np.max(np.diff(grid)) <= 8.0 / 255 * (1 + 1e-12)
    assert np.count_nonzero(np.abs(grid - 0.5) <= 1.0) >= 32
    with pytest.raises(ValueError):
        build_grid(1.0, 1.0, [], SCAN)


def test_build_grid_disjoint_windows_is_union_of_single_grids():
    specials = [5.0, 55.0, 30.0]
    both = build_grid(np.array([0.0, 50.0]), np.array([10.0, 60.0]), specials, SCAN)
    single = np.union1d(build_grid(0.0, 10.0, specials, SCAN), build_grid(50.0, 60.0, specials, SCAN))
    assert np.array_equal(both, single)


def test_build_grid_overlapping_windows():
    lo = np.array([0.0, 3.0, 4.5])
    grid = build_grid(lo, lo + 8.0, [2.0], SCAN)
    assert grid[0] == 0.0 and grid[-1] == 12.5
    assert np.all(np.isin(np.concatenate([lo, lo + 8.0]), grid))
    assert np.max(np.diff(grid)) <= 8.0 / 255 * (1 + 1e-12)


def test_golden_extrema_vectorized():
    # cos has maxima at 0 and 2 pi and a minimum at pi; each bracket holds one.
    a = np.array([-0.5, np.pi - 0.3, 2.0 * np.pi - 0.2])
    found = golden_extrema(np.cos, a, a + 0.9, np.array([True, False, True]))
    assert np.max(np.abs(found - np.array([0.0, np.pi, 2.0 * np.pi]))) <= 1e-7
    assert golden_extrema(np.cos, [], [], []).size == 0


def test_graze_points_multiple_levels():
    # sin has peaks at value 1 and pits at value -1 on the grid; only levels
    # just above a peak or just below a pit make them grazing candidates.
    grid = np.linspace(0.0, 4.0 * np.pi, 200)
    vals = np.sin(grid)
    assert graze_points(grid, vals, 5.0, np.sin) == []
    peaks = graze_points(grid, vals, 1.0 + 1e-6, np.sin)
    pits = graze_points(grid, vals, -1.0 - 1e-6, np.sin)
    both = graze_points(grid, vals, [-1.0 - 1e-6, 1.0 + 1e-6], np.sin)
    assert np.allclose(peaks, [0.5 * np.pi, 2.5 * np.pi], atol=1e-7)
    assert np.allclose(pits, [1.5 * np.pi, 3.5 * np.pi], atol=1e-7)
    assert np.allclose(sorted(both), sorted(peaks + pits), rtol=0.0, atol=1e-12)


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
    """Cells with a known transition: smooth crossings of x**3, one jump of
    a discontinuous function across zero, and two cells narrower than TOL."""
    rng = np.random.default_rng(3)
    lo = np.concatenate([rng.uniform(-5.0, 5.0, 40), [1.0, 2.0, -3.0]])
    width = np.concatenate([rng.uniform(1e-3, 2.0, 40), [0.5, 0.3 * TOL, 0.9 * TOL]])
    cut = lo + width * np.concatenate([rng.uniform(0.01, 0.99, 40), [0.37, 0.5, 0.25]])
    jump = np.zeros(lo.size, dtype=bool)
    jump[40] = True

    def pred(xs, rows):
        c = cut[rows]
        smooth = xs**3 >= c**3
        # -1 - x below the cut, 2 + x from it on: a jump across zero at c.
        stepped = np.where(xs < c, -1.0 - xs, 2.0 + xs) > 0.0
        return np.where(jump[rows], stepped, smooth)

    return pred, lo, lo + width, cut


def test_multisection_finds_known_transitions_within_half_tol():
    pred, lo, hi, cut = _step_cells()
    iters = bisect_iters(hi - lo, TOL)
    found = refine_flag_boundaries(pred, lo, hi, False, iters)
    assert np.max(np.abs(found - cut)) <= TOL / 2
    ref = _bisection_reference(pred, lo, hi, False, iters)
    assert np.max(np.abs(found - ref)) <= TOL


def test_multisection_per_cell_start_flags():
    # Flags that start True and turn False, mixed with the opposite kind.
    pred, lo, hi, cut = _step_cells()
    flip = np.arange(lo.size) % 2 == 1
    found = refine_flag_boundaries(
        lambda xs, rows: pred(xs, rows) ^ flip[rows], lo, hi, flip, bisect_iters(hi - lo, TOL)
    )
    assert np.max(np.abs(found - cut)) <= TOL / 2


@pytest.mark.parametrize("n_cells", [1, 2, 50, 700])
@pytest.mark.parametrize("iters", [1, 4, 5, 6, 26, 34])
def test_multisection_round_count(n_cells, iters):
    calls = []

    def pred(xs, rows):
        calls.append(xs.size)
        return xs >= 0.3

    lo = -np.linspace(0.0, 0.6, n_cells)
    hi = lo + np.where(np.arange(n_cells) % 2 == 0, 1.0, 1.5)
    found = refine_flag_boundaries(pred, lo, hi, False, iters)
    sections = section_count(n_cells, iters)
    assert 2 <= sections <= 128 and sections & (sections - 1) == 0
    assert len(calls) == math.ceil(iters / math.log2(sections))
    assert set(calls) == {n_cells * (sections - 1)}
    # The final cells are no wider than iters bisection steps would leave.
    assert np.all(np.abs(found - 0.3) <= 0.5 * (hi - lo) / 2.0**iters)


def test_section_count_follows_cell_count():
    # Few cells: wide rounds, since the call cost dominates; many: narrow.
    counts = [section_count(n, 27) for n in (1, 10, 100, 1000, 100_000)]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] >= 32 and counts[-1] == 2


def test_multisection_empty_input_makes_no_call():
    def pred(xs, rows):
        raise AssertionError("predicate called on no cells")

    out = refine_flag_boundaries(pred, np.empty(0), np.empty(0), np.empty(0, dtype=bool), 30)
    assert isinstance(out, np.ndarray) and out.size == 0
    assert bisect_iters(np.empty(0), TOL) == 0


def test_sign_change_roots_on_union_windows():
    # As on the atom region, fn is NaN on the gap between the windows and at
    # its edges, so the cell across the gap (over the root at 0.2) is skipped.
    def fn(xs):
        out = (xs - 2.0) * (xs + 1.5) * (xs - 0.2)
        return np.where(np.abs(xs) <= 0.5, np.nan, out)

    roots = sign_change_roots(fn, np.array([-3.0, 0.5]), np.array([-0.5, 3.0]), [], SCAN, 1e-6)
    assert np.allclose(roots, [-1.5, 2.0], rtol=0.0, atol=TOL)
