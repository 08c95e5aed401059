import math

import numpy as np
import pytest

from hpdcover.scanning import ScanSettings, build_grid, golden_extrema, graze_points

SCAN = ScanSettings(n_base=256, n_dense=32)


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
