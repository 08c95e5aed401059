"""The shipped scan grid against the same scans on a grid 16 times finer.

build_grid spreads at most _SCAN_POINTS base points over a narrow union and
N_BASE per window span over a wide one.  The base grid only separates
crossings and exposes grazes; the ladders, the sliver guard and the boundary
solver set the accuracy.  So each scan answer must agree with the same scan
with both constants 16 times larger: C, C- and C+ to 1e-12, roots and set
ends to 1e-9 with equal counts.  A coarser grid that loses a crossing or a
graze fails here.
"""

import numpy as np
import pytest
from test_scan_pins import INVERSION, POST_SELECTION

import hpdcover.scanning as scanning_mod
from hpdcover import (
    PriorConfig,
    coverage_curve,
    coverage_exact,
    invert_lower,
    invert_upper,
    onesided_coverage_exact,
    post_selection_set,
)
from hpdcover.cli import parse_dist_spec

LAWS = ["gaussian", "laplace", "t3", "subexp:0.5"]


def _on_both_grids(monkeypatch, answer):
    """answer() on the shipped grid, then with both grid constants 16 times larger."""
    shipped = answer()
    monkeypatch.setattr(scanning_mod, "N_BASE", 16 * scanning_mod.N_BASE)
    monkeypatch.setattr(scanning_mod, "_SCAN_POINTS", 16 * scanning_mod._SCAN_POINTS)
    return shipped, answer()


def _coverage(cfg, theta0s):
    return np.array([[p.C, p.C_minus, p.C_plus] for p in (coverage_exact(cfg, t) for t in theta0s)])


@pytest.mark.parametrize("lam, w, alpha", [(2.0, 0.25, 0.05), (5.0, 1.0, 0.01)])
@pytest.mark.parametrize("law", LAWS)
def test_coverage_converges(monkeypatch, law, lam, w, alpha):
    # One-window scans at theta0 = +-lam, inside the band, negative and past
    # the band (w < 1 puts an atom region in the windows), then one batch
    # over a theta0 grid whose union takes the wide-union step.
    cfg = PriorConfig(parse_dist_spec(law), lam, w, alpha)
    theta0s = lam + np.array([0.0, -2.0 * lam, -lam - 0.7, -2.0 * lam - 3.3, 1.1, 6.0])

    def answers():
        curve = coverage_curve(cfg, np.linspace(-3.0 * lam, 3.0 * lam + 6.0, 97))
        return np.concatenate([_coverage(cfg, theta0s), np.column_stack([curve.C, curve.C_minus, curve.C_plus])])

    shipped, fine = _on_both_grids(monkeypatch, answers)
    assert np.max(np.abs(shipped - fine)) <= 1e-12


def test_thin_member_set_converges(monkeypatch):
    # t3, lam 0.5, w 1e-6: theta0 just past the far atom threshold t_alpha,
    # where the member set is thin.
    cfg = PriorConfig(parse_dist_spec("t3"), 0.5, 1e-6, 0.05)
    theta0s = cfg.t_alpha + np.array([1e-7, 1e-5, 1e-3])
    shipped, fine = _on_both_grids(monkeypatch, lambda: _coverage(cfg, theta0s))
    assert np.max(np.abs(shipped - fine)) <= 1e-12


def test_onesided_batch_converges(monkeypatch):
    cfg = PriorConfig(parse_dist_spec("t3"), 2.0, 1.0, 0.05)
    theta0s = np.array([2.5, 4.0, 7.0, 15.0, 40.0])
    shipped, fine = _on_both_grids(monkeypatch, lambda: onesided_coverage_exact(cfg, theta0s))
    assert np.max(np.abs(shipped - fine)) <= 1e-12


def _query_answers(law):
    """The roots of every inversion and the ends of every post-selection set
    of the scan pins' configs for the law, one tuple per query."""
    (lam, w, alpha), rows = INVERSION[law]
    cfg = PriorConfig(parse_dist_spec(law), lam, w, alpha)
    out = [(invert_upper if kind == "upper" else invert_lower)(cfg, target).roots for kind, target, *_ in rows]
    for lam, x, _ in POST_SELECTION[law]:
        out.append(np.ravel(post_selection_set(PriorConfig(parse_dist_spec(law), lam, 1.0, 0.05), x).intervals))
    return out


@pytest.mark.parametrize("law", LAWS)
def test_inversions_and_post_selection_sets_converge(monkeypatch, law):
    shipped, fine = _on_both_grids(monkeypatch, lambda: _query_answers(law))
    assert [len(v) for v in shipped] == [len(v) for v in fine]
    assert max(np.max(np.abs(np.subtract(a, b))) for a, b in zip(shipped, fine)) <= 1e-9
