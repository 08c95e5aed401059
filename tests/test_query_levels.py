"""One-level query scans that compute only what decides membership.

A post-selection set scans the level test G(-|x - theta|) >= q(theta) alone,
so it is checked here against the U/L oracle credible_set_contains, which
stays on endpoint_values.  An inversion leaves +-t_alpha off its grid where
its window misses the atom region, so its roots are checked bit for bit
against the same scan with +-t_alpha forced onto the grid.
"""

import warnings

import numpy as np
import pytest

from hpdcover import PriorConfig, credible_set_contains, invert_lower, invert_upper, post_selection_set
from hpdcover.cli import parse_dist_spec
from hpdcover.hpd import _set_window, endpoints
from hpdcover.scanning import sign_change_roots

LAWS = ["gaussian", "laplace", "t3", "subexp:0.5", "subexp:0.3"]


def _ps_configs(rng):
    """(lam, alpha, x): lam 0, in U(0, 5) and in U(5, 30); alpha log-uniform
    on [1e-4, 0.3]; x at +-lam, just past it and farther out."""
    for lam in (0.0, rng.uniform(0.0, 5.0), rng.uniform(5.0, 30.0)):
        for past in (0.0, rng.uniform(0.0, 2.0), rng.uniform(2.0, 12.0)):
            alpha = float(10.0 ** rng.uniform(-4.0, np.log10(0.3)))
            yield float(lam), alpha, float(rng.choice([-1.0, 1.0]) * (lam + past))


@pytest.mark.parametrize("law", LAWS)
def test_post_selection_sets_agree_with_the_endpoint_oracle(law):
    # Every piece's midpoint is a member, and a point 1e-7 (1 + |end|) past
    # each free end (not a window edge, not inside another piece) is not.
    rng = np.random.default_rng(20260 + LAWS.index(law))
    dist = parse_dist_spec(law)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam, alpha, x in _ps_configs(rng):
            cfg = PriorConfig(dist, lam, 1.0, alpha)
            pieces = np.array(post_selection_set(cfg, x).intervals)
            assert pieces.size, (lam, alpha, x)
            lo, hi = _set_window(cfg, x)
            assert credible_set_contains(cfg, pieces.mean(axis=1), x).all(), (lam, alpha, x, pieces)
            ends = pieces.ravel()
            past = ends + np.tile([-1.0, 1.0], len(pieces)) * 1e-7 * (1.0 + np.abs(ends))
            free = (lo < ends) & (ends < hi)
            free &= ~((pieces[:, :1] <= past) & (past <= pieces[:, 1:])).any(axis=0)
            assert not credible_set_contains(cfg, past[free], x).any(), (lam, alpha, x, pieces)


def _forced(cfg, column, theta0):
    """The inversion scan with +-t_alpha always on its grid: (roots, codes)."""
    fn = lambda xs: (endpoints(cfg, xs)[column] - theta0, endpoints(cfg, xs)[2])
    lo, hi = _set_window(cfg, theta0)
    specials = [cfg.lam, -cfg.lam, theta0, cfg.t_alpha, -cfg.t_alpha]
    return sign_change_roots(fn, lo, hi, specials, 1e-6 * (1.0 + abs(theta0)))


@pytest.mark.parametrize("law", LAWS[:4])
def test_inversions_without_t_alpha_are_bit_identical(law):
    # Windows that miss the atom region (also by less than the reach of the
    # ladder about t_alpha), meet it, and span 0 with and without an atom at
    # 0, for U (targets above the band) and L (the mirrored targets): roots
    # and regimes equal the forced scan's bit for bit, and a call whose
    # window misses the atom region solves no t_alpha.
    dist = parse_dist_spec(law)
    t = {w: PriorConfig(dist, 1.0, w, 0.05).t_alpha for w in (1e-3, 1e-2, 0.25)}
    lo, hi = _set_window(PriorConfig(dist, 1.0, 1e-3, 0.05), t[1e-3] + 100.0)
    reach = 0.5 * (hi - lo)
    cases = [("miss", 1e-3, t[1e-3] + reach + 1.0), ("ladder", 1e-3, t[1e-3] + reach + 1e-3 * reach),
             ("meet", 1e-3, t[1e-3] + 1.0), ("span", 1e-2, t[1e-2] + 1.0), ("span, no atom", 0.25, 1.5)]
    assert t[0.25] == -np.inf
    for kind, w, target in cases:
        for column, sign in ((0, 1.0), (1, -1.0)):
            cfg = PriorConfig(dist, 1.0, w, 0.05)
            theta0 = sign * target
            lo, hi = _set_window(cfg, theta0)
            inner = max(0.0, lo, -hi)  # the window's least |x|
            if kind in ("miss", "ladder"):
                assert inner > t[w]
            else:
                assert lo < sign * t[w] < hi if kind == "meet" else inner == 0.0, kind
            got = (invert_upper if column == 0 else invert_lower)(cfg, theta0)
            assert ("t_alpha" in vars(cfg)) == (kind in ("ladder", "meet", "span")), kind
            roots, codes = _forced(cfg, column, theta0)
            assert np.array(got.roots).tobytes() == roots.tobytes(), kind
            assert [int(r) for r in got.regimes] == codes.tolist(), kind
