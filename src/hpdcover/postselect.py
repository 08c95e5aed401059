"""Post-selection confidence sets by inverting credible-set membership.

With w = 1 the credible set CS(y) given data y is a pure interval set, and
the map theta -> CS(theta) can be inverted: PS(x) = {theta : x in CS(theta)}.
Conditionally on the selection event |X| >= lam, PS covers the true mean
with probability at least 1 - alpha, because the conditional law of X given
selection has exactly the renormalized-slab form of the posterior, so
P(X in CS(theta0) | |X| >= lam) equals the posterior credibility of CS(theta0).
PS(x) is one call of the scanning module's level-set scan on the curve pair
theta -> (U(theta), L(theta)) at the single level x: one endpoint table on a
grid over theta, shared by the crossing counts and the sliver guard (one
endpoint call per extremum-mode multisection round for both curves), with
every boundary refined by the same solver in boundary mode.  The window is
the coverage scan's half-width.  credible_set_contains tests x in CS(theta)
pointwise: the atom/band rule where it decides, else the sign of
scanning.level_margin, the flag the scan itself reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import draw_chunks, interval_mass
from .hpd import _finite_theta0, _fixed_cover, _half_width, _levels, endpoint_values, hpd_set
from .posterior import PriorConfig, gap_complement
from .scanning import level_margin, member_intervals

__all__ = [
    "PostSelectionSet",
    "post_selection_set",
    "credible_set_contains",
    "conditional_coverage_mc",
    "conditional_coverage_exact",
]


@dataclass(frozen=True)
class PostSelectionSet:
    """The inverted-membership set {theta : x in CS(theta)} as interval union."""

    x: float
    alpha: float
    lam: float
    intervals: tuple[tuple[float, float], ...]

    def contains(self, theta: float) -> bool:
        return any(a <= theta <= b for a, b in self.intervals)


def credible_set_contains(cfg: PriorConfig, data_values, x: float):
    """Vectorized indicator of x in CS(theta) with theta ranging over data_values.

    CS(theta) is the credible set computed as if theta were the observation.
    The atom/band rule decides where it applies (no CS(theta) holds an x
    inside the band); elsewhere x is a member iff level_margin(U, L, x) >= 0,
    that is L(theta) <= x <= U(theta), false on the all-atom region.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    thetas = np.atleast_1d(np.asarray(data_values, float))
    fixed, covered = _fixed_cover(cfg, x)
    if fixed:
        return np.full(thetas.shape, bool(covered))
    return level_margin(*endpoint_values(cfg, thetas), x) >= 0.0


def _require_selected(cfg: PriorConfig, x: float):
    if cfg.w != 1.0:
        raise ValueError("post-selection sets are defined for w = 1 only")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if abs(x) < cfg.lam:
        raise ValueError(f"|x| = {abs(x)} < lam = {cfg.lam}: observation was not selected")


def post_selection_set(cfg: PriorConfig, x: float) -> PostSelectionSet:
    """Compute PS(x) = {theta : x in CS(theta)} by membership scan over theta.

    Any theta with x within the credible set it would generate belongs to
    PS(x); the set is a finite interval union found by the same scan plus
    boundary solver used for coverage.
    """
    _require_selected(cfg, x)
    half = _half_width(cfg)
    curves = lambda thetas: endpoint_values(cfg, thetas)
    _, a, b = member_intervals(curves, x, x - half, x + half, [cfg.lam, -cfg.lam, x, -x])
    return PostSelectionSet(x=float(x), alpha=cfg.alpha, lam=cfg.lam, intervals=tuple(zip(a.tolist(), b.tolist())))


def conditional_coverage_mc(cfg: PriorConfig, theta0: float, n: int, seed: int) -> tuple[float, float, float]:
    """Monte Carlo estimate of P(theta0 in PS(X) | |X| >= lam).

    Membership is evaluated through the defining identity
    theta0 in PS(x) <=> x in CS(theta0).  At w = 1, CS(theta0) is the ball
    |x - theta0| <= rho(theta0) less the open band, rho = G^{-1}(1 - q) with
    q the level stage's tail level at theta0, and selection already leaves
    the band out, so a selected draw x = theta0 + G^{-1}(u) is covered iff
    G(-|Z|) = min(u, 1 - u) >= q: the level test of coverage._draw_flags with
    x and theta0 swapped, on the draw's own uniform.  Returns (coverage
    estimate, binomial standard error, selection rate).
    """
    if cfg.w != 1.0:
        raise ValueError("post-selection coverage requires w = 1")
    if n < 10_000:
        raise ValueError(f"need at least 10000 draws, got {n}")
    q = float(_levels(cfg, _finite_theta0(theta0))[0][0])
    kept = 0
    covered = 0
    for x, u in draw_chunks(cfg.dist, theta0, n, seed):
        sel = np.abs(x) >= cfg.lam
        kept += int(np.count_nonzero(sel))
        sel &= np.minimum(u, 1.0 - u) >= q
        covered += int(np.count_nonzero(sel))
    if kept == 0:
        raise RuntimeError("no draws passed the selection event |X| >= lam")
    c_hat = covered / kept
    stderr = math.sqrt(max(c_hat * (1.0 - c_hat), 1e-300) / kept)
    return c_hat, stderr, kept / n


def conditional_coverage_exact(cfg: PriorConfig, theta0: float) -> float:
    """P(theta0 in PS(X) | |X| >= lam) in closed form, for w = 1.

    It is P(X in CS(theta0)) over P(|X| >= lam): the masses of CS(theta0)'s
    intervals about theta0 (band-free already; one interval_mass call) over
    the selection mass gap_complement(theta0).  By the identity behind PS it
    is 1 - alpha (to 1e-12 on the tier-1 grid; the rounding of the interval
    ends, ulp(theta0), moves it by about 2e-9 at |theta0| = 1e8), and
    conditional_coverage_mc samples the same quantity.  Where the selection
    mass underflows to 0 it raises RuntimeError, as the Monte Carlo
    estimate does when no draw is selected.
    """
    if cfg.w != 1.0:
        raise ValueError("post-selection coverage requires w = 1")
    t = float(_finite_theta0(theta0)[0])
    selected = float(gap_complement(cfg, t))
    if not selected > 0.0:
        raise RuntimeError(f"the selection mass P(|X| >= lam) underflows to 0 at theta0 = {t!r}")
    a, b = np.array(hpd_set(cfg, t).intervals, float).reshape(-1, 2).T
    return float(np.sum(interval_mass(cfg.dist, a - t, b - t))) / selected
