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
each crossing of U and of L refined by the same solver in boundary mode, on
hpd._set_window about x, the window of inversion too.  credible_set_contains
tests x in CS(theta) pointwise: the atom/band rule where it decides, else
L(theta) <= x <= U(theta), the two flags the scan itself reads.

The conditional coverage P(theta0 in PS(X) | |X| >= lam) is computed in
closed form (conditional_coverage_exact) and sampled as a cross-check
(conditional_coverage_mc).  The sampled check never forms a draw: G is
increasing, so selection and membership are both thresholds on the seeded
uniform stream, and an estimate costs one lower_tail call, one level-stage
call and a few comparisons per uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import interval_mass, uniform_blocks
from .hpd import _endpoint_pass, _finite_theta0, _fixed_cover, _levels, _set_window, endpoint_values
from .posterior import PriorConfig, _require_finite, gap_complement
from .scanning import member_intervals

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
    inside the band); elsewhere x is a member iff L(theta) <= x <= U(theta),
    the two flags the scan reads, false on the all-atom region (NaN ends).
    """
    _require_finite("x", x)
    thetas = np.atleast_1d(np.asarray(data_values, float))
    fixed, covered = _fixed_cover(cfg, x)
    if fixed:
        return np.full(thetas.shape, bool(covered))
    upper, lower = endpoint_values(cfg, thetas)
    return (lower <= x) & (x <= upper)


def post_selection_set(cfg: PriorConfig, x: float) -> PostSelectionSet:
    """Compute PS(x) = {theta : x in CS(theta)} by membership scan over theta.

    Any theta with x within the credible set it would generate belongs to
    PS(x); the set is a finite interval union found by the same scan plus
    boundary solver used for coverage.
    """
    cfg.require_no_atom("a post-selection set")
    _require_finite("x", x)
    if abs(x) < cfg.lam:
        raise ValueError(f"|x| = {abs(x)} < lam = {cfg.lam}: observation was not selected")
    curves = lambda thetas, rows=None: endpoint_values(cfg, thetas)
    _, a, b = member_intervals(curves, x, *_set_window(cfg, x), [cfg.lam, -cfg.lam, x, -x])
    return PostSelectionSet(x=float(x), alpha=cfg.alpha, lam=cfg.lam, intervals=tuple(zip(a.tolist(), b.tolist())))


def conditional_coverage_mc(cfg: PriorConfig, theta0: float, n: int, seed: int) -> tuple[float, float, float]:
    """Monte Carlo estimate of P(theta0 in PS(X) | |X| >= lam), on the
    seeded uniform stream alone: no quantile is evaluated.

    Membership is evaluated through the defining identity
    theta0 in PS(x) <=> x in CS(theta0).  At w = 1, CS(theta0) is the ball
    |x - theta0| <= rho(theta0) less the open band, rho = G^{-1}(1 - q) with
    q the level stage's tail level at theta0, and selection already leaves
    the band out, so a selected draw x = theta0 + G^{-1}(u) is covered iff
    G(-|Z|) = min(u, 1 - u) >= q: the level test of coverage._draw_flags with
    x and theta0 swapped, on the draw's own uniform.  G is increasing, so
    selection |theta0 + G^{-1}(u)| >= lam reads u <= G(-lam - theta0) or
    u >= G(lam - theta0), two thresholds from one lower_tail call (a
    threshold above 1/2 is 1 - G(-|t|), within half an ulp of 1, where the
    uniforms are 2^-53 apart).  Both tests sit in u-space, so the counts are
    those of the draws x themselves except for a draw within rounding of a
    threshold.  Returns (coverage estimate, binomial standard error,
    selection rate).
    """
    cfg.require_no_atom("post-selection coverage")
    blocks = uniform_blocks(n, seed)  # the one draw rule; draws lazily
    t = _finite_theta0(theta0)
    q = float(_levels(cfg, t[0])[0])
    band = np.concatenate([-cfg.lam - t, cfg.lam - t])  # selection is Z <= band[0] or Z >= band[1]
    tails = cfg.dist.lower_tail(np.abs(band))
    below, above = np.where(band <= 0.0, tails, 1.0 - tails)
    kept = 0
    covered = 0
    for u in blocks:
        sel = u <= below
        sel |= u >= above
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

    It is P(X in CS(theta0)) over P(|X| >= lam): the mass of CS(theta0)
    over the selection mass gap_complement(theta0).  CS(theta0) is the ball
    of radius r about theta0 less the band (hpd._levels), so its mass is
    that of Z in [-r, r] less the band offsets (-lam - theta0, lam - theta0),
    two pieces in one interval_mass call, with r from one endpoint pass.
    Offsets about theta0 keep the accuracy that interval ends rounded to
    ulp(theta0) lose: the value is 1 - alpha to 1e-12 out to |theta0| = 1e12
    (tested), and conditional_coverage_mc samples the same quantity.  Where
    the selection mass underflows to 0 it raises RuntimeError, as the Monte
    Carlo estimate does when no draw is selected.
    """
    cfg.require_no_atom("post-selection coverage")
    t = float(_finite_theta0(theta0)[0])
    selected = float(gap_complement(cfg, t))
    if not selected > 0.0:
        raise RuntimeError(f"the selection mass P(|X| >= lam) underflows to 0 at theta0 = {t!r}")
    r = float(_endpoint_pass(cfg, t)[3][0])
    lo, hi = -cfg.lam - t, cfg.lam - t
    # A piece that the band swallows is reversed, which interval_mass reads as empty.
    mass = interval_mass(cfg.dist, [-r, max(-r, hi)], [min(r, lo), r])
    return float(np.sum(mass)) / selected
