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
the coverage scan's half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import draw_chunks
from .hpd import _half_width, endpoint_values, hpd_set
from .posterior import PriorConfig
from .scanning import ScanSettings, covers, member_intervals

__all__ = [
    "PostSelectionSet",
    "post_selection_set",
    "credible_set_contains",
    "conditional_coverage_mc",
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
    Requires w = 1 (no atom) and |x| >= lam, under which membership reduces
    to L(theta) <= x <= U(theta).
    """
    thetas = np.atleast_1d(np.asarray(data_values, float))
    return covers(*endpoint_values(cfg, thetas), x)


def _require_selected(cfg: PriorConfig, x: float):
    if cfg.w != 1.0:
        raise ValueError("post-selection sets are defined for w = 1 only")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if abs(x) < cfg.lam:
        raise ValueError(f"|x| = {abs(x)} < lam = {cfg.lam}: observation was not selected")


def post_selection_set(cfg: PriorConfig, x: float, scan: ScanSettings = ScanSettings()) -> PostSelectionSet:
    """Compute PS(x) = {theta : x in CS(theta)} by membership scan over theta.

    Any theta with x within the credible set it would generate belongs to
    PS(x); the set is a finite interval union found by the same scan plus
    boundary solver used for coverage.
    """
    _require_selected(cfg, x)
    half = _half_width(cfg, scan)
    curves = lambda thetas: endpoint_values(cfg, thetas)
    _, a, b = member_intervals(curves, x, x - half, x + half, [cfg.lam, -cfg.lam, x, -x], scan)
    return PostSelectionSet(x=float(x), alpha=cfg.alpha, lam=cfg.lam, intervals=tuple(zip(a.tolist(), b.tolist())))


def conditional_coverage_mc(
    cfg: PriorConfig,
    theta0: float,
    n: int,
    seed: int,
    chunk: int = 1 << 20,
) -> tuple[float, float, float]:
    """Monte Carlo estimate of P(theta0 in PS(X) | |X| >= lam).

    Membership is evaluated through the defining identity
    theta0 in PS(x) <=> x in CS(theta0), so the fixed set CS(theta0) is
    assembled once and each retained draw is a pure interval test.  Returns
    (coverage estimate, binomial standard error, selection rate).
    """
    if cfg.w != 1.0:
        raise ValueError("post-selection coverage requires w = 1")
    if n < 10_000:
        raise ValueError(f"need at least 10000 draws, got {n}")
    cs = hpd_set(cfg, theta0)
    pieces = cs.intervals
    kept = 0
    covered = 0
    for x, _ in draw_chunks(cfg.dist, theta0, n, seed, chunk):
        sel = np.abs(x) >= cfg.lam
        kept += int(np.count_nonzero(sel))
        xs = x[sel]
        member = np.zeros(xs.shape, dtype=bool)
        for a, b in pieces:
            member |= (xs >= a) & (xs <= b)
        covered += int(np.count_nonzero(member))
    if kept == 0:
        raise RuntimeError("no draws passed the selection event |X| >= lam")
    c_hat = covered / kept
    stderr = math.sqrt(max(c_hat * (1.0 - c_hat), 1e-300) / kept)
    return c_hat, stderr, kept / n
