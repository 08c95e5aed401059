"""Posterior for the spike-and-slab prior with a uniform slab off an excluded band.

Model: a single observation X = theta + Z with Z ~ dist.  The prior is

    pi(theta)  proportional to  (1 - w) * delta_0(theta) + w * 1(|theta| > lam),

an atom at zero plus an improper uniform slab outside [-lam, lam].  The
posterior is an atom at zero plus a renormalized piece of the shifted error
density on {|theta| > lam}.  Everything here is closed form in the error
CDF; no sampling is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import Distribution, _is_real, interval_mass

__all__ = [
    "PriorConfig",
    "gap_mass",
    "gap_complement",
    "atom_mass",
    "posterior_normalizer",
    "atom_threshold",
    "posterior_probability",
]

# Bracket-growth cap for the atom-threshold search; beyond this the atom is
# reported as never dropping below the credibility level.
_BRACKET_LIMIT = 1e6
# Cells per multisection round of the threshold search: one vectorized call
# narrows the bracket 32-fold, so a unit bracket takes 7 calls (scipy's
# brentq would take fewer, but importing scipy.optimize adds about 0.22 s to
# every process start).
_SECTIONS = 32


@dataclass(frozen=True)
class PriorConfig:
    """Prior parameters and credibility level for the one-observation model.

    lam >= 0 is the half-width of the excluded band, w in (0, 1] the slab
    weight (w = 1 means no atom), and alpha in (0, 1) the tail level of the
    (1 - alpha) highest-posterior-density set.
    """

    dist: Distribution
    lam: float
    w: float
    alpha: float

    def __post_init__(self):
        if not (_is_real(self.lam) and math.isfinite(self.lam)) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        if not (_is_real(self.w) and 0.0 < self.w <= 1.0):
            raise ValueError(f"w must lie in (0, 1], got {self.w!r}")
        if not (_is_real(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def has_atom(self) -> bool:
        return self.w < 1.0

    @cached_property
    def t_alpha(self) -> float:
        """Threshold on |x| below which the atom alone is a (1-alpha) set.

        -inf when no such x exists (always for w = 1); +inf, flagged case,
        when the atom stays above 1 - alpha for every bracketing attempt.
        """
        return atom_threshold(self)


def _as_array(x):
    arr = np.asarray(x, float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def gap_mass(cfg: PriorConfig, x):
    """Error-law mass of the excluded band [-lam, lam] centered at x."""
    arr, scalar = _as_array(x)
    d = cfg.dist
    return _ret(d.cdf(cfg.lam - arr) - d.cdf(-cfg.lam - arr), scalar)


def gap_complement(cfg: PriorConfig, x):
    """1 - gap_mass, formed additively as G(x-lam) + G(-lam-x) from one CDF call.

    This is the slab's share of the shifted error mass; the additive form
    avoids cancellation when the band carries almost all the mass.
    """
    arr, scalar = _as_array(x)
    g = cfg.dist.cdf(np.array([arr - cfg.lam, -cfg.lam - arr]))
    return _ret(g[0] + g[1], scalar)


def posterior_normalizer(cfg: PriorConfig, x):
    """Rescaled posterior normalizer D(x) = (1-w)/w * g(x) + gap_complement(x).

    The slab posterior density at theta is g(theta - x) / D(x); the atom
    carries (1-w)/w * g(x) / D(x).
    """
    arr, scalar = _as_array(x)
    spike = (1.0 - cfg.w) / cfg.w * cfg.dist.pdf(arr)
    return _ret(spike + gap_complement(cfg, arr), scalar)


def atom_mass(cfg: PriorConfig, x):
    """Posterior probability of {theta = 0} given X = x; zero when w = 1."""
    arr, scalar = _as_array(x)
    if cfg.w >= 1.0:
        return _ret(np.zeros_like(arr), scalar)
    # The spike's share kg / (kg + s) stays finite where the density underflows.
    kg = (1.0 - cfg.w) / cfg.w * cfg.dist.pdf(arr)
    return _ret(kg / (kg + gap_complement(cfg, arr)), scalar)


def atom_threshold(cfg: PriorConfig) -> float:
    """Solve atom_mass(t) = 1 - alpha for the unique t >= 0, if it exists.

    atom_mass is even and strictly decreasing on [0, inf), so the equation
    has at most one non-negative root.  Returns -inf when the atom is
    already below 1 - alpha at x = 0 (hence everywhere), and +inf when the
    atom stays at or above the level out to the bracket cap.
    """
    if cfg.w >= 1.0:
        return -math.inf
    target = 1.0 - cfg.alpha
    if atom_mass(cfg, 0.0) < target:
        return -math.inf
    lo, hi = 0.0, 1.0
    while atom_mass(cfg, hi) >= target:
        lo = hi
        hi *= 2.0
        if hi > _BRACKET_LIMIT:
            return math.inf
    # Multisection: each round evaluates the bracket at 33 points in one call
    # and keeps the first cell where the atom drops below the level, until
    # the bracket is under 1e-10 wide.
    for _ in range(math.ceil(math.log((hi - lo) / 1e-10, _SECTIONS))):
        t = np.linspace(lo, hi, _SECTIONS + 1)
        i = int(np.argmin(atom_mass(cfg, t) >= target))
        lo, hi = float(t[i - 1]), float(t[i])
    return 0.5 * (lo + hi)


def _validated_intervals(intervals):
    pairs = [(float(a), float(b)) for a, b in intervals]
    for a, b in pairs:
        if math.isnan(a) or math.isnan(b) or a > b:
            raise ValueError(f"bad interval ({a}, {b})")
    pairs.sort()
    for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
        if a2 < b1:
            raise ValueError(f"overlapping intervals ({a1}, {b1}) and ({a2}, {b2})")
    return pairs


def posterior_probability(cfg: PriorConfig, x: float, intervals, include_atom: bool) -> float:
    """Posterior probability of a disjoint interval union, given X = x.

    The union is intersected with the slab support {|theta| > lam}; the atom
    at zero is added when include_atom is set.  Intervals must be disjoint
    (endpoints may touch) and may have infinite endpoints.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    pairs = _validated_intervals(intervals)
    d = cfg.dist
    lam = cfg.lam
    total = 0.0
    for a, b in pairs:
        # Clip to the slab support on each side of the band.
        left = (a, min(b, -lam))
        right = (max(a, lam), b)
        for lo, hi in (left, right):
            if lo < hi:
                total += float(interval_mass(d, lo - x, hi - x))
    prob = total / posterior_normalizer(cfg, x)
    if include_atom:
        prob += atom_mass(cfg, x)
    return float(prob)
