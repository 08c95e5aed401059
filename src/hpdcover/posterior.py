"""Posterior for the spike-and-slab prior with a uniform slab off an excluded band.

Model: a single observation X = theta + Z with Z ~ dist.  The prior is

    pi(theta)  proportional to  (1 - w) * delta_0(theta) + w * 1(|theta| > lam),

an atom at zero plus an improper uniform slab outside [-lam, lam].  The
posterior is an atom at zero plus a renormalized piece of the shifted error
density on {|theta| > lam}.  Everything here is closed form in the error
CDF; no sampling is involved.  tail_levels forms all of its pieces; t_alpha
is the root of its atom margin on the shared boundary solver of scanning.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import Distribution, _is_real, interval_mass
from .scanning import refine_boundaries

__all__ = [
    "PriorConfig",
    "gap_complement",
    "atom_mass",
    "posterior_normalizer",
    "tail_levels",
    "atom_threshold",
    "posterior_probability",
]

# Bracket of the atom-threshold search; t_alpha is +inf past its end.
_BRACKET = np.concatenate([[0.0], np.ldexp(1.0, np.arange(21))])


@dataclass(frozen=True)
class PriorConfig:
    """Prior parameters and credibility level for the one-observation model.

    lam >= 0 is the half-width of the excluded band, w in (0, 1] the slab
    weight (w = 1 means no atom; a subnormal w, where (1 - w) / w overflows,
    is rejected), and alpha in (0, 1) the tail level of the (1 - alpha)
    highest-posterior-density set.
    """

    dist: Distribution
    lam: float
    w: float
    alpha: float

    def __post_init__(self):
        if not (_is_real(self.lam) and math.isfinite(self.lam)) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        if not (_is_real(self.w) and sys.float_info.min <= self.w <= 1.0):
            raise ValueError(f"w must lie in [{sys.float_info.min}, 1], got {self.w!r}")
        if not (_is_real(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def has_atom(self) -> bool:
        return self.w < 1.0

    def require_no_atom(self, what: str):
        """The one w = 1 rule: ValueError "<what> requires w = 1" with an atom."""
        if self.has_atom:
            raise ValueError(f"{what} requires w = 1")

    @cached_property
    def t_alpha(self) -> float:
        """Threshold on |x| up to which the atom alone is a (1-alpha) set.

        -inf when no such x exists (always for w = 1); +inf, flagged case,
        when the atom stays above 1 - alpha out to the bracket cap.
        """
        return atom_threshold(self)


def _require_finite(name: str, value):
    """The one finiteness rule: ValueError "<name> must be finite, got <value>"
    unless the scalar value is finite (one math.isfinite call)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _as_array(x):
    arr = np.asarray(x, float)
    return np.atleast_1d(arr), arr.ndim == 0


def _ret(arr, scalar):
    return float(arr[0]) if scalar else arr


def tail_levels(cfg: PriorConfig, sabs):
    """(s, kg, s + kg, q1, T, B, margin) at |x| = sabs (an array) from one lower_tail
    call on | |x| - lam | and lam + |x|: T = G(-| |x| - lam |), B = G(-lam - |x|).

    s = gap_complement is the slab's share of the shifted error mass, kg =
    (1-w)/w g(x) the spike term and q1 the tail level of r1.  With f = (|x| >
    lam), s = |f - T| + B and the band mass 1 - s = |(1 - f) - T| - B (exact:
    T <= 1/2), so q1 = 0.5 - 0.5((1 - alpha) s - alpha kg) is formed as the sum
    0.5 (alpha (s + kg) + (1 - s)), accurate where q1 is far below 1/2.  The
    atom margin alpha kg - (1 - alpha) s = alpha (s + kg) - s, not negative
    exactly where the atom carries 1 - alpha, has terms of the size of s, so
    it keeps its sign where q1 - 1/2 rounds to 0 deep in a wide band.  kg
    and the margin are None with no atom.
    """
    d, lam, alpha = cfg.dist, cfg.lam, cfg.alpha
    args = np.empty((2,) + sabs.shape)
    np.abs(np.subtract(sabs, lam, out=args[0]), out=args[0])
    np.add(sabs, lam, out=args[1])
    tail, below = d.lower_tail(args)
    far = sabs > lam
    s = np.abs(np.subtract(far, tail, out=args[0]), out=args[0])
    s += below
    kg = (1.0 - cfg.w) / cfg.w * d.pdf(sabs) if cfg.has_atom else None
    sk = s if kg is None else s + kg
    q1 = np.multiply(alpha, sk)
    margin = None if kg is None else q1 - s
    gap = np.abs(np.subtract(~far, tail, out=args[1]), out=args[1])
    gap -= below
    q1 += gap
    q1 *= 0.5
    return s, kg, sk, q1, tail, below, margin


def gap_complement(cfg: PriorConfig, x):
    """One minus the error-law mass of the band [-lam, lam] centred at x, formed
    additively as G(|x| - lam) + G(-lam - |x|) (tail_levels).

    This is the slab's share of the shifted error mass; the additive form
    avoids cancellation when the band carries almost all the mass.
    """
    arr, scalar = _as_array(x)
    return _ret(tail_levels(cfg, np.abs(arr))[0], scalar)


def posterior_normalizer(cfg: PriorConfig, x):
    """Rescaled posterior normalizer D(x) = (1-w)/w * g(x) + gap_complement(x).

    The slab posterior density at theta is g(theta - x) / D(x); the atom
    carries (1-w)/w * g(x) / D(x).
    """
    arr, scalar = _as_array(x)
    return _ret(tail_levels(cfg, np.abs(arr))[2], scalar)


def atom_mass(cfg: PriorConfig, x):
    """Posterior probability of {theta = 0} given X = x; zero when w = 1."""
    arr, scalar = _as_array(x)
    if not cfg.has_atom:
        return _ret(np.zeros_like(arr), scalar)
    # The spike's share kg / (kg + s) stays finite where the density underflows.
    _, kg, sk = tail_levels(cfg, np.abs(arr))[:3]
    return _ret(kg / sk, scalar)


def atom_threshold(cfg: PriorConfig) -> float:
    """The root of the atom margin of tail_levels (atom_mass decreases in |x|):
    the last float before the first |x| whose margin is negative, so that
    |x| <= t_alpha and the ATOM codes agree at t_alpha and both its float
    neighbours.  One call brackets it on 0, 1, 2, ..., 2^20, one
    scanning.refine_boundaries call narrows the bracket to a few ulp.  -inf
    when the margin is negative at x = 0, +inf when it is not at 2^20.
    """
    if not cfg.has_atom:
        return -math.inf
    margin = lambda t, rows=None: tail_levels(cfg, t)[6]
    g = margin(_BRACKET)
    k = int(np.argmax(g < 0))
    if k == 0:
        return -math.inf if g[0] < 0 else math.inf
    root = refine_boundaries(margin, _BRACKET[k - 1], _BRACKET[k], g[k - 1], g[k], 0.0)[0]
    # The floats about the root, where the first negative margin is read off.
    near = np.maximum(np.float64(root).view(np.int64) + np.arange(-16, 17), 0).view(np.float64)
    j = int(np.argmax(margin(near) < 0))
    return float(near[j - 1] if j else root)


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
    (endpoints may touch) and may have infinite endpoints.  The normalizer
    D(x) = s + kg and the atom mass kg / D(x) come from one tail_levels call,
    the values posterior_normalizer and atom_mass return.
    """
    _require_finite("x", x)
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
    _, kg, sk = tail_levels(cfg, np.abs(np.atleast_1d(float(x))))[:3]
    prob = total / float(sk[0])
    if include_atom and kg is not None:
        prob += float(kg[0] / sk[0])
    return float(prob)
