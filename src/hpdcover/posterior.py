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
    weight (w = 1 means no atom, has_atom is w < 1; a subnormal w, where
    (1 - w) / w overflows, is rejected), and alpha in (0, 1) the tail level
    of the (1 - alpha) highest-posterior-density set.
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
        object.__setattr__(self, "has_atom", self.w < 1.0)

    def require_no_atom(self, what: str):
        """The one w = 1 rule: ValueError "<what> requires w = 1" with an atom."""
        if self.has_atom:
            raise ValueError(f"{what} requires w = 1")

    @cached_property
    def t_alpha(self) -> float:
        """Threshold on |x| up to which the atom alone is a (1-alpha) set.

        -inf when no such x exists (always for w = 1); +inf, flagged case,
        when the atom stays above 1 - alpha out to the bracket cap.  An
        array, one per row, for a column config (_with_w).
        """
        return atom_threshold(self)


def _with_w(cfg: PriorConfig, w) -> PriorConfig:
    """cfg with an array w of validated slab weights in place of its own: a
    column config, whose tail_levels, endpoint pass and t_alpha read row i
    at w[i], w broadcasting against x (an (n, 1) w gives an (m,) x n rows).
    It forms the spike term on every row (has_atom), zero where w = 1."""
    col = object.__new__(PriorConfig)
    vars(col).update(dist=cfg.dist, lam=cfg.lam, w=w, alpha=cfg.alpha, has_atom=True)
    return col


def _rows(cfg: PriorConfig, rows) -> PriorConfig:
    """cfg at the given rows: cfg itself for one config; for a column config
    (_with_w) its rows' slab weights, which broadcast against x."""
    return _with_w(cfg, cfg.w[rows, 0]) if isinstance(cfg.w, np.ndarray) else cfg


def _require_finite(name: str, value):
    """The one finiteness rule: ValueError "<name> must be finite, got <value>"
    unless the scalar value is finite (one math.isfinite call)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _sabs(x):
    """|x| as a float array, or a numpy float64 for a scalar x (tail_levels' scalar route)."""
    return np.abs(np.asarray(x, float))


def _ret(v):
    return float(v) if np.ndim(v) == 0 else v


def tail_levels(cfg: PriorConfig, sabs):
    """(s, kg, s + kg, q1, T, B, margin) at |x| = sabs from one lower_tail call on
    | |x| - lam | and lam + |x|: T = G(-| |x| - lam |), B = G(-lam - |x|); sabs is a float
    array, or a numpy float64 that gets numpy scalars from the same body (the scalar route).

    s = gap_complement is the slab's share of the shifted error mass, kg =
    (1-w)/w g(x) the spike term and q1 the tail level of r1.  With f = (|x| >
    lam), s = |f - T| + B and the band mass 1 - s = |(1 - f) - T| - B (exact:
    T <= 1/2), so q1 = 0.5 - 0.5((1 - alpha) s - alpha kg) is formed as the sum
    0.5 (alpha (s + kg) + (1 - s)), accurate where q1 is far below 1/2.  The
    atom margin alpha kg - (1 - alpha) s = alpha (s + kg) - s, not negative
    exactly where the atom carries 1 - alpha, has terms of the size of s, so
    it keeps its sign where q1 - 1/2 rounds to 0 deep in a wide band.  kg
    and the margin are None with no atom.  For a column config (_with_w)
    the pieces of |x| alone are formed once per x, and s, T and B come back
    spread over the rows; a w = 1 row (kg = 0) gets a margin below -1, so it
    never reads ATOM, even where s underflows to 0.
    """
    d, lam, alpha = cfg.dist, cfg.lam, cfg.alpha
    # Rows | |x| - lam | and lam + |x| (>= 0), then |f - T| and |(1 - f) - T|, in place.
    args = np.add.outer((-lam, lam), sabs)
    tails = d.lower_tail(np.abs(args, out=args))
    tail, below, far = tails[0], tails[1], sabs > lam
    np.abs(np.subtract([far, ~far], tail, out=args), out=args)
    s, gap = args[0], args[1]
    s += below
    kg = (1.0 - cfg.w) / cfg.w * d.pdf(sabs) if cfg.has_atom else None
    sk = s if kg is None else s + kg
    q1 = alpha * sk
    margin = None if kg is None else q1 - s
    gap -= below
    q1 += gap
    q1 *= 0.5
    if isinstance(cfg.w, np.ndarray):
        margin -= cfg.w == 1.0
        if s.shape != sk.shape:
            s, tail, below = (np.broadcast_to(v, sk.shape).copy() for v in (s, tail, below))
    return s, kg, sk, q1, tail, below, margin


def gap_complement(cfg: PriorConfig, x):
    """One minus the error-law mass of the band [-lam, lam] centred at x, formed
    additively as G(|x| - lam) + G(-lam - |x|) (tail_levels).

    This is the slab's share of the shifted error mass; the additive form
    avoids cancellation when the band carries almost all the mass.
    """
    return _ret(tail_levels(cfg, _sabs(x))[0])


def posterior_normalizer(cfg: PriorConfig, x):
    """Rescaled posterior normalizer D(x) = (1-w)/w * g(x) + gap_complement(x).

    The slab posterior density at theta is g(theta - x) / D(x); the atom
    carries (1-w)/w * g(x) / D(x).
    """
    return _ret(tail_levels(cfg, _sabs(x))[2])


def atom_mass(cfg: PriorConfig, x):
    """Posterior probability of {theta = 0} given X = x; zero when w = 1."""
    sabs = _sabs(x)
    if not cfg.has_atom:
        return _ret(np.zeros_like(sabs))
    # The spike's share kg / (kg + s) stays finite where the density underflows.
    _, kg, sk = tail_levels(cfg, sabs)[:3]
    return _ret(kg / sk)


def atom_threshold(cfg: PriorConfig):
    """The root of the atom margin of tail_levels (atom_mass decreases in |x|):
    the last float before the first |x| whose margin is negative, so that
    |x| <= t_alpha and the ATOM codes agree at t_alpha and both its float
    neighbours.  One call brackets it on 0, 1, 2, ..., 2^20, one
    scanning.refine_boundaries call narrows the bracket to a few ulp.  -inf
    when the margin is negative at x = 0 or there is no atom, +inf when it
    is not negative at 2^20.  A column config's rows (_with_w) are solved in
    the same calls, each bit for bit as alone (the 33 floats make the root).
    """
    if not cfg.has_atom:
        return -math.inf
    margin = lambda t, rows: tail_levels(_rows(cfg, rows), t)[6]
    g = np.atleast_2d(margin(_BRACKET, np.arange(np.size(cfg.w))[:, None]))
    k = np.argmax(g < 0, axis=1)
    out = np.where(g[:, 0] < 0, -math.inf, math.inf)  # where k = 0, as at a column's w = 1 rows
    inner = np.flatnonzero(k)
    if inner.size:
        k, g, r = k[inner], g[inner], np.arange(inner.size)
        past = np.minimum(k + 1, _BRACKET.size - 1)  # the next bracket point, past the cell
        root = refine_boundaries(lambda t, q: margin(t, inner[q]), _BRACKET[k - 1], _BRACKET[k],
                                 g[r, k - 1], g[r, k], 0.0, (_BRACKET[past], g[r, past]))
        # The floats about each root, where the first negative margin is read off.
        near = np.maximum(root.view(np.int64)[:, None] + np.arange(-16, 17), 0).view(np.float64)
        j = np.argmax(margin(near, inner[:, None]) < 0, axis=1)
        out[inner] = np.where(j > 0, near[r, j - 1], root)
    return float(out[0]) if np.ndim(cfg.w) == 0 else out


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
    _, kg, sk = tail_levels(cfg, _sabs(x))[:3]
    prob = total / float(sk)
    if include_atom and kg is not None:
        prob += float(kg / sk)
    return float(prob)
