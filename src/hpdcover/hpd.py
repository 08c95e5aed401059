"""Closed-form highest-posterior-density sets for the banded spike-and-slab prior.

Given X = x, the (1-alpha)-HPD set is the atom {0} alone when the atom
already carries 1 - alpha of the posterior (|x| <= t_alpha), and otherwise

    ([L(x), U(x)] \\ (-lam, lam))  union  ({0} if w < 1),

where U is built from three radius functions r1, r2, r3.  The real line
splits into four regimes (plus the atom region) on which U takes the forms
x + r1, x + r2, x + r3, and -lam; L(x) = -U(-x) by symmetry.  One evaluator,
``endpoints``, returns U, L and the regime codes in two stages: a level
stage (one CDF call) selects each x's regime code and the tail level q of
its radius on the whole array (r2 once at -|x| for both signs), and a radius
stage (one quantile call, rho = G^{-1}(1 - q)) forms U and L from rho and the
codes.  Monte Carlo runs the level stage alone.  The module also provides the
set-valued inverses of U and L (level-set boundaries, from the scan coverage
uses), a monotone fixed-point iteration for the smallest element of L^{-1},
and the one-sided analogue (uniform prior on (lam, inf)) used as a baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .posterior import PriorConfig, atom_mass
from .scanning import ScanSettings, sign_change_roots

__all__ = [
    "Regime",
    "CredibleSet",
    "InverseSet",
    "InversionError",
    "hpd_radii",
    "classify_regime",
    "regime_codes",
    "upper_endpoint",
    "lower_endpoint",
    "upper_endpoint_alt",
    "upper_values",
    "lower_values",
    "endpoint_values",
    "endpoints",
    "hpd_set",
    "hpd_length",
    "invert_upper",
    "invert_lower",
    "smallest_lower_inverse",
    "onesided_radii",
    "onesided_endpoints",
    "onesided_upper_endpoint",
    "onesided_lower_endpoint",
]


class Regime(IntEnum):
    """Label of the closed-form branch active at a given observation."""

    ATOM = 0
    I = 1
    II = 2
    III = 3
    IV = 4

    def __str__(self):
        return self.name


# The codes as int8 scalars: numpy converts a Regime member anew at each use.
_ATOM, _I, _II, _III, _IV = map(np.int8, Regime)


class InversionError(ValueError):
    """Raised when a requested set-valued inverse comes back empty."""


def _ppf_upper_ext(dist, q):
    """G^{-1}(1 - q) with extended-real conventions: q <= 0 -> +inf, q >= 1 -> -inf.

    Interior values go through the mirrored lower-tail quantile so tiny q
    keeps relative accuracy.  Out-of-range q never reaches the quantile code.
    """
    q = np.asarray(q, float)
    inside = (q > 0.0) & (q < 1.0)
    if inside.all():
        r = dist.ppf(q)
        return np.negative(r, out=r)
    out = np.full(q.shape, np.nan)
    out[inside] = -dist.ppf(q[inside])
    out[q <= 0.0] = np.inf
    out[q >= 1.0] = -np.inf
    return out


def _tail_levels(cfg: PriorConfig, sabs: np.ndarray):
    """(s + kg, q1, T, B) at |x| = sabs from one CDF call, T = G(-| |x| - lam |)
    and B = G(-lam - |x|).

    s = gap_complement(x) is the slab's share of the shifted error mass, kg
    the spike term (added only with an atom: it is 0 at w = 1) and q1 the
    tail level of r1.  s = (|x| > lam ? 1 - T : T) + B and the band mass
    1 - s = (|x| > lam ? T : 1 - T) - B, so q1 = 0.5 - 0.5((1 - alpha) s -
    alpha kg) is formed as the sum 0.5 (alpha (s + kg) + (1 - s)), which
    keeps relative accuracy when q1 is far below 1/2 (|x| beyond the band).
    """
    d, lam = cfg.dist, cfg.lam
    args = np.empty((2,) + sabs.shape)
    np.negative(np.abs(np.subtract(sabs, lam, out=args[0]), out=args[0]), out=args[0])
    np.subtract(-lam, sabs, out=args[1])
    levels = d.cdf(args)
    tail, below, far = levels[0], levels[1], sabs > lam
    gap = 1.0 - tail
    sk = np.where(far, gap, tail)
    sk += below
    if cfg.has_atom:
        sk += (1.0 - cfg.w) / cfg.w * d.pdf(sabs)
    np.copyto(gap, tail, where=far)
    gap -= below
    q1 = np.multiply(cfg.alpha, sk)
    q1 += gap
    q1 *= 0.5
    return sk, q1, tail, below


def hpd_radii(cfg: PriorConfig, x):
    """The three interval radii (r1, r2, r3) at observation x.

    r1 is the symmetric half-width, r3 the half-width after the excluded
    band's mass is redistributed, and r2 the right extension used when the
    interval is pinned to the band edge.  r2 follows the extended-real
    convention (+inf / -inf) when its defining tail mass leaves (0, 1).
    r1 and r3 are finite wherever |x| > t_alpha.
    """
    xs = np.atleast_1d(np.asarray(x, float))
    sk, q1, _, _ = _tail_levels(cfg, np.abs(xs))
    signed = cfg.dist.cdf(-cfg.lam - xs)
    r = _ppf_upper_ext(cfg.dist, np.stack([q1, cfg.alpha * sk - signed, 0.5 * cfg.alpha * sk]))
    return tuple(map(float, r[:, 0])) if np.ndim(x) == 0 else tuple(r)


def endpoints(cfg: PriorConfig, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U(x), L(x) and the Regime codes in one pass; U and L are NaN on the atom region.

    The level stage (one CDF call) reads the regimes off the tail levels and
    picks the level of the radius each regime uses; one quantile call then
    evaluates it: r1 on I, r3 on III and r2 on the band-edge regimes II/IV.
    The gap mass and the spike term are even in x, so r2 at -|x| is the
    pinned radius of U for x > 0 and of the reflection L(x) = -U(-x) for x < 0.
    """
    return _endpoint_pass(cfg, x)[:3]


def _levels(cfg: PriorConfig, x: np.ndarray):
    """Level stage of the endpoint pass, one CDF call: (q, codes).

    q is each x's selected tail level, q1 on I, q3 on III and q2 on II/IV,
    so that its radius is rho = G^{-1}(1 - q) and, in every regime,
    HPD(x) = {theta : |theta - x| <= rho} \\ (-lam, lam) off the atom region;
    codes are the Regime codes, ATOM wherever |x| > t_alpha fails (NaN x
    included).  Each level and code is selected on the whole array.
    """
    alpha, sabs = cfg.alpha, np.abs(x)
    sk, q1, tail, below = _tail_levels(cfg, sabs)
    # r = G^{-1}(1 - q) falls as q rises: regime I (|x| - lam > r1) reads
    # q1 > G(lam - |x|), and III (r3 >= |x| + lam) reads q3 <= G(-lam - |x|).
    q = alpha * sk - below
    q3 = np.multiply(0.5 * alpha, sk, out=sk)
    third = q3 <= below
    np.copyto(q, q3, where=third)
    one = (sabs > cfg.lam) & (q1 > tail)
    np.copyto(q, q1, where=one)
    codes = np.where(one, _I, np.where(third, _III, np.where(x > 0, _II, _IV)))
    return q, np.where(sabs > cfg.t_alpha, codes, _ATOM)


def _endpoint_pass(cfg: PriorConfig, x):
    """endpoints and the radius r of each regime: r1 on I, r3 on III, r2 on II/IV.

    The level stage (_levels), then one quantile call r = G^{-1}(1 - q):
    U = x + r but -lam on IV, L = -(r - x) (so that a zero L keeps its sign)
    but lam on II, and both are NaN on ATOM.
    """
    arr = np.atleast_1d(np.asarray(x, float))
    q, codes = _levels(cfg, arr)
    r = _ppf_upper_ext(cfg.dist, q)
    upper = arr + r
    np.copyto(upper, -cfg.lam, where=codes == _IV)
    lower = -(r - arr)
    np.copyto(lower, cfg.lam, where=codes == _II)
    atom = codes == _ATOM
    upper[atom] = lower[atom] = np.nan
    return upper, lower, codes, r


def regime_codes(cfg: PriorConfig, x) -> np.ndarray:
    """Vectorized regime classification; values are Regime codes (int8)."""
    return endpoints(cfg, x)[2]


def classify_regime(cfg: PriorConfig, x: float) -> Regime:
    """Regime of a single observation (ATOM when |x| <= t_alpha)."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return Regime(int(regime_codes(cfg, x)[0]))


def upper_values(cfg: PriorConfig, x) -> np.ndarray:
    """Vectorized upper endpoint U(x); NaN where the set is the atom alone."""
    return endpoints(cfg, x)[0]


def lower_values(cfg: PriorConfig, x) -> np.ndarray:
    """Vectorized lower endpoint L(x) = -U(-x); NaN where the set is the atom alone."""
    return endpoints(cfg, x)[1]


def endpoint_values(cfg: PriorConfig, x) -> tuple[np.ndarray, np.ndarray]:
    """Both endpoints (U(x), L(x)); NaN on the atom region."""
    return endpoints(cfg, x)[:2]


def _require_interval_part(cfg: PriorConfig, x: float):
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if abs(x) <= cfg.t_alpha:
        raise ValueError(
            f"|x| = {abs(x)} <= t_alpha = {cfg.t_alpha}: the credible set is the atom alone"
        )


def upper_endpoint(cfg: PriorConfig, x: float) -> float:
    """U(x) for |x| > t_alpha: x + r1, x + r2, x + r3 or -lam by regime."""
    _require_interval_part(cfg, x)
    return float(upper_values(cfg, x)[0])


def lower_endpoint(cfg: PriorConfig, x: float) -> float:
    """L(x) = -U(-x) for |x| > t_alpha."""
    _require_interval_part(cfg, x)
    return float(lower_values(cfg, x)[0])


def upper_endpoint_alt(cfg: PriorConfig, x: float) -> float:
    """Regime-free form of U: combines h1 = x + (r2 ^ r3) v r1 and h2 = -lam ^ (x + r1).

    Returns h1 when h1 >= lam and h2 otherwise; agrees with upper_endpoint
    everywhere on |x| > t_alpha.
    """
    _require_interval_part(cfg, x)
    r1, r2, r3 = hpd_radii(cfg, x)
    h1 = x + max(min(r2, r3), r1)
    h2 = min(-cfg.lam, x + r1)
    return h1 if h1 >= cfg.lam else h2


@dataclass(frozen=True)
class CredibleSet:
    """A (1-alpha)-HPD set: up to two closed intervals plus an optional atom."""

    x: float
    regime: Regime
    lower: float
    upper: float
    intervals: tuple[tuple[float, float], ...]
    atom_included: bool
    atom_mass: float

    @property
    def length(self) -> float:
        """Lebesgue measure of the interval part."""
        return float(sum(b - a for a, b in self.intervals))

    def contains(self, theta: float) -> bool:
        if theta == 0.0 and (self.atom_included or self.regime is Regime.ATOM):
            return True
        return any(a <= theta <= b for a, b in self.intervals)


def hpd_set(cfg: PriorConfig, x: float) -> CredibleSet:
    """Assemble the full credible set at observation x."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    up, low, codes = endpoints(cfg, x)
    regime, lam = Regime(int(codes[0])), cfg.lam
    upper, lower = float(up[0]), float(low[0])  # NaN on the atom region
    if regime is Regime.ATOM:
        pieces = []
    elif lam == 0.0:
        pieces = [(lower, upper)]
    else:
        pieces = [(lower, min(upper, -lam))] if lower <= -lam else []
        if upper >= lam:
            pieces.append((max(lower, lam), upper))
    # Only a prior with an atom has an atom region, so ATOM sets include it too.
    return CredibleSet(
        x=float(x),
        regime=regime,
        lower=lower,
        upper=upper,
        intervals=tuple(pieces),
        atom_included=cfg.has_atom,
        atom_mass=float(atom_mass(cfg, x)),
    )


def hpd_length(cfg: PriorConfig, x) -> float | np.ndarray:
    """Length of the interval part from one endpoints pass: 2 r1 in regime I,
    elsewhere the measure of [L, U] minus the band (-lam, lam), clipped as
    hpd_set clips its pieces; zero in the atom region."""
    up, low, codes, r = _endpoint_pass(cfg, x)
    lam = cfg.lam
    with np.errstate(invalid="ignore"):
        if lam == 0.0:
            lengths = up - low
        else:
            lengths = np.where(low <= -lam, np.minimum(up, -lam) - low, 0.0)
            lengths += np.where(up >= lam, up - np.maximum(low, lam), 0.0)
    # Regime I is [x - r1, x + r1] clear of the band: 2 r1 from the radius
    # keeps the accuracy that U - L loses to the rounding of x +- r1.
    lengths = np.where(codes == _I, 2.0 * r, lengths)
    lengths[codes == _ATOM] = 0.0
    return float(lengths[0]) if np.ndim(x) == 0 else lengths


@dataclass(frozen=True)
class InverseSet:
    """All solutions of endpoint(x) = target outside the atom region."""

    target: float
    roots: tuple[float, ...]
    regimes: tuple[Regime, ...]

    @property
    def inf(self) -> float:
        return self.roots[0]

    @property
    def sup(self) -> float:
        return self.roots[-1]


def _member_reach(cfg: PriorConfig) -> float:
    """sup r3 + 0.5 with sup r3 = G^{-1}(1 - alpha G(-lam)), +inf if G(-lam) underflows: every
    radius is at most sup r3, so each x whose set holds theta0 lies within it of theta0."""
    return float(cfg.dist.ppf_upper(cfg.alpha * float(cfg.dist.cdf(-cfg.lam)))) + 0.5


def _half_width(cfg: PriorConfig, scan: ScanSettings) -> float:
    """Coverage scan half-width: _member_reach (no mass lost), or G^{-1}(1 - tol_tail / 2) if smaller."""
    return min(float(cfg.dist.ppf_upper(scan.tol_tail / 2.0)), _member_reach(cfg))


def _invert_endpoint(cfg: PriorConfig, column: int, theta0: float, scan: ScanSettings) -> InverseSet:
    """Roots of endpoint = theta0 for column 0 (U) or 1 (L) of the endpoints pass."""
    b = abs(theta0) + cfg.dist.ppf_upper(scan.tol_tail) + cfg.lam
    reach, t = _member_reach(cfg), cfg.t_alpha

    def fn(xs):
        upper_lower_codes = endpoints(cfg, xs)
        return upper_lower_codes[column] - theta0, upper_lower_codes[2]

    # One window about theta0; the atom region inside it is NaN, outside the set.
    lo, hi = max(-b, theta0 - reach), min(b, theta0 + reach)
    specials = [cfg.lam, -cfg.lam, theta0, t, -t]
    allr, codes = sign_change_roots(fn, lo, hi, specials, scan, 1e-6 * (1.0 + abs(theta0)))
    if allr.size == 0:
        raise InversionError(
            f"no solutions of the endpoint equation at target {theta0} "
            f"(target below the atom threshold, or window [{lo}, {hi}] too small)"
        )
    regs = tuple(Regime(int(c)) for c in codes)
    return InverseSet(target=float(theta0), roots=tuple(float(r) for r in allr), regimes=regs)


def invert_upper(cfg: PriorConfig, theta0: float, scan: ScanSettings = ScanSettings()) -> InverseSet:
    """The set {x : |x| > t_alpha, U(x) = theta0}.

    The inner ends of {U >= theta0} within sup r3 + 0.5 of theta0, from the
    sliver-guarded level-set scan (scanning.sign_change_roots), so a root
    pair between two grid points is found; jumps of U are dropped.
    """
    return _invert_endpoint(cfg, 0, theta0, scan)


def invert_lower(cfg: PriorConfig, theta0: float, scan: ScanSettings = ScanSettings()) -> InverseSet:
    """The set {x : |x| > t_alpha, L(x) = theta0}, by the same level-set
    scan as invert_upper."""
    return _invert_endpoint(cfg, 1, theta0, scan)


def smallest_lower_inverse(cfg: PriorConfig, theta0: float, tol: float = 1e-12, max_iter: int = 10_000) -> float:
    """Smallest solution of L(x) = theta0 via the monotone iteration
    a_{k+1} = theta0 + r1(a_k), started at a_0 = theta0.

    Valid for theta0 above both lam and t_alpha, where every solution sits
    in regime I so the fixed point of x = theta0 + r1(x) is the infimum.
    The iterates increase monotonically; non-monotonicity or failure to
    converge raises.
    """
    if not theta0 > max(cfg.lam, cfg.t_alpha):
        raise ValueError(
            f"theta0 = {theta0} must exceed max(lam, t_alpha) = {max(cfg.lam, cfg.t_alpha)}"
        )
    a = float(theta0)
    for _ in range(max_iter):
        nxt = theta0 + float(_ppf_upper_ext(cfg.dist, _tail_levels(cfg, np.array([a]))[1])[0])
        if nxt < a - 1e-12:
            raise RuntimeError(f"fixed-point iterates decreased at a = {a}")
        if abs(nxt - a) <= tol:
            return nxt
        a = nxt
    raise RuntimeError(f"fixed-point iteration did not converge in {max_iter} steps")


# ---------------------------------------------------------------------------
# One-sided baseline: uniform prior on (lam, inf), no atom.


def _require_onesided(cfg: PriorConfig):
    if cfg.w != 1.0:
        raise ValueError("the one-sided baseline is defined for w = 1 only")


def onesided_radii(cfg: PriorConfig, x):
    """Radii (r1, r2) of the one-sided HPD interval for the prior 1(theta > lam).

    r1 is the symmetric half-width of the interior interval, r2 the right
    extension when the interval is pinned at lam.  Both are finite for all x.
    """
    arr = np.asarray(x, float)
    d = cfg.dist
    g_right = d.cdf(arr - cfg.lam)
    q1 = 0.5 * (d.cdf(cfg.lam - arr) + cfg.alpha * g_right)
    return -d.ppf(q1), -d.ppf(cfg.alpha * g_right)


def onesided_endpoints(cfg: PriorConfig, x):
    """(U1(x), L1(x)) of the one-sided HPD from one radius evaluation:
    x + max(r1, r2) and the interior value x - r1 floored at lam."""
    _require_onesided(cfg)
    arr = np.asarray(x, float)
    r1, r2 = onesided_radii(cfg, arr)
    return arr + np.maximum(r1, r2), np.maximum(cfg.lam, arr - r1)


def onesided_upper_endpoint(cfg: PriorConfig, x):
    """Upper end of the one-sided HPD: x + max(r1, r2)."""
    return onesided_endpoints(cfg, x)[0]


def onesided_lower_endpoint(cfg: PriorConfig, x):
    """Lower end of the one-sided HPD: the interior value x - r1, floored at lam."""
    return onesided_endpoints(cfg, x)[1]
