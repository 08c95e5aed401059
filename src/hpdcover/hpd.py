"""Closed-form highest-posterior-density sets for the banded spike-and-slab prior.

Given X = x, the (1-alpha)-HPD set is the atom {0} alone when the atom
already carries 1 - alpha of the posterior, and otherwise

    ([L(x), U(x)] \\ (-lam, lam))  union  ({0} if w < 1),

where U is built from three radius functions r1, r2, r3.  The real line
splits into four regimes (plus the atom region) on which U takes the forms
x + r1, x + r2, x + r3, and -lam; L(x) = -U(-x) by symmetry.  One evaluator,
``endpoints``, returns U, L and the regime codes in two stages: a level
stage (posterior.tail_levels, one lower_tail call) selects each x's regime
code and the tail level q of its radius on the whole array (r2 once at -|x|
for both signs), and a radius stage (one quantile call, rho = G^{-1}(1 - q))
forms U and L.  The atom region comes from the same levels (the atom
margin): only scans and inversions read its root t_alpha.  Monte Carlo runs
the level stage alone.  The module also provides the set-valued inverses of
U and L (level-set boundaries, from the scan coverage uses), a
monotone fixed-point iteration for the smallest element of L^{-1}, and the
one-sided analogue (uniform prior on (lam, inf)) used as a baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .distributions import _out, _put, _where
from .posterior import PriorConfig, _require_finite, tail_levels
from .scanning import BISECT_TOL, TOL_TAIL, refine_boundaries, refine_extrema, sign_change_roots

__all__ = [
    "Regime",
    "CredibleSet",
    "InverseSet",
    "InversionError",
    "hpd_radii",
    "regime_codes",
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
_PRODUCTS_MIN = 512  # points from which _levels selects by 0/1 products
_POINTS_MAX = 3  # passes of up to this many points go point by point: laplace 16/27/39/50 us at 1-4, arrays 40-44


class InversionError(ValueError):
    """Raised when a requested set-valued inverse comes back empty."""


def hpd_radii(cfg: PriorConfig, x):
    """The three interval radii (r1, r2, r3) at observation x.

    r1 is the symmetric half-width, r3 the half-width after the excluded
    band's mass is redistributed, and r2 the right extension used when the
    interval is pinned to the band edge.  r2 follows the extended-real
    convention (+inf / -inf) when its defining tail mass leaves (0, 1).
    r1 and r3 are finite off the atom region.
    """
    xs = np.atleast_1d(np.asarray(x, float))
    sk, q1 = tail_levels(cfg, np.abs(xs))[2:4]
    signed = cfg.dist.cdf(-cfg.lam - xs)
    r = cfg.dist.ppf_upper(np.stack([q1, cfg.alpha * sk - signed, 0.5 * cfg.alpha * sk]))
    return tuple(map(float, r[:, 0])) if np.ndim(x) == 0 else tuple(r)


def endpoints(cfg: PriorConfig, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U(x), L(x) and the Regime codes in one pass; U and L are NaN on the atom region.

    The level stage (one lower_tail call) reads the regimes off the tail levels and
    picks the level of the radius each regime uses; one quantile call then
    evaluates it: r1 on I, r3 on III and r2 on the band-edge regimes II/IV.
    The gap mass and the spike term are even in x, so r2 at -|x| is the
    pinned radius of U for x > 0 and of the reflection L(x) = -U(-x) for x < 0.
    """
    return _endpoint_pass(cfg, x)[:3]


def _levels(cfg: PriorConfig, x):
    """Level stage of the endpoint pass, one lower_tail call: (q, codes, kg, sk).

    q is each x's selected tail level, q1 on I, q3 on III and q2 on II/IV,
    so that its radius is rho = G^{-1}(1 - q) and, in every regime,
    HPD(x) = {theta : |theta - x| <= rho} \\ (-lam, lam) off the atom region;
    codes are the Regime codes, ATOM where the atom margin is not negative
    (NaN x included; only there with no atom).  kg and sk = s + kg = D(x)
    are the spike term and normalizer of tail_levels, left intact: q2 is
    written over s, which the atom margin no longer needs, so that hpd_set
    reads the atom mass kg / sk off this pass.  With no atom kg is None and
    sk is s, overwritten on arrays; a numpy float64 x takes the same body on
    numpy scalars (the scalar route).  From _PRODUCTS_MIN points on q and the
    codes are each a sum of 0/1 products with one nonzero term (all levels
    are finite, NaN stays NaN), the codes in int8; below it masked copies
    pick the same values at about 10 us less per call, while the products
    take 22% less time at 4096 points.
    """
    alpha, sabs = cfg.alpha, abs(x)
    s, kg, sk, q1, tail, below, margin = tail_levels(cfg, sabs)
    # r = G^{-1}(1 - q) falls as q rises: regime I (|x| - lam > r1) reads
    # q1 > G(lam - |x|), and III (r3 >= |x| + lam) reads q3 <= G(-lam - |x|).
    one = (q1 > tail) & (sabs > cfg.lam)
    open_ = sabs == sabs if margin is None else margin < 0
    q3 = np.multiply(0.5 * alpha, sk, out=_out(tail))
    third = q3 <= below
    q2 = np.multiply(alpha, sk, out=_out(s))
    q2 -= below
    if q1.size < _PRODUCTS_MIN:
        codes = _where(one, _I, _where(third, _III, _where(x > 0, _II, _IV)))
        return _put(_put(q2, q3, third), q1, one), _where(open_, codes, _ATOM), kg, sk
    not_one, not_third = ~one, ~third
    q = np.multiply(third, q3, out=q3)
    q += np.multiply(not_third, q2, out=q2)
    q *= not_one
    q += np.multiply(one, q1, out=q1)
    codes = third * _III + not_third * (_IV - 2 * (x > 0).view(np.int8))
    return q, (one * _I + not_one * codes) * open_, kg, sk


def _endpoint_pass(cfg: PriorConfig, x):
    """endpoints, the radius r of each regime (r1 on I, r3 on III, r2 on II/IV) and the level stage's kg
    and sk (see _levels), as arrays; up to _POINTS_MAX points of a scalar-w config go point by point (_pass)."""
    arr = np.atleast_1d(np.asarray(x, float))
    if not 0 < arr.size <= _POINTS_MAX or isinstance(cfg.w, np.ndarray):
        return _pass(cfg, arr)
    cols = zip(*(_pass(cfg, v) for v in arr.flat))
    return tuple(None if c[0] is None else np.array(c).reshape(arr.shape) for c in cols)


def _pass(cfg: PriorConfig, x):
    """The endpoint pass on a float array, or on one numpy float64 x.

    The level stage (_levels), then one quantile call r = G^{-1}(1 - q):
    U = x + r but -lam on IV, L = -(r - x) (so that a zero L keeps its sign)
    but lam on II, and both are NaN on ATOM.
    """
    q, codes, kg, sk = _levels(cfg, x)
    r = cfg.dist.ppf_upper(q)
    upper, lower = _put(x + r, -cfg.lam, codes == _IV), _put(-(r - x), cfg.lam, codes == _II)
    atom = codes == _ATOM
    return _put(upper, np.nan, atom), _put(lower, np.nan, atom), codes, r, kg, sk


def _upper_profile(cfg: PriorConfig, end: float) -> tuple[float, bool, np.ndarray]:
    """(min U on x >= x0 = max(lam, t_alpha) + 1e-9, whether x0 holds it, U at each II -> I boundary x_b, a
    slope jump) from one endpoints pass on 256 points of [x0, max(end, x0 + g2 + 2, x0 + g4 + 1)], g_k = G^{-1}(1 -
    alpha/k), past min U + 1 as no level on x >= lam is below alpha sk / 2 >= alpha / 4.  The codes bracket
    each x_b (two closer than a step are missed), settled by one refine_boundaries call on q1 - T; one
    extremum-mode solve on the best sample's two sub-cells finds min U to 1e-8 (1 + |x|), U(x0) the edge candidate."""
    x0 = max(cfg.lam, cfg.t_alpha) + 1e-9
    if not np.isfinite(x0):
        raise ValueError("saturated atom: the atom threshold lies past the 2^20 bracket cap of atom_threshold, "
                         "so the dip domain is not located")
    g2, g4 = cfg.dist.ppf_upper(np.array([cfg.alpha / 2.0, cfg.alpha / 4.0]))
    xs = np.linspace(x0, max(end, x0 + g2 + 2.0, x0 + g4 + 1.0), 256)
    ups, _, codes = endpoints(cfg, xs)
    k = np.flatnonzero((codes[:-1] == _II) & (codes[1:] == _I))
    margin = lambda x, rows=None: np.subtract(*tail_levels(cfg, x)[3:5])
    g = margin(np.concatenate([xs[k], xs[k + 1]]))
    x_b = refine_boundaries(margin, xs[k], xs[k + 1], g[: k.size], g[k.size :], BISECT_TOL)
    i = int(np.nanargmin(ups))
    fn = lambda x, rows: upper_values(cfg, x)
    inner = float(refine_extrema(fn, xs[[max(i - 1, 0)]], xs[[min(i + 1, 255)]], False, tol=1e-8)[1][0])
    return min(inner, float(ups[0])), bool(ups[0] <= inner), upper_values(cfg, x_b)


def regime_codes(cfg: PriorConfig, x) -> np.ndarray:
    """Vectorized regime classification; values are Regime codes (int8), those of
    the endpoint pass read off its level stage alone (_levels): no quantile call."""
    return _levels(cfg, np.atleast_1d(np.asarray(x, float)))[1]


def upper_values(cfg: PriorConfig, x) -> np.ndarray:
    """Vectorized upper endpoint U(x); NaN where the set is the atom alone."""
    return endpoints(cfg, x)[0]


def lower_values(cfg: PriorConfig, x) -> np.ndarray:
    """Vectorized lower endpoint L(x) = -U(-x); NaN where the set is the atom alone."""
    return endpoints(cfg, x)[1]


def endpoint_values(cfg: PriorConfig, x) -> tuple[np.ndarray, np.ndarray]:
    """Both endpoints (U(x), L(x)); NaN on the atom region."""
    return endpoints(cfg, x)[:2]


@dataclass(frozen=True)
class CredibleSet:
    """A (1-alpha)-HPD set: up to two closed intervals plus an optional atom."""

    x: float
    regime: Regime
    lower: float
    upper: float
    intervals: tuple[tuple[float, float], ...]
    length: float  # Lebesgue measure of the interval part, as hpd_length gives it
    atom_included: bool
    atom_mass: float

    def contains(self, theta: float) -> bool:
        if theta == 0.0 and self.atom_included:
            return True
        return any(a <= theta <= b for a, b in self.intervals)


def hpd_set(cfg: PriorConfig, x: float) -> CredibleSet:
    """Assemble the full credible set at observation x from one endpoint pass on numpy scalars.

    The atom mass kg / D(x) divides the spike term and normalizer that the
    pass's level stage formed (_levels), so the answer costs one
    tail_levels call; it equals posterior.atom_mass bit for bit.
    """
    _require_finite("x", x)
    up, low, code, r, kg, sk = _pass(cfg, np.float64(x))
    regime, lam = Regime(int(code)), cfg.lam
    upper, lower = float(up), float(low)  # NaN on the atom region
    if regime is Regime.ATOM:
        pieces = []
    elif lam == 0.0:
        pieces = [(lower, upper)]
    else:
        pieces = [(lower, min(upper, -lam))] if lower <= -lam else []
        if upper >= lam:
            pieces.append((max(lower, lam), upper))
    # Regime I is 2 r1 as in hpd_length, not U - L with its rounded ends.
    length = 2.0 * float(r) if regime is Regime.I else float(sum(b - a for a, b in pieces))
    # Only a prior with an atom has an atom region, so ATOM sets include it too.
    return CredibleSet(
        x=float(x),
        regime=regime,
        lower=lower,
        upper=upper,
        intervals=tuple(pieces),
        length=length,
        atom_included=cfg.has_atom,
        atom_mass=0.0 if kg is None else float(kg / sk),
    )


def hpd_length(cfg: PriorConfig, x) -> float | np.ndarray:
    """Length of the interval part from one endpoints pass: 2 r1 in regime I,
    elsewhere the measure of [L, U] minus the band (-lam, lam), clipped as
    hpd_set clips its pieces; zero in the atom region and NaN at a NaN x."""
    up, low, codes, r = _endpoint_pass(cfg, x)[:4]
    lam = cfg.lam
    with np.errstate(invalid="ignore"):
        lengths = np.where(low <= -lam, np.minimum(up, -lam) - low, 0.0)
        lengths += np.where(up >= lam, up - np.maximum(low, lam), 0.0)
    # Regime I is [x - r1, x + r1] clear of the band: 2 r1 from the radius
    # keeps the accuracy that U - L loses to the rounding of x +- r1.
    lengths = np.where(codes == _I, 2.0 * r, lengths)
    lengths[codes == _ATOM] = 0.0
    lengths[np.isnan(np.atleast_1d(x))] = np.nan  # a NaN x takes code ATOM too
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


def _set_window(cfg: PriorConfig, level: float) -> tuple[float, float]:
    """Window [max(-b, level - reach), min(b, level + reach)] of a one-level set scan (an inversion,
    a post-selection set), reach = _member_reach, b = |level| + G^{-1}(1 - TOL_TAIL) + lam; that
    quantile is kept in the law's __dict__, as _half_width is in the config's."""
    if "_tail_reach" not in vars(cfg.dist):
        vars(cfg.dist)["_tail_reach"] = cfg.dist.ppf_upper(TOL_TAIL)
    b, reach = abs(level) + vars(cfg.dist)["_tail_reach"] + cfg.lam, _member_reach(cfg)
    return max(-b, level - reach), min(b, level + reach)


def _half_width(cfg: PriorConfig) -> float:
    """Coverage scan half-width: _member_reach (no mass lost), or G^{-1}(1 - TOL_TAIL / 2) if smaller; kept
    in the config's __dict__ as t_alpha is.  A column config's rows share law, lam and alpha, so one serves all."""
    if "_half_width" not in vars(cfg):
        vars(cfg)["_half_width"] = min(float(cfg.dist.ppf_upper(TOL_TAIL / 2.0)), _member_reach(cfg))
    return vars(cfg)["_half_width"]


def _fixed_cover(cfg: PriorConfig, theta0):
    """The atom/band rule, vectorised over theta0: (fixed, covered).

    Where fixed, membership of theta0 is the same from every x and equals
    covered: with w < 1 the atom covers theta0 = 0; otherwise, once lam > 0,
    nothing covers |theta0| < lam, theta0 = 0 included.  Elsewhere the
    interval part L(x) <= theta0 <= U(x) decides.  A column config's w
    broadcasts against theta0, one rule per row.
    """
    t = np.asarray(theta0, float)
    covered = (t == 0.0) & (cfg.w < 1.0)
    return covered | ((cfg.lam > 0.0) & (np.abs(t) < cfg.lam)), covered


def _finite_theta0(theta0) -> np.ndarray:
    """theta0 as a flat float array; ValueError on any non-finite value."""
    ts = np.asarray(theta0, float).ravel()
    if not np.all(np.isfinite(ts)):
        _require_finite("theta0", float(ts[~np.isfinite(ts)][0]))
    return ts


def _invert_endpoint(cfg: PriorConfig, column: int, theta0: float) -> InverseSet:
    """Roots of endpoint = theta0 for column 0 (U) or 1 (L) of the endpoints pass."""
    _finite_theta0(theta0)

    def fn(xs):
        upper_lower_codes = endpoints(cfg, xs)
        return upper_lower_codes[column] - theta0, upper_lower_codes[2]

    # One window about theta0; the atom region inside it is NaN, outside the set.
    lo, hi = _set_window(cfg, theta0)
    specials = [cfg.lam, -cfg.lam, theta0, cfg.t_alpha, -cfg.t_alpha]
    allr, codes = sign_change_roots(fn, lo, hi, specials, 1e-6 * (1.0 + abs(theta0)))
    if allr.size == 0:
        raise InversionError(
            f"no solutions of the endpoint equation at target {theta0} "
            f"(target below the atom threshold, or window [{lo}, {hi}] too small)"
        )
    regs = tuple(Regime(int(c)) for c in codes)
    return InverseSet(target=float(theta0), roots=tuple(float(r) for r in allr), regimes=regs)


def invert_upper(cfg: PriorConfig, theta0: float) -> InverseSet:
    """The set {x : |x| > t_alpha, U(x) = theta0}.

    The inner ends of {U >= theta0} within sup r3 + 0.5 of theta0, from the
    sliver-guarded level-set scan (scanning.sign_change_roots), so a root
    pair between two grid points is found; jumps of U are dropped.
    """
    return _invert_endpoint(cfg, 0, theta0)


def invert_lower(cfg: PriorConfig, theta0: float) -> InverseSet:
    """The set {x : |x| > t_alpha, L(x) = theta0}, by the same level-set
    scan as invert_upper."""
    return _invert_endpoint(cfg, 1, theta0)


def smallest_lower_inverse(cfg: PriorConfig, theta0: float) -> float:
    """Smallest solution of L(x) = theta0 via the monotone iteration
    a_{k+1} = theta0 + r1(a_k), started at a_0 = theta0.

    Valid for finite theta0 above both lam and t_alpha, where every solution
    sits in regime I so the fixed point of x = theta0 + r1(x) is the infimum.
    theta0 > t_alpha is read off the atom margin of the first step's
    tail_levels call (negative, as off the ATOM codes), so a valid call solves
    no t_alpha.  Each step runs on numpy scalars (the scalar route).  The
    iterates increase until a step moves them by at most max(1e-12, 16
    ulp(a)), above the rounding noise of theta0 + r1(a); a larger decrease,
    or 10,000 steps without that, raises RuntimeError.
    """
    _finite_theta0(theta0)
    a = float(theta0)
    levels = tail_levels(cfg, np.float64(abs(a)))  # at |x| = a where a > lam
    if not (a > cfg.lam and (levels[6] is None or levels[6] < 0.0)):
        raise ValueError(
            f"theta0 = {theta0} must exceed max(lam, t_alpha) = {max(cfg.lam, cfg.t_alpha)}"
        )
    for _ in range(10_000):
        nxt = theta0 + float(cfg.dist.ppf_upper(levels[3]))
        tol = max(1e-12, 16.0 * math.ulp(a))
        if nxt < a - tol:
            raise RuntimeError(f"fixed-point iterates decreased at a = {a}")
        if abs(nxt - a) <= tol:
            return nxt
        a = nxt
        levels = tail_levels(cfg, np.float64(a))
    raise RuntimeError("fixed-point iteration did not converge in 10000 steps")


# ---------------------------------------------------------------------------
# One-sided baseline: uniform prior on (lam, inf), no atom.


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
    cfg.require_no_atom("the one-sided baseline")
    arr = np.asarray(x, float)
    r1, r2 = onesided_radii(cfg, arr)
    return arr + np.maximum(r1, r2), np.maximum(cfg.lam, arr - r1)


def onesided_upper_endpoint(cfg: PriorConfig, x):
    """Upper end of the one-sided HPD: x + max(r1, r2)."""
    return onesided_endpoints(cfg, x)[0]


def onesided_lower_endpoint(cfg: PriorConfig, x):
    """Lower end of the one-sided HPD: the interior value x - r1, floored at lam."""
    return onesided_endpoints(cfg, x)[1]
