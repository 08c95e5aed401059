"""Closed-form highest-posterior-density sets for the banded spike-and-slab prior.

Given X = x, the (1-alpha)-HPD set is the atom {0} alone when the atom
already carries 1 - alpha of the posterior (|x| <= t_alpha), and otherwise

    ([L(x), U(x)] \\ (-lam, lam))  union  ({0} if w < 1),

where U is built from three radius functions r1, r2, r3.  The real line
splits into four regimes (plus the atom region) on which U takes the forms
x + r1, x + r2, x + r3, and -lam; L(x) = -U(-x) by symmetry.  One evaluator,
``endpoints``, returns U, L and the regime codes from a single pass that
computes each radius only where its regime uses it: r1 at every x, r3 off
regime I, and r2 (one call at -|x| for both signs) on the band edge.  The
module also provides the set-valued inverses of U and L, a monotone fixed-point
iteration for the smallest element of L^{-1}, and the one-sided analogue
(uniform prior on (lam, inf)) used as a comparison baseline.
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


class InversionError(ValueError):
    """Raised when a requested set-valued inverse comes back empty."""


def _ppf_upper_ext(dist, q):
    """G^{-1}(1 - q) with extended-real conventions: q <= 0 -> +inf, q >= 1 -> -inf.

    Interior values go through the mirrored lower-tail quantile so tiny q
    keeps relative accuracy.  Out-of-range q never reaches the quantile code.
    """
    q = np.asarray(q, float)
    out = np.full(q.shape, np.nan)
    inside = (q > 0.0) & (q < 1.0)
    out[inside] = -dist.ppf(q[inside])
    out[q <= 0.0] = np.inf
    out[q >= 1.0] = -np.inf
    return out


def _tail_levels(cfg: PriorConfig, sabs: np.ndarray):
    """(s + kg, q1, B) at |x| = sabs, from two CDF calls.

    s = gap_complement(x) is the slab's share of the shifted error mass, kg
    the spike term, q1 the tail level of r1 and B = G(-lam - |x|).  With
    T = G(-| |x| - lam |), s = (|x| > lam ? 1 - T : T) + B and the band mass
    1 - s = (|x| > lam ? T : 1 - T) - B, so q1 = 0.5 - 0.5((1 - alpha) s -
    alpha kg) is formed as the sum 0.5 (alpha (s + kg) + (1 - s)), which
    keeps relative accuracy when q1 is far below 1/2 (|x| beyond the band).
    """
    d, lam = cfg.dist, cfg.lam
    far = sabs > lam
    tail = d.cdf(-np.abs(sabs - lam))
    rest = 1.0 - tail
    below = d.cdf(-lam - sabs)
    sk = np.where(far, rest, tail) + below + (1.0 - cfg.w) / cfg.w * d.pdf(sabs)
    gap = np.where(far, tail, rest) - below
    return sk, 0.5 * (cfg.alpha * sk + gap), below


def _radii_arrays(cfg: PriorConfig, x: np.ndarray):
    """Vectorized (r1, r2, r3).  r1, r3 are finite wherever |x| > t_alpha."""
    d = cfg.dist
    sk, q1, _ = _tail_levels(cfg, np.abs(x))
    q2 = cfg.alpha * sk - d.cdf(-cfg.lam - x)
    return (
        _ppf_upper_ext(d, q1),
        _ppf_upper_ext(d, q2),
        _ppf_upper_ext(d, 0.5 * cfg.alpha * sk),
    )


def hpd_radii(cfg: PriorConfig, x):
    """The three interval radii (r1, r2, r3) at observation x.

    r1 is the symmetric half-width, r3 the half-width after the excluded
    band's mass is redistributed, and r2 the right extension used when the
    interval is pinned to the band edge.  r2 follows the extended-real
    convention (+inf / -inf) when its defining tail mass leaves (0, 1).
    """
    arr = np.asarray(x, float)
    r1, r2, r3 = _radii_arrays(cfg, np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(r1[0]), float(r2[0]), float(r3[0])
    return r1, r2, r3


def endpoints(cfg: PriorConfig, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U(x), L(x) and the Regime codes in one pass; U and L are NaN on the atom region.

    Each radius is evaluated only where its regime uses it: r1 everywhere,
    r3 off regime I, and r2 on the band-edge regimes II/IV alone.  The gap
    mass and the spike term are even in x, so one call at -|x| gives the
    pinned radius of U for x > 0 and of the reflection L(x) = -U(-x) for x < 0.
    """
    arr = np.atleast_1d(np.asarray(x, float))
    d, lam, alpha = cfg.dist, cfg.lam, cfg.alpha
    sabs = np.abs(arr)
    sk, q1, below = _tail_levels(cfg, sabs)
    r = _ppf_upper_ext(d, q1)
    codes = np.full(arr.shape, Regime.I, dtype=np.int8)
    # Off regime I: III where r3 clears the band, the band edge II/IV elsewhere.
    edge = np.flatnonzero(~(sabs > lam + r))
    if edge.size:
        r[edge] = _ppf_upper_ext(d, 0.5 * alpha * sk[edge])
        codes[edge] = Regime.III
        edge = edge[~(sabs[edge] <= r[edge] - lam)]
    upper = arr + r
    upper_refl = r - arr  # U(-x), so that L(x) = -U(-x)
    if edge.size:
        xe = arr[edge]
        r2 = _ppf_upper_ext(d, alpha * sk[edge] - below[edge])
        codes[edge] = np.where(xe > 0, Regime.II, Regime.IV)
        upper[edge] = np.where(xe > 0, xe + r2, -lam)
        upper_refl[edge] = np.where(xe < 0, r2 - xe, -lam)
    lower = -upper_refl
    atom = sabs <= cfg.t_alpha
    upper[atom] = lower[atom] = np.nan
    codes[atom] = Regime.ATOM
    return upper, lower, codes


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
    regime = Regime(int(codes[0]))
    mass0 = float(atom_mass(cfg, x))
    if regime is Regime.ATOM:
        return CredibleSet(
            x=float(x),
            regime=regime,
            lower=math.nan,
            upper=math.nan,
            intervals=(),
            atom_included=True,
            atom_mass=mass0,
        )
    upper, lower = float(up[0]), float(low[0])
    lam = cfg.lam
    if lam == 0.0:
        pieces = [(lower, upper)]
    else:
        pieces = []
        if lower <= -lam:
            pieces.append((lower, min(upper, -lam)))
        if upper >= lam:
            pieces.append((max(lower, lam), upper))
    return CredibleSet(
        x=float(x),
        regime=regime,
        lower=lower,
        upper=upper,
        intervals=tuple(pieces),
        atom_included=cfg.has_atom,
        atom_mass=mass0,
    )


def hpd_length(cfg: PriorConfig, x) -> float | np.ndarray:
    """Length of the interval part: 2*r1, r2 + x - lam, 2*r3 - 2*lam, or
    r2(-x) - x - lam by regime; zero in the atom region."""
    arr = np.atleast_1d(np.asarray(x, float))
    r1, r2, r3 = _radii_arrays(cfg, arr)
    codes = regime_codes(cfg, arr)
    lengths = np.zeros_like(arr)
    lengths[codes == Regime.I] = 2.0 * r1[codes == Regime.I]
    m2 = codes == Regime.II
    lengths[m2] = r2[m2] + arr[m2] - cfg.lam
    m3 = codes == Regime.III
    lengths[m3] = 2.0 * r3[m3] - 2.0 * cfg.lam
    m4 = codes == Regime.IV
    if np.any(m4):
        r2_neg = _radii_arrays(cfg, -arr[m4])[1]
        lengths[m4] = r2_neg - arr[m4] - cfg.lam
    if np.asarray(x).ndim == 0:
        return float(lengths[0])
    return lengths


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


def _invert_endpoint(cfg: PriorConfig, values_fn, theta0: float, scan: ScanSettings) -> InverseSet:
    d = cfg.dist
    b = abs(theta0) + d.ppf_upper(scan.tol_tail) + cfg.lam
    t = cfg.t_alpha

    def fn(xs):
        return values_fn(cfg, xs) - theta0

    specials = [cfg.lam, -cfg.lam, theta0]
    if math.isfinite(t):
        specials += [t, -t]
    accept = 1e-6 * (1.0 + abs(theta0))
    # With an atom region (t > 0) the halves (-b, -t) and (t, b) are one union
    # grid and one solver batch; the cell across the gap has NaN ends.
    lo, hi = (np.array([-b, t]), np.array([-t, b])) if math.isfinite(t) and t > 0.0 else (-b, b)
    allr = sign_change_roots(fn, lo, hi, specials, scan, accept) if t < b else np.empty(0)
    if allr.size == 0:
        raise InversionError(
            f"no solutions of the endpoint equation at target {theta0} "
            f"(target below the atom threshold, or window [{-b}, {b}] too small)"
        )
    regs = tuple(Regime(int(c)) for c in regime_codes(cfg, allr))
    return InverseSet(target=float(theta0), roots=tuple(float(r) for r in allr), regimes=regs)


def invert_upper(cfg: PriorConfig, theta0: float, scan: ScanSettings = ScanSettings()) -> InverseSet:
    """The set {x : |x| > t_alpha, U(x) = theta0}.

    Sign changes of U - theta0 on a dense grid over both sides of the atom
    region are refined in one multisection batch (four or five rounds of
    one endpoint call each) to scan.bisect_tol; jumps of U are dropped.
    """
    return _invert_endpoint(cfg, upper_values, theta0, scan)


def invert_lower(cfg: PriorConfig, theta0: float, scan: ScanSettings = ScanSettings()) -> InverseSet:
    """The set {x : |x| > t_alpha, L(x) = theta0}, by the same multisection
    scan as invert_upper."""
    return _invert_endpoint(cfg, lower_values, theta0, scan)


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
        nxt = theta0 + hpd_radii(cfg, a)[0]
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
    q2 = cfg.alpha * g_right
    r1 = -d.ppf(q1)
    r2 = -d.ppf(q2)
    return r1, r2


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
