"""Frequentist coverage of the credible sets: exact scans, Monte Carlo, bounds.

The coverage at a true mean theta0 is the error-law probability of the
membership set {x : theta0 in HPD(x)}.  Because the endpoint maps are
piecewise smooth with known jump loci, that set is a finite interval union;
it is recovered by a grid membership scan, each crossing of U and of L
refined on its own curve by the margin-driven boundary solver, and summed as
exact CDF differences.  A seeded inverse-CDF Monte Carlo estimator serves as
a cross-check that tests membership in tail-mass space instead: HPD(x) is
the ball |theta - x| <= G^{-1}(1 - q(x)) less the band, so a draw covers
theta0 iff G(-|Z|) >= q(x), with q from the endpoint evaluator's level stage
and G(-|Z|) from the draw's own uniform; no radius or endpoint is formed.

U and L do not depend on theta0, so a whole theta0 grid, for every w of one
law and lam, is scanned as one batch on the calling thread, each distinct
|theta0| once (HPD(-x) = -HPD(x), so -theta0 is read off by reflection):
one scanning.member_intervals call, one endpoint-table row per w, per run
of _RUN theta0, on a theta0-free grid over the union of their scan
windows that scanning.build_grid spaces, with a geometric ladder at the band
edges and atom threshold, yields the membership set of every theta0 that the
atom/band rule leaves open, the same level-set scan that serves inversion,
post-selection and the one-sided baseline.  C- and C+ are that set split at
x = theta0, its masses on [theta0, inf) and (-inf, theta0), so C = C- + C+
at every theta0.  The atom/band rule (hpd._fixed_cover) and the Monte Carlo
counter (_mc_point) are each written once, for the exact scan,
postselect.credible_set_contains (the rule, then L <= theta0 <= U, the
scan's two flags), coverage_mc and Monte Carlo curves alike.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import interval_mass, uniform_blocks
from .hpd import (Regime, _finite_theta0, _fixed_cover, _half_width, _levels, _upper_profile, endpoint_values,
                  onesided_endpoints, regime_codes)
from .posterior import PriorConfig, _rows, _with_w
from .scanning import TOL_TAIL, member_intervals, refine_extrema

__all__ = [
    "CoveragePoint",
    "CoverageReport",
    "BoundCheck",
    "BoundReport",
    "DipResult",
    "coverage_exact",
    "coverage_mc",
    "coverage_curve",
    "onesided_coverage_exact",
    "dip_search",
    "predicted_dip_level",
    "check_coverage_bounds",
    "thread_count",
]

_REGIME_KEYS = ("I", "II", "III", "IV")


def thread_count(requested: int | None = None) -> int:
    """Worker count for Monte Carlo coverage curves, capped by HPD_THREADS (an integer >= 1)."""
    cap = os.environ.get("HPD_THREADS", "").strip()
    try:
        cap_n = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        cap_n = 0
    if cap_n < 1:
        raise ValueError(f"HPD_THREADS must be an integer >= 1, got {cap!r}")
    n = requested if requested else (os.cpu_count() or 1)
    return max(1, min(n, cap_n))


@dataclass(frozen=True)
class CoveragePoint:
    """Coverage at one theta0, C = C- + C+: C- is the part from x >= theta0,
    C+ the part from x < theta0.  Where the atom/band rule fixes membership
    the set is the whole line or empty, and the exact C- = C+ = C / 2."""

    theta0: float
    C: float
    C_minus: float
    C_plus: float
    fractions: dict[str, float] = field(default_factory=dict)


# theta0 per scan: the regime-fraction block and the refine batch grow with
# the theta0 count, so a long array is scanned in runs of this many.
_RUN = 4096
# Largest float spacing at a scan window's outer edge |theta0| + reach.  Cut
# abscissas round to it, and C drifts from its far-field value: by at most
# 8.4e-10 at spacings 2^-26 and 2^-25, by 1.3e-9 (> TOL_TAIL) at 2^-24 (four
# laws, lam 0.5/2/5, w 1/0.25).  2^-26, one binade inside the last passing
# spacing, refuses window edges from 2^27 (~1.3e8) on.
_EDGE_SPACING = 2.0**-26


def _scan_theta0(theta0, reach: float) -> np.ndarray:
    """theta0 as a flat finite array (hpd._finite_theta0); ValueError naming the
    largest |theta0| if its window edge |theta0| + reach is spaced above _EDGE_SPACING."""
    ts = _finite_theta0(theta0)
    edge = np.abs(ts).max(initial=0.0) + reach
    if np.spacing(edge) > _EDGE_SPACING:
        far = float(ts[np.argmax(np.abs(ts))])
        raise ValueError(f"theta0 = {far!r} is too large for an exact scan: the float spacing "
                         f"at its window edge {edge:g} is {np.spacing(edge):g}, above {_EDGE_SPACING:g}")
    return ts


def _exact_sorted(cfg: PriorConfig, ts: np.ndarray, half: float, fractions: bool = True) -> np.ndarray:
    """Rows (C, C-, C+, frac_I..frac_IV) for one run of sorted theta0, or
    (C, C-, C+) alone without ``fractions``; a block of them per row of a
    column config.

    One member_intervals scan, one table row per config, gives the
    membership set in its window of every theta0 the atom/band rule leaves
    open in some row; C- and C+ are its masses on [theta0, inf) and (-inf,
    theta0).  Where the rule fixes membership, the set is the whole window
    (C = 1, C- = C+ = 1/2 exactly) or empty.
    """
    n_t, lead = ts.size, np.shape(cfg.w)[:-1]
    fixed, atom0 = (np.reshape(v, (-1, n_t)) for v in _fixed_cover(cfg, ts))
    n_r = fixed.shape[0]
    live = np.flatnonzero(~fixed.all(axis=0))
    owner, a, b = np.zeros(0, int), np.zeros(0), np.zeros(0)
    if live.size:
        levels = ts[live]
        t_alpha = np.ravel(cfg.t_alpha)
        curves = lambda xs, rows=np.arange(n_r)[:, None]: endpoint_values(_rows(cfg, rows), xs)
        specials = [cfg.lam, -cfg.lam, *t_alpha, *-t_alpha]
        owner, a, b = member_intervals(curves, levels, levels - half, levels + half, specials)
        owner = owner // live.size * n_t + live[owner % live.size]  # row * n_t + theta0 index
        keep = ~fixed.ravel()[owner]
        owner, a, b = owner[keep], a[keep], b[keep]
    whole = np.flatnonzero(atom0)
    owner, t = np.concatenate([owner, whole]), ts[whole % n_t]
    a, b = np.concatenate([a, t - half]), np.concatenate([b, t + half])
    t = ts[owner % n_t]

    # The parts on [theta0, inf) and (-inf, theta0) of every interval.
    lo, hi = a - t, b - t
    split = interval_mass(cfg.dist, [np.maximum(lo, 0.0), np.minimum(lo, 0.0)], [np.maximum(hi, 0.0), np.minimum(hi, 0.0)])
    c_minus, c_plus = (np.where(atom0, 0.5, np.bincount(owner, weights=m, minlength=n_r * n_t).reshape(n_r, n_t))
                       for m in split)
    out = np.empty((n_r, n_t, 7 if fractions else 3))
    out[..., 0], out[..., 1], out[..., 2] = c_minus + c_plus, c_minus, c_plus
    if fractions:
        # Regime fractions of C by a 64-subcell midpoint rule on each interval.
        edges = np.linspace(a, b, 65, axis=-1)
        sub = interval_mass(cfg.dist, edges[:, :-1] - t[:, None], edges[:, 1:] - t[:, None]).ravel()
        codes = regime_codes(_rows(cfg, (owner // n_t)[:, None]), 0.5 * (edges[:, :-1] + edges[:, 1:]))
        by_regime = np.bincount(np.repeat(owner, 64) * 5 + codes.ravel(), weights=sub, minlength=5 * n_r * n_t)
        out[..., 3:] = by_regime.reshape(n_r, n_t, 5)[..., 1:] / np.where(out[..., :1] > 0.0, out[..., :1], 1.0)
    return out.reshape(lead + out.shape[1:])


def _exact_batch(cfg: PriorConfig, theta0, fractions: bool = True) -> np.ndarray:
    """Exact coverage rows (C, C-, C+, frac_I..frac_IV), one per theta0, in input order;
    (C, C-, C+) alone without ``fractions``, for callers that read no regime.
    A column config (posterior._with_w: configs of one law, lam and alpha,
    which share their windows) gets a block of rows per config, shape
    (configs, n, k), from scans that serve them all.

    Each distinct |theta0| is scanned once, in sorted runs of _RUN rows in
    all, one shared grid each (_exact_sorted).  As L(x) = -U(-x), reflecting
    x keeps C and swaps regimes II and IV and the sides of x = theta0 (a
    null set), so -theta0 takes the row of |theta0| with C-/C+ and
    frac_II/IV swapped.
    """
    half = _half_width(cfg)
    ts = _scan_theta0(theta0, half)
    lead = np.shape(cfg.w)[:-1]
    cols = [0, 2, 1, 3, 6, 5, 4] if fractions else [0, 2, 1]
    if ts.size == 0:
        return np.empty(lead + (0, len(cols)))
    mag, inv = np.unique(np.abs(ts), return_inverse=True)
    run = max(1, _RUN // math.prod(lead))
    rows = np.concatenate([_exact_sorted(cfg, mag[i : i + run], half, fractions)
                           for i in range(0, mag.size, run)], axis=-2)[..., inv, :]
    return np.where((ts < 0.0)[:, None], rows[..., cols], rows)


def coverage_exact(cfg: PriorConfig, theta0: float) -> CoveragePoint:
    """Exact coverage C(theta0) = P(theta0 in HPD(X)) with its split C = C- + C+.

    The membership set {x : theta0 in HPD(x)} is split at x = theta0: C- is
    its mass on [theta0, inf), C+ its mass on (-inf, theta0).  Boundary
    abscissas are refined to scanning.BISECT_TOL and masses accumulated as
    tail-accurate CDF differences.  Where the atom/band rule fixes membership
    the set is the whole line (theta0 = 0 with an atom: C = 1, C- = C+ = 1/2)
    or empty (inside the band: all three 0).  This is the batch scan on one
    point: |theta0| on a theta0-free grid, reflected when theta0 < 0.
    """
    c, c_minus, c_plus, *fracs = (float(v) for v in _exact_batch(cfg, [theta0])[0])
    return CoveragePoint(float(theta0), c, c_minus, c_plus, dict(zip(_REGIME_KEYS, fracs)))


def coverage_mc(cfg: PriorConfig, theta0: float, n: int, seed: int) -> tuple[float, float]:
    """Monte Carlo coverage estimate and its binomial standard error: the C
    of the Monte Carlo curve point at the same seed (_mc_point)."""
    c_hat = float(_mc_point(cfg, theta0, n, seed)[0])
    return c_hat, math.sqrt(max(c_hat * (1.0 - c_hat), 1e-300) / n)


def _draw_flags(cfg: PriorConfig, x: np.ndarray, u: np.ndarray):
    """(theta0 in HPD(x), codes) for draws x = theta0 + G^{-1}(u) about a
    theta0 that the atom/band rule leaves open.

    Off the atom region HPD(x) is the ball |theta - x| <= rho(x) less the
    band, rho = G^{-1}(1 - q(x)), so a draw covers theta0 iff its code is
    not ATOM and |Z| <= rho, that is G(-|Z|) >= q(x).  The draw's uniform
    gives that tail mass, min(u, 1 - u), so only the level stage of the
    endpoint pass runs: one lower_tail call, no CDF or quantile call.
    """
    q, codes = _levels(cfg, x)[:2]
    flags = np.minimum(u, 1.0 - u) >= q
    flags &= codes != Regime.ATOM
    return flags, codes


def _mc_point(cfg: PriorConfig, theta0: float, n: int, seed: int) -> np.ndarray:
    """Monte Carlo analogue of one _exact_batch row (C, C-, C+, frac_I..frac_IV);
    the one counter of Monte Carlo membership: C- counts the covering draws
    with x >= theta0 and C+ the rest.  Membership is the level test of
    _draw_flags, overridden by the atom/band rule where it decides; the
    regime fractions count the covering draws' codes in codes * flags.
    Where the rule leaves theta0 uncovered every output is 0, and no draw is
    made; a non-finite theta0, or an n or seed that uniform_blocks (the one
    draw rule) refuses, raises ValueError even then.  The draws are
    x = theta0 + G^{-1}(u) on the seeded uniform stream's blocks u.
    """
    _finite_theta0(theta0)
    blocks = uniform_blocks(n, seed)  # checks n and seed; draws lazily
    fixed, covered = _fixed_cover(cfg, theta0)
    if fixed and not covered:
        return np.zeros(3 + len(_REGIME_KEYS))
    hits = np.zeros(6, dtype=np.int64)  # covering, covering with x >= theta0, by regime I-IV
    for u in blocks:
        x = theta0 + cfg.dist.ppf(u)
        f_full, codes = _draw_flags(cfg, x, u)
        f_full |= fixed  # here a fixed theta0 is covered from every x
        covering = codes * f_full  # uncovered draws read as ATOM
        hits += [np.count_nonzero(f_full), np.count_nonzero(f_full & (x >= theta0)),
                 *(np.count_nonzero(covering == Regime[k].value) for k in _REGIME_KEYS)]
    split = np.array([hits[0], hits[1], hits[0] - hits[1]]) / n
    return np.concatenate([split, hits[2:] / (hits[0] if hits[0] else 1)])


@dataclass(frozen=True)
class CoverageReport:
    """Coverage along a theta0 grid with regime attribution and method metadata.

    ``fractions`` maps "I", "II", "III", "IV" to their columns, in that order.
    """

    theta0: np.ndarray
    C: np.ndarray
    C_minus: np.ndarray
    C_plus: np.ndarray
    fractions: dict[str, np.ndarray]
    method: str
    n: int
    seed: int
    config: dict


def _config_summary(cfg: PriorConfig) -> dict:
    return {"dist": cfg.dist.name, "lambda": cfg.lam, "w": cfg.w, "alpha": cfg.alpha}


def coverage_curve(
    cfg: PriorConfig,
    grid,
    method: str = "exact",
    n: int = 10**6,
    seed: int = 0,
    threads: int | None = None,
) -> CoverageReport:
    """Coverage over a sorted theta0 grid, the one-config case of _coverage_curves."""
    return _coverage_curves([cfg], grid, method, n, seed, threads)[0]


def _coverage_curves(cfgs, grid, method: str = "exact", n: int = 10**6, seed: int = 0,
                     threads: int | None = None) -> list[CoverageReport]:
    """Coverage over one sorted theta0 grid for configs of one law, lam and alpha, one report each.

    The exact scans of all the configs are one batch on the calling thread,
    as figure 1 and the coverage command run every w of one law and lam;
    Monte Carlo points run in parallel on up to ``threads`` workers.
    """
    grid = np.asarray(grid, float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("theta0 grid must be a non-empty 1-d array")
    if np.any(np.diff(grid) < 0):
        raise ValueError("theta0 grid must be sorted")
    if method == "exact":  # one config, or their column config, with t_alpha from one solve
        col = cfgs[0] if len(cfgs) == 1 else _with_w(cfgs[0], np.array([[c.w] for c in cfgs]))
        blocks = _exact_batch(col, grid).reshape(len(cfgs), grid.size, -1)
        label, n, seed = "exact_scan", 0, 0
    elif method == "mc":
        work = lambda point: _mc_point(*point, n, seed)
        points = [(cfg, t0) for cfg in cfgs for t0 in grid]
        workers = thread_count(threads)
        if workers > 1 and len(points) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                blocks = np.array(list(pool.map(work, points)))
        else:
            blocks = np.array([work(point) for point in points])
        blocks = blocks.reshape(len(cfgs), grid.size, -1)
        label = f"monte_carlo(seed={seed}, n={n})"
    else:
        raise ValueError(f"unknown method {method!r}")
    return [CoverageReport(theta0=grid, C=b[:, 0], C_minus=b[:, 1], C_plus=b[:, 2],
                           fractions=dict(zip(_REGIME_KEYS, b.T[3:])), method=label, n=n, seed=seed,
                           config=_config_summary(cfg)) for cfg, b in zip(cfgs, blocks)]


def onesided_coverage_exact(cfg: PriorConfig, theta0):
    """Exact coverage of the one-sided baseline set [L1(x), U1(x)] at theta0.

    theta0 is a scalar (returns a float) or a 1-d array in any order
    (returns an array in input order).  The one-sided set always sits
    inside [lam, inf); its membership region can stretch to -inf in x, so
    only the left window edge is probabilistic (mass below it is under
    scanning.TOL_TAIL / 2).  The membership regions of all distinct theta0 are
    one level-set scan of the curve pair (U1, L1) at the sorted levels
    theta0, in runs of _RUN (one shared grid each), whose crossings lie
    within about G^{-1}(1 - alpha/2) + 0.5 of theta0, the reach that bounds
    the grid step; it needs no x >= theta0 split, so theta0 is not a grid point.
    """
    cfg.require_no_atom("one-sided baseline coverage")
    d = cfg.dist
    left, right = float(d.ppf_upper(TOL_TAIL / 2.0)), float(d.ppf_upper(cfg.alpha / 2.0))
    ts, inv = np.unique(_scan_theta0(theta0, max(left, right + 0.5)), return_inverse=True)
    switch = cfg.lam + float(d.ppf(1.0 / (1.0 + cfg.alpha)))
    curves = lambda xs, rows=None: onesided_endpoints(cfg, xs)
    out = np.empty(ts.size)
    for i in range(0, ts.size, _RUN):
        t = ts[i : i + _RUN]
        owner, a, b = member_intervals(curves, t, t - left, t + right + 0.5, [cfg.lam, switch], right + 0.5)
        out[i : i + _RUN] = np.bincount(owner, weights=interval_mass(d, a - t[owner], b - t[owner]), minlength=t.size)
    if np.ndim(theta0) == 0:
        return float(out[0])
    return out[inv].reshape(np.shape(theta0))


# ---------------------------------------------------------------------------
# Coverage dip and bound checks.


def predicted_dip_level(cfg: PriorConfig) -> float:
    """Leading-order level of the coverage dip: 1 - 3a/2 + a*G(G^{-1}(a)/2)."""
    a = cfg.alpha
    return 1.0 - 1.5 * a + a * float(cfg.dist.cdf(0.5 * float(cfg.dist.ppf(a))))


@dataclass(frozen=True)
class DipResult:
    """Minimum coverage over the targets reachable by the upper endpoint
    beyond the band edge."""

    theta_at_min: float
    c_min: float
    predicted: float
    domain_lo: float

    @property
    def deviation(self) -> float:
        return abs(self.c_min - self.predicted)


def dip_search(cfg: PriorConfig) -> DipResult:
    """Locate min C(theta0) over {theta0 : sup U^{-1}(theta0) >= lam}.

    That domain is the half-line [min U on [lam or t_alpha, inf), inf) since
    U is continuous there and grows without bound.  One theta0-free pass of U
    (hpd._upper_profile) gives domain_lo and the corners U(x_b) of C.  One batch scan
    takes 63 interior theta0 of [domain_lo, max(lam + 3.2 G^{-1}(1 - alpha/2), domain_lo
    + 1)], its left end and the corners inside.  Either of the last as the batch minimum
    is the dip; else an extremum-mode solve on the best sample's sub-cells goes on to
    1e-5 (1 + theta0), c_min off by about C's slope times that.  The left end is domain_lo
    itself where min U sits at the band edge, and domain_lo + 1e-6 (1 + domain_lo), off
    the double root of U = theta0, where it is interior.
    """
    hi = cfg.lam + 3.2 * float(cfg.dist.ppf_upper(cfg.alpha / 2.0))
    domain_lo, at_edge, corners = _upper_profile(cfg, hi)
    hi = max(hi, domain_lo + 1.0)
    c_many = lambda ts, rows=None: _exact_batch(cfg, ts, fractions=False)[:, 0]
    edge = domain_lo if at_edge else domain_lo + 1e-6 * (1.0 + domain_lo)
    ends = np.linspace(domain_lo, hi, 65)
    ts = np.concatenate([ends[1:-1], [edge], corners[(edge < corners) & (corners < hi)]])
    c = c_many(ts)
    k = int(np.argmin(c))
    theta, c_min = ts[k : k + 1], c[k : k + 1]
    if k < ends.size - 2:  # no corner or end is the batch minimum
        theta, c_min = refine_extrema(c_many, ends[k : k + 1], ends[k + 2 : k + 3], False, tol=1e-5)
    return DipResult(
        theta_at_min=float(theta[0]),
        c_min=float(c_min[0]),
        predicted=predicted_dip_level(cfg),
        domain_lo=domain_lo,
    )


@dataclass(frozen=True)
class BoundCheck:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    margin: float | None
    details: dict

    def to_dict(self):
        return {"name": self.name, "status": self.status, "margin": self.margin, **self.details}


@dataclass(frozen=True)
class BoundReport:
    config: dict
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self):
        return {"config": self.config, "passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _check(name: str, unmet: list[str], grade, strict: bool = False) -> BoundCheck:
    """'skipped', naming every unmet hypothesis, or else the (margin, details)
    of grade(), passing when the margin is >= 0 (> 0 when strict)."""
    if unmet:
        return BoundCheck(name, "skipped", None, {"reason": "; ".join(unmet)})
    margin, details = grade()
    return BoundCheck(name, "pass" if (margin > 0 if strict else margin >= 0) else "fail", float(margin), details)


def check_coverage_bounds(cfg: PriorConfig, theta_grid) -> BoundReport:
    """Grade the coverage bounds on a non-empty finite theta0 grid, reporting margins.

    Checks: (a) the below-x part never exceeds (1-alpha)/2; (b) its
    shortfall below 1/2 - alpha is at most cstar * alpha**(1+gamma); (c) the
    dip minimum is within cstar * alpha**(1+gamma) of its predicted level;
    (d) for w = 1 the one-sided baseline coverage is strictly below
    C + G(-theta0), with the baseline of every theta0 above lam v t_alpha
    from one batched scan; (e) when the atom threshold exceeds lam, the
    above-x part below the threshold is at most G(-2*lam).  (a) and (e)
    allow scanning.TOL_TAIL above their ceilings.  gamma and cstar are the
    law's tail certificate, so every threshold (details["bound"]) is fixed
    before the run.  Hypotheses (tail certificate present, G(-lam) <= alpha,
    t_alpha <= lam, w = 1) are evaluated and unmet ones produce 'skipped',
    never a silent pass.
    """
    grid = _finite_theta0(theta_grid)
    if grid.size == 0:
        raise ValueError("theta0 grid must be non-empty")
    d = cfg.dist
    alpha = cfg.alpha
    no_tail = [] if d.tail_gamma is not None and d.tail_cstar is not None else ["no tail-decay certificate"]
    slack = d.tail_cstar * alpha ** (1.0 + d.tail_gamma) if not no_tail else None

    above = grid[grid > max(cfg.lam, cfg.t_alpha)]
    no_above = [] if above.size else ["no theta0 above lam v t_alpha"]
    c_all, c_minus = _exact_batch(cfg, above, fractions=False)[:, :2].T

    def c_minus_ceiling():
        ceiling = (1.0 - alpha) / 2.0
        return ceiling + TOL_TAIL - c_minus.max(), {"max_c_minus": float(c_minus.max()), "bound": ceiling}

    def c_minus_floor():
        shortfall = (0.5 - alpha) - c_minus.min()
        return slack - shortfall, {"max_shortfall": float(shortfall), "bound": slack}

    def dip_level():
        dip = dip_search(cfg)
        details = {"c_min": dip.c_min, "predicted": dip.predicted, "theta_at_min": dip.theta_at_min}
        return slack - dip.deviation, {**details, "deviation": dip.deviation, "bound": slack}

    def onesided():
        gaps = c_all + np.asarray(d.cdf(-above), float) - onesided_coverage_exact(cfg, above)
        return gaps.min(), {"worst_theta0": float(above[int(np.argmin(gaps))]), "bound": 0.0}

    def early_c_plus():
        cp = _exact_batch(cfg, np.linspace(cfg.lam, cfg.t_alpha, 9)[1:-1], fractions=False)[:, 2]
        bound = float(d.cdf(-2.0 * cfg.lam))
        return bound + TOL_TAIL - cp.max(), {"bound": bound, "max_c_plus": float(cp.max())}

    dip_unmet = no_tail + ["G(-lam) > alpha"] * (float(d.cdf(-cfg.lam)) > alpha)
    dip_unmet += ["t_alpha > lam"] * (cfg.t_alpha > cfg.lam)
    early_unmet = [] if cfg.lam < cfg.t_alpha < math.inf else ["t_alpha <= lam (vacuous)"]
    checks = (
        _check("c_minus_ceiling", no_above, c_minus_ceiling),
        _check("c_minus_floor", no_tail + no_above, c_minus_floor),
        _check("dip_level", dip_unmet, dip_level),
        _check("onesided_comparison", ["requires w = 1"] * (cfg.w != 1.0) + no_above, onesided, strict=True),
        _check("early_c_plus_ceiling", early_unmet, early_c_plus),
    )
    return BoundReport(config=_config_summary(cfg), checks=checks)
