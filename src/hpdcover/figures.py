"""Deterministic CSV emitters for the five standard diagnostic figures.

Each emitter returns a header plus column blocks.  A block has one entry
per header column: a 1-d numpy array, or a constant shared by all of the
block's rows (dist, lambda, w).  The CLI writes them with a JSON sidecar
recording the full run configuration, so every CSV is reproducible from its
sidecar alone.  The CLI's writer prints floats with 12 significant digits,
integers as integers and text as it is, and runs with identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .coverage import _bits, _coverage_curves
from .distributions import Distribution
from .hpd import Regime, endpoints, hpd_length, hpd_radii, regime_codes
from .posterior import PriorConfig, atom_mass, posterior_normalizer

__all__ = [
    "coverage_panels_rows",
    "posterior_illustration_rows",
    "radius_functions_rows",
    "endpoint_curves_rows",
    "length_curves_rows",
]

_ENDPOINT_PANELS = ((0.5, 0.25), (5.0, 0.25), (5.0, 1.0))
_REGIME_NAMES = np.array([r.name for r in Regime])  # indexed by the Regime codes


def _coverage_grid(dist: Distribution, lam: float, alpha: float, n: int, mirror: bool) -> np.ndarray:
    """theta0 grid: n points on (lam, lam + 10*scale], 4x denser on (lam, lam+2]."""
    if n < 1:
        raise ValueError(f"fig_grid_n must be >= 1, got {n}")
    scale = float(dist.ppf_upper(alpha / 2.0))
    hi = lam + 10.0 * scale
    base = np.linspace(lam, hi, n + 1)[1:]
    step = (hi - lam) / n
    dense_n = max(2, int(math.ceil(2.0 / (step / 4.0))))
    dense = np.linspace(lam, lam + min(2.0, hi - lam), dense_n + 1)[1:]
    pos = np.unique(np.concatenate([base, dense]))
    if mirror:
        return np.unique(np.concatenate([-pos, np.array([0.0]), pos]))
    return pos


def coverage_panels_rows(
    dists: list[Distribution],
    lams: list[float],
    ws: list[float],
    alpha: float,
    grid_n: int,
    mirror: bool,
):
    """Coverage curves with regime attribution, one block per (dist, lam, w) panel line.

    The curves of every distinct w of one law and lam are one exact batch
    (coverage._coverage_curves); each distinct (dist, lam, w), keyed on the
    float bits, is computed once and written at every place it is listed.
    """
    header = [
        "dist", "lambda", "w", "theta0", "C", "C_minus", "C_plus",
        "frac_I", "frac_II", "frac_III", "frac_IV",
    ]
    blocks, curves = [], {}
    key = lambda dist, lam, w: (dist, _bits(lam, w))
    for dist in dists:
        for lam in lams:
            fresh = {key(dist, lam, w): w for w in ws if key(dist, lam, w) not in curves}
            if fresh:
                cfgs = [PriorConfig(dist=dist, lam=lam, w=w, alpha=alpha) for w in fresh.values()]
                curves.update(zip(fresh, _coverage_curves(cfgs, _coverage_grid(dist, lam, alpha, grid_n, mirror))))
            for w in ws:
                rep = curves[key(dist, lam, w)]
                blocks.append([dist.name, lam, w, rep.theta0, rep.C, rep.C_minus, rep.C_plus, *rep.fractions.values()])
    return header, blocks


def posterior_illustration_rows(dist: Distribution, alpha: float):
    """Prior slab indicator, likelihood, and posterior slab density at x = 1.25.

    Fixed illustration: lam = 0.5 with slab weights 1 and 0.25; atom masses
    go to the sidecar since they are point masses, not densities.
    """
    x = 1.25
    lam = 0.5
    header = ["w", "theta", "prior_slab", "likelihood", "posterior_slab"]
    thetas = np.linspace(x - 6.0, x + 6.0, 1201)
    blocks = []
    side = {"x": x, "lambda": lam, "atom_mass": {}, "t_alpha": {}}
    for w in (1.0, 0.25):
        cfg = PriorConfig(dist=dist, lam=lam, w=w, alpha=alpha)
        d_norm = posterior_normalizer(cfg, x)
        slab = np.abs(thetas) > lam
        like = dist.pdf(x - thetas)
        post = np.where(slab, like / d_norm, 0.0)
        side["atom_mass"][f"w={w:g}"] = float(atom_mass(cfg, x))
        side["t_alpha"][f"w={w:g}"] = cfg.t_alpha
        blocks.append([w, thetas, slab.astype(float), like, post])
    return header, blocks, side


def radius_functions_rows(dist: Distribution, alpha: float):
    """The three interval radii with the active regime, on the positive axis, at lam = 5 and w = 1."""
    cfg = PriorConfig(dist=dist, lam=5.0, w=1.0, alpha=alpha)
    scale = float(dist.ppf_upper(alpha / 2.0))
    xs = np.linspace(0.0, cfg.lam + scale + 3.0, 2001)
    r1, r2, r3 = hpd_radii(cfg, xs)
    codes = regime_codes(cfg, xs)
    header = ["x", "r1", "r2", "r3", "regime"]
    return header, [[xs, r1, r2, r3, _REGIME_NAMES[codes]]]


def _panel_xgrid(dist: Distribution, lam: float, alpha: float) -> np.ndarray:
    scale = float(dist.ppf_upper(alpha / 2.0))
    b = lam + 3.0 * scale
    return np.linspace(-b, b, 1601)


def endpoint_curves_rows(dist: Distribution, alpha: float):
    """Lower/upper endpoint curves for the three standard (lam, w) panels."""
    header = ["lambda", "w", "x", "L", "U", "regime"]
    blocks = []
    for lam, w in _ENDPOINT_PANELS:
        cfg = PriorConfig(dist=dist, lam=lam, w=w, alpha=alpha)
        xs = _panel_xgrid(dist, lam, alpha)
        up, low, codes = endpoints(cfg, xs)
        blocks.append([lam, w, xs, low, up, _REGIME_NAMES[codes]])
    return header, blocks


def length_curves_rows(dist: Distribution, alpha: float):
    """Credible-set lengths for the standard panels, with the nominal width."""
    nominal = 2.0 * float(dist.ppf_upper(alpha / 2.0))
    header = ["lambda", "w", "x", "length", "nominal"]
    blocks = []
    for lam, w in _ENDPOINT_PANELS:
        cfg = PriorConfig(dist=dist, lam=lam, w=w, alpha=alpha)
        xs = _panel_xgrid(dist, lam, alpha)
        blocks.append([lam, w, xs, hpd_length(cfg, xs), nominal])
    return header, blocks
