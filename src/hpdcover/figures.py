"""Deterministic CSV emitters for the five standard diagnostic figures.

Each emitter returns a header plus formatted rows; the CLI writes them with
a JSON sidecar recording the full run configuration, so every CSV is
reproducible from its sidecar alone.  Numbers are printed with 12
significant digits and runs with identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .coverage import coverage_curve
from .distributions import Distribution
from .hpd import Regime, endpoints, hpd_length, hpd_radii, regime_codes
from .posterior import PriorConfig, atom_mass, posterior_normalizer
from .scanning import ScanSettings

__all__ = [
    "fmt",
    "coverage_panels_rows",
    "posterior_illustration_rows",
    "radius_functions_rows",
    "endpoint_curves_rows",
    "length_curves_rows",
]

_ENDPOINT_PANELS = ((0.5, 0.25), (5.0, 0.25), (5.0, 1.0))


def fmt(value) -> str:
    """Deterministic cell formatting: 12 significant digits for floats."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def _coverage_grid(dist: Distribution, lam: float, alpha: float, n: int, mirror: bool) -> np.ndarray:
    """theta0 grid: n points on (lam, lam + 10*scale], 4x denser on (lam, lam+2]."""
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
    scan: ScanSettings,
):
    """Coverage curves with regime attribution for every (dist, lam, w) panel line."""
    header = [
        "dist", "lambda", "w", "theta0", "C", "C_minus", "C_plus",
        "frac_I", "frac_II", "frac_III", "frac_IV",
    ]
    rows = []
    for dist in dists:
        for lam in lams:
            grid = _coverage_grid(dist, lam, alpha, grid_n, mirror)
            for w in ws:
                cfg = PriorConfig(dist=dist, lam=lam, w=w, alpha=alpha)
                rep = coverage_curve(cfg, grid, scan)
                for r in rep.rows():
                    rows.append(
                        [dist.name, lam, w, r["theta0"], r["C"], r["C_minus"], r["C_plus"],
                         r["frac_I"], r["frac_II"], r["frac_III"], r["frac_IV"]]
                    )
    return header, rows


def posterior_illustration_rows(dist: Distribution, alpha: float):
    """Prior slab indicator, likelihood, and posterior slab density at x = 1.25.

    Fixed illustration: lam = 0.5 with slab weights 1 and 0.25; atom masses
    go to the sidecar since they are point masses, not densities.
    """
    x = 1.25
    lam = 0.5
    header = ["w", "theta", "prior_slab", "likelihood", "posterior_slab"]
    thetas = np.linspace(x - 6.0, x + 6.0, 1201)
    rows = []
    side = {"x": x, "lambda": lam, "atom_mass": {}, "t_alpha": {}}
    for w in (1.0, 0.25):
        cfg = PriorConfig(dist=dist, lam=lam, w=w, alpha=alpha)
        d_norm = posterior_normalizer(cfg, x)
        slab = np.abs(thetas) > lam
        like = dist.pdf(x - thetas)
        post = np.where(slab, like / d_norm, 0.0)
        side["atom_mass"][f"w={w:g}"] = float(atom_mass(cfg, x))
        side["t_alpha"][f"w={w:g}"] = cfg.t_alpha
        for i, th in enumerate(thetas):
            rows.append([w, th, 1.0 if slab[i] else 0.0, like[i], post[i]])
    return header, rows, side


def radius_functions_rows(dist: Distribution, alpha: float, lam: float = 5.0):
    """The three interval radii with the active regime, on the positive axis."""
    cfg = PriorConfig(dist=dist, lam=lam, w=1.0, alpha=alpha)
    scale = float(dist.ppf_upper(alpha / 2.0))
    xs = np.linspace(0.0, lam + scale + 3.0, 2001)
    r1, r2, r3 = hpd_radii(cfg, xs)
    codes = regime_codes(cfg, xs)
    header = ["x", "r1", "r2", "r3", "regime"]
    rows = [[xs[i], r1[i], r2[i], r3[i], Regime(int(codes[i])).name] for i in range(xs.size)]
    return header, rows


def _panel_xgrid(dist: Distribution, lam: float, alpha: float) -> np.ndarray:
    scale = float(dist.ppf_upper(alpha / 2.0))
    b = lam + 3.0 * scale
    return np.linspace(-b, b, 1601)


def endpoint_curves_rows(dist: Distribution, alpha: float):
    """Lower/upper endpoint curves for the three standard (lam, w) panels."""
    header = ["lambda", "w", "x", "L", "U", "regime"]
    rows = []
    for lam, w in _ENDPOINT_PANELS:
        cfg = PriorConfig(dist=dist, lam=lam, w=w, alpha=alpha)
        xs = _panel_xgrid(dist, lam, alpha)
        up, low, codes = endpoints(cfg, xs)
        for i in range(xs.size):
            rows.append([lam, w, xs[i], low[i], up[i], Regime(int(codes[i])).name])
    return header, rows


def length_curves_rows(dist: Distribution, alpha: float):
    """Credible-set lengths for the standard panels, with the nominal width."""
    nominal = 2.0 * float(dist.ppf_upper(alpha / 2.0))
    header = ["lambda", "w", "x", "length", "nominal"]
    rows = []
    for lam, w in _ENDPOINT_PANELS:
        cfg = PriorConfig(dist=dist, lam=lam, w=w, alpha=alpha)
        xs = _panel_xgrid(dist, lam, alpha)
        lengths = hpd_length(cfg, xs)
        for i in range(xs.size):
            rows.append([lam, w, xs[i], lengths[i], nominal])
    return header, rows
