import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import hpdcover
from hpdcover import (
    Distribution,
    PriorConfig,
    atom_mass,
    atom_threshold,
    gap_complement,
    hpd_set,
    interval_mass,
    make_distribution,
    posterior_normalizer,
    posterior_probability,
    regime_codes,
)
from hpdcover.hpd import Regime

from conftest import ALL_CONFIGS, config, dist


def test_prior_config_validation():
    d = dist("laplace")
    with pytest.raises(ValueError):
        PriorConfig(dist=d, lam=-1.0, w=1.0, alpha=0.05)
    with pytest.raises(ValueError):
        PriorConfig(dist=d, lam=float("inf"), w=1.0, alpha=0.05)
    with pytest.raises(ValueError):
        PriorConfig(dist=d, lam=1.0, w=0.0, alpha=0.05)
    with pytest.raises(ValueError):
        PriorConfig(dist=d, lam=1.0, w=1.2, alpha=0.05)
    with pytest.raises(ValueError):
        PriorConfig(dist=d, lam=1.0, w=1.0, alpha=1.0)


def test_prior_config_rejects_subnormal_w():
    # Below the least normal float (1 - w) / w overflows, so the spike term
    # would be inf; such a w fails at construction, not at its first use.
    with pytest.raises(ValueError):
        PriorConfig(dist=dist("laplace"), lam=0.5, w=1e-310, alpha=0.05)
    cfg = PriorConfig(dist=dist("laplace"), lam=0.5, w=sys.float_info.min, alpha=0.05)
    assert cfg.t_alpha > 0.0 and math.isfinite(atom_mass(cfg, 3.0))


def test_prior_config_accepts_numpy_scalars():
    d = dist("laplace")
    cfg = PriorConfig(dist=d, lam=np.float32(1.0), w=np.float64(0.5), alpha=np.float32(0.25))
    assert (cfg.lam, cfg.w, cfg.alpha) == (1.0, 0.5, 0.25)
    assert all(type(v) is float for v in (cfg.lam, cfg.w, cfg.alpha))


@pytest.mark.parametrize("field", ["lam", "w", "alpha"])
@pytest.mark.parametrize("flag", [True, np.bool_(True)])
def test_prior_config_rejects_booleans(field, flag):
    values = {"lam": 1.0, "w": 1.0, "alpha": 0.05, field: flag}
    with pytest.raises(ValueError):
        PriorConfig(dist=dist("laplace"), **values)


def test_gap_complement_laplace_closed_forms():
    # Outside the band centred at 0 lies 2G(-lam) = e^-lam for the Laplace law.
    cfg = config("laplace", math.log(2.0), 1.0)
    assert gap_complement(cfg, 0.0) == pytest.approx(0.5, abs=1e-14)
    cfg5 = config("laplace", 5.0, 1.0)
    assert gap_complement(cfg5, 0.0) == pytest.approx(math.exp(-5.0), rel=1e-14)


@given(st.floats(-25.0, 25.0))
@settings(max_examples=150, deadline=None)
def test_gap_complement_even(x):
    cfg = config("gaussian", 1.3, 1.0)
    assert gap_complement(cfg, x) == pytest.approx(gap_complement(cfg, -x), abs=1e-14)


def test_gap_complement_increasing_away_from_origin():
    cfg = config("laplace", 2.0, 1.0)
    xs = np.linspace(0.0, 12.0, 500)
    assert np.all(np.diff(gap_complement(cfg, xs)) > 0)


def test_atom_mass_zero_when_no_atom():
    cfg = config("laplace", 3.0, 1.0)
    assert atom_mass(cfg, 0.7) == 0.0
    assert np.all(atom_mass(cfg, np.linspace(-5, 5, 11)) == 0.0)


def test_atom_mass_closed_form():
    # w = 1/4, lam = 1/2, x = 0 for the Laplace law:
    # mass = 1 / (1 + (w/(1-w)) * 2G(-lam) / g(0)) = 1 / (1 + (2/3) e^{-1/2}).
    cfg = config("laplace", 0.5, 0.25)
    expected = 1.0 / (1.0 + (0.25 / 0.75) * math.exp(-0.5) / 0.5)
    assert atom_mass(cfg, 0.0) == pytest.approx(expected, abs=1e-14)


def test_atom_mass_even_and_nonincreasing():
    extra = [("laplace", 5.0, 0.125), ("t3", 2.0, 0.5)]
    for name, lam, w in ALL_CONFIGS + extra:
        cfg = config(name, lam, w)
        xs = np.linspace(0.0, 15.0, 1000)
        h = atom_mass(cfg, xs)
        assert np.all(np.diff(h) <= 1e-15)
        assert np.max(np.abs(atom_mass(cfg, -xs) - h)) <= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [40.0, -40.0])
def test_atom_mass_where_density_underflows(x):
    # g(40) underflows to 0 for the Gaussian law: the atom's share is 0,
    # reached without dividing by the density.
    cfg = config("gaussian", 2.0, 0.25)
    assert cfg.dist.pdf(x) == 0.0
    assert atom_mass(cfg, x) == 0.0
    cs = hpd_set(cfg, x)
    assert cs.atom_mass == 0.0 and cs.atom_included
    assert all(math.isfinite(v) for iv in cs.intervals for v in iv)


def test_atom_mass_matches_odds_form():
    # Where the density is positive, kg / (kg + s) equals the odds form
    # 1 / (1 + w/(1-w) * s / g) to rounding.
    for name, lam, w in ALL_CONFIGS + [("laplace", 5.0, 0.125), ("t3", 2.0, 0.02)]:
        if w == 1.0:
            continue
        cfg = config(name, lam, w)
        xs = np.linspace(-30.0, 30.0, 2001)
        odds = w / (1.0 - w) * gap_complement(cfg, xs) / cfg.dist.pdf(xs)
        assert np.max(np.abs(atom_mass(cfg, xs) - 1.0 / (1.0 + odds))) <= 1e-15


def test_atom_threshold_no_atom():
    assert atom_threshold(config("laplace", 4.0, 1.0)) == -math.inf


def test_atom_threshold_below_level_at_origin():
    # Laplace with w in (sqrt(2a), 1) and lam < ln((1-a)/a * w/(1-w)) keeps the
    # atom below 1 - alpha everywhere, so no threshold exists.
    alpha = 0.05
    w = 0.5
    bound = math.log((1 - alpha) / alpha * w / (1 - w))
    assert bound == pytest.approx(math.log(19.0))
    for lam in (0.5, 2.0, 2.9):
        assert lam < bound
        cfg = config("laplace", lam, w, alpha)
        assert cfg.t_alpha == -math.inf


def test_atom_threshold_finite_matches_analytic():
    # Laplace, alpha = 0.05, w = 1/8, lam = 5: for t < lam the defining
    # equation reduces to (w/(1-w)) (e^{2t-lam} + e^{-lam}) = alpha/(1-alpha).
    alpha, w, lam = 0.05, 0.125, 5.0
    cfg = config("laplace", lam, w, alpha)
    t = cfg.t_alpha
    rhs = alpha / (1 - alpha) * (1 - w) / w - math.exp(-lam)
    analytic = 0.5 * (lam + math.log(rhs))
    assert math.isfinite(t)
    assert t == pytest.approx(analytic, abs=1e-8)
    assert atom_mass(cfg, t) == pytest.approx(1 - alpha, abs=1e-9)
    # membership boundary: atom carries >= 1 - alpha inside, less outside
    assert atom_mass(cfg, t - 1e-6) > 1 - alpha > atom_mass(cfg, t + 1e-6)


class _StickyAtom(Distribution):
    """Degenerate stub whose atom never falls below the credibility level."""

    name = "sticky"

    def pdf(self, x):
        # The slab's share s is near 1 beyond the band, so the spike term must
        # exceed (1 - alpha) / alpha times it there too.
        return np.full_like(np.asarray(x, float), 1e3)

    def cdf(self, x):
        return np.full_like(np.asarray(x, float), 1e-12)

    def lower_tail(self, t):
        return self.cdf(t)


def test_atom_threshold_saturated_flagged_as_inf():
    cfg = PriorConfig(dist=_StickyAtom(), lam=1.0, w=0.5, alpha=0.05)
    assert cfg.t_alpha == math.inf


def _bisection_threshold(cfg):
    """The scalar bisection atom_threshold used before its bracketing solver."""
    target = 1.0 - cfg.alpha
    if cfg.w >= 1.0 or atom_mass(cfg, 0.0) < target:
        return -math.inf
    lo, hi = 0.0, 1.0
    while atom_mass(cfg, hi) >= target:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            return math.inf
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if atom_mass(cfg, mid) >= target else (lo, mid)
    return 0.5 * (lo + hi)


def test_atom_threshold_agrees_with_bisection():
    rng = np.random.default_rng(300)
    laws = ["gaussian", "laplace", "t3", "subexp"]
    finite = 0
    for i in range(300):
        law = laws[i % 4]
        d = make_distribution(law, eta=0.5 if law == "subexp" else None)
        lam = float(rng.choice([0.0, 0.5, 2.0, 5.0, 12.0]) * rng.uniform(0.5, 1.5))
        w = float(10 ** rng.uniform(-6.0, -0.01))
        alpha = float(10 ** rng.uniform(-4.0, -0.3))
        cfg = PriorConfig(d, lam, w, alpha)
        want = _bisection_threshold(cfg)
        got = atom_threshold(cfg)
        if math.isfinite(want):
            finite += 1
            assert abs(got - want) <= 1e-10, (law, lam, w, alpha)
        else:
            assert got == want
    assert finite > 150


@pytest.mark.parametrize("lam", [20.0, 35.0])
@pytest.mark.parametrize("w", [0.25, 1e-4])
def test_atom_codes_follow_atom_mass_deep_in_band(lam, w):
    # Deep in a wide band the slab share s is tiny and q1 - 1/2 rounds to 0
    # far past t_alpha (gaussian, lam 35, w 1e-4: from t_alpha = 17.76 out to
    # |x| = 26.7, as the atom mass falls from 0.95 to 1e-135), so the atom
    # rule must come from a margin whose terms are of the size of s: the codes
    # read ATOM exactly where the atom mass reaches 1 - alpha, off the root.
    cfg = PriorConfig(make_distribution("gaussian"), lam, w, 0.05)
    t = cfg.t_alpha
    assert 0.0 < t < lam
    xs = np.linspace(-lam - 10.0, lam + 10.0, 40_001)
    xs = xs[np.abs(np.abs(xs) - t) > 1e-9]
    atom = regime_codes(cfg, xs) == Regime.ATOM
    assert np.array_equal(atom, atom_mass(cfg, xs) >= 1.0 - cfg.alpha)
    assert np.array_equal(atom, np.abs(xs) <= t)


def test_import_posterior_loads_no_evaluator_module():
    # posterior imports scanning for its threshold solver; neither may reach
    # back to the evaluator or the coverage layer, so the import graph stays
    # acyclic.  A bare package object stands in for hpdcover/__init__.py
    # (which imports every module), so only posterior's own imports run.
    pkg = str(Path(hpdcover.__file__).resolve().parent)
    code = (
        "import sys, types; pkg = types.ModuleType('hpdcover'); pkg.__path__ = [sys.argv[1]]; "
        "sys.modules['hpdcover'] = pkg; import hpdcover.posterior; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('hpdcover.'))))"
    )
    out = subprocess.run([sys.executable, "-c", code, pkg], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert {"hpdcover.posterior", "hpdcover.scanning"} <= loaded
    assert not loaded & {"hpdcover.hpd", "hpdcover.coverage"}


def test_posterior_normalizer_positive():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        xs = np.linspace(-20.0, 20.0, 201)
        assert np.all(posterior_normalizer(cfg, xs) > 0.0)


def test_posterior_probability_normalizes():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        for x in (-3.3, 0.0, 1.7, 6.0):
            total = posterior_probability(cfg, x, [(-np.inf, np.inf)], include_atom=cfg.has_atom)
            assert total == pytest.approx(1.0, abs=1e-10)


def test_posterior_probability_is_the_mass_over_the_normalizer_plus_the_atom():
    # One tail_levels call gives D(x) and the atom mass, the very values
    # posterior_normalizer and atom_mass return: the result is bit-identical
    # to the sum written with them (intervals right of the band, unclipped).
    for law, lam, w in (("gaussian", 0.5, 0.25), ("t3", 2.0, 0.5), ("laplace", 1.0, 1.0)):
        cfg = config(law, lam, w)
        pieces = [(lam + 0.1, lam + 2.5), (lam + 3.0, np.inf)]
        for x in (0.0, -0.0, lam, -2.3, 3.7, 40.0):
            mass = sum(float(interval_mass(cfg.dist, a - x, b - x)) for a, b in pieces)
            want = mass / posterior_normalizer(cfg, x) + atom_mass(cfg, x)
            assert posterior_probability(cfg, x, pieces, include_atom=True).hex() == want.hex()


def test_posterior_probability_band_interior_is_null():
    cfg = config("laplace", 2.0, 0.5)
    assert posterior_probability(cfg, 1.0, [(-1.9, 1.9)], include_atom=False) == 0.0


def test_posterior_probability_halfline_closed_form():
    # Gaussian, lam = 1/2, w = 1, x = 1.25: mass of [1/2, inf) is
    # G(3/4) / (G(3/4) + G(-7/4)), from the shifted-CDF ratio.
    cfg = config("gaussian", 0.5, 1.0)
    x = 1.25
    d = cfg.dist
    expected = float(d.cdf(0.75)) / float(d.cdf(0.75) + d.cdf(-1.75))
    got = posterior_probability(cfg, x, [(0.5, np.inf)], include_atom=False)
    assert got == pytest.approx(expected, abs=1e-13)


def test_posterior_probability_additive():
    cfg = config("laplace", 0.5, 0.25)
    x = 1.1
    a = posterior_probability(cfg, x, [(0.6, 2.0)], include_atom=False)
    b = posterior_probability(cfg, x, [(2.0, 4.5)], include_atom=False)
    both = posterior_probability(cfg, x, [(0.6, 2.0), (2.0, 4.5)], include_atom=False)
    assert both == pytest.approx(a + b, abs=1e-12)


def test_posterior_probability_rejects_overlaps():
    cfg = config("laplace", 0.5, 1.0)
    with pytest.raises(ValueError):
        posterior_probability(cfg, 1.0, [(0.0, 2.0), (1.5, 3.0)], include_atom=False)
    with pytest.raises(ValueError):
        posterior_probability(cfg, float("nan"), [(0.0, 2.0)], include_atom=False)
    with pytest.raises(ValueError):
        posterior_probability(cfg, 1.0, [(2.0, 0.0)], include_atom=False)


def _quad_posterior(cfg, x, intervals, include_atom):
    """Quadrature oracle: integrate the shifted density over the slab pieces."""
    d = cfg.dist
    slab_total, _ = integrate.quad(
        lambda t: float(d.pdf(t - x)), cfg.lam, np.inf, limit=200
    )
    left, _ = integrate.quad(lambda t: float(d.pdf(t - x)), -np.inf, -cfg.lam, limit=200)
    slab_total += left
    atom_w = (1.0 - cfg.w) / cfg.w * float(d.pdf(x))
    denom = atom_w + slab_total
    mass = 0.0
    for a, b in intervals:
        for lo, hi in ((a, min(b, -cfg.lam)), (max(a, cfg.lam), b)):
            if lo < hi:
                part, _ = integrate.quad(lambda t: float(d.pdf(t - x)), lo, hi, limit=200)
                mass += part
    out = mass / denom
    if include_atom:
        out += atom_w / denom
    return out


@pytest.mark.parametrize(
    "name,lam,w,x",
    [("laplace", 0.5, 0.25, 1.3), ("gaussian", 2.0, 0.6, -2.6), ("t3", 1.0, 1.0, 3.1)],
)
def test_posterior_probability_against_quadrature(name, lam, w, x):
    cfg = config(name, lam, w)
    intervals = [(-6.0, -1.2), (0.9, 4.4)]
    got = posterior_probability(cfg, x, intervals, include_atom=cfg.has_atom)
    want = _quad_posterior(cfg, x, intervals, include_atom=cfg.has_atom)
    assert got == pytest.approx(want, abs=1e-9)


def test_credible_sets_carry_level_credibility():
    # The assembled set always holds exactly 1 - alpha of posterior mass.
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        t = max(cfg.t_alpha, 0.0) if math.isfinite(cfg.t_alpha) else 0.0
        for x in (t + 0.05, t + 1.3, lam + 4.0, -(lam + 2.2)):
            cs = hpd_set(cfg, x)
            prob = posterior_probability(cfg, x, cs.intervals, include_atom=cs.atom_included)
            assert prob == pytest.approx(1.0 - cfg.alpha, abs=1e-8), (name, lam, w, x)
