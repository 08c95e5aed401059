import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from hpdcover import (
    PriorConfig,
    Regime,
    check_coverage_bounds,
    conditional_coverage_mc,
    coverage_curve,
    conditional_coverage_exact,
    coverage_exact,
    coverage_mc,
    dip_search,
    credible_set_contains,
    endpoints,
    hpd_radii,
    hpd_set,
    interval_mass,
    invert_lower,
    invert_upper,
    onesided_coverage_exact,
    post_selection_set,
    posterior_probability,
    predicted_dip_level,
    regime_codes,
    smallest_lower_inverse,
    upper_values,
)
from hpdcover import coverage as coverage_mod
from hpdcover import distributions as distributions_mod
from hpdcover import hpd as hpd_mod
from hpdcover import scanning as scanning_mod
from hpdcover.cli import main as cli_main
from hpdcover.cli import parse_dist_spec
from hpdcover.distributions import uniform_blocks
from hpdcover.figures import _coverage_grid

from conftest import ALL_CONFIGS, ALPHA, config, dist


def mc_draws(d, theta0, n, seed):
    """The Monte Carlo draws (x, u) of coverage._mc_point, block by block:
    x = theta0 + G^{-1}(u) on the seeded uniform stream."""
    return ((theta0 + d.ppf(u), u) for u in uniform_blocks(n, seed))


def test_uniform_prior_coverage_is_exact():
    for name in ("gaussian", "laplace", "t3"):
        cfg = config(name, 0.0, 1.0)
        for theta0 in (-6.0, -0.4, 0.0, 2.3, 9.1):
            assert coverage_exact(cfg, theta0).C == pytest.approx(0.95, abs=1e-9)


def test_zero_coverage_inside_band():
    cfg = config("laplace", 2.0, 1.0)
    for theta0 in (0.3, -1.2, 1.999):
        assert coverage_exact(cfg, theta0).C == 0.0


def test_origin_coverage():
    # With an atom the origin is always covered; without one (and a real
    # band) it never is.
    assert coverage_exact(config("gaussian", 0.5, 0.25), 0.0).C == 1.0
    assert coverage_exact(config("gaussian", 0.5, 1.0), 0.0).C == 0.0


def test_coverage_split_identity():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        for theta0 in (lam + 0.2, lam + 1.7, lam + 6.0):
            pt = coverage_exact(cfg, theta0)
            assert pt.C == pytest.approx(pt.C_minus + pt.C_plus, abs=1e-8)


def test_coverage_symmetric():
    for name, lam, w in [("laplace", 5.0, 1.0), ("gaussian", 0.5, 0.25)]:
        cfg = config(name, lam, w)
        for theta0 in (lam + 0.3, lam + 2.0, lam + 5.5):
            assert coverage_exact(cfg, theta0).C == pytest.approx(
                coverage_exact(cfg, -theta0).C, abs=1e-9
            )


def test_coverage_bounded_and_fractions_normalized():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        pt = coverage_exact(cfg, lam + 1.1)
        assert 0.0 <= pt.C <= 1.0
        assert sum(pt.fractions.values()) == pytest.approx(1.0, abs=1e-6)


def test_inverse_sandwich_bounds_lower_part():
    # P(theta0 <= X <= inf L^{-1}) <= C- <= P(theta0 <= X <= sup L^{-1}).
    cfg = config("laplace", 5.0, 1.0)
    for theta0 in (6.0, 8.5, 12.0):
        pt = coverage_exact(cfg, theta0)
        inv = invert_lower(cfg, theta0)
        lo = float(interval_mass(cfg.dist, 0.0, inv.inf - theta0))
        hi = float(interval_mass(cfg.dist, 0.0, inv.sup - theta0))
        assert lo - 1e-8 <= pt.C_minus <= hi + 1e-8


def test_coverage_monotone_in_slab_weight():
    cfg_grid = [0.125, 0.5, 1.0]
    for name in ("gaussian", "laplace"):
        for theta0 in (5.6, 7.8, 11.0):
            cs = [coverage_exact(config(name, 5.0, w), theta0).C for w in cfg_grid]
            assert cs[0] <= cs[1] + 1e-9 <= cs[2] + 2e-9


def test_large_theta_recovers_nominal_level():
    cfg = config("laplace", 5.0, 1.0)
    theta0 = 5.0 + 3.0 * float(cfg.dist.ppf(0.975))
    assert coverage_exact(cfg, theta0).C == pytest.approx(0.95, abs=0.005)
    assert coverage_exact(cfg, 12.0).C == pytest.approx(0.95, abs=0.005)


def test_exact_matches_monte_carlo():
    for name, lam, w in [("gaussian", 0.5, 1.0), ("laplace", 5.0, 0.25)]:
        cfg = config(name, lam, w)
        for theta0 in (lam + 0.4, lam + 2.6):
            pt = coverage_exact(cfg, theta0)
            c_hat, se = coverage_mc(cfg, theta0, 200_000, seed=99)
            assert abs(c_hat - pt.C) <= 4.0 * se


def test_monte_carlo_reproducible():
    cfg = config("laplace", 0.5, 1.0)
    a = coverage_mc(cfg, 2.0, 50_000, seed=12)
    b = coverage_mc(cfg, 2.0, 50_000, seed=12)
    assert a == b
    c = coverage_mc(cfg, 2.0, 50_000, seed=13)
    assert a != c


def test_monte_carlo_validates_input():
    cfg = config("laplace", 0.5, 1.0)
    with pytest.raises(ValueError):
        coverage_mc(cfg, 2.0, 0, seed=0)


def test_monte_carlo_curve_rejects_empty_sample():
    cfg = config("laplace", 1.0, 1.0)
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"^n must be an integer >= 1, got {n}$"):
            coverage_curve(cfg, [1.5, 2.0], method="mc", n=n)


def test_coverage_mc_is_the_one_point_curve_at_any_draw_count():
    # One draw rule: coverage_mc takes any n >= 1 (it once refused n < 1000)
    # and is the C of the one-point Monte Carlo curve at the same seed.
    cfg = config("laplace", 0.5, 0.25)
    for theta0, seed in ((2.0, 4), (0.0, 9), (-1.3, 11)):
        c_hat, se = coverage_mc(cfg, theta0, 500, seed)
        assert c_hat == coverage_curve(cfg, [theta0], method="mc", n=500, seed=seed, threads=1).C[0]
        assert se == math.sqrt(max(c_hat * (1.0 - c_hat), 1e-300) / 500)


def test_coverage_against_riemann_membership():
    # Crude midpoint-rule oracle over the raw membership indicator.
    cfg = config("laplace", 5.0, 1.0)
    theta0 = 9.0
    xs = np.linspace(theta0 - 25.0, theta0 + 25.0, 400_001)
    member = credible_set_contains(cfg, xs, theta0)
    dx = xs[1] - xs[0]
    riemann = float(np.sum(cfg.dist.pdf(xs[member] - theta0)) * dx)
    assert coverage_exact(cfg, theta0).C == pytest.approx(riemann, abs=1e-3)


def test_membership_agrees_with_hpd_set():
    cfg = config("laplace", 0.5, 0.25)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-8, 8, 300)
    for theta0 in (0.0, 0.7, 2.4):
        flags = credible_set_contains(cfg, xs, theta0)
        for x, flag in zip(xs, flags):
            assert flag == hpd_set(cfg, float(x)).contains(theta0)


# (lam, w, theta0) where the atom/band rule, or the band edge, decides
# membership: lam = 0 with and without an atom at theta0 = 0, theta0 = +-lam
# exactly with and without an atom, theta0 = 0 at w = 1 with lam > 0, and
# theta0 inside the band.
SPECIAL_CASES = [
    (0.0, 1.0, 0.0),
    (0.0, 0.25, 0.0),
    (2.0, 1.0, 2.0),
    (2.0, 1.0, -2.0),
    (2.0, 0.25, 2.0),
    (2.0, 0.25, -2.0),
    (2.0, 1.0, 0.0),
    (2.0, 1.0, 1.3),
    (2.0, 0.25, -0.7),
]


@pytest.mark.parametrize("lam, w, theta0", SPECIAL_CASES)
def test_special_case_membership_table(lam, w, theta0):
    cfg = config("laplace", lam, w)
    xs = np.random.default_rng(8).uniform(-8.0, 8.0, 300)
    flags = credible_set_contains(cfg, xs, theta0)
    assert [bool(f) for f in flags] == [hpd_set(cfg, float(x)).contains(theta0) for x in xs]
    c_hat, se = coverage_mc(cfg, theta0, 20_000, seed=31)
    rep = coverage_curve(cfg, [theta0], method="mc", n=20_000, seed=31, threads=1)
    assert c_hat == rep.C[0]
    assert abs(c_hat - coverage_exact(cfg, theta0).C) <= 4.0 * se


def test_coverage_curve_report():
    cfg = config("laplace", 0.5, 1.0)
    grid = np.array([0.7, 1.0, 2.0, 4.0])
    rep = coverage_curve(cfg, grid, method="exact")
    assert rep.method == "exact_scan"
    columns = (rep.theta0, rep.C, rep.C_minus, rep.C_plus, *rep.fractions.values())
    assert [c.shape for c in columns] == [(4,)] * 8
    assert list(rep.fractions) == ["I", "II", "III", "IV"]
    assert rep.theta0[2] == 2.0
    assert np.all((0 <= rep.C) & (rep.C <= 1))
    with pytest.raises(ValueError):
        coverage_curve(cfg, grid[::-1])
    with pytest.raises(ValueError):
        coverage_curve(cfg, grid, method="bogus")


def test_coverage_curve_mc_deterministic():
    cfg = config("gaussian", 0.5, 1.0)
    grid = np.array([1.0, 2.0])
    r1 = coverage_curve(cfg, grid, method="mc", n=20_000, seed=4)
    r2 = coverage_curve(cfg, grid, method="mc", n=20_000, seed=4)
    assert np.array_equal(r1.C, r2.C)
    assert r1.method == "monte_carlo(seed=4, n=20000)"


def test_onesided_coverage_strictly_below_shifted_two_sided():
    for lam in (0.5, 5.0):
        cfg = config("laplace", lam, 1.0)
        for theta0 in (lam + 0.2, lam + 1.5, lam + 4.0):
            c_one = onesided_coverage_exact(cfg, theta0)
            pt = coverage_exact(cfg, theta0)
            assert c_one < pt.C + float(cfg.dist.cdf(-theta0))


def test_onesided_coverage_requires_pure_slab():
    with pytest.raises(ValueError):
        onesided_coverage_exact(config("laplace", 1.0, 0.5), 2.0)


@pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf, [6.0, math.nan]])
def test_onesided_coverage_rejects_non_finite_theta0(theta0):
    with pytest.raises(ValueError, match="theta0 must be finite"):
        onesided_coverage_exact(config("laplace", 5.0, 1.0), theta0)


@pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda cfg, t: coverage_mc(cfg, t, 2000, 1),
        lambda cfg, t: coverage_curve(cfg, [t], method="mc", n=2000),
        invert_upper,
        invert_lower,
        smallest_lower_inverse,
    ],
    ids=["coverage_mc", "mc_curve", "invert_upper", "invert_lower", "smallest_lower_inverse"],
)
def test_non_finite_theta0_is_refused_as_by_the_exact_scan(call, theta0):
    # Monte Carlo read NaN as zero coverage with a 2e-152 standard error, the
    # inversions failed on an "empty scan window [nan, nan]", and the fixed
    # point ran 10,000 steps at inf before it gave up.
    with pytest.raises(ValueError, match="theta0 must be finite"):
        call(config("laplace", 1.0, 1.0), theta0)


@pytest.mark.parametrize("theta0", [1e14, -1e14, 1e300])
def test_exact_scans_refuse_a_theta0_past_float_resolution(tmp_path, capsys, theta0):
    # Cut abscissas round to ulp(theta0): at laplace lam 1 the scan read
    # C(1e14) = 0.950212931632 and exited 0, while 1e300 failed on an "empty
    # scan window [1e+300, 1e+300]".
    cfg = config("laplace", 1.0, 1.0)
    refusal = rf"^theta0 = {re.escape(repr(theta0))} is too large for an exact scan: "
    for call in (coverage_exact, onesided_coverage_exact):
        for arg in (theta0, [6.0, theta0]):
            with pytest.raises(ValueError, match=refusal):
                call(cfg, arg)
    out = tmp_path / "c.csv"
    argv = ["coverage", "--dist", "laplace", "--lambda", "1", "--grid", f"{theta0!r}:{theta0!r}:1", "--out", str(out)]
    assert cli_main(argv) == 1
    assert "is too large for an exact scan" in capsys.readouterr().err


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_exact_scans_hold_their_far_field_value_out_to_1e8(law):
    # The largest theta0 power of ten the reach rule accepts keeps C within
    # TOL_TAIL of its far-field value (the sweep behind _EDGE_SPACING).
    cfg = PriorConfig(parse_dist_spec(law), 2.0, 1.0, ALPHA)
    for theta0 in (1e8, -1e8):
        assert abs(coverage_exact(cfg, theta0).C - coverage_exact(cfg, 1e4).C) <= scanning_mod.TOL_TAIL
    assert abs(onesided_coverage_exact(cfg, 1e8) - onesided_coverage_exact(cfg, 1e4)) <= scanning_mod.TOL_TAIL


@pytest.mark.parametrize("call, what", [
    (lambda cfg: hpd_mod.onesided_endpoints(cfg, 2.0), "the one-sided baseline"),
    (lambda cfg: onesided_coverage_exact(cfg, 2.0), "one-sided baseline coverage"),
    (lambda cfg: post_selection_set(cfg, 2.0), "a post-selection set"),
    (lambda cfg: conditional_coverage_mc(cfg, 2.0, 20000, 0), "post-selection coverage"),
    (lambda cfg: conditional_coverage_exact(cfg, 2.0), "post-selection coverage"),
], ids=["onesided_endpoints", "onesided_coverage_exact", "post_selection_set",
        "conditional_coverage_mc", "conditional_coverage_exact"])
def test_w1_rule_names_what_requires_it(call, what):
    with pytest.raises(ValueError, match=f"^{what} requires w = 1$"):
        call(config("laplace", 1.0, 0.5))


@pytest.mark.parametrize("call", [
    lambda cfg, x: hpd_set(cfg, x),
    lambda cfg, x: posterior_probability(cfg, x, [(2.0, 3.0)], False),
    lambda cfg, x: credible_set_contains(cfg, [2.0], x),
    lambda cfg, x: post_selection_set(cfg, x),
], ids=["hpd_set", "posterior_probability", "credible_set_contains", "post_selection_set"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_finiteness_rule_names_x(call, x):
    with pytest.raises(ValueError, match=rf"^x must be finite, got {x!r}$"):
        call(config("laplace", 1.0, 1.0), x)


def test_predicted_dip_level_laplace_closed_form():
    # 1 - 3a/2 + a G(G^{-1}(a)/2) with G Laplace: the last factor is
    # sqrt(2a)/2, giving 0.9329057 at a = 0.05.
    cfg = config("laplace", 5.0, 1.0)
    expected = 1 - 0.075 + 0.05 * 0.5 * math.sqrt(0.1)
    assert predicted_dip_level(cfg) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.9329057, abs=5e-8)


def test_dip_search_smoke():
    cfg = config("laplace", 5.0, 1.0)
    dip = dip_search(cfg)
    assert dip.domain_lo == pytest.approx(7.9966, abs=1e-3)
    assert dip.c_min == pytest.approx(0.9273, abs=2e-3)
    assert dip.theta_at_min > dip.domain_lo


def _dense_grid_min_upper(cfg, zooms=8, n=2001):
    """min U over x >= max(lam, t_alpha) by repeated dense grids, each
    re-centred on the previous grid minimum; no solver involved."""
    a = max(cfg.lam, cfg.t_alpha) + 1e-9
    b = a + float(cfg.dist.ppf_upper(cfg.alpha / 2.0)) + 2.0
    for _ in range(zooms):
        xs = np.linspace(a, b, n)
        ups = upper_values(cfg, xs)
        i = int(np.nanargmin(ups))
        a, b = xs[max(i - 2, 0)], xs[min(i + 2, n - 1)]
    return float(ups[i])


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
@pytest.mark.parametrize("lam, w", [(2.0, 1.0), (2.0, 0.25), (5.0, 1.0), (5.0, 0.25)])
def test_dip_domain_matches_dense_grid_minimum(law, lam, w):
    cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
    assert cfg.t_alpha <= lam
    dip = dip_search(cfg)
    assert dip.domain_lo == pytest.approx(_dense_grid_min_upper(cfg), abs=1e-9)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3"])
@pytest.mark.parametrize("w", [1e-6, 1e-9])
def test_dip_domain_beyond_a_far_atom_threshold(law, w):
    # At tiny w the atom threshold lies past lam + G^{-1}(1 - alpha/2) + 2,
    # so min U is sought beyond t_alpha, not up to a fixed point past lam.
    cfg = PriorConfig(parse_dist_spec(law), 0.5, w, ALPHA)
    assert cfg.t_alpha > cfg.lam + float(cfg.dist.ppf_upper(ALPHA / 2.0)) + 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dip = dip_search(cfg)
    assert dip.domain_lo == pytest.approx(_dense_grid_min_upper(cfg), abs=1e-9)
    assert all(math.isfinite(v) for v in (dip.domain_lo, dip.theta_at_min, dip.c_min))
    # U rises from t_alpha, so C is least at the domain's left end itself.
    assert dip.theta_at_min == dip.domain_lo
    assert dip.c_min == coverage_exact(cfg, dip.domain_lo).C


def test_dip_search_saturated_atom_raises():
    cfg = PriorConfig(parse_dist_spec("t3"), 0.5, 1e-30, ALPHA)
    assert cfg.t_alpha == math.inf
    with pytest.raises(ValueError, match="saturated atom"):
        dip_search(cfg)


def test_dip_search_past_the_bracket_cap_names_the_cap():
    # t3, lam 1, w 1e-30: the atom holds past atom_threshold's 2^20 bracket
    # cap, so t_alpha reads +inf, yet U is defined further out; the refusal
    # says that the dip domain is not located, not that U is undefined.
    cfg = PriorConfig(parse_dist_spec("t3"), 1.0, 1e-30, ALPHA)
    assert cfg.t_alpha == math.inf
    assert float(upper_values(cfg, 7e7)[0]) == pytest.approx(7.0000003e7, rel=1e-9)
    with pytest.raises(ValueError, match=r"^saturated atom: .* 2\^20 bracket cap .*dip domain is not located$"):
        dip_search(cfg)


def _dense_grid_dip(cfg, lo, hi, n=201, zoom_n=41, spacing=1e-6):
    """min C over [lo, hi] from the exact batch on zoomed dense grids, each
    re-centred on the previous grid minimum, to a spacing below ``spacing``;
    no solver involved."""
    xs = np.linspace(lo, hi, n)
    while True:
        c = coverage_mod._exact_batch(cfg, xs, fractions=False)[:, 0]
        i = int(np.argmin(c))
        if xs[1] - xs[0] < spacing:
            return float(c[i])
        xs = np.linspace(xs[max(i - 2, 0)], xs[min(i + 2, xs.size - 1)], zoom_n)


def _dip_range_hi(cfg, dip):
    return max(cfg.lam + 3.2 * float(cfg.dist.ppf_upper(cfg.alpha / 2.0)), dip.domain_lo + 1.0)


def _batches_seen(monkeypatch):
    seen = []
    real = coverage_mod._exact_batch
    monkeypatch.setattr(
        coverage_mod, "_exact_batch", lambda cfg, ts, *args, **kw: seen.append(np.array(ts)) or real(cfg, ts, *args, **kw)
    )
    return seen


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_dip_matches_dense_grid_minimum(law):
    # At lam 5 the dip of all four laws is a corner of C, evaluated where it
    # lies, so no zoomed dense grid finds a lower C.
    cfg = PriorConfig(parse_dist_spec(law), 5.0, 1.0, ALPHA)
    dip = dip_search(cfg)
    ref = _dense_grid_dip(cfg, dip.domain_lo, _dip_range_hi(cfg, dip))
    assert dip.c_min - ref <= 1e-9
    assert abs(dip.c_min - coverage_exact(cfg, dip.theta_at_min).C) <= 1e-10


def test_dip_search_scans_one_batch_at_a_corner(monkeypatch):
    # One batch scan: the corner theta_b = U(x_b) of the II -> I boundary
    # x_b, the domain's left end and the interior samples.  The corner wins,
    # so no solver round follows.  At x_b, x - r1 = lam, so theta_b = 2 x_b
    # - lam with regime II just below x_b and I just above.
    cfg = config("laplace", 5.0, 1.0)
    seen = _batches_seen(monkeypatch)
    dip = dip_search(cfg)
    assert len(seen) == 1 and seen[0].size == 63 + 2
    assert min(float(np.min(ts)) for ts in seen) - dip.domain_lo > 1e-6
    x_b = 0.5 * (dip.theta_at_min + cfg.lam)
    assert [Regime(int(c)) for c in regime_codes(cfg, [x_b - 1e-9, x_b + 1e-9])] == [Regime.II, Regime.I]
    assert dip.c_min == pytest.approx(0.92727475, abs=1e-8)


def test_dip_search_falls_back_off_the_corners(monkeypatch):
    # subexp:0.5 at lam 12, alpha 0.1: the dip is no corner of C, so the
    # batch is followed by an extremum-mode solve on the best sample's two
    # sub-cells, whose last samples bound how close c_min comes.
    cfg = PriorConfig(parse_dist_spec("subexp:0.5"), 12.0, 1.0, 0.1)
    seen = _batches_seen(monkeypatch)
    dip = dip_search(cfg)
    assert len(seen) > 1 and dip.theta_at_min not in seen[0][63:]
    c_first = coverage_mod._exact_batch(cfg, seen[0], fractions=False)[:, 0]
    assert dip.c_min <= c_first.min()
    ref = _dense_grid_dip(cfg, dip.domain_lo, _dip_range_hi(cfg, dip))
    assert 0.0 <= dip.c_min - ref <= 6e-7
    assert abs(dip.c_min - coverage_exact(cfg, dip.theta_at_min).C) <= 1e-10


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_dip_fallback_settles_near_the_dense_grid_minimum(law):
    # At lam 0.001 no corner or domain end wins the batch, so the extremum
    # solve on C decides c_min.  At its old 1e-4 (1 + theta0) it stopped
    # 5.2e-10 (laplace) to 4.2e-9 (gaussian) above this reference.
    cfg = PriorConfig(parse_dist_spec(law), 0.001, 1.0, ALPHA)
    dip = dip_search(cfg)
    ref = _dense_grid_dip(cfg, dip.domain_lo, _dip_range_hi(cfg, dip), spacing=1e-7)
    assert abs(dip.c_min - ref) <= 3e-10


def _corners_on_the_codes(cfg, lo, hi, n=20001):
    """U at each II -> I change of the regime codes on [lo, hi]: a dense code
    sample brackets each change and bisection on the codes alone settles it."""
    xs = np.linspace(lo, hi, n)
    codes = regime_codes(cfg, xs)
    k = np.flatnonzero((codes[:-1] == Regime.II) & (codes[1:] == Regime.I))
    a, b = xs[k], xs[k + 1]
    for _ in range(60):
        mid = 0.5 * (a + b)
        below = regime_codes(cfg, mid) == Regime.II
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    return upper_values(cfg, 0.5 * (a + b))


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
@pytest.mark.parametrize("lam", [0.5, 2.0, 5.0, 12.0])
@pytest.mark.parametrize("w", [1.0, 0.25])
@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_upper_corners_match_a_bisection_on_the_codes(law, lam, w, alpha):
    # Every corner of C in the dip range [domain_lo, hi): as many as the
    # dense code reference finds, each U(x_b) within 1e-9 of it.
    cfg = PriorConfig(parse_dist_spec(law), lam, w, alpha)
    far = lam + 3.2 * float(cfg.dist.ppf_upper(alpha / 2.0))
    domain_lo, _, corners = hpd_mod._upper_profile(cfg, far)
    hi = max(far, domain_lo + 1.0)
    ref = _corners_on_the_codes(cfg, max(lam, cfg.t_alpha), hi)
    got = np.sort(corners[corners < hi])
    ref = np.sort(ref[ref < hi])
    assert got.size == ref.size
    assert np.all(np.abs(got - ref) <= 1e-9)


@pytest.mark.parametrize("law, lam", [("laplace", 5.0), ("gaussian", 0.001)])
def test_dip_search_work_outside_its_batches(monkeypatch, law, lam):
    # Outside its _exact_batch scans one dip_search makes one sampled endpoint
    # pass of U (and one at the corners it finds), one boundary-mode solve
    # for the corners and at most one extremum-mode solve of U.
    cfg = PriorConfig(parse_dist_spec(law), lam, 1.0, ALPHA)
    corners = hpd_mod._upper_profile(cfg, cfg.lam + 3.2 * float(cfg.dist.ppf_upper(ALPHA / 2.0)))[2].size
    inside, passes, calls = [], [], {}

    def counted(name, fn):
        def wrapped(*args, **kw):
            calls[name] = calls.get(name, 0) + 1
            inside.append(name)
            try:
                return fn(*args, **kw)
            finally:
                inside.pop()
        return wrapped

    real_pass = hpd_mod._endpoint_pass

    def endpoint_pass(c, x):
        if not inside:
            passes.append(np.size(x))
        return real_pass(c, x)

    monkeypatch.setattr(hpd_mod, "_endpoint_pass", endpoint_pass)
    for mod, name in [(hpd_mod, "refine_boundaries"), (hpd_mod, "refine_extrema"), (coverage_mod, "_exact_batch")]:
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    dip_search(cfg)
    assert calls["refine_boundaries"] == 1 and calls.get("refine_extrema", 0) <= 1
    assert sorted(passes) == sorted([256, corners])


@pytest.mark.parametrize("law", ["laplace", "t3"])
def test_dip_search_at_the_domain_closed_left_end(law):
    # At lam 0.5, w 0.25 min U sits at the atom threshold and C rises from
    # domain_lo: the dip is the left-end candidate, domain_lo itself, where
    # U - theta0 has a simple root, so c_min is the dense grid's minimum.
    cfg = PriorConfig(parse_dist_spec(law), 0.5, 0.25, ALPHA)
    dip = dip_search(cfg)
    assert dip.theta_at_min == dip.domain_lo
    ref = _dense_grid_dip(cfg, dip.domain_lo, _dip_range_hi(cfg, dip))
    assert 0.0 <= dip.c_min - ref <= 1e-12


@pytest.mark.parametrize("law", ["laplace", "t3", "subexp:0.5"])
@pytest.mark.parametrize("alpha", [0.1, 0.05])
def test_dip_search_reaches_the_domain_left_end(law, alpha):
    # The left end once entered the batch as domain_lo + 1e-6 (1 + domain_lo)
    # even where min U sits at the band edge, so c_min sat above
    # C(domain_lo) by C's slope times that offset (8.35e-8 for laplace at
    # alpha 0.1).
    cfg = PriorConfig(parse_dist_spec(law), 0.5, 0.25, alpha)
    dip = dip_search(cfg)
    assert dip.c_min <= coverage_exact(cfg, dip.domain_lo).C + 1e-12


@pytest.mark.parametrize("law, lam, w, alpha, scans", [
    ("laplace", 5.0, 1.0, ALPHA, "dip_level"),
    ("subexp:0.5", 12.0, 1.0, 0.1, "dip_level"),  # the dip's fallback solve runs
    ("t3", 0.5, 1e-3, ALPHA, "early_c_plus_ceiling"),
])
def test_check_coverage_bounds_computes_the_scan_half_width_once(monkeypatch, law, lam, w, alpha, scans):
    # The above-grid batch, then dip_search's batches or early_c_plus's each
    # scan with _half_width (two to four calls); it is formed once per config.
    cfg = PriorConfig(parse_dist_spec(law), lam, w, alpha)
    calls = []
    real = hpd_mod._member_reach
    monkeypatch.setattr(hpd_mod, "_member_reach", lambda c: calls.append(1) or real(c))
    report = check_coverage_bounds(cfg, lam + np.linspace(0.5, 7.0, 8))
    assert {c.name: c.status for c in report.checks}[scans] != "skipped"
    assert len(calls) == 1
    assert hpd_mod._half_width(cfg) == min(float(cfg.dist.ppf_upper(scanning_mod.TOL_TAIL / 2.0)), real(cfg))


def test_check_bounds_panel_config():
    cfg = config("laplace", 5.0, 1.0)
    grid = 5.0 + np.linspace(0.2, 9.0, 12)
    report = check_coverage_bounds(cfg, grid)
    by_name = {c.name: c for c in report.checks}
    assert by_name["c_minus_ceiling"].status == "pass"
    assert by_name["c_minus_floor"].status == "pass"
    assert by_name["dip_level"].status == "pass"
    # (b) and (c) grade against the law's certificate, fixed before the run.
    slack = cfg.dist.tail_cstar * ALPHA ** (1.0 + cfg.dist.tail_gamma)
    assert by_name["c_minus_floor"].details["bound"] == by_name["dip_level"].details["bound"] == slack
    assert by_name["onesided_comparison"].status == "pass"
    assert by_name["early_c_plus_ceiling"].status == "skipped"
    assert report.passed


def _bounds_cli(tmp_path):
    out = tmp_path / "b.json"
    code = cli_main(["bounds", "--dist", "laplace", "--lambda", "5", "--w", "1",
                     "--alpha", "0.05", "--grid", "5.5:12:8", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_check_bounds_dip_level_fails_against_a_lowered_cstar(monkeypatch, tmp_path):
    # The laplace dip deviation is 0.373 alpha**1.4 at alpha 0.05, inside
    # cstar = 4 but not inside 0.25: the check grades, it does not record.
    cfg = config("laplace", 5.0, 1.0)
    grid = np.linspace(5.5, 12.0, 8)
    monkeypatch.setattr(type(cfg.dist), "tail_cstar", 0.25)
    report = check_coverage_bounds(cfg, grid)
    by_name = {c.name: c for c in report.checks}
    dip = by_name["dip_level"]
    assert dip.status == "fail" and dip.margin < 0.0
    assert dip.margin == dip.details["bound"] - dip.details["deviation"]
    assert [c.name for c in report.checks if c.status == "fail"] == ["dip_level"]
    assert not report.passed
    code, payload = _bounds_cli(tmp_path)
    assert code == 1 and not payload["passed"]


def test_check_bounds_c_minus_floor_fails_on_a_lowered_c_minus(monkeypatch, tmp_path):
    # C- lowered by 0.1 puts its shortfall below 1/2 - alpha past the slack
    # cstar * alpha**(1+gamma) = 0.060 of laplace at alpha 0.05.
    real = coverage_mod._exact_batch

    def lowered(cfg, theta0, fractions=True):
        rows = real(cfg, theta0, fractions)
        rows[:, 1] -= 0.1
        return rows

    monkeypatch.setattr(coverage_mod, "_exact_batch", lowered)
    cfg = config("laplace", 5.0, 1.0)
    report = check_coverage_bounds(cfg, np.linspace(5.5, 12.0, 8))
    floor = next(c for c in report.checks if c.name == "c_minus_floor")
    assert floor.status == "fail"
    assert floor.margin == floor.details["bound"] - floor.details["max_shortfall"] < 0.0
    assert [c.name for c in report.checks if c.status == "fail"] == ["c_minus_floor"]
    assert not report.passed
    code, payload = _bounds_cli(tmp_path)
    assert code == 1 and not payload["passed"]


def test_check_bounds_skips_without_tail_certificate():
    cfg = config("t3", 5.0, 1.0)
    grid = 5.0 + np.linspace(0.5, 6.0, 6)
    report = check_coverage_bounds(cfg, grid)
    by_name = {c.name: c for c in report.checks}
    assert by_name["c_minus_floor"].status == "skipped"
    assert by_name["dip_level"].status == "skipped"
    assert by_name["c_minus_ceiling"].status == "pass"


def test_check_bounds_early_gap_when_threshold_beyond_band():
    # Strong atom pushes the threshold past the band edge; between them the
    # above-x coverage part stays under G(-2 lam).
    cfg = config("laplace", 0.3, 0.02)
    assert cfg.t_alpha > cfg.lam
    grid = np.linspace(0.6, 3.0, 5)
    report = check_coverage_bounds(cfg, grid)
    by_name = {c.name: c for c in report.checks}
    assert by_name["early_c_plus_ceiling"].status == "pass"
    assert by_name["onesided_comparison"].status == "skipped"


@pytest.mark.parametrize("grid", [[math.nan, 7.0, 8.0], [math.nan], [6.0, math.inf]])
def test_check_bounds_rejects_non_finite_theta0(grid):
    # A NaN fell out of the above-band filter unnoticed: [nan, 7, 8] passed,
    # and [nan] gave a passing report whose checks were all skipped.
    with pytest.raises(ValueError):
        check_coverage_bounds(config("laplace", 5.0, 1.0), grid)


def test_subexp_coverage_end_to_end():
    from hpdcover import PriorConfig, make_distribution, posterior_probability

    d = make_distribution("subexp", eta=0.7)
    uniform = PriorConfig(dist=d, lam=0.0, w=1.0, alpha=0.05)
    assert coverage_exact(uniform, 1.7).C == pytest.approx(0.95, abs=1e-8)
    banded = PriorConfig(dist=d, lam=2.0, w=0.5, alpha=0.05)
    for x in (0.3, 2.8, -5.0):
        cs = hpd_set(banded, x)
        prob = posterior_probability(banded, x, cs.intervals, include_atom=cs.atom_included)
        assert prob == pytest.approx(0.95, abs=1e-8)
    pt = coverage_exact(banded, 3.1)
    c_hat, se = coverage_mc(banded, 3.1, 150_000, seed=6)
    assert abs(c_hat - pt.C) <= 4.0 * se


def test_coverage_curve_thread_count_invariant(monkeypatch):
    cfg = config("laplace", 5.0, 1.0)
    grid = np.array([6.0, 8.0, 9.7])
    monkeypatch.setenv("HPD_THREADS", "1")
    serial = coverage_curve(cfg, grid)
    monkeypatch.setenv("HPD_THREADS", "2")
    threaded = coverage_curve(cfg, grid)
    assert np.array_equal(serial.C, threaded.C)
    assert np.array_equal(serial.C_minus, threaded.C_minus)


def test_membership_tolerates_infinite_draws():
    # gen.random() can in principle return 0, mapping to x = -inf through the
    # quantile; membership must come back False without poisoning the batch.
    cfg = config("gaussian", 0.5, 1.0)
    xs = np.array([-np.inf, np.inf, 1.0])
    flags = credible_set_contains(cfg, xs, 2.0)
    assert not flags[0] and not flags[1]


# (law, lam, w, alpha, theta0, C, C-, C+, (frac_I, frac_II, frac_III, frac_IV)),
# recorded from the per-point scan that preceded the batched one.  They cover
# theta0 = 0 with and without an atom, theta0 inside the band, the dip, an
# atom threshold beyond the band edge (t_alpha > lam), lam = 0 and subexp.
# The first three are fixed by the atom/band rule; their C- and C+ are the
# closed form of the membership set split at theta0: the whole line
# (1/2, 1/2) or the empty set (0, 0).
PINNED = [
    ('gaussian', 0.5, 0.25, 0.05, 0.0, 1.0, 0.5, 0.5,
     (0.02290335056738199, 0.07647448244954866, 0.8163093127069486, 0.07647448244954866)),
    ('gaussian', 0.5, 1.0, 0.05, 0.0, 0.0, 0.0, 0.0,
     (0.0, 0.0, 0.0, 0.0)),
    ('laplace', 5.0, 1.0, 0.05, 3.0, 0.0, 0.0, 0.0,
     (0.0, 0.0, 0.0, 0.0)),
    ('laplace', 5.0, 1.0, 0.05, 9.7, 0.9272815549549688, 0.4748915298940164, 0.4523900250609524,
     (1.0000000000000002, 0.0, 0.0, 0.0)),
    ('laplace', 0.3, 0.02, 0.05, 0.4, 0.0, 0.0, 0.0,
     (0.0, 0.0, 0.0, 0.0)),
    ('laplace', 0.3, 0.25, 0.5, 0.8, 0.1125207347587005, 0.07954106204487504, 0.03297967271382546,
     (1.0000000000000004, 0.0, 0.0, 0.0)),
    ('laplace', 0.3, 0.25, 0.5, -1.6, 0.3219983513421707, 0.12768280389774866, 0.19431554744442203,
     (1.0000000000000002, 0.0, 0.0, 0.0)),
    ('gaussian', 0.0, 1.0, 0.05, 1.3, 0.9499999999994663, 0.47500000000358344, 0.4749999999958828,
     (0.23709375796622256, 0.0, 0.7629062420337775, 0.0)),
    ('t3', 0.0, 0.5, 0.05, -2.2, 0.9429852969206338, 0.46806643620390254, 0.47491886071673123,
     (0.17998252728223613, 0.0, 0.8200174727177636, 0.0)),
    ('subexp:0.5', 5.0, 1.0, 0.05, 7.0, 0.9441458521457228, 0.46791630706080767, 0.47622954508491505,
     (0.009787692232301784, 0.03896210062618377, 0.9512502071415141, 0.0)),
    ('subexp:0.5', 0.5, 0.25, 0.05, 0.9, 0.948729589602948, 0.4738500224458323, 0.47487956715711566,
     (0.0017461617423105416, 0.0, 0.9982538382576891, 0.0)),
    ('t3', 5.0, 1.0, 0.05, 6.0, 0.9664033827886496, 0.4679351453043718, 0.49846823748427777,
     (0.09837804707072705, 0.8728802922126518, 0.028741660716621324, 0.0)),
    ('gaussian', 5.0, 0.125, 0.05, 5.3, 0.9630129415610433, 0.4673864485950791, 0.49562649296596417,
     (0.05716400678128268, 0.9428359932187175, 0.0, 0.0)),
]


@pytest.mark.parametrize("law, lam, w, alpha, theta0, c, c_minus, c_plus, fracs", PINNED)
def test_coverage_exact_pinned_values(law, lam, w, alpha, theta0, c, c_minus, c_plus, fracs):
    pt = coverage_exact(PriorConfig(parse_dist_spec(law), lam, w, alpha), theta0)
    assert pt.C == pytest.approx(c, abs=1e-10)
    assert pt.C_minus == pytest.approx(c_minus, abs=1e-10)
    assert pt.C_plus == pytest.approx(c_plus, abs=1e-10)
    got = [pt.fractions[k] for k in ("I", "II", "III", "IV")]
    assert got == pytest.approx(list(fracs), abs=1e-9)


@pytest.mark.parametrize("name, lam, w", [("gaussian", 0.5, 0.25), ("laplace", 5.0, 1.0), ("t3", 5.0, 0.5)])
def test_coverage_curve_matches_pointwise_on_mirrored_figure_grid(name, lam, w):
    # The curve scans its whole grid as one batch on a shared endpoint
    # table; every point must agree with the single-point scan.
    cfg = config(name, lam, w)
    grid = _coverage_grid(cfg.dist, lam, ALPHA, 4, True)
    assert 0.0 in grid
    rep = coverage_curve(cfg, grid)
    for i, theta0 in enumerate(grid):
        pt = coverage_exact(cfg, float(theta0))
        assert rep.C[i] == pytest.approx(pt.C, abs=1e-10)
        assert rep.C_minus[i] == pytest.approx(pt.C_minus, abs=1e-10)
        assert rep.C_plus[i] == pytest.approx(pt.C_plus, abs=1e-10)
        for k in ("I", "II", "III", "IV"):
            assert rep.fractions[k][i] == pytest.approx(pt.fractions[k], abs=1e-10)


def test_coverage_curve_chunked_matches_single_batch(monkeypatch):
    # Runs of a few theta0 scan on a grid each; C, C- and C+ of the exact
    # and one-sided scans agree with those of one run over the whole grid.
    cfg = config("laplace", 5.0, 1.0)
    grid = np.linspace(-12.0, 14.0, 40)
    above = grid[grid > 5.0]
    whole, whole_onesided = coverage_curve(cfg, grid), onesided_coverage_exact(cfg, above)
    sizes = []
    real_build_grid = scanning_mod.build_grid

    def counting_build_grid(*args):
        out = real_build_grid(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(scanning_mod, "build_grid", counting_build_grid)
    monkeypatch.setattr(coverage_mod, "_RUN", 6)
    chunked = coverage_curve(cfg, grid)
    assert len(sizes) > 2
    for a, b in ((whole.C, chunked.C), (whole.C_minus, chunked.C_minus), (whole.C_plus, chunked.C_plus)):
        assert np.max(np.abs(a - b)) <= 1e-10
    sizes.clear()
    onesided = onesided_coverage_exact(cfg, above)
    assert len(sizes) > 2
    assert np.max(np.abs(whole_onesided - onesided)) <= 1e-10


def test_exact_batch_keeps_input_order():
    cfg = config("gaussian", 0.5, 0.25)
    theta = np.array([3.1, -0.2, 0.0, 7.5, 1.4, -4.0])
    rows = coverage_mod._exact_batch(cfg, theta)
    order = np.argsort(theta)
    assert np.array_equal(rows[order], coverage_mod._exact_batch(cfg, theta[order]))
    assert rows[2, 0] == 1.0 and rows[1, 0] == 0.0
    with pytest.raises(ValueError):
        coverage_exact(cfg, math.nan)


@pytest.mark.parametrize("law, lam, w", [("gaussian", 0.5, 0.25), ("laplace", 5.0, 1.0)])
def test_exact_batch_without_fractions_is_the_first_three_columns(law, lam, w):
    # dip_search and check_coverage_bounds skip the regime fractions; their
    # C, C- and C+ are those of the full rows, bit for bit, negative theta0
    # (reflected rows) included.
    cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
    theta = np.array([-7.5, -2.0, 0.0, 1.4, 3.1, 9.0])
    full = coverage_mod._exact_batch(cfg, theta)
    assert np.array_equal(coverage_mod._exact_batch(cfg, theta, fractions=False), full[:, :3])
    assert coverage_mod._exact_batch(cfg, [], fractions=False).shape == (0, 3)


def _exact_sorted_per_theta0(cfg, ts, half, fractions=True):
    """The exact scan with each theta0's membership set found by a flag loop
    over its own window, the per-theta0 scan that crossing_cells replaced,
    its transitions of the combined flag refined by the same boundary solver
    on the combined margin min(U - t, t - L), not on each curve's own.  The theta0 that the atom/band rule fixes are not scanned:
    their set is the whole window (the atom) or empty (the band)."""
    cv, sc = coverage_mod, scanning_mod
    n_t = ts.size
    fixed, atom0 = hpd_mod._fixed_cover(cfg, ts)
    members = [[j, ts[j] - half, ts[j] + half] for j in np.flatnonzero(atom0)]
    live = np.flatnonzero(~fixed)
    if live.size:
        lv = ts[live]
        curves = lambda xs, rows=None: cv.endpoint_values(cfg, xs)
        grid = sc.build_grid(lv - half, lv + half, [cfg.lam, -cfg.lam, cfg.t_alpha, -cfg.t_alpha])
        grid, (upper, lower) = sc.graze_points(grid, curves(grid), lv, curves)
        i0 = np.searchsorted(grid, lv - half, "left")
        i1 = np.searchsorted(grid, lv + half, "right")
        start = np.zeros(lv.size, dtype=bool)
        cells = []
        for j in range(lv.size):
            f = (lower[i0[j]:i1[j]] <= lv[j]) & (lv[j] <= upper[i0[j]:i1[j]])
            start[j] = f[0]
            k = np.flatnonzero(f[1:] != f[:-1])
            cells.append((np.full(k.size, j), k + i0[j]))
        owner, cell = (np.concatenate(c) for c in zip(*cells))
        # The combined margin min(U - t, t - L), whose sign is the set's flag.
        level_margin = lambda u, l, t: np.minimum(u - t, t - l)
        g_lo, g_hi = (level_margin(upper[i], lower[i], lv[owner]) for i in (cell, cell + 1))
        margin = lambda xs, rows: level_margin(*curves(xs), lv[owner[rows]])
        cuts = sc.refine_boundaries(margin, grid[cell], grid[cell + 1], g_lo, g_hi, sc.BISECT_TOL)

        # Stretches between consecutive cuts, alternating from the start
        # flag; stretches of one theta0 that touch are merged.
        n_cut = np.bincount(owner, minlength=lv.size)
        first = np.cumsum(n_cut) - n_cut
        left = np.insert(cuts, first, lv - half)
        right = np.insert(cuts, first + n_cut, lv + half)
        group = np.repeat(np.arange(lv.size), n_cut + 1)
        pos = np.arange(group.size) - (first + np.arange(lv.size))[group]
        on = (start[group] ^ (pos % 2 == 1)) & (right > left)
        stretches = []
        for j, x, y in zip(live[group[on]], left[on], right[on]):
            if stretches and stretches[-1][0] == j and x <= stretches[-1][2] + 1e-15:
                stretches[-1][2] = y
            else:
                stretches.append([j, x, y])
        members = stretches + members

    owner, a, b = np.array(members, float).reshape(-1, 3).T
    owner = owner.astype(int)
    t = ts[owner]
    parts = interval_mass(cfg.dist, [np.maximum(a - t, 0.0), np.minimum(a - t, 0.0)], [np.maximum(b - t, 0.0), np.minimum(b - t, 0.0)])
    c_minus, c_plus = (np.where(atom0, 0.5, np.bincount(owner, weights=m, minlength=n_t)) for m in parts)
    total = c_minus + c_plus
    if not fractions:
        return np.column_stack([total, c_minus, c_plus])
    edges = np.linspace(a, b, 65, axis=-1)
    sub = interval_mass(cfg.dist, edges[:, :-1] - t[:, None], edges[:, 1:] - t[:, None]).ravel()
    codes = cv.regime_codes(cfg, (0.5 * (edges[:, :-1] + edges[:, 1:])).ravel())
    by_regime = np.bincount(np.repeat(owner, 64) * 5 + codes, weights=sub, minlength=5 * n_t)
    fracs = by_regime.reshape(n_t, 5)[:, 1:] / np.where(total > 0.0, total, 1.0)[:, None]
    return np.column_stack([total, c_minus, c_plus, fracs])


@pytest.mark.parametrize(
    "law, lam, w",
    [("gaussian", 0.5, 0.25), ("laplace", 5.0, 1.0), ("t3", 0.0, 0.5), ("subexp:0.5", 2.0, 0.125), ("gaussian", 0.0, 1.0)],
)
def test_exact_batch_matches_per_theta0_scan_bitwise(monkeypatch, law, lam, w):
    # The crossing counts must find exactly the cells the per-theta0 scan
    # found, so every output bit agrees; the grid holds 0 and +-lam.
    cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
    theta = np.concatenate([np.linspace(-lam - 6.0, lam + 9.0, 41), [0.0, lam, -lam, 0.0]])
    rows = coverage_mod._exact_batch(cfg, theta)
    monkeypatch.setattr(coverage_mod, "_exact_sorted", _exact_sorted_per_theta0)
    assert np.array_equal(rows, coverage_mod._exact_batch(cfg, theta))


def _flag_mass(cfg, theta0, xs):
    """Brute-force C(theta0) from credible_set_contains flags on the sorted
    grid xs, no scan: each run of member points x_i .. x_j counts as
    [x_i, x_j] (inner) or as [x_{i-1}, x_{j+1}] (outer), summed as
    interval_mass differences.  Up to member sets that fall between two grid
    points, the true C lies in [inner, outer]: outer - inner is the grid error."""
    flags = np.concatenate([[False], credible_set_contains(cfg, xs, theta0), [False]])
    first = np.flatnonzero(flags[1:-1] & ~flags[:-2])
    last = np.flatnonzero(flags[1:-1] & ~flags[2:])
    mass = lambda i, j: float(np.sum(interval_mass(cfg.dist, xs[i] - theta0, xs[j] - theta0)))
    return mass(first, last), mass(np.maximum(first - 1, 0), np.minimum(last + 1, xs.size - 1))


def test_thin_member_set_next_to_a_far_atom_threshold():
    # Just above t_alpha = 20.353 the radius is near 0, so U and L both cross
    # theta0 = t_alpha + e inside one grid cell: the member set is about
    # t_alpha + [0.8 e, 1.34 e], with both cell ends outside it.  The
    # reference grid is 2^19 steps over t_alpha + [0.5 e, 1.5 e], a geometric
    # search of t_alpha + [1e-12, 5] and a uniform one of the scan window;
    # its grid error outer - inner is at most 1.5e-9 (at e = 1e-3).
    cfg = PriorConfig(parse_dist_spec("t3"), 0.5, 1e-6, ALPHA)
    t, half = cfg.t_alpha, hpd_mod._half_width(cfg)
    for e, want in ((1e-7, 1.97944e-8), (1e-5, 1.97944e-6), (1e-3, 1.97911e-4)):
        theta0 = t + e
        near = np.concatenate([t + e * np.linspace(0.5, 1.5, 2**19 + 1), t + np.geomspace(1e-12, 5.0, 20001)])
        xs = np.unique(np.concatenate([near, theta0 + np.linspace(-half, half, 20001)]))
        inner, outer = _flag_mass(cfg, theta0, xs)
        c = coverage_exact(cfg, theta0).C
        assert outer - inner <= 1.5e-9
        assert abs(c - 0.5 * (inner + outer)) <= 1e-9
        assert c == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_scan_loses_no_member_set_above_the_atom_threshold(law):
    # theta0 = t_alpha + 10^k, k = -9 .. 0: the inner flag mass on a grid of
    # relative step 1e-3 from t_alpha (plus the scan window at its own step)
    # is a lower bound of C, so it may not exceed the scan's C.  A member set
    # lost inside one cell shows here from k = -8 on (t3 at k = -3 lost 2e-4).
    for w in (1e-6, 1e-4, 1e-2):
        cfg = PriorConfig(parse_dist_spec(law), 0.5, w, ALPHA)
        t, half = cfg.t_alpha, hpd_mod._half_width(cfg)
        ts = t + 10.0 ** np.arange(-9.0, 1.0)
        c = coverage_mod._exact_batch(cfg, ts, fractions=False)[:, 0]
        for theta0, c_scan in zip(ts, c):
            xs = np.unique(np.concatenate([t + np.geomspace(1e-12, 5.0, 30001), theta0 + np.linspace(-half, half, 10001)]))
            inner, _ = _flag_mass(cfg, theta0, xs)
            assert inner - c_scan <= 1e-9, (w, theta0 - t, inner, c_scan)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("w", [1.0, 0.125])
def test_exact_batch_mirrors_negative_theta0(law, lam, w):
    # The batch scans |theta0| and reads -theta0 off by reflection; the
    # unfolded scan of the negative targets themselves must agree in all
    # seven columns, with a duplicate and -0.0 among them.  The targets put
    # mass on one band-edge regime (gaussian lam 0.5, w 0.125 at -2.5 has
    # frac_IV 0.276), so dropping either swap fails here.
    cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
    theta = np.array([-(lam + 6.0), -2.5, -(lam + 1.7), -2.5, -(lam + 0.3), -0.0, -lam / 2.0])
    got = coverage_mod._exact_batch(cfg, theta)
    uniq, inv = np.unique(theta, return_inverse=True)
    want = coverage_mod._exact_sorted(cfg, uniq, coverage_mod._half_width(cfg))[inv]
    assert np.max(np.abs(got - want)) <= 1e-10
    if lam > 0.0:
        assert np.max(np.abs(want[:, 4] - want[:, 6])) > 1e-3
    if w < 1.0 or lam > 0.0:
        assert np.max(np.abs(want[:, 1] - want[:, 2])) > 1e-4


def _grid_sizes(monkeypatch, run, counts):
    sizes = []
    real = scanning_mod.build_grid

    def counting_build_grid(*args):
        out = real(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(scanning_mod, "build_grid", counting_build_grid)
    out = []
    for n in counts:
        sizes.clear()
        run(n)
        out.append(list(sizes))
    return out


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_scan_grid_grows_by_window_edges_not_dense_blocks(monkeypatch, law):
    # U and L do not depend on theta0: scanning 60 targets instead of 6 over
    # the same span adds only each new window's two edges to the grid, never
    # a special's ladder.
    cfg = PriorConfig(parse_dist_spec(law), 5.0, 1.0, ALPHA)
    theta = lambda n: np.linspace(5.5, 13.0, n)
    exact = _grid_sizes(monkeypatch, lambda n: coverage_mod._exact_batch(cfg, theta(n)), (6, 60))
    onesided = _grid_sizes(monkeypatch, lambda n: onesided_coverage_exact(cfg, theta(n)), (6, 60))
    for (few,), (many,) in (exact, onesided):
        assert 0 <= many - few <= 2 * (60 - 6)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
@pytest.mark.parametrize("lam", [0.5, 5.0])
def test_figure_curve_grid_does_not_grow_with_span(monkeypatch, law, lam):
    # One batch of a figure-1 curve places N_BASE points over the union of
    # its windows: past that only the four ladders (+-lam, +-t_alpha) and
    # two window edges per theta0 remain, however wide the theta0 span
    # (gaussian lam 0.5 at --fig-grid-n 4 scanned 19,452 points when every
    # window set its own step).  A ladder has at most 26 rungs, 13 a side
    # out to BISECT_TOL 8^11 = 8.6, past any step of these unions.
    for w in (1.0, 0.25):
        cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
        grid = lambda n: _coverage_grid(cfg.dist, lam, ALPHA, n, True)
        sizes = _grid_sizes(monkeypatch, lambda n: coverage_curve(cfg, grid(n)), (4, 40))
        for n, (size,) in zip((4, 40), sizes):
            assert size <= scanning_mod.N_BASE + 4 * (26 + 1) + 2 * grid(n).size + 4


def test_grid_step_cap_does_not_bind_on_benchmark_batches(monkeypatch):
    # The figure-1 curves at --fig-grid-n 4 (three laws, lam 0.5 and 5, the
    # w sweep) and the laplace lam 5 bounds report on 5.5:12:8 scan every
    # grid at step U / (N_BASE - 1), U the union's length, exactly as with
    # no cap on the step (reach = inf).
    calls = []
    real_build_grid = scanning_mod.build_grid

    def checking_build_grid(lo, hi, specials, reach=None):
        out = real_build_grid(lo, hi, specials, reach)
        calls.append(np.array_equal(out, real_build_grid(lo, hi, specials, math.inf)))
        return out

    monkeypatch.setattr(scanning_mod, "build_grid", checking_build_grid)
    for law in ("gaussian", "laplace", "t3"):
        for lam in (0.5, 5.0):
            grid = _coverage_grid(dist(law), lam, ALPHA, 4, True)
            for w in (0.125, 0.25, 0.5, 1.0):
                coverage_curve(config(law, lam, w), grid)
    check_coverage_bounds(config("laplace", 5.0, 1.0), np.linspace(5.5, 12.0, 8))
    assert len(calls) > 24 and all(calls)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
@pytest.mark.parametrize("lam", [0.5, 2.0, 5.0])
def test_onesided_coverage_array_matches_scalar(law, lam):
    # Unsorted, with a duplicate and a target below the band edge; values
    # come back in input order and agree with one scan per theta0.
    cfg = PriorConfig(parse_dist_spec(law), lam, 1.0, ALPHA)
    theta = lam + np.array([4.0, 0.3, 7.5, 0.3, -0.5, 1.6])
    got = onesided_coverage_exact(cfg, theta)
    assert isinstance(got, np.ndarray) and got.shape == theta.shape
    assert got[1] == got[3]
    want = [onesided_coverage_exact(cfg, float(t)) for t in theta]
    assert all(isinstance(v, float) for v in want)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
@pytest.mark.parametrize("lam", [0.5, 5.0])
@pytest.mark.parametrize("w", [1.0, 0.25])
def test_sparse_wide_batch_matches_one_scan_per_theta0(monkeypatch, law, lam, w):
    # theta0 two units apart over [-40, 40] span many windows, so the batch
    # grid is coarser per window than the one-window grid of each scalar
    # call; the crossings are refined to bisect_tol either way.  theta0 1400
    # apart leave every one-sided t3 window (1,305 wide, member sets about
    # 7) on its own piece: charged by window width, 32 of them would share
    # one grid at step ~10 and lose every member set (C off by 0.95), as
    # would 121 windows sharing 256 points if the chunk budget did not
    # shrink the union with N_BASE (here cut to 256).
    cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
    cases = [(np.linspace(-40.0, 40.0, 41) + 0.137, scanning_mod.N_BASE),
             (6.137 + 1400.0 * np.arange(12), scanning_mod.N_BASE),
             (np.linspace(-3000.0, 3000.0, 121) + 0.11, 256)]
    for theta, n_base in cases:
        monkeypatch.setattr(scanning_mod, "N_BASE", n_base)
        rows = coverage_mod._exact_batch(cfg, theta)
        for row, t in zip(rows, theta):
            pt = coverage_exact(cfg, float(t))
            assert np.max(np.abs(row[:3] - [pt.C, pt.C_minus, pt.C_plus])) <= 1e-10
        if w == 1.0:
            got = onesided_coverage_exact(cfg, theta)
            assert np.max(np.abs(got - [onesided_coverage_exact(cfg, float(t)) for t in theta])) <= 1e-10


# (law, lam, w, theta0 for coverage_mc, (C, se), theta0 grid, curve rows
# (C, C-, C+, frac_I..frac_IV)), recorded at seed MC_PIN_SEED with
# MC_PIN_N draws from the evaluator that computed every radius at every x.
# A faster endpoint or sampler path must reproduce every draw's verdict.
# At the theta0 the atom/band rule fixes (gaussian 0.0 and 0.3, laplace 0.0,
# t3 0.2, subexp 0.0) C- is the share of draws with x >= theta0 when the atom
# covers every draw and 0 when the band covers none
# (test_monte_carlo_fixed_cover_split recounts it).
MC_PIN_N = (1 << 16) + 1000
MC_PIN_SEED = 2024
MC_PINNED = [
    ('gaussian', 0.5, 0.25, 1.5, (0.9299927858602861, 0.0009891971204315495),
     [0.0, 0.3, 1.0, 2.5],
     [
         (1.0, 0.498632319345918, 0.501367680654082, 0.031321389924251535, 0.07341890104605026, 0.8213147769628472, 0.07394493206685103),
         (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
         (0.9313003486834195, 0.4701514969339906, 0.4611488517494289, 0.10313886871621077, 0.2606632776567417, 0.6361978536270475, 0.0),
         (0.9354785379343513, 0.47428459781171095, 0.46119394012264037, 0.6550616133541121, 0.25663930080490976, 0.0882990858409781, 0.0),
     ]),
    ('laplace', 5.0, 1.0, 6.5, (0.9725411807141998, 0.0006335291247260274),
     [-6.0, 0.0, 6.5, 9.0],
     [
         (0.9694751713358182, 0.49827161236022605, 0.4712035589755922, 0.10256569258197039, 0.0, 0.0074722889698472985, 0.8899620184481823),
         (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
         (0.9725411807141998, 0.47138391246843814, 0.5011572682457617, 0.19236891313418536, 0.8035358296372993, 0.004095257228515353, 0.0),
         (0.930624023085247, 0.4741192737766021, 0.45650474930864493, 0.946156330749354, 0.053843669250645994, 0.0, 0.0),
     ]),
    ('t3', 0.5, 1.0, 1.0, (0.947937958398461, 0.0008612360695067422),
     [-1.0, 0.2, 1.0, 3.0],
     [
         (0.9473668390044487, 0.4754268365997355, 0.47194000240471323, 0.022575118190183076, 0.0, 0.9354475362502777, 0.041977345559539296),
         (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
         (0.947937958398461, 0.46976073103282434, 0.47817722736563667, 0.02317985794013191, 0.04179350583460172, 0.9350266362252664, 0.0),
         (0.956865456294337, 0.4733828303474811, 0.4834826259468558, 0.3747212012691232, 0.22431124933245375, 0.400967549398423, 0.0),
     ]),
    ('subexp:0.5', 2.0, 0.5, 3.0, (0.9477726343633521, 0.0008625271977953812),
     [0.0, 2.5, 4.0, 7.0],
     [
         (1.0, 0.498632319345918, 0.501367680654082, 0.047718528315498374, 0.005004809426475893, 0.9418059396416977, 0.005470722616328003),
         (0.9475321630395576, 0.47052723337741975, 0.4770049296621378, 0.0015385835514315173, 0.007359822349115711, 0.9911015940994528, 0.0),
         (0.9481934591799928, 0.47111338222916915, 0.4770800769508236, 0.00737054003075021, 0.008274025582906687, 0.9843554343863431, 0.0),
         (0.9491403150174341, 0.4719550318624504, 0.47718528315498376, 0.020300228021281987, 0.01255700532049658, 0.9671427666582214, 0.0),
     ]),
]


@pytest.mark.parametrize("law, lam, w, theta_mc, mc, grid, rows", MC_PINNED)
def test_monte_carlo_pinned_values(law, lam, w, theta_mc, mc, grid, rows):
    cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
    assert coverage_mc(cfg, theta_mc, MC_PIN_N, MC_PIN_SEED) == mc
    rep = coverage_curve(cfg, grid, method="mc", n=MC_PIN_N, seed=MC_PIN_SEED, threads=1)
    got = np.column_stack([rep.C, rep.C_minus, rep.C_plus, *(rep.fractions[k] for k in ("I", "II", "III", "IV"))])
    assert np.array_equal(got, np.array(rows))


@pytest.mark.parametrize("law, lam, w, theta_mc, mc, grid, rows", MC_PINNED)
def test_monte_carlo_fixed_cover_split(law, lam, w, theta_mc, mc, grid, rows):
    # The pinned C- of a fixed-cover theta0, counted straight off the sampler.
    cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
    fixed, covered = hpd_mod._fixed_cover(cfg, np.array(grid))
    assert fixed.any()
    for theta0, row, cov in zip(np.array(grid)[fixed], np.array(rows)[fixed], covered[fixed]):
        above = sum(np.count_nonzero(x >= theta0) for x, _ in mc_draws(cfg.dist, theta0, MC_PIN_N, MC_PIN_SEED))
        count = above if cov else 0
        assert tuple(row[:3]) == (float(cov), count / MC_PIN_N, (MC_PIN_N * cov - count) / MC_PIN_N)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("w", [1.0, 0.25])
def test_coverage_is_sum_of_split_everywhere(law, lam, w):
    # C- and C+ split one membership set at x = theta0, fixed-cover theta0
    # (the atom at 0, the band) included.
    cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
    theta = np.array([0.0, -0.0, lam / 2.0, -lam / 2.0, lam, lam + 3.0])
    rows = coverage_mod._exact_batch(cfg, theta)
    assert np.max(np.abs(rows[:, 0] - rows[:, 1] - rows[:, 2])) <= 1e-15
    n = 4000
    for theta0 in theta:
        row = coverage_mod._mc_point(cfg, theta0, n, 17)
        assert row.shape == rows[0].shape
        counts = np.rint(row[:3] * n)
        assert np.array_equal(counts / n, row[:3])
        assert counts[0] == counts[1] + counts[2]


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("w", [1.0, 0.25])
def test_level_membership_matches_hpd_contains(law, lam, w):
    # Monte Carlo reads theta0 in HPD(x) as G(-|Z|) >= q(x) from each draw's
    # uniform; credible_set_contains (L <= theta0 <= U, the membership test
    # with the roles of x and theta0 swapped) is the reference.  The last
    # theta0 puts draws far left of the band, where the signed r2 of
    # hpd_radii leaves (0, 1) in its tail level and is infinite.
    cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
    for theta0 in (lam, -lam, lam + 0.3, lam + 3.0, -lam - 1.1):
        if hpd_mod._fixed_cover(cfg, theta0)[0]:
            continue
        for x, u in mc_draws(cfg.dist, theta0, 20_000, 29):
            flags, codes = coverage_mod._draw_flags(cfg, x, u)
            assert np.array_equal(flags, credible_set_contains(cfg, x, theta0))
            assert np.array_equal(codes, endpoints(cfg, x)[2])
            assert 0 < np.count_nonzero(flags) < x.size
        if theta0 < -lam:
            assert np.isinf(hpd_radii(cfg, x)[1]).any()


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_coverage_mc_calls_the_quantile_once_per_draw(monkeypatch, law):
    # The quantile makes each draw and nothing else: membership takes the
    # draw's tail mass from its uniform instead of forming a radius.
    cfg = PriorConfig(parse_dist_spec(law), 0.5, 0.25, ALPHA)
    cfg.t_alpha  # the atom threshold (a cached property) is solved before counting
    seen = []
    real = type(cfg.dist).ppf
    monkeypatch.setattr(type(cfg.dist), "ppf", lambda self, p: seen.append(np.size(p)) or real(self, p))
    n = (1 << 16) + 1000
    for theta0 in (1.5, 0.0, -0.2):
        seen.clear()
        coverage_mc(cfg, theta0, n, 3)
        # Inside the band, off the atom, nothing covers theta0: no draw is made.
        assert sum(seen) == (0 if theta0 == -0.2 else n)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_conditional_coverage_mc_makes_no_quantile_call(monkeypatch, law):
    # Selection and coverage are both read off the uniforms: the draws x
    # themselves are never formed.
    cfg = PriorConfig(parse_dist_spec(law), 0.5, 1.0, ALPHA)
    seen = []
    real = type(cfg.dist).ppf
    monkeypatch.setattr(type(cfg.dist), "ppf", lambda self, p: seen.append(np.size(p)) or real(self, p))
    for theta0 in (1.5, 0.0, -2.0):
        conditional_coverage_mc(cfg, theta0, (1 << 16) + 1000, 3)
    assert seen == []


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_conditional_selection_in_u_space_matches_the_draws(law):
    # u <= G(-lam - theta0) or u >= G(lam - theta0) selects the same draws
    # as |theta0 + G^{-1}(u)| >= lam on the same seeded stream, and the
    # covered count is the level test on those draws.
    d = parse_dist_spec(law)
    n = (1 << 16) + 1000
    for lam in (0.0, 0.5, 2.0, 5.0):
        cfg = PriorConfig(d, lam, 1.0, ALPHA)
        for theta0 in (-lam - 1.0, -0.3, 0.0, lam, lam + 2.0):
            q = hpd_mod._levels(cfg, np.array([theta0]))[0][0]
            kept = covered = 0
            for x, u in mc_draws(d, theta0, n, 41):
                sel = np.abs(x) >= lam
                kept += np.count_nonzero(sel)
                covered += np.count_nonzero(sel & (np.minimum(u, 1.0 - u) >= q))
            if kept == 0:
                with pytest.raises(RuntimeError, match="selection event"):
                    conditional_coverage_mc(cfg, theta0, n, 41)
                continue
            c_hat, _, rate = conditional_coverage_mc(cfg, theta0, n, 41)
            assert (c_hat, rate) == (covered / kept, kept / n)


@pytest.mark.parametrize("law, lam, w", [("gaussian", 0.5, 0.25), ("t3", 5.0, 1.0), ("subexp:0.5", 2.0, 0.5)])
def test_mc_curve_rows_equal_per_point_at_any_thread_count(monkeypatch, law, lam, w):
    # Each point draws its own seeded stream, so a curve's rows at one, two
    # and (more workers than cores, with a short switch interval) five
    # threads are the one-point curves and coverage_mc, bit for bit.
    monkeypatch.setenv("HPD_THREADS", "5")
    cfg = PriorConfig(parse_dist_spec(law), lam, w, ALPHA)
    grid = np.array([-lam - 1.0, 0.0, lam / 2.0, lam, lam + 0.7, lam + 3.0])
    n = 3 * (1 << 16) + 5
    cols = lambda rep: np.column_stack([rep.C, rep.C_minus, rep.C_plus, *rep.fractions.values()])
    one = [cols(coverage_curve(cfg, [t], method="mc", n=n, seed=8, threads=1))[0] for t in grid]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 2, 5):
            assert np.array_equal(cols(coverage_curve(cfg, grid, method="mc", n=n, seed=8, threads=threads)), one)
    finally:
        sys.setswitchinterval(interval)
    assert [coverage_mc(cfg, t, n, 8)[0] for t in grid] == [row[0] for row in one]


@pytest.mark.parametrize("call", [
    lambda cfg, n, seed: coverage_mc(cfg, 2.0, n, seed),
    lambda cfg, n, seed: coverage_mc(cfg, 0.5, n, seed),  # in the band: no draw, still checked
    lambda cfg, n, seed: coverage_curve(cfg, [2.0, 3.0], method="mc", n=n, seed=seed).C.tolist(),
    lambda cfg, n, seed: conditional_coverage_mc(cfg, 1.5, n, seed),
], ids=["coverage_mc", "coverage_mc_in_band", "mc_curve", "conditional"])
def test_monte_carlo_refuses_bad_draw_arguments(call):
    # A float draw count once failed inside SeedSequence.spawn with a
    # TypeError, and a negative seed with a message that did not name it.
    cfg = config("laplace", 1.0, 1.0)
    for n, seed, name in ((1e5, 0, "n"), (0, 0, "n"), (-1, 0, "n"), (100_000, -1, "seed"),
                          (100_000, 2.0, "seed"), (100_000, True, "seed"), (100_000, None, "seed")):
        low = 1 if name == "n" else 0
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, got {(n, seed)[name == 'seed']!r}$"):
            call(cfg, n, seed)
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got True$"):
        coverage_curve(cfg, [2.0], method="mc", n=True, seed=0)
    assert call(cfg, np.int64(20_000), np.uint32(3)) == call(cfg, 20_000, 3)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_coverage_mc_makes_one_lower_tail_call_per_block(monkeypatch, law):
    # The level stage evaluates each block's two tail rows in one lower_tail
    # call and makes no CDF call, at an open and at an atom-covered theta0.
    cfg = PriorConfig(parse_dist_spec(law), 0.5, 0.25, ALPHA)
    cfg.t_alpha
    seen = {"cdf": [], "lower_tail": []}
    for kind, real in [(k, getattr(type(cfg.dist), k)) for k in seen]:
        counted = lambda self, v, _kind=kind, _real=real: seen[_kind].append(np.shape(v)) or _real(self, v)
        monkeypatch.setattr(type(cfg.dist), kind, counted)
    for theta0 in (1.5, 0.0):
        coverage_mc(cfg, theta0, (1 << 16) + 1000, 3)
        assert seen == {"cdf": [], "lower_tail": [(2, 1 << 16), (2, 1000)]}
        seen["lower_tail"].clear()


# 2^16 + 3 draws: one sampler block at the default size, then a 3-draw block
# that the t3 and subexp quantiles run on their element-by-element path.
BLOCK_N = (1 << 16) + 3


@pytest.mark.parametrize("law", ["gaussian", "t3", "subexp:0.5"])
@pytest.mark.parametrize("w", [1.0, 0.25])
def test_monte_carlo_independent_of_block_size(monkeypatch, law, w):
    # theta0 = 0 is a fixed-cover target: inside the band at w = 1, the atom at w < 1
    cfg = PriorConfig(parse_dist_spec(law), 1.0, w, ALPHA)
    thetas = (1.5, 0.0)
    want = np.array([coverage_mod._mc_point(cfg, t, BLOCK_N, 5) for t in thetas])
    cond = w == 1.0

    def conditional():
        # The conditional check draws in sampler chunks of 2^16, so its
        # 3-draw tail is a chunk of its own.
        with monkeypatch.context() as m:
            m.setattr(distributions_mod, "_CHUNK", 1 << 16)
            return [conditional_coverage_mc(cfg, t, BLOCK_N, 5) for t in thetas]

    if cond:
        want_cond = conditional()
    for block in (1000, 1 << 14, 1 << 20):
        monkeypatch.setattr(distributions_mod, "_BLOCK", block)
        assert np.array_equal([coverage_mod._mc_point(cfg, t, BLOCK_N, 5) for t in thetas], want)
        if cond:
            assert conditional() == want_cond


@pytest.mark.parametrize("law", ["gaussian", "t3"])
def test_monte_carlo_peak_memory(law):
    # Blocks of 2^16 draws keep every temporary small; on whole 2^20-draw
    # chunks coverage_mc peaked at 90-97 MiB and the conditional check at
    # 17-25 MiB.  The conditional check holds an 8 MiB chunk of uniforms and
    # its block temporaries (9.1 MiB measured); a 10-point curve on one
    # thread holds one point's draws at a time (15.7 MiB for t3).
    cfg = PriorConfig(parse_dist_spec(law), 1.0, 1.0, ALPHA)
    n = (1 << 20) + (1 << 16)
    grid = np.linspace(1.5, 6.0, 10)
    for call, cap in ((lambda: coverage_mc(cfg, 1.5, n, 3), 32),
                      (lambda: conditional_coverage_mc(cfg, 1.5, n, 3), 11),
                      (lambda: coverage_curve(cfg, grid, method="mc", n=n, seed=3, threads=1), 32)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap * 2**20


@pytest.mark.parametrize(
    "law, lam, ws",
    [
        ("laplace", 0.5, (1e-6, 0.25, 1.0, 0.125)),  # atom configs with different t_alpha beside w = 1
        ("gaussian", 0.0, (0.5, 1.0)),  # theta0 = 0 is open at w = 1 and fixed by the atom at w < 1
        ("t3", 5.0, (1.0, 0.25)),
    ],
)
def test_column_batch_matches_per_config_scans(law, lam, ws):
    # One scan serves every w of one law and lambda: each config's rows equal
    # its own scan at every theta0 (negative ones, 0, +-lam and two far
    # theta0 whose windows overlap no other), bit for bit where the atom/band
    # rule fixes the row and within 1e-10 where the shared solve moves a cut.
    # The batch's t_alpha come from one solve, bit for bit each config's own.
    from hpdcover.posterior import _with_w, atom_threshold

    cfgs = [PriorConfig(parse_dist_spec(law), lam, w, ALPHA) for w in ws]
    theta = np.sort(np.concatenate([np.linspace(-lam - 6.0, lam + 9.0, 23), [0.0, lam, -lam, lam + 60.0, -lam - 90.0]]))
    reports = coverage_mod._coverage_curves(cfgs, theta)
    batched = atom_threshold(_with_w(cfgs[0], np.array(ws)[:, None]))
    for cfg, rep, t_alpha in zip(cfgs, reports, batched):
        assert np.float64(cfg.t_alpha).tobytes() == t_alpha.tobytes()
        got = np.column_stack([rep.C, rep.C_minus, rep.C_plus, *rep.fractions.values()])
        want = coverage_mod._exact_batch(cfg, theta)
        fixed = hpd_mod._fixed_cover(cfg, theta)[0]
        assert np.array_equal(got[fixed], want[fixed])
        assert np.max(np.abs(got - want)) <= 1e-10


def test_column_endpoint_rows_match_their_configs_where_the_slab_share_underflows():
    # Deep in a wide gaussian band s = G(|x| - lam) + G(-lam - |x|) underflows
    # to 0; a w = 1 row of a column config must still never read ATOM there,
    # and every row equals its own config's endpoint pass bit for bit.
    from hpdcover.posterior import _with_w

    ws = (0.5, 1.0, 1e-6)
    cfgs = [PriorConfig(parse_dist_spec("gaussian"), 40.0, w, ALPHA) for w in ws]
    xs = np.linspace(-50.0, 50.0, 2001)
    assert np.any(hpd_mod.tail_levels(cfgs[1], np.abs(xs))[0] == 0.0)
    upper, lower, codes = hpd_mod.endpoints(_with_w(cfgs[0], np.array(ws)[:, None]), xs)
    assert upper.shape == (len(ws), xs.size)
    for k, cfg in enumerate(cfgs):
        want = hpd_mod.endpoints(cfg, xs)
        assert all(np.array_equal(v[k], ref, equal_nan=True) for v, ref in zip((upper, lower, codes), want))
    assert not np.any(codes[1] == Regime.ATOM)
