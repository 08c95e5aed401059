import numpy as np
import pytest

from hpdcover import (
    PriorConfig,
    conditional_coverage_exact,
    conditional_coverage_mc,
    credible_set_contains,
    hpd_set,
    interval_mass,
    post_selection_set,
)
from hpdcover import distributions as distributions_mod
from hpdcover.cli import parse_dist_spec

from conftest import config


def test_requires_pure_slab_and_selection():
    with pytest.raises(ValueError):
        post_selection_set(config("laplace", 0.5, 0.25), 3.0)
    with pytest.raises(ValueError):
        post_selection_set(config("laplace", 0.5, 1.0), 0.3)
    with pytest.raises(ValueError):
        conditional_coverage_mc(config("laplace", 0.5, 0.25), 2.0, 10**5, seed=0)
    with pytest.raises(ValueError):
        conditional_coverage_mc(config("laplace", 0.5, 1.0), 2.0, 0, seed=0)


@pytest.mark.parametrize("theta0", [np.nan, np.inf, -np.inf])
def test_conditional_coverage_refuses_a_non_finite_theta0(theta0):
    # The error names the argument the caller passed, not hpd_set's x.
    with pytest.raises(ValueError, match=r"^theta0 must be finite, got"):
        conditional_coverage_mc(config("laplace", 1.0, 1.0), theta0, 20000, seed=0)
    with pytest.raises(ValueError, match=r"^theta0 must be finite, got"):
        conditional_coverage_exact(config("laplace", 1.0, 1.0), theta0)
    with pytest.raises(ValueError, match="w = 1"):
        conditional_coverage_exact(config("laplace", 1.0, 0.5), 2.0)


def test_degenerate_band_gives_shift_interval():
    # lam = 0: the credible set is x +- q, so the inverted set is theta0 +- q.
    cfg = config("gaussian", 0.0, 1.0)
    q = float(cfg.dist.ppf(0.975))
    ps = post_selection_set(cfg, 1.2)
    assert len(ps.intervals) == 1
    a, b = ps.intervals[0]
    assert a == pytest.approx(1.2 - q, abs=1e-8)
    assert b == pytest.approx(1.2 + q, abs=1e-8)


def test_inverted_set_matches_brute_force_membership():
    cfg = config("laplace", 0.5, 1.0)
    x = 3.0
    ps = post_selection_set(cfg, x)
    thetas = np.arange(x - 8.0, x + 8.0, 1e-4)
    member = credible_set_contains(cfg, thetas, x)
    inside = np.zeros(thetas.shape, dtype=bool)
    for a, b in ps.intervals:
        inside |= (thetas >= a) & (thetas <= b)
    # agreement away from interval endpoints, up to grid resolution
    edge = np.zeros(thetas.shape, dtype=bool)
    for a, b in ps.intervals:
        edge |= (np.abs(thetas - a) < 2e-4) | (np.abs(thetas - b) < 2e-4)
    assert np.array_equal(member[~edge], inside[~edge])


@pytest.mark.parametrize("law, lam", [("gaussian", 8.0), ("laplace", 20.0)])
def test_post_selection_set_reaches_past_the_coverage_half_width(law, lam):
    # PS(lam) runs from about -0.23 (gaussian) or -1.83 (laplace) to above
    # lam, farther below x = lam than the coverage scan's half-width
    # G^{-1}(1 - 5e-10) (6.11 for the gaussian), which used to cut its
    # window there.  The dense reference flags span x +- 30, with no member
    # at either end; each end of PS(x) lies within one step of its run.
    cfg = PriorConfig(parse_dist_spec(law), lam, 1.0, 0.05)
    x, step = lam, 1e-4
    ps = post_selection_set(cfg, x)
    thetas = x + np.arange(-300000, 300001) * step
    flags = np.concatenate([[False], credible_set_contains(cfg, thetas, x), [False]])
    assert not flags[1] and not flags[-2]
    first = thetas[np.flatnonzero(flags[1:-1] & ~flags[:-2])]
    last = thetas[np.flatnonzero(flags[1:-1] & ~flags[2:])]
    a, b = np.array(ps.intervals).T
    assert a.size == first.size and a[0] < x - 6.2
    assert np.all((first - step <= a) & (a <= first)) and np.all((last <= b) & (b <= last + step))


def test_credible_set_contains_applies_the_band():
    # x = 0.5 lies inside the band |x| < lam = 1, which no credible set
    # covers, so x is in CS(theta) for no theta, though L(theta) <= x <=
    # U(theta) holds at 0.5, 0.6 and 2.0.  Outside the band the indicator
    # is still the interval test.
    cfg = config("laplace", 1.0, 1.0)
    thetas = np.array([0.5, 0.6, 2.0])
    assert not np.any(credible_set_contains(cfg, thetas, 0.5))
    assert not any(hpd_set(cfg, float(th)).contains(0.5) for th in thetas)
    got = credible_set_contains(cfg, thetas, 1.5)
    assert got.tolist() == [hpd_set(cfg, float(th)).contains(1.5) for th in thetas]
    assert got.any()


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_credible_set_contains_refuses_a_non_finite_point(x):
    # A non-finite x once read as a member of no CS(theta), without a word.
    with pytest.raises(ValueError, match=r"^x must be finite, got"):
        credible_set_contains(config("laplace", 2.0, 1.0), np.array([1.0, 3.0]), x)


def test_membership_duality():
    # theta in PS(x) exactly when x falls in the credible set built at theta.
    cfg = config("laplace", 0.5, 1.0)
    rng = np.random.default_rng(8)
    xs = rng.uniform(0.5, 6.0, 40) * rng.choice([-1.0, 1.0], 40)
    for x in xs:
        ps = post_selection_set(cfg, float(x))
        thetas = rng.uniform(x - 6.0, x + 6.0, 25)
        for th in thetas:
            near_edge = any(
                min(abs(th - a), abs(th - b)) < 1e-7 for a, b in ps.intervals
            )
            if near_edge:
                continue
            direct = bool(credible_set_contains(cfg, float(th), float(x))[0])
            assert ps.contains(float(th)) == direct


def test_dual_predicate_matches_set_assembly():
    cfg = config("gaussian", 0.5, 1.0)
    theta0 = 2.0
    cs = hpd_set(cfg, theta0)
    xs = np.linspace(-4.0, 8.0, 2001)
    via_intervals = np.zeros(xs.shape, dtype=bool)
    for a, b in cs.intervals:
        via_intervals |= (xs >= a) & (xs <= b)
    assert np.array_equal(credible_set_contains(cfg, theta0, 0.0).shape, (1,))
    direct = np.array([cs.contains(float(v)) for v in xs])
    assert np.array_equal(via_intervals, direct)


def test_conditional_coverage_unconditional_limit():
    cfg = config("laplace", 0.0, 1.0)
    c_hat, se, acc = conditional_coverage_mc(cfg, 1.0, 10**5, seed=21)
    assert acc == 1.0
    assert abs(c_hat - 0.95) <= 3.0 * se


def test_conditional_coverage_at_least_nominal():
    cfg = config("laplace", 0.5, 1.0)
    for theta0, seed in [(2.0, 31), (0.6, 32)]:
        c_hat, se, acc = conditional_coverage_mc(cfg, theta0, 10**5, seed=seed)
        assert 0.0 < acc <= 1.0
        assert c_hat >= 0.95 - 3.0 * se


def test_conditional_coverage_is_exactly_nominal_in_law():
    # Conditioned on selection, X has the same renormalized-slab law the
    # posterior assigns to theta, so the coverage equals 1 - alpha exactly;
    # check two-sidedly at 4 standard errors.
    cfg = config("gaussian", 0.5, 1.0)
    c_hat, se, _ = conditional_coverage_mc(cfg, 1.5, 2 * 10**5, seed=77)
    assert abs(c_hat - 0.95) <= 4.0 * se


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_exact_conditional_coverage_is_one_minus_alpha(law):
    # The identity behind the post-selection set, with no sampling: at w = 1,
    # P(X in CS(theta0) | |X| >= lam) = 1 - alpha for X = theta0 + Z, the
    # interval masses of CS(theta0) (band-free already) over P(|X| >= lam).
    d = parse_dist_spec(law)
    for lam in (0.5, 2.0, 5.0):
        for alpha in (0.05, 0.01):
            cfg = PriorConfig(d, lam, 1.0, alpha)
            for theta0 in (-lam - 1.0, 0.3 * lam, lam, lam + 0.5, lam + 3.0):
                a, b = np.array(hpd_set(cfg, theta0).intervals).T
                hit = float(np.sum(interval_mass(d, a - theta0, b - theta0)))
                selected = float(d.cdf(-lam - theta0)) + float(d.cdf(theta0 - lam))
                assert abs(hit / selected - (1.0 - alpha)) <= 1e-12
                # The library's value divides by the additive selection mass.
                assert abs(conditional_coverage_exact(cfg, theta0) - (1.0 - alpha)) <= 1e-12


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_exact_conditional_coverage_holds_at_large_theta0(law):
    # Far from the band the identity still reads 1 - alpha to 1e-12: the
    # masses are taken as offsets about theta0, not through interval ends
    # rounded to ulp(theta0), which moved it by up to 1.9e-6 at 1e12.
    d = parse_dist_spec(law)
    for lam in (0.0, 0.5, 2.0, 5.0):
        for alpha in (0.05, 0.01):
            cfg = PriorConfig(d, lam, 1.0, alpha)
            for theta0 in (1e4, 1e6, 1e8, 1e10, 1e12):
                for t in (theta0, -theta0):
                    assert abs(conditional_coverage_exact(cfg, t) - (1.0 - alpha)) <= 1e-12


def test_conditional_coverage_reproducible():
    cfg = config("laplace", 0.5, 1.0)
    a = conditional_coverage_mc(cfg, 2.0, 10**4, seed=5)
    b = conditional_coverage_mc(cfg, 2.0, 10**4, seed=5)
    assert a == b


# (law, (c_hat, se, selection rate)) at lam = 1, theta0 = 1.5, n = 30000,
# seed 7 and two sampler chunks, recorded before conditional_coverage_mc
# shared the coverage sampler: the draws must be the same bit for bit.
CONDITIONAL_PINNED = [
    ('gaussian', (0.9510783798001052, 0.0014916645527442269, 0.6970333333333333)),
    ('laplace', (0.9501241254795757, 0.0014625124019634712, 0.7385)),
    ('t3', (0.9501668829964769, 0.0014815413092743725, 0.7190666666666666)),
    ('subexp:0.5', (0.9498576399873457, 0.0013723800748898778, 0.8429333333333333)),
]


@pytest.mark.parametrize("law, expected", CONDITIONAL_PINNED)
def test_conditional_coverage_pinned_values(monkeypatch, law, expected):
    monkeypatch.setattr(distributions_mod, "_CHUNK", 1 << 14)
    cfg = PriorConfig(parse_dist_spec(law), 1.0, 1.0, 0.05)
    assert conditional_coverage_mc(cfg, 1.5, 30_000, seed=7) == expected
