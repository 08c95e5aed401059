import numpy as np
import pytest

from hpdcover import (
    PriorConfig,
    conditional_coverage_mc,
    credible_set_contains,
    hpd_set,
    post_selection_set,
)
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
        conditional_coverage_mc(config("laplace", 0.5, 1.0), 2.0, 500, seed=0)


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
def test_conditional_coverage_pinned_values(law, expected):
    cfg = PriorConfig(parse_dist_spec(law), 1.0, 1.0, 0.05)
    assert conditional_coverage_mc(cfg, 1.5, 30_000, seed=7, chunk=1 << 14) == expected
