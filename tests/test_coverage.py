import math

import numpy as np
import pytest

from hpdcover import (
    PriorConfig,
    ScanSettings,
    check_coverage_bounds,
    coverage_curve,
    coverage_exact,
    coverage_mc,
    dip_search,
    hpd_contains,
    hpd_set,
    interval_mass,
    invert_lower,
    onesided_coverage_exact,
    predicted_dip_level,
)
from hpdcover import coverage as coverage_mod
from hpdcover.cli import parse_dist_spec
from hpdcover.figures import _coverage_grid

from conftest import ALL_CONFIGS, ALPHA, config, dist


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
        coverage_mc(cfg, 2.0, 10, seed=0)


def test_coverage_against_riemann_membership():
    # Crude midpoint-rule oracle over the raw membership indicator.
    cfg = config("laplace", 5.0, 1.0)
    theta0 = 9.0
    xs = np.linspace(theta0 - 25.0, theta0 + 25.0, 400_001)
    member = hpd_contains(cfg, xs, theta0)
    dx = xs[1] - xs[0]
    riemann = float(np.sum(cfg.dist.pdf(xs[member] - theta0)) * dx)
    assert coverage_exact(cfg, theta0).C == pytest.approx(riemann, abs=1e-3)


def test_membership_agrees_with_hpd_set():
    cfg = config("laplace", 0.5, 0.25)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-8, 8, 300)
    for theta0 in (0.0, 0.7, 2.4):
        flags = hpd_contains(cfg, xs, theta0)
        for x, flag in zip(xs, flags):
            assert flag == hpd_set(cfg, float(x)).contains(theta0)


def test_coverage_curve_report():
    cfg = config("laplace", 0.5, 1.0)
    grid = np.array([0.7, 1.0, 2.0, 4.0])
    rep = coverage_curve(cfg, grid, method="exact")
    assert rep.method == "exact_scan"
    rows = list(rep.rows())
    assert len(rows) == 4
    assert rows[2]["theta0"] == 2.0
    assert all(0 <= r["C"] <= 1 for r in rows)
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


def test_predicted_dip_level_laplace_closed_form():
    # 1 - 3a/2 + a G(G^{-1}(a)/2) with G Laplace: the last factor is
    # sqrt(2a)/2, giving 0.9329057 at a = 0.05.
    cfg = config("laplace", 5.0, 1.0)
    expected = 1 - 0.075 + 0.05 * 0.5 * math.sqrt(0.1)
    assert predicted_dip_level(cfg) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.9329057, abs=5e-8)


def test_dip_search_smoke():
    cfg = config("laplace", 5.0, 1.0)
    scan = ScanSettings(n_base=2048, n_dense=256)
    dip = dip_search(cfg, scan, n_grid=80, refine_rounds=1)
    assert dip.domain_lo == pytest.approx(7.9966, abs=1e-3)
    assert dip.c_min == pytest.approx(0.9273, abs=2e-3)
    assert dip.theta_at_min > dip.domain_lo


def test_check_bounds_panel_config():
    cfg = config("laplace", 5.0, 1.0)
    grid = 5.0 + np.linspace(0.2, 9.0, 12)
    report = check_coverage_bounds(cfg, grid)
    by_name = {c.name: c for c in report.checks}
    assert by_name["c_minus_ceiling"].status == "pass"
    assert by_name["c_minus_floor"].status == "pass"
    assert by_name["dip_level"].status == "pass"
    assert by_name["dip_level"].details["calibrated_here"]
    assert by_name["onesided_comparison"].status == "pass"
    assert by_name["early_c_plus_ceiling"].status == "skipped"
    assert report.passed


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
    flags = hpd_contains(cfg, xs, 2.0)
    assert not flags[0] and not flags[1]


# (law, lam, w, alpha, theta0, C, C-, C+, (frac_I, frac_II, frac_III, frac_IV)),
# recorded from the per-point scan that preceded the batched one.  They cover
# theta0 = 0 with and without an atom, theta0 inside the band, the dip, an
# atom threshold beyond the band edge (t_alpha > lam), lam = 0 and subexp.
PINNED = [
    ('gaussian', 0.5, 0.25, 0.05, 0.0, 1.0, 0.40956869246915995, 0.40956869246143984,
     (0.02290335056738199, 0.07647448244954866, 0.8163093127069486, 0.07647448244954866)),
    ('gaussian', 0.5, 1.0, 0.05, 0.0, 0.0, 0.4357356309326397, 0.4357356309249196,
     (0.0, 0.0, 0.0, 0.0)),
    ('laplace', 5.0, 1.0, 0.05, 3.0, 0.0, 0.0, 0.4960138443258194,
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
    cfg = config("laplace", 5.0, 1.0)
    grid = np.linspace(-12.0, 14.0, 40)
    whole = coverage_curve(cfg, grid)
    sizes = []
    real_build_grid = coverage_mod.build_grid

    def counting_build_grid(*args):
        out = real_build_grid(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(coverage_mod, "build_grid", counting_build_grid)
    monkeypatch.setattr(coverage_mod, "_GRID_CAP", 12_000)
    chunked = coverage_curve(cfg, grid)
    assert len(sizes) > 2 and max(sizes) <= 12_000
    for a, b in ((whole.C, chunked.C), (whole.C_minus, chunked.C_minus), (whole.C_plus, chunked.C_plus)):
        assert np.max(np.abs(a - b)) <= 1e-10


def test_exact_batch_keeps_input_order():
    cfg = config("gaussian", 0.5, 0.25)
    theta = np.array([3.1, -0.2, 0.0, 7.5, 1.4, -4.0])
    rows = coverage_mod._exact_batch(cfg, theta, ScanSettings())
    order = np.argsort(theta)
    assert np.array_equal(rows[order], coverage_mod._exact_batch(cfg, theta[order], ScanSettings()))
    assert rows[2, 0] == 1.0 and rows[1, 0] == 0.0
    with pytest.raises(ValueError):
        coverage_exact(cfg, math.nan)


# (law, lam, w, theta0 for coverage_mc, (C, se), theta0 grid, curve rows
# (C, C-, C+, frac_I..frac_IV)), recorded at seed MC_PIN_SEED with
# MC_PIN_N draws from the evaluator that computed every radius at every x.
# A faster endpoint or sampler path must reproduce every draw's verdict.
MC_PIN_N = (1 << 16) + 1000
MC_PIN_SEED = 2024
MC_PINNED = [
    ('gaussian', 0.5, 0.25, 1.5, (0.9299927858602861, 0.0009891971204315495),
     [0.0, 0.3, 1.0, 2.5],
     [
         (1.0, 0.4094174582181075, 0.41189731874473967, 0.031321389924251535, 0.07341890104605026, 0.8213147769628472, 0.07394493206685103),
         (0.0, 0.3491343032343393, 0.4512594685583744, 0.0, 0.0, 0.0, 0.0),
         (0.9313003486834195, 0.4701514969339906, 0.4611488517494289, 0.10313886871621077, 0.2606632776567417, 0.6361978536270475, 0.0),
         (0.9354785379343513, 0.47428459781171095, 0.46119394012264037, 0.6550616133541121, 0.25663930080490976, 0.0882990858409781, 0.0),
     ]),
    ('laplace', 5.0, 1.0, 6.5, (0.9725411807141998, 0.0006335291247260274),
     [-6.0, 0.0, 6.5, 9.0],
     [
         (0.9694751713358182, 0.49827161236022605, 0.4712035589755922, 0.10256569258197039, 0.0, 0.0074722889698472985, 0.8899620184481823),
         (0.0, 0.41932187086689915, 0.4222375856679091, 0.0, 0.0, 0.0, 0.0),
         (0.9725411807141998, 0.47138391246843814, 0.5011572682457617, 0.19236891313418536, 0.8035358296372993, 0.004095257228515353, 0.0),
         (0.930624023085247, 0.4741192737766021, 0.45650474930864493, 0.946156330749354, 0.053843669250645994, 0.0, 0.0),
     ]),
    ('t3', 0.5, 1.0, 1.0, (0.947937958398461, 0.0008612360695067422),
     [-1.0, 0.2, 1.0, 3.0],
     [
         (0.9473668390044487, 0.4754268365997355, 0.47194000240471323, 0.022575118190183076, 0.0, 0.9354475362502777, 0.041977345559539296),
         (0.0, 0.4565949260550679, 0.4708879403631117, 0.0, 0.0, 0.0, 0.0),
         (0.947937958398461, 0.46976073103282434, 0.47817722736563667, 0.02317985794013191, 0.04179350583460172, 0.9350266362252664, 0.0),
         (0.956865456294337, 0.4733828303474811, 0.4834826259468558, 0.3747212012691232, 0.22431124933245375, 0.400967549398423, 0.0),
     ]),
    ('subexp:0.5', 2.0, 0.5, 3.0, (0.9477726343633521, 0.0008625271977953812),
     [0.0, 2.5, 4.0, 7.0],
     [
         (1.0, 0.46980581940603583, 0.4720001202356619, 0.047718528315498374, 0.005004809426475893, 0.9418059396416977, 0.005470722616328003),
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
