"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion NN] name: PASS/FAIL` line (visible with
pytest -s or in captured output on failure).  Criterion 07 is split: the dip
level passes, while the demanded log-log decay exponent of 1.4 between the
0.05 and 0.02 runs is not met by the mathematics itself (measured pair slope
1.363, rising to ~1.5 only asymptotically); that assertion is implemented
as stated and left red rather than loosened.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hpdcover import (
    PriorConfig,
    check_tail_decay,
    conditional_coverage_mc,
    coverage_curve,
    coverage_exact,
    coverage_mc,
    dip_search,
    hpd_radii,
    hpd_set,
    invert_lower,
    invert_upper,
    lower_values,
    make_distribution,
    onesided_coverage_exact,
    posterior_probability,
    predicted_dip_level,
    regime_codes,
    smallest_lower_inverse,
    upper_values,
)
from hpdcover.cli import RunConfig, cmd_figure
from hpdcover.coverage import thread_count

from conftest import ALL_CONFIGS, PANEL_CONFIGS, config, dist

ALPHA = 0.05


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} failed ({detail})"


def test_c01_uniform_prior_exactness():
    t0 = time.time()
    worst = 0.0
    thetas = np.linspace(-10.0, 10.0, 50)
    for name in ("gaussian", "laplace", "t3"):
        cfg = config(name, 0.0, 1.0)
        for theta0 in thetas:
            worst = max(worst, abs(coverage_exact(cfg, float(theta0)).C - 0.95))
    elapsed = time.time() - t0
    _report(1, "uniform-prior coverage is exactly 0.95", worst <= 1e-6 and elapsed < 5.0,
            f"max |C - 0.95| = {worst:.2e}, {elapsed:.1f}s")


def _regime_spanning_grid(cfg, n_side=100):
    t_pos = max(cfg.t_alpha, 0.0) if math.isfinite(cfg.t_alpha) else 0.0
    hi = cfg.lam + float(cfg.dist.ppf(1.0 - cfg.alpha / 2.0)) + 3.0
    pos = np.linspace(t_pos + 0.02, hi, n_side)
    return np.concatenate([-pos, pos])


def test_c02_hpd_credibility_oracle():
    worst = 0.0
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        xs = _regime_spanning_grid(cfg)
        assert xs.size == 200
        labels = {int(c) for c in regime_codes(cfg, xs)}
        assert {1, 2, 3, 4} <= labels, (name, lam, w, labels)
        for x in xs:
            cs = hpd_set(cfg, float(x))
            prob = posterior_probability(cfg, float(x), cs.intervals, include_atom=cs.atom_included)
            worst = max(worst, abs(prob - 0.95))
    _report(2, "credible sets hold 0.95 posterior mass", worst <= 1e-8,
            f"max deviation {worst:.2e} over {len(ALL_CONFIGS)} configs x 200 points")


def test_c03_alternative_endpoint_formula():
    worst = 0.0
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        b = lam + float(cfg.dist.ppf(0.9975)) + 4.0
        xs = np.linspace(-b, b, 10_000)
        if math.isfinite(cfg.t_alpha):
            xs = xs[np.abs(xs) > cfg.t_alpha + 1e-9]
        r1, r2, r3 = hpd_radii(cfg, xs)
        h1 = xs + np.maximum(np.minimum(r2, r3), r1)
        h2 = np.minimum(-lam, xs + r1)
        alt = np.where(h1 >= lam, h1, h2)
        direct = upper_values(cfg, xs)
        worst = max(worst, float(np.max(np.abs(alt - direct))))
    _report(3, "combined endpoint formula matches branch form", worst <= 1e-10,
            f"max |difference| = {worst:.2e} on 1e4-point grids")


def test_c04_partition_and_sign_equivalence():
    bad = 0
    total = 0
    for k, (name, lam, w) in enumerate(ALL_CONFIGS):
        cfg = config(name, lam, w)
        rng = np.random.default_rng(1000 + k)
        b = lam + float(cfg.dist.ppf(0.9975)) + 6.0
        xs = rng.uniform(-b, b, 130_000)
        if math.isfinite(cfg.t_alpha):
            xs = xs[np.abs(xs) > cfg.t_alpha + 1e-12]
        xs = xs[:100_000]
        assert xs.size == 100_000
        total += xs.size
        r1, r2, r3 = hpd_radii(cfg, xs)
        s = np.abs(xs)
        b1 = s > lam + r1
        b2 = (r3 - lam < xs) & (xs <= lam + r1)
        b3 = s <= r3 - lam
        b4 = (r3 - lam < -xs) & (-xs <= lam + r1)
        counts = b1.astype(int) + b2 + b3 + b4
        near = (np.abs(s - (lam + r1)) <= 1e-9) | (np.abs(s - (r3 - lam)) <= 1e-9)
        bad += int(np.count_nonzero(counts[~near] != 1))
        for f, g in [(r2 - r1, lam + r1 - xs), (r2 - r3, r3 - xs - lam)]:
            live = (np.abs(f) > 1e-9) & (np.abs(g) > 1e-9)
            bad += int(np.count_nonzero(np.sign(f[live]) != np.sign(g[live])))
    _report(4, "regime partition and sign equivalence", bad == 0,
            f"{bad} violations over {total} sampled points")


def test_c05_endpoint_decreases_inside_band():
    worst = -math.inf
    h = 1e-6
    for lam in (2.0, 3.0):
        cfg = config("laplace", lam, 1.0)
        xs = np.linspace(0.5 * math.log(40.0) + 1e-4, lam - 1e-4, 100)
        slope = (upper_values(cfg, xs + h) - upper_values(cfg, xs - h)) / (2.0 * h)
        worst = max(worst, float(slope.max()))
    _report(5, "upper endpoint strictly decreasing inside the band", worst < 0.0,
            f"max central-difference slope = {worst:.3e}")


def test_c06_fixed_point_inversion():
    cfg = config("laplace", 5.0, 1.0)
    thetas = np.linspace(5.05, 20.0, 50)
    fps = np.array([smallest_lower_inverse(cfg, float(theta0)) for theta0 in thetas])
    worst_val = float(np.max(np.abs(lower_values(cfg, fps) - thetas)))  # NaN if any L(fp) is NaN
    worst_inf = max(abs(fp - invert_lower(cfg, float(theta0)).inf) for fp, theta0 in zip(fps, thetas))
    _report(6, "fixed-point inversion of the lower endpoint",
            worst_val <= 1e-8 and worst_inf <= 1e-6,
            f"max |L(fp) - theta0| = {worst_val:.2e}, max |fp - scan inf| = {worst_inf:.2e}")


def test_c07a_coverage_dip_level():
    t0 = time.time()
    cfg = config("laplace", 5.0, 1.0, alpha=0.05)
    dip = dip_search(cfg)
    elapsed = time.time() - t0
    predicted = predicted_dip_level(cfg)
    assert predicted == pytest.approx(0.9329057, abs=5e-8)
    _report(7, "coverage dip at its predicted level",
            dip.deviation <= 0.012 and elapsed < 120.0,
            f"min C = {dip.c_min:.6f} at theta0 = {dip.theta_at_min:.3f}, "
            f"predicted {predicted:.6f}, |dev| = {dip.deviation:.4f}, {elapsed:.0f}s")


def test_c07b_coverage_dip_scaling():
    # As specified: repeating the dip experiment at alpha = 0.02 must shrink
    # the deviation consistently with a log-log exponent of at least 1.4.
    # Measured on this pair the exponent is ~1.363 (it rises to ~1.44 by
    # alpha = 0.005 and approaches the asymptotic 3/2 only beyond); both dip
    # levels are confirmed against 2e7-draw Monte Carlo to within 2 standard
    # errors, so the shortfall is a property of the target quantity at these
    # alpha values, not of the scan.  The assertion is kept as demanded.
    devs = {}
    for a in (0.05, 0.02):
        cfg = config("laplace", 5.0, 1.0, alpha=a)
        devs[a] = dip_search(cfg).deviation
    slope = math.log(devs[0.05] / devs[0.02]) / math.log(0.05 / 0.02)
    _report(7, "dip deviation shrinks with exponent >= 1.4", slope >= 1.4,
            f"deviations {devs[0.05]:.3e} -> {devs[0.02]:.3e}, log-log slope {slope:.3f}")


def test_c08_large_theta_coverage():
    cfg = config("laplace", 5.0, 1.0)
    theta0 = 5.0 + 3.0 * float(cfg.dist.ppf(0.975))
    c = coverage_exact(cfg, theta0).C
    _report(8, "coverage back at nominal far from the band", abs(c - 0.95) <= 0.005,
            f"C({theta0:.2f}) = {c:.5f}")


def test_c09_lower_part_ceiling():
    worst = 0.0
    count = 0
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        base = max(lam, cfg.t_alpha if math.isfinite(cfg.t_alpha) else lam)
        for theta0 in base + np.linspace(0.05, 8.0, 15):
            worst = max(worst, coverage_exact(cfg, float(theta0)).C_minus)
            count += 1
    _report(9, "below-x coverage part never exceeds (1-alpha)/2",
            worst <= 0.475 + 1e-6, f"max C- = {worst:.7f} over {count} points")


def test_c10_coverage_monotone_in_slab_weight():
    ws = (0.125, 0.25, 0.5, 1.0)
    worst = 0.0
    for name in ("gaussian", "laplace", "t3"):
        for lam in (0.5, 5.0):
            q = float(dist(name).ppf(0.975))
            pos = lam + np.linspace(0.15, 3.0 * q, 10)
            grid = np.concatenate([pos, -pos[:3]])
            for theta0 in grid:
                cs = [coverage_exact(config(name, lam, w), float(theta0)).C for w in ws]
                worst = max(worst, float(np.max(-np.diff(cs))))
    _report(10, "coverage non-decreasing in the slab weight", worst <= 1e-9,
            f"worst decrease = {worst:.2e}")


def test_c11_exact_versus_monte_carlo():
    t0 = time.time()
    worst_z = 0.0
    jobs = []
    for k, (name, lam, w) in enumerate(PANEL_CONFIGS):
        cfg = config(name, lam, w)
        thetas = lam + np.concatenate([np.linspace(0.1, 2.0, 20), np.linspace(2.2, 10.0, 30)])
        for j, theta0 in enumerate(thetas):
            jobs.append((cfg, float(theta0), 9000 + 100 * k + j))

    def one(job):
        cfg, theta0, seed = job
        c_exact = coverage_exact(cfg, theta0).C
        c_hat, se = coverage_mc(cfg, theta0, 10**6, seed=seed)
        return abs(c_hat - c_exact) / se

    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        zs = list(pool.map(one, jobs))
    worst_z = max(zs)
    elapsed = time.time() - t0
    _report(11, "exact scan agrees with 1e6-draw Monte Carlo",
            worst_z <= 4.0 and elapsed < 600.0,
            f"max |z| = {worst_z:.2f} over {len(jobs)} points, {elapsed:.0f}s")


def test_c12_onesided_baseline_inequality():
    worst = math.inf
    count = 0
    for lam in (0.5, 5.0):
        cfg = config("laplace", lam, 1.0)
        for theta0 in lam + np.linspace(0.05, 6.0, 50):
            c_two = coverage_exact(cfg, float(theta0)).C
            c_one = onesided_coverage_exact(cfg, float(theta0))
            margin = c_two + float(cfg.dist.cdf(-theta0)) - c_one
            worst = min(worst, margin)
            count += 1
    _report(12, "one-sided baseline strictly below shifted two-sided coverage",
            worst > 0.0, f"min margin = {worst:.2e} over {count} points")


def test_c13_post_selection_validity():
    failures = []
    for name in ("laplace", "gaussian"):
        cfg = config(name, 0.5, 1.0)
        for j, theta0 in enumerate((0.6, 1.0, 2.0, 5.0)):
            c_hat, se, acc = conditional_coverage_mc(cfg, theta0, 10**5, seed=4200 + j)
            if c_hat < 0.95 - 3.0 * se:
                failures.append((name, theta0, c_hat, se))
    _report(13, "conditional coverage at least nominal after selection",
            not failures, f"failures: {failures }" if failures else "8 (dist, theta0) cells")


def test_c14_tail_decay_checker():
    d = dist("laplace")
    t = np.geomspace(1e-6, 0.5, 61)
    good = check_tail_decay(d, gamma=0.4, cstar=4.0, t_grid=t)
    bad = check_tail_decay(d, gamma=0.9, cstar=4.0, t_grid=t)
    _report(14, "tail-decay checker separates valid from invalid exponents",
            good.passed and not bad.passed,
            f"gamma=0.4 max ratio {good.max_t_ratio:.2f}; gamma=0.9 max ratio {bad.max_t_ratio:.1f}")


def _fig_config(outdir):
    return RunConfig(dist="gaussian,laplace,t3", lam=(5.0,), w=(0.125, 0.25, 0.5, 1.0), alpha=0.05,
                     fig_grid_n=120, mirror=False, outdir=str(outdir))


def test_c15_figure_reproduction(tmp_path):
    paths = {}
    for run in ("a", "b"):
        outdir = tmp_path / run
        rc = _fig_config(outdir)
        for fig in (1, 2, 3, 4, 5):
            cmd_figure(fig, rc if fig == 1 else RunConfig(dist="laplace", outdir=str(outdir)))
        paths[run] = outdir
    identical = all(
        (paths["a"] / f"figure{fig}.csv").read_bytes() == (paths["b"] / f"figure{fig}.csv").read_bytes()
        for fig in (1, 2, 3, 4, 5)
    )

    rows = (paths["a"] / "figure1.csv").read_text().splitlines()[1:]
    curves = {}
    for row in rows:
        parts = row.split(",")
        key = (parts[0], parts[2])
        curves.setdefault(key, []).append((float(parts[3]), float(parts[4])))
    shape_ok = True
    details = []
    for key, pts in curves.items():
        pts.sort()
        cs = np.array([c for _, c in pts])
        cmin = float(cs.min())
        cright = float(cs[-1])
        ok = (1.0 - 1.5 * ALPHA - 0.02 < cmin < 0.95 + 1e-12) and abs(cright - 0.95) <= 0.005
        # the dip must sit strictly below the nominal level, not merely at it
        ok = ok and cmin < 0.95 - 1e-4
        shape_ok = shape_ok and ok
        if not ok:
            details.append((key, cmin, cright))
    _report(15, "figure data deterministic with correct wide-band curve shape",
            identical and shape_ok,
            f"byte-identical: {identical}; curve check: {details if details else '12 curves ok'}")
