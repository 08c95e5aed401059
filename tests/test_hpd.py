import itertools
import math
import warnings

import numpy as np
import pytest

from hpdcover import (
    InversionError,
    PriorConfig,
    Regime,
    atom_mass,
    coverage_mc,
    dip_search,
    endpoint_values,
    endpoints,
    hpd_length,
    hpd_radii,
    hpd_set,
    invert_lower,
    invert_upper,
    lower_values,
    onesided_lower_endpoint,
    onesided_radii,
    onesided_upper_endpoint,
    posterior_normalizer,
    posterior_probability,
    regime_codes,
    smallest_lower_inverse,
    upper_values,
)
from hpdcover import hpd as hpd_mod
from hpdcover import posterior as posterior_mod
from hpdcover.cli import parse_dist_spec
from hpdcover.distributions import Distribution

from conftest import ALL_CONFIGS, config, sample_x


def upper_endpoint_alt(cfg, x: float) -> float:
    """The paper's regime-free form of U off the atom region: h1 = x + (r2 ^ r3) v r1
    where h1 >= lam, h2 = -lam ^ (x + r1) elsewhere.  The atom region is read
    off the posterior atom mass, not off the evaluator's regime codes."""
    if not math.isfinite(x) or atom_mass(cfg, x) >= 1.0 - cfg.alpha:
        raise ValueError(f"x = {x} is not finite or lies in the atom region")
    r1, r2, r3 = hpd_radii(cfg, x)
    h1 = x + max(min(r2, r3), r1)
    h2 = min(-cfg.lam, x + r1)
    return h1 if h1 >= cfg.lam else h2


def test_radii_uniform_limit():
    # lam = 0, w = 1: the band and atom vanish, r1 = G^{-1}(1 - alpha/2)
    # for every x; for the Laplace law that is ln 20 at alpha = 0.05.
    cfg = config("laplace", 0.0, 1.0)
    for x in (-4.0, 0.0, 2.5, 11.0):
        r1, _, r3 = hpd_radii(cfg, x)
        assert r1 == pytest.approx(math.log(20.0), abs=1e-12)
        assert r3 == pytest.approx(r1, abs=1e-12)


def test_radii_even_and_ordered():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        xs = sample_x(cfg, 4000, seed=101)
        r1, _, r3 = hpd_radii(cfg, xs)
        r1m, _, r3m = hpd_radii(cfg, -xs)
        assert np.max(np.abs(r1 - r1m)) <= 1e-11
        assert np.max(np.abs(r3 - r3m)) <= 1e-11
        # 0 < r1 < r3 < inf outside the atom region (r1 = r3 only if lam = 0)
        assert np.all(r1 > 0)
        assert np.all(np.isfinite(r1)) and np.all(np.isfinite(r3))
        if lam > 0:
            assert np.all(r1 < r3)


def test_radius_r2_infinite_convention():
    # Laplace, w = 1, lam = 5: near the origin the pinned-edge radius has
    # tail mass <= 0, hence +inf.
    cfg = config("laplace", 5.0, 1.0)
    _, r2, _ = hpd_radii(cfg, 0.0)
    assert r2 == math.inf


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_radius_r2_matches_band_edge_mass(law):
    # r2 = G^{-1}(1 - m) with m = alpha (s + kg) - G(-lam - x), s = G(x - lam)
    # + G(-lam - x) and kg = (1 - w)/w g(x), formed here from separate CDF
    # calls at signed x; m <= 0 (x < -lam, where G(-lam - x) > 1/2) gives +inf.
    for lam, w in ((0.5, 1.0), (2.0, 0.25), (5.0, 1.0)):
        cfg = PriorConfig(parse_dist_spec(law), lam, w, 0.05)
        d = cfg.dist
        b = lam + float(d.ppf_upper(cfg.alpha / 2.0)) + 8.0
        xs = np.concatenate([np.linspace(-b, b, 801), [-1e3, 1e3]])
        xs = xs[np.abs(xs) > cfg.t_alpha]
        s = d.cdf(xs - lam) + d.cdf(-lam - xs)
        m = cfg.alpha * (s + (1.0 - w) / w * d.pdf(xs)) - d.cdf(-lam - xs)
        r2 = hpd_radii(cfg, xs)[1]
        pos = m > 1e-9
        assert np.allclose(r2[pos], -d.ppf(m[pos]), rtol=1e-12, atol=1e-9)
        neg = m < -1e-9
        assert np.all(r2[neg] == np.inf)
        assert np.all(neg[xs < -lam]) and pos.sum() >= 100


def test_classify_far_points_are_regime_one():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        edge = lam + float(cfg.dist.ppf(1.0 - cfg.alpha / 2.0))
        assert np.all(regime_codes(cfg, [edge, edge + 0.5, -(edge + 3.0)]) == Regime.I)


def test_classify_origin_in_regime_three():
    # With no atom the origin's set must straddle the whole band.
    for name in ("gaussian", "laplace", "t3"):
        cfg = config(name, 0.75, 1.0)
        assert regime_codes(cfg, 0.0)[0] == Regime.III


def test_classify_decreasing_stretch_is_regime_two():
    cfg = config("laplace", 5.0, 1.0)
    lo = 0.5 * math.log(2.0 / cfg.alpha)
    assert np.all(regime_codes(cfg, np.linspace(lo + 1e-6, 5.0, 25)) == Regime.II)


def test_classify_atom_region():
    cfg = config("laplace", 5.0, 0.125)
    t = cfg.t_alpha
    codes = regime_codes(cfg, [0.9 * t, -0.9 * t, t + 1e-6])
    assert codes[0] == codes[1] == Regime.ATOM and codes[2] != Regime.ATOM


def test_classify_rejects_nonfinite():
    # hpd_set, the scalar call that reports a regime, refuses a non-finite x.
    cfg = config("laplace", 1.0, 1.0)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="x must be finite"):
            hpd_set(cfg, x)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_endpoints_nan_at_nan_x(law):
    # A NaN observation has no set: U and L are NaN, whatever the band or atom.
    for lam, w in ((0.5, 1.0), (0.5, 0.25), (0.0, 1.0), (5.0, 0.02)):
        cfg = PriorConfig(parse_dist_spec(law), lam, w, 0.05)
        up, low, _ = endpoints(cfg, [np.nan, lam + 9.0, -np.nan])
        assert np.isnan(up[[0, 2]]).all() and np.isnan(low[[0, 2]]).all()
        assert np.isfinite(up[1]) and np.isfinite(low[1])


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_hpd_length_nan_at_nan_x(law):
    # A NaN x takes code ATOM, but its length is NaN, not the atom's 0.
    for lam, w in ((0.5, 0.02), (2.0, 1.0)):
        cfg = PriorConfig(parse_dist_spec(law), lam, w, 0.05)
        assert math.isnan(hpd_length(cfg, np.nan))
        got = hpd_length(cfg, [np.nan, lam + 9.0, -np.nan])
        assert np.isnan(got[[0, 2]]).all() and np.isfinite(got[1]) and got[1] > 0
        if cfg.t_alpha > 0:  # the atom region still has length 0
            assert hpd_length(cfg, [np.nan, 0.5 * cfg.t_alpha])[1] == 0.0


def test_endpoints_uniform_limit_shift_map():
    cfg = config("gaussian", 0.0, 1.0)
    q = float(cfg.dist.ppf(0.975))
    xs = np.array([-2.0, 0.3, 5.5])
    up, low, _ = endpoints(cfg, xs)
    assert up == pytest.approx(xs + q, abs=1e-12)
    assert low == pytest.approx(xs - q, abs=1e-12)


def test_endpoint_reflection_identity():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        xs = sample_x(cfg, 3000, seed=7)
        up = upper_values(cfg, xs)
        low = lower_values(cfg, -xs)
        ok = np.isfinite(up)
        assert np.max(np.abs(low[ok] + up[ok])) == 0.0


def test_endpoint_pair_matches_separate_evaluations():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        xs = sample_x(cfg, 3000, seed=8)
        u_pair, l_pair = endpoint_values(cfg, xs)
        u_sep = upper_values(cfg, xs)
        l_sep = lower_values(cfg, xs)
        ok = np.isfinite(u_sep)
        assert np.array_equal(u_pair[ok], u_sep[ok])
        assert np.array_equal(l_pair[ok], l_sep[ok])


def _paper_upper(cfg, xs):
    """U and the regime codes from all three radii at every x, by the
    closed form of each regime (first matching condition wins)."""
    r1, r2, r3 = hpd_radii(cfg, xs)
    s, lam = np.abs(xs), cfg.lam
    conds = [s <= cfg.t_alpha, s > lam + r1, s <= r3 - lam, xs > 0]
    codes = np.select(conds, [Regime.ATOM, Regime.I, Regime.III, Regime.II], Regime.IV)
    return np.select(conds, [np.nan, xs + r1, xs + r3, xs + r2], -lam), codes


def _geometric_codes(cfg, xs, up, low):
    """Regimes off the atom region from where the set sits against the band:
    for x > 0, III iff -lam is in [L, U], else II iff lam is, else I; for
    x < 0 the mirror image, with IV in place of II."""
    near, far = np.where(xs > 0, -cfg.lam, cfg.lam), np.where(xs > 0, cfg.lam, -cfg.lam)
    edge = np.where(xs > 0, Regime.II, Regime.IV)
    inside = lambda v: (low <= v) & (v <= up)
    return np.select([inside(near), inside(far)], [Regime.III, edge], Regime.I)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_evaluator_matches_per_regime_formulas(law):
    # The one-pass evaluator computes each radius only where its regime uses
    # it; U, L (by reflection) and the codes must equal the full evaluation
    # exactly, NaN positions included.  Off the atom region the codes also
    # follow from U and L alone (`_geometric_codes`).
    rng = np.random.default_rng(404)
    cases = [(lam, w, 0.05) for lam in (0.0, 0.5, 5.0) for w in (1.0, 0.25, 0.02)]
    for lam, w, alpha in cases + [(60.0, 0.25, 0.01)]:
        cfg = PriorConfig(parse_dist_spec(law), lam, w, alpha)
        t = cfg.t_alpha
        specials = [0.0, lam, -lam] + ([t, -t] if math.isfinite(t) else [])
        xs = np.concatenate([
            rng.uniform(-1.0, 1.0, 1500) * (lam + 8.0),
            rng.uniform(-40.0, 40.0, 500),
            rng.uniform(-1e3, 1e3, 200),
            specials,
        ])
        up, codes = _paper_upper(cfg, xs)
        low = -_paper_upper(cfg, -xs)[0]
        got_u, got_l, got_codes = endpoints(cfg, xs)
        for got, want in ((got_u, up), (got_l, low), (upper_values(cfg, xs), up),
                          (lower_values(cfg, xs), low), *zip(endpoint_values(cfg, xs), (up, low))):
            assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got_codes, codes)
        assert np.array_equal(regime_codes(cfg, xs), codes)
        # One x at a time takes the small-array selection branch of _levels.
        assert [regime_codes(cfg, float(x))[0] for x in xs[::50]] == list(codes[::50])
        off = codes != Regime.ATOM
        assert np.array_equal(_geometric_codes(cfg, xs, got_u, got_l)[off], codes[off])
    if law == "t3":
        # The last case (lam 60, w 0.25, alpha 0.01): a regime can recur on
        # one side, here II both below and above III.
        order = np.argsort(xs)
        seq = codes[order][xs[order] > 0]
        runs = seq[np.r_[True, seq[1:] != seq[:-1]]]
        assert list(runs) == [Regime.ATOM, Regime.II, Regime.III, Regime.II, Regime.I]
    # One Monte Carlo block of draws about theta0 = 1.5, as coverage_mc makes
    # them, so the kernels run on whole blocks.
    cfg = PriorConfig(parse_dist_spec(law), 0.5, 0.25, 0.05)
    xs = 1.5 + cfg.dist.ppf(rng.random(1 << 16))
    up, codes = _paper_upper(cfg, xs)
    got_u, got_l, got_codes = endpoints(cfg, xs)
    assert np.array_equal(got_u, up, equal_nan=True)
    assert np.array_equal(got_l, -_paper_upper(cfg, -xs)[0], equal_nan=True)
    assert np.array_equal(got_codes, codes)
    assert set(np.unique(codes)) == {Regime.I, Regime.II, Regime.III, Regime.IV}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_extreme_x_raises_no_warning(law):
    # g(x) squares x, which overflows beyond |x| = 1.34e154 (2e77 for t3);
    # the density there is the exact 0 and no call may warn about it.
    xs = [1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0]
    for w in (1.0, 0.25):
        cfg = PriorConfig(parse_dist_spec(law), 0.5, w, 0.05)
        up, low, _ = endpoints(cfg, xs)
        assert np.all(np.isfinite(up[:2])) and np.all(np.isfinite(low[:2]))
        assert np.all(np.isfinite(hpd_length(cfg, xs)))
        assert atom_mass(cfg, 1e300) == 0.0 and np.all(np.isfinite(atom_mass(cfg, xs)))
        assert np.all(np.isfinite(posterior_normalizer(cfg, xs)))
        for x in xs:
            hpd_set(cfg, x)


class _Counted(Distribution):
    """A law that counts the calls made to each of its kernels."""

    def __init__(self, inner):
        self.inner, self.calls = inner, {"pdf": 0, "cdf": 0, "lower_tail": 0, "ppf": 0}

    def _call(self, kind, v):
        self.calls[kind] += 1
        return getattr(self.inner, kind)(v)

    def pdf(self, x):
        return self._call("pdf", x)

    def cdf(self, x):
        return self._call("cdf", x)

    def lower_tail(self, t):
        return self._call("lower_tail", t)

    def ppf(self, p):
        return self._call("ppf", p)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_endpoints_make_one_lower_tail_and_one_quantile_call(law):
    # The regimes come from the tail levels, so one lower_tail call (and no
    # CDF call) and one quantile call serve every regime; with w = 1 the band
    # holds III, with an atom the atom region takes its place.
    counted = _Counted(parse_dist_spec(law))
    xs = np.linspace(-60.0, 60.0, 2001)
    seen = set()
    for lam, w in ((3.0, 1.0), (3.0, 0.02)):
        cfg = PriorConfig(counted, lam, w, 0.05)
        cfg.t_alpha
        counted.calls.update(cdf=0, lower_tail=0, ppf=0)
        codes = endpoints(cfg, xs)[2]
        assert counted.calls["lower_tail"] == 1 and counted.calls["cdf"] == 0 and counted.calls["ppf"] <= 1
        seen.update(codes.tolist())
    assert seen == set(Regime)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_evaluations_leave_atom_threshold_unsolved(law):
    # The atom region comes from the evaluator's own tail levels, so sets,
    # endpoints, lengths and Monte Carlo coverage never solve for t_alpha
    # (a cached property, so a solve would leave it in the instance dict).
    cfg = PriorConfig(parse_dist_spec(law), 2.0, 0.25, 0.05)
    xs = np.linspace(-12.0, 12.0, 1001)
    for x in (0.0, 1.0, 3.0, -7.5):
        hpd_set(cfg, x)
    endpoints(cfg, xs)
    hpd_length(cfg, xs)
    coverage_mc(cfg, 3.0, 4096, seed=1)
    assert "t_alpha" not in vars(cfg)


def _nested_selection_reference(cfg, x):
    """(q, codes, U, L, r) with every level and code picked by nested masked
    selection (np.where) from the law's lower tails at the stacked magnitudes."""
    sabs, lam, alpha = np.abs(x), cfg.lam, cfg.alpha
    tail, below = cfg.dist.lower_tail(np.stack([np.abs(sabs - lam), lam + sabs]))
    far = sabs > lam
    gap = 1.0 - tail
    sk = np.where(far, gap, tail) + below
    if cfg.has_atom:
        sk += (1.0 - cfg.w) / cfg.w * cfg.dist.pdf(sabs)
    q1 = 0.5 * (alpha * sk + (np.where(far, tail, gap) - below))
    q3 = 0.5 * alpha * sk
    third, one = q3 <= below, far & (q1 > tail)
    q = np.where(one, q1, np.where(third, q3, alpha * sk - below))
    codes = np.where(one, Regime.I, np.where(third, Regime.III, np.where(x > 0, Regime.II, Regime.IV)))
    codes = np.where(sabs > cfg.t_alpha, codes, Regime.ATOM).astype(np.int8)
    r = cfg.dist.ppf_upper(q)
    upper = np.where(codes == Regime.IV, -lam, x + r)
    lower = np.where(codes == Regime.II, lam, -(r - x))
    atom = codes == Regime.ATOM
    upper[atom] = lower[atom] = np.nan
    return q, codes, upper, lower, r


def _bits(a):
    """dtype and bytes of a, each NaN made canonical: numpy's loops set a
    NaN's sign bit differently by law and array size."""
    a = np.asarray(a)
    return a.dtype.str, (np.where(np.isnan(a), np.nan, a) if a.dtype.kind == "f" else a).tobytes()


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5", "subexp:0.3"])
def test_level_stage_matches_nested_selection_reference(law):
    # The 0/1-product levels and int8 codes (the whole array) and the masked
    # copies (its chunks) select exactly what nested np.where does, so
    # _levels and the radius stage are byte-equal to it, at the regime edges
    # and at NaN, +-inf and +-0 too.
    for lam, w, alpha in itertools.product((0.0, 0.5, 5.0, 12.0), (1.0, 0.25, 0.02), (0.05, 0.3)):
        cfg = PriorConfig(parse_dist_spec(law), lam, w, alpha)
        t = cfg.t_alpha
        edges = [0.0, lam, 1e300, np.inf, np.nextafter(lam, 0.0), np.nextafter(lam, np.inf)]
        if np.isfinite(t):
            edges += [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
        edges = np.array(edges)
        xs = np.concatenate([np.linspace(-lam - 30.0, lam + 30.0, 2001), edges, -edges, [np.nan]])
        for x in (xs, *np.array_split(xs, 8), *np.array_split(xs[-len(edges) * 2 - 1 :], 6)):
            want = _nested_selection_reference(cfg, x)
            q, codes = hpd_mod._levels(cfg, x)[:2]
            up, low, codes_pass, r = hpd_mod._endpoint_pass(cfg, x)[:4]
            assert _bits(q) == _bits(want[0]) and _bits(codes) == _bits(want[1])
            assert [_bits(v) for v in (codes_pass, up, low, r)] == [_bits(v) for v in want[1:]]


def test_regime_four_upper_is_band_edge():
    cfg = config("laplace", 5.0, 1.0)
    up, _, codes = endpoints(cfg, -3.0)
    assert codes[0] == Regime.IV and up[0] == -5.0


def test_upper_alt_agrees_with_upper():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        xs = sample_x(cfg, 1500, seed=3)[:400]
        for x, up in zip(xs, upper_values(cfg, xs)):
            assert upper_endpoint_alt(cfg, float(x)) == pytest.approx(up, abs=1e-10)


def test_endpoint_raises_inside_atom_region():
    # The evaluator gives NaN endpoints there; the paper's form refuses x.
    cfg = config("laplace", 5.0, 0.125)
    up, low, codes = endpoints(cfg, [0.5, -1.0])
    assert np.isnan(up).all() and np.isnan(low).all() and np.all(codes == Regime.ATOM)
    with pytest.raises(ValueError):
        upper_endpoint_alt(cfg, 0.0)


def test_hpd_set_atom_only():
    cfg = config("laplace", 5.0, 0.125)
    cs = hpd_set(cfg, 1.0)
    assert cs.regime is Regime.ATOM
    assert cs.intervals == ()
    assert cs.atom_included
    assert cs.length == 0.0
    assert cs.contains(0.0) and not cs.contains(1.0)


def test_hpd_set_no_atom_when_w_is_one():
    cfg = config("laplace", 0.5, 1.0)
    cs = hpd_set(cfg, 4.0)
    assert not cs.atom_included
    assert cs.atom_mass == 0.0
    assert not cs.contains(0.0)


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_hpd_set_atom_mass_is_atom_mass(law):
    # hpd_set divides the spike term and normalizer of its own level stage;
    # posterior.atom_mass forms the same division in a tail_levels call of
    # its own.  The two agree bit for bit, at the atom threshold's float
    # neighbours and inside the atom region too.
    seen = set()
    for lam, w in itertools.product((0.5, 5.0), (1.0, 0.25, 1e-6)):
        cfg = PriorConfig(parse_dist_spec(law), lam, w, 0.05)
        xs = [0.0, -0.0, lam, -lam, 3.7, -1e8]
        t = cfg.t_alpha
        if math.isfinite(t):
            for v in (t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)):
                xs += [float(v), -float(v)]
        for x in xs:
            cs = hpd_set(cfg, x)
            seen.add(cs.regime)
            assert cs.atom_mass.hex() == atom_mass(cfg, x).hex(), (lam, w, x)
    assert Regime.ATOM in seen and Regime.I in seen


@pytest.mark.parametrize("w", [1.0, 0.25])
def test_one_answer_makes_one_tail_levels_call(monkeypatch, w):
    # hpd_set reads U, L, the regime and the atom mass off one level pass,
    # and posterior_probability reads D(x) and the atom mass off one call.
    calls = []
    real = posterior_mod.tail_levels
    counted = lambda cfg, sabs: calls.append(np.size(sabs)) or real(cfg, sabs)
    monkeypatch.setattr(posterior_mod, "tail_levels", counted)
    monkeypatch.setattr(hpd_mod, "tail_levels", counted)
    for law, x in (("t3", 4.2), ("subexp:0.5", 1.1), ("gaussian", 0.0)):
        cfg = PriorConfig(parse_dist_spec(law), 1.0, w, 0.05)  # fresh: no t_alpha read
        calls.clear()
        cs = hpd_set(cfg, x)
        assert calls == [1]
        calls.clear()
        posterior_probability(cfg, x, cs.intervals, include_atom=cs.atom_included)
        assert calls == [1]


def test_hpd_set_regime_three_two_pieces():
    cfg = config("gaussian", 0.5, 1.0)
    cs = hpd_set(cfg, 0.2)
    assert cs.regime is Regime.III
    assert len(cs.intervals) == 2
    (a1, b1), (a2, b2) = cs.intervals
    assert b1 == -0.5 and a2 == 0.5
    assert a1 == cs.lower and b2 == cs.upper


def test_hpd_set_band_free_and_sorted():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        for x in sample_x(cfg, 64, seed=19):
            cs = hpd_set(cfg, float(x))
            last = -math.inf
            for a, b in cs.intervals:
                assert a <= b
                assert a >= last
                last = b
                if lam > 0:
                    assert b <= -lam or a >= lam


def test_lengths_match_interval_measure():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        for x in sample_x(cfg, 200, seed=23):
            cs = hpd_set(cfg, float(x))
            assert hpd_length(cfg, float(x)) == pytest.approx(sum(b - a for a, b in cs.intervals), abs=1e-12)


@pytest.mark.parametrize("name", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_hpd_set_length_is_hpd_length(name):
    # Bit for bit, also far out, where U - L of regime I would carry the
    # rounding of x +- r1 (3.7e-9 relative for gaussian at 1e8).
    for lam, w in ((0.0, 1.0), (0.5, 1.0), (2.0, 0.25), (5.0, 1.0)):
        cfg = PriorConfig(parse_dist_spec(name), lam, w, 0.05)
        far = [s * 10.0**k for k in (2, 4, 6, 8) for s in (1.0, -1.0)]
        for x in [*sample_x(cfg, 60, seed=31).tolist(), lam, -lam, *far]:
            assert hpd_set(cfg, x).length == hpd_length(cfg, x)


@pytest.mark.parametrize("name", ["gaussian", "laplace", "t3"])
def test_length_far_from_band_is_twice_r1(name):
    # Regime I: the length is 2 r1 from the radius, not U - L, which would
    # carry the rounding of x +- r1 (relative eps |x| / r1).
    cfg = config(name, 2.0, 0.25)
    for x in (1e4, -1e6, 1e8, -1e8):
        want = 2.0 * hpd_radii(cfg, x)[0]
        assert abs(hpd_length(cfg, x) - want) <= 1e-14 * want
    xs = np.array([1e4, -1e6, 1e8])
    assert np.array_equal(hpd_length(cfg, xs), 2.0 * hpd_radii(cfg, xs)[0])


def test_length_uniform_limit_is_nominal_width():
    cfg = config("t3", 0.0, 1.0)
    nominal = 2.0 * float(cfg.dist.ppf(0.975))
    for x in (-3.0, 0.0, 7.0):
        assert hpd_length(cfg, x) == pytest.approx(nominal, abs=1e-10)


def test_partition_literal_definitions():
    rng = np.random.default_rng(42)
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        xs = sample_x(cfg, 20_000, seed=rng.integers(1 << 30))
        r1, _, r3 = hpd_radii(cfg, xs)
        s = np.abs(xs)
        b1 = s > lam + r1
        b2 = (r3 - lam < xs) & (xs <= lam + r1)
        b3 = s <= r3 - lam
        b4 = (r3 - lam < -xs) & (-xs <= lam + r1)
        counts = b1.astype(int) + b2 + b3 + b4
        # dead-band around the regime boundaries
        near = (np.abs(s - (lam + r1)) <= 1e-9) | (np.abs(s - (r3 - lam)) <= 1e-9)
        assert np.all(counts[~near] == 1)


def test_sign_equivalence():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        xs = sample_x(cfg, 20_000, seed=77)
        r1, r2, r3 = hpd_radii(cfg, xs)
        pairs = [(r2 - r1, lam + r1 - xs), (r2 - r3, r3 - xs - lam)]
        for f, g in pairs:
            live = (np.abs(f) > 1e-9) & (np.abs(g) > 1e-9)
            assert np.all(np.sign(f[live]) == np.sign(g[live]))


def test_upper_monotone_on_outer_regime():
    for name, lam, w in ALL_CONFIGS:
        cfg = config(name, lam, w)
        start = lam + float(cfg.dist.ppf(1.0 - cfg.alpha / 2.0)) + 1e-6
        xs = np.linspace(start, start + 12.0, 600)
        assert np.all(regime_codes(cfg, xs) == Regime.I)
        assert np.all(np.diff(upper_values(cfg, xs)) > 0)


@pytest.mark.parametrize("w,lam", [(1.0, 3.0), (0.8, 3.0), (1.0, 2.0)])
def test_upper_decreasing_inside_band_laplace(w, lam):
    # Laplace with w in (sqrt(2 alpha), 1] and the band edge inside
    # (ln(2/alpha)/2, ln((1-alpha)/alpha * w/(1-w))): U falls on that stretch.
    alpha = 0.05
    assert w > math.sqrt(2 * alpha)
    if w < 1.0:
        assert lam < math.log((1 - alpha) / alpha * w / (1 - w))
    cfg = config("laplace", lam, w, alpha)
    xs = np.linspace(0.5 * math.log(2 / alpha) + 1e-3, lam - 1e-3, 120)
    assert np.all(np.diff(upper_values(cfg, xs)) < 0)


def test_interval_shrinks_with_smaller_slab_weight():
    # With less weight on the slab, the set [L, U] contracts pointwise.
    for name in ("gaussian", "laplace", "t3"):
        small = config(name, 2.0, 0.25)
        big = config(name, 2.0, 0.75)
        xs = sample_x(small, 800, seed=5)
        u_s, l_s = endpoint_values(small, xs)
        u_b, l_b = endpoint_values(big, xs)
        ok = np.isfinite(u_s)
        assert np.all(u_s[ok] <= u_b[ok] + 1e-11)
        assert np.all(l_s[ok] >= l_b[ok] - 1e-11)


def test_invert_upper_uniform_limit():
    cfg = config("laplace", 0.0, 1.0)
    inv = invert_upper(cfg, 4.0)
    assert len(inv.roots) == 1
    assert inv.roots[0] == pytest.approx(4.0 - math.log(20.0), abs=1e-9)


@pytest.mark.parametrize(
    "law, lam, w, eps",
    [(law, lam, 1.0, 1e-7) for law in ("laplace", "t3", "subexp:0.5") for lam in (2.0, 5.0)]
    + [("subexp:0.5", 5.0, 0.25, 1e-3)],
)
def test_invert_upper_multiple_roots_where_u_dips(law, lam, w, eps):
    # Just above min U beyond the band edge, where dip_search's domain
    # starts, U - target has two roots around that minimum within one grid
    # cell; sup U^{-1} >= lam is what puts the target in that domain.
    cfg = PriorConfig(parse_dist_spec(law), lam, w, 0.05)
    target = dip_search(cfg).domain_lo + eps
    inv = invert_upper(cfg, target)
    assert len(inv.roots) >= 3 and inv.sup >= lam
    for r in inv.roots:
        assert abs(upper_values(cfg, r)[0] - target) <= 1e-7
    assert inv.inf == min(inv.roots) and inv.sup == max(inv.roots)


def test_invert_upper_root_pair_near_zero_matches_dense_scan():
    cfg = PriorConfig(parse_dist_spec("subexp:0.5"), 2.99866, 0.02, 0.031987)
    target = 4.553
    inv = invert_upper(cfg, target)
    # An independent sign scan of U - target on a dense grid.
    xs = np.linspace(-100.0, 100.0, 400_001)
    with np.errstate(invalid="ignore"):
        v = upper_values(cfg, xs) - target
    dense = np.flatnonzero(np.isfinite(v[:-1]) & np.isfinite(v[1:]) & (v[:-1] * v[1:] < 0))
    assert dense.size == 3 and len(inv.roots) == 3
    assert np.all((xs[dense] <= inv.roots) & (inv.roots <= xs[dense + 1]))
    for r in inv.roots:
        assert abs(upper_values(cfg, r)[0] - target) <= 1e-7


@pytest.mark.parametrize("lam, target, root", [(0.0, 0.0, 0.00099633), (12.0, -12.0, 0.071706)])
def test_invert_lower_finds_the_root_next_to_the_atom_edge(lam, target, root):
    # subexp:0.3 at w 0.02, alpha 0.3: L moves by about 1 within 0.004 past
    # t_alpha, and one root sits there, which a 512-point block of step
    # 0.004 about t_alpha stepped over.  An independent brute-force count:
    # flag changes of L - target >= 0 between finite neighbours, step 1e-8.
    cfg = PriorConfig(parse_dist_spec("subexp:0.3"), lam, 0.02, 0.3)
    xs = cfg.t_alpha + np.linspace(0.0, 0.004, 400_001)
    v = endpoints(cfg, xs)[1] - target
    flips = np.flatnonzero(np.isfinite(v[:-1]) & np.isfinite(v[1:]) & ((v[:-1] >= 0) != (v[1:] >= 0)))
    assert flips.size == 1
    roots = np.array(invert_lower(cfg, target).roots)
    near = roots[roots < xs[-1]]
    assert near.size == 1 and xs[flips[0]] <= near[0] <= xs[flips[0] + 1]
    assert near[0] == pytest.approx(root, abs=1e-6)


def test_invert_lower_roots_in_regime_one():
    cfg = config("laplace", 5.0, 1.0)
    for theta0 in (5.5, 7.0, 10.0):
        inv = invert_lower(cfg, theta0)
        assert all(r is Regime.I for r in inv.regimes)
        for r in inv.roots:
            assert lower_values(cfg, r)[0] == pytest.approx(theta0, abs=1e-7)


def test_invert_empty_reports():
    cfg = config("laplace", 5.0, 0.125)
    with pytest.raises(InversionError):
        invert_upper(cfg, 0.5 * cfg.t_alpha)


def test_fixed_point_one_step_in_uniform_limit():
    cfg = config("gaussian", 0.0, 1.0)
    got = smallest_lower_inverse(cfg, 3.0)
    assert got == pytest.approx(3.0 + float(cfg.dist.ppf(0.975)), abs=1e-10)


def test_fixed_point_monotone_iterates():
    cfg = config("laplace", 5.0, 1.0)
    theta0 = 8.0
    a = theta0
    prev = -math.inf
    for _ in range(200):
        assert a > prev
        prev = a
        nxt = theta0 + hpd_radii(cfg, a)[0]
        if abs(nxt - a) < 1e-13:
            break
        a = nxt


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5"])
def test_fixed_point_steps_on_r1_alone(law):
    # Each step is one lower_tail and one quantile call, and the iterates are those
    # of a_{k+1} = theta0 + r1(a_k) with r1 from hpd_radii, bit for bit.
    counted = _Counted(parse_dist_spec(law))
    for lam, w, theta0 in ((5.0, 1.0, 8.0), (0.5, 0.25, 3.0), (2.0, 1.0, 2.5)):
        cfg = PriorConfig(counted, lam, w, 0.05)
        cfg.t_alpha
        a, steps = theta0, 0
        while True:
            nxt, steps = theta0 + hpd_radii(cfg, a)[0], steps + 1
            if abs(nxt - a) <= 1e-12:
                break
            a = nxt
        counted.calls.update(cdf=0, lower_tail=0, ppf=0)
        assert smallest_lower_inverse(cfg, theta0) == nxt
        assert counted.calls["lower_tail"] == counted.calls["ppf"] == steps and counted.calls["cdf"] == 0


def _scalar_route_points(cfg, rng):
    """0, -0.0, +-lam, +-t_alpha, +-1e3 and +-2^21 with their float neighbours,
    then seeded x over [-12, 12] and log-spaced out to 1e3."""
    base = [0.0, cfg.lam, 1e3, 2.0**21] + ([cfg.t_alpha] if math.isfinite(cfg.t_alpha) else [])
    near = [np.nextafter(v, d) for v in base for d in (-np.inf, np.inf)]
    xs = np.concatenate([base, near, rng.uniform(-12.0, 12.0, 160), np.geomspace(12.0, 1e3, 40)])
    return np.concatenate([xs, -xs])


def _same_bits(a, b):
    return np.asarray(a).dtype == np.asarray(b).dtype and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5", "subexp:0.3"])
@pytest.mark.parametrize("w", [1.0, 0.25, 0.02])
def test_scalar_route_matches_the_array_route_bit_for_bit(law, w):
    # A one-point answer runs the level stage, the quantile and the U/L
    # assembly on numpy scalars; every output equals the array pass's, in
    # both of _levels' selections (masked copies and 0/1 products), with
    # every warning an error.  A numpy scalar's ** rounds unlike the array
    # power (subexp:0.3 takes gammaincc, and kg reads the density's power),
    # so a route that raised scalars to eta would differ in kg, sk and r.
    rng = np.random.default_rng(4101)
    for lam in (0.5, 3.0):
        cfg = PriorConfig(parse_dist_spec(law), lam, w, 0.05)
        xs = _scalar_route_points(cfg, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small = hpd_mod._endpoint_pass(cfg, xs)
            big = hpd_mod._endpoint_pass(cfg, np.tile(xs, -(-hpd_mod._PRODUCTS_MIN // xs.size)))
            points = [hpd_mod._pass(cfg, np.float64(x)) for x in xs]
            sets = [hpd_set(cfg, float(x)) for x in xs]
        assert xs.size < hpd_mod._PRODUCTS_MIN <= big[0].size
        for i, (x, point, hs) in enumerate(zip(xs, points, sets)):
            up, low, code, r, kg, sk = point
            assert isinstance(up, float) and isinstance(code, np.int8)
            for table in (small, big):
                assert all(_same_bits(v, col[i]) for v, col in zip((up, low, code, r), table)), (lam, x)
                assert kg is table[4] is None or (_same_bits(kg, table[4][i]) and _same_bits(sk, table[5][i])), (lam, x)
            assert _same_bits(hs.upper, float(up)) and _same_bits(hs.lower, float(low)) and hs.regime == code
            assert hs.atom_mass == (0.0 if kg is None else float(small[4][i] / small[5][i]))


def _array_fixed_point(cfg, theta0):
    """smallest_lower_inverse's iteration on one-element arrays (no validity check)."""
    a = float(theta0)
    while True:
        nxt = theta0 + float(cfg.dist.ppf_upper(posterior_mod.tail_levels(cfg, np.array([a]))[3])[0])
        if abs(nxt - a) <= max(1e-12, 16.0 * math.ulp(a)):
            return nxt
        a = nxt


@pytest.mark.parametrize("law", ["gaussian", "laplace", "t3", "subexp:0.5", "subexp:0.3"])
def test_fixed_point_steps_on_scalars_match_the_array_steps(law):
    # Each step of smallest_lower_inverse runs on numpy scalars; the answer
    # is that of the same iteration on one-element arrays, bit for bit.
    for lam, w in ((0.5, 1.0), (3.0, 0.25), (2.0, 0.02)):
        cfg = PriorConfig(parse_dist_spec(law), lam, w, 0.05)
        for theta0 in (max(lam, cfg.t_alpha) + 0.5, 9.0, 1e3, 2.0**21):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = smallest_lower_inverse(cfg, theta0)
            assert _same_bits(got, _array_fixed_point(cfg, theta0)), (lam, w, theta0)


def test_fixed_point_agrees_with_scan():
    cfg = config("laplace", 5.0, 1.0)
    for theta0 in (6.0, 9.5, 14.0):
        fp = smallest_lower_inverse(cfg, theta0)
        assert lower_values(cfg, fp)[0] == pytest.approx(theta0, abs=1e-8)
        assert fp == pytest.approx(invert_lower(cfg, theta0).inf, abs=1e-6)


def test_fixed_point_domain_validation():
    cfg = config("laplace", 5.0, 1.0)
    with pytest.raises(ValueError):
        smallest_lower_inverse(cfg, 4.0)


def test_smallest_lower_inverse_far_beyond_band():
    # Tiny alpha far beyond the band puts q1 near 1e-7..1e-4 relative to 1/2;
    # formed as 0.5 - 0.5((1 - alpha) s - alpha kg) it kept only an absolute
    # 5.5e-17, and the noise in r1 made these iterates decrease.
    for spec, lam, alpha, theta0 in [
        ("t3", 5.21, 2.1877616239495517e-06, 15.7),
        ("t3", 0.95, 1.0232929922807536e-05, 7.03),
        ("t3", 21.58, 1.7378008287493763e-06, 48.43),
        ("subexp:0.5", 11.25, 0.0004570881896148752, 34.81),
        ("subexp:0.5", 0.58, 0.001174897554939529, 4.21),
        ("subexp:0.5", 24.4, 1.698243652461746e-06, 28.41),
    ]:
        cfg = PriorConfig(parse_dist_spec(spec), lam, 1.0, alpha)
        fp = smallest_lower_inverse(cfg, theta0)
        assert abs(theta0 + hpd_radii(cfg, fp)[0] - fp) <= 1e-12 * fp
        assert lower_values(cfg, fp)[0] == pytest.approx(theta0, abs=1e-9 * fp)


@pytest.mark.parametrize(
    "lam, w, alpha, theta0",
    [
        (1e-9, 1.0, 0.030353122584999018, 95.89410169913609),
        (7.7486914687624076, 1.0, 0.0006393843659594056, 32.507182078635864),
        (2.152255437951143, 0.25, 3.144199700946498e-05, 3.335361059954863),
    ],
)
def test_smallest_lower_inverse_stops_at_the_rounding_noise_of_a_large_answer(lam, w, alpha, theta0):
    # Answers of 916, 4435 and 10228: late iterates flip by a few ulps of the
    # answer (+-1.02e-12 about 915.85506806246 in the first), more than the
    # absolute 1e-12 that the stop rule and the decrease guard used to allow,
    # so each call raised "fixed-point iterates decreased".
    cfg = PriorConfig(parse_dist_spec("subexp:0.3"), lam, w, alpha)
    got = smallest_lower_inverse(cfg, theta0)
    root = invert_lower(cfg, theta0).inf
    assert got > 512.0 and abs(got - root) <= 16.0 * math.ulp(root)


def test_smallest_lower_inverse_decrease_guard_scales_with_the_answer(monkeypatch):
    # r1 is replaced by a scripted sequence.  At a = 4096 a step back of 10
    # ulps (9.1e-12) is rounding noise and ends the iteration; a step back of
    # 2 at a = 11 is a genuine decrease and still raises.
    cfg = config("laplace", 5.0, 1.0)
    radii = iter([4088.0, 4088.0 - 10.0 * math.ulp(4096.0)])
    monkeypatch.setattr(cfg.dist, "ppf_upper", lambda q: np.float64(next(radii)))  # steps run on scalars
    assert smallest_lower_inverse(cfg, 8.0) == 4096.0 - 10.0 * math.ulp(4096.0)
    radii = iter([3.0, 1.0])
    with pytest.raises(RuntimeError, match=r"^fixed-point iterates decreased at a = 11\.0$"):
        smallest_lower_inverse(cfg, 8.0)


def _validity_sweep():
    """(law, lam, w, alpha) over five laws: lam up to 50, w from 1 down to
    1e-9, alpha from 1e-6 to 0.5, and atoms that hold beyond the 2^20
    bracket cap (t_alpha = +inf)."""
    rng = np.random.default_rng(3901)
    for law in ["gaussian", "laplace", "t3", "subexp:0.5", "subexp:0.3"]:
        for i in range(12):
            lam = 0.0 if i == 0 else float(rng.uniform(0.0, 50.0))
            w = 1.0 if i % 4 == 1 else float(10.0 ** rng.uniform(-9.0, -0.1))
            yield law, lam, w, float(10.0 ** rng.uniform(-6.0, math.log10(0.5)))
    yield "t3", 1.0, 1e-30, 0.05
    yield "subexp:0.3", 3.0, 1e-300, 0.01


def test_smallest_lower_inverse_validity_reads_the_atom_margin():
    # A call is valid where theta0 > max(lam, t_alpha); the atom margin of
    # the first step's tail levels decides it, so a valid call never solves
    # t_alpha.  theta0 runs over lam, t_alpha, their float neighbours and
    # values past the bracket cap (where a +inf t_alpha's atom still holds).
    inf_seen = 0
    for law, lam, w, alpha in _validity_sweep():
        dist = parse_dist_spec(law)
        edge = max(lam, PriorConfig(dist, lam, w, alpha).t_alpha)
        inf_seen += edge == math.inf
        thetas = {lam, math.nextafter(lam, math.inf), 2.0**21, 3e6}
        if math.isfinite(edge):
            thetas |= {edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf), edge + 0.5}
        for theta0 in sorted(thetas):
            cfg = PriorConfig(dist, lam, w, alpha)
            if theta0 > edge:
                fp = smallest_lower_inverse(cfg, theta0)
                assert "t_alpha" not in vars(cfg) and fp >= theta0, (law, lam, w, alpha, theta0)
            else:
                want = f"theta0 = {theta0} must exceed max(lam, t_alpha) = {edge}"
                with pytest.raises(ValueError) as err:
                    smallest_lower_inverse(cfg, theta0)
                assert str(err.value) == want
    assert inf_seen == 2


def test_smallest_lower_inverse_answers_past_a_saturated_bracket():
    # t3, w 1e-30: the atom holds out to about 6.4e7, past the 2^20 bracket
    # cap, so t_alpha reads +inf; at theta0 = 1e8 the margin is negative and
    # the fixed point is a valid answer, which the t_alpha rule refused.
    cfg = PriorConfig(parse_dist_spec("t3"), 1.0, 1e-30, 0.05)
    fp = smallest_lower_inverse(cfg, 1e8)
    assert cfg.t_alpha == math.inf
    assert lower_values(cfg, fp)[0] == pytest.approx(1e8, rel=1e-12)


def test_onesided_requires_pure_slab():
    cfg = config("laplace", 1.0, 0.5)
    with pytest.raises(ValueError):
        onesided_upper_endpoint(cfg, 2.0)
    with pytest.raises(ValueError):
        onesided_lower_endpoint(cfg, 2.0)


def test_onesided_pinned_radius_at_band_edge():
    # At x = lam the truncated-interval radius is G^{-1}(1 - alpha/2).
    cfg = config("laplace", 5.0, 1.0)
    _, r2 = onesided_radii(cfg, 5.0)
    assert float(r2) == pytest.approx(float(cfg.dist.ppf(0.975)), abs=1e-12)


def test_onesided_far_right_matches_symmetric_width():
    cfg = config("gaussian", 0.5, 1.0)
    x = 40.0
    assert float(onesided_upper_endpoint(cfg, x)) - x == pytest.approx(
        float(cfg.dist.ppf(0.975)), abs=1e-9
    )


def test_onesided_lower_always_at_least_band_edge():
    cfg = config("laplace", 0.5, 1.0)
    xs = np.linspace(-10.0, 10.0, 301)
    assert np.all(onesided_lower_endpoint(cfg, xs) >= 0.5)


def test_onesided_set_inside_two_sided_set():
    # On x >= 0 in the outer regimes the one-sided interval sits inside
    # the two-sided one.
    cfg = config("laplace", 5.0, 1.0)
    xs = np.linspace(2.0, 16.0, 400)
    codes = regime_codes(cfg, xs)
    keep = (codes == Regime.I) | (codes == Regime.II)
    u2, l2 = endpoint_values(cfg, xs)
    u1 = onesided_upper_endpoint(cfg, xs)
    l1 = onesided_lower_endpoint(cfg, xs)
    assert np.all(u1[keep] <= u2[keep] + 1e-10)
    assert np.all(l1[keep] >= l2[keep] - 1e-10)
