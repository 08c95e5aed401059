import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from hpdcover import check_tail_decay, interval_mass, make_distribution
from hpdcover.distributions import SubExponential

ALL_NAMES = ["gaussian", "laplace", "t3", "subexp"]


def build(name):
    return make_distribution(name, eta=0.7) if name == "subexp" else make_distribution(name)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cdf_symmetry(name):
    d = build(name)
    q = np.linspace(-30.0, 30.0, 1501)
    assert np.max(np.abs(d.cdf(q) + d.cdf(-q) - 1.0)) <= 1e-12


@pytest.mark.parametrize("name", ALL_NAMES)
def test_quantile_inverts_cdf(name):
    d = build(name)
    p = np.concatenate([np.geomspace(1e-8, 0.5, 300), 1.0 - np.geomspace(1e-8, 0.4999, 300)])
    assert np.max(np.abs(d.cdf(d.ppf(p)) - p)) <= 1e-10


@pytest.mark.parametrize("name", ALL_NAMES)
def test_quantile_symmetry(name):
    # 1 - p is only float-representable to ~1e-16, which maps to ~1e-10 of
    # quantile error at p = 1e-5 for the heaviest tail here; stay inside that.
    d = build(name)
    lo = 1e-5 if name == "t3" else 1e-6
    p = np.geomspace(lo, 0.5, 300)
    assert np.max(np.abs(d.ppf(p) + d.ppf(1.0 - p))) <= 1e-9


@pytest.mark.parametrize("name", ALL_NAMES)
def test_density_strictly_decreasing_on_positive_axis(name):
    d = build(name)
    x = np.linspace(0.0, 25.0, 2000)
    g = d.pdf(x)
    assert np.all(np.diff(g) < 0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_density_integrates_to_one(name):
    d = build(name)
    total, _ = integrate.quad(lambda u: float(d.pdf(u)), -np.inf, np.inf, limit=200)
    assert abs(total - 1.0) <= 1e-8


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cdf_derivative_matches_density(name):
    # 400 points so the grid skips x = 0 exactly: densities with an |x| kink
    # there (laplace, subexp) only admit O(h) central differences at the corner.
    d = build(name)
    x = np.linspace(-10.0, 10.0, 400)
    h = 1e-5
    deriv = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h)
    assert np.max(np.abs(deriv - d.pdf(x))) <= 1e-6


def test_laplace_closed_forms():
    d = make_distribution("laplace")
    assert float(d.cdf(0.0)) == pytest.approx(0.5, abs=0)
    # G^{-1}(p) = -ln(2(1-p)) on the upper half; at p = 0.975 this is ln 20.
    assert float(d.ppf(0.975)) == pytest.approx(math.log(20.0), abs=1e-12)
    x = np.linspace(-3.0, 0.0, 50)
    assert np.max(np.abs(d.cdf(x) - 0.5 * np.exp(x))) <= 1e-15


def test_laplace_density_quantile_identity():
    # g(G^{-1}(p)) = 1 - p on the upper half line.
    d = make_distribution("laplace")
    p = np.linspace(0.5, 1.0 - 1e-9, 500)
    assert np.max(np.abs(d.pdf(d.ppf(p)) - (1.0 - p))) <= 1e-12


def test_gaussian_cdf_against_erf_oracle():
    d = make_distribution("gaussian")
    assert float(d.cdf(1.959964)) == pytest.approx(0.975, abs=1e-6)
    xs = np.linspace(-8.0, 8.0, 161)
    oracle = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in xs])
    assert np.max(np.abs(d.cdf(xs) - oracle)) <= 1e-12


def test_subexp_eta_one_is_laplace():
    d = make_distribution("subexp", eta=1.0)
    lap = make_distribution("laplace")
    x = np.linspace(-12.0, 12.0, 401)
    assert np.max(np.abs(d.pdf(x) - lap.pdf(x))) <= 1e-12
    assert np.max(np.abs(d.cdf(x) - lap.cdf(x))) <= 1e-12


def test_t3_closed_form_cdf():
    # Student t(3) CDF: 1/2 + (u/(1+u^2) + atan u)/pi with u = x/sqrt(3);
    # cross-check by quadrature of the density.
    d = make_distribution("t3")
    for x in (-4.0, -1.0, 0.3, 2.5):
        mass, _ = integrate.quad(lambda u: float(d.pdf(u)), -np.inf, x, limit=200)
        assert float(d.cdf(x)) == pytest.approx(mass, abs=1e-9)
    assert d.tail_gamma is None and d.tail_cstar is None


def test_ppf_upper_matches_complement():
    d = make_distribution("laplace")
    q = np.geomspace(1e-12, 0.4, 100)
    assert np.max(np.abs(d.cdf(d.ppf_upper(q)) - (1.0 - q))) <= 1e-12


@given(st.floats(-30.0, 30.0))
@settings(max_examples=200, deadline=None)
def test_gaussian_symmetry_property(q):
    d = make_distribution("gaussian")
    assert abs(float(d.cdf(q)) + float(d.cdf(-q)) - 1.0) <= 1e-12


def test_make_distribution_errors():
    with pytest.raises(ValueError):
        make_distribution("cauchy")
    with pytest.raises(ValueError):
        make_distribution("subexp")
    with pytest.raises(ValueError):
        make_distribution("subexp", eta=1.5)
    with pytest.raises(ValueError):
        make_distribution("subexp", eta=float("nan"))
    with pytest.raises(ValueError):
        make_distribution("gaussian", eta=0.5)


def test_interval_mass_tail_accuracy():
    d = make_distribution("laplace")
    # Mass of [20, 21]: exact value (e^-20 - e^-21)/2.
    got = float(interval_mass(d, 20.0, 21.0))
    assert got == pytest.approx(0.5 * (math.exp(-20.0) - math.exp(-21.0)), rel=1e-12)
    assert float(interval_mass(d, -np.inf, np.inf)) == pytest.approx(1.0, abs=0)
    assert float(interval_mass(d, -1.0, 2.0)) == pytest.approx(
        float(d.cdf(2.0) - d.cdf(-1.0)), abs=1e-15
    )


def test_tail_decay_laplace_pass_and_fail():
    d = make_distribution("laplace")
    t = np.geomspace(1e-6, 0.5, 61)
    ok = check_tail_decay(d, gamma=0.4, cstar=4.0, t_grid=t)
    assert ok.passed
    bad = check_tail_decay(d, gamma=0.9, cstar=4.0, t_grid=t)
    assert not bad.passed
    assert not bad.t_pass[0]  # diverges at small t


def test_tail_decay_half_point_with_doubling_constant():
    # At t = 1/2 the first inequality reads G(0) = 1/2 < cstar * 2^-(1+gamma),
    # which any cstar >= 2^(1+gamma) satisfies.
    for name in ("gaussian", "laplace"):
        d = build(name)
        gamma = 0.4
        rep = check_tail_decay(d, gamma=gamma, cstar=2.0 ** (1.0 + gamma), t_grid=[0.5])
        assert rep.t_pass.all()


def test_default_certificates_verify():
    for name in ("gaussian", "laplace", "subexp"):
        d = build(name)
        rep = check_tail_decay(
            d,
            d.tail_gamma,
            d.tail_cstar,
            t_grid=np.concatenate([np.geomspace(1e-9, 0.5, 120), np.linspace(0.5, 1 - 1e-6, 80)]),
            x_grid=np.linspace(0.0, 30.0, 301),
        )
        assert rep.passed, (name, rep.max_t_ratio, rep.max_x_ratio)


def test_tail_decay_validation_errors():
    d = make_distribution("laplace")
    with pytest.raises(ValueError):
        check_tail_decay(d, gamma=-0.1, cstar=1.0)
    with pytest.raises(ValueError):
        check_tail_decay(d, gamma=0.4, cstar=float("inf"))
    with pytest.raises(ValueError):
        check_tail_decay(d, gamma=0.4, cstar=1.0, t_grid=[])
    with pytest.raises(ValueError):
        check_tail_decay(d, gamma=0.4, cstar=1.0, t_grid=[0.5, 1.5])


def test_subexp_shape_validation_matches_prior_config_rule():
    # Booleans are not shapes; numpy real scalars are.
    for bad in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="finite real number"):
            SubExponential(bad)
    d = SubExponential(np.float32(0.5))
    assert d.eta == 0.5 and type(d.eta) is float
    assert float(d.ppf(0.1)) == float(SubExponential(0.5).ppf(0.1))


# --- quantiles against a high-precision oracle -------------------------------
# Each oracle factory is called inside the working precision and returns
# lower(ax) -> (G(-ax), g(ax)) as mpmath numbers at that precision.


def _t3_tail():
    sqrt3, two_pi = mpmath.sqrt(3), 2 * mpmath.pi
    norm = 2 / (mpmath.pi * sqrt3)

    def lower(ax):
        # G(-|x|) = (psi - sin psi) / (2 pi) with psi = 2 atan(sqrt(3) / |x|)
        psi = 2 * mpmath.atan(sqrt3 / ax)
        return (psi - mpmath.sin(psi)) / two_pi, norm / (1 + ax * ax / 3) ** 2

    return lower


def _erlang_tail(k):
    def make():
        inv_fact = [1 / mpmath.factorial(j) for j in range(k + 1)]

        def lower(ax):
            # G(-|x|) = exp(-y) sum_{j<k} y^j / j! / 2 with y = |x|**(1/k)
            y = mpmath.root(ax, k)
            partial = inv_fact[k - 1]
            for c in reversed(inv_fact[: k - 1]):
                partial = partial * y + c
            e = mpmath.exp(-y)
            return e * partial / 2, e * inv_fact[k] / 2

        return lower

    return make


ORACLES = {"t3": _t3_tail, "subexp:0.5": _erlang_tail(2), "subexp:1/3": _erlang_tail(3)}


def _law(spec):
    if spec == "t3":
        return make_distribution("t3")
    return SubExponential(0.5 if spec == "subexp:0.5" else 1.0 / 3.0)


def _oracle_errors(d, make_lower, p):
    """|ppf(p) - x_ref| / max(1, |x_ref|), x_ref one high-precision Newton step.

    From |x| within 1e-14 relative of the root, one Newton step on the tail
    mass leaves an error of order 1e-28; the working precision adds the
    digits that psi - sin(psi) cancels at the smallest tail mass.
    """
    x = d.ppf(p)
    q = np.minimum(p, 1.0 - p)  # exact: 1 - p is a double for p >= 1/2
    ref = np.empty_like(x)
    with mpmath.workdps(30 + int(-math.log10(q.min()))):
        lower = make_lower()
        for i, (qi, xi) in enumerate(zip(q.tolist(), x.tolist())):
            ax = abs(mpmath.mpf(xi))
            mass, dens = lower(ax)
            ref[i] = math.copysign(float(ax - (qi - mass) / dens), xi)
    return np.abs(x - ref) / np.maximum(1.0, np.abs(ref))


@pytest.mark.parametrize("spec", sorted(ORACLES))
def test_quantile_against_mpmath_oracle(spec):
    d = _law(spec)
    tail = np.geomspace(1e-300, 0.5, 400)
    tail = tail[tail < 0.5]  # x = 0 at p = 1/2 is checked exactly below
    upper = 1.0 - tail[tail > 1e-16]  # the upper tail as far as 1 - p is a double
    uniforms = np.random.default_rng(20261018).random(100_000)
    for p in (np.concatenate([tail, upper]), uniforms):
        err = _oracle_errors(d, ORACLES[spec], p)
        worst = int(np.argmax(err))
        assert err[worst] <= 1e-14, (p[worst], err[worst])


@pytest.mark.parametrize("name", ALL_NAMES + ["subexp:0.5", "subexp:1/3"])
def test_quantile_edge_values_without_warnings(name):
    d = _law(name) if ":" in name else build(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = d.ppf(np.array([0.0, 1.0, 0.5]))
        scalars = [float(d.ppf(v)) for v in (0.0, 1.0, 0.5)]
    for values in (got.tolist(), scalars):
        assert values[0] == -np.inf and values[1] == np.inf and values[2] == 0.0


@pytest.mark.parametrize("name", ALL_NAMES + ["subexp:0.5", "subexp:1/3"])
def test_values_do_not_depend_on_array_size(name):
    # Scalars, short arrays (solved element by element) and long ones (solved
    # in blocks) give the same bits for the same input.
    d = _law(name) if ":" in name else build(name)
    rng = np.random.default_rng(77)
    p = np.concatenate([np.geomspace(1e-300, 0.5, 300), rng.random(40_000)])
    x = d.ppf(p)
    g = d.cdf(x)
    for n in (1, 2, 5, 9):
        head = slice(0, 360 - 360 % n)
        assert np.array_equal(np.concatenate([d.ppf(c) for c in np.split(p[head], 360 // n)]), x[head])
        assert np.array_equal(np.concatenate([d.cdf(c) for c in np.split(x[head], 360 // n)]), g[head])
    for i in (0, 7, 150, 299, 300, 20_000):
        assert float(d.ppf(float(p[i]))) == x[i]
        assert float(d.cdf(float(x[i]))) == g[i]


@pytest.mark.parametrize("eta", [0.7, 0.3])
def test_non_integer_shape_uses_scipy_incomplete_gamma_unchanged(eta):
    # Reference: the incomplete-gamma formulas, operation for operation.
    d = SubExponential(eta)
    x = np.concatenate([np.linspace(-60.0, 60.0, 4001), [0.0, -1e4, 1e4, -np.inf, np.inf]])
    lower = 0.5 * special.gammaincc(1.0 / eta, np.abs(x) ** eta)
    assert np.array_equal(d.cdf(x), np.where(x <= 0, lower, 1.0 - lower))
    p = np.concatenate([np.geomspace(1e-300, 0.5, 500), np.random.default_rng(3).random(4000)])
    q = np.where(p <= 0.5, p, 1.0 - p)
    r = special.gammainccinv(1.0 / eta, 2.0 * q) ** (1.0 / eta)
    assert np.array_equal(d.ppf(p), np.where(p <= 0.5, -r, r))


@pytest.mark.parametrize("k", [2, 3])
def test_erlang_cdf_closed_form(k):
    # Against the same closed form in 40 digits at the same y = |x|**eta, and
    # against scipy's gammaincc, whose own error reaches 8.5e-15 near y = 82.
    d = SubExponential(1.0 / k)
    x = np.concatenate([-np.geomspace(1e-6, 1e4, 1500), np.linspace(-1e4, 0.0, 1501)])
    got = d.cdf(x)
    y = np.abs(x) ** d.eta

    def closed_form(v):
        v = mpmath.mpf(v)
        return float(mpmath.exp(-v) * mpmath.fsum(v**j / mpmath.factorial(j) for j in range(k)) / 2)

    with mpmath.workdps(40):
        exact = np.array([closed_form(v) for v in y.tolist()])
    assert np.max(np.abs(got / exact - 1.0)) <= 5e-16
    assert np.max(np.abs(got / (0.5 * special.gammaincc(k, y)) - 1.0)) <= 1e-14
    assert np.array_equal(d.cdf(np.array([-np.inf, np.inf])), [0.0, 1.0])


def test_t3_cdf_keeps_relative_accuracy_in_the_tail():
    # G(-|x|) through psi - sin(psi), not 1/2 + (u/(1+u^2) + atan u)/pi,
    # which cancels to an absolute 1e-16 error far out.
    d = make_distribution("t3")
    x = np.concatenate([-np.geomspace(1e-3, 1e90, 600), np.linspace(-5.0, 0.0, 101)])
    got = d.cdf(x)

    def exact(v):
        v = mpmath.mpf(v)
        with mpmath.workdps(40 + int(3.2 * mpmath.log10(abs(v) + 1))):
            u = v / mpmath.sqrt(3)
            return float(mpmath.mpf(1) / 2 + (u / (1 + u * u) + mpmath.atan(u)) / mpmath.pi)

    ref = np.array([exact(v) for v in x.tolist()])
    assert np.max(np.abs(got / ref - 1.0)) <= 2e-15
