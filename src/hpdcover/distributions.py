"""Symmetric unimodal error distributions with density, CDF, and quantile.

Every model here has a positive continuous density on the real line,
symmetric about zero and strictly decreasing on (0, inf).  The CDF folds the
lower tail G(-t), t >= 0, of ``lower_tail`` about zero (the gaussian keeps
ndtr), so lower_tail(t) is cdf(-t) bit for bit.  CDFs are accurate
to better than 1e-12 absolute; the t3 one and the sub-exponential one at
integer 1/eta <= 3 keep about 1e-15 relative accuracy in the lower tail.
Quantiles are solved on the tail mass q = min(p, 1 - p), so tiny tails keep
relative accuracy.  The Student t3 quantile and the sub-exponential one at
integer 1/eta <= 3 are closed-form starts followed by a fixed number of
Halley steps; against a 30-digit mpmath oracle they are within
1e-14 * max(1, |x|) for p log-spaced over [1e-300, 1 - 1e-16] and for seeded
uniforms (measured: at most 2.2e-15).  All evaluators accept scalars or numpy
arrays.

``tail_gamma`` / ``tail_cstar``, when set, certify the essentially
exponential tail condition

    G(1.5 * G^{-1}(t)) < cstar * t**(1 + gamma)   for t in (0, 1),
    g(x) <= cstar * (1 - G(x))**gamma             for x >= 0,

which downstream coverage-bound checks require: cstar * alpha**(1 + gamma)
is the slack that checks (b) and (c) of coverage.check_coverage_bounds
grade against.  Polynomial-tail models (Student t) carry no certificate and
are skipped by those checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "Distribution",
    "Gaussian",
    "Laplace",
    "StudentT3",
    "SubExponential",
    "make_distribution",
    "check_tail_decay",
    "TailDecayReport",
    "interval_mass",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT3 = math.sqrt(3.0)

# Taylor coefficients of (psi - sin psi) / psi**3 in psi**2, highest first:
# eight terms reach 1e-17 relative at psi = 1, the cut below which the t3 CDF
# and quantile use the series because psi - sin psi cancels.
_KEPLER_SERIES = tuple((-1) ** j / math.factorial(2 * j + 3) for j in reversed(range(8)))
_KEPLER_CUT = 1.0

# Shapes k = 1/eta that are integers up to this value use the Erlang closed
# form Q(k, y) = exp(-y) * sum_{j<k} y**j / j! for the CDF and the quantile;
# other shapes go through scipy's gammaincc / gammainccinv.  Measured against
# a 30-digit mpmath oracle (p log-spaced over [1e-300, 0.5] and 20000 seeded
# uniforms), the closed-form quantile is within 2.1e-15 * max(1, |x|) at
# k = 3 (gammainccinv 2.9e-15) but only 1.05e-14 at k = 4 (gammainccinv
# 3.5e-15), where log Q cancels near the centre.  Speed is not the limit:
# at k = 4 the closed form takes 132 against 700 ns/elem at 2^20 elements.
_ERLANG_MAX_SHAPE = 3
# Beyond this y, Q(k, y) rounds to zero for every k <= _ERLANG_MAX_SHAPE;
# capping y there keeps exp(-y) * S(y) from forming 0 * inf at |x| = inf.
_ERLANG_Y_CAP = 1e3
# The smallest subexp shape: below eta = 0.00976 (bisected) ppf(1e-300) =
# -y**(1/eta) overflows, below 0.0058 Gamma(1/eta) does; from 0.01 on, ppf,
# cdf and tail_cstar are finite and warning-free for p in [1e-300, 1 - 1e-16].
_SUBEXP_MIN_ETA = 0.01

# The closed-form kernels and the uniform stream (uniform_blocks) run on
# blocks of this many elements, which keeps temporaries in cache and out of
# peak memory.
# Monte Carlo curves over four laws x lam 0.5/5 (w 1, theta0 = lam + 0.5, 1,
# 2, 4) at 1e6 draws, best of 5 on a 2-vCPU VM, take 4.55 s on one thread and
# 2.63 s on two in blocks of 2^16, against 4.31 and 3.23 s in blocks of 2^14,
# where the Python work per block holds the GIL, and 7.62 and 4.06 s on whole
# 2^20-draw chunks (one-thread runs spread by up to 25%, so 2^14 and 2^16 tie
# there).  The kernels alone hardly care: t3 ppf at 2^20 elements takes 60
# ns/elem and peaks at 21.7 MB in blocks of 2^16, against 60 and 18.1 MB in
# blocks of 2^14.
# Arrays of up to _SCALAR_MAX elements go element by element as numpy
# scalars, which skips most of the per-call cost of array ufuncs: t3 ppf takes
# 8 us on a numpy scalar, 13 at one element and 29 at four, against 36-61 us
# by array ufuncs (subexp(0.5): 9, 17 and 37 against 46-48 us).
_BLOCK = 1 << 16
_SCALAR_MAX = 4
# uniform_blocks takes the uniforms of this many draws from one Philox stream;
# Monte Carlo results depend on it, so it is fixed, not a setting.
_CHUNK = 1 << 20


def _is_real(value) -> bool:
    """Python or numpy real scalar; booleans are not numbers here."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _where(cond, a, b):
    """np.where that keeps numpy scalars scalar, so one solver serves both."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _out(buf):
    """out= of an in-place ufunc: buf on arrays, None (a new scalar) on numpy scalars."""
    return buf if isinstance(buf, np.ndarray) else None


def _put(b, a, cond):
    """b with a where cond: np.copyto into an array b, a new numpy scalar otherwise."""
    return np.copyto(b, a, where=cond) or b if isinstance(b, np.ndarray) else (a if cond else b)


def _elementwise(fn, a, *args):
    """fn(a, *args) over the flat array a (or a numpy scalar), in blocks or element by element.

    fn is elementwise, so neither way changes a bit: numpy scalars run the
    same ufunc loops as arrays, and blocks keep fn's temporaries small.
    """
    if not isinstance(a, np.ndarray):
        return fn(a, *args)
    if a.size <= _SCALAR_MAX:
        return np.array([fn(v, *args) for v in a], dtype=float)
    out = np.empty_like(a)
    for i in range(0, a.size, _BLOCK):
        out[i : i + _BLOCK] = fn(a[i : i + _BLOCK], *args)
    return out


def _kepler(psi):
    """psi - sin(psi) by its Taylor series; accurate for |psi| <= _KEPLER_CUT."""
    z = psi * psi
    acc = _KEPLER_SERIES[0] * z + _KEPLER_SERIES[1]
    for c in _KEPLER_SERIES[2:]:
        acc = acc * z + c
    return acc * z * psi


def _psi_minus_sin(psi, sin_psi):
    """psi - sin(psi) given sin(psi); the Taylor series below _KEPLER_CUT, where
    the difference cancels (evaluated only there)."""
    if np.ndim(psi) == 0:
        return _kepler(psi) if psi < _KEPLER_CUT else psi - sin_psi
    out = psi - sin_psi
    small = np.flatnonzero(psi < _KEPLER_CUT)
    if small.size:
        out[small] = _kepler(psi[small])
    return out


def _t3_half_tail(ax):
    """G(-|x|) = (psi - sin psi) / (2 pi), psi = 2 arctan(tau), tau = sqrt(3) / |x|.

    sin psi = 2 / (tau + 1 / tau) holds at tau = 0 and inf too; below
    psi = _KEPLER_CUT the Taylor series keeps the tail mass relatively exact.
    """
    tau = _SQRT3 / ax
    psi = 2.0 * np.arctan(tau)
    return _psi_minus_sin(psi, 2.0 / (tau + 1.0 / tau)) / (2.0 * math.pi)


def _t3_tail_root(q):
    """|x| with G(-|x|) = q for Student t3, from Kepler's equation at e = 1.

    psi - sin(psi) = 2 pi q with psi = 2 arctan(sqrt(3) / |x|): Lagrange
    series start, then two Halley steps in t = tan(psi / 2), where
    sin psi = 2t / (1 + t^2) and f' = 1 - cos psi = 2t^2 / (1 + t^2).
    """
    c = (2.0 * math.pi) * q
    s = np.cbrt(6.0 * c)
    z = s * s
    psi = s * (1.0 + z * (1.0 / 60.0 + z * (1.0 / 1400.0 + z * (1.0 / 25200.0))))
    for _ in range(2):
        t = np.tan(0.5 * psi)
        u = t * t + 1.0
        d = (_psi_minus_sin(psi, 2.0 * t / u) - c) * u / (2.0 * t * t)  # Newton step f / f'
        # Halley: psi -= d / (1 - d f'' / (2 f')), and f'' / (2 f') = 1 / (2t)
        t = 2.0 * t
        psi = psi - t * d / (t - d)
    return _SQRT3 / np.tan(0.5 * psi)


def _erlang_partial_sum(y, k: int):
    """S(y) - 1 = sum_{1 <= j < k} y**j / j!, by Horner."""
    acc = 0.0 * y
    for j in range(k - 1, 0, -1):
        acc = (acc + 1.0) * y / j
    return acc


def _erlang_half_tail(y, k: int):
    """Q(k, y) / 2 = exp(-y) S(y) / 2, the lower-tail mass at |x| = y**k."""
    y = np.minimum(y, _ERLANG_Y_CAP)
    return 0.5 * np.exp(-y) * (1.0 + _erlang_partial_sum(y, k))


def _erlang_tail_root(q, k: int):
    """y >= 0 with Q(k, y) = 2q, by three Halley steps on log Q.

    With v = -log(2q) the equation reads y - log S(y) = v.  The start is the
    centre series y = s (1 + s / (k + 1)), s = (k! v)**(1/k), for v < 2, and
    one fixed-point sweep y = v + log S(v) beyond; from either, three steps
    reach the accuracy floor of the log-Q residual for k <= 3.
    """
    v = -np.log(2.0 * q)
    s = np.power(math.factorial(k) * v, 1.0 / k)
    y = _where(v < 2.0, s * (1.0 + s / (k + 1)), v + np.log1p(_erlang_partial_sum(v, k)))
    for _ in range(3):
        s1 = _erlang_partial_sum(y, k)
        ratio = 1.0 / math.factorial(k - 1)
        for _ in range(k - 1):
            ratio = ratio * y
        ratio = ratio / (1.0 + s1)  # T / S = -f', with T = y**(k-1) / (k-1)!
        step = (np.log1p(s1) - y + v) / ratio  # Newton step -f / f'
        curv = (k - 1) / y + ratio - 1.0  # f'' / f'
        y = y + step / (1.0 + 0.5 * step * curv)
    return y


def _float(x):
    """x as a float array; a numpy float64 stays a scalar."""
    return x if isinstance(x, np.float64) else np.asarray(x, float)


def _tail_mass(p):
    """(p, q = min(p, 1 - p)) for a quantile: a numpy float64 p stays one, else a float array, q flat."""
    p = _float(p)
    return (p, min(p, 1.0 - p)) if isinstance(p, np.float64) else (p, np.minimum(p, 1.0 - p).reshape(-1))


def _signed_quantile(p, q, mag):
    """Quantile from its magnitude on the tail mass q = min(p, 1 - p).

    ``q`` and ``mag`` are the flattened arrays of a tail solver (or numpy
    scalars); the ends and the centre, where the solvers divide zero by
    zero, are set exactly: q = 0 gives infinity, q = 1/2 gives 0, and p
    outside [0, 1] gives NaN.
    """
    if not isinstance(mag, np.ndarray):
        mag = np.float64(np.inf if q == 0.0 else 0.0 if q == 0.5 else np.nan if q < 0.0 else mag)
        return -mag if p < 0.5 else mag
    mag[q == 0.0] = np.inf
    mag[q == 0.5] = 0.0
    mag[q < 0.0] = np.nan
    np.negative(mag, out=mag, where=(p < 0.5).reshape(-1))
    return mag.reshape(p.shape)


class Distribution:
    """Base class for the symmetric unimodal error models: a law gives pdf, ppf
    and lower_tail(t) = G(-t) at magnitudes t >= 0 (NaN stays NaN)."""

    name: str = "distribution"
    tail_gamma: float | None = None
    tail_cstar: float | None = None

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        """G(x) from the lower tail at |x|: G(-|x|) for x <= 0, else 1 - G(-|x|)."""
        x = np.asarray(x, float)
        lower = self.lower_tail(np.abs(x))
        return np.where(x <= 0, lower, 1.0 - lower)

    def ppf(self, p):
        """Quantile G^{-1}(p) for p in (0, 1)."""
        raise NotImplementedError

    def ppf_upper(self, q):
        """Upper-tail quantile, the x with 1 - G(x) = q (+inf at q <= 0, -inf at q >= 1).

        Evaluated as -ppf(q) through the symmetry G^{-1}(1-q) = -G^{-1}(q),
        which keeps full relative accuracy for tiny q where 1 - q would
        round to 1; q is clipped to [0, 1], where ppf gives -inf and +inf
        (a float q on a numpy scalar).
        """
        q = np.float64(min(max(q, 0.0), 1.0)) if isinstance(q, float) else np.minimum(np.maximum(q, 0.0), 1.0)
        return -self.ppf(q)

    def __repr__(self):
        return f"{type(self).__name__}()"


class Gaussian(Distribution):
    """Standard normal errors."""

    name = "gaussian"
    tail_gamma = 0.45
    tail_cstar = 2.0

    def pdf(self, x):
        x = _float(x)
        # x * x overflows to inf beyond |x| = 1.34e154, where exp gives the exact 0.
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * x * x) / _SQRT2PI

    def cdf(self, x):
        return special.ndtr(np.asarray(x, float))

    def lower_tail(self, t):
        return special.ndtr(-np.asarray(t, float))

    def ppf(self, p):
        return special.ndtri(np.asarray(p, float))


class Laplace(Distribution):
    """Standard Laplace errors, density exp(-|x|)/2."""

    name = "laplace"
    tail_gamma = 0.4
    tail_cstar = 4.0

    def pdf(self, x):
        x = np.asarray(x, float)
        return 0.5 * np.exp(-np.abs(x))

    cdf = Distribution.cdf

    def lower_tail(self, t):
        t = np.array(t, float)  # 0.5 exp(-t), in place
        return np.multiply(0.5, np.exp(np.negative(t, out=t), out=t), out=t)

    def ppf(self, p):
        # log(2q) on q = min(p, 1 - p), given the sign of p - 1/2 without a
        # masked pass; formed as -1/2 - (-p), so that a NaN p flips its sign
        # bit as -log(2(1 - p)) does.  In place on arrays.
        if isinstance(p, np.float64):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.copysign(np.log(min(p, 1.0 - p) * 2.0), -0.5 - (-p))
        p = np.asarray(p, float)
        q = np.minimum(p, 1.0 - p, out=np.empty_like(p))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(np.multiply(q, 2.0, out=q), out=q)
        return np.copysign(q, np.subtract(-0.5, np.negative(p)), out=q)


class StudentT3(Distribution):
    """Student t errors with three degrees of freedom (scale 1).

    Polynomial tails: no exponential tail certificate is available.  With
    psi = 2 arctan(sqrt(3) / |x|) the lower tail is G(-|x|) = (psi - sin psi)
    / (2 pi), which the CDF evaluates (by the Taylor series of psi - sin psi
    below psi = 1, so that tail masses keep relative accuracy).  On the tail
    mass q = min(p, 1 - p) this is Kepler's equation at eccentricity one,
    psi - sin(psi) = 2 pi q, with |x| = sqrt(3) / tan(psi / 2).  The quantile
    starts from the Lagrange series in s = (12 pi q)**(1/3) and takes two
    Halley steps, written in t = tan(psi / 2) (sin psi = 2t / (1 + t^2),
    1 - cos psi = 2 sin^2(psi/2) = 2t^2 / (1 + t^2)), with the same series
    for the residual below psi = 1.
    """

    name = "student_t3"
    _NORM = 2.0 / (math.pi * _SQRT3)

    def pdf(self, x):
        x = _float(x)
        # The square overflows to inf beyond |x| = 2e77 and at inf, where the quotient is the exact 0.
        with np.errstate(over="ignore"):
            return self._NORM / np.square(1.0 + x * x / 3.0)

    cdf = Distribution.cdf

    def lower_tail(self, t):
        t = np.asarray(t, float)
        with np.errstate(divide="ignore", over="ignore"):
            return _elementwise(_t3_half_tail, t.reshape(-1)).reshape(t.shape)

    def ppf(self, p):
        p, q = _tail_mass(p)
        # q = 0 meets t = 0 and 0/0; _signed_quantile sets those entries.
        with np.errstate(divide="ignore", invalid="ignore"):
            x = _elementwise(_t3_tail_root, q)
        return _signed_quantile(p, q, x)


class SubExponential(Distribution):
    """Errors with density proportional to exp(-|x|**eta), eta in [0.01, 1].

    eta = 1 recovers the Laplace model.  The normalizing constant is
    eta / (2 * Gamma(1/eta)), and G(-|x|) = Q(1/eta, |x|**eta) / 2 with Q the
    regularized upper incomplete gamma function.  When k = 1/eta is an
    integer up to ``_ERLANG_MAX_SHAPE`` (eta = 1, 1/2, 1/3), Q has the Erlang
    closed form exp(-y) * sum_{j<k} y**j / j!: the CDF evaluates it and the
    quantile takes three Halley steps on log Q(k, y) = log(2q) for the tail
    mass q = min(p, 1 - p).  Other shapes use scipy's gammaincc and
    gammainccinv.
    """

    def __init__(self, eta: float):
        if not (_is_real(eta) and math.isfinite(eta)):
            raise ValueError(f"subexp shape must be a finite real number, got {eta!r}")
        if not _SUBEXP_MIN_ETA <= eta <= 1.0:
            raise ValueError(f"subexp shape must lie in [{_SUBEXP_MIN_ETA:g}, 1], got {eta}")
        self.eta = float(eta)
        self.name = f"subexp({self.eta:g})"
        self._shape = 1.0 / self.eta
        k = self._shape
        self._erlang = int(k) if k == int(k) and k <= _ERLANG_MAX_SHAPE else 0
        self._norm = self.eta / (2.0 * special.gamma(self._shape))
        self.tail_gamma = 0.8 * (1.5**self.eta - 1.0)

    def pdf(self, x):
        # ** on an array (0-d for a scalar): a numpy scalar's ** rounds otherwise.
        return self._norm * np.exp(-np.asarray(np.abs(x), float) ** self.eta)

    cdf = Distribution.cdf

    def lower_tail(self, t):
        t = np.asarray(t, float)
        if self._erlang:
            return _elementwise(_erlang_half_tail, t.reshape(-1) ** self.eta, self._erlang).reshape(t.shape)
        return 0.5 * special.gammaincc(self._shape, t**self.eta)

    def ppf(self, p):
        p, q = _tail_mass(p)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self._erlang:
                y = _elementwise(_erlang_tail_root, q, self._erlang)
            else:
                y = special.gammainccinv(self._shape, 2.0 * q)
        return _signed_quantile(p, q, np.asarray(y) ** self._shape)

    tail_cstar = property(lambda self: _subexp_cstar(self.eta))

    def __repr__(self):
        return f"SubExponential(eta={self.eta:g})"


@functools.cache
def _subexp_cstar(eta: float) -> float:
    """tail_cstar of SubExponential(eta), once per eta: the envelope of both tail-decay ratios, 2x."""
    law = SubExponential(eta)
    t = np.concatenate([np.geomspace(1e-12, 0.5, 160), np.linspace(0.5, 1.0 - 1e-9, 160)])
    rep = check_tail_decay(law, law.tail_gamma, 1.0, t, np.linspace(0.0, 25.0**law._shape, 400))
    return 2.0 * max(rep.max_t_ratio, rep.max_x_ratio, 1.0)


_ALIASES = {
    "gaussian": Gaussian,
    "normal": Gaussian,
    "laplace": Laplace,
    "t3": StudentT3,
    "student_t3": StudentT3,
}


def make_distribution(name: str, eta: float | None = None) -> Distribution:
    """Build a distribution by name: gaussian | laplace | t3 | subexp.

    The subexponential family requires its shape ``eta`` in [0.01, 1].
    """
    key = name.strip().lower()
    if key in ("subexp", "subexponential"):
        if eta is None:
            raise ValueError(f"subexp requires a shape parameter eta in [{_SUBEXP_MIN_ETA:g}, 1]")
        return SubExponential(eta)
    if key in _ALIASES:
        if eta is not None:
            raise ValueError(f"{name} takes no shape parameter")
        return _ALIASES[key]()
    raise ValueError(f"unknown distribution {name!r}")


def uniform_blocks(n: int, seed: int):
    """The seeded uniform stream of every Monte Carlo estimate: n uniforms on
    [0, 1) as blocks of at most _BLOCK.

    Chunk i takes its _CHUNK uniforms from one ``random`` call on the i-th
    Philox stream spawned from the seed, and is handed out in slices (views)
    of at most _BLOCK, so that callers work on cache-sized blocks.  The
    values depend on the seed and the chunk size, not on the block size or
    on who consumes the blocks.  One ``random`` call per chunk holds an 8 MB
    array per 2^20 draws, yet measured faster than one call per block (4.55
    against 5.21 s on one thread, 2.63 against 2.79 s on two, for the curves
    in the _BLOCK note).  This is the one draw rule of every Monte Carlo
    estimate and command: n must be an integer >= 1 and seed an integer >=
    0, checked here before any block is made, and ValueError names the one
    that is not (booleans are not integers here).
    """
    for name, value, low in (("n", n, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    children = np.random.SeedSequence(seed).spawn((n + _CHUNK - 1) // _CHUNK)

    def blocks():
        for i, child in enumerate(children):
            u = np.random.Generator(np.random.Philox(child)).random(min(_CHUNK, n - i * _CHUNK))
            for j in range(0, u.size, _BLOCK):
                yield u[j : j + _BLOCK]

    return blocks()


def interval_mass(dist: Distribution, a, b):
    """P(a <= Z <= b) for error Z ~ dist, tail-accurate on both sides.

    One lower_tail call gives A = G(-|a|) and B = G(-|b|); the mass is
    B - A for b <= 0, A - B for a >= 0 and (1 - B) - A across zero, so an
    interval on either side is a difference of its own two tails and keeps
    relative accuracy far out.  A reversed interval (a > b) is read as [a, a].
    """
    a = np.asarray(a, float)
    b = np.maximum(a, b)
    tail_a, tail_b = dist.lower_tail(np.abs(np.broadcast_arrays(a, b)))
    mass = np.where(b <= 0, tail_b - tail_a, np.where(a >= 0, tail_a - tail_b, (1.0 - tail_b) - tail_a))
    return np.clip(mass, 0.0, 1.0)


@dataclass(frozen=True)
class TailDecayReport:
    """Per-point outcome of the exponential tail-decay check."""

    gamma: float
    cstar: float
    t_values: np.ndarray
    t_pass: np.ndarray
    x_values: np.ndarray
    x_pass: np.ndarray
    max_t_ratio: float
    max_x_ratio: float

    @property
    def passed(self) -> bool:
        return bool(self.t_pass.all() and self.x_pass.all())


def check_tail_decay(
    dist: Distribution,
    gamma: float,
    cstar: float,
    t_grid=None,
    x_grid=None,
) -> TailDecayReport:
    """Check both tail-decay inequalities on the supplied grids.

    Inequality 1: G(1.5 * G^{-1}(t)) < cstar * t**(1+gamma) on t_grid.
    Inequality 2: g(x) <= cstar * (1 - G(x))**gamma on x_grid (x >= 0).
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not (math.isfinite(cstar) and cstar > 0):
        raise ValueError(f"cstar must be positive and finite, got {cstar}")
    t = np.geomspace(1e-6, 0.5, 61) if t_grid is None else np.asarray(t_grid, float)
    x = np.linspace(0.0, 12.0, 121) if x_grid is None else np.asarray(x_grid, float)
    if t.size == 0 or x.size == 0:
        raise ValueError("tail-decay grids must be non-empty")
    if np.any((t <= 0) | (t >= 1)):
        raise ValueError("t grid must lie inside (0, 1)")
    if np.any(x < 0):
        raise ValueError("x grid must be non-negative")

    ratio_t = dist.cdf(1.5 * dist.ppf(t)) / t ** (1.0 + gamma)
    ratio_x = dist.pdf(x) / dist.lower_tail(x) ** gamma
    return TailDecayReport(
        gamma=float(gamma),
        cstar=float(cstar),
        t_values=t,
        t_pass=ratio_t < cstar,
        x_values=x,
        x_pass=ratio_x <= cstar,
        max_t_ratio=float(ratio_t.max()),
        max_x_ratio=float(ratio_x.max()),
    )
