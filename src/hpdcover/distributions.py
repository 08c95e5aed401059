"""Symmetric unimodal error distributions with density, CDF, and quantile.

Every model here has a positive continuous density on the real line,
symmetric about zero and strictly decreasing on (0, inf).  CDFs are accurate
to better than 1e-12 absolute and quantiles invert the CDF to better than
1e-10 over [1e-8, 1 - 1e-8].  All evaluators accept scalars or numpy arrays.

``tail_gamma`` / ``tail_cstar``, when set, certify the essentially
exponential tail condition

    G(1.5 * G^{-1}(t)) < cstar * t**(1 + gamma)   for t in (0, 1),
    g(x) <= cstar * (1 - G(x))**gamma             for x >= 0,

which downstream coverage-bound checks require.  Polynomial-tail models
(Student t) carry no certificate and are refused by those checks.
"""

from __future__ import annotations

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


class Distribution:
    """Base class for the symmetric unimodal error models."""

    name: str = "distribution"
    tail_gamma: float | None = None
    tail_cstar: float | None = None

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def ppf(self, p):
        """Quantile G^{-1}(p) for p in (0, 1)."""
        raise NotImplementedError

    def ppf_upper(self, q):
        """Upper-tail quantile, the point x with 1 - G(x) = q.

        Evaluated as -ppf(q) through the symmetry G^{-1}(1-q) = -G^{-1}(q),
        which keeps full relative accuracy for tiny q where 1 - q would
        round to 1.
        """
        return -self.ppf(q)

    def __repr__(self):
        return f"{type(self).__name__}()"


class Gaussian(Distribution):
    """Standard normal errors."""

    name = "gaussian"
    tail_gamma = 0.45
    tail_cstar = 2.0

    def pdf(self, x):
        x = np.asarray(x, float)
        return np.exp(-0.5 * x * x) / _SQRT2PI

    def cdf(self, x):
        return special.ndtr(np.asarray(x, float))

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

    def cdf(self, x):
        x = np.asarray(x, float)
        half = 0.5 * np.exp(-np.abs(x))
        return np.where(x <= 0, half, 1.0 - half)

    def ppf(self, p):
        p = np.asarray(p, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lower = np.log(2.0 * p)
            upper = -np.log(2.0 * (1.0 - p))
        return np.where(p <= 0.5, lower, upper)


class StudentT3(Distribution):
    """Student t errors with three degrees of freedom (scale 1).

    Polynomial tails: no exponential tail certificate is available.  With
    theta = arctan(x / sqrt(3)) the CDF is 1/2 + (theta + sin(2 theta)/2)/pi,
    so the quantile solves a Kepler-type equation; a guarded Newton iteration
    inverts it to full precision far faster than generic t-quantile routines.
    """

    name = "student_t3"
    _NORM = 2.0 / (math.pi * _SQRT3)

    def pdf(self, x):
        x = np.asarray(x, float)
        with np.errstate(invalid="ignore"):
            val = self._NORM / (1.0 + x * x / 3.0) ** 2
        return np.where(np.isfinite(x), val, 0.0)

    def cdf(self, x):
        x = np.asarray(x, float)
        u = x / _SQRT3
        with np.errstate(invalid="ignore"):
            rational = np.where(np.isfinite(u), u / (1.0 + u * u), 0.0)
        return 0.5 + (rational + np.arctan(u)) / math.pi

    def ppf(self, p):
        p = np.asarray(p, float)
        c = math.pi * (p - 0.5)
        half_pi = 0.5 * math.pi
        # Newton start: linearization near the center, the cube-root tail
        # expansion pi/2 - c = (2/3) eps**3 + O(eps**5) near the edges.
        eps = np.cbrt(1.5 * np.abs(half_pi - np.abs(c)))
        theta = np.where(np.abs(c) < 1.2, 0.5 * c, np.sign(c) * (half_pi - eps))
        cap = half_pi - 1e-12
        theta = np.clip(theta, -cap, cap, out=np.empty(p.shape))
        two, f, fp = np.empty(p.shape), np.empty(p.shape), np.empty(p.shape)
        # quadratic convergence from these starts: 4 sweeps reach 1e-16
        # residuals over the whole open interval, the fifth is margin.  Each
        # sweep is one clipped Newton step on theta + sin(2 theta)/2 = c,
        # computed in preallocated buffers.
        for _ in range(5):
            np.multiply(2.0, theta, out=two)
            np.sin(two, out=f)
            f *= 0.5
            np.add(theta, f, out=f)
            f -= c
            np.cos(two, out=fp)
            np.add(1.0, fp, out=fp)
            np.maximum(fp, 1e-300, out=fp)
            f /= fp
            np.subtract(theta, f, out=theta)
            np.clip(theta, -cap, cap, out=theta)
        with np.errstate(over="ignore"):
            out = _SQRT3 * np.tan(theta)
        out = np.where(p <= 0.0, -np.inf, out)
        return np.where(p >= 1.0, np.inf, out)


class SubExponential(Distribution):
    """Errors with density proportional to exp(-|x|**eta), eta in (0, 1].

    eta = 1 recovers the Laplace model.  The normalizing constant is
    eta / (2 * Gamma(1/eta)); CDF and quantile go through the regularized
    upper incomplete gamma function and its inverse.
    """

    def __init__(self, eta: float):
        if not (isinstance(eta, (int, float)) and math.isfinite(eta)):
            raise ValueError(f"subexp shape must be finite, got {eta!r}")
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"subexp shape must lie in (0, 1], got {eta}")
        self.eta = float(eta)
        self.name = f"subexp({self.eta:g})"
        self._shape = 1.0 / self.eta
        self._norm = self.eta / (2.0 * special.gamma(self._shape))
        self.tail_gamma = 0.8 * (1.5**self.eta - 1.0)
        self.tail_cstar = self._calibrate_cstar(self.tail_gamma)

    def pdf(self, x):
        x = np.asarray(x, float)
        return self._norm * np.exp(-np.abs(x) ** self.eta)

    def cdf(self, x):
        x = np.asarray(x, float)
        lower = 0.5 * special.gammaincc(self._shape, np.abs(x) ** self.eta)
        return np.where(x <= 0, lower, 1.0 - lower)

    def ppf(self, p):
        p = np.asarray(p, float)
        q = np.where(p <= 0.5, p, 1.0 - p)
        y = special.gammainccinv(self._shape, 2.0 * q)
        r = y ** (1.0 / self.eta)
        return np.where(p <= 0.5, -r, r)

    def _calibrate_cstar(self, gamma: float) -> float:
        # Empirical envelope of both tail-decay ratios, with a 2x margin.
        t = np.concatenate(
            [np.geomspace(1e-12, 0.5, 160), np.linspace(0.5, 1.0 - 1e-9, 160)]
        )
        ratio_t = self.cdf(1.5 * self.ppf(t)) / t ** (1.0 + gamma)
        x = np.linspace(0.0, 25.0**self._shape, 400)
        ratio_x = self.pdf(x) / self.cdf(-x) ** gamma
        return 2.0 * float(max(ratio_t.max(), ratio_x.max(), 1.0))

    def __repr__(self):
        return f"SubExponential(eta={self.eta:g})"


_ALIASES = {
    "gaussian": Gaussian,
    "normal": Gaussian,
    "laplace": Laplace,
    "t3": StudentT3,
    "student_t3": StudentT3,
}


def make_distribution(name: str, eta: float | None = None) -> Distribution:
    """Build a distribution by name: gaussian | laplace | t3 | subexp.

    The subexponential family requires its shape ``eta`` in (0, 1].
    """
    key = name.strip().lower()
    if key in ("subexp", "subexponential"):
        if eta is None:
            raise ValueError("subexp requires a shape parameter eta in (0, 1]")
        return SubExponential(eta)
    if key in _ALIASES:
        if eta is not None:
            raise ValueError(f"{name} takes no shape parameter")
        return _ALIASES[key]()
    raise ValueError(f"unknown distribution {name!r}")


def draw_chunks(dist: Distribution, theta0: float, n: int, seed: int, chunk: int = 1 << 20):
    """Yield n draws of X = theta0 + Z, Z ~ dist, by inverse-CDF sampling in chunks.

    Chunk i comes from the i-th Philox stream spawned from the seed, so the
    draws depend only on (seed, chunk) and not on worker scheduling.
    """
    n_chunks = (n + chunk - 1) // chunk
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    for i in range(n_chunks):
        m = min(chunk, n - i * chunk)
        gen = np.random.Generator(np.random.Philox(children[i]))
        yield theta0 + dist.ppf(gen.random(m))


def interval_mass(dist: Distribution, a, b):
    """P(a <= Z <= b) for error Z ~ dist, tail-accurate on both sides.

    For intervals on the positive axis the mass is formed from the mirrored
    lower tail so that values far out keep relative accuracy.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    plain = dist.cdf(b) - dist.cdf(a)
    mirrored = dist.cdf(-a) - dist.cdf(-b)
    return np.clip(np.where(a >= 0, mirrored, plain), 0.0, 1.0)


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
    # 1 - G(x) = G(-x) by symmetry; the mirrored form is accurate in the tail.
    ratio_x = dist.pdf(x) / dist.cdf(-x) ** gamma
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
