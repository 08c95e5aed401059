"""Highest-posterior-density credible sets for banded spike-and-slab priors.

One observation X = theta + noise, noise from a symmetric unimodal law; the
prior mixes an atom at zero with an improper uniform slab on {|theta| > lam}.
The package computes the credible sets in closed form, evaluates their exact
frequentist coverage (with a Monte Carlo cross-check), grades the coverage
bounds, the 1 - 3*alpha/2 dip included, against thresholds fixed before the
run, and converts credible sets into post-selection confidence sets.
"""

__version__ = "0.1.0"

from . import coverage, distributions, hpd, posterior, postselect
from .coverage import *  # noqa: F403
from .distributions import *  # noqa: F403
from .hpd import *  # noqa: F403
from .posterior import *  # noqa: F403
from .postselect import *  # noqa: F403

# Each module's __all__ is its one export list; the package exports them all.
__all__ = ["__version__", *(name for mod in (distributions, posterior, hpd, coverage, postselect) for name in mod.__all__)]
