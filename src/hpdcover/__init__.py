"""Highest-posterior-density credible sets for banded spike-and-slab priors.

One observation X = theta + noise, noise from a symmetric unimodal law; the
prior mixes an atom at zero with an improper uniform slab on {|theta| > lam}.
The package computes the credible sets in closed form, evaluates their exact
frequentist coverage (with a Monte Carlo cross-check), grades the coverage
bounds, the 1 - 3*alpha/2 dip included, against thresholds fixed before the
run, and converts credible sets into post-selection confidence sets.
"""

__version__ = "0.1.0"

from .distributions import (
    Distribution,
    Gaussian,
    Laplace,
    StudentT3,
    SubExponential,
    TailDecayReport,
    check_tail_decay,
    interval_mass,
    make_distribution,
)
from .posterior import (
    PriorConfig,
    atom_mass,
    atom_threshold,
    gap_complement,
    posterior_normalizer,
    posterior_probability,
)
from .hpd import (
    CredibleSet,
    InverseSet,
    InversionError,
    Regime,
    endpoint_values,
    endpoints,
    hpd_length,
    hpd_radii,
    hpd_set,
    invert_lower,
    invert_upper,
    lower_values,
    onesided_endpoints,
    onesided_lower_endpoint,
    onesided_radii,
    onesided_upper_endpoint,
    regime_codes,
    smallest_lower_inverse,
    upper_values,
)
from .coverage import (
    BoundReport,
    CoveragePoint,
    CoverageReport,
    DipResult,
    check_coverage_bounds,
    coverage_curve,
    coverage_exact,
    coverage_mc,
    dip_search,
    onesided_coverage_exact,
    predicted_dip_level,
)
from .postselect import (
    PostSelectionSet,
    conditional_coverage_exact,
    conditional_coverage_mc,
    credible_set_contains,
    post_selection_set,
)

__all__ = [
    "__version__",
    "Distribution",
    "Gaussian",
    "Laplace",
    "StudentT3",
    "SubExponential",
    "TailDecayReport",
    "check_tail_decay",
    "interval_mass",
    "make_distribution",
    "PriorConfig",
    "atom_mass",
    "atom_threshold",
    "gap_complement",
    "posterior_normalizer",
    "posterior_probability",
    "CredibleSet",
    "InverseSet",
    "InversionError",
    "Regime",
    "endpoint_values",
    "endpoints",
    "hpd_length",
    "hpd_radii",
    "hpd_set",
    "invert_lower",
    "invert_upper",
    "lower_values",
    "onesided_endpoints",
    "onesided_lower_endpoint",
    "onesided_radii",
    "onesided_upper_endpoint",
    "regime_codes",
    "smallest_lower_inverse",
    "upper_values",
    "BoundReport",
    "CoveragePoint",
    "CoverageReport",
    "DipResult",
    "check_coverage_bounds",
    "coverage_curve",
    "coverage_exact",
    "coverage_mc",
    "dip_search",
    "onesided_coverage_exact",
    "predicted_dip_level",
    "PostSelectionSet",
    "conditional_coverage_mc",
    "conditional_coverage_exact",
    "credible_set_contains",
    "post_selection_set",
]
