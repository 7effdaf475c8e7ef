"""Design-based confidence bounds for experiments under network interference.

Two complementary toolkits:

* monotone upper bounds -- exposure-mapping-based one-sided confidence bounds
  on the mean outcome under full treatment, valid under arbitrary mapping
  misspecification as long as full treatment never makes any outcome worse;
* attributable contrasts -- intervals for the part of the observed group
  contrast attributable to treatment, valid with no interference assumptions
  at all (binary outcomes).

Plus the exposure-probability machinery behind both and a Monte Carlo harness
that verifies the coverage claims.
"""

from .contrast import (
    ConcentrationSummary,
    ContrastReport,
    EigenvalueBound,
    attributable_contrast,
    attributable_contrast_from_counts,
    concentration_check,
    exposure_attributable_contrast,
    largest_centered_eigenvalue,
)
from .design import (
    EffectiveTreatment,
    ExposureMapping,
    NeighborhoodSet,
    Population,
    build_knn_neighborhoods,
    evaluate_exposure,
    evaluate_exposure_many,
)
from .errors import (
    DegenerateVarianceError,
    InterfereError,
    NoEffectiveUnitsError,
    ValidationError,
    ZeroJointProbabilityError,
)
from .exposure import (
    ExposureProfile,
    center_excess,
    enumerated_profile,
    exact_marginal,
    exact_profile,
    monte_carlo_profile,
    overlap_degree,
)
from .monotone import (
    MonotoneCiReport,
    bonferroni_scan,
    conservative_variance,
    full_control_lower_bound,
    ideal_upper_bound,
    point_estimate,
    upper_confidence_bound,
    validity_condition,
    variance_estimate,
    variance_fallback_ok,
)
from .normal import norm_cdf, norm_ppf
from .simulate import (
    CoverageRow,
    CoverageTable,
    Scenario,
    SCENARIO_KINDS,
    generate_scenario,
    run_coverage_experiment,
    synthetic_layout,
)

__version__ = "0.1.0"
