"""plstab: a numerical laboratory for stability of the Prekopa-Leindler
inequality on the line and for radial densities."""

__version__ = "0.1.0"

from .grids import (
    DomainError,
    GridFunction,
    PreconditionError,
    l1_distance,
    mass,
    normalize,
    scale_amplitude,
    sup_norm,
    translate,
)
from .transport import (
    DeficitReport,
    MonotoneMap,
    bad_set_measure,
    cdf,
    check_bilipschitz,
    midpoint_deficit,
    mirror_deficit,
    monotone_transport,
    tail_cut_points,
    transport_deficit,
)
from .supconv import (
    SupConvResult,
    integral_curve,
    midpoint_interpolant,
    pl_deficit,
    sup_convolution,
)
from .levelsets import (
    DistributionFunction,
    HypographArea,
    PiecewiseLinear,
    bm_two_term_gap,
    check_rearranged_pl,
    distribution_function,
    hypograph_area,
    numerical_lemma_gap,
    symmetric_rearrangement,
    trace_inequality_check,
)
from .logconcave import (
    LogConcaveEnvelope,
    interpolation_check,
    is_log_concave,
    level_cut,
    log_concave_hull,
    median,
    median_envelope_check,
    nu_envelope_check,
)
from .radial import (
    RadialProfile,
    even_extension,
    lemma_square_min_ratio,
    lemma_square_sides,
    radial_deficit,
    radial_l1_distance,
    radial_mass,
    radial_pl_deficit,
    radial_sup_convolution,
    radial_transport,
    unit_sphere_area,
)
from .stability import (
    CounterexampleConfig,
    StabilityReport,
    aligned_l1_distance,
    counterexample_family,
    exponent_fit,
    full_deficit_report,
    general_lambda_reduction,
    radial_counterexample_family,
    stability_distance,
    tau_scaling_probe,
)
