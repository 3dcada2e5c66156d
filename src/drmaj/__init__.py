"""Decreasing rearrangements, majorisation, and a tropical algebra of uncertainty."""

from .rearrange import (
    DensityFn,
    DrCdf,
    DrPdf,
    Grid,
    Measure,
    MeasureFn,
    TabulatedFn,
    cdf_of_dr,
    dr_from_density_1d,
    load_tabulated,
    measure_function,
    pdf_of_cdf,
)
from .families import (
    FamilySpec,
    ball_volume,
    dr_beta32,
    dr_exp_iid,
    dr_exp_rate,
    dr_family,
    dr_mvn,
    parse_family,
)
from .order import (
    CdfComparison,
    ContractiveMap1D,
    DoublyStochastic,
    OrderVerdict,
    ProbMatrix,
    ProbVector,
    compare_cdfs,
    contractive_ordering_check,
    default_comparison_grid,
    dilation_witness,
    majorizes_cdf,
    majorizes_discrete,
    slice_compare,
)
from .algebra import (
    ExprError,
    ExprResult,
    MixWeight,
    convolve_dr,
    detect_kink,
    direct_mix,
    direct_mix_discrete,
    eval_expr,
    inverse_mix,
    inverse_mix_discrete,
    inverse_mix_many,
    join,
    meet,
    otimes,
    otimes_power,
)
from .entropy import (
    SHANNON,
    BinaryJointSpec,
    EntropyKind,
    StationaryEpsilon,
    binary_joint,
    entropy_discrete,
    entropy_dr,
    epsilon_bound,
    max_entropy_epsilon,
    moments_dr,
)
from .empirical import (
    Dataset,
    KdeModel,
    McConfig,
    bin_2d,
    discrete_empirical_dr,
    empirical_dr,
    empirical_dr_cdf,
    fit_kde,
    run_manifest,
)

__version__ = "0.1.0"
