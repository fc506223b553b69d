"""Numerics for Hardy spaces H^p and weighted Bergman spaces A^p of Dirichlet
series, and for composition operators C_Phi with symbols Phi(s) = c0 s + phi(s).

The headline diagnostic is lab.classify: on these Bergman spaces a bounded
composition operator is invertible iff Fredholm iff an isometry iff the
symbol is a vertical translation s + i tau, and the isometry defect of the
truncated operator matrix makes the dichotomy numerically visible.
"""

from .errors import (
    DirspacesError,
    DivergenceError,
    InvalidInputError,
    NumericError,
    PoleError,
    TruncationError,
)
from .series import (
    DirichletSeries,
    PolytorusPolynomial,
    bohr_lift,
    evaluate,
    from_terms,
    inverse_lift,
    linear,
    multiply,
    power,
    translate,
)
from .series import exp as exp_series
from .measures import (
    AlphaMeasure,
    DensityMeasure,
    Measure,
    SampledDensityMeasure,
    alpha_weight,
)
from .norms import (
    FunctionalNormEstimate,
    KernelValue,
    inner_a2,
    kernel,
    kernel_series,
    norm_a2,
    norm_ap,
    norm_h2,
    norm_hp,
    point_eval_norm_hp,
    qmc_norm_hp,
    zeta,
)
from .symbols import (
    Certificate,
    Symbol,
    Verdict,
    check_theorem1,
    check_theorem2,
    halfplane_lower_bound,
    is_vertical_translation,
    lemma1_region,
    schwarz_margin,
    symbol,
    translate_symbol,
)
from .compose import (
    OperatorMatrix,
    apply,
    compose_basis,
    contraction_lower_bound,
    gram,
    isometry_defect,
    operator_matrix,
)
from .lab import (
    ClassificationReport,
    classify,
    lemma2_profile,
    prop1_bound,
    two_norm_profile,
)

__version__ = "0.1.0"
