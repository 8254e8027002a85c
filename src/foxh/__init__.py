"""Numerical kernels, transforms and factorizations on weighted half-line spaces."""

from .errors import (
    DivergentIntegralError,
    FoxHError,
    HypothesisError,
    NoAdmissibleContourError,
    NumericalError,
    OutOfTheoryError,
    ParameterError,
    PoleError,
    PoleOnLineError,
)
from .params import (
    HParams,
    Invariants,
    SpaceSpec,
    admissible_range,
    classify_case,
    derive_invariants,
    params_from_json,
    params_to_json,
    transpose_params,
    validate_params,
)
from .gammafn import digamma, log_gamma
from .gammasym import (
    AsymptoticEstimate,
    GammaSymbol,
    ZeroReport,
    asymptotic_log_derivative,
    asymptotic_magnitude,
    find_zeros_on_line,
    symbol_from_params,
)
from .classical import (
    GridFunction,
    TestFunction,
    ek_fractional,
    hankel_mod,
    laplace_mod,
    lnur_norm,
    mellin_inverse_numeric,
    mellin_numeric,
)
from .mellin_barnes import (
    ContourSpec,
    EvalResult,
    choose_contour,
    eval_hfunction,
    eval_hfunction_batch,
)
from .engine import (
    FactorizationPlan,
    TransformResult,
    apply_plan,
    best_route,
    bilinear_check,
    exact_cancellation,
    htransform_direct,
    htransform_mellin,
    htransform_repr,
    plan_factorization,
    verify_plan_symbol,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
