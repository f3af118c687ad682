"""Jackson q-difference calculus, q-special functions, series solvers for
linear Jackson q-difference equations, and numerical Nevanlinna-theory
functionals with logarithmic-order estimators."""

from .qcore import (
    QParam,
    TruncatedSeries,
    q_binomial,
    q_binomial_mp,
    q_bracket,
    q_brackets,
    q_factorial,
    q_pochhammer,
    q_pochhammer_inf,
    q_pochhammer_mp,
)
from .qoperator import (
    CasoratiPair,
    Sampler,
    casorati,
    dq_sample,
    dq_series,
    dqk_closed_form,
    dqk_sample,
    dqk_series,
    jackson_integral,
    kernel_check,
    series_sampler,
)
from .qspecial import (
    BigEProduct,
    EtildeProduct,
    LatticeProduct,
    PhiParams,
    big_e_q,
    etilde_q,
    exp_q,
    phi_rs,
    product_solution,
    sinq_cosq,
)
from .qode import (
    DegreeCondition,
    QdeProblem,
    RationalFunction,
    dq_rational,
    dqk_quotient,
    dqk_rational,
    polynomial_degree_condition,
    residual,
    shifted_to_plain,
    solve_series,
    solve_shifted_series,
    verify_pointwise,
)
from .nevanlinna import (
    INF,
    DefectReport,
    GrowthReport,
    LogOrderEstimate,
    MeroModel,
    NevanlinnaSample,
    RadialGrid,
    WimanValironSample,
    characteristic,
    counting_N,
    defect_estimates,
    growth_lower_bound_check,
    jackson_truncated_counting,
    jensen_residual,
    log_order_from_T,
    log_order_from_counting,
    log_order_from_nu,
    logderiv_lemma_check,
    max_term_central_index,
    proximity,
    samples_to_csv,
    sft_check,
    wiman_valiron_check,
)
from . import errors
from .errors import BracketOverflow

__version__ = "0.1.0"

__all__ = [
    "QParam", "TruncatedSeries", "q_bracket", "q_brackets", "q_factorial",
    "q_pochhammer", "q_pochhammer_inf", "q_binomial", "q_pochhammer_mp",
    "q_binomial_mp",
    "Sampler", "CasoratiPair", "dq_series", "dqk_series", "dq_sample",
    "dqk_sample", "dqk_closed_form", "jackson_integral", "casorati",
    "kernel_check", "series_sampler",
    "PhiParams", "phi_rs", "exp_q", "etilde_q", "big_e_q", "sinq_cosq",
    "LatticeProduct", "EtildeProduct", "BigEProduct", "product_solution",
    "RationalFunction", "QdeProblem", "DegreeCondition", "solve_series",
    "residual", "verify_pointwise", "polynomial_degree_condition",
    "solve_shifted_series", "shifted_to_plain",
    "dq_rational", "dqk_rational", "dqk_quotient",
    "INF", "MeroModel", "RadialGrid", "NevanlinnaSample", "DefectReport",
    "WimanValironSample", "LogOrderEstimate", "GrowthReport",
    "proximity", "counting_N", "characteristic", "jensen_residual",
    "jackson_truncated_counting", "defect_estimates", "log_order_from_T",
    "log_order_from_counting", "log_order_from_nu", "max_term_central_index",
    "logderiv_lemma_check", "sft_check", "wiman_valiron_check",
    "growth_lower_bound_check", "samples_to_csv",
    "errors", "BracketOverflow", "__version__",
]
