"""Variance function estimation and inference for paired-replicate intensities."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    NumericalError,
    PairvarError,
    StudyError,
)
from .model import (
    DEFAULT_BOUNDS,
    PairedDataset,
    VarianceForm,
    VarianceModel,
    build_dataset,
    estimating_equation_bias,
    load_csv,
)
from .macl import FitResult, macl_fit, mle_homoscedastic
from .mixture_em import (
    MixtureEstimate,
    SupportGrid,
    build_support,
    em_fit,
    fit_mixture,
    mixture_log_lik,
    responsibilities,
)
from .intervals import (
    ConfidenceSet,
    ci_diff_bonferroni,
    ci_diff_naive,
    ci_diff_region,
    ci_mu_exact,
    ci_mu_naive,
    ratio_scale,
)
from .pvalues import (
    TestMethod,
    TestResult,
    pvalue_berger_boos,
    pvalue_conservative,
    pvalue_naive,
)
from .simulate import (
    EstimatorMethod,
    Scenario,
    ScenarioKind,
    StudyReport,
    coverage_study,
    estimator_study,
    generate_dataset,
    power_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]
