"""etaforge: a cross-checking toolkit for the Dedekind eta function.

Exact q-series identities (Euler product, pentagonal numbers, Jacobi triple
product), exact Dedekind sums with a logarithmic-time algorithm, modular-group
generator words, multi-route floating-point eta evaluation with rigorous
truncation bounds, and a CLI for verification campaigns.
"""

from .campaigns import CliConfig, VerificationReport, random_unimodular_matrix, run_campaign
from .dedekind import (
    dedekind_sum_fast,
    dedekind_sum_naive,
    floor_square_sum_check,
    floor_sum_check,
    omega,
)
from .evaluate import (
    ConvergenceBudgetError,
    EvalResult,
    TransformContext,
    eta_char_eval,
    eta_pentagonal_eval,
    eta_product_eval,
    eta_transformed_eval,
    functional_eq_residual,
    gaussian_poisson_residual,
    theta_identity_residual,
    transform_factor,
)
from .modgroup import (
    IDENTITY,
    S,
    T,
    GeneratorWord,
    ModularMatrix,
    NumericDegeneracyError,
    UpperHalfPoint,
    apply_mobius,
    decompose,
    evaluate_word,
    reduce_to_fundamental_domain,
    t_power,
)
from .qseries import (
    BiSeries,
    QSeries,
    chi12,
    eta_char_qseries,
    euler_product_series,
    jtp_product_side,
    jtp_shift_residual,
    jtp_sum_side,
    pentagonal_series,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # qseries
    "QSeries",
    "BiSeries",
    "chi12",
    "euler_product_series",
    "pentagonal_series",
    "jtp_product_side",
    "jtp_sum_side",
    "jtp_shift_residual",
    "eta_char_qseries",
    # dedekind
    "dedekind_sum_naive",
    "dedekind_sum_fast",
    "floor_sum_check",
    "floor_square_sum_check",
    "omega",
    # modgroup
    "ModularMatrix",
    "GeneratorWord",
    "UpperHalfPoint",
    "NumericDegeneracyError",
    "IDENTITY",
    "S",
    "T",
    "t_power",
    "apply_mobius",
    "decompose",
    "evaluate_word",
    "reduce_to_fundamental_domain",
    # evaluate
    "EvalResult",
    "TransformContext",
    "ConvergenceBudgetError",
    "eta_product_eval",
    "eta_pentagonal_eval",
    "eta_char_eval",
    "eta_transformed_eval",
    "transform_factor",
    "functional_eq_residual",
    "theta_identity_residual",
    "gaussian_poisson_residual",
    # campaigns
    "CliConfig",
    "VerificationReport",
    "random_unimodular_matrix",
    "run_campaign",
]
