"""substrum: spectral classification of constant-length substitution systems.

The package decides, for a primitive aperiodic constant-length substitution,
whether the spectrum of its dynamical system is purely discrete, provably
singular (by exact eigenvalue criteria), or inconclusive — and corroborates
the verdict numerically through correlation measures, local-dimension
estimates at zero, and ergodic-sum growth exponents.
"""

from .core import (
    Alphabet,
    AperiodicityResult,
    IntMatrix,
    ParseError,
    PrimitivityResult,
    ResourceBudgetError,
    Substitution,
    allowed_words,
    constant_length,
    fixed_point_prefix,
    is_aperiodic_pansiot,
    is_primitive,
    parse_substitution,
    power_substitution,
    render_substitution,
    seed_letter,
    substitution_matrix,
)
from .eigen import (
    CharPoly,
    EigenvalueRecord,
    JPRKappa,
    SqrtQResult,
    char_poly,
    eigenvalue_classes,
    eigenvalues,
    has_modulus_sqrt_q,
    j_pr_kappa,
    second_eigenvalue_below_sqrt_q,
)
from .reduction import (
    HeightInfo,
    PureBase,
    compute_height,
    pure_base,
    spectrum_difference_is_trivial,
)
from .coincidence import (
    BijectivityProfile,
    ErgodicClassification,
    bijectivity_profile,
    bisubstitution,
    coincidence_matrix,
    dekking_pure_discrete,
    ergodic_classes,
)
from .decomposition import (
    CylindricalDecomposition,
    ExtremePoints,
    decompose_lambda,
    eigenspace_F,
    extreme_points_Q,
    letter_frequencies,
)
from .estimator import (
    BirkhoffGrowth,
    CorrelationTable,
    DimensionEstimate,
    ball_mass,
    birkhoff_growth,
    correlations,
    dimension_fit,
    pair_correlations,
    point_mass_at_zero,
    renormalization_check,
)
from .classify import SpectralVerdict, classify

__version__ = "0.1.0"
