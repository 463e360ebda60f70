"""substrum: spectral classification of constant-length substitution systems.

The package decides, for a primitive aperiodic constant-length substitution,
whether the spectrum of its dynamical system is purely discrete, provably
singular (by exact eigenvalue criteria), or inconclusive — and corroborates
the verdict numerically through correlation measures, local-dimension
estimates at zero, and ergodic-sum growth exponents.

The exact pipeline (core, eigen, reduction, coincidence, classify) is
imported with the package.  The numerical side is not: the names taken from
`decomposition` and `estimator` (`dimension_fit`, `correlations`,
`extreme_points_Q`, ... — the keys of `_LAZY`) load their module on first
access, so a caller that only classifies never compiles or runs it.  Until
then `dir(substrum)` and `from substrum import *` omit them.
"""

import importlib

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
    ErgodicClassification,
    bijectivity_profile,
    bisubstitution,
    coincidence_matrix,
    dekking_pure_discrete,
    ergodic_classes,
)

# eager: importing the submodule `classify` binds the package attribute to the
# module, and only this import rebinds it to the function
from .classify import SpectralVerdict, classify

__version__ = "0.1.0"

# public name -> the submodule that defines it, imported on first access
_LAZY = {
    "CylindricalDecomposition": "decomposition",
    "ExtremePoints": "decomposition",
    "decompose_lambda": "decomposition",
    "eigenspace_F": "decomposition",
    "extreme_points_Q": "decomposition",
    "letter_frequencies": "decomposition",
    "BirkhoffGrowth": "estimator",
    "CorrelationTable": "estimator",
    "DimensionEstimate": "estimator",
    "ball_mass": "estimator",
    "birkhoff_growth": "estimator",
    "correlations": "estimator",
    "dimension_fit": "estimator",
    "pair_correlations": "estimator",
    "point_mass_at_zero": "estimator",
    "renormalization_check": "estimator",
}


def __getattr__(name):
    # PEP 562: runs only for names not yet in the package's globals
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
