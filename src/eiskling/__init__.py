"""eiskling: exact local Fourier coefficients of Siegel sections on unitary
groups, their assembly into normalized q-expansion coefficients, and the
p-adic congruence checks that interpolation in families forces.

All arithmetic is exact (rationals, cyclotomic integers, formal prime powers
and Gauss symbols); p-adic results carry explicit precision.
"""

__version__ = "0.1.0"

from .errors import (
    EisklingError,
    UnsupportedEmbeddingError,
    InsufficientPrecisionError,
    PoleError,
    ConductorError,
    UnsupportedBetaError,
    UniquenessError,
    ResourceBoundError,
    NonIntegralExponentError,
    ConfigError,
)
from .exact_arith import (
    CycNumber,
    HermitianMatrix,
    sqrt_minus_d,
    enumerate_hermitian,
)
from .padic import PadicElem, embed_cyclotomic, congruent_mod
from .characters import (
    DirichletChar,
    SplitPCharPair,
    gauss_sum,
    chi_K,
    kronecker_symbol,
)
from .values import ExactValue
from .bernoulli_kl import (
    bernoulli_number,
    gen_bernoulli,
    L_at_nonpositive,
    kl_specialization,
)
from .hecke import WeightTuple, kappa_set, up_eigenvalues, klingen_eigenvalues
from .pullback import (
    klingen_ratio_unramified,
    p_constant_lfun,
    p_constant_klingen,
)
from .qexp_diff import (
    multiplier_klingen,
    multiplier_lfun,
)
from .siegel_fourier import (
    SiegelDatum,
    additive_char,
    aux_ell_scalar,
    coeff_unramified,
    coeff_aux_ell,
    coeff_p,
    coeff_arch_normalized,
    CoefficientReport,
    assemble_global,
)
from .interpolation import (
    ArithmeticPoint,
    specialize,
    coefficient_family,
    check_congruences,
)
