"""Numerics for ultradifferentiable weight calculus.

Weight sequences and weight functions in the log domain, the Young
conjugate, the associated function and its integral transforms, the four
derived optimal-weight constructions (L, S, K, Q) with their family lifts,
and three-valued asymptotic order relations between all of them.
"""

from .errors import (
    CatalogError,
    DivergentTail,
    EnvelopeRequired,
    MaximizerUnbounded,
    NoClosedForm,
    NotAWeightSequence,
    QuasianalyticInput,
    TruncationExhausted,
    UltraweightsError,
    UnboundedConjugate,
)
from .verdicts import Interval, Status, Verdict
from .seq_core import (
    WeightSeq,
    has_moderate_growth,
    is_log_convex,
    is_non_quasianalytic,
    is_strongly_log_convex,
    log_convex_minorant,
    seq_equivalent,
    seq_preceq,
)
from .func_core import (
    Envelope,
    WeightFn,
    WeightMatrix,
    fn_preceq,
    fn_predicates,
    kappa,
    kappa_assoc,
    kappa_fn,
    matrix_from_omega,
    normalize_fn,
    omega_from_seq,
    omega_tilde_from_seq,
    phi_star,
    phi_star_involution_check,
    poisson_batch,
    poisson_imag,
    prec_st,
)
from .derived import derive_family, seq_K, seq_L, seq_Q, seq_S, seq_underline_L
from .relations import (
    cond_invmg,
    cond_liminf,
    cond_Mmg,
    cond_roquS,
    implication,
    lambda_membership,
    matrix_braces_preceq,
    prec_SV,
    prec_gamma1,
    r_moderate_growth,
)

__version__ = "0.1.0"

# The one kernel implementation (numpy); benchmark records carry this name.
KERNEL_BACKEND = "pure"
