"""Exception types shared across the package."""


class UltraweightsError(Exception):
    """Base class for domain errors raised by this package."""


class DivergentTail(UltraweightsError):
    """A reciprocal-quotient tail sum has no finite upper bracket."""


class NotAWeightSequence(UltraweightsError):
    """Operation requires log-convexity / increasing quotients and the input lacks them."""


class TruncationExhausted(UltraweightsError):
    """An index scan hit the finite domain of an array-backed sequence."""


class UnboundedConjugate(UltraweightsError):
    """Young-conjugate maximization found no finite bracket (growth is at most logarithmic)."""


class QuasianalyticInput(UltraweightsError):
    """Refused: the weight may be quasianalytic.  An integral transform of a
    function without a closed form refuses an envelope exponent >= 1, and
    verify-chain a matrix member not certified non-quasianalytic."""


class EnvelopeRequired(UltraweightsError):
    """Integral transform refused: the function has no closed form for it and
    no growth envelope that certifies it non-quasianalytic."""


class NoClosedForm(UltraweightsError):
    """Integral transform refused: the function is certified non-quasianalytic
    but carries no closed form for it and is not sequence-associated."""


class MaximizerUnbounded(UltraweightsError):
    """Sup over the radial grid kept increasing up to the hard cap."""


class CatalogError(UltraweightsError):
    """Unknown catalog entry or malformed entry URI."""
