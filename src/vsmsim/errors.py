"""Exception types shared across the package."""


class VsmError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(VsmError, ValueError):
    """Malformed textual input (observable strings, spec strings, JSON)."""


class DimensionError(VsmError, ValueError):
    """Operands act on different numbers of qubits or mismatched dimensions."""


class DomainError(VsmError, ValueError):
    """Numeric argument outside its admissible domain."""


class CommutationError(VsmError, ValueError):
    """Observable set contains a non-commuting pair."""


class DependenceError(VsmError, ValueError):
    """Observable set is dependent: a non-empty subset multiplies to +-I."""


class ResourceLimitError(VsmError, RuntimeError):
    """Requested object exceeds the configured qubit or contraction budget."""


class ConsistencyError(VsmError, RuntimeError):
    """Internal cross-check failed (e.g. records with equal signs disagree)."""
