"""Dense state vectors and the size cap on every dense object.

Conventions
-----------
Qubits are numbered from 1.  Qubit 1 maps to the most significant bit of
the amplitude index, so basis index ``b`` of an n-qubit ket is the bit
string of qubit values read from qubit 1 to qubit n.  For example the
two-qubit basis state ``|10>`` (qubit 1 in ``|1>``, qubit 2 in ``|0>``)
sits at index 2.

Normalization is explicit, never silent: the ``Ket`` constructor rejects
unnormalized input unless told otherwise, and ``Ket.normalized`` is the
one place where rescaling happens.  No gate acts on these vectors: the
coupled register is written from the subset products (``protocol.couple``),
and the gate-by-gate circuit is a test oracle (``tests/circuit_oracle.py``).
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import numpy as np

from .errors import DimensionError, DomainError, ParseError, ResourceLimitError

# A normalized ket may drift from unit norm by at most this much.
NORM_ATOL = 1e-10

_DEFAULT_MAX_QUBITS = 24


def max_qubits() -> int:
    """Largest supported register size, overridable via ``VSM_MAX_QUBITS``."""
    raw = os.environ.get("VSM_MAX_QUBITS")
    if raw is None:
        return _DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"VSM_MAX_QUBITS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError(f"VSM_MAX_QUBITS must be positive, got {value}")
    return value


def check_size(qubits: int, what: str) -> None:
    """Refuse a dense object of 2**qubits entries above the ``max_qubits()`` cap.

    Callers check before they allocate.  ``qubits`` may come from outside
    input, so 2**qubits is never formed here.
    """
    limit = max_qubits()
    if qubits > limit:
        raise ResourceLimitError(
            f"{what} needs 2^{qubits} entries, above the limit of {limit} qubits "
            "(set VSM_MAX_QUBITS to raise it)"
        )


class Ket:
    """Immutable n-qubit state vector of 2**n complex amplitudes.

    Amplitudes are stored as a read-only complex128 array.  ``n == 0``
    is allowed (a single amplitude).
    """

    __slots__ = ("_amps", "n")

    def __init__(self, amplitudes: Iterable[complex], *, require_normalized: bool = True):
        arr = np.asarray(amplitudes)
        if arr.ndim != 1:
            raise DimensionError(f"amplitudes must be one-dimensional, got shape {arr.shape}")
        size = arr.size
        if size < 1 or size & (size - 1):
            raise DimensionError(f"amplitude count must be a power of two, got {size}")
        n = size.bit_length() - 1
        check_size(n, "the ket")
        # The ket owns a private copy, so no caller can write to it.
        arr = np.array(arr, dtype=np.complex128)
        if require_normalized:
            norm = float(np.linalg.norm(arr))
            # Written so that a NaN norm fails too.
            if not abs(norm - 1.0) <= NORM_ATOL:
                raise DomainError(
                    f"state norm is {norm!r}, not 1; use Ket.normalized for explicit rescaling"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "_amps", arr)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("Ket is immutable")

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only view of the amplitude array."""
        return self._amps

    @classmethod
    def normalized(cls, amplitudes: Iterable[complex]) -> "Ket":
        """Build a ket after explicitly rescaling ``amplitudes`` to unit norm."""
        arr = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(arr))
        # Refused before the division: zero, infinite and NaN norms.
        if not 0.0 < norm < np.inf:
            raise DomainError(f"cannot normalize a vector of norm {norm!r}")
        return cls(arr / norm, require_normalized=False)

    @classmethod
    def basis(cls, n: int, index: int) -> "Ket":
        """Computational basis state ``|index>`` on ``n`` qubits."""
        if n < 0:
            raise DomainError(f"qubit count must be non-negative, got {n}")
        check_size(n, "the ket")
        dim = 1 << n
        if not 0 <= index < dim:
            raise DomainError(f"basis index {index} out of range for {n} qubits")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps, require_normalized=False)

    def to_json(self) -> dict:
        """JSON-ready mapping ``{"n": ..., "re": [...], "im": [...]}``."""
        return {
            "n": self.n,
            "re": self._amps.real.tolist(),
            "im": self._amps.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data) -> "Ket":
        """Parse the mapping produced by :meth:`to_json`.

        Validates the amplitude count against ``n`` and the norm within
        1e-6, then rescales explicitly to unit norm.
        """
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid ket JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError(f"ket JSON must be an object, got {type(data).__name__}")
        try:
            n, re, im = data["n"], data["re"], data["im"]
        except KeyError as exc:
            raise ParseError(f"ket JSON needs integer 'n' and numeric 're'/'im' arrays: {exc}") from exc
        # numpy would read true as 1.0 and "0" as 0.0, so each JSON value is checked
        # itself; bool is an int subclass, but its type is not int.
        if not all(isinstance(part, list) and all(type(v) in (int, float) for v in part)
                   for part in (re, im)):
            raise ParseError("ket JSON 're' and 'im' must be arrays of numbers")
        # bool is an int subclass, and int() would also take 2.5 or "2".
        if not isinstance(n, int) or isinstance(n, bool):
            raise ParseError(f"ket JSON qubit count must be an integer, got {n!r}")
        if n < 0:
            raise ParseError(f"ket JSON has negative qubit count {n}")
        # Checked before 1 << n, which would build a huge integer for a hostile n.
        check_size(n, "ket JSON")
        dim = 1 << n
        if len(re) != dim or len(im) != dim:
            raise ParseError(
                f"ket JSON for n={n} needs {dim} amplitudes, got {len(re)} re / {len(im)} im"
            )
        try:
            amps = np.array(re, dtype=np.float64) + 1j * np.array(im, dtype=np.float64)
        except OverflowError as exc:
            raise ParseError(f"ket JSON amplitude out of range: {exc}") from exc
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-6:
            raise ParseError(f"ket JSON norm is {norm!r}, outside the 1e-6 tolerance")
        return cls.normalized(amps)

    def __repr__(self) -> str:
        return f"Ket(n={self.n})"
