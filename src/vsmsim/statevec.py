"""Dense state vectors and the few primitives the measurement scheme needs.

Conventions
-----------
Qubits are numbered from 1.  Qubit 1 maps to the most significant bit of
the amplitude index, so basis index ``b`` of an n-qubit ket is the bit
string of qubit values read from qubit 1 to qubit n.  For example the
two-qubit basis state ``|10>`` (qubit 1 in ``|1>``, qubit 2 in ``|0>``)
sits at index 2.

Normalization is explicit, never silent: the ``Ket`` constructor rejects
unnormalized input unless told otherwise, and ``Ket.normalized`` is the
one place where rescaling happens.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

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
            if abs(norm - 1.0) > NORM_ATOL:
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

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self._amps))

    @classmethod
    def normalized(cls, amplitudes: Iterable[complex]) -> "Ket":
        """Build a ket after explicitly rescaling ``amplitudes`` to unit norm."""
        arr = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise DomainError("cannot normalize the zero vector")
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
            n = int(data["n"])
            re = np.asarray(data["re"], dtype=np.float64)
            im = np.asarray(data["im"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"ket JSON needs integer 'n' and numeric 're'/'im' arrays: {exc}") from exc
        if n < 0:
            raise ParseError(f"ket JSON has negative qubit count {n}")
        # Checked before 1 << n, which would build a huge integer for a hostile n.
        check_size(n, "ket JSON")
        dim = 1 << n
        if re.shape != (dim,) or im.shape != (dim,):
            raise ParseError(
                f"ket JSON for n={n} needs {dim} amplitudes, got {re.size} re / {im.size} im"
            )
        amps = re + 1j * im
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-6:
            raise ParseError(f"ket JSON norm is {norm!r}, outside the 1e-6 tolerance")
        return cls.normalized(amps)

    def __repr__(self) -> str:
        return f"Ket(n={self.n})"


def tensor(parts: Sequence[Ket]) -> Ket:
    """Tensor product of kets, first factor owning the most significant bits."""
    if len(parts) == 0:
        raise DomainError("tensor needs at least one factor")
    check_size(sum(p.n for p in parts), "the tensor product")
    amps = parts[0].amplitudes
    for part in parts[1:]:
        amps = np.kron(amps, part.amplitudes)
    # Factors are unit norm already; skip the gate to avoid tolerance stacking.
    return Ket(amps, require_normalized=False)


def apply_controlled(gate: np.ndarray, control: int, target: int, state: Ket) -> Ket:
    """Apply a controlled single-qubit gate; norm is preserved, not rescaled.

    ``gate`` is the 2x2 unitary applied to ``target`` when ``control``
    (both 1-based) is in ``|1>``.
    """
    n = state.n
    if not (1 <= control <= n and 1 <= target <= n):
        raise DimensionError(f"control={control}, target={target} out of range for n={n}")
    if control == target:
        raise DimensionError("control and target must be distinct qubits")
    u = np.asarray(gate, dtype=np.complex128)
    if u.shape != (2, 2):
        raise DimensionError(f"controlled gate must be 2x2, got {u.shape}")
    amps = state.amplitudes.reshape((2,) * n)
    c_ax = control - 1
    t_ax = target - 1
    picker: list = [slice(None)] * n
    picker[c_ax] = 1
    sub = amps[tuple(picker)]
    # Dropping the control axis shifts later axes left by one.
    t_sub = t_ax - 1 if t_ax > c_ax else t_ax
    rotated = np.tensordot(u, sub, axes=([1], [t_sub]))
    rotated = np.moveaxis(rotated, 0, t_sub)
    out = amps.copy()
    out[tuple(picker)] = rotated
    return Ket(out.reshape(-1), require_normalized=False)
