"""GHZ-like meter states and the strength/angle dictionary.

A single measurement round of an N-site product observable uses an
N-qubit meter prepared in cos(theta)|GHZ+> + sin(theta)|GHZ->, where
|GHZ+-> = (|0...0> +- |1...1>)/sqrt(2).  Measuring K commuting products
jointly uses one entangled register of N*K qubits whose amplitudes are

    2**(-K/2) * alpha                    on |0...0>,
    2**(-K/2) * beta                     on every other block pattern
                                         (each round's N qubits all equal),
    0                                    elsewhere,

with alpha = cos(theta) + sqrt(2**K - 1) sin(theta) and
beta = cos(theta) - sin(theta)/sqrt(2**K - 1).  Round k occupies meter
qubits (k-1)*N + 1 ... k*N, and qubit ordering follows ``statevec``
(first qubit = most significant bit).  All meter amplitudes are real.
``protocol.couple`` writes the 2**K nonzero ones straight into its
coupled register, at the block patterns' indices (``_pattern_index``).

The angle theta in [0, pi/2] sets the measurement strength

    s_K(theta) = (2**K cos(theta)**2 - 1) / (2**K - 1),

which is 1 at theta = 0 (projective), 0 at theta = arccos(2**(-K/2))
(no measurement), and negative beyond that point; negative strengths
still describe valid measurements, and outputs flag them as outside the
variable-strength interpolation range rather than rejecting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError
from .statevec import Ket, check_size

THETA_MAX = math.pi / 2


def parse_angle(text: str) -> float:
    """Parse an angle in radians, or in degrees with a ``deg`` suffix."""
    raw = text.strip().lower()
    try:
        if raw.endswith("deg"):
            return math.radians(float(raw[: -len("deg")]))
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"invalid angle {text!r}; use radians or e.g. '30deg'") from exc


@dataclass(frozen=True)
class MeterSpec:
    """Meter geometry: K rounds of N sites at mixing angle theta."""

    rounds: int
    n_sites: int
    theta: float

    def __post_init__(self):
        if self.rounds < 1:
            raise DomainError(f"rounds must be at least 1, got {self.rounds}")
        if self.n_sites < 1:
            raise DomainError(f"sites per round must be at least 1, got {self.n_sites}")
        if not 0.0 <= self.theta <= THETA_MAX:
            raise DomainError(f"theta must lie in [0, pi/2], got {self.theta!r}")

    @property
    def n_qubits(self) -> int:
        return self.rounds * self.n_sites

    @property
    def strength(self) -> float:
        return strength(self.rounds, self.theta)

    @property
    def vsm_compliant(self) -> bool:
        """True when the strength is non-negative (interpolation regime)."""
        return self.strength >= -1e-12

    def __str__(self) -> str:
        return f"K={self.rounds},N={self.n_sites},theta={self.theta:.12g}"


def pattern_amplitudes(spec: MeterSpec) -> np.ndarray:
    """The meter's 2**K nonzero amplitudes, one per block pattern.

    Entry p belongs to the pattern whose bit (K-1-k) says whether round
    k+1's N qubits are all 1, so round 1 sits on the high bit.  Pattern
    0 (all zeros) carries the alpha amplitude and the rest share beta.
    """
    k, theta = spec.rounds, spec.theta
    check_size(k, "the meter's block patterns")
    d = 1 << k
    alpha = math.cos(theta) + math.sqrt(d - 1) * math.sin(theta)
    beta = math.cos(theta) - math.sin(theta) / math.sqrt(d - 1)
    scale = 2.0 ** (-k / 2.0)
    amps = np.full(d, scale * beta)
    amps[0] = scale * alpha
    return amps


def kfold_meter(spec: MeterSpec) -> Ket:
    """Entangled K-round meter register on N*K qubits.

    The ``pattern_amplitudes`` are scattered to their block patterns,
    where each round's N qubits agree; every other amplitude is zero.
    """
    k, n = spec.rounds, spec.n_sites
    check_size(n * k, "the meter register")
    pattern_amps = pattern_amplitudes(spec)
    amps = np.zeros(1 << (n * k), dtype=np.complex128)
    amps[_pattern_index(k, n)] = pattern_amps
    return Ket(amps)


def _pattern_index(rounds: int, n_sites: int) -> np.ndarray:
    """Meter register index of each block pattern, in ``pattern_amplitudes`` order."""
    patterns = np.arange(1 << rounds, dtype=np.int64)
    index = np.zeros(patterns.size, dtype=np.int64)
    block = (1 << n_sites) - 1
    for bit in range(rounds):
        # Pattern bit ``bit`` drives the block of round K - bit.
        index |= ((patterns >> bit) & 1) * (block << (bit * n_sites))
    return index


def strength(rounds: int, theta: float) -> float:
    """Measurement strength of a K-round meter at angle theta."""
    if rounds < 1:
        raise DomainError(f"rounds must be at least 1, got {rounds}")
    return _strength(1 << rounds, theta)


def _strength(d: int, theta: float) -> float:
    """(d cos(theta)**2 - 1)/(d - 1): the strength of a d-outcome meter, d = 2**K here."""
    return (d * math.cos(theta) ** 2 - 1.0) / (d - 1.0)
