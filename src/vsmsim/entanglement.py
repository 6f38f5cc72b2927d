"""n-tangle evaluation and the strength-tangle identity of the meter.

The n-tangle of a pure n-qubit state with amplitudes a_{i1...in} is

    tau_n = 2 |sum a_a1..an a_b1..bn a_c1..cn a_d1..dn
                eps_{a1 b1} eps_{c1 d1} eps_{a2 b2} eps_{c2 d2} ...
                eps_{a(n-1) b(n-1)} eps_{c(n-1) d(n-1)}
                eps_{an cn} eps_{bn dn}|

with eps_{01} = -eps_{10} = 1: every site but the last pairs the first
amplitude with the second and the third with the fourth, while the last
site pairs first with third and second with fourth.  Amplitudes enter
unconjugated.  The tests keep a literal evaluation of this sum, at
16**n cost, as the oracle of the evaluators below
(``tests/tangle_oracle.py``); no report uses it.

``n_tangle_spinflip`` reaches the same number through spin-flip
overlaps at O(2**n) cost, and ``tangle --state`` reports use it.  For
even n it evaluates the classic form
|sum_i (-1)^{popcount(i)} a_i a_{~i}|**2 (the overlap of the state with
its spin-flipped image).  For odd n that overlap vanishes identically,
because flipping all n qubits is an antisymmetric pairing; the tangle
itself does not.  The contraction instead equals 4 |det(B^T F B)| where
B is the 2**(n-1) x 2 reshape of the amplitudes (last qubit as column)
and F is the spin-flip pairing on the first n-1 qubits, so the odd
branch evaluates that determinant.

``n_tangle_patterns`` is the spin-flip evaluation restricted to the
K-round meter, whose only nonzero amplitudes a_p sit on the 2**K block
patterns p (see ``meter``); ``verify_strength_tangle`` uses it, so
meter reports cost O(2**K) whatever N is.  The complement of pattern p
is pattern ~p, and popcount(index(p)) = N popcount(p), so for even NK

    tau = |sum_p (-1)^(N popcount(p)) a_p a_{~p}|**2.

For odd NK (N odd, at least 3) the determinant above splits the
patterns by their last bit into u and v.  Its diagonal pairings vanish,
because complementing the first n-1 qubits turns the last round's
remaining N-1 qubits to the opposite value of its last qubit, so
tau = 4 |t_uv t_vu| with the same signed pattern pairing.  For N = 1
the pattern vector is the register itself and goes to
``n_tangle_spinflip``.

For the K-round meter register the contraction collapses to

    tau_{N*K} = 4 * (u^T eps^{(K-1)N-fold} v)**2,

where u and v are the meter amplitude blocks whose last N indices are
all 0 and all 1 respectively; ``meter_tangle_simplified`` evaluates
this on the dense register, as a cross-check of the pattern evaluation.
The headline identity says the meter's tangle equals the squared
measurement strength, tau = s_K(theta)**2; ``verify_strength_tangle``
tabulates both sides.  The identity holds for K = 1 with N >= 2 and
for even N (any K).  At N = K = 1 the meter is one qubit, whose tangle
is 0 while s**2 = cos(2 theta)**2.  For odd N with K >= 2, N = 1
included, the epsilon product over a round's N sites is odd under block
complementation, the sum loses its cross terms, and the tangle comes
out strictly smaller:

    tau = 4 sin(theta)**2 beta**2 / (2**K - 1),
    beta = cos(theta) - sin(theta)/sqrt(2**K - 1),

vanishing at theta = 0 where a strong measurement uses a product of K
odd-sized GHZ factors whose even-n tangle is zero.  The verification
surface still tabulates the residual against s**2 in all cases, so odd
N, K >= 2 sweeps honestly report the identity's failure there.  The
n-tangle is an entanglement monotone for n = 2, n = 3, and even n,
which the reports flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .meter import MeterSpec, kfold_meter, pattern_amplitudes
from .pauli import _parity
from .statevec import Ket

# The strength-tangle identity must hold to this absolute tolerance.
STRENGTH_TANGLE_ATOL = 1e-8


@dataclass(frozen=True)
class TangleReport:
    """One evaluation of the n-tangle, with strength context when known."""

    n: int
    tau: float
    method: str
    strength_squared: float | None
    residual: float | None
    monotone: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tau": float(self.tau),
            "method": self.method,
            "strength_squared": None
            if self.strength_squared is None
            else float(self.strength_squared),
            "residual": None if self.residual is None else float(self.residual),
            "monotone": self.monotone,
        }


def tangle_is_monotone(n: int) -> bool:
    """Whether the n-tangle is an entanglement monotone at this qubit count."""
    return n in (2, 3) or n % 2 == 0


def _epsilon_pair(vec_a: np.ndarray, vec_b: np.ndarray) -> complex:
    """Bilinear pairing a^T (eps tensor power m) b over m-qubit vectors.

    The m-fold epsilon product has a single nonzero entry per row, at
    the all-bits complement ~i, with value (-1)**popcount(i); the
    pairing is therefore sum_i (-1)**popcount(i) a_i b_{~i}, and b_{~i}
    is just b reversed.
    """
    signs = 1.0 - 2.0 * _parity(np.arange(vec_a.size, dtype=np.int64))
    return complex(np.sum(signs * vec_a * vec_b[::-1]))


def n_tangle_spinflip(state: Ket) -> float:
    """Spin-flip evaluation of the n-tangle at O(2**n) cost.

    Even n: squared overlap of the state with its spin-flipped image.
    Odd n: the equivalent 2x2 pairing determinant described in the
    module docstring (the plain overlap is identically zero there).
    """
    n = state.n
    if n < 1:
        raise DomainError("the n-tangle needs at least one qubit")
    a = state.amplitudes
    if n % 2 == 0:
        return float(abs(_epsilon_pair(a, a)) ** 2)
    b = a.reshape(-1, 2)
    t00 = _epsilon_pair(b[:, 0], b[:, 0])
    t01 = _epsilon_pair(b[:, 0], b[:, 1])
    t10 = _epsilon_pair(b[:, 1], b[:, 0])
    t11 = _epsilon_pair(b[:, 1], b[:, 1])
    return float(4.0 * abs(t00 * t11 - t01 * t10))


def _pattern_pair(x: np.ndarray, y: np.ndarray, n_sites: int) -> complex:
    """sum_p (-1)**(N popcount(p)) x_p y_{~p} over block-pattern vectors."""
    if n_sites % 2:
        return _epsilon_pair(x, y)
    return complex(np.sum(x * y[::-1]))


def n_tangle_patterns(pattern_amps: np.ndarray, n_sites: int) -> float:
    """Tangle of a register supported on block patterns, at O(2**K) cost.

    ``pattern_amps`` holds one amplitude per block pattern of K rounds
    of ``n_sites`` qubits each, round 1 on the high bit, as
    ``meter.pattern_amplitudes`` returns them.  No index of the N*K-qubit
    register is ever formed.
    """
    if n_sites < 1:
        raise DomainError(f"sites per round must be at least 1, got {n_sites}")
    a = np.asarray(pattern_amps)
    if n_sites == 1:
        return n_tangle_spinflip(Ket(a))
    rounds = a.size.bit_length() - 1
    if n_sites * rounds % 2 == 0:
        return float(abs(_pattern_pair(a, a, n_sites)) ** 2)
    u, v = a[0::2], a[1::2]
    return float(4.0 * abs(_pattern_pair(u, v, n_sites) * _pattern_pair(v, u, n_sites)))


def meter_tangle_simplified(spec: MeterSpec) -> float:
    """Meter-register tangle via the reduced two-block pairing.

    The meter amplitudes are real and supported on block patterns, so
    the four-copy contraction collapses to the square of one pairing
    between the blocks ending in all-zeros and all-ones.
    """
    if spec.n_qubits == 1:
        # A lone meter qubit carries no entanglement; the reduced pairing
        # below needs a last site distinct from the leading ones.
        return 0.0
    amps = kfold_meter(spec).amplitudes.real
    block = 1 << spec.n_sites
    grouped = amps.reshape(-1, block)
    u = grouped[:, 0]
    v = grouped[:, block - 1]
    paired = _epsilon_pair(u, v).real
    return float(4.0 * paired * paired)


def verify_strength_tangle(specs: list[MeterSpec]) -> list[TangleReport]:
    """Tabulate meter tangle against squared strength for each spec."""
    reports = []
    for spec in specs:
        tau = n_tangle_patterns(pattern_amplitudes(spec), spec.n_sites)
        s2 = spec.strength**2
        reports.append(
            TangleReport(
                n=spec.n_qubits,
                tau=tau,
                method="patterns",
                strength_squared=s2,
                residual=abs(tau - s2),
                monotone=tangle_is_monotone(spec.n_qubits),
            )
        )
    return reports


def state_tangle_report(state: Ket) -> TangleReport:
    """Tangle of an arbitrary state, with no strength context."""
    return TangleReport(
        n=state.n,
        tau=n_tangle_spinflip(state),
        method="spinflip",
        strength_squared=None,
        residual=None,
        monotone=tangle_is_monotone(state.n),
    )
