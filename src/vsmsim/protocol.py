"""Coupling circuit, outcome combination, Kraus/POVM extraction, sampling.

The indirect scheme measures K commuting N-site Pauli products in one
shot.  The system is joined to an entangled N*K-qubit meter register
(see ``meter``), each meter qubit acts as the control of a controlled
Pauli gate on its system site, and every meter qubit is read out in the
X basis.  The raw record is the tuple of N*K readout signs, laid out
round-major: entry (k-1)*N + n - 1 belongs to round k, site n.  The
product of round k's N signs is that round's combined sign s_k, and the
sign vector (s_1, ..., s_K) is the measurement outcome.

Records sharing a sign vector induce the same conditional state, so the
scheme is described by 2**K Kraus operators, each realized by
2**(K*(N-1)) records.  ``kraus_bruteforce`` extracts them by simulating
the full circuit; ``kraus_closed_form`` builds

    M_s = 2**(-K(N-1)/2) [cos(theta) P_s + sin(theta)/sqrt(2**K-1) (I - P_s)]

from the joint eigenprojectors P_s that its caller passes in (built by
``MeasurementModel.pvm``), and the POVM effects are

    E_s = 2**(K(N-1)) M_s^dag M_s
        = cos(theta)**2 P_s + sin(theta)**2/(2**K-1) (I - P_s).

A mod-d shift model (``qudit_vsm``) provides the single-qudit analogue
the multi-qubit scheme generalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DimensionError, DomainError
from .meter import MeterSpec, kfold_meter
from .pauli import (
    ObservableSet,
    Pvm,
    SetValidation,
    SignVector,
    _parity,
    _walsh_hadamard,
    accept_set,
    build_pvm,
    sign_vectors,
)
from .statevec import Ket, apply_controlled, check_size, tensor

# Every random draw in the package uses this generator family.
RNG_ALGORITHM = "numpy-pcg64"

# Records mapping to one sign vector must agree to this absolute tolerance.
RECORD_AGREEMENT_ATOL = 1e-10


def sign_string(signs: SignVector) -> str:
    """Render a sign vector as characters, e.g. ``(1, -1)`` to ``"+-"``."""
    return "".join("+" if s == 1 else "-" for s in signs)


@dataclass(frozen=True)
class MeasurementModel:
    """A jointly measurable observable set with a meter angle.

    ``coupling_order`` is the order in which each system site sees its K
    controlled gates (a permutation of 1..K, default ascending).  The
    extracted Kraus operators and POVM do not depend on it because the
    observables commute; it is kept explicit so the circuit is fully
    specified.  ``validation`` is the report of the one validation of
    the observable set, made on construction.
    """

    observables: ObservableSet
    theta: float
    coupling_order: tuple[int, ...] = ()
    validation: SetValidation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "validation", accept_set(self.observables))
        # Delegates the theta domain check.
        MeterSpec(rounds=self.size, n_sites=self.observables.n_sites, theta=self.theta)
        order = tuple(self.coupling_order) or tuple(range(1, self.size + 1))
        if sorted(order) != list(range(1, self.size + 1)):
            raise DomainError(
                f"coupling order {order} is not a permutation of 1..{self.size}"
            )
        object.__setattr__(self, "coupling_order", order)

    @property
    def size(self) -> int:
        """Number of observables K."""
        return self.observables.size

    @property
    def n_sites(self) -> int:
        return self.observables.n_sites

    @property
    def meter_spec(self) -> MeterSpec:
        return MeterSpec(rounds=self.size, n_sites=self.n_sites, theta=self.theta)

    @property
    def strength(self) -> float:
        return self.meter_spec.strength

    @property
    def vsm_compliant(self) -> bool:
        return self.meter_spec.vsm_compliant

    @property
    def multiplicity(self) -> int:
        """Records per sign vector, 2**(K*(N-1))."""
        return 1 << (self.size * (self.n_sites - 1))

    def pvm(self) -> Pvm:
        """The joint eigenprojectors, a new dense 2**K * 4**N stack per call."""
        return build_pvm(self.validation)

    def to_json(self) -> dict:
        return {
            "observables": [str(o) for o in self.observables.observables],
            "theta": float(self.theta),
            "order": list(self.coupling_order),
        }


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators keyed by sign vector, each occurring ``multiplicity`` times."""

    operators: dict[SignVector, np.ndarray]
    multiplicity: int

    def completeness_residual(self) -> float:
        """Max-norm distance of multiplicity * sum(M^dag M) from the identity."""
        return self.povm().completeness_residual()

    def povm(self) -> Povm:
        """Effects E_s = multiplicity * M_s^dag M_s."""
        return Povm(
            effects={
                signs: self.multiplicity * (mat.conj().T @ mat)
                for signs, mat in self.operators.items()
            }
        )


@dataclass(frozen=True)
class Povm:
    """POVM effects keyed by sign vector."""

    effects: dict[SignVector, np.ndarray]

    def completeness_residual(self) -> float:
        total = sum(self.effects.values())
        return float(np.max(np.abs(total - np.eye(total.shape[0]))))


@dataclass(frozen=True)
class OutcomeRecord:
    """One sampled shot: raw meter signs, combined signs, conditional state.

    ``probability`` is the chance of this exact raw readout, so the
    combined outcome's probability is spread over its multiplicity of
    equivalent raw records.
    """

    raw: tuple[int, ...]
    signs: SignVector
    post_state: Ket
    probability: float

    def to_json(self) -> dict:
        return {
            "raw": list(self.raw),
            "signs": sign_string(self.signs),
            "probability": float(self.probability),
            "post_state": self.post_state.to_json(),
        }


def couple(model: MeasurementModel, system: Ket) -> Ket:
    """Join ``system`` to the meter register and run the coupling circuit.

    System qubits come first (sites 1..N), then the meter qubits in
    round-major order.  Meter qubit (k, n) controls the Pauli letter of
    observable k at site n.
    """
    n = model.n_sites
    if system.n != n:
        raise DimensionError(f"system has {system.n} qubits, model needs {n}")
    state = tensor([system, kfold_meter(model.meter_spec)])
    for k in model.coupling_order:
        obs = model.observables.observables[k - 1]
        for site in range(1, n + 1):
            control = n + (k - 1) * n + site
            state = apply_controlled(obs.letters[site - 1].matrix, control, site, state)
    return state


def _sign_index(records: np.ndarray, rounds: int, n_sites: int) -> np.ndarray:
    """Index in ``sign_vectors`` order of each X-readout record index's sign vector.

    Bit 1 of a record index is a -1 readout, so round r's combined sign
    is the parity of its N-bit block; the parities, read as a K-bit
    number with round 1 on the high bit, are the index.
    """
    index = np.zeros(np.shape(records), dtype=np.int64)
    block = (1 << n_sites) - 1
    for r in range(rounds):
        index = (index << 1) | _parity((records >> ((rounds - 1 - r) * n_sites)) & block)
    return index


def _branches(model: MeasurementModel, system: Ket) -> np.ndarray:
    """Unnormalized conditional system states, one column per record index."""
    m = model.size * model.n_sites
    coupled = couple(model, system)
    block = coupled.amplitudes.reshape(1 << model.n_sites, 1 << m)
    return _walsh_hadamard(block) / math.sqrt(2.0) ** m


def kraus_bruteforce(model: MeasurementModel) -> KrausSet:
    """Extract the Kraus operators by simulating the full circuit.

    Runs the coupling on every computational basis state, projects each
    meter qubit onto the X basis, groups the resulting record operators
    by combined sign vector, and checks that all records in a group give
    the same operator.  No closed-form input: this is the oracle the
    closed form is tested against.
    """
    n, k = model.n_sites, model.size
    # One 2**N x 2**N operator per record.
    check_size(n * k + 2 * n, "the record operator stack")
    dim_s = 1 << n
    dim_m = 1 << (n * k)
    stacked = np.empty((dim_m, dim_s, dim_s), dtype=np.complex128)
    for j in range(dim_s):
        # Column j of every record operator comes from input |j>.
        stacked[:, :, j] = _branches(model, Ket.basis(n, j)).T
    index = _sign_index(np.arange(dim_m), k, n)
    counts = dict(zip(sign_vectors(k), np.bincount(index, minlength=1 << k).tolist()))
    expected = model.multiplicity
    if any(c != expected for c in counts.values()):
        raise ConsistencyError(f"record counts {counts} differ from multiplicity {expected}")
    operators = {}
    for s, signs in enumerate(sign_vectors(k)):
        members = np.flatnonzero(index == s)
        rep = stacked[members[0]]
        deviation = float(np.max(np.abs(stacked[members] - rep)))
        if deviation > RECORD_AGREEMENT_ATOL:
            raise ConsistencyError(
                f"records with signs {sign_string(signs)} disagree by {deviation:.3e}"
            )
        operators[signs] = rep
    return KrausSet(operators=operators, multiplicity=expected)


def kraus_closed_form(model: MeasurementModel, pvm: Pvm) -> KrausSet:
    """Kraus operators of ``model`` from its joint eigenprojectors ``pvm``, no circuit involved."""
    n, k = model.n_sites, model.size
    dim = 1 << n
    if len(pvm.projectors) != 1 << k or any(
        proj.shape != (dim, dim) for proj in pvm.projectors.values()
    ):
        raise DimensionError(
            f"{len(pvm.projectors)} projectors do not fit a model of K={k} on N={n} sites"
        )
    eye = np.eye(dim, dtype=np.complex128)
    scale = 2.0 ** (-k * (n - 1) / 2.0)
    in_coef = math.cos(model.theta)
    out_coef = math.sin(model.theta) / math.sqrt(2.0**k - 1.0)
    operators = {
        signs: scale * (in_coef * proj + out_coef * (eye - proj))
        for signs, proj in pvm.projectors.items()
    }
    return KrausSet(operators=operators, multiplicity=model.multiplicity)


def povm(model: MeasurementModel) -> Povm:
    """POVM effects, multiplicity-weighted squares of the Kraus operators.

    The projectors are passed inline, so their stack is freed before the
    effects are multiplied out.
    """
    return kraus_closed_form(model, model.pvm()).povm()


def outcome_distribution(model: MeasurementModel, system: Ket) -> dict[SignVector, float]:
    """Probability of each sign vector for input ``system``."""
    if system.n != model.n_sites:
        raise DimensionError(f"system has {system.n} qubits, model needs {model.n_sites}")
    amps = system.amplitudes
    dist = {}
    for signs, effect in povm(model).effects.items():
        dist[signs] = float(np.real(np.vdot(amps, effect @ amps)))
    return dist


def _record_probabilities(branches: np.ndarray) -> np.ndarray:
    probs = np.sum(np.abs(branches) ** 2, axis=0)
    # Floating-point dust must not reach the sampler.
    probs = np.clip(probs.real, 0.0, None)
    return probs / probs.sum()


def sample(model: MeasurementModel, system: Ket, seed) -> OutcomeRecord:
    """Draw one shot and return its record, signs, and conditional state."""
    branches = _branches(model, system)
    probs = _record_probabilities(branches)
    rng = np.random.default_rng(seed)
    pos = int(rng.choice(branches.shape[1], p=probs))
    total = model.size * model.n_sites
    raw = tuple(1 - 2 * ((pos >> (total - 1 - i)) & 1) for i in range(total))
    signs = sign_vectors(model.size)[int(_sign_index(pos, model.size, model.n_sites))]
    post = Ket.normalized(branches[:, pos])
    return OutcomeRecord(raw=raw, signs=signs, post_state=post, probability=float(probs[pos]))


def sample_signs(
    model: MeasurementModel, system: Ket, shots: int, seed
) -> dict[SignVector, int]:
    """Draw ``shots`` records at once and tally the combined sign vectors."""
    if shots < 1:
        raise DomainError(f"shots must be positive, got {shots}")
    # The draws are one int64 per shot.
    check_size((int(shots) - 1).bit_length(), f"drawing {shots} shots")
    branches = _branches(model, system)
    probs = _record_probabilities(branches)
    rng = np.random.default_rng(seed)
    draws = rng.choice(branches.shape[1], size=shots, p=probs)
    by_pos = np.bincount(draws, minlength=branches.shape[1])
    drawn = np.flatnonzero(by_pos)
    k = model.size
    index = _sign_index(drawn, k, model.n_sites)
    # Float weights hold the counts exactly: each is at most shots < 2**53.
    tally = np.bincount(index, weights=by_pos[drawn], minlength=1 << k)
    return {s: int(c) for s, c in zip(sign_vectors(k), tally)}


@dataclass(frozen=True)
class QuditVsm:
    """Single-qudit variable-strength measurement via a mod-d shift meter."""

    d: int
    theta: float
    kraus: tuple[np.ndarray, ...]
    effects: tuple[np.ndarray, ...]
    strength: float


def qudit_vsm(d: int, theta: float) -> QuditVsm:
    """Closed-form qudit VSM: d diagonal Kraus operators and their effects.

    The meter is cos(theta)|0> + sin(theta)/sqrt(d-1) (|1>+...+|d-1>); a
    mod-d shift writes the system value into it, and reading the meter
    value j leaves K_j|i> = phi_((j-i) mod d) |i>.
    """
    if d < 2:
        raise DomainError(f"qudit dimension must be at least 2, got {d}")
    if not 0.0 <= theta <= math.pi / 2:
        raise DomainError(f"theta must lie in [0, pi/2], got {theta!r}")
    # d Kraus operators and d effects of d**2 entries each.
    check_size((2 * d**3 - 1).bit_length(), "the qudit operator stack")
    phi = _qudit_meter(d, theta)
    kraus = []
    effects = []
    for j in range(d):
        diag = np.array([phi[(j - i) % d] for i in range(d)], dtype=np.complex128)
        k_j = np.diag(diag)
        kraus.append(k_j)
        effects.append(k_j.conj().T @ k_j)
    s = (d * math.cos(theta) ** 2 - 1.0) / (d - 1.0)
    return QuditVsm(d=d, theta=theta, kraus=tuple(kraus), effects=tuple(effects), strength=s)


def _qudit_meter(d: int, theta: float) -> np.ndarray:
    phi = np.full(d, math.sin(theta) / math.sqrt(d - 1.0))
    phi[0] = math.cos(theta)
    return phi


def qudit_vsm_bruteforce(d: int, theta: float) -> list[np.ndarray]:
    """Qudit effects from literal simulation of the shift circuit.

    Builds the d**2-dimensional joint state, applies the permutation
    |i, j> -> |i, (j + i) mod d|, and reads the meter column-by-column.
    Independent of the closed form: used to test it.
    """
    if d < 2:
        raise DomainError(f"qudit dimension must be at least 2, got {d}")
    phi = _qudit_meter(d, theta)
    effects = []
    kraus = [np.zeros((d, d), dtype=np.complex128) for _ in range(d)]
    for i in range(d):
        joint = np.zeros(d * d, dtype=np.complex128)
        joint[i * d : (i + 1) * d] = phi
        shifted = np.zeros_like(joint)
        for j in range(d):
            shifted[i * d + (j + i) % d] = joint[i * d + j]
        for j in range(d):
            for i_out in range(d):
                kraus[j][i_out, i] = shifted[i_out * d + j]
    for j in range(d):
        effects.append(kraus[j].conj().T @ kraus[j])
    return effects


def matrix_to_json(mat: np.ndarray) -> dict:
    """Row-major real/imag parts, JSON-ready."""
    arr = np.asarray(mat, dtype=np.complex128)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def effects_to_json(effects: dict[SignVector, np.ndarray]) -> dict:
    """Sign-keyed matrix map, canonical sign order preserved."""
    return {sign_string(signs): matrix_to_json(mat) for signs, mat in effects.items()}
