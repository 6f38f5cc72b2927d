"""Coupling circuit, outcome combination, Kraus/POVM extraction, sampling.

The indirect scheme measures K commuting N-site Pauli products in one
shot.  The system is joined to an entangled N*K-qubit meter register
(see ``meter``), each meter qubit acts as the control of a controlled
Pauli gate on its system site, and every meter qubit is read out in the
X basis.  The raw record is the tuple of N*K readout signs, laid out
round-major: entry (k-1)*N + n - 1 belongs to round k, site n.  The
product of round k's N signs is that round's combined sign s_k, and the
sign vector (s_1, ..., s_K) is the measurement outcome.

``couple`` writes the dense N(K+1)-qubit register after the coupling
without simulating a gate.  The meter is supported on 2**K block
patterns, and on pattern T the controls that are 1 are exactly those of
the rounds in T, so their letters multiply to the subset product O_T
that ``validate_set`` returned: the register is
sum_T a_T (O_T |system>) (x) |pattern T>, one signed permutation of the
system amplitudes per pattern (``pauli._term_action``).  It agrees bit
for bit with the gate-by-gate circuit that the tests keep
(``tests/circuit_oracle.py``).  The X readout of all meter qubits is a
Walsh-Hadamard transform over the meter index (``pauli._walsh_hadamard``),
whose column j, scaled by 2**(-NK/2), is the unnormalized conditional
system state of record index j.  ``_branches`` runs it in place on the
register that ``_coupled_register`` wrote, its lowest levels on
transposed blocks, and ``_record_probabilities`` squares the result one
row at a time, so ``sample`` holds the register once while it draws one
record index from those columns: at (N, K) = (5, 3), 16 MB, the readout
takes 45-62 ms in-process, and a traced shot peaks near 1.2 register
sizes.

A record j reads pattern T's column with sign (-1)**popcount(j & T's
index), the product of the combined signs of the rounds in T, so every
record of sign vector s reads out the same column: column s of the K-bit
transform of the 2**K pattern columns (``_pattern_columns``, 2**(N+K)
entries).  ``sample_signs`` therefore makes one multinomial draw over
their squared norms and never forms a record or the coupled register: a
1000-shot tally at (5, 3) takes about 0.3 ms instead of 60 ms.

Records sharing a sign vector induce the same conditional state, so the
scheme is described by 2**K Kraus operators, each realized by
2**(K*(N-1)) records.  ``kraus_bruteforce`` extracts them from the
records of every basis state; ``kraus_closed_form`` builds

    M_s = 2**(-K(N-1)/2) [cos(theta) P_s + sin(theta)/sqrt(2**K-1) (I - P_s)]

without forming the joint eigenprojectors P_s: with
P_s = 2**-K sum_T chi_s(T) O_T, each M_s is one row of 2**K weights on
the model's subset products, and ``pauli.scatter`` builds all 2**K
operators from that table at once.  The POVM effects are

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
from .meter import MeterSpec, _pattern_index, _strength, pattern_amplitudes
from .pauli import (
    ObservableSet,
    PauliTerm,
    SignVector,
    _parity,
    _term_action,
    _walsh_hadamard,
    characters,
    scatter,
    sign_vectors,
    validate_set,
)
from .statevec import Ket, check_size

# Every random draw in the package uses this generator family.
RNG_ALGORITHM = "numpy-pcg64"
# How ``sample`` and ``sample_signs`` draw, named in artifacts so that a new stream shows.
RECORD_SAMPLER = "records"
TALLY_SAMPLER = "multinomial"

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
    observables commute, so ``couple`` does not read it; it is kept
    explicit, and recorded, so the circuit is fully specified.
    ``products`` holds the subset products that ``validate_set``, the one
    check of the set, returned on construction.
    """

    observables: ObservableSet
    theta: float
    coupling_order: tuple[int, ...] = ()
    products: tuple[PauliTerm, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "products", validate_set(self.observables))
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
    """Join ``system`` to the meter register and apply the coupling.

    System qubits come first (sites 1..N), then the meter qubits in
    round-major order.  The meter lives on its 2**K block patterns, and on
    pattern T the controlled letters of the rounds in T multiply to the
    subset product O_T, so the coupled state is
    sum_T a_T (O_T |system>) (x) |pattern T>.  Each pattern's meter column
    is written once; every other column stays zero.  The commuting O_k
    give the same O_T in any coupling order.
    """
    return Ket(_coupled_register(model, system).reshape(-1), require_normalized=False)


def _coupled_register(model: MeasurementModel, system: Ket) -> np.ndarray:
    """``couple``'s amplitudes as a C-contiguous 2**N x 2**(NK) array, system index first."""
    n = model.n_sites
    qubits = n * (model.size + 1)
    check_size(qubits, "the coupled register")
    columns = _pattern_columns(model, system)
    register = np.zeros((1 << n, 1 << (qubits - n)), dtype=np.complex128)
    register[:, _pattern_index(model.size, n)] = columns
    return register


def _pattern_columns(model: MeasurementModel, system: Ket) -> np.ndarray:
    """The register's nonzero meter columns a_T O_T|system> as a C-contiguous 2**N x 2**K array."""
    n = model.n_sites
    if system.n != n:
        raise DimensionError(f"system has {system.n} qubits, model needs {n}")
    check_size(n + model.size, "the pattern columns")
    meter = pattern_amplitudes(model.meter_spec).astype(np.complex128)
    columns = np.empty((1 << n, meter.size), dtype=np.complex128)
    # In the circuit no gate touches the empty pattern, so its signed zeros stay.
    columns[:, 0] = system.amplitudes * meter[0]
    for t in range(1, meter.size):
        rows, phases = _term_action(model.products[t], n)
        # The phases are exact; + 0.0 makes each zero part +0, as a gate of the circuit does.
        columns[rows, t] = phases * (system.amplitudes * meter[t]) + 0.0
    return columns


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
    """Unnormalized conditional system states, one column per record index, in place."""
    records = _walsh_hadamard(_coupled_register(model, system))
    records /= math.sqrt(2.0) ** (model.size * model.n_sites)
    return records


def kraus_bruteforce(model: MeasurementModel) -> KrausSet:
    """Extract the Kraus operators from the X-readout records of every basis state.

    Couples every computational basis state, projects each meter qubit
    onto the X basis, groups the resulting record operators by combined
    sign vector, and checks that all records in a group give the same
    operator.  ``couple`` builds its register from the same subset
    products as ``kraus_closed_form``, so the tests that use this as the
    closed form's oracle run it with ``_branches`` taken from the
    gate-by-gate circuit instead.
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


def kraus_closed_form(model: MeasurementModel) -> KrausSet:
    """Kraus operators of ``model`` as one weighted scatter of its subset products.

    M_s = scale [(cos(theta) - o) P_s + o I] with o = sin(theta)/sqrt(2**K-1),
    so its weight on O_T is scale ((cos(theta) - o) 2**-K chi_s(T) + o [T empty]).
    No projector and no circuit is involved.
    """
    n, k = model.n_sites, model.size
    scale = 2.0 ** (-k * (n - 1) / 2.0)
    out_coef = math.sin(model.theta) / math.sqrt(2.0**k - 1.0)
    weights = (math.cos(model.theta) - out_coef) * 2.0**-k * characters(k)
    # O_T for the empty subset is I.
    weights[:, 0] += out_coef
    weights *= scale
    stack = scatter(model.products, weights, n)
    return KrausSet(operators=dict(zip(sign_vectors(k), stack)), multiplicity=model.multiplicity)


def povm(model: MeasurementModel) -> Povm:
    """POVM effects, multiplicity-weighted squares of the closed-form Kraus operators."""
    return kraus_closed_form(model).povm()


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
    # Row by row, in the order numpy's axis-0 sum adds them, so one row of temporaries is held.
    probs = np.zeros(branches.shape[1])
    for row in branches:
        probs += np.abs(row) ** 2
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


def _sign_probabilities(model: MeasurementModel, system: Ket) -> np.ndarray:
    """Probability of each sign vector, in ``sign_vectors`` order.

    Column s of the K-bit Walsh-Hadamard transform of the pattern columns
    is, up to the factor 2**(-NK/2), the conditional state that every
    record of sign vector s reads out, so the probabilities are the
    normalized squared norms of its 2**K columns.
    """
    states = _walsh_hadamard(_pattern_columns(model, system))
    weights = np.sum(np.abs(states) ** 2, axis=0)
    return weights / weights.sum()


def sample_signs(
    model: MeasurementModel, system: Ket, shots: int, seed
) -> dict[SignVector, int]:
    """Draw ``shots`` outcomes at once and tally the combined sign vectors.

    The tally is one multinomial draw over the 2**K sign-vector
    probabilities; no record and no coupled register is formed.
    """
    if shots < 1:
        raise DomainError(f"shots must be positive, got {shots}")
    # The shot count is held to the cap on dense sizes, so ``--samples`` has one limit.
    check_size((int(shots) - 1).bit_length(), f"drawing {shots} shots")
    probs = _sign_probabilities(model, system)
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    return {s: int(c) for s, c in zip(sign_vectors(model.size), counts)}


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
    index = np.arange(d)
    # Row j holds K_j's diagonal phi_((j-i) mod d), and its square E_j's.
    diagonals = phi[(index[:, None] - index[None, :]) % d]
    kraus = tuple(np.diag(row.astype(np.complex128)) for row in diagonals)
    effects = tuple(np.diag((row * row).astype(np.complex128)) for row in diagonals)
    return QuditVsm(d=d, theta=theta, kraus=kraus, effects=effects, strength=_strength(d, theta))


def _qudit_meter(d: int, theta: float) -> np.ndarray:
    phi = np.full(d, math.sin(theta) / math.sqrt(d - 1.0))
    phi[0] = math.cos(theta)
    return phi


def matrix_to_json(mat: np.ndarray) -> dict:
    """Real and imaginary parts as float64 arrays under "re" and "im".

    The arrays are not JSON-ready lists: the CLI's artifact writer
    renders them as ``json.dumps`` would render their ``tolist()``.
    """
    arr = np.asarray(mat, dtype=np.complex128)
    return {"re": arr.real, "im": arr.imag}


def effects_to_json(effects: dict[SignVector, np.ndarray]) -> dict:
    """Sign-keyed matrix map, canonical sign order preserved."""
    return {sign_string(signs): matrix_to_json(mat) for signs, mat in effects.items()}
