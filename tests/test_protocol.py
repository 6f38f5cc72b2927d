"""Tests for the coupling circuit, Kraus/POVM extraction, and sampling.

The coupling is checked against an independent branch-expansion oracle
(controlled products applied per meter pattern, assembled with np.kron),
and the closed-form Kraus operators against the brute-force circuit
simulation.  POVM square roots are cross-checked via eigendecomposition.
"""

import math
import weakref
from collections import Counter
from functools import reduce

import numpy as np
import pytest

from projectors import pvm_of
from strength_inverse import theta_for_strength

from vsmsim.errors import (
    CommutationError,
    ConsistencyError,
    DependenceError,
    DimensionError,
    DomainError,
    ResourceLimitError,
)
from vsmsim import protocol
from vsmsim.pauli import ObservableSet, sign_vectors
from vsmsim.protocol import (
    MeasurementModel,
    couple,
    kraus_bruteforce,
    kraus_closed_form,
    matrix_to_json,
    outcome_distribution,
    povm,
    qudit_vsm,
    qudit_vsm_bruteforce,
    sample,
    sample_signs,
    sign_string,
)
from vsmsim.statevec import Ket

SINGLE = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

BELL = {
    (1, 1): np.array([1, 0, 0, 1]) / math.sqrt(2),
    (-1, 1): np.array([1, 0, 0, -1]) / math.sqrt(2),
    (1, -1): np.array([0, 1, 1, 0]) / math.sqrt(2),
    (-1, -1): np.array([0, 1, -1, 0]) / math.sqrt(2),
}


def random_ket(rng, n):
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Ket.normalized(vec)


def model(obs, theta, order=()):
    return MeasurementModel(
        observables=ObservableSet.from_string(obs), theta=theta, coupling_order=order
    )


def obs_matrix(name):
    return reduce(np.kron, [SINGLE[c] for c in name])


def raw_record(pos, rounds, n_sites):
    """The +-1 readout signs of X-readout record index ``pos``, meter qubit 1 first."""
    total = rounds * n_sites
    return tuple(1 - 2 * ((pos >> (total - 1 - i)) & 1) for i in range(total))


def record_signs(raw, rounds, n_sites):
    """Oracle: the product of each round's block of +-1 readout signs."""
    return tuple(int(np.prod(raw[r * n_sites : (r + 1) * n_sites])) for r in range(rounds))


def couple_oracle(obs_names, theta, psi):
    """Branch expansion: sum over meter patterns of c_l (prod O^l) psi (x) |pattern>.

    Independent of the package's gate machinery; amplitudes assembled
    with np.kron from explicit basis vectors.
    """
    k = len(obs_names)
    n = len(obs_names[0])
    alpha = math.cos(theta) + math.sqrt(2**k - 1) * math.sin(theta)
    beta = math.cos(theta) - math.sin(theta) / math.sqrt(2**k - 1)
    total = np.zeros((1 << n) * (1 << (n * k)), dtype=complex)
    for pattern in range(1 << k):
        coef = 2.0 ** (-k / 2) * (alpha if pattern == 0 else beta)
        branch = psi.copy()
        meter = np.zeros(1 << (n * k), dtype=complex)
        index = 0
        for kk in range(k):
            if (pattern >> (k - 1 - kk)) & 1:
                branch = obs_matrix(obs_names[kk]) @ branch
                index |= ((1 << n) - 1) << ((k - 1 - kk) * n)
        meter[index] = 1.0
        total += coef * np.kron(branch, meter)
    return total


class TestCombineOutcomes:
    """Raw records combine into sign vectors through ``protocol._sign_index``."""

    def test_single_round(self):
        # Readout (+1, -1) is record index 0b01.
        [index] = protocol._sign_index(np.array([0b01]), 1, 2)
        assert sign_vectors(1)[index] == (-1,)

    def test_two_rounds(self):
        # Readout (+1, -1, -1, -1) is record index 0b0111.
        [index] = protocol._sign_index(np.array([0b0111]), 2, 2)
        assert sign_vectors(2)[index] == (-1, 1)


class TestModel:
    def test_rejects_noncommuting(self):
        with pytest.raises(CommutationError):
            model("XX,ZX", 0.1)

    def test_rejects_dependent(self):
        with pytest.raises(DependenceError):
            model("XX,ZZ,XX", 0.1)

    def test_rejects_bad_theta(self):
        with pytest.raises(DomainError):
            model("XX", -0.5)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            model("XX,ZZ", 0.1, order=(1, 3))

    def test_default_order(self):
        assert model("XX,ZZ", 0.1).coupling_order == (1, 2)

    def test_multiplicity(self):
        assert model("ZZ", 0.1).multiplicity == 2
        assert model("XX,ZZ", 0.1).multiplicity == 4
        assert model("XYZ", 0.1).multiplicity == 4



class TestCouple:
    def test_single_site_hand_value(self):
        # One X observable on |0> at angle theta: the meter control flips
        # the system exactly on the |1> meter branch.
        theta = 0.6
        state = couple(model("X", theta), Ket.basis(1, 0))
        c, s = math.cos(theta), math.sin(theta)
        expected = np.array([(c + s), 0.0, 0.0, (c - s)]) / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_matches_branch_oracle(self):
        rng = np.random.default_rng(61)
        cases = [("ZZ",), ("XX", "ZZ"), ("XYZ",), ("XXZ", "ZZZ"), ("X",)]
        for obs_names in cases:
            theta = float(rng.uniform(0, math.pi / 2))
            psi = random_ket(rng, len(obs_names[0]))
            m = model(",".join(obs_names), theta)
            fast = couple(m, psi).amplitudes
            slow = couple_oracle(obs_names, theta, psi.amplitudes)
            np.testing.assert_allclose(fast, slow, atol=1e-13)

    def test_norm_preserved(self):
        rng = np.random.default_rng(67)
        psi = random_ket(rng, 2)
        assert abs(couple(model("XX,ZZ", 0.9), psi).norm - 1.0) < 1e-12

    def test_dimension_checked(self):
        with pytest.raises(DimensionError):
            couple(model("XX", 0.1), Ket.basis(3, 0))


class TestKrausBruteforce:
    def test_two_distinct_operators_for_zz(self):
        kraus = kraus_bruteforce(model("ZZ", 0.4))
        assert kraus.multiplicity == 2
        assert set(kraus.operators) == {(1,), (-1,)}

    def test_completeness(self):
        for theta in (0.0, 0.5, math.pi / 4, math.pi / 2):
            kraus = kraus_bruteforce(model("XX,ZZ", theta))
            assert kraus.completeness_residual() < 1e-12

    def test_strong_limit_scaled_projectors(self):
        kraus = kraus_bruteforce(model("XX,ZZ", 0.0))
        pvm = pvm_of(ObservableSet.from_string("XX,ZZ"))
        for signs, mat in kraus.operators.items():
            np.testing.assert_allclose(mat, pvm.projectors[signs] / 2, atol=1e-12)

    def test_qubit_cap_checked_before_allocating(self, monkeypatch):
        # 2**6 records of 8 x 8 operators: 2**12 entries, while the circuit spans 9 qubits.
        monkeypatch.setenv("VSM_MAX_QUBITS", "11")
        with pytest.raises(ResourceLimitError, match="above the limit of 11"):
            kraus_bruteforce(model("XXZ,ZZZ", 0.4))

    def test_disagreeing_records_rejected(self, monkeypatch):
        # Record index 1 reads (+1, +1, +1, -1): signs (+1, -1).
        branches = protocol._branches

        def perturbed(m, system):
            out = branches(m, system).copy()
            out[:, 1] += 1e-6
            return out

        monkeypatch.setattr(protocol, "_branches", perturbed)
        with pytest.raises(ConsistencyError, match=r"records with signs \+- disagree"):
            kraus_bruteforce(model("XX,ZZ", 0.4))

    def test_record_counts_checked(self, monkeypatch):
        sign_index = protocol._sign_index

        def skewed(records, rounds, n_sites):
            index = sign_index(records, rounds, n_sites)
            return np.where(records == 0, 1, index)

        monkeypatch.setattr(protocol, "_sign_index", skewed)
        with pytest.raises(ConsistencyError, match="record counts"):
            kraus_bruteforce(model("XX,ZZ", 0.4))


class TestClosedFormAgreement:
    CASES = {"Z": "Z", "XX": "XX", "XX,ZZ": "XX,ZZ", "XYZ": "XYZ", "XXZ,ZZZ": "XXZ,ZZZ"}

    def test_matches_bruteforce(self):
        for obs in self.CASES:
            for theta in np.linspace(0, math.pi / 2, 7):
                m = model(obs, float(theta))
                brute = kraus_bruteforce(m)
                closed = kraus_closed_form(m, m.pvm())
                assert brute.multiplicity == closed.multiplicity
                for signs in brute.operators:
                    np.testing.assert_allclose(
                        closed.operators[signs],
                        brute.operators[signs],
                        atol=1e-12,
                    )

    def test_rejects_projectors_of_another_model(self):
        m = model("XX,ZZ", 0.4)
        with pytest.raises(DimensionError):
            kraus_closed_form(m, pvm_of(ObservableSet.from_string("ZZ")))
        with pytest.raises(DimensionError):
            kraus_closed_form(m, pvm_of(ObservableSet.from_string("XXXX,ZZZZ")))

    def test_coupling_order_irrelevant(self):
        base = kraus_bruteforce(model("XX,ZZ", 0.8))
        swapped = kraus_bruteforce(model("XX,ZZ", 0.8, order=(2, 1)))
        for signs in base.operators:
            np.testing.assert_allclose(
                base.operators[signs], swapped.operators[signs], atol=1e-12
            )


class TestPovm:
    def test_completeness_and_positivity(self):
        for obs in ("ZZ", "XX,ZZ", "XYZ"):
            for theta in np.linspace(0, math.pi / 2, 9):
                effects = povm(model(obs, float(theta)))
                assert effects.completeness_residual() < 1e-12
                assert min(np.linalg.eigvalsh(e).min() for e in effects.effects.values()) > -1e-12

    def test_frees_projectors_before_effects(self, monkeypatch):
        # The 2**K * 4**N stack must not be alive during the effect matmuls.
        built = []
        real_build, real_effects = protocol.build_pvm, protocol.KrausSet.povm

        def build(report):
            pvm = real_build(report)
            built.append((weakref.ref(pvm), weakref.ref(next(iter(pvm.projectors.values())).base)))
            return pvm

        alive = []

        def effects(kraus):
            alive.extend(ref() is not None for pair in built for ref in pair)
            return real_effects(kraus)

        monkeypatch.setattr(protocol, "build_pvm", build)
        monkeypatch.setattr(protocol.KrausSet, "povm", effects)
        assert povm(model("XX,ZZ", 0.3)).completeness_residual() < 1e-12
        assert alive == [False, False]

    def test_single_round_effect_formula(self):
        theta = 0.7
        effects = povm(model("XX", theta)).effects
        pvm = pvm_of(ObservableSet.from_string("XX"))
        eye = np.eye(4)
        for signs, effect in effects.items():
            proj = pvm.projectors[signs]
            expected = math.cos(theta) ** 2 * proj + math.sin(theta) ** 2 * (eye - proj)
            np.testing.assert_allclose(effect, expected, atol=1e-12)

    def test_vsm_linear_form(self):
        # E_s = (I + s (2^K P_s - I)) / 2^K with s the model strength.
        for obs, k in (("XX", 1), ("XX,ZZ", 2)):
            for theta in (0.0, 0.4, 1.1, math.pi / 2):
                m = model(obs, theta)
                pvm = m.pvm()
                eye = np.eye(1 << m.n_sites)
                for signs, effect in povm(m).effects.items():
                    proj = pvm.projectors[signs]
                    expected = (eye + m.strength * (2**k * proj - eye)) / 2**k
                    np.testing.assert_allclose(effect, expected, atol=1e-12)

    def test_square_root_is_scaled_kraus(self):
        # The Hermitian square root of each effect, computed by
        # eigendecomposition, equals 2^{K(N-1)/2} M_s: minimal disturbance.
        for obs in ("ZZ", "XX,ZZ", "XXZ,ZZZ"):
            m = model(obs, 0.9)
            kraus = kraus_closed_form(m, m.pvm())
            scale = math.sqrt(m.multiplicity)
            for signs, effect in povm(m).effects.items():
                vals, vecs = np.linalg.eigh(effect)
                root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
                np.testing.assert_allclose(
                    root, scale * kraus.operators[signs], atol=1e-10
                )


class TestDistribution:
    def test_bell_state_probabilities(self):
        theta = 0.5
        m = model("XX,ZZ", theta)
        for signs, vec in BELL.items():
            dist = outcome_distribution(m, Ket(vec))
            for out, p in dist.items():
                expected = (
                    math.cos(theta) ** 2 if out == signs else math.sin(theta) ** 2 / 3
                )
                assert p == pytest.approx(expected, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(71)
        for obs in ("XYZ", "XX,ZZ"):
            m = model(obs, float(rng.uniform(0, math.pi / 2)))
            dist = outcome_distribution(m, random_ket(rng, m.n_sites))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_at_zero_strength(self):
        theta = theta_for_strength(2, 0.0)
        m = model("XX,ZZ", theta)
        rng = np.random.default_rng(73)
        dist = outcome_distribution(m, random_ket(rng, 2))
        for p in dist.values():
            assert p == pytest.approx(0.25, abs=1e-12)


class TestSample:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(79)
        psi = random_ket(rng, 2)
        m = model("XX,ZZ", 0.8)
        first = sample(m, psi, 1234)
        second = sample(m, psi, 1234)
        assert first.raw == second.raw
        assert first.signs == second.signs
        np.testing.assert_allclose(
            first.post_state.amplitudes, second.post_state.amplitudes, rtol=0, atol=1e-15
        )

    def test_raw_consistent_with_signs(self):
        rng = np.random.default_rng(83)
        m = model("XX,ZZ", 0.6)
        for seed in range(8):
            record = sample(m, random_ket(rng, 2), seed)
            assert record_signs(record.raw, 2, 2) == record.signs
            assert len(record.raw) == 4

    def test_post_state_proportional_to_kraus_branch(self):
        rng = np.random.default_rng(89)
        psi = random_ket(rng, 2)
        m = model("XX,ZZ", 0.7)
        kraus = kraus_closed_form(m, m.pvm())
        for seed in range(6):
            record = sample(m, psi, seed)
            branch = kraus.operators[record.signs] @ psi.amplitudes
            branch = branch / np.linalg.norm(branch)
            overlap = abs(np.vdot(branch, record.post_state.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_strong_measurement_projects_bell(self):
        m = model("XX,ZZ", 0.0)
        record = sample(m, Ket(BELL[(1, -1)]), 7)
        assert record.signs == (1, -1)
        # Raw-record probability: the certain outcome is spread uniformly
        # over multiplicity = 4 equivalent readouts.
        assert record.probability == pytest.approx(0.25)
        overlap = np.vdot(record.post_state.amplitudes, BELL[(1, -1)])
        assert abs(overlap) ** 2 > 1 - 1e-12

    def test_sample_signs_counts(self):
        m = model("XX,ZZ", 0.3)
        counts = sample_signs(m, Ket(BELL[(1, 1)]), 4000, 5)
        assert sum(counts.values()) == 4000
        assert set(counts) == set(sign_vectors(2))
        # Theory: cos^2(0.3) ~ 0.9127 on the correct outcome.
        assert counts[(1, 1)] / 4000 == pytest.approx(math.cos(0.3) ** 2, abs=0.02)

    def test_sample_signs_deterministic(self):
        m = model("ZZ", 0.5)
        psi = Ket.normalized([1.0, 2.0, 0.5, -0.3])
        assert sample_signs(m, psi, 100, 11) == sample_signs(m, psi, 100, 11)

    @pytest.mark.parametrize("obs", ["Z", "XX,ZZ", "XYZ,ZZZ", "XXX,ZZX,YYX", "XXXX,ZZZZ,XXZZ"])
    def test_sample_signs_tally_matches_per_record_signs(self, obs):
        # The same draws, each combined through its raw record.
        m = model(obs, 0.9)
        psi = random_ket(np.random.default_rng(101), m.n_sites)
        branches = protocol._branches(m, psi)
        probs = protocol._record_probabilities(branches)
        draws = np.random.default_rng(13).choice(branches.shape[1], size=500, p=probs)
        expected = Counter(
            record_signs(raw_record(int(pos), m.size, m.n_sites), m.size, m.n_sites)
            for pos in draws
        )
        counts = sample_signs(m, psi, 500, 13)
        assert counts == {s: expected[s] for s in sign_vectors(m.size)}
        assert list(counts) == sign_vectors(m.size)


class TestQudit:
    def test_closed_form_matches_bruteforce(self):
        for d in (2, 3, 4):
            for theta in np.linspace(0, math.pi / 2, 9):
                closed = qudit_vsm(d, float(theta))
                brute = qudit_vsm_bruteforce(d, float(theta))
                for e_closed, e_brute in zip(closed.effects, brute):
                    np.testing.assert_allclose(e_closed, e_brute, atol=1e-12)

    def test_qubit_case_diagonal(self):
        theta = 0.4
        result = qudit_vsm(2, theta)
        np.testing.assert_allclose(
            result.effects[0],
            np.diag([math.cos(theta) ** 2, math.sin(theta) ** 2]),
            atol=1e-15,
        )

    def test_matches_single_qubit_protocol(self):
        # d=2 shift model is the one-site one-round Z measurement.
        theta = 0.9
        result = qudit_vsm(2, theta)
        effects = povm(model("Z", theta)).effects
        np.testing.assert_allclose(result.effects[0], effects[(1,)], atol=1e-12)
        np.testing.assert_allclose(result.effects[1], effects[(-1,)], atol=1e-12)

    def test_completeness(self):
        for d in (2, 3, 4):
            result = qudit_vsm(d, 0.8)
            total = sum(result.effects)
            np.testing.assert_allclose(total, np.eye(d), atol=1e-12)

    def test_strength_endpoints(self):
        for d in (2, 3, 4):
            assert qudit_vsm(d, 0.0).strength == pytest.approx(1.0, abs=1e-15)
            weak = math.acos(d ** -0.5)
            assert qudit_vsm(d, weak).strength == pytest.approx(0.0, abs=1e-15)

    def test_four_level_strength_value(self):
        assert qudit_vsm(4, math.pi / 6).strength == pytest.approx(2.0 / 3.0)

    def test_dimension_validated(self):
        with pytest.raises(DomainError):
            qudit_vsm(1, 0.3)


class TestSerializationHelpers:
    def test_sign_string_round_trip(self):
        assert sign_string((1, -1, 1)) == "+-+"

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(97)
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        data = matrix_to_json(mat)
        np.testing.assert_array_equal(np.asarray(data["re"]) + 1j * np.asarray(data["im"]), mat)
