"""Tests for the dense state-vector primitives.

Controlled gates and tensor products are checked against independent
dense-matrix oracles built index-by-index in this file, never against
the implementation's own plumbing.
"""

import json
import math

import numpy as np
import pytest

from vsmsim.errors import DimensionError, DomainError, ParseError, ResourceLimitError
from vsmsim.statevec import Ket, apply_controlled, max_qubits, tensor

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_ket(rng, n):
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Ket.normalized(vec)


def controlled_matrix(u, control, target, n):
    """Independent dense oracle for a controlled-u gate on n qubits."""
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        cbit = (col >> (n - control)) & 1
        if cbit == 0:
            mat[col, col] = 1.0
        else:
            tbit = (col >> (n - target)) & 1
            for new_t in (0, 1):
                row = (col & ~(1 << (n - target))) | (new_t << (n - target))
                mat[row, col] = u[new_t, tbit]
    return mat


class TestKet:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            Ket([1.0, 1.0])

    def test_explicit_normalization(self):
        ket = Ket.normalized([1.0, 1.0])
        np.testing.assert_allclose(ket.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionError):
            Ket([1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            Ket.normalized([0.0, 0.0])

    def test_basis(self):
        ket = Ket.basis(2, 2)
        np.testing.assert_array_equal(ket.amplitudes, [0, 0, 1, 0])
        assert ket.n == 2

    def test_basis_index_range(self):
        with pytest.raises(DomainError):
            Ket.basis(2, 4)

    def test_scalar_ket_allowed(self):
        ket = Ket([1.0])
        assert ket.n == 0

    def test_amplitudes_read_only(self):
        ket = Ket.basis(1, 0)
        with pytest.raises(ValueError):
            ket.amplitudes[0] = 0.5

    def test_immutable_attributes(self):
        ket = Ket.basis(1, 0)
        with pytest.raises(AttributeError):
            ket.n = 3

    def test_qubit_cap_respected(self, monkeypatch):
        monkeypatch.setenv("VSM_MAX_QUBITS", "3")
        assert max_qubits() == 3
        with pytest.raises(ResourceLimitError):
            Ket.basis(4, 0)

    def test_qubit_cap_default(self, monkeypatch):
        monkeypatch.delenv("VSM_MAX_QUBITS", raising=False)
        assert max_qubits() == 24

    def test_qubit_cap_validation(self, monkeypatch):
        monkeypatch.setenv("VSM_MAX_QUBITS", "zero")
        with pytest.raises(DomainError):
            max_qubits()


class TestKetJson:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        ket = random_ket(rng, 3)
        again = Ket.from_json(ket.to_json())
        np.testing.assert_allclose(again.amplitudes, ket.amplitudes, rtol=0, atol=1e-12)

    def test_round_trip_through_text(self):
        ket = Ket.normalized([1.0, 1.0j])
        text = json.dumps(ket.to_json())
        again = Ket.from_json(text)
        np.testing.assert_allclose(again.amplitudes, ket.amplitudes, rtol=0, atol=1e-12)

    def test_length_validated(self):
        with pytest.raises(ParseError):
            Ket.from_json({"n": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]})

    def test_qubit_cap_checked_before_length(self, monkeypatch):
        # n above the cap is refused before 2**n is formed, whatever the arrays hold.
        monkeypatch.setenv("VSM_MAX_QUBITS", "3")
        with pytest.raises(ResourceLimitError, match="above the limit of 3"):
            Ket.from_json({"n": 4, "re": [1.0], "im": [0.0]})

    def test_norm_validated(self):
        data = {"n": 1, "re": [1.0, 1.0], "im": [0.0, 0.0]}
        with pytest.raises(ParseError):
            Ket.from_json(data)

    def test_mild_norm_error_rescaled(self):
        # Within the 1e-6 parse tolerance the state is accepted and rescaled.
        amp = math.sqrt(0.5) * (1.0 + 2e-7)
        ket = Ket.from_json({"n": 1, "re": [amp, amp], "im": [0.0, 0.0]})
        assert abs(ket.norm - 1.0) < 1e-12

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            Ket.from_json("not json at all")
        with pytest.raises(ParseError):
            Ket.from_json({"n": 1, "re": [0.0, 1.0]})


class TestTensor:
    def test_two_ghz_factors(self):
        ghz2 = Ket.normalized([1.0, 0.0, 0.0, 1.0])
        prod = tensor([ghz2, ghz2])
        expected = np.zeros(16)
        expected[[0, 3, 12, 15]] = 0.5
        np.testing.assert_allclose(prod.amplitudes, expected, atol=1e-15)

    def test_first_factor_most_significant(self):
        one = Ket.basis(1, 1)
        zero = Ket.basis(1, 0)
        assert tensor([one, zero]).amplitudes[2] == 1.0
        assert tensor([zero, one]).amplitudes[1] == 1.0

    def test_associativity(self):
        rng = np.random.default_rng(5)
        a, b, c = (random_ket(rng, k) for k in (1, 2, 1))
        left = tensor([tensor([a, b]), c])
        right = tensor([a, tensor([b, c])])
        np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            tensor([])

    def test_qubit_cap_checked(self, monkeypatch):
        monkeypatch.setenv("VSM_MAX_QUBITS", "3")
        with pytest.raises(ResourceLimitError, match="above the limit of 3"):
            tensor([Ket.basis(2, 0), Ket.basis(2, 0)])


class TestApplyControlled:
    def test_cnot_flips_target(self):
        state = apply_controlled(X, 1, 2, Ket.basis(2, 2))
        np.testing.assert_allclose(state.amplitudes, Ket.basis(2, 3).amplitudes)

    def test_cz_phases_one_one(self):
        state = apply_controlled(Z, 1, 2, Ket.basis(2, 3))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, -1])

    def test_cy_control_above_target(self):
        start = Ket.normalized([1.0, 1.0, 0.0, 0.0])  # (|00> + |01>)/sqrt(2)
        state = apply_controlled(Y, 2, 1, start)
        expected = np.array([1.0, 0.0, 0.0, 1.0j]) / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            control = int(rng.integers(1, n + 1))
            target = int(rng.integers(1, n + 1))
            if target == control:
                target = control % n + 1
            u = (X, Y, Z)[int(rng.integers(0, 3))]
            state = random_ket(rng, n)
            fast = apply_controlled(u, control, target, state)
            dense = controlled_matrix(u, control, target, n) @ state.amplitudes
            np.testing.assert_allclose(fast.amplitudes, dense, atol=1e-12)

    def test_norm_preserved_up_to_ten_qubits(self):
        rng = np.random.default_rng(31)
        for n in (2, 5, 10):
            state = random_ket(rng, n)
            for _ in range(5):
                c = int(rng.integers(1, n + 1))
                t = c % n + 1
                state = apply_controlled(Y, c, t, state)
            assert abs(state.norm - 1.0) < 1e-12

    def test_double_application_is_identity(self):
        rng = np.random.default_rng(37)
        state = random_ket(rng, 3)
        twice = apply_controlled(X, 3, 1, apply_controlled(X, 3, 1, state))
        np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-13)

    def test_control_equals_target_rejected(self):
        with pytest.raises(DimensionError):
            apply_controlled(X, 2, 2, Ket.basis(2, 0))
