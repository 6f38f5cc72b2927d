"""Tests for the n-tangle evaluators and the strength-tangle identity.

The einsum contraction is checked against a literal pure-Python loop
over all four multi-indices, plus closed-form values for GHZ, W, Bell
and product states.  The identity checks pin down both where it holds
and the exact value the meter takes where it does not.  The pattern
evaluator that meter reports use is checked against the dense
spin-flip and contraction evaluators on the scattered register, on a
fixed grid and on hypothesis-drawn (K, N, theta).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuit_oracle import tensor
from tangle_oracle import CONTRACTION_MAX_QUBITS, n_tangle_contraction

from vsmsim.entanglement import (
    TangleReport,
    meter_tangle_simplified,
    n_tangle_patterns,
    n_tangle_spinflip,
    state_tangle_report,
    tangle_is_monotone,
    verify_strength_tangle,
)
from vsmsim.errors import DomainError, ResourceLimitError
from vsmsim.meter import MeterSpec, kfold_meter, pattern_amplitudes
from vsmsim.statevec import Ket

EPS = ((0, 1), (-1, 0))


def loop_tangle(amps, n):
    """Quadruple loop over basis indices, nothing vectorized.

    Site m < n pairs copies (1,2) and (3,4); the last site pairs (1,3)
    and (2,4).  Qubit 1 is the most significant bit.
    """
    dim = 1 << n
    total = 0j
    for a in range(dim):
        if amps[a] == 0:
            continue
        for b in range(dim):
            for c in range(dim):
                for d in range(dim):
                    term = amps[a] * amps[b] * amps[c] * amps[d]
                    if term == 0:
                        continue
                    weight = 1
                    for site in range(n - 1):
                        shift = n - 1 - site
                        weight *= EPS[(a >> shift) & 1][(b >> shift) & 1]
                        weight *= EPS[(c >> shift) & 1][(d >> shift) & 1]
                        if weight == 0:
                            break
                    if weight == 0:
                        continue
                    weight *= EPS[a & 1][c & 1]
                    weight *= EPS[b & 1][d & 1]
                    total += weight * term
    return 2.0 * abs(total)


def random_ket(rng, n):
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Ket.normalized(vec)


def ghz_ket(n):
    vec = np.zeros(1 << n, dtype=complex)
    vec[[0, -1]] = 1.0
    return Ket.normalized(vec)


def w_state(n):
    vec = np.zeros(1 << n, dtype=complex)
    for q in range(n):
        vec[1 << q] = 1.0
    return Ket.normalized(vec)


class TestLoopOracle:
    def test_random_states_match_contraction(self):
        rng = np.random.default_rng(101)
        for n in (2, 3):
            for _ in range(4):
                state = random_ket(rng, n)
                slow = loop_tangle(state.amplitudes, n)
                fast = n_tangle_contraction(state)
                assert fast == pytest.approx(slow, abs=1e-11)

    def test_four_qubit_case(self):
        rng = np.random.default_rng(103)
        state = random_ket(rng, 4)
        assert n_tangle_contraction(state) == pytest.approx(
            loop_tangle(state.amplitudes, 4), abs=1e-11
        )

    def test_ghz_three_by_loop(self):
        state = ghz_ket(3)
        assert loop_tangle(state.amplitudes, 3) == pytest.approx(1.0, abs=1e-12)
        assert n_tangle_contraction(state) == pytest.approx(1.0, abs=1e-12)


class TestKnownValues:
    def test_basis_states_untangled(self):
        for n in (1, 2, 3):
            assert n_tangle_contraction(Ket.basis(n, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_single_qubit_always_zero(self):
        rng = np.random.default_rng(107)
        state = random_ket(rng, 1)
        assert n_tangle_contraction(state) == pytest.approx(0.0, abs=1e-14)
        assert n_tangle_spinflip(state) == pytest.approx(0.0, abs=1e-14)

    def test_partially_entangled_pair(self):
        state = Ket([0.6, 0.0, 0.0, 0.8])
        # Concurrence 2*0.6*0.8 = 0.96; the 2-tangle is its square.
        assert n_tangle_contraction(state) == pytest.approx(0.9216, abs=1e-12)

    def test_ghz_states_maximal(self):
        for n in (2, 3, 4):
            assert n_tangle_contraction(ghz_ket(n)) == pytest.approx(1.0, abs=1e-12)

    def test_w_states_zero(self):
        assert n_tangle_contraction(w_state(3)) == pytest.approx(0.0, abs=1e-12)
        assert n_tangle_contraction(w_state(4)) == pytest.approx(0.0, abs=1e-12)

    def test_product_states_zero(self):
        rng = np.random.default_rng(109)
        plus = Ket.normalized([1.0, 1.0])
        assert n_tangle_contraction(tensor([plus, plus])) == pytest.approx(0.0, abs=1e-14)
        product = tensor([random_ket(rng, 1), random_ket(rng, 1)])
        assert n_tangle_contraction(product) == pytest.approx(0.0, abs=1e-13)

    def test_global_phase_invariant(self):
        rng = np.random.default_rng(113)
        state = random_ket(rng, 3)
        rotated = Ket(np.exp(0.7j) * state.amplitudes)
        assert n_tangle_contraction(rotated) == pytest.approx(
            n_tangle_contraction(state), abs=1e-12
        )

    def test_local_unitary_invariant(self):
        rng = np.random.default_rng(127)
        state = random_ket(rng, 3)
        full = np.eye(1, dtype=complex)
        for _ in range(3):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(raw)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            q = q / np.sqrt(np.linalg.det(q) + 0j)
            full = np.kron(full, q)
        rotated = Ket(full @ state.amplitudes)
        assert n_tangle_contraction(rotated) == pytest.approx(
            n_tangle_contraction(state), abs=1e-10
        )


class TestSpinflip:
    def test_matches_contraction_on_random_states(self):
        rng = np.random.default_rng(131)
        for n in (2, 3, 4, 5, 6):
            for _ in range(5):
                state = random_ket(rng, n)
                assert n_tangle_spinflip(state) == pytest.approx(
                    n_tangle_contraction(state), abs=1e-10
                )

    def test_odd_ghz_beyond_contraction_budget(self):
        assert n_tangle_spinflip(ghz_ket(9)) == pytest.approx(1.0, abs=1e-12)

    def test_contraction_budget_enforced(self):
        big = Ket.basis(CONTRACTION_MAX_QUBITS + 1, 0)
        with pytest.raises(ResourceLimitError):
            n_tangle_contraction(big)

    def test_zero_qubits_rejected(self):
        scalar = Ket(np.array([1.0 + 0j]))
        with pytest.raises(DomainError):
            n_tangle_contraction(scalar)
        with pytest.raises(DomainError):
            n_tangle_spinflip(scalar)


PATTERN_THETAS = (0.0, math.pi / 8, math.pi / 6, 0.9, math.pi / 2)


def pattern_tangle(spec):
    return n_tangle_patterns(pattern_amplitudes(spec), spec.n_sites)


class TestPatterns:
    def test_matches_dense_spinflip(self):
        # Covers N = 1, even and odd N*K, and registers up to 20 qubits.
        for rounds in range(1, 6):
            for n_sites in range(1, 8):
                if rounds * n_sites > 20:
                    continue
                for theta in PATTERN_THETAS:
                    spec = MeterSpec(rounds=rounds, n_sites=n_sites, theta=theta)
                    dense = n_tangle_spinflip(kfold_meter(spec))
                    assert pattern_tangle(spec) == pytest.approx(dense, abs=1e-13), spec

    def test_matches_contraction(self):
        for rounds in range(1, 9):
            for n_sites in range(1, 9 // rounds + 1):
                if rounds * n_sites > CONTRACTION_MAX_QUBITS:
                    continue
                for theta in PATTERN_THETAS:
                    spec = MeterSpec(rounds=rounds, n_sites=n_sites, theta=theta)
                    reference = n_tangle_contraction(kfold_meter(spec))
                    assert pattern_tangle(spec) == pytest.approx(reference, abs=1e-12), spec

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        rounds=st.integers(1, 6),
        n_sites=st.integers(1, 40),
        theta=st.floats(0.0, math.pi / 2),
    )
    def test_random_specs(self, rounds, n_sites, theta):
        spec = MeterSpec(rounds=rounds, n_sites=n_sites, theta=theta)
        tau = pattern_tangle(spec)
        if spec.n_qubits <= 14:
            dense = n_tangle_spinflip(kfold_meter(spec))
            assert tau == pytest.approx(dense, abs=1e-13)
        if spec.n_qubits == 1:
            expected = 0.0
        elif rounds == 1 or n_sites % 2 == 0:
            expected = spec.strength**2
        else:
            # README closed form for odd N with K >= 2.
            d = (1 << rounds) - 1
            beta = math.cos(theta) - math.sin(theta) / math.sqrt(d)
            expected = 4.0 * math.sin(theta) ** 2 * beta**2 / d
        assert tau == pytest.approx(expected, abs=1e-12)

    def test_sites_must_be_positive(self):
        with pytest.raises(DomainError):
            n_tangle_patterns(np.array([1.0, 0.0]), 0)


class TestMeterSimplified:
    def test_matches_contraction(self):
        combos = [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]
        thetas = (0.0, math.pi / 8, math.pi / 6, 0.9, math.pi / 2)
        for rounds, n_sites in combos:
            for theta in thetas:
                spec = MeterSpec(rounds=rounds, n_sites=n_sites, theta=theta)
                simplified = meter_tangle_simplified(spec)
                reference = n_tangle_contraction(kfold_meter(spec))
                assert simplified == pytest.approx(reference, abs=1e-10)


class TestStrengthTangleIdentity:
    def test_holds_single_round_and_even_sites(self):
        thetas = np.linspace(0.0, math.pi / 2, 11)
        specs = []
        for rounds, n_sites in ((1, 2), (1, 3), (2, 2)):
            specs += [
                MeterSpec(rounds=rounds, n_sites=n_sites, theta=float(t))
                for t in thetas
            ]
        for report in verify_strength_tangle(specs):
            assert report.residual < 1e-9

    def test_single_round_closed_form(self):
        for theta in np.linspace(0.0, math.pi / 2, 9):
            spec = MeterSpec(rounds=1, n_sites=2, theta=float(theta))
            [report] = verify_strength_tangle([spec])
            assert report.tau == pytest.approx(math.cos(2 * theta) ** 2, abs=1e-12)

    def test_odd_sites_two_rounds_value(self):
        # Three sites, two rounds: the tangle is not the squared strength.
        # It equals 4 sin^2(theta) beta^2 / 3 with
        # beta = cos(theta) - sin(theta)/sqrt(3), vanishing at theta = 0.
        for theta in (0.0, math.pi / 6, math.pi / 3, 1.1):
            spec = MeterSpec(rounds=2, n_sites=3, theta=theta)
            [report] = verify_strength_tangle([spec])
            beta = math.cos(theta) - math.sin(theta) / math.sqrt(3)
            expected = 4.0 * math.sin(theta) ** 2 * beta**2 / 3.0
            assert report.tau == pytest.approx(expected, abs=1e-12)
            assert report.residual == pytest.approx(
                abs(expected - spec.strength**2), abs=1e-12
            )

    def test_single_site(self):
        # N = K = 1: one meter qubit, no tangle, while s^2 = cos^2(2 theta).
        # N = 1, K >= 2: the odd-N closed form, on the patterns and the dense pairing.
        for theta in (0.0, 0.3, 1.1):
            [one] = verify_strength_tangle([MeterSpec(rounds=1, n_sites=1, theta=theta)])
            assert one.tau == pytest.approx(0.0, abs=1e-12)
            assert one.residual == pytest.approx(math.cos(2 * theta) ** 2, abs=1e-12)
            for rounds in (2, 3):
                spec = MeterSpec(rounds=rounds, n_sites=1, theta=theta)
                [report] = verify_strength_tangle([spec])
                d = 2**rounds - 1
                beta = math.cos(theta) - math.sin(theta) / math.sqrt(d)
                expected = 4.0 * math.sin(theta) ** 2 * beta**2 / d
                assert report.tau == pytest.approx(expected, abs=1e-12)
                assert meter_tangle_simplified(spec) == pytest.approx(expected, abs=1e-12)

    def test_odd_sites_two_rounds_breaks_identity(self):
        spec = MeterSpec(rounds=2, n_sites=3, theta=math.pi / 6)
        [report] = verify_strength_tangle([spec])
        assert report.tau == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert report.strength_squared == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert report.residual > 0.3

    def test_report_metadata(self):
        specs = [
            MeterSpec(rounds=2, n_sites=2, theta=0.5),
            MeterSpec(rounds=3, n_sites=3, theta=0.5),
        ]
        small, large = verify_strength_tangle(specs)
        assert small.n == 4 and small.method == "patterns" and small.monotone
        assert large.n == 9 and large.method == "patterns" and not large.monotone


class TestReports:
    def test_state_report(self):
        report = state_tangle_report(ghz_ket(2))
        assert report.tau == pytest.approx(1.0, abs=1e-12)
        assert report.method == "spinflip"
        assert report.strength_squared is None
        assert report.residual is None
        assert report.monotone

    def test_json_shape(self):
        report = TangleReport(
            n=4, tau=0.25, method="contraction", strength_squared=0.25,
            residual=0.0, monotone=True,
        )
        payload = report.to_json()
        assert payload == {
            "n": 4,
            "tau": 0.25,
            "method": "contraction",
            "strength_squared": 0.25,
            "residual": 0.0,
            "monotone": True,
        }
        none_report = state_tangle_report(Ket.basis(2, 0))
        assert none_report.to_json()["strength_squared"] is None

    def test_monotone_table(self):
        assert tangle_is_monotone(2)
        assert tangle_is_monotone(3)
        assert tangle_is_monotone(4)
        assert tangle_is_monotone(6)
        assert not tangle_is_monotone(5)
        assert not tangle_is_monotone(7)
