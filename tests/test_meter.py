"""Tests for GHZ-like meter states and the strength/angle dictionary.

The K-round register is checked against an independent construction
from explicit GHZ tensor factors, and against hand-reduced amplitude
values for the two-round three-site case.
"""

import math
from functools import reduce

import numpy as np
import pytest

from strength_inverse import theta_for_strength

from vsmsim.errors import DomainError, ResourceLimitError
from vsmsim.meter import MeterSpec, kfold_meter, parse_angle, pattern_amplitudes, strength

X = np.array([[0, 1], [1, 0]], dtype=complex)


def ghz_vector(n, sign):
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 1 / math.sqrt(2)
    vec[-1] = sign / math.sqrt(2)
    return vec


def single_round(n, theta):
    """Amplitudes of the one-round meter on n sites."""
    return kfold_meter(MeterSpec(rounds=1, n_sites=n, theta=theta)).amplitudes


def kfold_oracle(k, n, theta):
    """Meter register built from GHZ tensor factors, no basis indexing.

    Uses the equivalent combination cos(theta) |GHZ+>^k plus
    sin(theta)/sqrt(2**k - 1) times (the k-fold tensor power of
    (|GHZ+> + |GHZ->) minus |GHZ+>^k).
    """
    plus = ghz_vector(n, 1)
    both = plus + ghz_vector(n, -1)
    plus_k = reduce(np.kron, [plus] * k)
    both_k = reduce(np.kron, [both] * k)
    return math.cos(theta) * plus_k + math.sin(theta) / math.sqrt(2**k - 1) * (
        both_k - plus_k
    )


class TestGhz:
    """At theta = 0 and pi/2 the one-round meter is GHZ+ and GHZ-."""

    def test_minus_sign_eigenstate(self):
        # GHZ+- are the +-1 eigenstates of X on every site.
        xxx = reduce(np.kron, [X] * 3)
        for theta, eigenvalue in ((0.0, 1.0), (math.pi / 2, -1.0)):
            amps = single_round(3, theta)
            assert np.vdot(amps, xxx @ amps).real == pytest.approx(eigenvalue)

    def test_single_qubit(self):
        np.testing.assert_allclose(
            single_round(1, math.pi / 2), [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15
        )


class TestNonlocalMeter:
    """The one-round meter cos(theta)|GHZ+> + sin(theta)|GHZ->."""

    def test_theta_zero_is_ghz_plus(self):
        np.testing.assert_allclose(single_round(3, 0.0), ghz_vector(3, 1))

    def test_weak_point_is_all_zeros(self):
        expected = np.zeros(4)
        expected[0] = 1.0
        np.testing.assert_allclose(single_round(2, math.pi / 4), expected, atol=1e-15)

    def test_two_site_amplitudes(self):
        theta = math.pi / 8
        c, s = math.cos(theta), math.sin(theta)
        expected = [(c + s) / math.sqrt(2), 0.0, 0.0, (c - s) / math.sqrt(2)]
        np.testing.assert_allclose(single_round(2, theta), expected, atol=1e-15)

    def test_ghz_decomposition(self):
        for theta in np.linspace(0, math.pi / 2, 7):
            combo = math.cos(theta) * ghz_vector(3, 1) + math.sin(theta) * ghz_vector(3, -1)
            np.testing.assert_allclose(single_round(3, float(theta)), combo, atol=1e-14)

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            single_round(2, -0.1)
        with pytest.raises(DomainError):
            single_round(2, math.pi / 2 + 0.1)


class TestKfoldMeter:
    def test_matches_ghz_combination_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            theta = float(rng.uniform(0, math.pi / 2))
            spec = MeterSpec(rounds=k, n_sites=n, theta=theta)
            np.testing.assert_allclose(
                kfold_meter(spec).amplitudes, kfold_oracle(k, n, theta), atol=1e-13
            )

    def test_two_round_three_site_amplitudes(self):
        for theta in (0.0, 0.5, 1.0):
            spec = MeterSpec(rounds=2, n_sites=3, theta=theta)
            amps = kfold_meter(spec).amplitudes
            alpha = (math.cos(theta) + math.sqrt(3) * math.sin(theta)) / 2
            beta = (math.cos(theta) - math.sin(theta) / math.sqrt(3)) / 2
            assert amps[0b000000] == pytest.approx(alpha)
            for idx in (0b111000, 0b000111, 0b111111):
                assert amps[idx] == pytest.approx(beta)
            others = np.delete(np.arange(64), [0, 0b111000, 0b000111, 0b111111])
            np.testing.assert_allclose(amps[others], 0.0, atol=1e-15)

    def test_theta_zero_is_ghz_tensor_power(self):
        spec = MeterSpec(rounds=2, n_sites=2, theta=0.0)
        expected = np.kron(ghz_vector(2, 1), ghz_vector(2, 1))
        np.testing.assert_allclose(kfold_meter(spec).amplitudes, expected, atol=1e-15)

    def test_weak_point_is_product_state(self):
        for k in (1, 2, 3):
            theta = math.acos(2.0 ** (-k / 2))
            spec = MeterSpec(rounds=k, n_sites=2, theta=theta)
            amps = kfold_meter(spec).amplitudes
            assert amps[0] == pytest.approx(1.0)
            np.testing.assert_allclose(amps[1:], 0.0, atol=1e-15)

    def test_normalized_on_grid(self):
        for k in (1, 2, 3):
            for n in (1, 2, 4):
                for theta in np.linspace(0, math.pi / 2, 50):
                    spec = MeterSpec(rounds=k, n_sites=n, theta=float(theta))
                    assert abs(np.linalg.norm(kfold_meter(spec).amplitudes) - 1.0) < 1e-12


class TestPatternAmplitudes:
    def test_single_site_rounds_are_the_register(self):
        # With N = 1 each pattern is a basis index of the K-qubit meter.
        for k in (1, 2, 3, 4):
            for theta in (0.0, 0.4, 1.2):
                spec = MeterSpec(rounds=k, n_sites=1, theta=theta)
                np.testing.assert_allclose(
                    pattern_amplitudes(spec), kfold_oracle(k, 1, theta), atol=1e-13
                )

    def test_scattered_to_block_patterns(self):
        spec = MeterSpec(rounds=3, n_sites=2, theta=0.7)
        amps = kfold_meter(spec).amplitudes
        patterns = pattern_amplitudes(spec)
        for p in range(8):
            index = sum(0b11 << (2 * bit) for bit in range(3) if (p >> bit) & 1)
            assert amps[index] == patterns[p]

    def test_independent_of_sites(self):
        for n in (1, 3, 40):
            spec = MeterSpec(rounds=2, n_sites=n, theta=0.3)
            assert pattern_amplitudes(spec).shape == (4,)
            assert np.sum(pattern_amplitudes(spec) ** 2) == pytest.approx(1.0)

    def test_pattern_count_capped(self, monkeypatch):
        monkeypatch.setenv("VSM_MAX_QUBITS", "4")
        with pytest.raises(ResourceLimitError, match="2\\^5 entries"):
            pattern_amplitudes(MeterSpec(rounds=5, n_sites=1, theta=0.2))


class TestStrength:
    def test_projective_limit(self):
        assert strength(1, 0.0) == 1.0
        assert strength(3, 0.0) == 1.0

    def test_single_round_double_angle(self):
        for theta in np.linspace(0, math.pi / 2, 33):
            assert strength(1, float(theta)) == pytest.approx(
                math.cos(2 * theta), abs=1e-15
            )

    def test_two_rounds_at_pi_six(self):
        # 4 cos^2(pi/6) = 3, so (3 - 1)/3 = 2/3.
        assert strength(2, math.pi / 6) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_point(self):
        for k in (1, 2, 4):
            theta = math.acos(2.0 ** (-k / 2))
            assert strength(k, theta) == pytest.approx(0.0, abs=1e-15)

    def test_negative_beyond_weak_point(self):
        assert strength(1, math.pi / 2) == pytest.approx(-1.0)
        assert strength(2, math.pi / 2) == pytest.approx(-1.0 / 3.0)

    def test_inverse_round_trip(self):
        for k in (1, 2, 3):
            for target in np.linspace(0, 1, 21):
                theta = theta_for_strength(k, float(target))
                assert strength(k, theta) == pytest.approx(float(target), abs=1e-12)

    def test_inverse_known_value(self):
        assert theta_for_strength(1, 0.5) == pytest.approx(math.pi / 6)

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            theta_for_strength(2, -0.2)
        with pytest.raises(DomainError):
            theta_for_strength(2, 1.2)


class TestMeterSpec:
    def test_angle_parsing(self):
        assert parse_angle("45deg") == pytest.approx(math.pi / 4)
        assert parse_angle("0.25") == 0.25

    def test_compliance_flag(self):
        assert MeterSpec(rounds=1, n_sites=2, theta=0.3).vsm_compliant
        assert not MeterSpec(rounds=1, n_sites=2, theta=1.2).vsm_compliant

    def test_qubit_count(self):
        assert MeterSpec(rounds=3, n_sites=2, theta=0.0).n_qubits == 6

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            MeterSpec(rounds=0, n_sites=2, theta=0.1)
        with pytest.raises(DomainError):
            MeterSpec(rounds=1, n_sites=0, theta=0.1)
        with pytest.raises(DomainError):
            MeterSpec(rounds=1, n_sites=2, theta=2.0)
