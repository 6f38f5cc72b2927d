"""Acceptance checks for the full measurement pipeline.

Eight independent criteria, each printed as one PASS/FAIL line on the
live terminal.  They pin the closed forms against brute-force circuit
oracles, the statistical behaviour of sampling against binomial theory,
and the tangle evaluators against each other.

Criterion 4 checks the strength-tangle relation where each form of it
holds: tau = s^2 for one round (any site count) and for even site
counts, and the odd-site closed form
tau = 4 sin^2(theta) beta^2 / (2^K - 1),
beta = cos(theta) - sin(theta)/sqrt(2^K - 1), on the (N=3, K=2) grid.
There it also checks that the identity tau = s^2 fails by exactly 1 at
theta = 0, where the meter is a product of two odd-sized GHZ factors.
"""

import contextlib
import math
from functools import reduce

import numpy as np
import pytest

from projectors import completeness_residual, pvm_of
from qudit_oracle import qudit_vsm_bruteforce
from strength_inverse import theta_for_strength
from tangle_oracle import n_tangle_contraction

from vsmsim.entanglement import n_tangle_spinflip, verify_strength_tangle
from vsmsim.meter import MeterSpec, strength
from vsmsim.pauli import ObservableSet
from vsmsim.protocol import (
    MeasurementModel,
    kraus_bruteforce,
    kraus_closed_form,
    outcome_distribution,
    povm,
    qudit_vsm,
    sample,
    sample_signs,
)
from vsmsim.statevec import Ket

GRID_25 = np.linspace(0.0, math.pi / 2, 25)

# (sites, rounds) -> a commuting independent observable set of that shape.
COMBOS = {
    (1, 1): "Z",
    (2, 1): "XX",
    (2, 2): "XX,ZZ",
    (3, 1): "XYZ",
    (3, 2): "XXZ,ZZZ",
}

BELL = {
    (1, 1): np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0),
    (-1, 1): np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
    (1, -1): np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0),
    (-1, -1): np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0),
}


@contextlib.contextmanager
def reported(capsys, number, description):
    """Print one live ACCEPTANCE line for the wrapped block."""
    ok = False
    try:
        yield
        ok = True
    finally:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {verdict} - {description}", flush=True)


def models_on_grid(obs):
    observables = ObservableSet.from_string(obs)
    for theta in GRID_25:
        yield MeasurementModel(observables=observables, theta=float(theta))


def hermitian_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    # Eigenvalues that are exactly zero come back as ~1e-17 noise whose
    # square root would pollute the oracle at the 1e-9 scale.
    vals[vals < 1e-12] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def test_criterion_1_closed_form_matches_bruteforce(capsys):
    with reported(capsys, 1, "closed-form Kraus and POVM effects match brute force"):
        for (n_sites, rounds), obs in COMBOS.items():
            pvm = pvm_of(ObservableSet.from_string(obs))
            eye = np.eye(1 << n_sites)
            for model in models_on_grid(obs):
                brute = kraus_bruteforce(model)
                closed = kraus_closed_form(model)
                assert closed.multiplicity == brute.multiplicity
                for signs, mat in closed.operators.items():
                    gap = np.max(np.abs(mat - brute.operators[signs]))
                    assert gap < 1e-9, (n_sites, rounds, model.theta, signs, gap)
                cos2 = math.cos(model.theta) ** 2
                sin2 = math.sin(model.theta) ** 2 / (2**rounds - 1)
                for signs, effect in povm(model).effects.items():
                    proj = pvm.projectors[signs]
                    expected = cos2 * proj + sin2 * (eye - proj)
                    gap = np.max(np.abs(effect - expected))
                    assert gap < 1e-9, (n_sites, rounds, model.theta, signs, gap)


def test_criterion_2_completeness_positivity_minimal_disturbance(capsys):
    with reported(
        capsys, 2, "POVM completeness, positivity, and square-root Kraus form"
    ):
        for (n_sites, rounds), obs in COMBOS.items():
            for model in models_on_grid(obs):
                effects = povm(model)
                assert completeness_residual(effects.effects) < 1e-10
                assert min(np.linalg.eigvalsh(e).min() for e in effects.effects.values()) >= -1e-10
                kraus = kraus_closed_form(model)
                scale = math.sqrt(model.multiplicity)
                for signs, effect in effects.effects.items():
                    gap = np.max(
                        np.abs(hermitian_sqrt(effect) - scale * kraus.operators[signs])
                    )
                    assert gap < 1e-9, (n_sites, rounds, model.theta, signs, gap)


def test_criterion_3_strength_formulas(capsys):
    with reported(capsys, 3, "strength closed form and VSM-form fit of the effects"):
        for theta in GRID_25:
            assert abs(strength(1, float(theta)) - math.cos(2 * theta)) < 1e-15
        for (n_sites, rounds), obs in COMBOS.items():
            pvm = pvm_of(ObservableSet.from_string(obs))
            d = 2**rounds
            for model in models_on_grid(obs):
                eye = np.eye(1 << n_sites)
                for signs, effect in povm(model).effects.items():
                    proj = pvm.projectors[signs]
                    own = float(np.real(np.trace(effect @ proj))) / pvm.rank
                    fitted = (d * own - 1.0) / (d - 1.0)
                    assert abs(fitted - model.strength) < 1e-10
                    rebuilt = (eye + fitted * (d * proj - eye)) / d
                    assert np.max(np.abs(rebuilt - effect)) < 1e-10


def odd_sites_meter_tangle(rounds, theta):
    """Meter tangle for an odd site count and K >= 2 (README closed form)."""
    m = 2**rounds - 1
    beta = math.cos(theta) - math.sin(theta) / math.sqrt(m)
    return 4.0 * math.sin(theta) ** 2 * beta**2 / m


def test_criterion_4_strength_tangle_identity(capsys):
    with reported(
        capsys,
        4,
        "meter tangle is strength^2 for K = 1 or even N, "
        "and the odd-N closed form on (N=3, K=2)",
    ):
        thetas = [float(t) for t in np.linspace(0.0, math.pi / 2, 50)]
        worst = {}
        for n_sites, rounds in ((2, 1), (3, 1), (2, 2), (3, 2)):
            specs = [
                MeterSpec(rounds=rounds, n_sites=n_sites, theta=t) for t in thetas
            ]
            reports = verify_strength_tangle(specs)
            if n_sites % 2 and rounds >= 2:
                expected = [odd_sites_meter_tangle(rounds, t) for t in thetas]
                # theta = 0: tau = 0 while s^2 = 1, so the identity fails by 1.
                assert abs(reports[0].residual - 1.0) < 1e-8, reports[0]
            else:
                expected = [r.strength_squared for r in reports]
            worst[(n_sites, rounds)] = max(
                abs(r.tau - e) for r, e in zip(reports, expected)
            )
        message = (
            f"max |tau - expected| by (sites, rounds): {worst}. "
            "Expected is strength^2 for one round or an even site count, and "
            "4 sin(theta)^2 (cos(theta) - sin(theta)/sqrt(3))^2 / 3 for 3 "
            "sites and 2 rounds, where the meter at theta = 0 is a product of "
            "two odd-sized GHZ factors with zero even-n tangle."
        )
        assert all(v < 1e-8 for v in worst.values()), message


def test_criterion_5_bell_sampling_statistics(capsys):
    with reported(
        capsys, 5, "Bell sampling at strong, zero, and intermediate strength"
    ):
        observables = ObservableSet.from_string("XX,ZZ")

        strong = MeasurementModel(observables=observables, theta=0.0)
        for expected, amps in BELL.items():
            counts = sample_signs(strong, Ket(amps), 10_000, 101)
            assert counts[expected] == 10_000

        weak = MeasurementModel(
            observables=observables, theta=theta_for_strength(2, 0.0)
        )
        counts = sample_signs(weak, Ket(BELL[(1, 1)]), 100_000, 202)
        sigma = math.sqrt(0.25 * 0.75 / 100_000)
        for outcome, count in counts.items():
            assert abs(count / 100_000 - 0.25) < 3 * sigma, (outcome, count)

        mid = MeasurementModel(observables=observables, theta=math.pi / 6)
        counts = sample_signs(mid, Ket(BELL[(-1, 1)]), 100_000, 303)
        sigma = math.sqrt(0.75 * 0.25 / 100_000)
        assert abs(counts[(-1, 1)] / 100_000 - 0.75) < 3 * sigma, counts


def test_criterion_6_eigenstate_undisturbed(capsys):
    with reported(
        capsys, 6, "strong measurement leaves an entangled eigenstate unchanged"
    ):
        sqrt2 = math.sqrt(2.0)
        plus_z, minus_z = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        plus_x, minus_x = np.array([1.0, 1.0]) / sqrt2, np.array([1.0, -1.0]) / sqrt2
        plus_y, minus_y = np.array([1.0, 1.0j]) / sqrt2, np.array([1.0, -1.0j]) / sqrt2
        amps = (
            reduce(np.kron, (plus_z, plus_x, plus_y))
            + 1j * reduce(np.kron, (minus_z, minus_x, minus_y))
        ) / sqrt2
        psi = Ket(amps)
        model = MeasurementModel(
            observables=ObservableSet.from_string("XYZ"), theta=0.0
        )
        dist = outcome_distribution(model, psi)
        assert dist[(-1,)] == pytest.approx(1.0, abs=1e-12)
        record = sample(model, psi, 404)
        assert record.signs == (-1,)
        overlap = np.vdot(record.post_state.amplitudes, psi.amplitudes)
        assert abs(overlap) ** 2 > 1.0 - 1e-10


def test_criterion_7_qudit_closed_form(capsys):
    with reported(
        capsys, 7, "qudit closed form matches brute force, strength endpoints exact"
    ):
        for d in (2, 3, 4):
            for theta in np.linspace(0.0, math.pi / 2, 9):
                closed = qudit_vsm(d, float(theta))
                brute = qudit_vsm_bruteforce(d, float(theta))
                for e_closed, e_brute in zip(closed.effects, brute):
                    assert np.max(np.abs(e_closed - e_brute)) < 1e-10
            assert abs(qudit_vsm(d, 0.0).strength - 1.0) < 1e-12
            weak_point = math.acos(d**-0.5)
            assert abs(qudit_vsm(d, weak_point).strength) < 1e-12


def test_criterion_8_tangle_paths_agree(capsys):
    with reported(
        capsys, 8, "spin-flip and contraction tangle paths agree on random states"
    ):
        rng = np.random.default_rng(505)
        for n in (2, 3, 4, 5, 6):
            for _ in range(100):
                vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                state = Ket.normalized(vec)
                gap = abs(n_tangle_spinflip(state) - n_tangle_contraction(state))
                assert gap < 1e-9, (n, gap)
