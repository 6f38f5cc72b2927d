"""Property tests on hypothesis-drawn observable sets, states and angles.

Commuting independent sets come from a greedy GF(2) draw written here,
independent of ``vsmsim.pauli``: a candidate word is kept when it
commutes with the members so far and its (x, z) vector lies outside the
GF(2) span of theirs.  The closed-form outcome distribution is checked
against ``kraus_bruteforce`` run on the gate-by-gate circuit of
``circuit_oracle``, and the accept/raise decision of ``validate_set``
against the dense oracle of ``pauli_oracle``.  The closed-form Kraus
operators and effects are checked against the qudit meter acting on the
oracle's projectors and against the meter's block patterns acting on the
dense subset products, and the ``--barycentric`` table against dense
traces.  The coupled register that ``protocol.couple`` builds from the
subset products, and the in-place X readout, are checked bit for bit
against ``circuit_oracle``, and the readout against a dense Hadamard
matrix.  The shot tally's sign-vector probabilities are checked against
the circuit's record probabilities summed per sign vector, and each
tally against them with exact binomial tails (``tally_oracle``).
"""

import itertools
import math
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circuit_oracle
import pauli_oracle as oracle
import tally_oracle

from vsmsim import cli, pauli, protocol
from vsmsim.errors import CommutationError, DependenceError
from vsmsim.meter import pattern_amplitudes
from vsmsim.pauli import ObservableSet, validate_set
from vsmsim.protocol import (
    MeasurementModel,
    kraus_bruteforce,
    kraus_closed_form,
    outcome_distribution,
    povm,
)
from vsmsim.statevec import Ket

SETTINGS = settings(derandomize=True, database=None, deadline=None)

_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER = {bits: letter for letter, bits in _BITS.items()}


def masks(word):
    """(x, z) bitmasks of a word, site 1 on the high bit."""
    x = z = 0
    for letter in word:
        x, z = (x << 1) | _BITS[letter][0], (z << 1) | _BITS[letter][1]
    return x, z


def commute(a, b):
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) % 2 == 0


def random_commuting_set(rng, n, k):
    """K commuting, independent, full-weight words on N sites (K <= N), greedily drawn."""
    for _ in range(100):
        words, vecs, basis = [], [], []
        for _ in range(100 * k):
            word = "".join("XYZ"[i] for i in rng.integers(0, 3, size=n))
            vec = masks(word)
            # Reduce against the basis, kept sorted by leading bit, highest first.
            reduced = (vec[0] << n) | vec[1]
            for b in basis:
                reduced = min(reduced, reduced ^ b)
            if reduced and all(commute(vec, v) for v in vecs):
                words.append(word)
                vecs.append(vec)
                basis = sorted(basis + [reduced], reverse=True)
                if len(words) == k:
                    return words
    raise RuntimeError(f"no commuting independent set drawn for N={n}, K={k}")


def product_word(words):
    """The word proportional to the product of ``words``, or None where a site gets I."""
    x = z = 0
    for word in words:
        wx, wz = masks(word)
        x, z = x ^ wx, z ^ wz
    n = len(words[0])
    if x | z != (1 << n) - 1:
        return None
    return "".join(_LETTER[(x >> (n - 1 - i)) & 1, (z >> (n - 1 - i)) & 1] for i in range(n))


@st.composite
def commuting_sets(draw):
    n, k = draw(st.sampled_from([(n, k) for n in (1, 2, 3) for k in range(1, n + 1)]))
    return random_commuting_set(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, k)


@st.composite
def word_lists(draw):
    """A commuting independent set plus up to two extra members, in a drawn order.

    An extra member is a free word (often non-commuting) or the product of
    some members, which keeps the set commuting and makes it dependent.
    """
    words = draw(commuting_sets())
    n = len(words[0])
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            words.append(draw(st.text("XYZ", min_size=n, max_size=n)))
        else:
            factors = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3))
            extra = product_word(factors)
            if extra is not None:
                words.append(extra)
    return list(draw(st.permutations(words)))


@settings(SETTINGS, max_examples=300)
@given(words=word_lists())
def test_validate_set_decision_matches_oracle(words):
    group = ObservableSet.from_string(",".join(words))
    n, k = len(words[0]), len(words)
    if oracle.noncommuting_pairs(words):
        with pytest.raises(CommutationError):
            validate_set(group)
    elif k <= n and all(r == 1 << (n - k) for r in oracle.ranks(words).values()):
        assert len(validate_set(group)) == 1 << k
    else:
        with pytest.raises(DependenceError):
            validate_set(group)


@settings(SETTINGS, max_examples=60)
@given(
    words=commuting_sets(),
    theta=st.floats(0.0, math.pi / 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_distribution_matches_bruteforce(words, theta, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << len(words[0])
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    ket = Ket(amps / np.linalg.norm(amps))
    model = MeasurementModel(ObservableSet.from_string(",".join(words)), theta)
    dist = outcome_distribution(model, ket)
    # The oracle runs the gate-by-gate circuit, which shares no code with the subset products.
    with mock.patch.object(protocol, "_branches", circuit_oracle.branches):
        kraus = kraus_bruteforce(model)
    for signs, op in kraus.operators.items():
        branch = op @ ket.amplitudes
        expected = kraus.multiplicity * float(np.vdot(branch, branch).real)
        assert dist[signs] == pytest.approx(expected, abs=1e-10)


@settings(SETTINGS, max_examples=60)
@given(words=commuting_sets(), theta=st.floats(0.0, math.pi / 2))
def test_closed_form_matches_qudit_meter_and_patterns(words, theta):
    # With d = 2**K, M_s = 2**(-K(N-1)/2) sum_t phi_(s^t) P_t and E_s = sum_t phi_(s^t)**2 P_t,
    # phi the qudit meter; and M_s = 2**(-KN/2) sum_T chi_s(T) a_T O_T, a the meter's patterns.
    model = MeasurementModel(ObservableSet.from_string(",".join(words)), theta)
    n, k = model.n_sites, model.size
    projectors = list(oracle.raw_projectors(words).values())
    phi = protocol._qudit_meter(1 << k, theta)
    amps = pattern_amplitudes(model.meter_spec)
    mats = [oracle.dense(w) for w in words]
    eye = np.eye(1 << n, dtype=complex)
    subsets = list(itertools.product((0, 1), repeat=k))
    products = [reduce(np.matmul, (m for m, i in zip(mats, t) if i), eye) for t in subsets]
    kraus = list(kraus_closed_form(model).operators.values())
    effects = list(povm(model).effects.values())
    scale = 2.0 ** (-k * (n - 1) / 2)
    for s, signs in enumerate(itertools.product((1, -1), repeat=k)):
        by_meter = sum(phi[s ^ t] * proj for t, proj in enumerate(projectors))
        np.testing.assert_allclose(kraus[s], scale * by_meter, rtol=0, atol=1e-12)
        by_square = sum(phi[s ^ t] ** 2 * proj for t, proj in enumerate(projectors))
        np.testing.assert_allclose(effects[s], by_square, rtol=0, atol=1e-12)
        chi = [math.prod(c for c, i in zip(signs, t) if i) for t in subsets]
        by_patterns = sum(c * a * o for c, a, o in zip(chi, amps, products))
        np.testing.assert_allclose(kraus[s], 2.0 ** (-k * n / 2) * by_patterns, rtol=0, atol=1e-12)


@settings(SETTINGS, max_examples=60)
@given(words=commuting_sets(), theta=st.floats(0.0, math.pi / 2))
def test_barycentric_matches_dense_traces(words, theta):
    model = MeasurementModel(ObservableSet.from_string(",".join(words)), theta)
    rank = 1 << (model.n_sites - model.size)
    projectors = oracle.raw_projectors(words).values()
    dense = [
        [float(np.real(np.trace(effect @ proj))) / rank for proj in projectors]
        for effect in povm(model).effects.values()
    ]
    np.testing.assert_allclose(list(cli._barycentric(model).values()), dense, rtol=0, atol=1e-12)


@st.composite
def circuit_inputs(draw):
    """A model with N <= 4, K <= 3 and a drawn coupling order, and a system state.

    The state is either Gaussian or has parts drawn from {0, -0, 1, -1}, so
    that the signs of zero parts reach the circuit.
    """
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(n, 3)))
    words = random_commuting_set(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, k)
    order = draw(st.permutations(range(1, k + 1)))
    theta = draw(st.sampled_from([0.0, math.pi / 4, math.pi / 2]) | st.floats(0.0, math.pi / 2))
    model = MeasurementModel(ObservableSet.from_string(",".join(words)), theta, tuple(order))
    dim = 1 << n
    amps = np.zeros(dim, dtype=np.complex128)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        amps.real, amps.imag = rng.normal(size=(2, dim))
    else:
        parts = st.sampled_from([0.0, -0.0, 1.0, -1.0])
        amps.real = draw(st.lists(parts, min_size=dim, max_size=dim))
        amps.imag = draw(st.lists(parts, min_size=dim, max_size=dim))
        if not np.any(amps):
            amps[draw(st.integers(0, dim - 1))] = 1.0
    return model, Ket.normalized(amps)


def assert_same_bits(actual, expected):
    """Equal to the last bit, signed zeros included."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


@settings(SETTINGS, max_examples=100)
@given(inputs=circuit_inputs(), seed=st.integers(0, 2**32 - 1))
def test_circuit_matches_oracle_bit_for_bit(inputs, seed):
    model, ket = inputs
    assert_same_bits(protocol.couple(model, ket).amplitudes,
                     circuit_oracle.couple(model, ket).amplitudes)
    assert_same_bits(protocol._branches(model, ket), circuit_oracle.branches(model, ket))
    record = protocol.sample(model, ket, seed)
    # The sampler itself did not change: fed the oracle's branches, it gives the old records.
    with mock.patch.object(protocol, "_branches", circuit_oracle.branches):
        expected = protocol.sample(model, ket, seed)
    assert (record.raw, record.signs) == (expected.raw, expected.signs)
    assert_same_bits(record.probability, expected.probability)
    assert_same_bits(record.post_state.amplitudes, expected.post_state.amplitudes)
    # The tally draws from the circuit's record probabilities, summed per sign vector.
    np.testing.assert_allclose(protocol._sign_probabilities(model, ket),
                               tally_oracle.sign_probabilities(model, ket), rtol=0, atol=1e-12)


@settings(SETTINGS, max_examples=100)
@given(inputs=circuit_inputs(), seed=st.integers(0, 2**32 - 1))
def test_sample_signs_tally_within_five_sigma(inputs, seed):
    model, ket = inputs
    counts = protocol.sample_signs(model, ket, 1000, seed)
    tally_oracle.assert_within_five_sigma(
        counts, tally_oracle.sign_probabilities(model, ket), 1000
    )


@st.composite
def butterfly_inputs(draw):
    """Complex rows of 1 to 2**12 columns, in one block of rows or in several.

    Below 2**``_TRANSPOSED_BITS`` columns every level runs transposed, above
    it the high levels run directly; past one block the block loop runs,
    often with a short last block.  The parts are Gaussian or drawn from
    {0, -0, 1, -1}, so that signed zeros reach the butterflies.
    """
    width = 1 << draw(st.integers(0, 12))
    per_block = pauli._BUTTERFLY_BLOCK_BYTES // (16 * width)
    rows = draw(st.integers(1, 2 * per_block + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        parts = rng.normal(size=(2, rows, width))
    else:
        parts = rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), size=(2, rows, width))
    return parts[0] + 1j * parts[1]


@settings(SETTINGS, max_examples=40)
@given(values=butterfly_inputs())
def test_walsh_hadamard_matches_dense_matrix(values):
    width = values.shape[1]
    # The dense matrix's columns at up to 64 output indices j.
    picks = np.unique(np.linspace(0, width - 1, 64).astype(np.int64))
    signs = np.array([[(-1.0) ** (j & t).bit_count() for j in picks] for t in range(width)])
    expected = circuit_oracle.walsh_hadamard(values)
    # The kernel overwrites its argument.
    argument = values.copy()
    out = pauli._walsh_hadamard(argument)
    assert np.shares_memory(out, argument)
    np.testing.assert_allclose(out[:, picks], values @ signs, rtol=0, atol=1e-12 * width)
    assert_same_bits(out, expected)


def test_walsh_hadamard_refuses_a_strided_view():
    # A strided view cannot be overwritten through a reshape.
    with pytest.raises(ValueError, match="C-contiguous"):
        pauli._walsh_hadamard(np.zeros((4, 8), dtype=np.complex128)[:, ::2])
