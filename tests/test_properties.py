"""Property tests on hypothesis-drawn observable sets, states and angles.

Commuting independent sets come from a greedy GF(2) draw written here,
independent of ``vsmsim.pauli``: a candidate word is kept when it
commutes with the members so far and its (x, z) vector lies outside the
GF(2) span of theirs.  The closed-form outcome distribution is checked
against the literal-circuit Kraus oracle, and the accept/raise decision
of ``validate_set`` against the dense oracle of ``pauli_oracle``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pauli_oracle as oracle

from vsmsim.errors import CommutationError, DependenceError
from vsmsim.pauli import ObservableSet, validate_set
from vsmsim.protocol import MeasurementModel, kraus_bruteforce, outcome_distribution
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
    kraus = kraus_bruteforce(model)
    for signs, op in kraus.operators.items():
        branch = op @ ket.amplitudes
        expected = kraus.multiplicity * float(np.vdot(branch, branch).real)
        assert dist[signs] == pytest.approx(expected, abs=1e-10)
