"""Dense oracle for the Pauli layer, independent of the bitmask core.

Observables are dense matrices built with ``np.kron`` from their letters.
Commutation is read off the matrix commutator, and the joint projectors
are the matmul chain prod_k (I + s_k O_k)/2, whose traces are their
ranks.  The library builds none of these; the tests compare its mask
core against them.
"""

import itertools
from functools import reduce

import numpy as np

LETTERS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word, site 1 on the most significant bit."""
    return reduce(np.kron, (LETTERS[c] for c in word))


def noncommuting_pairs(words: list[str]) -> tuple[tuple[int, int], ...]:
    """1-based pairs whose dense matrices do not commute."""
    mats = [dense(w) for w in words]
    return tuple(
        (i + 1, j + 1)
        for i, j in itertools.combinations(range(len(words)), 2)
        if not np.allclose(mats[i] @ mats[j], mats[j] @ mats[i], atol=1e-12)
    )


def raw_projectors(words: list[str]) -> dict[tuple[int, ...], np.ndarray]:
    """Products prod_k (I + s_k O_k)/2 for every sign vector, (+1, ..., +1) first."""
    mats = [dense(w) for w in words]
    eye = np.eye(mats[0].shape[0], dtype=complex)
    out = {}
    for signs in itertools.product((1, -1), repeat=len(words)):
        proj = eye
        for s, mat in zip(signs, mats):
            proj = proj @ ((eye + s * mat) / 2.0)
        out[signs] = proj
    return out


def ranks(words: list[str]) -> dict[tuple[int, ...], int]:
    """Trace of each raw projector; the rank when the words commute."""
    return {
        signs: int(round(float(np.trace(proj).real)))
        for signs, proj in raw_projectors(words).items()
    }
