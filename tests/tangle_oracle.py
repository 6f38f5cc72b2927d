"""The n-tangle as the literal four-copy epsilon contraction.

The oracle of the spin-flip and pattern evaluators of
``vsmsim.entanglement``: it evaluates the defining sum of the module
docstring with one ``einsum``, at 16**n cost.
"""

import numpy as np

from vsmsim.errors import DomainError, ResourceLimitError
from vsmsim.statevec import Ket

# The literal contraction touches 16**n terms; 8 qubits is its budget.
CONTRACTION_MAX_QUBITS = 8


def n_tangle_contraction(state: Ket) -> float:
    """Literal four-copy epsilon contraction; the oracle, capped at 8 qubits."""
    n = state.n
    if n < 1:
        raise DomainError("the n-tangle needs at least one qubit")
    if n > CONTRACTION_MAX_QUBITS:
        raise ResourceLimitError(
            f"contraction over {n} qubits exceeds the {CONTRACTION_MAX_QUBITS}-qubit budget"
        )
    a = state.amplitudes.reshape((2,) * n)
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)
    pool = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    idx_a = pool[0 * n : 1 * n]
    idx_b = pool[1 * n : 2 * n]
    idx_c = pool[2 * n : 3 * n]
    idx_d = pool[3 * n : 4 * n]
    operands = [a, a, a, a]
    subscripts = [idx_a, idx_b, idx_c, idx_d]
    for site in range(n - 1):
        operands += [eps, eps]
        subscripts += [idx_a[site] + idx_b[site], idx_c[site] + idx_d[site]]
    operands += [eps, eps]
    subscripts += [idx_a[n - 1] + idx_c[n - 1], idx_b[n - 1] + idx_d[n - 1]]
    total = np.einsum(",".join(subscripts) + "->", *operands, optimize="greedy")
    return float(2.0 * abs(complex(total)))
