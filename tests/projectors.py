"""Joint eigenprojectors of an observable set, and POVM completeness, for the tests only.

The library forms no projector stack; the tests build the projectors
P_s = 2**-K sum_T chi_s(T) O_T with the library's one dense kernel,
``pauli.scatter``, and check them against the matmul chain of
``pauli_oracle``.
"""

from dataclasses import dataclass

import numpy as np

from vsmsim.pauli import (
    ObservableSet,
    PauliTerm,
    SignVector,
    characters,
    scatter,
    sign_vectors,
    validate_set,
)


@dataclass(frozen=True)
class Pvm:
    """Dense projector of each sign vector; every projector has rank ``rank``."""

    projectors: dict[SignVector, np.ndarray]
    rank: int


def build_pvm(products: tuple[PauliTerm, ...], n_sites: int) -> Pvm:
    """Projectors from the subset products that ``validate_set`` returned.

    The weights chi_s(T) 2**-K are exact, so every entry is a multiple of
    2**-K, exact in floating point.
    """
    k = len(products).bit_length() - 1
    stack = scatter(products, characters(k) * 2.0**-k, n_sites)
    return Pvm(projectors=dict(zip(sign_vectors(k), stack)), rank=1 << (n_sites - k))


def pvm_of(obs_set: ObservableSet) -> Pvm:
    """Validate ``obs_set`` and build its projectors; raises what ``validate_set`` raises."""
    return build_pvm(validate_set(obs_set), obs_set.n_sites)


def completeness_residual(effects: dict[SignVector, np.ndarray]) -> float:
    """Largest entry of |sum_s E_s - I|: zero for a complete measurement."""
    total = sum(effects.values())
    return float(np.max(np.abs(total - np.eye(total.shape[0]))))
