"""Qudit effects from a literal simulation of the mod-d shift circuit.

The oracle of ``protocol.qudit_vsm``: it builds the joint system-meter
state and permutes it, and shares only the meter vector with the
closed form.
"""

import numpy as np

from vsmsim.errors import DomainError
from vsmsim.protocol import _qudit_meter


def qudit_vsm_bruteforce(d: int, theta: float) -> list[np.ndarray]:
    """Qudit effects from literal simulation of the shift circuit.

    Builds the d**2-dimensional joint state, applies the permutation
    |i, j> -> |i, (j + i) mod d|, and reads the meter column-by-column.
    Independent of the closed form: used to test it.
    """
    if d < 2:
        raise DomainError(f"qudit dimension must be at least 2, got {d}")
    phi = _qudit_meter(d, theta)
    effects = []
    kraus = [np.zeros((d, d), dtype=np.complex128) for _ in range(d)]
    for i in range(d):
        joint = np.zeros(d * d, dtype=np.complex128)
        joint[i * d : (i + 1) * d] = phi
        shifted = np.zeros_like(joint)
        for j in range(d):
            shifted[i * d + (j + i) % d] = joint[i * d + j]
        for j in range(d):
            for i_out in range(d):
                kraus[j][i_out, i] = shifted[i_out * d + j]
    for j in range(d):
        effects.append(kraus[j].conj().T @ kraus[j])
    return effects
