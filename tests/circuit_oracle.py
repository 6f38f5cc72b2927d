"""The coupling circuit and X readout as the package once computed them.

Each controlled gate is a ``tensordot`` of its 2x2 matrix with the
control=1 slice, written into a copy of the whole register, and the
readout stacks ``a + b`` and ``a - b`` per butterfly.  This is the
oracle of ``protocol.couple`` and ``pauli._walsh_hadamard``, which do
the same arithmetic in place: on every input their amplitudes must
agree with these bit for bit, signed zeros included.
"""

import math
from typing import Sequence

import numpy as np

from vsmsim.errors import DimensionError, DomainError
from vsmsim.meter import kfold_meter
from vsmsim.statevec import Ket, check_size

# The controlled gate of a site, keyed by the site's (X bit, Z bit): X, Z, or Y = iXZ.
GATES = {
    (1, 0): np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    (0, 1): np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
    (1, 1): np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
}


def tensor(parts: Sequence[Ket]) -> Ket:
    """Tensor product of kets, first factor owning the most significant bits."""
    if len(parts) == 0:
        raise DomainError("tensor needs at least one factor")
    check_size(sum(p.n for p in parts), "the tensor product")
    amps = parts[0].amplitudes
    for part in parts[1:]:
        amps = np.kron(amps, part.amplitudes)
    # Factors are unit norm already; skip the gate to avoid tolerance stacking.
    return Ket(amps, require_normalized=False)


def apply_controlled(gate: np.ndarray, control: int, target: int, state: Ket) -> Ket:
    """Apply a controlled single-qubit gate; norm is preserved, not rescaled.

    ``gate`` is the 2x2 unitary applied to ``target`` when ``control``
    (both 1-based) is in ``|1>``.
    """
    n = state.n
    if not (1 <= control <= n and 1 <= target <= n):
        raise DimensionError(f"control={control}, target={target} out of range for n={n}")
    if control == target:
        raise DimensionError("control and target must be distinct qubits")
    u = np.asarray(gate, dtype=np.complex128)
    if u.shape != (2, 2):
        raise DimensionError(f"controlled gate must be 2x2, got {u.shape}")
    amps = state.amplitudes.reshape((2,) * n)
    c_ax = control - 1
    t_ax = target - 1
    picker: list = [slice(None)] * n
    picker[c_ax] = 1
    sub = amps[tuple(picker)]
    # Dropping the control axis shifts later axes left by one.
    t_sub = t_ax - 1 if t_ax > c_ax else t_ax
    rotated = np.tensordot(u, sub, axes=([1], [t_sub]))
    rotated = np.moveaxis(rotated, 0, t_sub)
    out = amps.copy()
    out[tuple(picker)] = rotated
    return Ket(out.reshape(-1), require_normalized=False)


def couple(model, system: Ket) -> Ket:
    """System and meter joined by ``tensor``, then one ``apply_controlled`` per meter qubit."""
    n = model.n_sites
    state = tensor([system, kfold_meter(model.meter_spec)])
    for k in model.coupling_order:
        obs = model.observables.observables[k - 1]
        for site in range(1, n + 1):
            control = n + (k - 1) * n + site
            gate = GATES[(obs.x_mask >> (n - site)) & 1, (obs.z_mask >> (n - site)) & 1]
            state = apply_controlled(gate, control, site, state)
    return state


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Butterflies over the last axis, most significant bit first, each one stacked anew."""
    lead = values.ndim - 1
    k = values.shape[-1].bit_length() - 1
    out = values.reshape(values.shape[:-1] + (2,) * k)
    for ax in range(lead, lead + k):
        a = np.take(out, 0, axis=ax)
        b = np.take(out, 1, axis=ax)
        out = np.stack((a + b, a - b), axis=ax)
    return out.reshape(values.shape)


def branches(model, system: Ket) -> np.ndarray:
    """Unnormalized conditional system states, one column per record index."""
    m = model.size * model.n_sites
    coupled = couple(model, system)
    block = coupled.amplitudes.reshape(1 << model.n_sites, 1 << m)
    return walsh_hadamard(block) / math.sqrt(2.0) ** m
