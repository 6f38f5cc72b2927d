"""Simulation toolkit for variable-strength measurements of Pauli product observables.

The package models an indirect measurement scheme in which K commuting
N-qubit Pauli product observables are measured jointly, and with tunable
strength, by coupling the system to a single entangled meter register of
N*K qubits prepared in a GHZ-like state.  It provides:

- ``pauli``: product observables, commutation tests, weighted operator scatters
- ``statevec``: dense state vectors and the size cap on dense objects
- ``meter``: GHZ-like meter states and the strength/angle dictionary
- ``protocol``: coupling circuit, outcome combination, Kraus/POVM extraction
  (both brute-force and closed-form), sampling, and a qudit reference model
- ``entanglement``: n-tangle evaluation and the strength-tangle identity
- ``cli``: command-line front end emitting deterministic JSON/CSV artifacts
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
