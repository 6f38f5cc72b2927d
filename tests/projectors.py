"""Joint eigenprojectors of an observable set, as the library's callers build them."""

from vsmsim.pauli import ObservableSet, Pvm, accept_set, build_pvm


def pvm_of(obs_set: ObservableSet) -> Pvm:
    """Validate ``obs_set`` and build its projectors; raises what ``accept_set`` raises."""
    return build_pvm(accept_set(obs_set))
