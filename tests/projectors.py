"""Joint eigenprojectors of an observable set, as the library's callers build them."""

from vsmsim.pauli import ObservableSet, Pvm, build_pvm, validate_set


def pvm_of(obs_set: ObservableSet) -> Pvm:
    """Validate ``obs_set`` and build its projectors; raises what ``validate_set`` raises."""
    return build_pvm(validate_set(obs_set), obs_set.n_sites)
