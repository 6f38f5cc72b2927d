"""What a tally of sign vectors must match: the circuit's records, summed per sign vector.

``sign_probabilities`` sums the record probabilities of the gate-by-gate
circuit (``circuit_oracle.branches``) over the records of each sign
vector, taking each round's sign from the popcount of its block of
readout bits rather than from ``protocol._sign_index``.
``assert_within_five_sigma`` checks a tally against such probabilities
with exact binomial tails.
"""

import math

import numpy as np

import circuit_oracle

# Two-sided 5 sigma of a normal distribution.
FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))


def sign_probabilities(model, system) -> np.ndarray:
    """Probability of each sign vector, in ``sign_vectors`` order.

    Bit 1 of a record index is a -1 readout, and round 1 holds the
    highest N bits; the sign vector's index has round 1 on its high bit
    and a 1 where the round's readouts multiply to -1.
    """
    n, k = model.n_sites, model.size
    records = np.sum(np.abs(circuit_oracle.branches(model, system)) ** 2, axis=0)
    sums = np.zeros(1 << k)
    block = (1 << n) - 1
    for record, prob in enumerate(records):
        index = 0
        for r in range(k):
            odd = ((record >> ((k - 1 - r) * n)) & block).bit_count() & 1
            index = (index << 1) | odd
        sums[index] += prob
    return sums / sums.sum()


def binomial_tail(count: int, shots: int, p: float) -> float:
    """Probability of a tally at least as far from the mean, on its side."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if count == round(p * shots) else 0.0

    def log_pmf(i):
        return (math.lgamma(shots + 1) - math.lgamma(i + 1) - math.lgamma(shots - i + 1)
                + i * math.log(p) + (shots - i) * math.log1p(-p))

    side = range(0, count + 1) if count <= shots * p else range(count, shots + 1)
    return sum(math.exp(log_pmf(i)) for i in side)


def assert_within_five_sigma(counts: dict, probs, shots: int) -> None:
    """Each count lies inside the two-sided 5 sigma tail of its binomial."""
    assert sum(counts.values()) == shots
    for (signs, count), p in zip(counts.items(), probs):
        tail = binomial_tail(count, shots, float(p))
        assert tail >= FIVE_SIGMA_TAIL / 2, f"{count} of {shots} for {signs} at p={p!r}"
