"""Pauli product observables as bitmasks, commutation, and joint eigenprojectors.

A product observable is a tensor product of X, Y, Z letters with one
letter per site; identity letters are deliberately excluded, so every
observable touches all N sites.  Each observable carries an X mask and
a Z mask, site 1 on the most significant bit, and a Y count.  With
Y = iXZ at every site it equals

    O = i**y_count X**x_mask Z**z_mask,

a signed permutation matrix: column b holds i**y_count
(-1)**popcount(z_mask & b) in row b ^ x_mask.  Two products commute
exactly when popcount(xa & zb) + popcount(za & xb) is even (Aaronson &
Gottesman, PRA 70, 052328 (2004)).

A set of K pairwise commuting products can be measured jointly.  Its
sign vectors are K-tuples of +-1 eigenvalues, and the projector onto
the joint eigenspace of sign vector s is

    P_s = prod_k (I + s_k O_k)/2 = 2**-K sum_T chi_s(T) O_T,

summed over the 2**K subsets T of the members, where O_T is the
product of the members in T and chi_s(T) the product of their signs.
``validate_set`` tracks every O_T = i**e X**x Z**z by its masks and its
phase exponent e, so it needs no dense matrix.  O_T has a trace only
when it is +-I, which gives the exact ranks

    rank(P_s) = 2**(N-K) sum_{T: O_T = +-I} chi_s(T) (+-1).

The set is independent (no member is, up to sign, a product of the
others) exactly when only the empty subset gives +-I, which is the same
as every projector having rank 2**(N-K) (Gottesman,
arXiv:quant-ph/9705052).  ``build_pvm`` builds each dense P_s once, by
scattering the signed permutations O_T of a set that ``accept_set``
accepted; its caller holds the projectors and passes them on (see
``protocol.kraus_closed_form``).

Sign vectors are plain ``tuple[int, ...]`` with entries +1 or -1, listed
in the observable order of the set.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CommutationError, DependenceError, DimensionError, ParseError
from .statevec import check_size

SignVector = tuple[int, ...]

# A Pauli product i**e X**x Z**z as its masks and phase exponent (x, z, e mod 4).
PauliTerm = tuple[int, int, int]

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
for _m in (_X, _Y, _Z):
    _m.setflags(write=False)

_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


class PauliLetter(enum.Enum):
    """One of the three non-identity Pauli operators."""

    X = "X"
    Y = "Y"
    Z = "Z"

    @property
    def matrix(self) -> np.ndarray:
        """Read-only 2x2 matrix of this letter."""
        return {PauliLetter.X: _X, PauliLetter.Y: _Y, PauliLetter.Z: _Z}[self]

    @classmethod
    def from_char(cls, char: str) -> "PauliLetter":
        try:
            return cls(char.upper())
        except ValueError:
            raise ParseError(
                f"invalid Pauli letter {char!r}; only X, Y, Z are allowed (no identity)"
            ) from None


# (X bit, Z bit) of each letter: X = X**1 Z**0, Z = X**0 Z**1, Y = i X**1 Z**1.
_LETTER_BITS = {PauliLetter.X: (1, 0), PauliLetter.Y: (1, 1), PauliLetter.Z: (0, 1)}


def _parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry of a non-negative int64 array."""
    for shift in (32, 16, 8, 4, 2, 1):
        values = values ^ (values >> shift)
    return values & 1


def _column_values(term: PauliTerm, n: int) -> np.ndarray:
    """Nonzero entry of each column b of i**e X**x Z**z: i**e (-1)**popcount(z & b)."""
    _, z, e = term
    signs = 1.0 - 2.0 * _parity(np.arange(1 << n, dtype=np.int64) & z)
    return _I_POWERS[e] * signs


@dataclass(frozen=True)
class ProductObservable:
    """Tensor product of Pauli letters, one per site (site 1 first).

    ``x_mask`` and ``z_mask`` are derived from the letters, site 1 on the
    most significant bit; the observable is i**y_count X**x_mask Z**z_mask.
    """

    letters: tuple[PauliLetter, ...]
    x_mask: int = field(init=False, repr=False, compare=False)
    z_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.letters) == 0:
            raise ParseError("a product observable needs at least one letter")
        if not all(isinstance(l, PauliLetter) for l in self.letters):
            raise ParseError("letters must be PauliLetter values")
        x = z = 0
        for letter in self.letters:
            bx, bz = _LETTER_BITS[letter]
            x, z = (x << 1) | bx, (z << 1) | bz
        object.__setattr__(self, "x_mask", x)
        object.__setattr__(self, "z_mask", z)

    @classmethod
    def from_string(cls, text: str) -> "ProductObservable":
        """Parse strings like ``"XYZ"`` (case-insensitive)."""
        stripped = text.strip()
        if not stripped:
            raise ParseError("empty observable string")
        return cls(tuple(PauliLetter.from_char(c) for c in stripped))

    @property
    def n_sites(self) -> int:
        return len(self.letters)

    @property
    def y_count(self) -> int:
        """Number of Y letters: the sites where both masks are set."""
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def term(self) -> PauliTerm:
        return self.x_mask, self.z_mask, self.y_count % 4

    def matrix(self) -> np.ndarray:
        """Read-only dense 2**N x 2**N matrix, site 1 on the most significant bit."""
        dim = 1 << self.n_sites
        cols = np.arange(dim)
        mat = np.zeros((dim, dim), dtype=np.complex128)
        mat[cols ^ self.x_mask, cols] = _column_values(self.term, self.n_sites)
        mat.setflags(write=False)
        return mat

    def __str__(self) -> str:
        return "".join(l.value for l in self.letters)


def commutes(a: ProductObservable, b: ProductObservable) -> bool:
    """True iff the two products commute (even symplectic product of their masks)."""
    if a.n_sites != b.n_sites:
        raise DimensionError(
            f"observables act on {a.n_sites} and {b.n_sites} sites"
        )
    return ((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) % 2 == 0


@dataclass(frozen=True)
class ObservableSet:
    """Ordered collection of product observables on a common register."""

    observables: tuple[ProductObservable, ...]

    def __post_init__(self):
        if len(self.observables) == 0:
            raise ParseError("an observable set needs at least one observable")
        sizes = {o.n_sites for o in self.observables}
        if len(sizes) > 1:
            raise DimensionError(f"observables span different site counts {sorted(sizes)}")

    @classmethod
    def from_string(cls, text: str) -> "ObservableSet":
        """Parse comma-separated products like ``"XX,ZZ"`` (case-insensitive)."""
        parts = [p for p in (chunk.strip() for chunk in text.split(",")) if p != ""]
        if not parts:
            raise ParseError("empty observable-set string")
        return cls(tuple(ProductObservable.from_string(p) for p in parts))

    @property
    def size(self) -> int:
        """Number of observables K."""
        return len(self.observables)

    @property
    def n_sites(self) -> int:
        return self.observables[0].n_sites

    def __str__(self) -> str:
        return ",".join(str(o) for o in self.observables)


def sign_vectors(k: int) -> list[SignVector]:
    """All K-tuples over {+1, -1} in canonical order (+1 first)."""
    return list(itertools.product((1, -1), repeat=k))


@dataclass(frozen=True)
class Pvm:
    """Joint projective measurement of a commuting independent set.

    ``projectors`` maps each sign vector to the dense projector onto the
    corresponding joint eigenspace; every projector has rank ``rank``.
    """

    projectors: dict[SignVector, np.ndarray]
    rank: int


@dataclass(frozen=True)
class SetValidation:
    """Diagnostics for a candidate observable set.

    ``noncommuting_pairs`` lists the 1-based index pairs of observables
    that do not commute.  ``ranks`` holds the joint-projector ranks when
    all pairs commute, ``None`` otherwise.  ``expected_rank`` is
    2**(N-K) when K does not exceed N.  ``ok`` means accepted for joint
    measurement.  ``products`` holds the subset products O_T as
    ``(x, z, e)`` terms, indexed like ``sign_vectors`` (member 1 on the
    most significant bit of T), when all pairs commute, ``None``
    otherwise.
    """

    ok: bool
    n_sites: int
    size: int
    noncommuting_pairs: tuple[tuple[int, int], ...]
    expected_rank: int | None
    ranks: dict[SignVector, int] | None
    failures: tuple[str, ...]
    products: tuple[PauliTerm, ...] | None


def _multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Term of the product ab: moving Z**za past X**xb gives (-1)**popcount(za & xb)."""
    xa, za, ea = a
    xb, zb, eb = b
    return xa ^ xb, za ^ zb, (ea + eb + 2 * (za & xb).bit_count()) % 4


def _subset_products(obs_set: ObservableSet) -> tuple[PauliTerm, ...]:
    """O_T for every subset T, members multiplied in set order."""
    products = [(0, 0, 0)]
    for obs in obs_set.observables:
        # Each member doubles the list and takes the low bit, so member 1 ends on the high bit.
        products = [t for p in products for t in (p, _multiply(p, obs.term))]
    return tuple(products)


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """h[..., j] = sum_t (-1)**popcount(j & t) values[..., t] over the last axis.

    The last axis holds 2**k entries; the transform runs as k butterflies,
    most significant bit first, so no 2**k x 2**k matrix is formed.
    """
    lead = values.ndim - 1
    k = values.shape[-1].bit_length() - 1
    out = values.reshape(values.shape[:-1] + (2,) * k)
    for ax in range(lead, lead + k):
        a = np.take(out, 0, axis=ax)
        b = np.take(out, 1, axis=ax)
        out = np.stack((a + b, a - b), axis=ax)
    return out.reshape(values.shape)


def validate_set(obs_set: ObservableSet) -> SetValidation:
    """Check pairwise commutation and joint-projector ranks from the masks.

    The set is accepted iff all pairs commute and every joint projector
    has rank 2**(N-K); equal ranks force independence, since a dependent
    set collapses some joint eigenspaces and inflates others.
    """
    k = obs_set.size
    n = obs_set.n_sites
    failures: list[str] = []

    bad_pairs = [
        (i + 1, j + 1)
        for i in range(k)
        for j in range(i + 1, k)
        if not commutes(obs_set.observables[i], obs_set.observables[j])
    ]
    if bad_pairs:
        failures.append(
            "non-commuting pairs (1-based): " + ", ".join(str(p) for p in bad_pairs)
        )

    expected_rank = (1 << (n - k)) if k <= n else None
    if expected_rank is None:
        failures.append(f"set of {k} observables on {n} sites cannot be independent")

    ranks: dict[SignVector, int] | None = None
    products: tuple[PauliTerm, ...] | None = None
    if not bad_pairs:
        products = _subset_products(obs_set)
        # O_T is Hermitian, so O_T = i**e I has e in {0, 2}: a trace of (1 - e) 2**N.
        traces = np.array(
            [1 - e if x == 0 and z == 0 else 0 for x, z, e in products], dtype=np.int64
        )
        ranks = {
            signs: (int(total) << n) >> k
            for signs, total in zip(sign_vectors(k), _walsh_hadamard(traces))
        }
        if expected_rank is not None and any(r != expected_rank for r in ranks.values()):
            failures.append(
                f"joint-projector ranks {tuple(ranks.values())} differ from {expected_rank}; "
                "the set is dependent"
            )

    return SetValidation(
        ok=not failures,
        n_sites=n,
        size=k,
        noncommuting_pairs=tuple(bad_pairs),
        expected_rank=expected_rank,
        ranks=ranks,
        failures=tuple(failures),
        products=products,
    )


def accept_set(obs_set: ObservableSet) -> SetValidation:
    """Validate ``obs_set`` and return the report of an accepted set.

    Raises ``CommutationError`` on a non-commuting pair and
    ``DependenceError`` when the ranks betray a dependent set.
    """
    report = validate_set(obs_set)
    if report.noncommuting_pairs:
        raise CommutationError(
            f"set {obs_set} has non-commuting pairs {report.noncommuting_pairs}"
        )
    if not report.ok:
        raise DependenceError("; ".join(report.failures))
    return report


def build_pvm(report: SetValidation) -> Pvm:
    """Joint eigenprojectors of a set that ``accept_set`` accepted.

    Each P_s = 2**-K sum_T chi_s(T) O_T is built once: every O_T is a
    signed permutation, so its 2**N entries are scattered into all 2**K
    projectors at once.  The entries are multiples of 2**-K, exact in
    floating point.
    """
    if not report.ok:
        raise DependenceError("; ".join(report.failures))
    n, k = report.n_sites, report.size
    # The 2**K projectors of 4**N entries each.
    check_size(2 * n + k, "the joint projector stack")
    dim = 1 << n
    cols = np.arange(dim)
    outcomes = np.arange(1 << k, dtype=np.int64)
    stack = np.zeros((1 << k, dim, dim), dtype=np.complex128)
    for t, term in enumerate(report.products):
        chi = (1.0 - 2.0 * _parity(outcomes & t)) * 2.0**-k
        stack[:, cols ^ term[0], cols] += np.outer(chi, _column_values(term, n))
    stack.setflags(write=False)
    return Pvm(projectors=dict(zip(sign_vectors(k), stack)), rank=report.expected_rank)
