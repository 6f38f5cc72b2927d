"""Pauli product observables as bitmasks, commutation, and their weighted sums.

A product observable is a tensor product of X, Y, Z letters with one
letter per site; identity letters are deliberately excluded, so every
observable touches all N sites.  An observable is held as nothing but
its X mask and Z mask, site 1 on the most significant bit: a site holds
X when only its X bit is set, Z when only its Z bit is set and Y when
both are, and the Y count is the number of sites with both bits.  With
Y = iXZ at every site it equals

    O = i**y_count X**x_mask Z**z_mask,

a signed permutation matrix: column b holds i**y_count
(-1)**popcount(z_mask & b) in row b ^ x_mask.  No observable keeps a
dense matrix.  ``_term_action`` gives those rows and phases for any
product i**e X**x Z**z; ``scatter`` writes them into dense operator
stacks, and ``protocol.couple`` applies them to a state.  Two products
commute exactly when popcount(xa & zb) + popcount(za & xb) is even
(Aaronson & Gottesman, PRA 70, 052328 (2004)).

A set of K pairwise commuting products can be measured jointly when it
is also independent: no non-empty subset of its members multiplies to
+-I (Gottesman, arXiv:quant-ph/9705052).  ``validate_set`` checks both
from the masks alone and returns the subset products O_T = i**e X**x Z**z
as ``(x, z, e)`` terms; it is the one check of a set.  Its sign vectors
are K-tuples of +-1 eigenvalues, and the projector onto the joint
eigenspace of sign vector s is

    P_s = prod_k (I + s_k O_k)/2 = 2**-K sum_T chi_s(T) O_T,

summed over the 2**K subsets T of the members, where chi_s(T) is the
product of the signs in T (``characters``).  Only O_T = +-I has a
trace, so

    rank(P_s) = 2**(N-K) sum_{T: O_T = +-I} chi_s(T) (+-1),

which is 2**(N-K) for every s exactly when the empty subset alone gives
+-I.  That is why the criterion above holds exactly when all joint
eigenspaces have the same dimension.  Every operator of the scheme is a
weighted sum of the O_T, so ``scatter`` builds a whole stack of them
from one table of weights, one row per operator; the library uses it
for the Kraus operators (``protocol.kraus_closed_form``) and forms no
projector.

Sign vectors are plain ``tuple[int, ...]`` with entries +1 or -1, listed
in the observable order of the set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CommutationError, DependenceError, DimensionError, ParseError
from .statevec import check_size

SignVector = tuple[int, ...]

# A Pauli product i**e X**x Z**z as its masks and phase exponent (x, z, e mod 4).
PauliTerm = tuple[int, int, int]

_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)

# (X bit, Z bit) of each letter: X = X**1 Z**0, Z = X**0 Z**1, Y = i X**1 Z**1.
_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}


def _parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry of a non-negative int64 array."""
    for shift in (32, 16, 8, 4, 2, 1):
        values = values ^ (values >> shift)
    return values & 1


@dataclass(frozen=True)
class ProductObservable:
    """Tensor product of Pauli letters, one per site, as its two bitmasks.

    Site 1 sits on the most significant bit of ``x_mask`` and ``z_mask``;
    the observable is i**y_count X**x_mask Z**z_mask.  Every one of the
    ``n_sites`` sites must hold a letter, and no bit above them is set.
    """

    x_mask: int
    z_mask: int
    n_sites: int

    def __post_init__(self):
        if self.n_sites < 1:
            raise ParseError("a product observable needs at least one letter")
        if self.x_mask | self.z_mask != (1 << self.n_sites) - 1:
            raise ParseError(
                f"masks x={self.x_mask:#x}, z={self.z_mask:#x} do not give each of "
                f"{self.n_sites} sites a letter, with no bit above them"
            )

    @classmethod
    def from_string(cls, text: str) -> "ProductObservable":
        """Parse strings like ``"XYZ"`` (case-insensitive)."""
        stripped = text.strip()
        if not stripped:
            raise ParseError("empty observable string")
        x = z = 0
        for char in stripped:
            try:
                bx, bz = _LETTER_BITS[char.upper()]
            except KeyError:
                raise ParseError(
                    f"invalid Pauli letter {char!r}; only X, Y, Z are allowed (no identity)"
                ) from None
            x, z = (x << 1) | bx, (z << 1) | bz
        return cls(x, z, len(stripped))

    @property
    def y_count(self) -> int:
        """Number of Y letters: the sites where both masks are set."""
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def term(self) -> PauliTerm:
        return self.x_mask, self.z_mask, self.y_count % 4

    def __str__(self) -> str:
        return "".join(
            _BITS_LETTER[(self.x_mask >> bit) & 1, (self.z_mask >> bit) & 1]
            for bit in reversed(range(self.n_sites))
        )


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


def _multiply(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Term of the product ab: moving Z**za past X**xb gives (-1)**popcount(za & xb)."""
    xa, za, ea = a
    xb, zb, eb = b
    return xa ^ xb, za ^ zb, (ea + eb + 2 * (za & xb).bit_count()) % 4


# ``_walsh_hadamard`` takes its rows in blocks of about this many bytes.
_BUTTERFLY_BLOCK_BYTES = 1 << 18
# Its butterflies on this many lowest bits run on a transposed block (5 to 8 time alike).
_TRANSPOSED_BITS = 6


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """h[..., j] = sum_t (-1)**popcount(j & t) values[..., t], in place over the last axis.

    The last axis holds 2**k entries; the transform runs as k butterflies
    (a, b) -> (a + b, a - b), most significant bit first, so no 2**k x 2**k
    matrix is formed.  They overwrite the C-contiguous ``values``, which is
    returned, a block of rows at a time, so that all k levels of a block
    stay in cache.  Level ``bit`` pairs entries 2**bit apart, a short inner
    loop for low bits, so the lowest levels run on a copy of the block with
    its groups of 2**low entries transposed onto the leading axis.  Every
    level adds and subtracts the same pairs either way: not a bit changes.
    """
    if not values.flags.c_contiguous:
        raise ValueError("the Walsh-Hadamard transform needs a C-contiguous array")
    width = values.shape[-1]
    k = width.bit_length() - 1
    low = min(k, _TRANSPOSED_BITS)
    rows = values.reshape(-1, width)
    # A block is never longer than the array, so a small transform takes small scratch.
    step = max(1, min(rows.shape[0], _BUTTERFLY_BLOCK_BYTES // (width * values.itemsize)))
    turned = np.empty(step * width, dtype=values.dtype)
    held = np.empty(step * width // 2, dtype=values.dtype)
    for start in range(0, rows.shape[0], step):
        block = rows[start : start + step]
        for bit in reversed(range(low, k)):
            _butterfly(block, 1 << bit, held)
        groups = block.reshape(-1, 1 << low)
        columns = turned[: block.size].reshape(1 << low, -1)
        np.copyto(columns, groups.T)
        for bit in reversed(range(low)):
            _butterfly(columns, columns.shape[1] << bit, held)
        np.copyto(groups, columns.T)
    return values


def _butterfly(values: np.ndarray, span: int, held: np.ndarray) -> None:
    """(a, b) -> (a + b, a - b) in place on the entries ``span`` apart in each run of 2 * span."""
    pairs = values.reshape(-1, 2, span)
    a, b = pairs[:, 0], pairs[:, 1]
    a_old = held[: a.size].reshape(a.shape)
    np.copyto(a_old, a)
    a += b
    np.subtract(a_old, b, out=b)


def _term_action(term: PauliTerm, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """How O = i**e X**x Z**z acts on the basis: O|b> = phases[b] |rows[b]>.

    rows[b] = b ^ x and phases[b] = i**e (-1)**popcount(z & b), for every
    basis index b of ``n_sites`` qubits.  Column b of O's matrix holds
    phases[b] in row rows[b], and (O v)[rows] = phases * v.
    """
    x, z, e = term
    cols = np.arange(1 << n_sites, dtype=np.int64)
    return cols ^ x, _I_POWERS[e] * (1.0 - 2.0 * _parity(cols & z))


def validate_set(obs_set: ObservableSet) -> tuple[PauliTerm, ...]:
    """Subset products O_T of a commuting independent set, indexed like ``sign_vectors``.

    Member 1 sits on the most significant bit of T.  Raises
    ``CommutationError`` on a non-commuting pair, ``ResourceLimitError``
    when 2**K products exceed the ``max_qubits()`` cap, and
    ``DependenceError`` when a non-empty subset multiplies to +-I.
    """
    k = obs_set.size
    bad_pairs = tuple(
        (i + 1, j + 1)
        for i, j in itertools.combinations(range(k), 2)
        if not commutes(obs_set.observables[i], obs_set.observables[j])
    )
    if bad_pairs:
        raise CommutationError(f"set {obs_set} has non-commuting pairs {bad_pairs}")
    check_size(k, "the 2^K subset products")
    products = [(0, 0, 0)]
    for j, obs in enumerate(obs_set.observables, start=1):
        # Each member doubles the list and takes the low bit, so member 1 ends on the high bit.
        products = [t for p in products for t in (p, _multiply(p, obs.term))]
        # The subsets that hold member j; the list stays at 2**j while none gives +-I.
        for t in range(1, len(products), 2):
            x, z, e = products[t]
            if x == z == 0:
                members = [i + 1 for i in range(j) if (t >> (j - 1 - i)) & 1]
                # O_T is Hermitian, so O_T = i**e I has e in {0, 2}.
                raise DependenceError(
                    f"set {obs_set} is dependent: members {members} multiply to "
                    f"{'+' if e == 0 else '-'}I"
                )
    return tuple(products)


def characters(k: int) -> np.ndarray:
    """chi[s, T] = chi_s(T), the product of sign vector s's signs over subset T.

    Rows follow ``sign_vectors`` and columns the subsets of ``validate_set``:
    bit 1 of s is a -1 sign and bit 1 of T a member, member 1 on the high
    bit in both, so chi_s(T) = (-1)**popcount(s & T).
    """
    index = np.arange(1 << k, dtype=np.int64)
    return 1.0 - 2.0 * _parity(np.bitwise_and.outer(index, index))


def scatter(products: tuple[PauliTerm, ...], weights: np.ndarray, n_sites: int) -> np.ndarray:
    """Dense stack out[r] = sum_T weights[r, T] O_T of the subset products.

    ``weights`` has one row per output matrix and one column per product
    that ``validate_set`` returned.  Every O_T is a signed permutation,
    so its 2**N entries are scattered into all rows at once.
    """
    n, rows = n_sites, len(weights)
    # ``rows`` matrices of 4**N entries each: 2N + K qubits for 2**K rows.
    check_size(2 * n + (rows - 1).bit_length(), "the operator stack")
    dim = 1 << n
    cols = np.arange(dim, dtype=np.int64)
    stack = np.zeros((rows, dim, dim), dtype=np.complex128)
    for t, term in enumerate(products):
        targets, column = _term_action(term, n)
        stack[:, targets, cols] += np.outer(weights[:, t], column)
    return stack
