"""Tests for product observables and joint eigenprojectors.

The symplectic commutation rule is checked exhaustively against a
matrix-commutator oracle, projector ranks against an eigenvalue-count
oracle, and the whole mask core (validation and projectors) against the
dense matmul chain of ``pauli_oracle`` on random sets, so the fast paths
never certify themselves.
"""

import itertools

import numpy as np
import pytest

import pauli_oracle as oracle
from projectors import pvm_of

from vsmsim.errors import CommutationError, DependenceError, DimensionError, ParseError
from vsmsim.pauli import (
    ObservableSet,
    PauliLetter,
    ProductObservable,
    commutes,
    sign_vectors,
    validate_set,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"X": X, "Y": Y, "Z": Z}


def kron_oracle(letters):
    """Dense tensor product built element-by-element, no np.kron."""
    n = len(letters)
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            val = 1.0 + 0j
            for q, letter in enumerate(letters):
                bit_i = (i >> (n - 1 - q)) & 1
                bit_j = (j >> (n - 1 - q)) & 1
                val *= SINGLE[letter][bit_i, bit_j]
            mat[i, j] = val
    return mat


def eig_rank(proj, tol=1e-9):
    """Rank by counting eigenvalues near one."""
    return int(np.sum(np.linalg.eigvalsh(proj) > 0.5))


class TestParsing:
    def test_case_insensitive(self):
        obs = ProductObservable.from_string("xYz")
        assert str(obs) == "XYZ"
        assert obs.n_sites == 3

    def test_identity_letter_rejected(self):
        with pytest.raises(ParseError):
            ProductObservable.from_string("XIZ")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            ProductObservable.from_string("  ")

    def test_set_parsing_with_spaces(self):
        group = ObservableSet.from_string(" xx , zz ")
        assert str(group) == "XX,ZZ"
        assert group.size == 2
        assert group.n_sites == 2

    def test_set_mixed_lengths_rejected(self):
        with pytest.raises(DimensionError):
            ObservableSet.from_string("XX,ZZZ")

    def test_empty_set_rejected(self):
        with pytest.raises(ParseError):
            ObservableSet.from_string(",")


class TestMatrix:
    def test_single_z(self):
        mat = np.asarray(ProductObservable.from_string("Z").matrix())
        np.testing.assert_array_equal(mat, Z)

    def test_zz_diagonal(self):
        mat = np.asarray(ProductObservable.from_string("ZZ").matrix())
        np.testing.assert_array_equal(np.diag(mat), [1, -1, -1, 1])

    def test_against_elementwise_oracle(self):
        for letters in ("XYZ", "YY", "ZXY", "X"):
            mat = np.asarray(ProductObservable.from_string(letters).matrix())
            np.testing.assert_allclose(mat, kron_oracle(letters), atol=1e-15)

    def test_matrix_flags(self):
        op = ProductObservable.from_string("XY").matrix()
        np.testing.assert_allclose(op, op.conj().T, atol=1e-15)
        np.testing.assert_allclose(op.conj().T @ op, np.eye(4), atol=1e-15)
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


class TestCommutes:
    def test_known_pairs(self):
        xx = ProductObservable.from_string("XX")
        zz = ProductObservable.from_string("ZZ")
        zx = ProductObservable.from_string("ZX")
        assert commutes(xx, zz)
        assert not commutes(xx, zx)

    def test_triple_site_rotation(self):
        a = ProductObservable.from_string("XYZ")
        b = ProductObservable.from_string("YZX")
        # All three sites differ, so the pair anticommutes.
        assert not commutes(a, b)

    def test_exhaustive_against_commutator(self):
        for n in (1, 2, 3):
            observables = [
                ProductObservable.from_string("".join(combo))
                for combo in itertools.product("XYZ", repeat=n)
            ]
            for a in observables:
                for b in observables:
                    ma, mb = np.asarray(a.matrix()), np.asarray(b.matrix())
                    truly = np.allclose(ma @ mb, mb @ ma, atol=1e-12)
                    assert commutes(a, b) == truly, (str(a), str(b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutes(
                ProductObservable.from_string("X"),
                ProductObservable.from_string("XX"),
            )


class TestValidateSet:
    def test_bell_pair_accepted(self):
        report = validate_set(ObservableSet.from_string("XX,ZZ"))
        assert report.ok
        assert report.expected_rank == 1
        assert report.ranks is not None
        assert tuple(report.ranks.values()) == (1, 1, 1, 1)
        # Cross-check each reported rank against the eigenvalue count.
        pvm = pvm_of(ObservableSet.from_string("XX,ZZ"))
        for signs, proj in pvm.projectors.items():
            assert report.ranks[signs] == eig_rank(proj)

    def test_noncommuting_rejected(self):
        report = validate_set(ObservableSet.from_string("XX,ZX"))
        assert not report.ok
        assert report.noncommuting_pairs == ((1, 2),)
        assert report.ranks is None

    def test_dependent_rejected(self):
        # XX,ZZ,YY commute pairwise but their product is a scalar.
        report = validate_set(ObservableSet.from_string("XX,ZZ,YY"))
        assert not report.ok
        assert report.noncommuting_pairs == ()
        assert report.ranks is not None

    def test_duplicate_rejected(self):
        report = validate_set(ObservableSet.from_string("XX,ZZ,XX"))
        assert not report.ok

    def test_commutation_matrix_shape(self):
        assert validate_set(ObservableSet.from_string("XX,ZZ")).noncommuting_pairs == ()
        report = validate_set(ObservableSet.from_string("XX,ZX,ZZ"))
        assert report.noncommuting_pairs == ((1, 2), (2, 3))


class TestJointPvm:
    def test_single_zz(self):
        pvm = pvm_of(ObservableSet.from_string("ZZ"))
        assert pvm.rank == 2
        plus = pvm.projectors[(1,)]
        np.testing.assert_allclose(np.diag(plus), [1, 0, 0, 1], atol=1e-14)
        minus = pvm.projectors[(-1,)]
        np.testing.assert_allclose(np.diag(minus), [0, 1, 1, 0], atol=1e-14)

    def test_bell_projectors(self):
        pvm = pvm_of(ObservableSet.from_string("XX,ZZ"))
        assert pvm.rank == 1
        phi_plus = np.zeros(4)
        phi_plus[[0, 3]] = 1 / np.sqrt(2)
        np.testing.assert_allclose(
            pvm.projectors[(1, 1)], np.outer(phi_plus, phi_plus), atol=1e-12
        )
        psi_minus = np.zeros(4)
        psi_minus[1], psi_minus[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        np.testing.assert_allclose(
            pvm.projectors[(-1, -1)], np.outer(psi_minus, psi_minus), atol=1e-12
        )

    def test_noncommuting_raises(self):
        with pytest.raises(CommutationError):
            pvm_of(ObservableSet.from_string("XX,ZX"))

    def test_dependent_raises(self):
        with pytest.raises(DependenceError):
            pvm_of(ObservableSet.from_string("XX,ZZ,XX"))

    def test_oversized_set_raises(self):
        with pytest.raises(DependenceError):
            pvm_of(ObservableSet.from_string("X,X"))


def random_commuting_set(rng, n, k):
    """Rejection-sample k pairwise-commuting independent products on n sites."""
    while True:
        picks = []
        for _ in range(200):
            candidate = ProductObservable(
                tuple(PauliLetter(c) for c in rng.choice(list("XYZ"), size=n))
            )
            if all(commutes(candidate, other) for other in picks):
                picks.append(candidate)
                if len(picks) == k:
                    break
        if len(picks) < k:
            continue
        group = ObservableSet(tuple(picks))
        if validate_set(group).ok:
            return group


class TestPvmProperties:
    """Structural identities of the joint projectors on random sets."""

    def test_projector_algebra(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(n, 3) + 1))
            group = random_commuting_set(rng, n, k)
            pvm = pvm_of(group)
            dim = 1 << n
            total = np.zeros((dim, dim), dtype=complex)
            projs = list(pvm.projectors.items())
            for signs, proj in projs:
                np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
                np.testing.assert_allclose(proj, proj.conj().T, atol=1e-12)
                total += proj
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-12)
            for (sa, pa), (sb, pb) in itertools.combinations(projs, 2):
                np.testing.assert_allclose(pa @ pb, np.zeros_like(pa), atol=1e-12)

    def test_eigenvalue_relation(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(n, 3) + 1))
            group = random_commuting_set(rng, n, k)
            pvm = pvm_of(group)
            for signs, proj in pvm.projectors.items():
                for s, obs in zip(signs, group.observables):
                    mat = np.asarray(obs.matrix())
                    np.testing.assert_allclose(mat @ proj, s * proj, atol=1e-12)

    def test_weighted_sum_reconstruction(self):
        # prod_k (s_k O_k)^{l_k} equals the sign-weighted projector sum.
        rng = np.random.default_rng(29)
        group = random_commuting_set(rng, 3, 2)
        pvm = pvm_of(group)
        dim = 1 << group.n_sites
        mats = [np.asarray(o.matrix()) for o in group.observables]
        for fixed in sign_vectors(group.size):
            for powers in itertools.product((0, 1), repeat=group.size):
                lhs = np.eye(dim, dtype=complex)
                for s, m, l in zip(fixed, mats, powers):
                    if l:
                        lhs = lhs @ (s * m)
                rhs = np.zeros((dim, dim), dtype=complex)
                for signs, proj in pvm.projectors.items():
                    weight = np.prod(
                        [(s * i) ** l for s, i, l in zip(fixed, signs, powers)]
                    )
                    rhs += weight * proj
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# The letter proportional to the product of two different letters.
THIRD_LETTER = {frozenset("XY"): "Z", frozenset("YZ"): "X", frozenset("XZ"): "Y"}


def product_word(a, b):
    """Word equal to a*b up to a phase, or None where a site would hold I."""
    if any(la == lb for la, lb in zip(a, b)):
        return None
    return "".join(THIRD_LETTER[frozenset((la, lb))] for la, lb in zip(a, b))


def random_words(rng, n, k, commuting):
    """Up to k random words, greedily kept commuting (by the dense oracle) if asked."""
    words = []
    for _ in range(200):
        if len(words) == k:
            break
        word = "".join(rng.choice(list("XYZ"), size=n))
        if not commuting or not oracle.noncommuting_pairs(words + [word]):
            words.append(word)
    return words


def random_oracle_case(rng):
    """Random words on N <= 6 sites, K <= N, of one of four kinds.

    Free draws (mostly non-commuting), commuting draws (often dependent),
    commuting draws plus a duplicate member, and commuting draws plus a
    member proportional to the product of two others, whose phase makes
    some joint projectors zero.
    """
    n = int(rng.integers(1, 7))
    k = int(rng.integers(1, n + 1))
    kind = int(rng.integers(4))
    if kind < 2 or k < 2:
        return random_words(rng, n, k, commuting=kind > 0)
    words = random_words(rng, n, k - 1, commuting=True)
    extra = words[int(rng.integers(len(words)))]
    if kind == 3:
        products = [product_word(a, b) for a, b in itertools.combinations(words, 2)]
        extra = next((w for w in products if w is not None), extra)
    words.insert(int(rng.integers(len(words) + 1)), extra)
    return words


class TestMaskCoreAgainstOracle:
    """validate_set and build_pvm against the dense matmul-chain oracle."""

    def check(self, words):
        group = ObservableSet.from_string(",".join(words))
        n, k = group.n_sites, group.size
        report = validate_set(group)
        pairs = oracle.noncommuting_pairs(words)
        assert report.noncommuting_pairs == pairs, words
        if pairs:
            assert report.ranks is None and not report.ok
            with pytest.raises(CommutationError):
                pvm_of(group)
            return "noncommuting"
        expected = oracle.ranks(words)
        assert report.ranks == expected, words
        accepted = k <= n and all(r == 1 << (n - k) for r in expected.values())
        assert report.ok == accepted, words
        if not accepted:
            with pytest.raises(DependenceError):
                pvm_of(group)
            return "dependent"
        pvm = pvm_of(group)
        for signs, proj in oracle.raw_projectors(words).items():
            np.testing.assert_allclose(pvm.projectors[signs], proj, rtol=0, atol=1e-12)
        return "accepted"

    def test_random_sets(self):
        rng = np.random.default_rng(2103)
        seen = {"noncommuting": 0, "dependent": 0, "accepted": 0}
        for _ in range(300):
            seen[self.check(random_oracle_case(rng))] += 1
        # Every branch of the comparison ran on a fair share of the cases.
        assert min(seen.values()) >= 30, seen

    @pytest.mark.parametrize(
        "words",
        [
            # XX*ZZ = -YY and XZ*ZX = +YY: the same letters, opposite zero projectors.
            "XX,ZZ,YY",
            "XZ,ZX,YY",
            "XXXX,ZZZZ,YYYY",
            "XYXY,YXYX,ZZZZ",
            "XX,XX",
            "XYZ,YXZ,XYZ",
        ],
    )
    def test_dependent_sets(self, words):
        assert self.check(words.split(",")) == "dependent"
        ranks = validate_set(ObservableSet.from_string(words)).ranks
        assert 0 in ranks.values()


def test_sign_vector_order():
    assert sign_vectors(2) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
