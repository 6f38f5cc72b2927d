"""Tests for product observables and joint eigenprojectors.

The symplectic commutation rule is checked exhaustively against a
matrix-commutator oracle, projector ranks against an eigenvalue-count
oracle, and the whole mask core (validation and projectors) against the
dense matmul chain of ``pauli_oracle`` on random sets, so the fast paths
never certify themselves.
"""

import dataclasses
import itertools
import re
from functools import reduce

import numpy as np
import pytest

import pauli_oracle as oracle
from projectors import build_pvm, pvm_of

from vsmsim import pauli
from vsmsim.errors import (
    CommutationError,
    DependenceError,
    DimensionError,
    ParseError,
    ResourceLimitError,
)
from vsmsim.pauli import (
    ObservableSet,
    ProductObservable,
    commutes,
    sign_vectors,
    validate_set,
)


def eig_rank(proj, tol=1e-9):
    """Rank by counting eigenvalues near one."""
    return int(np.sum(np.linalg.eigvalsh(proj) > 0.5))


class TestParsing:
    def test_case_insensitive(self):
        obs = ProductObservable.from_string("xYz")
        assert str(obs) == "XYZ"
        assert obs.n_sites == 3

    def test_identity_letter_rejected(self):
        with pytest.raises(ParseError, match="invalid Pauli letter 'I'; only X, Y, Z"):
            ProductObservable.from_string("XIZ")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            ProductObservable.from_string("  ")

    def test_letters_become_masks(self):
        obs = ProductObservable.from_string("XYZ")
        # Site 1 on the high bit: X sets only x, Y both, Z only z.
        assert (obs.x_mask, obs.z_mask, obs.n_sites) == (0b110, 0b011, 3)
        assert obs.y_count == 1
        assert obs == ProductObservable(0b110, 0b011, 3)
        assert [f.name for f in dataclasses.fields(obs)] == ["x_mask", "z_mask", "n_sites"]

    def test_string_round_trip(self):
        for n in (1, 2, 3):
            for combo in itertools.product("XYZ", repeat=n):
                word = "".join(combo)
                assert str(ProductObservable.from_string(word)) == word

    @pytest.mark.parametrize(
        "masks",
        [
            (0b10, 0b00, 2),  # site 2 holds no letter
            (0b00, 0b00, 1),
            (0b111, 0b000, 2),  # a bit above the two sites
            (0b01, 0b110, 2),
            (-1, 0, 2),
            (0, 0, 0),
        ],
    )
    def test_masks_without_a_letter_per_site_rejected(self, masks):
        with pytest.raises(ParseError):
            ProductObservable(*masks)

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
                    ma, mb = oracle.dense(str(a)), oracle.dense(str(b))
                    truly = np.allclose(ma @ mb, mb @ ma, atol=1e-12)
                    assert commutes(a, b) == truly, (str(a), str(b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutes(
                ProductObservable.from_string("X"),
                ProductObservable.from_string("XX"),
            )


def term_dense(term, n):
    """Dense i**e X**x Z**z, from kron products of I, X and Z per site."""
    x, z, e = term

    def power(letter, mask):
        return reduce(
            np.kron,
            (oracle.LETTERS[letter] if (mask >> (n - 1 - i)) & 1 else np.eye(2) for i in range(n)),
        )

    return 1j**e * power("X", x) @ power("Z", z)


class TestValidateSet:
    def test_bell_pair_accepted(self):
        # O_T for T = {}, {ZZ}, {XX}, {XX, ZZ}; XX ZZ = -YY = X**3 Z**3.
        products = validate_set(ObservableSet.from_string("XX,ZZ"))
        assert products == ((0, 0, 0), (0, 0b11, 0), (0b11, 0, 0), (0b11, 0b11, 0))
        # Cross-check the projectors' rank against the eigenvalue count.
        pvm = build_pvm(products, 2)
        assert pvm.rank == 1
        assert [eig_rank(proj) for proj in pvm.projectors.values()] == [1, 1, 1, 1]

    @pytest.mark.parametrize("words", ["XX,ZZ", "XYZ,YXZ", "XXXX,ZZZZ,XXZZ", "YZ"])
    def test_products_match_dense_chain(self, words):
        members = words.split(",")
        products = validate_set(ObservableSet.from_string(words))
        n, k = len(members[0]), len(members)
        for t, term in enumerate(products):
            chain = np.eye(1 << n, dtype=complex)
            for i, word in enumerate(members):
                if (t >> (k - 1 - i)) & 1:
                    chain = chain @ oracle.dense(word)
            np.testing.assert_allclose(term_dense(term, n), chain, rtol=0, atol=1e-12)

    def test_noncommuting_rejected(self):
        with pytest.raises(CommutationError, match=r"^set XX,ZX has non-commuting pairs \(\(1, 2\),\)$"):
            validate_set(ObservableSet.from_string("XX,ZX"))

    def test_dependent_rejected(self):
        # XX,ZZ,YY commute pairwise but their product is a scalar.
        with pytest.raises(DependenceError) as info:
            validate_set(ObservableSet.from_string("XX,ZZ,YY"))
        assert str(info.value) == "set XX,ZZ,YY is dependent: members [1, 2, 3] multiply to -I"

    def test_duplicate_rejected(self):
        with pytest.raises(DependenceError) as info:
            validate_set(ObservableSet.from_string("XX,ZZ,XX"))
        assert str(info.value) == "set XX,ZZ,XX is dependent: members [1, 3] multiply to +I"

    @pytest.mark.parametrize(
        "words, message",
        [
            ("XZ,ZX,YY", "members [1, 2, 3] multiply to +I"),
            ("XX,XX", "members [1, 2] multiply to +I"),
            ("X,X", "members [1, 2] multiply to +I"),
            ("X,X,X", "members [1, 2] multiply to +I"),
            ("ZZ,XX,YY,ZZ", "members [1, 2, 3] multiply to -I"),
        ],
    )
    def test_dependence_message(self, words, message):
        with pytest.raises(DependenceError) as info:
            validate_set(ObservableSet.from_string(words))
        assert str(info.value) == f"set {words} is dependent: {message}"

    def test_commutation_matrix_shape(self):
        assert len(validate_set(ObservableSet.from_string("XX,ZZ"))) == 4
        with pytest.raises(CommutationError, match=r"pairs \(\(1, 2\), \(2, 3\)\)$"):
            validate_set(ObservableSet.from_string("XX,ZX,ZZ"))

    def test_commutation_checked_first(self):
        # Dependent and non-commuting: the pairs are reported.
        with pytest.raises(CommutationError):
            validate_set(ObservableSet.from_string("X,X,Z"))

    def test_subset_products_over_qubit_cap(self, monkeypatch):
        # Four commuting, independent members: 2^4 products, above a cap of 3 qubits.
        monkeypatch.setenv("VSM_MAX_QUBITS", "3")

        def no_product(*args):
            raise AssertionError("a subset product was formed before the size check")

        monkeypatch.setattr(pauli, "_multiply", no_product)
        with pytest.raises(ResourceLimitError) as info:
            validate_set(ObservableSet.from_string("ZXXX,XZXX,XXZX,XXXZ"))
        assert str(info.value).startswith("the 2^K subset products needs 2^4 entries")


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
            candidate = ProductObservable.from_string("".join(rng.choice(list("XYZ"), size=n)))
            if all(commutes(candidate, other) for other in picks):
                picks.append(candidate)
                if len(picks) == k:
                    break
        if len(picks) < k:
            continue
        group = ObservableSet(tuple(picks))
        try:
            validate_set(group)
        except DependenceError:
            continue
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
                    mat = oracle.dense(str(obs))
                    np.testing.assert_allclose(mat @ proj, s * proj, atol=1e-12)

    def test_weighted_sum_reconstruction(self):
        # prod_k (s_k O_k)^{l_k} equals the sign-weighted projector sum.
        rng = np.random.default_rng(29)
        group = random_commuting_set(rng, 3, 2)
        pvm = pvm_of(group)
        dim = 1 << group.n_sites
        mats = [oracle.dense(str(o)) for o in group.observables]
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
    """validate_set and the scattered projectors against the dense matmul-chain oracle."""

    def check(self, words):
        group = ObservableSet.from_string(",".join(words))
        n, k = group.n_sites, group.size
        pairs = oracle.noncommuting_pairs(words)
        if pairs:
            with pytest.raises(CommutationError, match=re.escape(f"non-commuting pairs {pairs}")):
                validate_set(group)
            return "noncommuting"
        expected = oracle.ranks(words)
        accepted = k <= n and all(r == 1 << (n - k) for r in expected.values())
        if not accepted:
            with pytest.raises(DependenceError) as info:
                validate_set(group)
            # The named members do multiply to the named scalar.
            found = re.search(r"members \[([\d, ]+)\] multiply to ([+-])I$", str(info.value))
            chain = reduce(np.matmul, (oracle.dense(words[int(m) - 1]) for m in found[1].split(",")))
            scalar = 1 if found[2] == "+" else -1
            np.testing.assert_allclose(chain, scalar * np.eye(1 << n), rtol=0, atol=1e-12)
            return "dependent"
        pvm = build_pvm(validate_set(group), n)
        assert pvm.rank == 1 << (n - k)
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
        assert 0 in oracle.ranks(words.split(",")).values()


def test_sign_vector_order():
    assert sign_vectors(2) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
