import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from looptop.algebra import Alphabet, TensorElement, normalize_relation, relation_from_space
from looptop.errors import IntegrityError, ValidationError
from looptop.rewriting import irreducible_counts
from looptop.spaces import ConnectedSum, Manifold
from oracles import (
    RewriteSystem,
    connected_sum_denominator,
    dense,
    entries,
    evaluate,
    irreducible_words,
    is_zero,
    manifold_denominator,
    rank_sparse_rational,
    rational_plane_split,
    reduce,
)


AB2 = Alphabet.uniform(2, 1)
AB3 = Alphabet.uniform(3, 1)

SWAP = RewriteSystem(AB2, TensorElement(AB2, {(1, 0): 1}))
# diag(1,1) normalized: x0 x1 -> -x1 x0 - x0 x0 - 2 x1 x1
DIAG = RewriteSystem(
    AB2,
    TensorElement(AB2, {(1, 0): -1, (0, 0): -1, (1, 1): -2}),
)


def element(alphabet, terms):
    return TensorElement(alphabet, terms)


class TestRewriteSystem:
    def test_replacement_must_avoid_forbidden_factor(self):
        with pytest.raises(IntegrityError):
            RewriteSystem(AB2, element(AB2, {(0, 1): 1}))

    def test_forbidden_pair_must_be_distinct(self):
        with pytest.raises(ValidationError):
            RewriteSystem(AB2, element(AB2, {(1, 1): 1}), forbidden=(0, 0))


class TestReduce:
    def test_single_swap(self):
        assert reduce(element(AB2, {(0, 1): 1}), SWAP).terms == {(1, 0): Fraction(1)}

    def test_one_step_no_new_factor(self):
        assert reduce(element(AB2, {(0, 1, 0): 1}), SWAP).terms == {(1, 0, 0): Fraction(1)}

    def test_diagonal_rule_cyclic_cluster(self):
        # x0 x0 x1 expands through a 2-cycle of reducible words; the solver
        # must still find the unique normal form x1 x0 x0
        out = reduce(element(AB2, {(0, 0, 1): 1}), DIAG)
        assert out.terms == {(1, 0, 0): Fraction(1)}

    def test_no_forbidden_factor_in_output(self):
        for word in product(range(2), repeat=5):
            out = reduce(element(AB2, {word: 1}), DIAG)
            for w in out.terms:
                assert not any(w[i] == 0 and w[i + 1] == 1 for i in range(len(w) - 1))

    def test_idempotent(self):
        for word in product(range(2), repeat=4):
            once = reduce(element(AB2, {word: 1}), DIAG)
            assert reduce(once, DIAG).terms == once.terms

    def test_linear(self):
        e1 = element(AB2, {(0, 0, 1): 2})
        e2 = element(AB2, {(0, 1, 1): -3})
        lhs = reduce(e1 + e2, DIAG)
        rhs = reduce(e1, DIAG) + reduce(e2, DIAG)
        assert lhs.terms == rhs.terms


def _matrix_pairs_for_diag_rule(count, size=20):
    """Rational 2x2 pairs (X0, X1) satisfying the normalized diag(1,1) relation.

    The normalized letters are the letter_map combinations of the original
    generators, so it suffices to produce Y0, Y1 with Y0^2 + Y1^2 = 0 and
    push them through the letter map.  Take Y0 with Y0^2 = -a^2 and a
    traceless Y1 with Y1^2 = +a^2.
    """
    split = rational_plane_split(AB2, ((1, 0), (0, 1)))
    rng = random.Random(0x5EED)
    for _ in range(count):
        a = Fraction(rng.randint(1, size), rng.randint(1, 4))
        y0 = [[Fraction(0), a], [-a, Fraction(0)]]
        p = Fraction(rng.randint(-size, size), rng.randint(1, 3))
        q = Fraction(rng.randint(1, size), rng.randint(1, 3))
        r = (a * a - p * p) / q
        y1 = [[p, q], [r, -p]]
        ys = (y0, y1)
        xs = []
        for row in split.letter_map:
            xs.append(
                [
                    [sum(c * ys[k][i][j] for k, c in enumerate(row)) for j in range(2)]
                    for i in range(2)
                ]
            )
        yield xs[0], xs[1]


class TestMatrixSubstitutionOracle:
    def test_diag_rule_matches_quotient_algebra(self):
        # reduce must agree with evaluation in any algebra satisfying the
        # relation; 20 random rational matrix substitutions
        words = [(0, 0, 1), (0, 1, 1), (0, 1, 0, 1), (0, 0, 0, 1), (1, 0, 1, 0)]
        pairs = list(_matrix_pairs_for_diag_rule(20))
        for word in words:
            e = element(AB2, {word: 1})
            red = reduce(e, DIAG)
            for x0, x1 in pairs:
                lhs = evaluate(e, [x0, x1])
                rhs = evaluate(red, [x0, x1])
                assert lhs == rhs, (word, x0, x1)

    def test_swap_rule_with_commuting_matrices(self):
        rng = random.Random(7)
        for _ in range(20):
            x0 = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
            # x1 = polynomial in x0 commutes with it
            c0, c1 = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            x1 = [
                [c0 * (1 if i == j else 0) + c1 * x0[i][j] for j in range(2)]
                for i in range(2)
            ]
            e = element(AB2, {(0, 1, 0, 1): 1, (1, 1, 0, 0): 2})
            red = reduce(e, SWAP)
            assert evaluate(e, [x0, x1]) == evaluate(red, [x0, x1])


class TestConnectedSumOracle:
    def test_mixed_degree_rule_with_lie_tail(self):
        # relation [a1,b1] + [a2,b2] = 0: substitute matrix quadruples with
        # [A2, B2] = -[A1, B1] and compare reduce against plain evaluation
        ab, rel = relation_from_space(ConnectedSum(((2, 3), (2, 3))))
        split = rational_plane_split(ab, dense(rel, ab.size))
        rs = RewriteSystem.from_normalized(split)
        rng = random.Random(31)
        for _ in range(20):
            a1 = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
            b1 = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
            a2 = [[-x for x in row] for row in a1]
            b2 = [row[:] for row in b1]
            mats = [a1, b1, a2, b2]
            for word in ((0, 1, 0), (0, 1, 1), (0, 0, 1, 3), (2, 0, 1)):
                e = TensorElement(split.alphabet, {word: 1})
                red = reduce(e, rs)
                assert evaluate(e, mats) == evaluate(red, mats), word


class TestFractionalRule:
    def test_non_unimodular_symmetric_form(self):
        # Q = [[2,1],[1,2]] has det 3; normalization stays rational and the
        # reducer must handle fractional rule coefficients exactly
        rel = ((2, 1), (1, 2))
        nr = normalize_relation(AB2, entries(rel))
        split = rational_plane_split(AB2, rel)
        rs = RewriteSystem.from_normalized(split)
        counts = irreducible_counts(nr.alphabet, nr.forbidden_pair, 6)
        H = manifold_denominator(2, 2, 6).inverse()
        assert all(counts[d] == H[d] for d in range(1, 7))
        for word in ((0, 1, 0), (0, 0, 1), (1, 0, 1)):
            e = TensorElement(split.alphabet, {word: 1})
            red = reduce(e, rs)
            assert red.terms == reduce(red, rs).terms
            for w in red.terms:
                assert not any(w[i] == 0 and w[i + 1] == 1 for i in range(len(w) - 1))


class TestIdealMembership:
    def test_difference_lies_in_the_ideal(self):
        # e - reduce(e) must lie in the two-sided ideal of the relation;
        # checked by a fresh sparse elimination over the word basis
        rel_terms = {(0, 1): Fraction(1), (1, 0): Fraction(1), (0, 0): Fraction(1), (1, 1): Fraction(2)}
        for word in product(range(2), repeat=4):
            e = element(AB2, {word: 1})
            diff = e - reduce(e, DIAG)
            if is_zero(diff):
                continue
            rows = []
            for pos in range(3):
                for ctx in product(range(2), repeat=2):
                    head, tail = ctx[:pos], ctx[pos:]
                    vec = {}
                    for pair, c in rel_terms.items():
                        w = head + pair + tail
                        vec[w] = vec.get(w, Fraction(0)) + c
                    rows.append(vec)
            base_rank = rank_sparse_rational(rows)
            assert rank_sparse_rational(rows + [dict(diff.terms)]) == base_rank, word


class TestIrreducibleWords:
    def test_counts_match_spec_examples(self):
        words = irreducible_words(AB3, (0, 1), 3)
        assert len(words[1]) == 3
        assert len(words[2]) == 8
        assert len(words[3]) == 21

    def test_lists_are_lex_sorted(self):
        words = irreducible_words(AB3, (0, 1), 4)
        for group in words.values():
            assert group == sorted(group)

    def test_counts_agree_with_enumeration(self):
        for alphabet in (AB2, AB3, Alphabet((1, 2, 1, 2), ("a", "b", "c", "d"))):
            table = irreducible_words(alphabet, (0, 1), 8)
            counts = irreducible_counts(alphabet, (0, 1), 8)
            assert counts == {d: len(ws) for d, ws in table.items()}

    def test_materialization_guard(self):
        with pytest.raises(ValidationError):
            irreducible_words(AB3, (0, 1), 10, max_words=100)

    def test_transfer_recurrence(self):
        counts = irreducible_counts(AB3, (0, 1), 10)
        d = [1, counts[1]] + [counts[w] for w in range(2, 11)]
        for w in range(2, 11):
            assert d[w] == 3 * d[w - 1] - d[w - 2]

    def test_counts_keep_a_few_integers_per_degree(self):
        # a table by (degree, letter) holds about 100 MiB here, and at
        # r = 10000, D = 1100 more than the memory of a small host
        tracemalloc.start()
        try:
            counts = irreducible_counts(Alphabet.uniform(3000, 1), (0, 1), 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert (1,) + tuple(counts.values()) == manifold_denominator(2, 3000, 200).inverse().coefficients


def _enumerated_series(alphabet, forbidden, up_to_degree):
    """Coefficients 0..up_to_degree of the series whose degree-d term counts
    the words of degree d that avoid the factor."""
    counts = irreducible_counts(alphabet, forbidden, up_to_degree)
    return (1,) + tuple(counts[d] for d in range(1, up_to_degree + 1))


class TestHilbertBridge:
    def test_manifold_series(self):
        closed = manifold_denominator(2, 3, 8).inverse()
        assert _enumerated_series(AB3, (0, 1), 8) == closed.coefficients

    def test_connected_sum_series(self):
        ab, rel = relation_from_space(ConnectedSum(((2, 3), (2, 3))))
        nr = normalize_relation(ab, rel)
        closed = connected_sum_denominator([(2, 3), (2, 3)], 8).inverse()
        assert _enumerated_series(nr.alphabet, nr.forbidden_pair, 8) == closed.coefficients

    def test_normalized_spaces_match_their_denominators(self):
        for n, r in ((2, 2), (2, 4), (3, 2), (4, 3)):
            ab, rel = relation_from_space(Manifold(n, r))
            nr = normalize_relation(ab, rel)
            closed = manifold_denominator(n, r, 10).inverse()
            assert _enumerated_series(nr.alphabet, nr.forbidden_pair, 10) == closed.coefficients, (n, r)


class TestLinearIndependenceWitness:
    def test_normal_form_matrix_has_full_column_rank(self):
        # expressing every weight-w word in irreducibles must hit all
        # irreducible words independently (weight <= 4)
        for rs in (SWAP, DIAG):
            for w in (2, 3, 4):
                irreducibles = [
                    word
                    for word in product(range(2), repeat=w)
                    if not any(word[i] == 0 and word[i + 1] == 1 for i in range(w - 1))
                ]
                rows = []
                for word in product(range(2), repeat=w):
                    nf = reduce(element(AB2, {word: 1}), rs)
                    rows.append(dict(nf.terms))
                assert rank_sparse_rational(rows) == len(irreducibles)
