from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptop._linalg import rank_sparse_rational
from looptop.algebra import Alphabet, normalize_relation, relation_from_space
from looptop.errors import IntegrityError, ValidationError
from looptop.lyndon import (
    bracket_expand,
    bracket_string,
    generate_lyndon,
    is_lyndon,
    lie_basis,
    standard_factorization,
    standard_lyndon_counts,
    standard_lyndon_words,
)
from looptop.rewriting import RewriteSystem, reduce
from looptop.spaces import ConnectedSum, Manifold


AB2 = Alphabet.uniform(2, 1)
AB3 = Alphabet.uniform(3, 1)

words_strategy = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=7).map(tuple)


class TestLyndonPredicate:
    @given(words_strategy)
    def test_matches_rotation_definition(self, word):
        rotations = [word[k:] + word[:k] for k in range(1, len(word))]
        expected = all(word < rot for rot in rotations)
        assert is_lyndon(word) == expected


class TestGeneration:
    def test_two_letters_up_to_degree_three(self):
        table = generate_lyndon(AB2, 3)
        assert table[1] == [(0,), (1,)]
        assert table[2] == [(0, 1)]
        assert table[3] == [(0, 0, 1), (0, 1, 1)]

    def test_necklace_count_three_letters(self):
        table = generate_lyndon(AB3, 3)
        assert len(table[3]) == (3**3 - 3) // 3

    def test_single_letter(self):
        table = generate_lyndon(Alphabet.uniform(1, 1), 5)
        assert table[1] == [(0,)]
        assert all(not table[d] for d in range(2, 6))

    def test_weighted_degrees(self):
        ab = Alphabet((1, 2), ("a", "b"))
        table = generate_lyndon(ab, 3)
        assert table[1] == [(0,)]
        assert table[2] == [(1,)]
        assert table[3] == [(0, 1)]  # degree-3 candidates ab, ba, aaa; only ab is Lyndon

    def test_all_generated_words_are_lyndon(self):
        for d, group in generate_lyndon(AB3, 6).items():
            for w in group:
                assert is_lyndon(w)
            assert group == sorted(group)


class TestStandardFactorization:
    def test_spec_examples(self):
        assert standard_factorization((0, 1)) == ((0,), (1,))
        assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
        assert standard_factorization((0, 0, 1, 1)) == ((0,), (0, 1, 1))

    def test_rejects_single_letters(self):
        with pytest.raises(ValidationError):
            standard_factorization((0,))

    @given(words_strategy.filter(lambda w: len(w) >= 2 and is_lyndon(w)))
    @settings(max_examples=80)
    def test_parts_are_lyndon_and_recombine(self, word):
        left, right = standard_factorization(word)
        assert left + right == word
        assert is_lyndon(left) and is_lyndon(right)
        assert left < right


class TestBracketExpand:
    def test_pair(self):
        b = bracket_expand((0, 1), AB2)
        assert b.terms == {(0, 1): Fraction(1), (1, 0): Fraction(-1)}

    def test_left_normed_triple(self):
        b = bracket_expand((0, 0, 1), AB2)
        assert b.terms == {(0, 0, 1): Fraction(1), (0, 1, 0): Fraction(-2), (1, 0, 0): Fraction(1)}

    def test_single_letter_is_itself(self):
        assert bracket_expand((2,), AB3).terms == {(2,): Fraction(1)}

    def test_lex_leading_term_is_the_word_with_coefficient_one(self):
        for ab in (AB2, AB3):
            for d, group in generate_lyndon(ab, 6).items():
                for w in group:
                    b = bracket_expand(w, ab)
                    assert b.leading_word() == w
                    assert b.terms[w] == 1

    def test_bracket_string(self):
        assert bracket_string((0, 0, 1), AB2) == "[α₁,[α₁,α₂]]"


class TestLieBasis:
    def test_three_letter_degree_three(self):
        ab, rel = relation_from_space(Manifold(2, 3))
        nr = normalize_relation(ab, rel)
        basis = lie_basis(nr, 3)
        assert sorted(e.word for e in basis[3]) == [
            (0, 0, 2),
            (0, 2, 1),
            (0, 2, 2),
            (1, 1, 2),
            (1, 2, 2),
        ]

    def test_connected_sum_degrees_two_and_three(self):
        ab, rel = relation_from_space(ConnectedSum(((2, 3), (2, 3))))
        nr = normalize_relation(ab, rel)
        basis = lie_basis(nr, 3)
        assert sorted(e.word for e in basis[2]) == [(0, 2), (1,), (3,)]
        assert sorted(e.word for e in basis[3]) == [(0, 0, 2), (0, 2, 2), (0, 3), (1, 2), (2, 3)]

    def test_hyperbolic_pair_has_only_the_letters(self):
        ab, rel = relation_from_space(Manifold(3, 2))
        nr = normalize_relation(ab, rel)
        basis = lie_basis(nr, 12)
        assert [len(basis.get(d, [])) for d in range(1, 13)] == [0, 2] + [0] * 10

    def test_count_mismatch_raises(self):
        ab, rel = relation_from_space(Manifold(2, 3))
        nr = normalize_relation(ab, rel)
        with pytest.raises(IntegrityError):
            lie_basis(nr, 3, series_counts={1: 3, 2: 2, 3: 4})


class TestScalableCounts:
    def test_enumeration_equals_necklace_counts(self):
        for alphabet in (AB2, AB3, Alphabet.uniform(4, 1)):
            enum = standard_lyndon_counts(alphabet, (0, 1), 8)
            neck = standard_lyndon_counts(alphabet, (0, 1), 8, enumeration_limit=0)
            assert enum == neck

    def test_enumeration_equals_necklace_counts_weighted(self):
        ab = Alphabet((1, 2, 1, 2), ("a", "b", "c", "d"))
        enum = standard_lyndon_counts(ab, (0, 1), 8)
        neck = standard_lyndon_counts(ab, (0, 1), 8, enumeration_limit=0)
        assert enum == neck

    def test_necklace_counts_build_one_walk_table(self, monkeypatch):
        import looptop.lyndon as lyndon

        built = []
        original = lyndon._closed_walk_counts
        monkeypatch.setattr(
            lyndon, "_closed_walk_counts", lambda *args: built.append(args) or original(*args)
        )
        counts = standard_lyndon_counts(AB3, (0, 1), 10, enumeration_limit=0)
        assert len(built) == 1
        assert counts == standard_lyndon_counts(AB3, (0, 1), 10)

    def test_large_count_matches_closed_form(self):
        from looptop.series import closed_form_lie_rank

        counts = standard_lyndon_counts(Alphabet.uniform(6, 1), (0, 1), 12, enumeration_limit=0)
        for d in range(1, 13):
            assert counts.get(d, 0) == closed_form_lie_rank(2, 6, d)


class TestReducedBracketIndependence:
    def test_reduced_brackets_stay_independent(self):
        # brackets of standard words, reduced modulo the relation, must stay
        # nonzero and linearly independent degree by degree
        for space in (Manifold(2, 3), ConnectedSum(((2, 3), (2, 3)))):
            ab, rel = relation_from_space(space)
            nr = normalize_relation(ab, rel)
            rs = RewriteSystem.from_normalized(nr)
            basis = lie_basis(nr, 6)
            for d, elements in basis.items():
                rows = []
                for e in elements:
                    red = reduce(e.bracket, rs)
                    assert not red.is_zero(), (space, e.word)
                    rows.append(dict(red.terms))
                assert rank_sparse_rational(rows) == len(elements), (space, d)
