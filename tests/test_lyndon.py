import math
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptop.algebra import Alphabet, TensorElement, normalize_relation, relation_from_space
from looptop.errors import IntegrityError, ValidationError
from looptop.lyndon import (
    _WALK_LIMIT,
    _closed_walk_counts,
    _estimated_words_log10,
    _necklace_count,
    _scientific,
    basis_walk_fits,
    bracket_expand,
    bracket_string,
    lie_basis,
    standard_factorization,
    standard_lyndon_counts,
    standard_lyndon_words,
)
from looptop.rewriting import irreducible_counts
from looptop.spaces import ConnectedSum, Manifold
from oracles import (
    RewriteSystem,
    _find_factor,
    closed_walks_by_start,
    dense,
    generate_lyndon,
    irreducible_words,
    is_lyndon,
    is_zero,
    longest_lyndon_suffix_split,
    necklace_count_every_length,
    rank_sparse_rational,
    rational_plane_split,
    reduce,
)


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


class TestStandardWords:
    @pytest.mark.parametrize(
        "alphabet", [AB2, AB3, Alphabet.uniform(4, 1), Alphabet((1, 2, 1, 2), ("a", "b", "c", "d"))]
    )
    def test_one_walk_equals_enumerate_then_filter(self, alphabet):
        want = {}
        for d, words in generate_lyndon(alphabet, 8).items():
            kept = [w for w in words if _find_factor(w, (0, 1)) is None]
            if kept:
                want[d] = kept
        have = standard_lyndon_words(alphabet, (0, 1), 8)
        assert have == want
        assert list(have) == sorted(have)

    def test_refuses_an_empty_window(self):
        with pytest.raises(ValidationError, match="max_degree must be >= 1"):
            standard_lyndon_words(AB2, (0, 1), 0)


class TestStandardFactorization:
    def test_spec_examples(self):
        assert standard_factorization((0, 1)) == ((0,), (1,))
        assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
        assert standard_factorization((0, 0, 1, 1)) == ((0,), (0, 1, 1))

    def test_rejects_single_letters(self):
        with pytest.raises(ValidationError, match="standard factorization needs length >= 2"):
            standard_factorization((0,))

    def test_least_suffix_split_is_the_longest_lyndon_suffix_split(self):
        # every Lyndon word of length 2-10 over 2 and 3 letters, 2-8 over 4
        checked = 0
        for r, longest in ((2, 10), (3, 10), (4, 8)):
            for length in range(2, longest + 1):
                for word in product(range(r), repeat=length):
                    if is_lyndon(word):
                        assert standard_factorization(word) == longest_lyndon_suffix_split(word), word
                        checked += 1
        assert checked == 21_063

    def test_refuses_every_word_that_is_not_lyndon(self):
        for length in range(2, 9):
            for word in product(range(2), repeat=length):
                if not is_lyndon(word):
                    with pytest.raises(ValidationError, match=rf"^{re.escape(str(word))} is not a Lyndon word$"):
                        standard_factorization(word)

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


def _basis(space, max_degree):
    """`lie_basis` of the space, checked against the space's own series counts."""
    nr = normalize_relation(*relation_from_space(space))
    counts = {l - 1: c for l, c in space.sphere_counts(max_degree + 1).items()}
    return lie_basis(nr, max_degree, counts)


class TestLieBasis:
    def test_three_letter_degree_three(self):
        basis = _basis(Manifold(2, 3), 3)
        assert sorted(basis[3]) == [
            (0, 0, 2),
            (0, 2, 1),
            (0, 2, 2),
            (1, 1, 2),
            (1, 2, 2),
        ]

    def test_connected_sum_degrees_two_and_three(self):
        basis = _basis(ConnectedSum(((2, 3), (2, 3))), 3)
        assert sorted(basis[2]) == [(0, 2), (1,), (3,)]
        assert sorted(basis[3]) == [(0, 0, 2), (0, 2, 2), (0, 3), (1, 2), (2, 3)]

    def test_hyperbolic_pair_has_only_the_letters(self):
        basis = _basis(Manifold(3, 2), 12)
        assert [len(basis.get(d, [])) for d in range(1, 13)] == [0, 2] + [0] * 10

    @pytest.mark.parametrize("degrees", [(1,), (1, 1), (1, 1, 1), (2, 2, 2), (1, 3, 1, 2, 1)])
    def test_walk_estimate_is_the_whole_sum(self, degrees):
        # r + r^2 + ... + r^L in full, however far past the walk limit
        alphabet = Alphabet(degrees, tuple(f"x{i}" for i in range(len(degrees))))
        r = alphabet.size
        for max_degree in range(1, 200):
            exact = sum(r**w for w in range(1, max_degree // min(degrees) + 1))
            log10 = _estimated_words_log10(alphabet, max_degree)
            assert basis_walk_fits(alphabet, max_degree) == (exact <= _WALK_LIMIT)
            if exact:
                assert math.isclose(log10, math.log10(exact), rel_tol=1e-12), max_degree
            else:
                assert log10 == -math.inf

    def test_walk_figure_is_written_as_a_float_would_be(self):
        for value in (7174452, 18236498188585393201, 999_999, 3 * 10**400 + 7):
            want = f"{value:.1e}" if value < 10**300 else "3.0e+400"
            assert _scientific(math.log10(value)) == want

    def test_count_mismatch_raises(self):
        ab, rel = relation_from_space(Manifold(2, 3))
        nr = normalize_relation(ab, rel)
        with pytest.raises(IntegrityError, match="Lyndon basis count 5 != series count 4 at degree 3"):
            lie_basis(nr, 3, {1: 3, 2: 2, 3: 4})

    def test_leading_word_check_can_fail(self, monkeypatch):
        import looptop.lyndon as lyndon

        original = lyndon.bracket_expand

        def reversed_bracket(word, alphabet, memo=None):
            # [b(l2), b(l1)] in place of [b(l1), b(l2)]: the leading word keeps
            # its place but its coefficient becomes -1
            b = original(word, alphabet, memo)
            return b if len(word) == 1 else TensorElement(alphabet, {w: -c for w, c in b.terms.items()})

        monkeypatch.setattr(lyndon, "bracket_expand", reversed_bracket)
        with pytest.raises(IntegrityError, match=r"bracket of \(0, 2\) lost its triangular leading term"):
            _basis(Manifold(2, 3), 3)


class TestScalableCounts:
    def test_enumeration_equals_necklace_counts(self):
        for alphabet in (AB2, AB3, Alphabet.uniform(4, 1)):
            enum = _generated_counts(alphabet, (0, 1), 8)
            neck = standard_lyndon_counts(alphabet, (0, 1), 8)
            assert enum == neck

    def test_enumeration_equals_necklace_counts_weighted(self):
        ab = Alphabet((1, 2, 1, 2), ("a", "b", "c", "d"))
        enum = _generated_counts(ab, (0, 1), 8)
        neck = standard_lyndon_counts(ab, (0, 1), 8)
        assert enum == neck

    def test_necklace_counts_build_one_walk_table(self, monkeypatch):
        import looptop.lyndon as lyndon

        built = []
        original = lyndon._closed_walk_counts
        monkeypatch.setattr(
            lyndon, "_closed_walk_counts", lambda *args: built.append(args) or original(*args)
        )
        counts = standard_lyndon_counts(AB3, (0, 1), 10)
        assert len(built) == 1
        assert counts == _generated_counts(AB3, (0, 1), 10)

    def test_large_count_matches_closed_form(self):
        from looptop.series import closed_form_lie_rank

        counts = standard_lyndon_counts(Alphabet.uniform(6, 1), (0, 1), 12)
        for d in range(1, 13):
            assert counts.get(d, 0) == closed_form_lie_rank(2, 6, d)


@st.composite
def weighted_alphabets(draw):
    """A weighted alphabet, any forbidden pair (a = b included) and a window."""
    degrees = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    alphabet = Alphabet(degrees, tuple(f"x{i}" for i in range(len(degrees))))
    pair = (draw(st.integers(0, len(degrees) - 1)), draw(st.integers(0, len(degrees) - 1)))
    return alphabet, pair, draw(st.integers(1, 14))


class TestStepRule:
    """The one-step-rule word counts against the per-start walk and the enumerated
    words, and the necklace count against its sum over every word length."""

    @settings(max_examples=200, deadline=None)
    @given(weighted_alphabets())
    def test_closed_walks_match_the_walk_per_start_letter(self, case):
        alphabet, pair, D = case
        want = {k: v for k, v in closed_walks_by_start(alphabet, pair, D).items() if k[1] <= D}
        have = {k: v for k, v in _closed_walk_counts(alphabet, pair, D).items() if v}
        assert have == want

    @settings(max_examples=200, deadline=None)
    @given(weighted_alphabets())
    def test_necklace_count_skips_only_zero_terms(self, case):
        alphabet, pair, D = case
        walks = _closed_walk_counts(alphabet, pair, D)
        for d in range(1, D + 1):
            assert _necklace_count(alphabet, walks, d) == necklace_count_every_length(alphabet, walks, d)

    @settings(max_examples=200, deadline=None)
    @given(weighted_alphabets())
    def test_irreducible_counts_match_the_enumerated_words(self, case):
        alphabet, pair, D = case
        # enumerate only as deep as a few thousand words
        r, low = alphabet.size, min(alphabet.degrees)
        D = max(e for e in range(1, D + 1) if r ** (e // low) <= 4096)
        words = irreducible_words(alphabet, pair, D)
        assert irreducible_counts(alphabet, pair, D) == {d: len(words[d]) for d in range(1, D + 1)}


def _generated_counts(alphabet, forbidden, max_degree):
    """Per-degree counts of the generated standard Lyndon words."""
    table = standard_lyndon_words(alphabet, forbidden, max_degree)
    return {d: len(words) for d, words in table.items()}


class TestReducedBracketIndependence:
    def test_reduced_brackets_stay_independent(self):
        # brackets of standard words, reduced modulo the relation, must stay
        # nonzero and linearly independent degree by degree
        for space in (Manifold(2, 3), ConnectedSum(((2, 3), (2, 3)))):
            ab, rel = relation_from_space(space)
            nr = normalize_relation(ab, rel)
            rs = RewriteSystem.from_normalized(rational_plane_split(ab, dense(rel, ab.size)))
            for d, words in _basis(space, 6).items():
                rows = []
                for w in words:
                    red = reduce(bracket_expand(w, nr.alphabet), rs)
                    assert not is_zero(red), (space, w)
                    rows.append(dict(red.terms))
                assert rank_sparse_rational(rows) == len(words), (space, d)
