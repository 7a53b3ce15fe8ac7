import io
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import looptop._linalg as _linalg
from looptop._linalg import det_int, smith_invariants, smith_normal_form
import looptop.cobar as cobar
from looptop.cli import parse_space, run
from looptop.cobar import (
    FiniteCoalgebra,
    PackedColumns,
    _euler_audit,
    _sparse_rank_and_torsion,
    _spot_profile,
    _transpose,
    build_cobar,
    homology,
    verify_loop_homology,
)
from looptop.errors import IntegrityError, ValidationError, WindowError
from looptop.spaces import BettiOne, ConnectedSum, Manifold, TwoCellComplex

from oracles import mat_mul, reference_cobar, smith_form_with_transforms, unit_pivot_rows


class TestCoalgebraOf:
    def test_manifold_hyperbolic_diagonal(self):
        c = Manifold(2, 2).coalgebra()
        top = len(c.generators) - 1
        assert set(c.diagonal(top)) == {(0, 1, 1), (1, 0, 1)}

    def test_betti_one_square_diagonal(self):
        c = BettiOne(4, 0).coalgebra()
        assert c.generators == (("e4", 4), ("e8", 8))
        assert c.diagonal(1) == ((0, 0, 1),)

    def test_two_cell_scaled_pairing(self):
        c = TwoCellComplex(2, ((0, 7), (7, 0))).coalgebra()
        assert set(c.diagonal(2)) == {(0, 1, 7), (1, 0, 7)}

    def test_degree_additivity_enforced(self):
        with pytest.raises(IntegrityError):
            FiniteCoalgebra((("a", 2), ("z", 5)), {1: ((0, 0, 1),)})

    def test_coassociativity_enforced(self):
        gens = (("a", 2), ("b", 4), ("c", 6))
        with pytest.raises(IntegrityError):
            FiniteCoalgebra(gens, {1: ((0, 0, 1),), 2: ((0, 1, 1),)})


class TestSmithNormalForm:
    def test_spec_examples(self):
        for matrix, invariants in (
            ([[2, 0], [0, 3]], [1, 6]),
            ([[0, 0], [0, 0]], []),
            ([[1, 0], [0, 1]], [1, 1]),
        ):
            assert smith_normal_form(matrix) == invariants
            assert smith_form_with_transforms(matrix)[0] == invariants

    @given(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_transforms_and_divisibility(self, matrix):
        invariants, L, R = smith_form_with_transforms(matrix)
        assert abs(det_int(L)) == 1
        assert abs(det_int(R)) == 1
        product = mat_mul(mat_mul(L, matrix), R)
        diag = [product[i][i] for i in range(min(3, 4))]
        assert [d for d in diag if d] == invariants
        for a, b in zip(invariants, invariants[1:]):
            assert b % a == 0


def columns_of(matrix):
    """The sparse {row: value} columns of a dense matrix."""
    return [
        {i: row[j] for i, row in enumerate(matrix) if row[j]}
        for j in range(len(matrix[0]) if matrix else 0)
    ]


def packed(columns):
    """`columns` ({row: value} dicts) in the build's packed layout."""
    ptr, rows, vals = array("q", [0]), array("q"), []
    for col in columns:
        rows.extend(col)
        vals.extend(col.values())
        ptr.append(len(rows))
    return PackedColumns(ptr, rows, vals)


@st.composite
def small_integer_matrices(draw):
    """Up to 8x8, entries in [-12, 12], some zero rows and columns, and
    entries drawn from one small prime p and p^2 together."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    p = draw(st.sampled_from([2, 3]))
    entry = st.one_of(st.integers(-12, 12), st.sampled_from([0, p, -p, p * p, -p * p]))
    matrix = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        matrix[i] = [0] * m
    for j in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in matrix:
            row[j] = 0
    return matrix


@st.composite
def columns_sharing_leads(draw):
    """Up to 12 sparse columns over at most 8 rows, with leading entries
    that are often not units and rows in any order; each column after the
    first few repeats the leading row of an earlier one, so it eliminates
    against that column when the earlier one is a pivot."""
    n = draw(st.integers(1, 8))
    entry = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -9])

    def column(below=-1):
        rows = sorted(r for r in draw(st.sets(st.integers(0, n - 1), max_size=4)) if r > below)
        rows = draw(st.permutations(rows))
        return {r: draw(entry) for r in rows}

    cols = [column() for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 7))):
        base = cols[draw(st.integers(0, len(cols) - 1))]
        lead = min(base, default=-1)
        cols.append({**column(lead), **({lead: draw(entry)} if base else {})})
    return cols


class TestSmithInvariants:
    def test_p_and_p_squared_are_told_apart(self):
        assert smith_invariants([{0: 9}, {1: 3}]) == [3, 9]
        assert smith_invariants([{0: 3, 1: 3}, {0: 3, 1: -6}]) == [3, 9]
        assert smith_invariants([{0: 2}, {1: 3}]) == [1, 6]
        assert smith_invariants([{}, {5: 0}]) == []

    @given(small_integer_matrices())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_dense_form(self, matrix):
        assert smith_invariants(columns_of(matrix)) == smith_form_with_transforms(matrix)[0]

    def test_dense_form_has_no_entry_swell(self):
        # interleaved row and column passes used to grow this 6x5 to 500-digit entries
        matrix = [
            [8, 12, 7, 7, -5],
            [9, 7, 7, 7, 7],
            [7, 7, 7, 7, 7],
            [7, 7, 7, -7, 7],
            [7, 6, 7, 7, 7],
            [7, 7, 7, 7, 7],
        ]
        assert smith_form_with_transforms(matrix)[0] == [1, 1, 1, 14, 168]
        assert smith_invariants(columns_of(matrix)) == [1, 1, 1, 14, 168]


def _z9_read_as_z3(diagonalize):
    return lambda columns: [3 if d == 9 else d for d in diagonalize(columns)]


def _largest_invariant_dropped(diagonalize):
    # Z/9 vanishes over Z/3^2, so only the rank over F_q sees this loss
    return lambda columns: sorted(diagonalize(columns))[:-1]


_TORSION_COBAR = ["verify", "cobar", "--space", "cw:2:0,9;9,0", "--max-degree", "4"]
_PI10_V8 = ["betti-one", "--n", "4", "--m", "1"]  # diagonal [1, 1]: no Z/9 to misread


@pytest.mark.parametrize(
    "fault, argvs",
    [
        pytest.param(_z9_read_as_z3, [_TORSION_COBAR], id="_z9_read_as_z3"),
        pytest.param(
            _largest_invariant_dropped, [_TORSION_COBAR, _PI10_V8], id="_largest_invariant_dropped"
        ),
    ],
)
def test_smith_certificate_can_fail(monkeypatch, fault, argvs):
    monkeypatch.setattr(_linalg, "_diagonalize", fault(_linalg._diagonalize))
    with pytest.raises(IntegrityError, match="certificate"):
        smith_invariants([{0: 9}, {1: 3}])
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out=out, err=err) == 1, argv
        assert "integrity error" in err.getvalue()


def test_linalg_imports_only_the_errors():
    # the one home of integer arithmetic is a leaf: no import cycle through spaces
    code = (
        "import sys, looptop._linalg; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'looptop'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(_linalg.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.stdout.strip() == "['looptop', 'looptop._linalg', 'looptop.errors']"


def _words_through(degs, top):
    """The number of words over letters of degrees `degs` with degree <= top."""
    counts = [1]
    for d in range(1, top + 1):
        counts.append(sum(counts[d - g] for g in degs if g <= d))
    return sum(counts)


class TestBuildCobar:
    def test_m22_low_degrees(self):
        cx = build_cobar(Manifold(2, 2).coalgebra(), 5)
        degree_two = sorted(w for key in cx.spots if key[1] == 2 for w in cx.words(key))
        assert degree_two == [(0, 0), (0, 1), (1, 0), (1, 1)]
        col = list(cx.diffs[(4, 3)])[cx.words((4, 3)).index((2,))]  # the desuspended top cell
        image = {cx.words((4, 2))[row]: v for row, v in col.items()}
        assert image == {(0, 1): 1, (1, 0): 1}

    def test_betti_one_differential(self):
        cx = build_cobar(BettiOne(4, 0).coalgebra(), 8)
        col = list(cx.diffs[(8, 7)])[cx.words((8, 7)).index((1,))]
        image = {cx.words((8, 6))[row]: v for row, v in col.items()}
        assert image == {(0, 0): 1}

    def test_zero_diagonal_means_zero_differential(self):
        # wedge-like complex: zero cup form
        cx = build_cobar(TwoCellComplex(2, ((0, 0), (0, 0))).coalgebra(), 5)
        for key, cols in cx.diffs.items():
            assert all(not col for col in cols), key

    def test_no_cell_above_the_window(self):
        for space in (Manifold(2, 3), ConnectedSum(((2, 3), (2, 3))), BettiOne(4, 0)):
            cx = build_cobar(space.coalgebra(), 7)
            assert all(d <= 8 for _, d in cx.spots), space

    def test_cell_guard(self):
        with pytest.raises(ValidationError):
            build_cobar(Manifold(2, 3).coalgebra(), 10, max_cells=100)

    def test_cell_cap_is_exact(self):
        coalgebra = Manifold(2, 3).coalgebra()
        with pytest.raises(ValidationError, match="needs 178980 words.*LOOPTOP_MAX_CELLS"):
            build_cobar(coalgebra, 10, max_cells=178_979)
        cx = build_cobar(coalgebra, 10, max_cells=178_980)
        assert sum(len(words) for words in cx.spots.values()) == 178_980

    @settings(max_examples=60, deadline=None)
    @given(degs=st.lists(st.integers(1, 4), min_size=1, max_size=4), data=st.data())
    def test_counted_spots_and_cap_match_the_reference(self, degs, data):
        # primitive generators, so the window is all there is to count; the
        # cutoff stays where the tuple-word reference builds at most 3000 words
        fits = [c for c in range(2, 11) if _words_through(degs, c + 1) <= 3000]
        cutoff = data.draw(st.integers(1, max(fits, default=1)))
        coalgebra = FiniteCoalgebra(tuple((f"g{i}", d + 1) for i, d in enumerate(degs)), {})
        spots, _ = reference_cobar(coalgebra, cutoff)
        total = sum(map(len, spots.values()))
        cx = build_cobar(coalgebra, cutoff, max_cells=total)
        assert {key: len(words) for key, words in cx.spots.items()} == {
            key: len(words) for key, words in spots.items()
        }
        if total:
            cap = data.draw(st.integers(0, total - 1))
            with pytest.raises(ValidationError, match="LOOPTOP_MAX_CELLS") as refusal:
                build_cobar(coalgebra, cutoff, max_cells=cap)
            named = int(re.search(r"needs (\d+) words or more", str(refusal.value)).group(1))
            assert cap < named <= total

    def test_refusal_cost_does_not_grow_with_the_cutoff(self, monkeypatch):
        # the count runs weight by weight and stops at the cap; a table of
        # every (weight, degree) through D = 2000 holds millions of counts of
        # up to 985 digits
        space = Manifold(2, 3)
        for refuse in (build_cobar, verify_loop_homology):
            arg = space.coalgebra() if refuse is build_cobar else space
            tracemalloc.start()
            try:
                with pytest.raises(ValidationError, match="LOOPTOP_MAX_CELLS"):
                    refuse(arg, 2000, max_cells=200_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5_000_000, (refuse.__name__, peak)
        monkeypatch.delenv("LOOPTOP_MAX_CELLS", raising=False)
        err = io.StringIO()
        argv = ["verify", "cobar", "--space", "manifold:2:3", "--max-degree", "1000000"]
        assert run(argv, out=io.StringIO(), err=err) == 2
        assert "LOOPTOP_MAX_CELLS" in err.getvalue()

    @pytest.mark.parametrize(
        "text, cutoff",
        [
            ("manifold:2:2", 9),
            ("manifold:2:3", 8),
            ("manifold:4:3", 12),
            *[(f"csum:2x3,2x3:signs={signs}", 7) for signs in ("+,+", "+,-", "-,+", "-,-")],
            ("csum:3x4,3x4:signs=+,-", 10),
            ("cw:2:0,9;9,0", 6),
            ("cw:2:2,1;1,2", 7),
            ("cw:2:0,7;7,0", 7),
            ("betti1:4:1", 12),
            ("betti1:2:0", 12),
        ],
    )
    def test_matches_the_tuple_word_reference(self, text, cutoff):
        coalgebra = parse_space(text).coalgebra()
        cx = build_cobar(coalgebra, cutoff)
        spots, diffs = reference_cobar(coalgebra, cutoff)
        assert {key: cx.words(key) for key in cx.spots} == spots
        assert {key: list(cols) for key, cols in cx.diffs.items()} == diffs

    @pytest.mark.parametrize(
        "text, cutoff", [("manifold:2:3", 8), ("csum:2x3,2x3:signs=+,-", 7), ("cw:2:0,9;9,0", 6)]
    )
    def test_sizes_seen_by_the_trace_match_the_reference(self, text, cutoff):
        # the benchmark's traced pass counts cells by len() of a spot and
        # entries by len() of each column the differential iterates over
        coalgebra = parse_space(text).coalgebra()
        cx = build_cobar(coalgebra, cutoff)
        spots, diffs = reference_cobar(coalgebra, cutoff)
        sizes = {key: len(words) for key, words in spots.items()}
        assert {key: len(words) for key, words in cx.spots.items()} == sizes
        assert {key: len(cols) for key, cols in cx.diffs.items()} == sizes
        assert {key: sum(len(col) for col in cols) for key, cols in cx.diffs.items()} == {
            key: sum(len(col) for col in cols) for key, cols in diffs.items()
        }

    def test_packed_build_retains_little_per_cell(self):
        # one {row: value} dict per column retained about 230 B per cell
        coalgebra = Manifold(2, 3).coalgebra()
        tracemalloc.start()
        try:
            cx = build_cobar(coalgebra, 8)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        cells = sum(len(words) for words in cx.spots.values())
        assert retained <= 110 * cells, retained / cells

    def test_rank_keeps_emergent_pivots_packed(self, monkeypatch):
        # one {row: value} dict per reduced column peaked at about 300 B per column
        cx = build_cobar(Manifold(2, 3).coalgebra(), 8)
        nonzero = [key for key, cols in cx.diffs.items() if cols.rows]
        key = max(nonzero, key=lambda key: len(cx.spots[key]))
        rank, peaks = cobar._sparse_rank_and_torsion, {}

        def traced(columns, skip=frozenset()):
            tracemalloc.start()
            try:
                return rank(columns, skip)
            finally:
                peaks[id(columns)] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        monkeypatch.setattr(cobar, "_sparse_rank_and_torsion", traced)
        _spot_profile(cx, key)
        cols = cx.diffs[key]
        assert peaks[id(cols)] <= 200 * len(cols), peaks[id(cols)] / len(cols)

    def test_d_squared_zero_check_can_fail(self, monkeypatch):
        # Every family's diagonal has primitive components, so d*d vanishes on
        # the generators whatever the diagonal's signs.  On x, x^2, x^3 with
        # |x| = 3 the component x^2 is not primitive, and the desuspension
        # sign is what makes d*d = 0.
        cubic = FiniteCoalgebra(
            (("x", 3), ("x2", 6), ("x3", 9)), {1: ((0, 0, 1),), 2: ((0, 1, 1), (1, 0, 1))}
        )
        build_cobar(cubic, 9)

        def unsigned(coalgebra):
            return {gi: coalgebra.diagonal(gi) for gi in range(len(coalgebra.generators))}

        monkeypatch.setattr(cobar, "_diagonal_desuspended", unsigned)
        build_cobar(ConnectedSum(((2, 3), (2, 3))).coalgebra(), 8)
        with pytest.raises(IntegrityError, match=r"d\*d != 0 on word \(2,\)"):
            build_cobar(cubic, 9)

    @pytest.mark.parametrize("key", [(10, 7), (12, 8), (16, 9)])
    def test_block_copy_fault_is_caught(self, monkeypatch, key):
        # The d*d check reads no column of a block whose generator has no
        # diagonal terms.  Here the build's copy of a_1's block of one spot
        # has every row moved on by one, and `verify cobar` must still exit 1
        # (through the d*d check of the spot above, the ranks or the audit).
        check = cobar._assert_d_squared_zero

        def shifted(cx):
            s, d = key
            cols, k = cx.diffs[key], len(cx.coalgebra.generators)
            end = bisect_left(cx.spots[key], k ** (s - d - 1))  # a_1 is generator 0
            nrows = len(cx.spots[(s, d - 1)])
            for i in range(cols.ptr[end]):
                cols.rows[i] = (cols.rows[i] + 1) % nrows
            check(cx)

        argv = ["verify", "cobar", "--space", "manifold:2:3", "--max-degree", "8"]
        assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0
        monkeypatch.setattr(cobar, "_assert_d_squared_zero", shifted)
        assert run(argv, out=io.StringIO(), err=io.StringIO()) == 1

    def test_d_squared_zero_across_models(self):
        # the assertion runs inside build_cobar for every complex
        for space, cutoff in (
            (Manifold(2, 2), 9),
            (Manifold(2, 3), 8),
            (Manifold(3, 2), 12),
            (Manifold(4, 3), 12),
            (ConnectedSum(((2, 3), (2, 3))), 8),
            (ConnectedSum(((3, 4), (3, 4)), (1, -1)), 10),
            (TwoCellComplex(2, ((0, 7), (7, 0))), 7),
            (BettiOne(4, 1), 12),
            (BettiOne(8, 0), 12),
        ):
            build_cobar(space.coalgebra(), cutoff)


class TestPackedColumns:
    @given(small_integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_transpose_twice_is_the_identity(self, matrix):
        cols = packed(columns_of(matrix))
        once = _transpose(cols, len(matrix))
        assert list(once) == columns_of([list(row) for row in zip(*matrix)])
        twice = _transpose(once, len(matrix[0]))
        assert (twice.ptr, twice.rows, twice.vals) == (cols.ptr, cols.rows, cols.vals)

    @given(small_integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_ranking_is_repeatable_and_leaves_the_store_alone(self, matrix):
        cols = packed(columns_of(matrix))
        before = (array("q", cols.ptr), array("q", cols.rows), list(cols.vals))
        first = _sparse_rank_and_torsion(cols)
        assert _sparse_rank_and_torsion(cols) == first
        assert (cols.ptr, cols.rows, cols.vals) == before
        invariants = smith_form_with_transforms(matrix)[0]
        assert first[:2] == (len(invariants), [x for x in invariants if x > 1])
        assert _sparse_rank_and_torsion(_transpose(cols, len(matrix)))[:2] == first[:2]

    @given(columns_sharing_leads(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_emergent_pivots_match_the_unpacked_reduction(self, columns, data):
        skip = data.draw(st.sets(st.integers(0, len(columns) - 1)))
        cols = packed(columns)
        before = (array("q", cols.ptr), array("q", cols.rows), list(cols.vals))
        rank, torsion, pivot_rows = _sparse_rank_and_torsion(cols, skip)
        assert (cols.ptr, cols.rows, cols.vals) == before
        assert pivot_rows == unit_pivot_rows(columns, skip)
        kept = [col for i, col in enumerate(columns) if i not in skip]
        matrix = [[col.get(i, 0) for col in kept] for i in range(8)] if kept else []
        invariants = smith_form_with_transforms(matrix)[0]
        assert (rank, torsion) == (len(invariants), [x for x in invariants if x > 1])

    def test_emergent_pivots_are_unpacked_where_they_are_used(self):
        # column 1 (row 0) is first used in the promotion loop, column 3 (row 4)
        # in the main loop, column 5 (row 6) in the clearing of the set-aside
        # column 2, which leaves Z/3
        columns = [{0: 2, 1: 1}, {2: 1, 0: 1}, {6: 1, 3: 3}, {4: 1}, {5: 1, 4: -1}, {6: 1}]
        cols = packed(columns)
        assert _sparse_rank_and_torsion(cols) == (6, [3], {0, 1, 4, 5, 6})
        assert unit_pivot_rows(columns) == {0, 1, 4, 5, 6}
        assert _sparse_rank_and_torsion(cols, {2}) == (5, [], {0, 1, 4, 5, 6})


# x, x^2, x^3 with |x| = 3: x has no diagonal terms, x2 and x3 have them
CUBIC = FiniteCoalgebra(
    (("x", 3), ("x2", 6), ("x3", 9)), {1: ((0, 0, 1),), 2: ((0, 1, 1), (1, 0, 1))}
)
# (S^2 x S^2) v S^4: c and e share a degree, and only c has diagonal terms
WEDGE = FiniteCoalgebra((("a", 2), ("b", 2), ("c", 4), ("e", 4)), {2: ((0, 1, 1), (1, 0, 1))})


def _coalgebra(text):
    return {"cubic": CUBIC, "wedge": WEDGE}.get(text) or parse_space(text).coalgebra()


def _top_columns(cx):
    """The differential of each slice's top spot, by key."""
    tops = {}
    for s, d in cx.spots:
        tops[s] = max(d, tops.get(s, d))
    return {(s, d): cx.diffs[(s, d)] for s, d in tops.items()}


class TestHomology:
    @pytest.mark.parametrize(
        "text, cutoff",
        [
            ("manifold:2:2", 9),
            ("csum:2x3,2x3:signs=+,-", 8),
            ("cw:2:0,9;9,0", 6),
            ("cw:2:2,1;1,2", 7),
            ("cw:2:1,2;2,1", 7),
            ("betti1:4:1", 12),
            ("manifold:2:3", 8),
            ("cubic", 30),
            ("wedge", 8),
        ],
    )
    def test_cleared_profile_equals_the_plain_one(self, text, cutoff):
        # clearing, inherited clearing and the transposed spots change the
        # work, not the answer
        cx = build_cobar(_coalgebra(text), cutoff)
        for key, cols in cx.diffs.items():
            assert _spot_profile(cx, key) == _sparse_rank_and_torsion(cols)[:2], key

    @pytest.mark.parametrize(
        "text, cutoff",
        [("manifold:2:3", 8), ("csum:2x3,2x3:signs=+,-", 8), ("cubic", 30), ("wedge", 8)],
    )
    def test_top_spots_inherit_cleared_columns(self, monkeypatch, text, cutoff):
        # the largest slice first: each top spot profiles its sources itself
        cx = build_cobar(_coalgebra(text), cutoff)
        tops = _top_columns(cx)
        rank, skipped = cobar._sparse_rank_and_torsion, {}

        def recording(columns, skip=frozenset()):
            for key, cols in tops.items():
                if columns is cols:
                    skipped[key] = len(skip)
            return rank(columns, skip)

        monkeypatch.setattr(cobar, "_sparse_rank_and_torsion", recording)
        for key in sorted(tops, reverse=True):
            _spot_profile(cx, key)
        assert any(skipped.values()), skipped
        assert not cx._inherited  # every kept set was read and dropped

    def test_inherited_clearing_can_fail(self, monkeypatch):
        # each top spot's inherited columns moved on by one column
        space = Manifold(2, 3)
        build, rank, tops = cobar.build_cobar, cobar._sparse_rank_and_torsion, []

        def recording(coalgebra, cutoff, max_cells=None):
            cx = build(coalgebra, cutoff, max_cells)
            tops.extend(_top_columns(cx).values())
            return cx

        def shifted(columns, skip=frozenset()):
            if any(columns is cols for cols in tops):
                skip = {j + 1 for j in skip}
            return rank(columns, skip)

        monkeypatch.setattr(cobar, "build_cobar", recording)
        monkeypatch.setattr(cobar, "_sparse_rank_and_torsion", shifted)
        cx = cobar.build_cobar(space.coalgebra(), 8)
        assert any(_spot_profile(cx, key) != rank(cols)[:2] for key, cols in cx.diffs.items())
        assert not verify_loop_homology(space, 8).ok

    def test_m22_is_polynomial_on_two_letters(self):
        cx = build_cobar(Manifold(2, 2).coalgebra(), 7)
        for d in range(7):
            rank, torsion = homology(cx, d)
            assert (rank, torsion) == (d + 1, [])

    def test_window_edge_is_an_error(self):
        cx = build_cobar(Manifold(2, 2).coalgebra(), 5)
        with pytest.raises(WindowError):
            homology(cx, 6)
        assert homology(cx, 5)[0] == 6

    def test_scaled_hyperbolic_torsion(self):
        cx = build_cobar(TwoCellComplex(2, ((0, 7), (7, 0))).coalgebra(), 4)
        rank, torsion = homology(cx, 2)
        assert rank == 3 and torsion == [7]

    def test_betti_one_width_window(self):
        cx = build_cobar(BettiOne(4, 0).coalgebra(), 14)
        for d in range(14):
            rank, torsion = homology(cx, d)
            assert torsion == []
            assert rank == (1 if d in (0, 3, 10, 13) else 0), d


class TestVerifier:
    def test_manifold_verification(self):
        report = verify_loop_homology(Manifold(2, 3), 8)
        assert report.ok and report.bigraded_ok
        ranks = [row.rank for row in report.rows]
        assert ranks == [1, 3, 8, 21, 55, 144, 377, 987, 2584]

    def test_bigraded_audit_can_fail(self, monkeypatch):
        # one unit of boundary rank moved between the degree-6 spots of
        # slices 9 and 10: every per-degree rank still matches, two spots do not
        space = ConnectedSum(((2, 3), (2, 3)))
        build = cobar.build_cobar

        def shifted(coalgebra, cutoff, max_cells=None):
            cx = build(coalgebra, cutoff, max_cells)
            for d in range(cutoff + 1):
                homology(cx, d)
            (a, ta), (b, tb) = cx._profiles[(9, 6)], cx._profiles[(10, 6)]
            cx._profiles[(9, 6)], cx._profiles[(10, 6)] = (a - 1, ta), (b + 1, tb)
            return cx

        assert _euler_audit(build(space.coalgebra(), 6), space.bigraded_series(6))
        assert not _euler_audit(shifted(space.coalgebra(), 6), space.bigraded_series(6))
        monkeypatch.setattr(cobar, "build_cobar", shifted)
        report = verify_loop_homology(space, 6)
        assert all(row.rank_ok and row.torsion_ok for row in report.rows)
        assert not report.bigraded_ok and not report.ok

    def test_connected_sum_verification(self):
        report = verify_loop_homology(ConnectedSum(((2, 3), (2, 3))), 8)
        assert report.ok
        assert [row.rank for row in report.rows] == [1, 2, 6, 15, 40, 104, 273, 714, 1870]

    def test_two_cell_torsion_confined_to_bad_primes(self):
        report = verify_loop_homology(TwoCellComplex(2, ((0, 7), (7, 0))), 6)
        assert report.ok
        seen = [t for row in report.rows for t in row.torsion]
        assert seen and all(t % 7 == 0 for t in seen)

    def test_residual_columns_are_cleared_on_pivot_rows(self):
        # both forms have bad prime 3 only; the first used to leave residual
        # entries on unit-pivot rows and stop with an integrity error at D >= 3
        reports = [
            verify_loop_homology(TwoCellComplex(2, matrix), 5)
            for matrix in (((1, 2), (2, 1)), ((2, 1), (1, 2)))
        ]
        assert all(report.ok for report in reports)
        torsion = [[row.torsion for row in report.rows] for report in reports]
        assert torsion[0] == torsion[1] == [(), (), (), (3,), (3,) * 3, (3,) * 7]

    @pytest.mark.parametrize("entry", [3, 9])
    def test_p_against_p_squared_at_degree_eight(self, entry):
        # one prime power per form: Z/3 for [[0,3],[3,0]], Z/9 for [[0,9],[9,0]]
        report = verify_loop_homology(TwoCellComplex(2, ((0, entry), (entry, 0))), 8)
        assert report.ok and report.torsion_primes == (3,)
        assert [row.rank for row in report.rows] == list(range(1, 10))
        multiplicities = [0, 0, 1, 4, 11, 27, 63, 143, 320]
        assert [row.torsion for row in report.rows] == [(entry,) * k for k in multiplicities]

    def test_torsion_only_at_seven_at_degree_nine(self):
        report = verify_loop_homology(TwoCellComplex(2, ((0, 7), (7, 0))), 9)
        assert report.ok
        seen = {t for row in report.rows for t in row.torsion}
        assert seen == {7}

    def test_betti_one_verification(self):
        report = verify_loop_homology(BettiOne(4, 5), 13)
        assert report.ok
        assert [row.rank for row in report.rows] == [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]
