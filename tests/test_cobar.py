import io
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
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

from oracles import mat_mul, reference_cobar, smith_form_with_transforms


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
        ],
    )
    def test_cleared_profile_equals_the_plain_one(self, text, cutoff):
        # clearing and the transposed top spot change the work, not the answer
        cx = build_cobar(parse_space(text).coalgebra(), cutoff)
        for key, cols in cx.diffs.items():
            assert _spot_profile(cx, key) == _sparse_rank_and_torsion(cols)[:2], key

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
