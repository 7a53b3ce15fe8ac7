import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import looptop._linalg as _linalg
from looptop._linalg import det_int, mat_mul, smith_invariants, smith_normal_form
import looptop.cobar as cobar
from looptop.cli import run
from looptop.cobar import FiniteCoalgebra, _euler_audit, build_cobar, homology, verify_loop_homology
from looptop.errors import IntegrityError, ValidationError, WindowError
from looptop.spaces import BettiOne, ConnectedSum, Manifold, TwoCellComplex


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
        assert smith_normal_form([[2, 0], [0, 3]])[0] == [1, 6]
        assert smith_normal_form([[0, 0], [0, 0]])[0] == []
        assert smith_normal_form([[1, 0], [0, 1]])[0] == [1, 1]

    @given(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_transforms_and_divisibility(self, matrix):
        invariants, L, R = smith_normal_form(matrix)
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
        assert smith_invariants(columns_of(matrix)) == smith_normal_form(matrix)[0]

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
        assert smith_normal_form(matrix)[0] == [1, 1, 1, 14, 168]
        assert smith_invariants(columns_of(matrix)) == [1, 1, 1, 14, 168]


def _z9_read_as_z3(diagonalize):
    return lambda columns: [3 if d == 9 else d for d in diagonalize(columns)]


def _largest_invariant_dropped(diagonalize):
    # Z/9 vanishes over Z/3^2, so only the rank over F_q sees this loss
    return lambda columns: sorted(diagonalize(columns))[:-1]


@pytest.mark.parametrize("fault", [_z9_read_as_z3, _largest_invariant_dropped])
def test_smith_certificate_can_fail(monkeypatch, fault):
    monkeypatch.setattr(_linalg, "_diagonalize", fault(_linalg._diagonalize))
    with pytest.raises(IntegrityError, match="certificate"):
        smith_invariants([{0: 9}, {1: 3}])
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "cobar", "--space", "cw:2:0,9;9,0", "--max-degree", "4"]
    assert run(argv, out=out, err=err) == 1
    assert "integrity error" in err.getvalue()


class TestBuildCobar:
    def test_m22_low_degrees(self):
        cx = build_cobar(Manifold(2, 2).coalgebra(), 5)
        degree_two = sorted(w for (s, d), words in cx.spots.items() if d == 2 for w in words)
        assert degree_two == [(0, 0), (0, 1), (1, 0), (1, 1)]
        col = cx.diffs[(4, 3)][cx.index[(4, 3)][(2,)]]  # the desuspended top cell
        image = {cx.spots[(4, 2)][row]: v for row, v in col.items()}
        assert image == {(0, 1): 1, (1, 0): 1}

    def test_betti_one_differential(self):
        cx = build_cobar(BettiOne(4, 0).coalgebra(), 8)
        col = cx.diffs[(8, 7)][cx.index[(8, 7)][(1,)]]
        image = {cx.spots[(8, 6)][row]: v for row, v in col.items()}
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


class TestHomology:
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
