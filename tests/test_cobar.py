import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptop._linalg import det_int, mat_mul, smith_normal_form
from looptop.cobar import FiniteCoalgebra, build_cobar, homology, verify_loop_homology
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


class TestBuildCobar:
    def test_m22_low_degrees(self):
        cx = build_cobar(Manifold(2, 2).coalgebra(), 5)
        assert sorted(cx.basis(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        b3 = cx.basis(3)
        assert (2,) in b3  # the desuspended top cell
        m = cx.differential_matrix(3)
        b2 = cx.basis(2)
        z = b3.index((2,))
        image = {b2[i]: m[i][z] for i in range(len(b2)) if m[i][z]}
        assert image == {(0, 1): 1, (1, 0): 1}

    def test_betti_one_differential(self):
        cx = build_cobar(BettiOne(4, 0).coalgebra(), 8)
        b7, b6 = cx.basis(7), cx.basis(6)
        m = cx.differential_matrix(7)
        col = b7.index((1,))
        image = {b6[i]: m[i][col] for i in range(len(b6)) if m[i][col]}
        assert image == {(0, 0): 1}

    def test_zero_diagonal_means_zero_differential(self):
        # wedge-like complex: zero cup form
        cx = build_cobar(TwoCellComplex(2, ((0, 0), (0, 0))).coalgebra(), 5)
        for key, cols in cx.diffs.items():
            assert all(not col for col in cols), key

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
            homology(cx, 5)
        cx2 = build_cobar(Manifold(2, 2).coalgebra(), 5, slice_mode=True)
        assert homology(cx2, 5)[0] == 6

    def test_scaled_hyperbolic_torsion(self):
        cx = build_cobar(TwoCellComplex(2, ((0, 7), (7, 0))).coalgebra(), 4)
        rank, torsion = homology(cx, 2)
        assert rank == 3 and torsion == [7]

    def test_betti_one_width_window(self):
        cx = build_cobar(BettiOne(4, 0).coalgebra(), 14, slice_mode=True)
        for d in range(14):
            rank, torsion = homology(cx, d)
            assert torsion == []
            assert rank == (1 if d in (0, 3, 10, 13) else 0), d


class TestVerifier:
    def test_manifold_verification(self):
        report = verify_loop_homology(Manifold(2, 3), 8)
        assert report.ok and report.euler_ok
        ranks = [row.rank for row in report.rows]
        assert ranks == [1, 3, 8, 21, 55, 144, 377, 987, 2584]

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

    def test_betti_one_verification(self):
        report = verify_loop_homology(BettiOne(4, 5), 13)
        assert report.ok
        assert [row.rank for row in report.rows] == [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]
