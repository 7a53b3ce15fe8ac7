import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptop.errors import IntegrityError, ValidationError, WindowError
from looptop.series import (
    DimensionTable,
    PowerSeries,
    _lucas,
    _power_sums,
    closed_form_lie_rank,
    divisors,
    growth_rate,
    lie_ranks_from_denominator,
    moebius_mu,
    pbw_match_graded,
    pbw_match_ungraded,
)
from looptop.spaces import ConnectedSum, Manifold
from oracles import (
    _witt_inner_sum,
    as_list,
    closed_form_rational_rank,
    closed_form_witt_rank,
    connected_sum_denominator,
    log_moebius_ranks,
    lucas_numbers,
    manifold_denominator,
    rational_ranks_closed_form,
    series_exp,
    series_log,
)


def series(coeffs, order):
    return PowerSeries.of(coeffs, order)


class TestMoebius:
    def test_base_values(self):
        assert moebius_mu(1) == 1
        assert moebius_mu(6) == 1
        assert moebius_mu(12) == 0

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            moebius_mu(0)

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
    def test_multiplicative_on_coprime(self, a, b):
        from math import gcd

        if gcd(a, b) == 1:
            assert moebius_mu(a * b) == moebius_mu(a) * moebius_mu(b)

    @given(st.integers(min_value=2, max_value=500))
    def test_divisor_sum_vanishes(self, n):
        assert sum(moebius_mu(d) for d in divisors(n)) == 0


class TestPowerSeries:
    def test_truncation_respected(self):
        a = series([1, 1], 4)
        b = series([1, -1], 4)
        assert (a * b).coefficients == series([1, 0, -1], 4).coefficients
        with pytest.raises(WindowError):
            a[5]
        with pytest.raises(ValidationError):
            a * series([1], 2)

    def test_inverse(self):
        p = manifold_denominator(2, 3, 6)
        h = p.inverse()
        assert [h[i] for i in range(7)] == [1, 3, 8, 21, 55, 144, 377]
        assert (p * h).coefficients == series([1], 6).coefficients

    def test_inverse_needs_a_unit_constant_term(self):
        assert series([-1, 1], 3).inverse().coefficients == (-1, -1, -1, -1)
        for c0 in (0, 2, -3):
            with pytest.raises(ValidationError):
                series([c0, 1], 3).inverse()

    def test_coefficients_must_be_integers(self):
        with pytest.raises(ValidationError):
            PowerSeries((1, Fraction(1, 2)))
        with pytest.raises(ValidationError):
            PowerSeries((1, 0.5))

    def test_log_requires_unit_constant_term(self):
        with pytest.raises(ValidationError):
            series_log((2, 1, 0, 0))

    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60)
    def test_log_exp_roundtrip_exact(self, tail):
        s = tuple([Fraction(1)] + tail)
        assert series_exp(series_log(s)) == s

    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60)
    def test_exp_log_roundtrip_exact(self, tail):
        s = tuple([Fraction(0)] + tail)
        assert series_log(series_exp(s)) == s


class TestLogLambda:
    def test_classical_log(self):
        lam = series_log((1, -1, 0, 0))
        assert [lam[m] for m in (1, 2, 3)] == [Fraction(-1), Fraction(-1, 2), Fraction(-1, 3)]

    def test_squared_geometric(self):
        lam = series_log((1, -2, 1))
        assert [lam[1], lam[2]] == [Fraction(-2), Fraction(-1)]

    def test_fibonacci_denominator(self):
        lam = series_log((1, -3, 1))
        assert [lam[1], lam[2]] == [Fraction(-3), Fraction(-7, 2)]

    def test_rejects_bad_constant_term(self):
        with pytest.raises(ValidationError):
            series_log((0, 1, 0))
        with pytest.raises(ValidationError):
            lie_ranks_from_denominator(series([0, 1], 2), 2)


class TestMoebiusInversion:
    def test_three_letter_counts(self):
        assert as_list(lie_ranks_from_denominator(series([1, -3, 1], 3), 3)) == [3, 2, 5]

    def test_abelian_pair(self):
        assert as_list(lie_ranks_from_denominator(series([1, -2, 1], 10), 10)) == [2] + [0] * 9

    def test_single_generator(self):
        assert as_list(lie_ranks_from_denominator(series([1, -1], 10), 10)) == [1] + [0] * 9

    def test_invalid_series_is_integrity_error(self):
        with pytest.raises(IntegrityError):
            lie_ranks_from_denominator(series([1, -1, 1], 4), 4)
        with pytest.raises(IntegrityError):
            log_moebius_ranks(series([1, -1, 1], 4), 4)

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=14),
        st.integers(min_value=1, max_value=14),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_pipelines_match_the_fraction_oracle(self, tail, N):
        # both integer pipelines refuse exactly when the log + Moebius
        # reference does, and otherwise return its table
        den = series([1] + tail, N)
        try:
            want = log_moebius_ranks(den, N).dims
        except IntegrityError:
            with pytest.raises(IntegrityError):
                lie_ranks_from_denominator(den, N)
            with pytest.raises((IntegrityError, ValidationError)):
                pbw_match_ungraded(den.inverse(), N)
            return
        assert lie_ranks_from_denominator(den, N).dims == want
        assert pbw_match_ungraded(den.inverse(), N).dims == want

    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=16),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=150, deadline=None)
    def test_moebius_sums_of_integer_series_are_divisible(self, tail, N):
        # necklace integrality: for an integer series with constant term 1
        # every sum_{d|m} mu(d) p_(m/d) is divisible by m, which is why the
        # Moebius step divides exactly; the power sums are checked against
        # m times the Fraction logarithm's coefficients
        coefficients = series([1] + tail, N).coefficients
        p = _power_sums(coefficients, N)
        lam = series_log(coefficients)
        for m in range(1, N + 1):
            assert p[m] == m * lam[m]
            assert sum(moebius_mu(d) * p[m // d] for d in divisors(m)) % m == 0


class TestPBWUngraded:
    def test_agrees_with_inversion(self):
        den = manifold_denominator(2, 3, 6)
        matched = pbw_match_ungraded(den.inverse(), 6)
        inverted = lie_ranks_from_denominator(den, 6)
        assert matched.dims == inverted.dims

    def test_polynomial_ring_on_two_generators(self):
        H = series([1, -1], 6).inverse() * series([1, -1], 6).inverse()
        assert as_list(pbw_match_ungraded(H, 6)) == [2, 0, 0, 0, 0, 0]

    def test_connected_sum_baseline(self):
        H = connected_sum_denominator([(2, 3), (2, 3)], 6).inverse()
        assert [H[i] for i in range(4)] == [1, 2, 6, 15]
        assert as_list(pbw_match_ungraded(H, 3)) == [2, 3, 5]

    def test_non_pbw_series_rejected(self):
        with pytest.raises(IntegrityError):
            pbw_match_ungraded(series([1, 1, 1, 0], 3), 3)


class TestPBWGraded:
    def test_fibonacci(self):
        t = pbw_match_graded(manifold_denominator(2, 3, 6).inverse(), 6)
        assert t[1] == 3 and t[2] == 5

    def test_r2_regression_baseline(self):
        # (1+t)^2 / (1-t^2)^2 is exactly 1/(1-t)^2, so the matcher stops at degree 2
        t = pbw_match_graded(manifold_denominator(2, 2, 10).inverse(), 10)
        assert t.dims == {1: 2, 2: 2}

    def test_single_odd_generator(self):
        t = pbw_match_graded(series([1, 1], 8), 8)
        assert t.dims == {1: 1}


class TestRationalRanks:
    def test_fibonacci_case(self):
        t = rational_ranks_closed_form(2, 3, 6)
        assert t[1] == 3 and t[2] == 5

    def test_elliptic_case_finite(self):
        t = rational_ranks_closed_form(2, 2, 10)
        assert all(t[d] == 0 for d in range(3, 11))

    def test_product_of_odd_spheres(self):
        t = rational_ranks_closed_form(3, 2, 10)
        assert t.dims == {2: 2}

    def test_rejects_r1(self):
        with pytest.raises(ValidationError):
            rational_ranks_closed_form(2, 1, 5)

    def test_off_support_zero(self):
        assert closed_form_rational_rank(4, 3, 5) == 0
        assert closed_form_lie_rank(4, 3, 5) == 0


class TestLucasClosedForm:
    def test_lucas_numbers_are_the_witt_sums(self):
        # W(r, k) = V_k / k term by term
        for r in range(2, 30):
            assert all(_witt_inner_sum(r, k) == Fraction(_lucas(r, k), k) for k in range(1, 80)), r

    def test_doubling_matches_the_recurrence(self):
        for r in range(2, 41):
            assert [_lucas(r, k) for k in range(201)] == lucas_numbers(r, 200), r

    def test_matches_the_rational_double_sum(self):
        for n in range(2, 7):
            for r in range(2, 41):
                for degree in range(1, 121):
                    assert closed_form_lie_rank(n, r, degree) == closed_form_witt_rank(n, r, degree), (n, r, degree)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_refuses_n_below_two(self, n):
        with pytest.raises(ValidationError, match="n >= 2"):
            closed_form_lie_rank(n, 3, 4)

    def test_integrality_check_can_fail(self, monkeypatch):
        import looptop.series as engine_series
        from looptop.cli import run

        original = engine_series._lucas

        def shifted(r, k):
            # V_2 one too large: at degree 2 the Moebius sum V_2 - V_1 is odd
            return original(r, k) + (k == 2)

        monkeypatch.setattr(engine_series, "_lucas", shifted)
        with pytest.raises(IntegrityError, match="closed-form rank at degree 2"):
            closed_form_lie_rank(2, 3, 2)
        out, err = io.StringIO(), io.StringIO()
        code = run(["manifold", "--n", "2", "--betti", "3", "--max-dim", "10"], out=out, err=err)
        assert (code, out.getvalue()) == (1, "") and err.getvalue().startswith("integrity error: closed-form rank")


class TestSphereCounts:
    def test_simply_connected_four_manifold(self):
        assert Manifold(2, 3).sphere_counts(4) == {2: 3, 3: 2, 4: 5}

    def test_elliptic_pair(self):
        assert Manifold(2, 2).sphere_counts(12) == {2: 2}

    def test_support_condition(self):
        counts = Manifold(4, 3).sphere_counts(13)
        assert set(counts) <= {4, 7, 10, 13}
        assert all(c > 0 for c in counts.values())

    def test_rejects_betti_one(self):
        with pytest.raises(ValidationError):
            Manifold(2, 1).sphere_counts(6)

    def test_connected_sum_counts(self):
        assert ConnectedSum(((2, 3), (2, 3))).sphere_counts(4) == {2: 2, 3: 3, 4: 5}


class TestGrowthRate:
    def test_r3_enclosure(self):
        g = growth_rate(3)
        assert g.surd == (3, 1, 5)
        assert Fraction(26180, 10000) < g.low < g.high < Fraction(26181, 10000)
        assert g.decimal().startswith("2.6180339887")

    def test_r4_surd(self):
        g = growth_rate(4)
        assert g.surd == (4, 1, 12)
        # 2 + sqrt(3) = 3.7320508...
        assert g.decimal().startswith("3.7320508")

    def test_elliptic_boundary_rejected(self):
        with pytest.raises(ValidationError):
            growth_rate(2)

    def test_partial_sums_grow_like_the_rate(self):
        # hyperbolicity witness: sum_{d<=D} l_d >= g^D / 20 over the tested window
        for r in range(3, 7):
            g = growth_rate(r)
            table = lie_ranks_from_denominator(manifold_denominator(2, r, 12), 12)
            partial = 0
            power = Fraction(1)
            for D in range(1, 13):
                partial += table[D]
                power *= g.high
                assert Fraction(partial) >= power / 20, (r, D)


class TestMasterAgreementEdges:
    def test_n6_extreme_of_the_module_invariant(self):
        # the acceptance matrix stops at n = 5; the module invariant extends
        # to n = 6, checked here at the corners
        from looptop.lyndon import standard_lyndon_counts
        from looptop.algebra import Alphabet

        for r in (2, 6):
            den = manifold_denominator(6, r, 12)
            inversion = lie_ranks_from_denominator(den, 12)
            matched = pbw_match_ungraded(den.inverse(), 12)
            lyndon = standard_lyndon_counts(Alphabet.uniform(r, 5), (0, 1), 12)
            for d in range(1, 13):
                assert (
                    closed_form_lie_rank(6, r, d)
                    == inversion[d]
                    == matched[d]
                    == lyndon.get(d, 0)
                ), (r, d)


class TestDimensionTable:
    def test_rejects_negative(self):
        with pytest.raises(IntegrityError):
            DimensionTable({1: -1}, 3)

    def test_window(self):
        t = DimensionTable({1: 2}, 3)
        assert t[3] == 0
        with pytest.raises(WindowError):
            t[4]
