import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptop.errors import UnsupportedSpaceError, ValidationError
from looptop.spaces import (
    BettiOne,
    ConnectedSum,
    Manifold,
    TwoCellComplex,
    bad_primes,
    betti_one_report,
    classify_rational,
    decomposition_report,
    factorize,
    finite_pi1_betti,
    group_description,
    moore_report,
    pi10_v8,
    report_to_json,
    smoothable,
)


class TestModelValidation:
    def test_manifold_betti_one_needs_hopf_dimension(self):
        Manifold(2, 1)
        Manifold(4, 1)
        with pytest.raises(ValidationError):
            Manifold(3, 1)

    def test_manifold_matrix_parity(self):
        Manifold(2, 2, ((0, 1), (1, 0)))
        with pytest.raises(ValidationError):
            Manifold(2, 2, ((0, 1), (-1, 0)))
        with pytest.raises(ValidationError):
            Manifold(3, 2, ((0, 1), (1, 0)))

    def test_manifold_matrix_unimodular(self):
        with pytest.raises(ValidationError):
            Manifold(2, 2, ((0, 2), (2, 0)))

    def test_connected_sum_dimension_match(self):
        ConnectedSum(((2, 3), (2, 3)))
        with pytest.raises(ValidationError):
            ConnectedSum(((2, 3), (2, 4)))
        with pytest.raises(ValidationError):
            ConnectedSum(((1, 4),))

    def test_signs_validated(self):
        with pytest.raises(ValidationError):
            ConnectedSum(((2, 3),), (2,))

    def test_betti_one_residues(self):
        assert BettiOne(4, 13).m == 1
        assert BettiOne(8, 121).m == 1
        with pytest.raises(ValidationError):
            BettiOne(3, 0)


class TestBadPrimes:
    def test_spec_examples(self):
        assert bad_primes([[0, 7], [7, 0]]) == {7}
        assert bad_primes([[0, 1], [1, 0]]) == set()
        assert bad_primes([[0, 6, 0], [6, 0, 0], [0, 0, 0]]) == {2, 3}

    def test_rank_below_two_rejected(self):
        with pytest.raises(UnsupportedSpaceError):
            bad_primes([[2, 0], [0, 0]])

    def test_factorize_large_composite(self):
        # exercise the Pollard rho path beyond the trial-division bound
        p, q = 1_000_003, 1_000_033
        assert factorize(p * q) == [p, q]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_unimodular_transforms(self, seed):
        rng = random.Random(seed)
        q = [[0, 6, 0], [6, 0, 0], [0, 0, 9]]

        def unimodular():
            m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
            for _ in range(5):
                i, j = rng.randrange(3), rng.randrange(3)
                if i != j:
                    c = rng.choice((-2, -1, 1, 2))
                    for k in range(3):
                        m[i][k] += c * m[j][k]
            return m

        U, V = unimodular(), unimodular()
        transformed = [
            [
                sum(U[i][a] * q[a][b] * V[j][b] for a in range(3) for b in range(3))
                for j in range(3)
            ]
            for i in range(3)
        ]
        assert bad_primes(transformed) == bad_primes(q)


class TestBettiOneArithmetic:
    def test_pi10_examples(self):
        assert pi10_v8(1) == ()
        assert pi10_v8(0) == (3,)
        assert pi10_v8(2) == (3,)

    def test_pi10_trivial_iff_m_is_one_mod_three(self):
        for m in range(12):
            assert (pi10_v8(m) == ()) == (m % 3 == 1)

    def test_group_description(self):
        assert group_description(()) == "0"
        assert group_description((3,)) == "Z/3"

    def test_smoothable_table(self):
        assert sorted(m for m in range(12) if smoothable(4, m)) == [0, 3, 4, 7, 8, 11]
        assert smoothable(8, 0)
        with pytest.raises(ValidationError):
            smoothable(2, 0)

    def test_finite_pi1(self):
        assert finite_pi1_betti(1, 7) == 7
        assert finite_pi1_betti(2, 1) == 4
        assert finite_pi1_betti(5, 0) == 8


class TestClassification:
    def test_manifolds(self):
        assert classify_rational(Manifold(4, 2)) == "elliptic"
        assert classify_rational(Manifold(2, 3)) == "hyperbolic"

    def test_connected_sums(self):
        assert classify_rational(ConnectedSum(((2, 5),))) == "elliptic"
        assert classify_rational(ConnectedSum(((2, 5), (3, 4)))) == "hyperbolic"

    def test_two_cell(self):
        assert classify_rational(TwoCellComplex(2, ((0, 7), (7, 0)))) == "elliptic"
        assert classify_rational(TwoCellComplex(2, ((0, 1, 0), (1, 0, 0), (0, 0, 2)))) == "hyperbolic"
        with pytest.raises(UnsupportedSpaceError):
            classify_rational(TwoCellComplex(2, ((2, 0), (0, 0))))

    def test_betti_one(self):
        assert classify_rational(BettiOne(8, 3)) == "elliptic"


class TestMooreReports:
    def test_elliptic_manifold(self):
        report = moore_report(Manifold(2, 2))
        assert report.verdict == "elliptic-with-finite-exponents"

    def test_hyperbolic_connected_sum(self):
        report = moore_report(ConnectedSum(((2, 3), (2, 3))))
        assert report.verdict == "hyperbolic-no-exponent-all-primes"

    def test_two_cell_rank_three(self):
        report = moore_report(TwoCellComplex(2, ((0, 1, 0), (1, 0, 0), (0, 0, 2))))
        assert report.verdict == "hyperbolic-unbounded-cofinite-primes"


class TestDecompositionReports:
    def test_four_manifold_baseline(self):
        report = decomposition_report(Manifold(2, 3), 4)
        counts = {s.sphere_dim: s.multiplicity for s in report.summands}
        assert counts == {2: 3, 3: 2, 4: 5}
        assert report.classification == "hyperbolic"
        assert report.growth.surd == (3, 1, 5)
        for s in report.summands:
            assert len(s.witnesses) == s.multiplicity

    def test_elliptic_pair_total_multiplicity_two(self):
        report = decomposition_report(Manifold(4, 2), 20)
        assert sum(s.multiplicity for s in report.summands) == 2
        report2 = decomposition_report(ConnectedSum(((2, 5),)), 20)
        assert sum(s.multiplicity for s in report2.summands) == 2
        assert {s.sphere_dim for s in report2.summands} == {2, 5}

    def test_orientation_sign_invariance(self):
        def stripped(report):
            payload = report_to_json(report)
            payload.pop("space")
            return json.dumps(payload, sort_keys=True)

        for factors in (((2, 3), (2, 3)), ((3, 4), (3, 4), (3, 4))):
            r = len(factors)
            baseline = None
            for bits in range(2**r):
                signs = tuple(1 if bits & (1 << k) else -1 for k in range(r))
                report = decomposition_report(ConnectedSum(factors, signs), 6)
                text = stripped(report)
                if baseline is None:
                    baseline = text
                assert text == baseline, (factors, signs)

    def test_manifold_reports_depend_only_on_n_and_r(self):
        def stripped(report):
            payload = report_to_json(report)
            payload.pop("space")
            return json.dumps(payload, sort_keys=True)

        matrices = (
            None,
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 1, 0), (1, 0, 0), (0, 0, 1)),
            ((0, 1, 0), (1, 1, 0), (0, 0, 1)),
        )
        views = {stripped(decomposition_report(Manifold(2, 3, m), 5)) for m in matrices}
        assert len(views) == 1

    def test_two_cell_matches_manifold_counts_with_inverted_primes(self):
        cw = decomposition_report(TwoCellComplex(2, ((0, 7), (7, 0))), 4)
        manifold = decomposition_report(Manifold(2, 2), 4)
        assert {s.sphere_dim: s.multiplicity for s in cw.summands} == {
            s.sphere_dim: s.multiplicity for s in manifold.summands
        }
        assert cw.inverted_primes == (7,)

    def test_two_cell_low_rank_decomposition_unsupported(self):
        with pytest.raises(UnsupportedSpaceError):
            decomposition_report(TwoCellComplex(2, ((2, 0), (0, 0))), 4)

    def test_manifold_betti_one_routes(self):
        report = decomposition_report(Manifold(2, 1), 6)
        assert {s.sphere_dim for s in report.summands} == {5}
        with pytest.raises(ValidationError):
            decomposition_report(Manifold(4, 1), 6)


class TestBettiOneReports:
    def test_n2(self):
        report = betti_one_report(2, 0)
        assert report.inverted_primes == ()
        assert "pi_2 = Z" in report.loop_decomposition_text
        assert {s.sphere_dim for s in report.summands} == {5}

    def test_n4_integral_cases(self):
        report = betti_one_report(4, 3)
        assert report.inverted_primes == ()
        assert "integrally" in report.loop_decomposition_text

    def test_n4_exceptional_cases_flag_pi10(self):
        report = betti_one_report(4, 4)
        assert report.inverted_primes == (3,)
        assert "pi_10" in report.loop_decomposition_text
        assert "= 0" in report.loop_decomposition_text

    def test_n8_inverts_two_and_three(self):
        report = betti_one_report(8, 0)
        assert report.inverted_primes == (2, 3)
        assert "S^23" in report.loop_decomposition_text


class TestJson:
    def test_schema_field_order(self):
        report = decomposition_report(Manifold(2, 2), 4)
        payload = report_to_json(report)
        assert list(payload) == [
            "space",
            "max_dimension",
            "inverted_primes",
            "summands",
            "classification",
            "growth_rate",
            "loop_decomposition",
            "moore",
        ]
        assert payload["growth_rate"] is None

    def test_roundtrip_bytes(self):
        report = decomposition_report(Manifold(2, 3), 5)
        text = json.dumps(report_to_json(report), ensure_ascii=False, indent=2)
        assert json.dumps(json.loads(text), ensure_ascii=False, indent=2) == text

    def test_space_labels(self):
        assert Manifold(2, 3).label == "M(2,3)"
        assert ConnectedSum(((2, 3), (2, 3))).label == "(S2xS3)#(S2xS3)"
        assert BettiOne(2).label == "CP2"
