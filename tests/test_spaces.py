import io
import json
import random
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptop._linalg import factorize
from looptop.cli import run
from looptop.errors import UnsupportedSpaceError, ValidationError
from looptop.series import PowerSeries, pbw_match_graded
from looptop.spaces import (
    BettiOne,
    ConnectedSum,
    Manifold,
    TwoCellComplex,
    bad_primes,
    betti_one_report,
    classify_rational,
    decomposition_report,
    default_manifold_form,
    group_description,
    moore_report,
    normalized_relation,
    pi10_v8,
)
from oracles import (
    betti_one_denominator,
    connected_sum_denominator,
    dense,
    finite_pi1_betti,
    manifold_denominator,
    rank_rational,
    smoothable,
)


def _rank_mod(rows, p):
    """Rank over F_p by row reduction."""
    work = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inverse = pow(work[rank][col], -1, p)
        for i in range(rank + 1, len(work)):
            f = work[i][col] * inverse % p
            work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def scaled_square_forms(draw):
    """A 2-4-square integer matrix, scaled so that small primes divide it often."""
    n = draw(st.integers(min_value=2, max_value=4))
    scale = draw(st.sampled_from((1, 1, 2, 3, 7, 9, 49)))
    entries = st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n)
    return [[scale * x for x in row] for row in draw(st.lists(entries, min_size=n, max_size=n))]


_PRIMES_BELOW_50 = tuple(p for p in range(2, 50) if all(p % d for d in range(2, p)))


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

    @pytest.mark.parametrize("entry", [1.0, Fraction(1), "1"], ids=["float", "Fraction", "str"])
    def test_typed_forms_take_only_int_entries(self, entry):
        # an entry is checked as an int, never parsed: even one that reads as 1
        with pytest.raises(ValidationError, match="^intersection form entries must be integers$"):
            Manifold(2, 2, ((entry, 0), (0, 1)))
        with pytest.raises(ValidationError, match="^cup-product form entries must be integers$"):
            TwoCellComplex(2, ((0, 1), (1, entry)))

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: ConnectedSum(((2, 3.5), (2, 3))), "sphere dimension"),
            (lambda: ConnectedSum((("2", 3),)), "sphere dimension"),
            (lambda: ConnectedSum(((2, 3), (2, 3)), (1.0, -1.9)), "sign"),
            (lambda: BettiOne(4, "5"), "m"),
            (lambda: BettiOne(4.0, 5), "n"),
            (lambda: Manifold(2.0, 3), "n"),
            (lambda: Manifold(2, 3.0), "Betti number"),
            (lambda: TwoCellComplex(2.0, ((0, 1), (1, 0))), "n"),
        ],
        ids=["csum-float-dim", "csum-str-dim", "csum-float-signs", "betti-one-str-m",
             "betti-one-float-n", "manifold-float-n", "manifold-float-r", "cw-float-n"],
    )
    def test_integer_fields_are_checked_not_parsed(self, build, what):
        # a float or str that reads as an integer is refused, never rounded or parsed
        with pytest.raises(ValidationError, match=f"^{what} must be an integer, got "):
            build()

    def test_checked_integer_fields_are_stored_as_ints(self):
        class Two:
            def __index__(self):
                return 2

        assert Manifold(Two(), 3) == Manifold(2, 3)
        assert type(Manifold(Two(), 3).n) is int
        assert BettiOne(Two(), 5) == BettiOne(2)
        assert ConnectedSum(((Two(), 3),)).factors == ((2, 3),)

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


class TestForms:
    """A form travels as its nonzero entries from the space to the normal order."""

    @pytest.mark.parametrize(
        "n, r",
        [
            (n, r)
            for n in range(2, 6)
            for r in range(1, 9)
            if (r > 1 or n in (2, 4)) and not (n % 2 and r % 2)
        ],
    )
    def test_the_default_form_agrees_with_its_typed_matrix(self, n, r):
        typed = Manifold(n, r, dense(default_manifold_form(n, r), r))
        assert Manifold(n, r).coalgebra() == typed.coalgebra()
        if r >= 2:
            assert normalized_relation(Manifold(n, r)) == normalized_relation(typed)

    def test_a_large_betti_number_builds_no_square_form(self):
        # an r x r list at r = 3000 alone holds about 70 MiB; the entries of
        # the default form take O(r)
        tracemalloc.start()
        try:
            normalized_relation(Manifold(2, 3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak


class TestBadPrimes:
    def test_spec_examples(self):
        assert bad_primes([[0, 7], [7, 0]]) == {7}
        assert bad_primes([[0, 1], [1, 0]]) == set()
        assert bad_primes([[0, 6, 0], [6, 0, 0], [0, 0, 0]]) == {2, 3}

    def test_rank_below_two_rejected(self):
        with pytest.raises(UnsupportedSpaceError):
            bad_primes([[2, 0], [0, 0]])

    @given(scaled_square_forms())
    @settings(max_examples=300, deadline=None)
    def test_a_prime_is_bad_exactly_when_the_rank_mod_p_is_below_two(self, form):
        # the 2x2-minor gcd stops at 1, which is sound only if it is d1 d2:
        # divisible by p exactly when the rank over F_p is below 2
        if rank_rational(form) < 2:
            with pytest.raises(UnsupportedSpaceError):
                bad_primes(form)
            return
        bad = bad_primes(form)
        assert {p for p in _PRIMES_BELOW_50 if _rank_mod(form, p) < 2} == {p for p in bad if p < 50}

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


def _series_mismatches(space, closed, order):
    """The comparisons a family's series fails through t^order: its
    denominator against the closed form `closed(order)`, and its bigraded
    series summed over word length against that denominator's inverse."""
    denominator = space.denominator(order)
    summed = [0] * (order + 1)
    for (_, d), c in space.bigraded_series(order).items():
        summed[d] += c
    failed = []
    if denominator != closed(order):
        failed.append("denominator")
    if PowerSeries(tuple(summed)) != denominator.inverse():
        failed.append("bigraded series")
    return failed


def _manifold_closed(n, r):
    return partial(betti_one_denominator, n) if r == 1 else partial(manifold_denominator, n, r)


SERIES_ORDER = 24  # past the top term t^22 of the largest Betti-one model

SERIES_CASES = (
    [
        (f"manifold:{n}:{r}", Manifold(n, r), _manifold_closed(n, r))
        for n in (2, 3, 4, 5)
        for r in (1, 2, 3, 4)
        if (r > 1 or n in (2, 4)) and not (n % 2 and r % 2)
    ]
    + [
        (
            "csum:" + ",".join(f"{p}x{q}" for p, q in factors)
            + ":signs=" + ",".join("+" if s > 0 else "-" for s in signs),
            ConnectedSum(factors, signs),
            partial(connected_sum_denominator, factors),
        )
        for factors, signs in (
            (((3, 3),), (1,)),
            (((2, 3), (3, 2)), (1, -1)),
            (((2, 4), (3, 3)), (1, 1)),
            (((2, 5), (3, 4), (4, 3)), (1, -1, 1)),
            (((4, 4), (2, 6)), (-1, 1)),
        )
    ]
    + [
        (
            f"cw:{n}:" + ";".join(",".join(map(str, row)) for row in form),
            TwoCellComplex(n, form),
            _manifold_closed(n, len(form)),
        )
        for n, form in (
            (2, ((0, 1), (1, 0))),
            (2, ((0, 3), (3, 0))),
            (2, ((2, 1), (1, 5))),
            (3, ((0, 1), (-1, 0))),
            (3, ((0, 2), (-2, 0))),
            (2, ((0, 1, 0), (1, 0, 0), (0, 0, 2))),
            (4, ((1, 0, 0), (0, 1, 0), (0, 0, -1))),
        )
    ]
    + [
        (f"betti1:{n}:{m}", BettiOne(n, m), partial(betti_one_denominator, n))
        for n, m in ((2, 0), (4, 5), (8, 3))
    ]
)


class TestSeriesFraction:
    @pytest.mark.parametrize(
        "space, closed", [case[1:] for case in SERIES_CASES], ids=[case[0] for case in SERIES_CASES]
    )
    def test_matches_the_closed_form(self, space, closed):
        assert _series_mismatches(space, closed, SERIES_ORDER) == []

    def test_a_fraction_without_the_top_term_fails(self):
        class NoTopTerm(Manifold):
            def series_fraction(self):
                numerator, denominator = super().series_fraction()
                return numerator, {key: c for key, c in denominator.items() if key[0] != 2}

        closed = _manifold_closed(2, 3)
        assert _series_mismatches(NoTopTerm(2, 3), closed, SERIES_ORDER) == ["denominator"]

    def test_a_bigraded_series_off_the_denominator_fails(self):
        class DropsWordLengthTwo(Manifold):
            def bigraded_series(self, order):
                return {key: c for key, c in super().bigraded_series(order).items() if key[0] != 2}

        closed = _manifold_closed(2, 3)
        assert _series_mismatches(DropsWordLengthTwo(2, 3), closed, SERIES_ORDER) == ["bigraded series"]

    def test_zero_form_reads_the_free_series(self):
        # the top cell of a zero form is primitive, so both statements give the
        # free series on two letters of degree 1 and one of degree 3; every
        # command refuses this form before it reads the series
        free = partial(PowerSeries.of, [1, -2, 0, -1])
        assert _series_mismatches(TwoCellComplex(2, ((0, 0), (0, 0))), free, 10) == []


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

    def test_rank_two_answer_is_the_graded_pbw_scan(self):
        # the scan over the upper half of a window that classify once ran
        for n in range(2, 7):
            if n % 2:
                forms = [((0, q), (-q, 0)) for q in range(-3, 4)]
            else:
                forms = [((p, q), (q, s)) for p, q, s in product(range(-3, 4), repeat=3)]
            for form in forms:
                if form[0][0] * form[1][1] == form[0][1] * form[1][0]:
                    continue
                space = TwoCellComplex(n, form)
                window = max(12, 6 * (n - 1))
                table = pbw_match_graded(space.denominator(window).inverse(), window)
                upper = any(table[d] for d in range(window // 2 + 1, window + 1))
                assert space.classify() == ("hyperbolic" if upper else "elliptic"), (n, form)

    def test_betti_one(self):
        assert classify_rational(BettiOne(8, 3)) == "elliptic"


class TestMooreReports:
    def test_elliptic_manifold(self):
        report = moore_report(Manifold(2, 2))
        assert report["verdict"] == "elliptic-with-finite-exponents"

    def test_hyperbolic_connected_sum(self):
        report = moore_report(ConnectedSum(((2, 3), (2, 3))))
        assert report["verdict"] == "hyperbolic-no-exponent-all-primes"

    def test_two_cell_rank_three(self):
        report = moore_report(TwoCellComplex(2, ((0, 1, 0), (1, 0, 0), (0, 0, 2))))
        assert report["verdict"] == "hyperbolic-unbounded-cofinite-primes"

    @pytest.mark.parametrize("space, text", [
        (ConnectedSum(((2, 3), (2, 3))), "csum:2x3,2x3"),
        (TwoCellComplex(2, ((0, 1, 0), (1, 0, 0), (0, 0, 2))), "cw:2:0,1,0;1,0,0;0,0,2"),
        (BettiOne(4, 4), "betti1:4:4"),
    ])
    def test_a_changed_verdict_leaves_the_next_report_alone(self, space, text):
        def moore_json():
            out = io.StringIO()
            assert run(["moore", "--space", text, "--format", "json"], out=out) == 0
            return out.getvalue()

        before = decomposition_report(space, 4), moore_json()
        changed = decomposition_report(space, 4)
        changed["moore"]["verdict"] = "changed"
        changed["moore"].pop("justification")
        moore_report(space)["verdict"] = "changed"
        assert (decomposition_report(space, 4), moore_json()) == before


class TestDecompositionReports:
    def test_four_manifold_baseline(self):
        report = decomposition_report(Manifold(2, 3), 4)
        counts = {s["sphere_dim"]: s["multiplicity"] for s in report["summands"]}
        assert counts == {2: 3, 3: 2, 4: 5}
        assert report["classification"] == "hyperbolic"
        assert report["growth_rate"]["surd"] == [3, 1, 5]
        for s in report["summands"]:
            assert len(s["witnesses"]) == s["multiplicity"]

    def test_elliptic_pair_total_multiplicity_two(self):
        report = decomposition_report(Manifold(4, 2), 20)
        assert sum(s["multiplicity"] for s in report["summands"]) == 2
        report2 = decomposition_report(ConnectedSum(((2, 5),)), 20)
        assert sum(s["multiplicity"] for s in report2["summands"]) == 2
        assert {s["sphere_dim"] for s in report2["summands"]} == {2, 5}

    def test_orientation_sign_invariance(self):
        def stripped(report):
            report.pop("space")
            return json.dumps(report, sort_keys=True)

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
            report.pop("space")
            return json.dumps(report, sort_keys=True)

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
        assert {s["sphere_dim"]: s["multiplicity"] for s in cw["summands"]} == {
            s["sphere_dim"]: s["multiplicity"] for s in manifold["summands"]
        }
        assert cw["inverted_primes"] == [7]

    def test_two_cell_low_rank_decomposition_unsupported(self):
        with pytest.raises(UnsupportedSpaceError):
            decomposition_report(TwoCellComplex(2, ((2, 0), (0, 0))), 4)

    def test_manifold_betti_one_routes(self):
        report = decomposition_report(Manifold(2, 1), 6)
        assert {s["sphere_dim"] for s in report["summands"]} == {5}
        with pytest.raises(ValidationError):
            decomposition_report(Manifold(4, 1), 6)


class TestBettiOneReports:
    def test_n2(self):
        report = betti_one_report(2, 0)
        assert report["inverted_primes"] == []
        assert "pi_2 = Z" in report["loop_decomposition"]
        assert {s["sphere_dim"] for s in report["summands"]} == {5}

    def test_n4_integral_cases(self):
        report = betti_one_report(4, 3)
        assert report["inverted_primes"] == []
        assert "integrally" in report["loop_decomposition"]

    def test_n4_exceptional_cases_flag_pi10(self):
        report = betti_one_report(4, 4)
        assert report["inverted_primes"] == [3]
        assert "pi_10" in report["loop_decomposition"]
        assert "= 0" in report["loop_decomposition"]

    def test_n8_inverts_two_and_three(self):
        report = betti_one_report(8, 0)
        assert report["inverted_primes"] == [2, 3]
        assert "S^23" in report["loop_decomposition"]


class TestJson:
    def test_schema_field_order(self):
        payload = decomposition_report(Manifold(2, 2), 4)
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
        text = json.dumps(report, ensure_ascii=False, indent=2)
        assert json.dumps(json.loads(text), ensure_ascii=False, indent=2) == text

    def test_space_labels(self):
        assert Manifold(2, 3).label == "M(2,3)"
        assert ConnectedSum(((2, 3), (2, 3))).label == "(S2xS3)#(S2xS3)"
        assert BettiOne(2).label == "CP2"
