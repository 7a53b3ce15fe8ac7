"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each criterion prints a single PASS line on success (run pytest with -s to
see them); a failure surfaces as an ordinary assertion error.
"""

import json
import random
from fractions import Fraction

from looptop.algebra import Alphabet, normalize_relation, relation_from_space
from looptop.cobar import build_cobar, homology, verify_loop_homology
from looptop.lyndon import standard_lyndon_counts
from looptop.rewriting import irreducible_counts
from looptop.series import (
    closed_form_lie_rank,
    growth_rate,
    lie_ranks_from_denominator,
    pbw_match_graded,
    pbw_match_ungraded,
)
from looptop.spaces import (
    BettiOne,
    ConnectedSum,
    Manifold,
    TwoCellComplex,
    bad_primes,
    classify_rational,
    decomposition_report,
    pi10_v8,
)

from oracles import (
    as_list,
    closed_form_rational_rank,
    connected_sum_denominator,
    manifold_denominator,
    smoothable,
)

N_RANGE = (2, 3, 4, 5)
R_RANGE = (2, 3, 4, 5, 6)


def _passed(number, title):
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_three_pipeline_agreement():
    for n in N_RANGE:
        for r in R_RANGE:
            den = manifold_denominator(n, r, 12)
            inversion = lie_ranks_from_denominator(den, 12)
            matched = pbw_match_ungraded(den.inverse(), 12)
            alphabet = Alphabet.uniform(r, n - 1)
            lyndon = standard_lyndon_counts(alphabet, (0, 1), 12)
            for d in range(1, 13):
                closed = closed_form_lie_rank(n, r, d)
                assert closed == inversion[d] == matched[d] == lyndon.get(d, 0), (n, r, d)
    _passed(1, "three-pipeline agreement, n in 2..5, r in 2..6, d <= 12")


def test_criterion_2_derived_baselines():
    assert Manifold(2, 3).sphere_counts(4) == {2: 3, 3: 2, 4: 5}
    assert Manifold(2, 2).sphere_counts(12) == {2: 2}
    assert ConnectedSum(((2, 3), (2, 3))).sphere_counts(4) == {2: 2, 3: 3, 4: 5}
    csum_H = connected_sum_denominator([(2, 3), (2, 3)], 3).inverse()
    assert as_list(pbw_match_ungraded(csum_H, 3)) == [2, 3, 5]
    _passed(2, "derived numeric baselines")


def test_criterion_3_hilbert_bridge():
    for n in N_RANGE:
        for r in R_RANGE:
            alphabet = Alphabet.uniform(r, n - 1)
            counts = irreducible_counts(alphabet, (0, 1), 12)
            closed = manifold_denominator(n, r, 12).inverse()
            for d in range(1, 13):
                assert counts.get(d, 0) == closed[d], (n, r, d)
    for factors in (((2, 3), (2, 3)), ((3, 4), (3, 4)), ((2, 5), (2, 5), (2, 5))):
        ab, rel = relation_from_space(ConnectedSum(factors))
        nr = normalize_relation(ab, rel)
        counts = irreducible_counts(nr.alphabet, nr.forbidden_pair, 12)
        closed = connected_sum_denominator(list(factors), 12).inverse()
        for d in range(1, 13):
            assert counts.get(d, 0) == closed[d], (factors, d)
    ab, rel = relation_from_space(TwoCellComplex(2, ((0, 7), (7, 0))))
    nr = normalize_relation(ab, rel)
    counts = irreducible_counts(nr.alphabet, nr.forbidden_pair, 12)
    closed = manifold_denominator(2, 2, 12).inverse()
    for d in range(1, 13):
        assert counts.get(d, 0) == closed[d]
    _passed(3, "Hilbert bridge: enumeration equals closed-form series, d <= 12")


def test_criterion_4_cobar_oracle():
    # d*d = 0 is asserted inside every build; these builds cover the model
    # menagerie up to degree 12 (or the largest window the cell cap allows)
    menagerie = (
        (Manifold(2, 2), 12),
        (Manifold(2, 3), 9),
        (Manifold(3, 2), 12),
        (Manifold(3, 4), 8),
        (Manifold(4, 3), 12),
        (Manifold(5, 2), 12),
        (ConnectedSum(((2, 3), (2, 3))), 9),
        (ConnectedSum(((3, 4), (3, 4)), (1, -1)), 10),
        (ConnectedSum(((2, 5), (2, 5), (2, 5))), 8),
        (TwoCellComplex(2, ((0, 7), (7, 0))), 8),
        (TwoCellComplex(3, ((0, 5), (-5, 0))), 12),
        (BettiOne(2, 0), 12),
        (BettiOne(4, 7), 12),
        (BettiOne(8, 0), 16),
    )
    for space, cutoff in menagerie:
        build_cobar(space.coalgebra(), cutoff, max_cells=600_000)

    # ranks match the Hilbert coefficients through degree 10, torsion-free
    for space in (Manifold(2, 2), Manifold(2, 3), ConnectedSum(((2, 3), (2, 3)))):
        report = verify_loop_homology(space, 10, max_cells=600_000)
        assert report["ok"] and report["bigraded_ok"], report
        for row in report["rows"]:
            assert row["rank"] == row["expected_rank"], (space, row)
            assert row["torsion"] == [], (space, row)

    # further unimodular inputs stay torsion-free
    for space, cutoff in ((Manifold(3, 2), 12), (ConnectedSum(((3, 4), (3, 4))), 10)):
        report = verify_loop_homology(space, cutoff, max_cells=600_000)
        assert report["ok"], report
        assert all(row["torsion"] == [] for row in report["rows"])

    # scaled-form torsion regression at degree 2
    p = 7
    cx = build_cobar(TwoCellComplex(2, ((0, p), (p, 0))).coalgebra(), 4)
    assert homology(cx, 2) == (3, [p])
    cx = build_cobar(TwoCellComplex(2, ((0, p * p), (p * p, 0))).coalgebra(), 4)
    assert homology(cx, 2) == (3, [p * p])
    # second counterexample family: coefficient matrix diag(p^2, 1) vs p-hyperbolic
    cx = build_cobar(TwoCellComplex(2, ((p * p, 0), (0, 1))).coalgebra(), 4)
    assert homology(cx, 2) == (3, [])
    _passed(4, "cobar oracle: d^2 = 0, rank match to degree 10, torsion control")


def test_criterion_5_betti_one():
    cx = build_cobar(BettiOne(4, 0).coalgebra(), 14)
    for d in range(14):
        rank, torsion = homology(cx, d)
        assert torsion == []
        assert rank == (1 if d in (0, 3, 10, 13) else 0), d
    for m in range(12):
        assert (pi10_v8(m) == ()) == (m % 3 == 1), m
    assert {m for m in range(12) if smoothable(4, m)} == {0, 3, 4, 7, 8, 11}
    _passed(5, "Betti-1: loop homology window, pi_10 table, smoothability")


def test_criterion_6_rational_ranks():
    for n in (2, 3, 4):
        for r in (2, 3, 4, 5):
            matched = pbw_match_graded(manifold_denominator(n, r, 10).inverse(), 10)
            for d in range(1, 11):
                assert closed_form_rational_rank(n, r, d) == matched[d], (n, r, d)
    assert closed_form_rational_rank(2, 3, 1) == 3
    assert closed_form_rational_rank(2, 3, 2) == 5
    _passed(6, "rational ranks: closed form equals graded PBW matching, d <= 10")


def _report_view_without_space(report):
    report.pop("space")
    return json.dumps(report, sort_keys=True)


def test_criterion_7_invariance_suites():
    # orientation-sign independence over every sign vector, r <= 3
    for factors in (((2, 3), (2, 3)), ((3, 4), (3, 4)), ((2, 3), (2, 3), (2, 3))):
        r = len(factors)
        views = set()
        for bits in range(2**r):
            signs = tuple(1 if bits & (1 << k) else -1 for k in range(r))
            views.add(_report_view_without_space(decomposition_report(ConnectedSum(factors, signs), 6)))
        assert len(views) == 1, factors

    # manifold reports depend only on (n, r)
    even_matrices = {
        2: (None, ((1, 0), (0, 1)), ((1, 1), (1, 0)), ((0, 1), (1, 1))),
        3: (
            None,
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 1, 0), (1, 0, 0), (0, 0, 1)),
            ((0, 1, 0), (1, 1, 0), (0, 0, 1)),
        ),
    }
    for r, matrices in even_matrices.items():
        views = {
            _report_view_without_space(decomposition_report(Manifold(2, r, m), 5))
            for m in matrices
        }
        assert len(views) == 1, r
    J = ((0, 1), (-1, 0))
    minus_J = ((0, -1), (1, 0))
    views = {
        _report_view_without_space(decomposition_report(Manifold(3, 2, m), 8))
        for m in (J, minus_J)  # the only skew unimodular 2x2 forms
    }
    assert len(views) == 1
    J4 = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    # conjugates of J + J by unimodular matrices, still skew unimodular
    U1 = ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    U2 = ((1, 0, 0, 0), (2, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1))

    def congruence(U, g):
        n = len(g)
        return tuple(
            tuple(
                sum(U[i][a] * g[a][b] * U[j][b] for a in range(n) for b in range(n))
                for j in range(n)
            )
            for i in range(n)
        )

    skew_four = (J4, congruence(U1, J4), congruence(U2, J4))
    views = {
        _report_view_without_space(decomposition_report(Manifold(3, 4, m), 7))
        for m in skew_four
    }
    assert len(views) == 1

    # bad-prime invariance under 20 random unimodular transforms
    rng = random.Random(0xBADBEEF)
    q = [[0, 6, 0], [6, 0, 0], [0, 0, 9]]
    base = bad_primes(q)

    def unimodular():
        m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                c = rng.choice((-2, -1, 1, 2))
                for k in range(3):
                    m[i][k] += c * m[j][k]
        return m

    for _ in range(20):
        U, V = unimodular(), unimodular()
        transformed = [
            [
                sum(U[i][a] * q[a][b] * V[j][b] for a in range(3) for b in range(3))
                for j in range(3)
            ]
            for i in range(3)
        ]
        assert bad_primes(transformed) == base
    _passed(7, "invariance: signs, (n,r)-dependence, bad primes")


def test_criterion_8_classification_and_growth():
    for n in (2, 3, 4, 5):
        for r in (1, 2, 3, 4, 5, 6):
            if r == 1 and n not in (2, 4, 8):
                continue
            if n % 2 == 1 and r % 2 == 1:
                continue
            expected = "elliptic" if r <= 2 else "hyperbolic"
            assert classify_rational(Manifold(n, r)) == expected, (n, r)
    assert classify_rational(ConnectedSum(((2, 4),))) == "elliptic"
    for factors in (((2, 3), (2, 3)), ((2, 4), (3, 3)), ((2, 5), (2, 5), (2, 5))):
        assert classify_rational(ConnectedSum(factors)) == "hyperbolic"
    g = growth_rate(3)
    assert Fraction(26170, 10000) <= g.low <= g.high <= Fraction(26190, 10000)
    _passed(8, "classification dichotomy and growth-rate enclosure")
