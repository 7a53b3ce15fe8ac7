import inspect
import io
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from array import array
from fractions import Fraction
from itertools import compress, count
from operator import ne
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import looptop._linalg as _linalg
from looptop._linalg import (
    det_int,
    factorize,
    minor_gcd,
    smith_invariants,
    smith_normal_form,
    unit_pivots,
)
import looptop.cobar as cobar
from looptop.cli import parse_space, run
from looptop.cobar import (
    FiniteCoalgebra,
    PackedColumns,
    _euler_audit,
    _live,
    _owned,
    _shifted,
    _sparse_rank_and_torsion,
    _transpose,
    build_cobar,
    homology,
    verify_loop_homology,
)
from looptop.errors import IntegrityError, ValidationError, WindowError
from looptop.spaces import BettiOne, ConnectedSum, Manifold, TwoCellComplex

from oracles import (
    live_by_steps,
    mat_mul,
    per_column_stores,
    reference_cobar,
    smith_form_with_transforms,
    unit_pivot_rows,
)


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

    def test_left_letter_must_precede_its_generator(self):
        # the build stores a column's smallest diagonal term first, as its smallest row
        FiniteCoalgebra((("a", 2), ("b", 2), ("c", 4)), {2: ((0, 1, 1), (1, 0, 1))})
        with pytest.raises(ValidationError, match="left letter 1, not listed before it"):
            FiniteCoalgebra((("c", 4), ("a", 2), ("b", 2)), {0: ((1, 2, 1), (2, 1, 1))})

    @pytest.mark.parametrize("coeff", [2.0, Fraction(2), "2"], ids=["float", "Fraction", "str"])
    def test_diagonal_coefficients_are_checked_not_parsed(self, coeff):
        # the content step takes the gcd of the coefficients, which needs ints
        with pytest.raises(ValidationError, match="^diagonal coefficient of c must be an integer, got "):
            FiniteCoalgebra((("a", 2), ("b", 2), ("c", 4)), {2: ((0, 1, coeff), (1, 0, 2))})

    @pytest.mark.parametrize(
        "text",
        ["manifold:2:3", "manifold:4:3", "csum:2x3,2x3:signs=+,-", "csum:3x4,3x4,2x5",
         "cw:2:2,1;1,5", "cw:3:0,5;-5,0", "betti1:4:7", "cubic", "wedge"],
    )
    def test_stock_coalgebras_list_left_letters_first(self, text):
        coalgebra = _coalgebra(text)
        assert all(left < g for g, terms in coalgebra.reduced_diagonal.items() for left, _, _ in terms)


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


def packed(columns, nrows=None, narrow=None):
    """`columns` ({row: value} dicts) in the build's packed layout, with
    `nrows` rows or else one past the last row that holds an entry, and
    int8 values when `narrow` (by default, when every value fits a byte).
    Each column's smallest row comes first and its other entries follow in
    dict order."""
    if nrows is None:
        nrows = max((max(col) + 1 for col in columns if col), default=0)
    if narrow is None:
        narrow = PackedColumns.fits_a_byte(v for col in columns for v in col.values())
    out = PackedColumns(nrows, narrow)
    for col in columns:
        lead = min(col, default=None)
        order = sorted(col, key=lead.__ne__)  # stable: the smallest row, then dict order
        out.rows.extend(order)
        out.vals.extend(col[row] for row in order)
        out.ptr.append(len(out.rows))
    return out


def copied(cols):
    """A copy of a store's arrays, each of its own kind."""
    return cols.ptr[:], cols.rows[:], cols.vals[:]


def mask(indices, n):
    """The byte mask over n columns that is 1 at `indices`."""
    out = bytearray(n)
    for i in indices:
        out[i] = 1
    return out


def pivot_rows(owner):
    """The rows that hold a unit pivot, from the rank's pivot owners."""
    return {row for row, col in enumerate(owner) if col != -1}


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
def columns_with_planted_units(draw):
    """Up to 8 sparse columns over at most 7 rows, each led by an entry
    that is not a unit and holding +-1 entries planted below its leading
    row, so that the units are left for the step after the main loop."""
    n = draw(st.integers(2, 7))
    lead = st.sampled_from([2, -2, 3, -3, 4, 6, -9])
    entry = st.sampled_from([1, -1, 1, -1, 2, -3, 5])
    cols = []
    for _ in range(draw(st.integers(1, 8))):
        top = draw(st.integers(0, n - 1))
        below = sorted(r for r in draw(st.sets(st.integers(0, n - 1), max_size=3)) if r > top)
        cols.append({top: draw(lead), **{r: draw(entry) for r in below}})
    return n, cols


@st.composite
def columns_with_bystanders(draw):
    """Columns with planted units over rows 0..n-1, and among them, at drawn
    places, up to 3 bystanders: columns with no unit, each on rows of its
    own past n-1, which the unit step must leave as they are.  Returns the
    row count, the columns and the bystanders' indices."""
    n, cols = draw(columns_with_planted_units())
    entry = st.sampled_from([2, -2, 3, 6, -9])
    for k in range(draw(st.integers(0, 3))):
        rows = draw(st.sets(st.sampled_from([n + 2 * k, n + 2 * k + 1]), min_size=1))
        cols.insert(draw(st.integers(0, len(cols))), {r: draw(entry) for r in sorted(rows)})
    return n + 6, cols, [i for i, col in enumerate(cols) if min(col) >= n]


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

    @given(columns_with_bystanders())
    @settings(max_examples=200, deadline=None)
    def test_unit_pivots_leave_the_smith_form_and_the_order(self, drawn):
        n, columns, bystanders = drawn
        before = [dict(col) for col in columns]
        count, residual = unit_pivots(columns)
        assert columns == before

        def invariants(cols):
            return smith_form_with_transforms([[col.get(i, 0) for col in cols] for i in range(n)])[0]

        assert [1] * count + invariants(residual) == invariants(columns)
        assert all(v not in (1, -1) for col in residual for v in col.values())
        # a bystander shares no row with a pivot, so it comes out as it went
        # in, and the columns before it in the residual come from before it
        at = [residual.index(columns[i]) for i in bystanders]
        assert at == sorted(at)
        assert all(a <= i for a, i in zip(at, bystanders))

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


def _unreduced_update(eliminate):
    # the shared pivot loop without the reduction mod m of its column update:
    # an entry that is 0 mod m stays, and counts as a pivot of valuation k
    source = textwrap.dedent(inspect.getsource(eliminate))
    assert "nv %= m" in source
    scope = dict(vars(_linalg))
    exec(source.replace("nv %= m", "pass"), scope)
    return scope["_eliminate"]


# content 1 and determinant 9: the residual still reaches `_diagonalize`
# with a 9 on its diagonal after the unit pivots are taken
_TORSION_COBAR = ["verify", "cobar", "--space", "cw:2:2,1;1,5", "--max-degree", "4"]
_PI10_V8 = ["betti-one", "--n", "4", "--m", "1"]  # diagonal [1, 1]: no Z/9 to misread
_Z3_AND_Z9 = [{0: 9}, {1: 3}]


@pytest.mark.parametrize(
    "target, fault, columns, argvs",
    [
        pytest.param(
            "_diagonalize", _z9_read_as_z3, _Z3_AND_Z9, [_TORSION_COBAR], id="_z9_read_as_z3"
        ),
        pytest.param(
            "_diagonalize",
            _largest_invariant_dropped,
            _Z3_AND_Z9,
            [_TORSION_COBAR, _PI10_V8],
            id="_largest_invariant_dropped",
        ),
        pytest.param(
            "_eliminate",
            _unreduced_update,
            [{0: -3, 1: 3}, {0: 3, 1: -3}],
            [_TORSION_COBAR],
            id="_unreduced_update",
        ),
    ],
)
def test_smith_certificate_can_fail(monkeypatch, target, fault, columns, argvs):
    monkeypatch.setattr(_linalg, target, fault(getattr(_linalg, target)))
    with pytest.raises(IntegrityError, match="certificate"):
        smith_invariants(columns)
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out=out, err=err) == 1, argv
        assert "integrity error: Smith form certificate failed" in err.getvalue()


def test_linalg_imports_only_the_errors():
    # the one home of integer arithmetic is a leaf: no import cycle through spaces
    code = (
        "import sys, looptop._linalg; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'looptop'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(_linalg.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.stdout.strip() == "['looptop', 'looptop._linalg', 'looptop.errors']"


STORE_CASES = [
    ("manifold:2:3", 7),
    ("manifold:2:2", 9),
    *[(f"csum:2x3,2x3:signs={signs}", 8) for signs in ("+,+", "+,-", "-,+", "-,-")],
    *[(f"cw:2:0,{p};{p},0", 6) for p in (3, 5, 7)],
    *[(f"cw:2:0,{p * p};{p * p},0", 6) for p in (3, 5, 7)],
    *[(f"cw:2:2,1;1,{q}", 6) for q in (2, 3, 4)],
    ("cubic", 24),
    ("wedge", 7),
]


def _mixed_block_lengths(cx):
    """For each block of a generator with diagonal terms, the set of column
    lengths of the shorter spot it is built from."""
    out = []
    for s, d in cx.diffs:
        for g, gd in enumerate(cx.degs):
            shorter = cx.diffs.get((s - gd - 1, d - gd))
            if cx.coalgebra.diagonal(g) and shorter is not None:
                out.append({b - a for a, b in zip(shorter.ptr, shorter.ptr[1:])})
    return out


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

    def test_entry_guard_refuses_a_store_past_int32_offsets(self, monkeypatch):
        # the largest store of manifold:2:3 at D=8 holds 15,309 entries, at
        # (16, 9); a store that would reach the limit is refused before it
        # is written, as a usage error, and one entry more lets it through
        argv = ["verify", "cobar", "--space", "manifold:2:3", "--max-degree", "8"]
        cx = build_cobar(Manifold(2, 3).coalgebra(), 8)
        largest = max(len(cols.rows) for cols in cx.diffs.values())
        for limit in (largest - 1, largest):
            monkeypatch.setattr(cobar, "ENTRY_LIMIT", limit)
            out, err = io.StringIO(), io.StringIO()
            assert run(argv, out=out, err=err) == 2
            assert not out.getvalue() and "Traceback" not in err.getvalue()
            message = f"over the limit of {limit} that int32 offsets allow; lower the degree cutoff"
            assert message in err.getvalue()
        monkeypatch.setattr(cobar, "ENTRY_LIMIT", largest + 1)
        assert run(argv, out=io.StringIO(), err=io.StringIO()) == 0

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
            # the byte boundary: 127 is narrow; -128 fits a byte but its
            # negation does not, and 128 does not fit at all, so both are wide
            ("cw:2:0,127;127,0", 7),
            ("cw:2:0,-128;-128,0", 7),
            ("cw:2:128,127;127,126", 7),
            (f"cw:2:0,{2**70};{2**70},0", 7),
        ],
    )
    def test_matches_the_tuple_word_reference(self, text, cutoff):
        coalgebra = parse_space(text).coalgebra()
        cx = build_cobar(coalgebra, cutoff)
        spots, diffs = reference_cobar(coalgebra, cutoff)
        assert {key: cx.words(key) for key in cx.spots} == spots
        assert {key: list(cols) for key, cols in cx.diffs.items()} == diffs
        wide = text in ("cw:2:0,-128;-128,0", "cw:2:128,127;127,126", f"cw:2:0,{2**70};{2**70},0")
        assert {type(cols.vals) for cols in cx.diffs.values()} == {list if wide else array}
        assert {(cols.ptr.typecode, cols.rows.typecode) for cols in cx.diffs.values()} == {("i", "i")}
        cols = max(cx.diffs.values(), key=lambda cols: len(cols.rows))
        assert (_transpose(cols).ptr.typecode, _sparse_rank_and_torsion(cols)[2].typecode) == ("i", "i")

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

    @pytest.mark.parametrize("text, cutoff", STORE_CASES)
    def test_every_column_stores_its_smallest_row_first(self, text, cutoff):
        # the rank reads each column's leading row and value at ptr[j];
        # a transposed torsion spot keeps the same layout
        cx = build_cobar(_coalgebra(text), cutoff)
        stores = list(cx.diffs.values())
        stores += [_transpose(cx.diffs[key]) for key, (_, torsion) in cx.profiles.items() if torsion]
        if text.startswith("cw"):
            assert len(stores) > len(cx.diffs)
        for cols in stores:
            for a, b in zip(cols.ptr, cols.ptr[1:]):
                assert a == b or cols.rows[a] == min(cols.rows[a:b])

    @pytest.mark.parametrize("text, cutoff", STORE_CASES)
    def test_nonempty_bytes_are_the_steps_of_ptr(self, text, cutoff):
        # the build writes the bytes block by block; a transposed store
        # derives them from its offsets
        cx = build_cobar(_coalgebra(text), cutoff)
        for cols in [*cx.diffs.values(), *map(_transpose, cx.diffs.values())]:
            assert cols.nonempty == bytearray(map(ne, cols.ptr, cols.ptr[1:]))

    @pytest.mark.parametrize(
        "text, cutoff",
        [
            ("manifold:2:3", 9),
            ("csum:2x3,2x3:signs=+,-", 10),
            ("betti1:4:7", 20),  # one diagonal term: nothing after the smallest
            ("cw:2:0,-128;-128,0", 7),
            (f"cw:2:0,{2**70};{2**70},0", 7),  # values in a list
        ],
    )
    def test_stores_match_the_per_column_build(self, text, cutoff):
        # a mixed block is written by strided slices when every column of the
        # shorter spot has one length, and column by column otherwise
        cx = build_cobar(parse_space(text).coalgebra(), cutoff)
        reference = per_column_stores(cx)
        assert reference.keys() == cx.diffs.keys()
        for key, cols in cx.diffs.items():
            ref = reference[key]
            assert type(cols.vals) is type(ref.vals), key
            assert (cols.nrows, cols.ptr, cols.rows, cols.vals) == (
                ref.nrows, ref.ptr, ref.rows, ref.vals
            ), key
        uniform = {len(lengths) == 1 for lengths in _mixed_block_lengths(cx)}
        assert uniform == ({True, False} if text.startswith("csum") else {True})

    def test_packed_build_retains_little_per_cell(self):
        # one {row: value} dict per column retained about 230 B per cell, and
        # an integer code per word about 73 B per cell at D=9 with the
        # columns packed; the spots as counts kept about 31 with a list of
        # values and int64 rows, and 17.3 with int8 values, int32 rows and
        # int64 offsets; with int32 offsets they keep 13.1
        coalgebra = Manifold(2, 3).coalgebra()
        tracemalloc.start()
        try:
            cx = build_cobar(coalgebra, 8)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        cells = sum(len(words) for words in cx.spots.values())
        assert retained <= 15 * cells, retained / cells

    def test_rank_keeps_emergent_pivots_packed(self, monkeypatch):
        # one {row: value} dict per reduced column peaked at about 300 B per
        # column, and a dict of pivot rows with a returned row set at about 123;
        # one int64 pivot owner per row, with each emergent pivot copied into
        # a dict on its first use, peaked at 42.1; one int32 owner per row,
        # with emergent pivots read in place in the store, peaks at 16.1
        cx = build_cobar(Manifold(2, 3).coalgebra(), 8)
        nonzero = [key for key, cols in cx.diffs.items() if cols.rows]
        key = max(nonzero, key=lambda key: len(cx.spots[key]))
        rank, peaks = cobar._sparse_rank_and_torsion, {}

        def traced(columns, skip=None):
            tracemalloc.start()
            try:
                return rank(columns, skip)
            finally:
                peaks[id(columns)] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        monkeypatch.setattr(cobar, "_sparse_rank_and_torsion", traced)
        cx.profiles
        cols = cx.diffs[key]
        assert peaks[id(cols)] <= 24 * len(cols), peaks[id(cols)] / len(cols)

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

    def test_d_squared_zero_check_can_fail_on_a_wide_store(self, monkeypatch):
        # the same fault on x, x^2, x^3 with coefficient 200, which does not
        # fit a byte, so the store keeps its values in a list
        cubic = FiniteCoalgebra(
            (("x", 3), ("x2", 6), ("x3", 9)), {1: ((0, 0, 200),), 2: ((0, 1, 200), (1, 0, 200))}
        )
        cx = build_cobar(cubic, 9)
        assert all(isinstance(cols.vals, list) for cols in cx.diffs.values())

        def unsigned(coalgebra):
            return {gi: coalgebra.diagonal(gi) for gi in range(len(coalgebra.generators))}

        monkeypatch.setattr(cobar, "_diagonal_desuspended", unsigned)
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
            cols = cx.diffs[key]
            end = cx.block_starts(s - d - 1, d)[1]  # a_1 is generator 0
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


LANE_TOP = {"i": 2**31 - 1, "q": 2**63 - 1}
OWNER_LANES = [-1, -2, 0, 255, 256, 65535, 2**31 - 1]  # no pivot, reduced, packed columns


class TestPackedColumns:
    @given(st.sampled_from("iq"), st.data())
    @settings(max_examples=200, deadline=None)
    def test_shifted_adds_to_every_lane(self, code, data):
        top = LANE_TOP[code]
        lanes = array(code, data.draw(st.lists(st.integers(0, top), max_size=20)))
        shift = data.draw(st.integers(0, top - max(lanes, default=0)))
        out = _shifted(lanes, shift)
        assert out.typecode == code and out == array(code, map(shift.__add__, lanes))

    @pytest.mark.parametrize("code", "iq")
    def test_a_zero_shift_returns_the_lanes_themselves(self, code):
        lanes = array(code, [0, 5, LANE_TOP[code]])
        assert _shifted(lanes, 0) is lanes and _shifted(lanes, 1) is not lanes
        # and every caller copies what it reads, so no two stores share an array
        cx = build_cobar(Manifold(2, 3).coalgebra(), 6)
        stores = cx.diffs.values()
        assert len({id(a) for cols in stores for a in (cols.ptr, cols.rows)}) == 2 * len(stores)

    @pytest.mark.parametrize("code", "iq")
    def test_shifted_reaches_the_top_of_a_lane(self, code):
        top = LANE_TOP[code]
        assert _shifted(array(code), 7) == array(code)
        assert _shifted(array(code, [top - 7, 0, top - 7]), 7) == array(code, [top, 7, top])
        assert _shifted(array(code, [top, 0]), 0) == array(code, [top, 0])

    @given(st.lists(st.one_of(st.sampled_from(OWNER_LANES), st.integers(0, 2**31 - 1)), max_size=40))
    @example(OWNER_LANES)
    @example([])
    @settings(max_examples=200, deadline=None)
    def test_owned_rows_match_the_per_row_mask(self, lanes):
        owner = array("i", lanes)
        assert _owned(owner) == bytearray(map((-1).__ne__, owner))

    @given(st.lists(st.integers(0, 3), max_size=30), st.data())
    @settings(max_examples=200, deadline=None)
    def test_live_mask_matches_the_per_column_walk(self, lengths, data):
        cols = packed([{row: 1 for row in range(n)} for n in lengths], nrows=3)
        skip = data.draw(st.none() | st.lists(st.integers(0, 1), min_size=len(lengths), max_size=len(lengths)))
        skip = None if skip is None else bytearray(skip)
        assert list(compress(count(), _live(cols, skip))) == list(
            compress(count(), live_by_steps(cols, skip))
        )

    @given(small_integer_matrices(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_transpose_twice_is_the_identity(self, matrix, narrow):
        cols = packed(columns_of(matrix), len(matrix), narrow)
        once = _transpose(cols)
        assert list(once) == columns_of([list(row) for row in zip(*matrix)])
        assert once.nrows == len(matrix[0])
        twice = _transpose(once)
        assert (twice.nrows, twice.ptr, twice.rows, twice.vals) == (
            cols.nrows, cols.ptr, cols.rows, cols.vals
        )

    def test_transpose_holds_no_object_per_entry(self):
        # a sort of the entry indices with a count per row peaked at about 74 B
        # per entry here (86 on the largest transposed spot of cw:2:2,1;1,5 at
        # D=11); the counting sort makes the new store and one cursor per row
        cx = build_cobar(TwoCellComplex(2, ((2, 1), (1, 5))).coalgebra(), 9)
        cols = max(cx.diffs.values(), key=lambda cols: len(cols.rows))
        tracemalloc.start()
        try:
            _transpose(cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * len(cols.rows), peak / len(cols.rows)

    @given(small_integer_matrices(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_ranking_is_repeatable_and_leaves_the_store_alone(self, matrix, narrow):
        cols = packed(columns_of(matrix), len(matrix), narrow)
        before = copied(cols)
        first = _sparse_rank_and_torsion(cols)
        assert _sparse_rank_and_torsion(cols) == first
        assert (cols.ptr, cols.rows, cols.vals) == before
        invariants = smith_form_with_transforms(matrix)[0]
        assert first[:2] == (len(invariants), [x for x in invariants if x > 1])
        assert _sparse_rank_and_torsion(_transpose(cols))[:2] == first[:2]

    @given(columns_sharing_leads(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_emergent_pivots_match_the_unpacked_reduction(self, columns, data):
        skip = data.draw(st.sets(st.integers(0, len(columns) - 1)))
        cols = packed(columns, 8)
        before = copied(cols)
        rank, torsion, owner = _sparse_rank_and_torsion(cols, mask(skip, len(columns)))
        assert (cols.ptr, cols.rows, cols.vals) == before
        assert len(owner) == 8 and pivot_rows(owner) == unit_pivot_rows(columns, skip)
        for row, col in enumerate(owner):  # a packed pivot is its column's leading row, +-1
            if col >= 0:
                assert min(columns[col]) == row and columns[col][row] in (1, -1)
        kept = [col for i, col in enumerate(columns) if i not in skip]
        matrix = [[col.get(i, 0) for col in kept] for i in range(8)] if kept else []
        invariants = smith_form_with_transforms(matrix)[0]
        assert (rank, torsion) == (len(invariants), [x for x in invariants if x > 1])

    @given(columns_with_planted_units())
    @settings(max_examples=200, deadline=None)
    def test_unit_pivots_anywhere_match_the_dense_form(self, drawn):
        n, columns = drawn
        matrix = [[col.get(i, 0) for col in columns] for i in range(n)]
        invariants = smith_form_with_transforms(matrix)[0]
        rank, torsion, _ = _sparse_rank_and_torsion(packed(columns, n))
        assert (rank, torsion) == (len(invariants), [x for x in invariants if x > 1])

    def test_a_residual_of_units_leaves_the_certificate_nothing(self, monkeypatch):
        # both columns lead with a non-unit on row 0 and go aside; the unit on
        # row 1 of the first clears the second down to {0: 1}, a unit too
        received, certify = [], cobar.smith_invariants

        def spy(columns):
            received.extend(columns)
            return certify(columns)

        monkeypatch.setattr(cobar, "smith_invariants", spy)
        assert _sparse_rank_and_torsion(packed([{0: 2, 1: 1}, {0: 3, 1: 1}]))[:2] == (2, [])
        assert received == []

    def test_the_certificate_receives_fewer_columns(self, monkeypatch):
        # ranked without the unit step, the certificate receives 382 columns
        # here, in 12 calls, and returns 348 invariants of which 102 are 9
        calls, certify = [], cobar.smith_invariants

        def spy(columns):
            out = certify(columns)
            calls.append((len(columns), out))
            return out

        monkeypatch.setattr(cobar, "smith_invariants", spy)
        report = verify_loop_homology(TwoCellComplex(2, ((2, 1), (1, 5))), 8)
        assert report["ok"]
        assert sum(n for n, _ in calls) < 382
        assert sorted(x for _, out in calls for x in out if x > 1) == [9] * 102
        assert sorted(t for row in report["rows"] for t in row["torsion"]) == [9] * 102

    def test_emergent_pivots_are_unpacked_where_they_are_used(self):
        # column 1 (row 0) is first used in the promotion loop, column 3 (row 4)
        # in the main loop, column 5 (row 6) in the clearing of the set-aside
        # column 2, which leaves Z/3; each is read in place in the store, so
        # it still owns its row by column index after the rank, and -2 marks
        # only the rows of reduced columns (columns 0 and 4, reduced onto rows 1 and 5)
        columns = [{0: 2, 1: 1}, {2: 1, 0: 1}, {6: 1, 3: 3}, {4: 1}, {5: 1, 4: -1}, {6: 1}]
        cols = packed(columns)
        rank, torsion, owner = _sparse_rank_and_torsion(cols)
        assert (rank, torsion) == (6, [3])
        assert pivot_rows(owner) == unit_pivot_rows(columns) == {0, 1, 4, 5, 6}
        assert (owner[0], owner[4], owner[6]) == (1, 3, 5)
        assert {row for row, col in enumerate(owner) if col == -2} == {1, 5}
        rank, torsion, owner = _sparse_rank_and_torsion(cols, mask({2}, len(columns)))
        assert (rank, torsion) == (5, [])
        assert pivot_rows(owner) == unit_pivot_rows(columns, {2}) == {0, 1, 4, 5, 6}

    def test_a_pivot_that_is_not_reduced_is_refused(self):
        # A 2 that compares equal to +-1 makes column 0 a unit pivot.  Each
        # elimination against it leaves its row nonzero, and without the
        # progress guard column 1 would be eliminated on it forever: in the
        # main loop, and in the clearing of a set-aside column.
        class Liar(int):
            def __eq__(self, other):
                return other in (1, -1)

        for columns in ([{0: Liar(2)}, {0: 1}], [{1: Liar(2)}, {0: 2, 1: 1}]):
            with pytest.raises(IntegrityError, match="makes no progress"):
                _sparse_rank_and_torsion(packed(columns, narrow=False))


# x, x^2, x^3 with |x| = 3: x has no diagonal terms, x2 and x3 have them
CUBIC = FiniteCoalgebra(
    (("x", 3), ("x2", 6), ("x3", 9)), {1: ((0, 0, 1),), 2: ((0, 1, 1), (1, 0, 1))}
)
# (S^2 x S^2) v S^4: c and e share a degree, and only c has diagonal terms
WEDGE = FiniteCoalgebra((("a", 2), ("b", 2), ("c", 4), ("e", 4)), {2: ((0, 1, 1), (1, 0, 1))})
# (S^2 x S^2) v S^8: the word e has the degree of c c plus one
WEDGE8 = FiniteCoalgebra((("a", 2), ("b", 2), ("c", 4), ("e", 8)), {2: ((0, 1, 1), (1, 0, 1))})


def _coalgebra(text):
    return {"cubic": CUBIC, "wedge": WEDGE, "wedge8": WEDGE8}.get(text) or parse_space(text).coalgebra()


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
            ("csum:2x8,2x8", 13),
        ],
    )
    def test_cleared_profile_equals_the_plain_one(self, monkeypatch, text, cutoff):
        # clearing, inherited clearing and the transposed spots change the
        # work, not the answer; one pass ranks each differential that has an
        # entry once, however often the table is read, and an empty store
        # ranks to (0, []).  Slice 16 of csum:2x8,2x8 has spots at degrees 14
        # and 12 but none at 13, so nothing clears the nonzero columns of
        # (16, 12)
        cx = build_cobar(_coalgebra(text), cutoff)
        calls = []

        def counting(*args):
            calls.append(args)
            return _sparse_rank_and_torsion(*args)

        monkeypatch.setattr(cobar, "_sparse_rank_and_torsion", counting)
        for d in range(cutoff + 1):
            homology(cx, d)
        assert cx.profiles is cx.profiles and cx.profiles.keys() == cx.diffs.keys()
        assert len(calls) == sum(1 for cols in cx.diffs.values() if cols.rows)
        for key, cols in cx.diffs.items():
            assert cx.profiles[key] == _sparse_rank_and_torsion(cols)[:2], key

    @pytest.mark.parametrize("text", ["manifold:2:3", "csum:2x3,2x3", "wedge8"])
    def test_a_store_with_no_entry_is_never_ranked(self, monkeypatch, text):
        # in wedge8 the empty store of e, at (8, 7), sits above the nonzero
        # column of c c at (8, 6), which nothing may clear
        cx = build_cobar(_coalgebra(text), 8)
        empty = {key for key, cols in cx.diffs.items() if not cols.rows}
        ranked = []

        def recording(columns, skip=None):
            ranked.append(columns)
            return _sparse_rank_and_torsion(columns, skip)

        monkeypatch.setattr(cobar, "_sparse_rank_and_torsion", recording)
        cx.profiles
        assert empty and all(columns.rows for columns in ranked)
        assert not {id(cx.diffs[key]) for key in empty} & {id(columns) for columns in ranked}
        assert all(cx.profiles[key] == (0, []) for key in empty)
        for key, cols in cx.diffs.items():
            assert cx.profiles[key] == _sparse_rank_and_torsion(cols)[:2], key

    @pytest.mark.parametrize(
        "text, cutoff",
        [("manifold:2:3", 8), ("csum:2x3,2x3:signs=+,-", 8), ("cubic", 30), ("wedge", 8)],
    )
    def test_top_spots_inherit_cleared_columns(self, monkeypatch, text, cutoff):
        # the rows kept for a top spot live in a dict local to the pass, so
        # none outlive it
        cx = build_cobar(_coalgebra(text), cutoff)
        tops = _top_columns(cx)
        rank, skipped = cobar._sparse_rank_and_torsion, {}

        def recording(columns, skip=None):
            for key, cols in tops.items():
                if columns is cols:
                    skipped[key] = sum(skip or ())
            return rank(columns, skip)

        monkeypatch.setattr(cobar, "_sparse_rank_and_torsion", recording)
        cx.profiles
        assert any(skipped.values()), skipped

    @pytest.mark.parametrize(
        "text, cutoff", [("manifold:2:3", 8), ("csum:2x3,2x3", 8), ("cubic", 30), ("wedge", 8)]
    )
    def test_suffix_positions_find_each_word_followed_by_a_letter(self, text, cutoff):
        # word i of the spot one letter shorter, followed by g, is word
        # pos[i] + (g's index among the letters of its degree) of the top spot
        cx = build_cobar(_coalgebra(text), cutoff)
        memo, checked = {}, 0
        for s, t in _top_columns(cx):
            top_words = cx.words((s, t))
            for g, e in enumerate(cx.degs):
                shorter = (s - e - 1, t - e)
                if cx.coalgebra.diagonal(g) or shorter not in cx.spots:
                    continue
                pos = cobar._suffix_positions(cx, s - t, t, e, memo)
                index = [h for h, hd in enumerate(cx.degs) if hd == e].index(g)
                words = cx.words(shorter)
                assert len(pos) == len(words)
                for i, u in enumerate(words):
                    assert top_words[pos[i] + index] == u + (g,), (s, t, g, u)
                checked += len(words)
        assert checked

    @pytest.mark.parametrize(
        "text, cutoff", [("manifold:2:3", 8), ("csum:2x3,2x3", 8), ("cubic", 30), ("wedge", 8)]
    )
    def test_top_spots_clear_the_units_of_g_r_and_r_g(self, monkeypatch, text, cutoff):
        # each top spot skips exactly the words g u and u g, for g a letter
        # with no diagonal terms and u a pivot row of the source spot's rank,
        # found here by looking the words up
        cx = build_cobar(_coalgebra(text), cutoff)
        rank, owners, skips = cobar._sparse_rank_and_torsion, {}, {}
        key_of = {id(cols): key for key, cols in cx.diffs.items()}

        def recording(columns, skip=None):
            out = rank(columns, skip)
            if id(columns) in key_of:
                owners[key_of[id(columns)]], skips[key_of[id(columns)]] = out[2], skip
            return out

        monkeypatch.setattr(cobar, "_sparse_rank_and_torsion", recording)
        cx.profiles
        inherited = 0
        for s, t in _top_columns(cx):
            if (s, t) not in skips:
                continue  # ranked transposed: nothing was inherited
            index = {word: i for i, word in enumerate(cx.words((s, t)))}
            expected = set()
            for g, e in enumerate(cx.degs):
                source = (s - e - 1, t - e + 1)
                if cx.coalgebra.diagonal(g) or source not in owners:
                    continue
                words = cx.words((s - e - 1, t - e))
                for i in pivot_rows(owners[source]):
                    expected |= {index[(g,) + words[i]], index[words[i] + (g,)]}
            assert {j for j, cut in enumerate(skips[(s, t)]) if cut} == expected, (s, t)
            inherited += len(expected)
        assert inherited

    def test_inherited_clearing_can_fail(self, monkeypatch):
        # each top spot's inherited columns moved on by one column
        space = Manifold(2, 3)
        build, rank, tops = cobar.build_cobar, cobar._sparse_rank_and_torsion, []

        def recording(coalgebra, cutoff, max_cells=None):
            cx = build(coalgebra, cutoff, max_cells)
            tops.extend(_top_columns(cx).values())
            return cx

        def shifted(columns, skip=None):
            if any(columns is cols for cols in tops):
                skip = bytes(1) + skip[:-1]
            return rank(columns, skip)

        monkeypatch.setattr(cobar, "build_cobar", recording)
        monkeypatch.setattr(cobar, "_sparse_rank_and_torsion", shifted)
        cx = cobar.build_cobar(space.coalgebra(), 8)
        assert any(cx.profiles[key] != rank(cols)[:2] for key, cols in cx.diffs.items())
        assert not verify_loop_homology(space, 8)["ok"]

    @pytest.mark.parametrize("text, cutoff", STORE_CASES)
    def test_pivot_owners_match_the_old_live_walk(self, monkeypatch, text, cutoff):
        # every rank of the pass, with its store and mask, ranked again over
        # the columns the per-column walk of the oracles selects
        cx = build_cobar(_coalgebra(text), cutoff)
        rank, calls = cobar._sparse_rank_and_torsion, []

        def recording(columns, skip=None):
            out = rank(columns, skip)
            calls.append((columns, skip, out))
            return out

        monkeypatch.setattr(cobar, "_sparse_rank_and_torsion", recording)
        cx.profiles
        # at these cutoffs no rank of a two-cell complex clears a column
        assert any(skip and 1 in skip for _, skip, _ in calls) != text.startswith("cw")
        for columns, skip, _ in calls:
            assert list(compress(count(), _live(columns, skip))) == list(
                compress(count(), live_by_steps(columns, skip))
            )
        monkeypatch.setattr(cobar, "_live", live_by_steps)
        for columns, skip, out in calls:
            assert rank(columns, skip) == out

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


def _rows(report):
    return [(row["rank"], row["torsion"]) for row in report["rows"]]


def _direct_rows(space, cutoff):
    """(rank, torsion) per degree from the complex of the space's own
    coalgebra, content and all: the reference for the content path."""
    cx = build_cobar(space.coalgebra(), cutoff)
    return [homology(cx, d) for d in range(cutoff + 1)]


@st.composite
def scaled_forms(draw):
    """c g' for c in {2, 3, 4, 9, 25} and a symmetric g' of size 2 or 3,
    entries in [-3, 3], of rank 2 or more over Q: scaled, p^2-scaled and
    mixed forms, since g' may have bad primes of its own."""
    r = draw(st.integers(2, 3))
    upper = {(i, j): draw(st.integers(-3, 3)) for i in range(r) for j in range(i, r)}
    form = [[upper[min(i, j), max(i, j)] for j in range(r)] for i in range(r)]
    assume(minor_gcd(form) != 0)
    c = draw(st.sampled_from([2, 3, 4, 9, 25]))
    return TwoCellComplex(2, tuple(tuple(c * v for v in row) for row in form))


class TestVerifier:
    @given(scaled_forms())
    @example(TwoCellComplex(2, ((0, 9), (9, 0))))
    @example(TwoCellComplex(2, ((6, 0), (0, 10))))
    @settings(max_examples=40, deadline=None)
    def test_content_path_matches_the_direct_pass(self, space):
        cutoff = 5 if space.r == 2 else 4
        report = verify_loop_homology(space, cutoff)
        assert _rows(report) == _direct_rows(space, cutoff)

    @pytest.mark.parametrize("matrix", [((0, 9), (9, 0)), ((0, 4), (4, 0)), ((50, 25), (25, 75))])
    def test_a_wrong_content_is_told_from_the_direct_pass(self, monkeypatch, matrix):
        # c read as its largest prime factor: Z/9 as Z/3, Z/4 as Z/2, Z/25 as Z/5
        factored = cobar._content_factored

        def largest_prime(coalgebra):
            divided, c = factored(coalgebra)
            return divided, factorize(c)[-1]

        space = TwoCellComplex(2, matrix)
        expected = _direct_rows(space, 5)
        assert _rows(verify_loop_homology(space, 5)) == expected
        monkeypatch.setattr(cobar, "_content_factored", largest_prime)
        assert _rows(verify_loop_homology(space, 5)) != expected

    def test_manifold_verification(self):
        report = verify_loop_homology(Manifold(2, 3), 8)
        assert report["ok"] and report["bigraded_ok"]
        ranks = [row["rank"] for row in report["rows"]]
        assert ranks == [1, 3, 8, 21, 55, 144, 377, 987, 2584]

    def test_bigraded_audit_can_fail(self, monkeypatch):
        # one unit of boundary rank moved between the degree-6 spots of
        # slices 9 and 10: every per-degree rank still matches, two spots do not
        space = ConnectedSum(((2, 3), (2, 3)))
        build = cobar.build_cobar

        def shifted(coalgebra, cutoff, max_cells=None):
            cx = build(coalgebra, cutoff, max_cells)
            (a, ta), (b, tb) = cx.profiles[(9, 6)], cx.profiles[(10, 6)]
            cx.profiles[(9, 6)], cx.profiles[(10, 6)] = (a - 1, ta), (b + 1, tb)
            return cx

        assert _euler_audit(build(space.coalgebra(), 6), space.bigraded_series(6))
        assert not _euler_audit(shifted(space.coalgebra(), 6), space.bigraded_series(6))
        monkeypatch.setattr(cobar, "build_cobar", shifted)
        report = verify_loop_homology(space, 6)
        assert all(row["ok"] for row in report["rows"])
        assert not report["bigraded_ok"] and not report["ok"]

    def test_connected_sum_verification(self):
        report = verify_loop_homology(ConnectedSum(((2, 3), (2, 3))), 8)
        assert report["ok"]
        assert [row["rank"] for row in report["rows"]] == [1, 2, 6, 15, 40, 104, 273, 714, 1870]

    def test_two_cell_torsion_confined_to_bad_primes(self):
        report = verify_loop_homology(TwoCellComplex(2, ((0, 7), (7, 0))), 6)
        assert report["ok"]
        seen = [t for row in report["rows"] for t in row["torsion"]]
        assert seen and all(t % 7 == 0 for t in seen)

    def test_residual_columns_are_cleared_on_pivot_rows(self):
        # both forms have bad prime 3 only; the first used to leave residual
        # entries on unit-pivot rows and stop with an integrity error at D >= 3
        reports = [
            verify_loop_homology(TwoCellComplex(2, matrix), 5)
            for matrix in (((1, 2), (2, 1)), ((2, 1), (1, 2)))
        ]
        assert all(report["ok"] for report in reports)
        torsion = [[row["torsion"] for row in report["rows"]] for report in reports]
        assert torsion[0] == torsion[1] == [[], [], [], [3], [3] * 3, [3] * 7]

    @pytest.mark.parametrize("entry", [3, 9])
    def test_p_against_p_squared_at_degree_eight(self, entry):
        # one prime power per form: Z/3 for [[0,3],[3,0]], Z/9 for [[0,9],[9,0]]
        report = verify_loop_homology(TwoCellComplex(2, ((0, entry), (entry, 0))), 8)
        assert report["ok"] and report["torsion_primes"] == [3]
        assert [row["rank"] for row in report["rows"]] == list(range(1, 10))
        multiplicities = [0, 0, 1, 4, 11, 27, 63, 143, 320]
        assert [row["torsion"] for row in report["rows"]] == [[entry] * k for k in multiplicities]

    def test_torsion_only_at_seven_at_degree_nine(self):
        report = verify_loop_homology(TwoCellComplex(2, ((0, 7), (7, 0))), 9)
        assert report["ok"]
        seen = {t for row in report["rows"] for t in row["torsion"]}
        assert seen == {7}

    def test_betti_one_verification(self):
        report = verify_loop_homology(BettiOne(4, 5), 13)
        assert report["ok"]
        assert [row["rank"] for row in report["rows"]] == [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]
