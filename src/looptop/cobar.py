"""Integral cobar construction and Smith-normal-form homology oracle.

The chain complex is the tensor algebra on the desuspended reduced
homology of the space, with the differential extending the desuspended
reduced diagonal as a degree -1 derivation.  The differential lowers the
homological degree by one and raises the weight (word length) by one, so
the complex splits into finite slices indexed by s = degree + weight; all
linear algebra runs per slice, exactly, over the integers.  A build at
cutoff D keeps the words of degree at most D + 1 in the slices that can
reach a degree <= D, which is what homology through degree D needs.

No word is stored: a spot is a count of words, kept in lexicographic
order, so each spot is the concatenation of one block per first letter,
and the build assembles each spot's differential from the spots of one
letter shorter by block offsets, without hashing or looking up a word.
Ranks are taken in one pass over the slices in ascending s, each from its
top degree down, and the unit pivots of each differential clear columns
of the next one; a column whose leading entry is a unit on a row with no
pivot yet is its own reduced form and stays packed.  The top spot of a
slice, which no spot above clears, inherits its cleared columns from
smaller slices, already ranked: for a generator g with no diagonal terms
and a reduced boundary column R of a smaller slice, g R and R g are
cycles of the top spot, each with a unit at a known column and its other
entries after it (see `_profiles`).
"""

import os
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, count, islice, repeat
from math import gcd
from operator import ne

from ._linalg import smith_invariants, unit_pivots
from ._linalg import smith_normal_form as _dense_snf  # kept only as a benchmark span site
from .errors import IntegrityError, ValidationError, WindowError, as_int, read_int

DEFAULT_MAX_CELLS = 200_000
ROW_LIMIT = 2**31  # a row index of the store is an int32


def _max_cells_default():
    raw = os.environ.get("LOOPTOP_MAX_CELLS")
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        value = read_int(raw)
    except ValueError:
        raise ValidationError(f"LOOPTOP_MAX_CELLS must be an integer, got {raw!r}")
    if value < 1:
        raise ValidationError("LOOPTOP_MAX_CELLS must be positive")
    return value


@dataclass(frozen=True)
class FiniteCoalgebra:
    """Finitely generated coaugmented coalgebra given by its reduced diagonal.

    generators: tuple of (name, degree); reduced_diagonal maps a generator
    index to a tuple of (left index, right index, integer coefficient).
    Each left letter is listed before its generator, degrees must add up
    and the reduced diagonal must be coassociative; all are checked at
    construction, the last by direct expansion.  The build relies on the
    order to store each column's smallest row first (see `build_cobar`).
    """

    generators: tuple
    reduced_diagonal: dict

    def __post_init__(self):
        for gi, terms in self.reduced_diagonal.items():
            gname, gdeg = self.generators[gi]
            for left, right, coeff in terms:
                if left >= gi:
                    raise ValidationError(
                        f"diagonal term of {gname} has left letter {left}, not listed before it"
                    )
                if self.generators[left][1] + self.generators[right][1] != gdeg:
                    raise IntegrityError(
                        f"diagonal term of {gname} has degrees "
                        f"{self.generators[left][1]}+{self.generators[right][1]} != {gdeg}"
                    )
                as_int(coeff, f"diagonal coefficient of {gname}")
        self._check_coassociative()

    def diagonal(self, gi):
        return self.reduced_diagonal.get(gi, ())

    def _check_coassociative(self):
        for gi in range(len(self.generators)):
            lhs = {}
            rhs = {}
            for left, right, c in self.diagonal(gi):
                for l2, r2, c2 in self.diagonal(left):
                    key = (l2, r2, right)
                    lhs[key] = lhs.get(key, 0) + c * c2
                for l2, r2, c2 in self.diagonal(right):
                    key = (left, l2, r2)
                    rhs[key] = rhs.get(key, 0) + c * c2
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                raise IntegrityError(
                    f"reduced diagonal of {self.generators[gi][0]} is not coassociative"
                )


# x -> -x mod 256, which negates an int8 store in one C pass; it maps -128
# to itself, so a byte store holds only values of absolute value <= 127
_NEG = bytes(-x % 256 for x in range(256))


class PackedColumns:
    """Sparse integer columns in one flat store, the compressed-column layout.

    The matrix has `nrows` rows.  Column j holds the rows
    rows[ptr[j]:ptr[j+1]] with the nonzero values vals[ptr[j]:ptr[j+1]].
    `ptr` is an int64 array and `rows` an int32 array (the build refuses a
    window of 2^31 cells or more).  A narrow store keeps `vals` in an int8
    array, a wide one in a list, so a coefficient of any size fits; the
    choice is made once per complex, by `fits_a_byte`.  Each column stores
    its smallest row first, and its other entries in any order, so its
    leading row and value are rows[ptr[j]] and vals[ptr[j]].  `nonempty`
    holds one byte per column, 1 where the column has an entry: the build
    writes it block by block, and any other store derives it from `ptr`
    on its first read, so it is read only once the store is complete.  The
    store starts with no column.  Iterating gives each column as a fresh
    {row: value} dict.
    """

    __slots__ = ("nrows", "ptr", "rows", "vals", "_nonempty")

    def __init__(self, nrows, narrow):
        self.nrows = nrows
        self.ptr = array("q", [0])
        self.rows = array("i")
        self.vals = array("b") if narrow else []
        self._nonempty = None

    @property
    def nonempty(self):
        if self._nonempty is None:  # a column is nonempty where ptr steps up
            self._nonempty = bytes(map(ne, self.ptr, islice(self.ptr, 1, None)))
        return self._nonempty

    @staticmethod
    def fits_a_byte(coefficients):
        """Whether a store whose values are +-c, c in `coefficients`, can be
        narrow: every |c| <= 127, since -(-128) does not fit in a byte."""
        return all(-127 <= c <= 127 for c in coefficients)

    def __len__(self):
        return len(self.ptr) - 1

    def __iter__(self):
        rows, vals = self.rows, self.vals
        for a, b in zip(self.ptr, self.ptr[1:]):
            yield dict(zip(rows[a:b], vals[a:b]))


def _shifted(lanes, shift):
    """`lanes`, an int32 or int64 array, with `shift` added to every lane.

    A shift of 0 returns `lanes` itself, not a copy, as for the first
    block of a spot and the offsets of a block written onto a store with
    no rows yet: every caller only reads the result, and copies it into a
    store of its own.  Otherwise the array is read as one integer in
    native byte order, and so is an array of the same kind that holds
    `shift` in every lane; one integer addition adds them lane by lane.
    No carry crosses a lane, because every lane is non-negative and every
    sum fits its lane: a row stays below its spot's size, under 2^31 (see
    `_window_sizes`), and an offset counts the entries of one store."""
    if not shift:
        return lanes
    code, size = lanes.typecode, len(lanes) * lanes.itemsize
    total = int.from_bytes(lanes, sys.byteorder) + int.from_bytes(
        array(code, [shift]) * len(lanes), sys.byteorder
    )
    out = array(code)
    out.frombytes(total.to_bytes(size, sys.byteorder))
    return out


def _negated(vals):
    """The values of a store times -1, in a store of the same kind."""
    if isinstance(vals, list):
        return [-v for v in vals]
    out = array("b")
    out.frombytes(vals.tobytes().translate(_NEG))
    return out


@dataclass
class ChainComplex:
    """Cobar chain complex, stored per slice s = degree + weight.

    No word is stored: sizes[w][d] counts the words of weight w and degree
    d in the window (see `_window_sizes`), and spots[(s, d)] is range(n)
    for the n words of weight s - d and degree d.  A spot's words are in
    lexicographic order, letters in generator order, so spot (w, d) is one
    block per generator g: g followed by each word of spot (w - 1, d - |g|).
    `block_starts` gives the blocks' offsets, and `words` decodes a spot
    block by block.  diffs[(s, d)] holds the differential into (s, d-1) as
    `PackedColumns`, one column per word, which the rank reads in place:
    int32 rows, and int8 values when every diagonal coefficient fits a byte.
    Homology is complete through degree `cutoff`.  `profiles` maps each
    spot to the (rank, torsion) of its differential, all ranked in one pass
    on first read (see `_profiles`).  The differential is `content` times
    the stored one: `verify_loop_homology` builds from a coalgebra with its
    content divided out (see `_content_factored`) and sets it here before
    the first read.
    """

    coalgebra: FiniteCoalgebra
    cutoff: int
    sizes: list
    spots: dict = field(default_factory=dict)
    diffs: dict = field(default_factory=dict)
    content: int = 1

    @cached_property
    def profiles(self):
        return _profiles(self)

    @cached_property
    def degs(self):
        """The desuspended generator degrees."""
        return _desusp(self.coalgebra)

    def count(self, w, d):
        """The number of words of weight w and degree d, 0 past a row's end."""
        row = self.sizes[w]
        return row[d] if 0 <= d < len(row) else 0

    def block_starts(self, w, d):
        """Start of each generator's block in a spot of degree d whose
        suffixes have weight w (an empty block where d < |g|), and after
        them the spot's size."""
        starts = [0]
        for g in self.degs:
            starts.append(starts[-1] + self.count(w, d - g))
        return starts

    def dim(self, d):
        if d == 0:
            return 1
        return sum(len(words) for (s, dd), words in self.spots.items() if dd == d)

    def words(self, key):
        """The words of spot `key` as letter tuples, in basis order."""
        s, d = key
        if s == d:
            return [()]
        return [
            (g,) + u
            for g, gd in enumerate(self.degs)
            if self.count(s - d - 1, d - gd)
            for u in self.words((s - gd - 1, d - gd))
        ]


def _desusp(coalgebra):
    return [deg - 1 for _, deg in coalgebra.generators]


def _diagonal_desuspended(coalgebra):
    """Reduced diagonal on desuspended generators, with the desuspension sign.

    The sign (-1)^(original degree of the left factor) comes from moving
    the second desuspension past the first tensor factor; the overall
    orientation is fixed so that a top class with diagonal e (x) e maps to
    + e e when e has even degree, matching the n = 4 Betti-1 complex.
    Validity is enforced operationally by the d*d = 0 assertion.
    """
    table = {}
    for gi in range(len(coalgebra.generators)):
        terms = []
        for left, right, coeff in coalgebra.diagonal(gi):
            sign = -1 if coalgebra.generators[left][1] % 2 else 1
            terms.append((left, right, sign * coeff))
        table[gi] = tuple(terms)
    return table


def _content_factored(coalgebra):
    """The coalgebra with its reduced diagonal divided by c, the gcd of its
    coefficients, and c; c is 1 when no generator has diagonal terms.

    Every entry of the cobar differential is a Z-combination of those
    coefficients (see `build_cobar`), so the differential is c times that
    of the divided coalgebra, which is coassociative because the relation
    is quadratic in the coefficients.  Its d*d vanishes since c^2 times it
    does, it has the same ranks, and its Smith invariants times c are
    those of the original (SNF(c A) = c SNF(A)).
    """
    c = gcd(*(coeff for terms in coalgebra.reduced_diagonal.values() for _, _, coeff in terms))
    if c <= 1:
        return coalgebra, 1
    divided = {
        g: tuple((left, right, coeff // c) for left, right, coeff in terms)
        for g, terms in coalgebra.reduced_diagonal.items()
    }
    return FiniteCoalgebra(coalgebra.generators, divided), c


def _window_sizes(degs, cutoff, max_cells):
    """sizes[w][d]: the number of words of weight w and degree d in the window.

    The window is d <= cutoff + 1 and d + w <= cutoff + cutoff // min(degs).
    Row 0 holds the empty word; row w stops at the last degree a weight-w
    word reaches, and an index past its end reads as 0.  A prefix or suffix
    of a word in the window is in the window, so each entry counts every
    word of its weight and degree.  The cap is checked row by row, so a
    refusal costs the same at any cutoff.  So is `ROW_LIMIT`, whatever the
    cap: the store keeps each row index, which is below its spot's size, in
    an int32, where `_shifted` moves it with no carry into the next lane.
    """
    top = cutoff + 1
    slice_cap = cutoff + cutoff // min(degs)
    sizes, total = [[1]], 0
    while True:
        prev, w = sizes[-1], len(sizes)
        row = [
            sum(prev[d - g] for g in degs if 0 <= d - g < len(prev))
            for d in range(min(top, slice_cap - w, w * max(degs)) + 1)
        ]
        if not any(row):
            return sizes
        total += sum(row)
        if total >= ROW_LIMIT:
            raise ValidationError(
                f"chain complex needs {total} words or more, over the limit of "
                f"2^31 = {ROW_LIMIT} that int32 row indices allow; lower the degree cutoff"
            )
        if total > max_cells:
            raise ValidationError(
                f"chain complex needs {total} words or more, over the cap of {max_cells}; "
                f"raise LOOPTOP_MAX_CELLS or lower the degree cutoff"
            )
        sizes.append(row)


def build_cobar(coalgebra, cutoff, max_cells=None):
    """Cobar complex of a finite coalgebra; cutoff is the last complete degree.

    A word of degree d and weight w is kept when d <= cutoff + 1 and
    d + w <= cutoff + cutoff // (smallest generator degree).  Every word of
    degree <= cutoff passes, and so does every word of degree cutoff + 1 in
    a slice that holds one, so homology is complete through the cutoff.

    The spots are counted first, so the cell cap is checked before anything
    is built, and no word is built at all: spot (w, d) (weight, degree) is
    the concatenation, over generators g in ascending order, of g followed
    by each word of spot (w-1, d-|g|), already sorted.  Its columns follow
    from the derivation rule d(g u) = d(g) u + (-1)^|g| g d(u): the column
    of u shifted to the start of g's block in the target spot, times
    (-1)^|g|, plus one entry per term (l, r, c) of the desuspended diagonal
    of g, at the offset of l's block, plus the offset of r's block inside
    it, plus the index of u.  `_shifted` shifts a block's rows at once; a
    block whose generator has no diagonal terms is the sub-spot's store so
    shifted, offsets too, and copies its nonempty bytes.  A column of any
    other block writes its smallest diagonal term, its slice of the
    shifted rows, then its other terms, and is nonempty.  Every left
    letter l precedes g, so l's block lies before g's, and the smallest row
    comes first, as `PackedColumns` requires (for the order after it, see
    `_sparse_rank_and_torsion`).  When every column of the sub-spot holds
    the same number m of entries, as in every mixed block of a manifold,
    each place of the block's columns is one strided slice: the block is
    written by one slice assignment per term and per entry of u, with no
    Python step per column.  Otherwise it is written column by column.  No
    word is hashed or searched for.  The values are int8 when every merged
    coefficient of the desuspended diagonal fits
    `PackedColumns.fits_a_byte`, and a list otherwise.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    if max_cells is None:
        max_cells = _max_cells_default()
    degs = _desusp(coalgebra)
    if any(d < 1 for d in degs):
        raise ValidationError("every generator must have degree >= 2 before desuspension")
    cx = ChainComplex(coalgebra, cutoff, _window_sizes(degs, cutoff, max_cells))

    diag = {}
    for g, terms in _diagonal_desuspended(coalgebra).items():
        merged = {}
        for left, right, coeff in terms:
            merged[left, right] = merged.get((left, right), 0) + coeff
        diag[g] = [(lr, c) for lr, c in merged.items() if c]
    narrow = PackedColumns.fits_a_byte(c for terms in diag.values() for _, c in terms)

    # the empty word, a suffix only, with its one empty column
    diffs = cx.diffs
    diffs[0, 0] = PackedColumns(0, narrow)
    diffs[0, 0].ptr.append(0)
    for w in range(1, len(cx.sizes)):
        for d, size in enumerate(cx.sizes[w]):
            if not size:
                continue
            # the target spot has weight w+1 and degree d-1: blocks g . W(w, d-1-|g|),
            # and inside the block of l the sub-blocks r . W(w-1, d-1-|l|-|r|)
            target = cx.block_starts(w, d - 1)
            cols = PackedColumns(target[-1], narrow)
            ptr, rows, vals = cols.ptr, cols.rows, cols.vals
            nonempty = []  # one byte string per block
            for g, gdeg in enumerate(degs):
                if not cx.count(w - 1, d - gdeg):
                    continue
                du = diffs[d - gdeg + w - 1, d - gdeg]
                sub_ptr, sub_rows, sub_vals = du.ptr, du.rows, du.vals
                moved = _shifted(sub_rows, target[g])
                signed = _negated(sub_vals) if gdeg % 2 else sub_vals
                terms = sorted(
                    (target[l] + cx.block_starts(w - 1, d - 1 - degs[l])[r], c)
                    for (l, r), c in diag[g]
                )
                if not terms:  # the whole block at once: rows shifted, values signed
                    ptr.extend(_shifted(sub_ptr[1:], len(rows)))
                    rows.extend(moved)
                    vals.extend(signed)
                    nonempty.append(du.nonempty)
                    continue
                nonempty.append(b"\1" * len(du))  # each column holds its diagonal terms
                (first, c0), rest = terms[0], terms[1:]
                n, m = len(du), len(sub_rows) // len(du)
                if sub_ptr[1:] == _shifted(sub_ptr[:-1], m):
                    # each column of u holds m entries, so each column of the block
                    # holds `width`, and each of its places is one strided slice
                    base, width, index = len(rows), len(terms) + m, array("i", range(n))
                    pattern = [c0] + [0] * m + [c for _, c in rest]
                    ptr.extend(range(base + width, base + width * n + 1, width))
                    rows.extend(array("i", [0]) * (width * n))
                    vals.extend((array("b", pattern) if narrow else pattern) * n)
                    for t, (at, _) in zip((0, *range(1 + m, width)), terms):
                        rows[base + t::width] = _shifted(index, at)
                    for t in range(m):
                        rows[base + 1 + t::width] = moved[t::m]
                        vals[base + 1 + t::width] = signed[t::m]
                    continue
                for j, (a, b) in enumerate(zip(sub_ptr, sub_ptr[1:])):
                    rows.append(first + j)
                    vals.append(c0)
                    rows.extend(moved[a:b])
                    vals.extend(signed[a:b])
                    for at, c in rest:
                        rows.append(at + j)
                        vals.append(c)
                    ptr.append(len(rows))
            cols._nonempty = b"".join(nonempty)
            cx.spots[d + w, d] = range(size)
            diffs[d + w, d] = cols
    del diffs[0, 0]

    _assert_d_squared_zero(cx)
    return cx


def _assert_d_squared_zero(cx):
    """Raise IntegrityError unless d*d = 0 on every word of the complex.

    Every spot's image must land in a spot of the complex.  d*d is then
    computed on the columns of the words g u whose first letter g has
    diagonal terms, and on those only.  Let g have none.  Then d(g) = 0,
    and the derivation rule gives d(g u) = (-1)^|g| g d(u) and
    d*d(g u) = g d*d(u): the build writes g's block of d_(s,d) as the
    column of u in d_(s-|g|-1, d-|g|) with its rows shifted and its values
    times (-1)^|g|.  So d*d vanishes on g u exactly when it vanishes on the
    shorter word u, whose column this check visits in that source spot, or
    which is the empty word (a word of one letter with no diagonal terms has
    an empty column).  By induction on the word length, d*d vanishes on
    every word.  The argument takes the block copy itself on trust; a fault
    there can still show in the check of the spot above, whose image this
    block's columns map on, or in the ranks and the bigraded audit.

    Each visited column is walked by offsets, its entries and then each
    matching column of the lower spot, into one {row: sum} dict whose
    values are tested once, when the column is done; a row whose sum
    cancels stays in the dict at 0.  No entry costs a slice or a `zip`.
    """
    mixed = [g for g in range(len(cx.coalgebra.generators)) if cx.coalgebra.diagonal(g)]
    for (s, d), cols in cx.diffs.items():
        lower = cx.diffs.get((s, d - 1))
        if lower is None:
            if cols.rows:
                raise IntegrityError("differential image lands in a missing spot")
            continue
        if not lower.rows:
            continue  # d_(s,d-1) is zero, so d*d vanishes on the whole spot
        ptr, rows, vals = cols.ptr, cols.rows, cols.vals
        lptr, lrows, lvals = lower.ptr, lower.rows, lower.vals
        starts = cx.block_starts(s - d - 1, d)
        for g in mixed:  # g's block of the spot
            for j in range(starts[g], starts[g + 1]):
                acc = {}
                get = acc.get
                for i in range(ptr[j], ptr[j + 1]):
                    row, v = rows[i], vals[i]
                    for k in range(lptr[row], lptr[row + 1]):
                        row2 = lrows[k]
                        acc[row2] = get(row2, 0) + v * lvals[k]
                if any(acc.values()):
                    word = cx.words((s, d))[j]
                    raise IntegrityError(f"d*d != 0 on word {word}: sign convention broken")


def _sparse_rank_and_torsion(columns, skip=None):
    """Exact rank, torsion invariants and unit-pivot owners of a column family.

    Left-looking elimination with unit-leading pivots: integer column
    operations are unimodular, so after full reduction the cokernel of
    the original matrix is free on the non-pivot rows modulo the columns
    that could not find a unit pivot.  Those survivors are cleared on
    every pivot row by the unit pivots (more unimodular column
    operations).  Then `_linalg.unit_pivots` eliminates every +-1 entry
    left in them, wherever it lies, and counts it in the rank, so only the
    columns with no unit left reach `smith_invariants`, whose sparse
    invariants, certified independently, finish the computation exactly.
    With no survivor (the unimodular case) nothing more runs.

    `columns` is a `PackedColumns`, and the store is never changed.  The
    loop visits only the live columns, nonempty and not skipped, which
    `itertools.compress` picks from the byte mask of `_live`, so a column
    that needs no work costs no Python step.  It reads each live column's
    leading row and value where the store keeps them, first in the column.
    When that row holds no pivot yet and the value is +-1, the column is
    its own reduced form (an emergent pivot, as in Ripser: Bauer, J. Appl.
    Comput. Topol. 5, 2021), so it is kept as its index and unpacked into
    a dict only once, the first time another column eliminates against
    it.  Every other column is unpacked into a fresh dict and reduced, its
    leading entry last and the rest in store order.  The order leaves the
    answer alone, but the Smith form breaks pivot ties by it: with the
    leading entry first, `verify cobar --space cw:2:2,1;1,5 --max-degree
    11` took 7.9-9.9 s instead of 2.1-2.5.  `skip` is a byte mask over the
    columns: a column whose byte is 1 is left out without being read, and
    None leaves out none.

    The third value is the pivot owner of each row, an int64 array over
    the rows: -1 where the row holds no unit pivot, the index of a
    packed column where it holds an emergent pivot never unpacked, and -2
    where it holds a reduced column, which a side dict keeps by row while
    the reduction runs.  Each pivot is counted when it is made, so the
    owners are never scanned.  A unit that `unit_pivots` takes owns no
    row: its column need not have every other entry below it, so it clears
    no column of the next rank.  A reduced unit pivot clears its row and adds
    entries only below it, so the rows a column is eliminated on strictly
    increase; a pivot that breaks this raises IntegrityError.
    """
    ptr, rows, vals = columns.ptr, columns.rows, columns.vals
    owner = array("q", [-1]) * columns.nrows
    reduced = {}  # row -> reduced column as a dict, for the rows whose owner is -2
    aside = []
    pivots = 0

    def eliminate(vec, j, last):
        """Eliminate vec on row j, the row after `last`; returns j."""
        if j <= last:
            raise IntegrityError(f"reduction on row {j} makes no progress: a pivot is not reduced")
        p = owner[j]
        if p >= 0:  # an emergent pivot, unpacked on its first use
            a, b = ptr[p], ptr[p + 1]
            reduced[j], owner[j] = dict(zip(rows[a:b], vals[a:b])), -2
        p = reduced[j]
        f = vec[j] * p[j]  # p[j] is +-1
        for k, v in p.items():
            nv = vec.get(k, 0) - f * v
            if nv:
                vec[k] = nv
            else:
                del vec[k]  # nv = 0 only where vec held f * v
        return j

    def reduce_col(vec):
        last = -1
        while vec:
            j = min(vec)
            if owner[j] == -1:
                return vec, j
            last = eliminate(vec, j, last)
        return vec, None

    for i in compress(count(), _live(columns, skip)):
        a = ptr[i]
        j = rows[a]
        if owner[j] == -1 and vals[a] in (1, -1):
            owner[j] = i
            pivots += 1
            continue
        b = ptr[i + 1]
        vec = dict(zip(rows[a + 1:b], vals[a + 1:b]))
        vec[j] = vals[a]  # the leading entry last, for the Smith form's pivot ties
        vec, j = reduce_col(vec)
        if j is None:
            continue
        if vec[j] in (1, -1):
            reduced[j], owner[j] = vec, -2
            pivots += 1
        else:
            aside.append(vec)
    promoted = True
    while promoted:
        promoted = False
        still = []
        for vec in aside:
            vec, j = reduce_col(vec)
            if j is None:
                continue
            if vec[j] in (1, -1):
                reduced[j], owner[j] = vec, -2
                pivots += 1
                promoted = True
            else:
                still.append(vec)
        aside = still
    if not aside:
        return pivots, [], owner
    for vec in aside:
        last = -1
        hits = [k for k in vec if owner[k] != -1]
        while hits:
            last = eliminate(vec, min(hits), last)
            hits = [k for k in vec if owner[k] != -1]
    units, aside = unit_pivots(aside)
    invariants = smith_invariants(aside)
    torsion = [x for x in invariants if x > 1]
    return pivots + units + len(invariants), torsion, owner


def _live(columns, skip):
    """The byte mask of the columns the rank reads: 1 where a column is
    nonempty and its byte in `skip` (0 or 1, or no mask at all) is 0, both
    masks read as integers and combined by one AND NOT."""
    live = columns.nonempty
    if not skip:
        return live
    both = ~int.from_bytes(skip, "little")
    both &= int.from_bytes(live, "little")
    return both.to_bytes(len(live), "little")


# 0 for the byte 0xFF, 1 for any other: see `_owned`
_NOT_FF = bytes(255 * [1] + [0])


def _owned(owner):
    """The byte mask of the rows that hold a pivot: 1 where `owner` is not -1.

    An owner is -1, -2 or a column index below 2^31, so it is -1 exactly
    when both its lowest and its highest byte are 0xFF.  The two bytes of
    every lane are read through a memoryview, ANDed as two integers and
    mapped to 0 or 1 by a byte table, with no call per row."""
    lanes = memoryview(owner).cast("B")
    low, high = (0, 7) if sys.byteorder == "little" else (7, 0)
    both = int.from_bytes(lanes[low::8], "little")
    both &= int.from_bytes(lanes[high::8], "little")
    return both.to_bytes(len(owner), "little").translate(_NOT_FF)


def _transpose(columns):
    """The transpose of `columns`, in a store of the same kind.

    A counting sort over the rows: the entry counts per row give the new
    offsets, and one pass over the old columns in order puts each entry at
    the next free place of its row, so each new column lists the old
    columns in ascending order.  Beside the new store it keeps one int64
    cursor per row, and no Python object per entry."""
    ptr, rows, vals = columns.ptr, columns.rows, columns.vals
    out = PackedColumns(len(columns), not isinstance(vals, list))
    counts = array("q", [0]) * (columns.nrows + 1)
    for i in rows:
        counts[i + 1] += 1
    out.ptr = array("q", accumulate(counts))
    out.rows.extend(repeat(0, len(rows)))
    out.vals.extend(repeat(0, len(rows)))
    free, out_rows, out_vals = out.ptr[:-1], out.rows, out.vals
    for j, (a, b) in enumerate(zip(ptr, ptr[1:])):
        for i, v in zip(rows[a:b], vals[a:b]):
            at = free[i]
            free[i] = at + 1
            out_rows[at], out_vals[at] = j, v
    return out


def _suffix_positions(cx, w, d, e, memo):
    """Entry i: the index in spot (w, d) of u g, for u word i of spot
    (w - 1, d - e) and g a letter of degree e, less g's index among the
    letters of degree e.

    u = h u' lies in h's block of (w - 1, d - e), and u g = h (u' g) lies
    in h's block of (w, d), at that block's start plus the index of u' g
    in spot (w - 1, d - |h|).  A spot of weight 1 holds the letters of its
    degree, g among them at its letter index.  Each array is an int64
    array, kept in `memo` under (w, d, e) with the arrays it is made from.
    """
    key = w, d, e
    if key not in memo:
        if w == 1:
            memo[key] = array("q", [0] if d == e else [])
        else:
            out, starts = array("q"), cx.block_starts(w - 1, d)
            for h, hd in enumerate(cx.degs):
                if cx.count(w - 2, d - e - hd):
                    inner = _suffix_positions(cx, w - 1, d - hd, e, memo)
                    out.extend(_shifted(inner, starts[h]))
            memo[key] = out
    return memo[key]


def _profiles(cx):
    """{spot: (rank, torsion)} of every differential, ranked with clearing.

    The slices are ranked in ascending s, and each slice from its top
    degree down.  The unit-pivot rows of the reduced columns of d_(s,d+1)
    are columns of d_(s,d) that need no work: each reduced column R is a
    Z-combination of boundaries, so d(R) = 0 by d*d = 0 (asserted in the
    build), and since R has +-1 at its pivot row i and every other entry at
    a larger row, column i of d_(s,d) is a Z-combination of columns with
    larger index.  Taking the cleared rows from the largest down, each
    cleared column lies in the Z-span of the columns that are not cleared,
    so dropping them all leaves the Z-span of the columns, hence the rank
    and the Smith invariants, unchanged (the twist, or clearing, of
    persistent homology: Chen and Kerber 2011; Bauer, Kerber and
    Reininghaus 2014).  The cleared columns pass to the next rank as a byte
    mask, which `_owned` reads off the pivot owners of the rank above.

    The top spot (s, t) has no spot above it, so it inherits its cleared
    set from smaller slices.  Let g be a generator with no diagonal terms
    and R a reduced unit-pivot column of the source spot's differential
    d_(s-|g|-1, t-|g|+1), with pivot row i: R is a boundary, so d(R) = 0,
    and d(g R) = d(R g) = 0 by the derivation rule, since d(g) = 0.  The
    cycle g R lies in g's block of the top spot, which is the source's
    target spot with its rows shifted (the build copies g's block of
    d_(s,t) from d_(s-|g|-1, t-|g|)), and has +-1 at the block start plus
    i.  The cycle R g has +-1 at the word (word i) g, which the top spot
    holds since it holds every word of its weight and degree, and its
    other words follow in lexicographic order; `_suffix_positions` gives
    the index of each (word i) g.  Both have every other entry at a
    larger index, so the same lemma clears both columns.  The source lies
    in a smaller slice, so it is ranked first; it keeps its pivot rows
    only when some top spot inherits them, as an int64 array under (that
    slice, |g|) in a dict local to this pass, and the top spot pops them
    when it reads them.  A spot with nothing to clear it (the top spot with
    no inherited rows, or a spot below a transposed one) reduces its
    transpose when it has fewer rows than nonzero columns, counted on its
    nonempty bytes: the rank and the invariants are the same, but its
    pivots then index its columns, so it passes no cleared set on.  A
    differential whose store has no entry is never ranked: its profile is
    (0, []), and the spot below it, having no pivot to read, starts with
    nothing cleared and inherits nothing from it, just as ranking the empty
    store would leave it.
    """
    degs = cx.degs
    plain = [g for g in range(len(degs)) if not cx.coalgebra.diagonal(g)]
    plain_degs = {degs[g] for g in plain}
    letter = [degs[:g].count(gd) for g, gd in enumerate(degs)]  # index among its degree's letters
    positions = {}  # (w, d, e) -> suffix positions, for this pass only

    slices = {}  # s -> the degrees of its spots, the top first
    for s, d in sorted(cx.spots, key=lambda key: (key[0], -key[1])):
        slices.setdefault(s, []).append(d)
    tops = {s: degrees[0] for s, degrees in slices.items()}
    profiles, inherited = {}, {}
    for s, degrees in slices.items():
        top = tops[s]
        heir_rows = {gd: inherited.pop((s, gd), None) for gd in plain_degs}
        cleared, below = bytearray(len(cx.spots[(s, top)])), top
        starts = cx.block_starts(s - top - 1, top)
        for g in plain:
            rows = heir_rows[degs[g]]
            if rows:
                start = starts[g]
                pos = _suffix_positions(cx, s - top, top, degs[g], positions)
                for i in rows:  # the unit of g R, and the unit of R g
                    cleared[start + i] = cleared[pos[i] + letter[g]] = 1

        for d in degrees:
            cols = cx.diffs[(s, d)]
            if d != below:  # no spot (s, d + 1) to clear this one
                cleared = bytearray(len(cols))
            if not cols.rows:  # a zero differential: nothing to rank, nothing cleared below
                rank, torsion, cleared = 0, [], bytearray(cols.nrows)
            elif 1 not in cleared and cols.nrows < cols.nonempty.count(1):
                rank, torsion, _ = _sparse_rank_and_torsion(_transpose(cols))
                cleared = bytearray(cols.nrows)
            else:
                rank, torsion, owner = _sparse_rank_and_torsion(cols, cleared)
                cleared = _owned(owner)
                del owner  # 8 bytes a row: not held through the next rank
                heirs = [gd for gd in plain_degs if tops.get(s + gd + 1) == d + gd - 1]
                if heirs and 1 in cleared:
                    rows = array("q", compress(count(), cleared))
                    for gd in heirs:
                        inherited[s + gd + 1, gd] = rows
            if cx.content > 1:  # the invariants of content times this differential
                torsion = [cx.content] * (rank - len(torsion)) + [cx.content * t for t in torsion]
            profiles[(s, d)] = rank, torsion
            below = d - 1
    return profiles


def _spot_homology(cx, key):
    """(free rank, torsion list) of the homology at one spot (s, d)."""
    s, d = key
    rank_in, torsion = cx.profiles.get((s, d + 1), (0, []))
    rank = len(cx.spots[key]) - cx.profiles[key][0] - rank_in
    if rank < 0:
        raise IntegrityError(f"negative homology rank at slice {s}, degree {d}")
    return rank, torsion


def homology(cx, d):
    """(free rank, torsion list) of H_d, computed slice by slice.

    Needs the boundary from degree d+1 inside the window, so d must not
    exceed the cutoff of the build.
    """
    if d < 0:
        raise ValidationError("degree must be >= 0")
    if d > cx.cutoff:
        raise WindowError(
            f"homology at degree {d} needs chains above the cutoff "
            f"(complete through {cx.cutoff})"
        )
    if d == 0:
        return 1, []  # the empty word: the algebra unit, never a boundary
    rank = 0
    torsion = []
    for key in sorted(cx.spots):
        if key[1] == d:
            piece, tors = _spot_homology(cx, key)
            rank += piece
            torsion.extend(tors)
    return rank, sorted(torsion)


def verify_loop_homology(space, cutoff, max_cells=None):
    """Compare cobar homology with the closed-form loop-homology prediction;
    returns the JSON payload of `verify cobar`, in its printed key order.

    Ranks are checked at every degree <= cutoff against the inverse of the
    family's denominator, and at every spot (word length, degree) against
    the family's bigraded series.  Torsion must be supported on the
    family's torsion primes: none for unimodular inputs (manifolds,
    connected sums, Betti-1 models), the bad primes of the form for
    two-cell complexes.  A discrepancy clears an `ok` flag; nothing raises.
    The ranks are expanded after the build, so the cell cap refuses first.

    The complex is built from the space's coalgebra with its content c
    divided out (`_content_factored`), and each rank's invariants are
    multiplied by c.  For a scaled unimodular form such as
    `cw:2:0,p;p,0` the divided complex is unimodular, so no column
    reaches the Smith certificate.
    """
    allowed_torsion = space.torsion_primes()
    coalgebra, content = _content_factored(space.coalgebra())
    cx = build_cobar(coalgebra, cutoff, max_cells=max_cells)
    cx.content = content
    expected = space.denominator(cutoff).inverse().coefficients

    rows = []
    for d in range(cutoff + 1):
        rank, torsion = homology(cx, d)
        ok = rank == expected[d] and all(_strip_primes(t, allowed_torsion) == 1 for t in torsion)
        rows.append({
            "degree": d, "chain_dim": cx.dim(d), "rank": rank, "expected_rank": expected[d],
            "torsion": torsion, "ok": ok,
        })
    bigraded_ok = _euler_audit(cx, space.bigraded_series(cutoff))
    return {
        "max_degree": cutoff,
        "torsion_primes": sorted(allowed_torsion),
        "rows": rows,
        "bigraded_ok": bigraded_ok,
        "ok": bigraded_ok and all(row["ok"] for row in rows),
    }


def _strip_primes(value, primes):
    """`value` with every factor from `primes` divided out."""
    for p in primes:
        while value % p == 0:
            value //= p
    return value


def _euler_audit(cx, predicted):
    """Bigraded audit: the homology rank of every spot against the series.

    The name is kept because the benchmark's traced pass wraps it as a
    span site.  `predicted` maps (word length, degree) to the rank the
    family's bigraded series gives.  At every spot (s, d) with
    1 <= d <= cutoff the rank dim - rank_out - rank_in must equal
    predicted[(s - d, d)], and no predicted rank may lack its spot.  It
    reads the complex's rank table, which the homology rows already filled.
    """
    found = {}
    for s, d in cx.spots:
        if d <= cx.cutoff:
            rank = _spot_homology(cx, (s, d))[0]
            if rank:
                found[(s - d, d)] = rank
    return found == {key: c for key, c in predicted.items() if 1 <= key[1] <= cx.cutoff}
