"""Integral cobar construction and Smith-normal-form homology oracle.

The chain complex is the tensor algebra on the desuspended reduced
homology of the space, with the differential extending the desuspended
reduced diagonal as a degree -1 derivation.  The differential lowers the
homological degree by one and raises the weight (word length) by one, so
the complex splits into finite slices indexed by s = degree + weight; all
linear algebra runs per slice, exactly, over the integers.  A build at
cutoff D keeps the words of degree at most D + 1 in the slices that can
reach a degree <= D, which is what homology through degree D needs.

Words are integer codes in base k (k generators), and each spot is built
from the spots of one letter shorter by block offsets, so the build never
hashes or looks up a word.  Ranks are taken per slice from the top degree
down, and the unit pivots of each differential clear columns of the next
one; a column whose leading entry is a unit on a row with no pivot yet is
its own reduced form and stays packed.  The top spot of a slice, which no
spot above clears, inherits its cleared columns from smaller slices: for a
generator g with no diagonal terms and a reduced boundary column R of a
smaller slice, g R and R g are cycles of the top spot, each with a unit at
a known column and its other entries after it (see `_profile_slice`).
"""

import os
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from ._linalg import smith_invariants
from ._linalg import smith_normal_form as _dense_snf  # kept only as a benchmark span site
from .errors import IntegrityError, ValidationError, WindowError

DEFAULT_MAX_CELLS = 200_000


def _max_cells_default():
    raw = os.environ.get("LOOPTOP_MAX_CELLS")
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        value = int(raw)
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
    Degrees must add up and the reduced diagonal must be coassociative;
    both are checked by direct expansion at construction.
    """

    generators: tuple
    reduced_diagonal: dict

    def __post_init__(self):
        for gi, terms in self.reduced_diagonal.items():
            gname, gdeg = self.generators[gi]
            for left, right, coeff in terms:
                if self.generators[left][1] + self.generators[right][1] != gdeg:
                    raise IntegrityError(
                        f"diagonal term of {gname} has degrees "
                        f"{self.generators[left][1]}+{self.generators[right][1]} != {gdeg}"
                    )
                if coeff != int(coeff):
                    raise ValidationError("diagonal coefficients must be integers")
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


class PackedColumns:
    """Sparse integer columns in one flat store, the compressed-column layout.

    Column j holds the rows rows[ptr[j]:ptr[j+1]] with the nonzero values
    vals[ptr[j]:ptr[j+1]].  `ptr` and `rows` are int64 arrays; `vals` is a
    list, so a coefficient of any size fits.  Iterating gives each column
    as a fresh {row: value} dict.
    """

    __slots__ = ("ptr", "rows", "vals")

    def __init__(self, ptr=None, rows=None, vals=None):
        self.ptr = array("q", [0]) if ptr is None else ptr
        self.rows = array("q") if rows is None else rows
        self.vals = [] if vals is None else vals

    def __len__(self):
        return len(self.ptr) - 1

    def __iter__(self):
        rows, vals = self.rows, self.vals
        for a, b in zip(self.ptr, self.ptr[1:]):
            yield dict(zip(rows[a:b], vals[a:b]))


@dataclass
class ChainComplex:
    """Cobar chain complex, stored per slice s = degree + weight.

    spots[(s, d)] is the word basis in that bidegree, in ascending order:
    a word g_0 ... g_(w-1) over k generators is the integer code
    sum g_j k^(w-1-j), and all words of a spot have the same length w =
    s - d, so numeric order is the order of the letter tuples.
    diffs[(s, d)] holds the differential into (s, d-1) as `PackedColumns`,
    one column per word: a spot costs one offset per word and one row index
    and one value per nonzero entry, not one dict per word (for
    manifold:2:3 about 76 bytes retained per cell against about 230).  The
    rank reads the same store and keeps its emergent pivots there, as
    column indices (the README gives the peak RSS at D=10 and D=11).
    `words` decodes a spot back to letter tuples.  Homology is complete
    through degree `cutoff`.  `_profiles` memoizes the (rank, torsion) of
    each spot's differential; `_inherited` holds, until read, the pivot rows
    a slice's top spot inherits (see `_profile_slice`).
    """

    coalgebra: FiniteCoalgebra
    cutoff: int
    spots: dict = field(default_factory=dict)
    diffs: dict = field(default_factory=dict)
    _profiles: dict = field(default_factory=dict)
    _inherited: dict = field(default_factory=dict)

    def dim(self, d):
        if d == 0:
            return 1
        return sum(len(words) for (s, dd), words in self.spots.items() if dd == d)

    def words(self, key):
        """The words of spot `key` as letter tuples, in basis order."""
        k = len(self.coalgebra.generators)
        length = key[0] - key[1]
        out = []
        for code in self.spots[key]:
            letters = []
            for _ in range(length):
                code, g = divmod(code, k)
                letters.append(g)
            out.append(tuple(reversed(letters)))
        return out


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


def _window_sizes(degs, cutoff, max_cells):
    """sizes[w][d]: the number of words of weight w and degree d in the window.

    The window is d <= cutoff + 1 and d + w <= cutoff + cutoff // min(degs).
    Row 0 holds the empty word; row w stops at the last degree a weight-w
    word reaches, and an index past its end reads as 0.  A prefix or suffix
    of a word in the window is in the window, so each entry counts every
    word of its weight and degree.  The cap is checked row by row, so a
    refusal costs the same at any cutoff.
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
    is built.  Then spot (w, d) (weight, degree) is the concatenation, over
    generators g in ascending order, of the block g * k^(w-1) + W(w-1, d-|g|),
    already sorted.  Its columns follow from the derivation rule
    d(g u) = d(g) u + (-1)^|g| g d(u): the column of u shifted to the start
    of g's block in the target spot, times (-1)^|g|, plus one entry per
    term (l, r, c) of the desuspended diagonal of g, at the offset of l's
    block, plus the offset of r's block inside it, plus the index of u.
    A block whose generator has no diagonal terms is the sub-spot's packed
    columns with every row shifted at once.  No word is hashed or searched
    for.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    if max_cells is None:
        max_cells = _max_cells_default()
    degs = _desusp(coalgebra)
    if any(d < 1 for d in degs):
        raise ValidationError("every generator must have degree >= 2 before desuspension")
    sizes = _window_sizes(degs, cutoff, max_cells)

    k = len(degs)
    diag = {}
    for g, terms in _diagonal_desuspended(coalgebra).items():
        merged = {}
        for left, right, coeff in terms:
            merged[left, right] = merged.get((left, right), 0) + coeff
        diag[g] = [(lr, c) for lr, c in merged.items() if c]

    def count(w, d):
        """The number of words of weight w and degree d, 0 past a row's end."""
        return sizes[w][d] if 0 <= d < len(sizes[w]) else 0

    def block_starts(w, d):
        """Start of each generator's block in a spot of degree d whose
        suffixes have weight w (an empty block where d < |g|)."""
        starts, at = [], 0
        for g in degs:
            starts.append(at)
            at += count(w, d - g)
        return starts

    # the empty word, a suffix only, with its one empty column
    spots, diffs = {(0, 0): [0]}, {(0, 0): PackedColumns(array("q", [0, 0]))}
    for w in range(1, len(sizes)):
        lead = k ** (w - 1)
        for d, size in enumerate(sizes[w]):
            if not size:
                continue
            # the target spot has weight w+1 and degree d-1: blocks g . W(w, d-1-|g|),
            # and inside the block of l the sub-blocks r . W(w-1, d-1-|l|-|r|)
            target = block_starts(w, d - 1)
            spot_words, cols = [], PackedColumns()
            ptr, rows, vals = cols.ptr, cols.rows, cols.vals
            for g, gdeg in enumerate(degs):
                if not count(w - 1, d - gdeg):
                    continue
                sub = (d - gdeg + w - 1, d - gdeg)
                spot_words += [g * lead + u for u in spots[sub]]
                du = diffs[sub]
                sub_ptr, sub_rows, sub_vals = du.ptr, du.rows, du.vals
                shift, odd = target[g], gdeg % 2
                terms = [
                    (target[l] + block_starts(w - 1, d - 1 - degs[l])[r], c)
                    for (l, r), c in diag[g]
                ]
                if not terms:  # the whole block at once: rows shifted, values signed
                    ptr.extend(map(len(rows).__add__, sub_ptr[1:]))
                    rows.extend(map(shift.__add__, sub_rows))
                    vals.extend([-v for v in sub_vals] if odd else sub_vals)
                    continue
                for j, (a, b) in enumerate(zip(sub_ptr, sub_ptr[1:])):
                    rows.extend(map(shift.__add__, sub_rows[a:b]))
                    vals.extend([-v for v in sub_vals[a:b]] if odd else sub_vals[a:b])
                    for at, c in terms:
                        rows.append(at + j)
                        vals.append(c)
                    ptr.append(len(rows))
            spots[d + w, d] = spot_words
            diffs[d + w, d] = cols
    del spots[0, 0], diffs[0, 0]

    cx = ChainComplex(coalgebra, cutoff, spots, diffs)
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
    """
    k = len(cx.coalgebra.generators)
    mixed = [g for g in range(k) if cx.coalgebra.diagonal(g)]
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
        words, lead = cx.spots[(s, d)], k ** (s - d - 1)
        for g in mixed:  # the words of g's block have codes in [g lead, (g + 1) lead)
            first = bisect_left(words, g * lead)
            last = bisect_left(words, (g + 1) * lead, first)
            for j, a, b in zip(range(first, last), ptr[first:last], ptr[first + 1:last + 1]):
                acc = {}
                for row, v in zip(rows[a:b], vals[a:b]):
                    a2, b2 = lptr[row], lptr[row + 1]
                    for row2, v2 in zip(lrows[a2:b2], lvals[a2:b2]):
                        nv = acc.get(row2, 0) + v * v2
                        if nv:
                            acc[row2] = nv
                        else:
                            acc.pop(row2, None)
                if acc:
                    word = cx.words((s, d))[j]
                    raise IntegrityError(f"d*d != 0 on word {word}: sign convention broken")


def _sparse_rank_and_torsion(columns, skip=frozenset()):
    """Exact rank, torsion invariants and unit-pivot rows of a column family.

    Left-looking elimination with unit-leading pivots: integer column
    operations are unimodular, so after full reduction the cokernel of
    the original matrix is free on the non-pivot rows modulo the columns
    that could not find a unit pivot.  Those survivors are cleared on
    every pivot row by the unit pivots (more unimodular column
    operations), and their sparse Smith invariants, which
    `smith_invariants` certifies independently, finish the computation
    exactly.  With no survivor (the unimodular case) nothing more runs.

    `columns` is a `PackedColumns`, and the store is never changed.  A
    column's leading row and its value are read from the packed arrays
    first.  When that row holds no pivot yet and the value is +-1, the
    column is its own reduced form (an emergent pivot, as in Ripser:
    Bauer, J. Appl. Comput. Topol. 5, 2021), so it is kept as its index
    and unpacked into a dict only once, the first time another column
    eliminates against it.  Every other column is unpacked into a fresh
    dict and reduced.  Columns whose index is in `skip` are left out
    without being read.  The third value is the set of rows that hold a
    unit pivot of a reduced column.
    """
    pivots = {}  # row -> reduced column: a dict, or the index of a packed column
    aside = []
    ptr, rows, vals = columns.ptr, columns.rows, columns.vals

    def eliminate(vec, j):
        p = pivots[j]
        if p.__class__ is int:  # an emergent pivot, unpacked on its first use
            a, b = ptr[p], ptr[p + 1]
            p = pivots[j] = dict(zip(rows[a:b], vals[a:b]))
        f = vec[j] * p[j]  # p[j] is +-1
        for k, v in p.items():
            nv = vec.get(k, 0) - f * v
            if nv:
                vec[k] = nv
            else:
                del vec[k]  # nv = 0 only where vec held f * v

    def reduce_col(vec):
        while vec:
            j = min(vec)
            if j not in pivots:
                return vec, j
            eliminate(vec, j)
        return vec, None

    for i, (a, b) in enumerate(zip(ptr, ptr[1:])):
        if a == b or i in skip:
            continue
        col_rows = rows[a:b]
        j = min(col_rows)
        if j not in pivots and vals[a + col_rows.index(j)] in (1, -1):
            pivots[j] = i
            continue
        vec, j = reduce_col(dict(zip(col_rows, vals[a:b])))
        if j is None:
            continue
        if vec[j] in (1, -1):
            pivots[j] = vec
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
                pivots[j] = vec
                promoted = True
            else:
                still.append(vec)
        aside = still
    if not aside:
        return len(pivots), [], set(pivots)
    for vec in aside:
        # a pivot only adds rows below its own leading row, so this ends
        hits = [k for k in vec if k in pivots]
        while hits:
            eliminate(vec, min(hits))
            hits = [k for k in vec if k in pivots]
    invariants = smith_invariants(aside)
    torsion = [x for x in invariants if x > 1]
    return len(pivots) + len(invariants), torsion, set(pivots)


def _transpose(columns, nrows):
    """The transpose of `columns` (with `nrows` rows), packed the same way.

    The entry counts per row give the new offsets, and a stable sort of
    the entries by row puts them in place, each new column in ascending
    order of the old columns."""
    ptr, rows = columns.ptr, columns.rows
    col_of = array("q")
    for j, (a, b) in enumerate(zip(ptr, ptr[1:])):
        col_of.extend([j] * (b - a))
    order = sorted(range(len(rows)), key=rows.__getitem__)
    counts = Counter(rows)
    out_ptr = array("q", [0])
    out_ptr.extend(accumulate(map(counts.__getitem__, range(nrows))))
    out_rows = array("q", map(col_of.__getitem__, order))
    return PackedColumns(out_ptr, out_rows, list(map(columns.vals.__getitem__, order)))


def _profile_slice(cx, s):
    """(rank, torsion) of every differential of slice s, with clearing.

    The spots are reduced from the top degree down.  The unit-pivot rows
    of the reduced columns of d_(s,d+1) are columns of d_(s,d) that need
    no work: each reduced column R is a Z-combination of boundaries, so
    d(R) = 0 by d*d = 0 (asserted in the build), and since R has +-1 at its
    pivot row i and every other entry at a larger row, column i of d_(s,d)
    is a Z-combination of columns with larger index.  Taking the cleared
    rows from the largest down, each cleared column lies in the Z-span of
    the columns that are not cleared, so dropping them all leaves the
    Z-span of the columns, hence the rank and the Smith invariants,
    unchanged (the twist, or clearing, of persistent homology: Chen and
    Kerber 2011; Bauer, Kerber and Reininghaus 2014).

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
    other words follow in code order.  Both have every other entry at a
    larger index, so the same lemma clears both columns.  The source
    spots are profiled first; a spot keeps its pivot rows only when some
    top spot inherits them, as an int64 array in `cx._inherited` under
    (that slice, |g|), and the top spot drops them once read.  A spot with
    nothing to clear it (the top spot with no inherited rows, or a spot
    below a transposed one) reduces its transpose when it has fewer rows
    than nonzero columns: the rank and the invariants are the same, but its
    pivots then index its columns, so it passes no cleared set on.
    """
    degs = _desusp(cx.coalgebra)
    k = len(degs)
    plain = {g for g in range(k) if not cx.coalgebra.diagonal(g)}
    plain_degs = {degs[g] for g in plain}
    tops = {}
    for ss, d in cx.spots:
        tops[ss] = max(d, tops.get(ss, d))
    top = tops[s]
    for gd in plain_degs:
        _spot_profile(cx, (s - gd - 1, top - gd + 1))
    cleared, start, words = set(), 0, cx.spots[(s, top)]
    for g, gd in enumerate(degs):
        sub = cx.spots.get((s - gd - 1, top - gd), ())
        rows = cx._inherited.get((s, gd)) if g in plain else None
        if rows:
            cleared.update(map(start.__add__, rows))
            cleared.update(bisect_left(words, sub[i] * k + g) for i in rows)
        start += len(sub)
    for gd in plain_degs:
        cx._inherited.pop((s, gd), None)

    for d in sorted((d for ss, d in cx.spots if ss == s), reverse=True):
        cols = cx.diffs[(s, d)]
        nrows = len(cx.spots.get((s, d - 1), ()))
        # ptr never decreases, so its distinct values less one count the nonzero columns
        if not cleared and nrows < len(set(cols.ptr)) - 1:
            rank, torsion, _ = _sparse_rank_and_torsion(_transpose(cols, nrows))
        else:
            rank, torsion, cleared = _sparse_rank_and_torsion(cols, cleared)
            heirs = [gd for gd in plain_degs if tops.get(s + gd + 1) == d + gd - 1]
            if heirs and cleared:
                rows = array("q", cleared)
                for gd in heirs:
                    cx._inherited[s + gd + 1, gd] = rows
        cx._profiles[(s, d)] = rank, torsion


def _spot_profile(cx, key):
    """Memoized (rank, torsion) of the differential columns leaving `key`."""
    if key not in cx.spots:
        return 0, []
    if key not in cx._profiles:
        _profile_slice(cx, key[0])
    return cx._profiles[key]


def _spot_homology(cx, key):
    """(free rank, torsion list) of the homology at one spot (s, d)."""
    s, d = key
    rank_in, torsion = _spot_profile(cx, (s, d + 1))
    rank = len(cx.spots[key]) - _spot_profile(cx, key)[0] - rank_in
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


@dataclass(frozen=True)
class VerificationRow:
    degree: int
    chain_dim: int
    rank: int
    expected_rank: int
    torsion: tuple
    rank_ok: bool
    torsion_ok: bool


@dataclass(frozen=True)
class VerificationReport:
    space_label: str
    max_degree: int
    rows: tuple
    bigraded_ok: bool
    ok: bool
    torsion_primes: tuple


def verify_loop_homology(space, cutoff, max_cells=None):
    """Compare cobar homology with the closed-form loop-homology prediction.

    Ranks are checked at every degree <= cutoff against the inverse of the
    family's denominator, and at every spot (word length, degree) against
    the family's bigraded series.  Torsion must be supported on the
    family's torsion primes: none for unimodular inputs (manifolds,
    connected sums, Betti-1 models), the bad primes of the form for
    two-cell complexes.  Discrepancies populate the report; nothing raises.
    The ranks are expanded after the build, so the cell cap refuses first.
    """
    allowed_torsion = space.torsion_primes()
    cx = build_cobar(space.coalgebra(), cutoff, max_cells=max_cells)
    expected = space.denominator(cutoff).inverse().coefficients

    rows = []
    ok = True
    for d in range(cutoff + 1):
        rank, torsion = homology(cx, d)
        rank_ok = rank == expected[d]
        torsion_ok = all(_strip_primes(t, allowed_torsion) == 1 for t in torsion)
        ok = ok and rank_ok and torsion_ok
        rows.append(
            VerificationRow(d, cx.dim(d), rank, expected[d], tuple(torsion), rank_ok, torsion_ok)
        )

    bigraded_ok = _euler_audit(cx, space.bigraded_series(cutoff))
    ok = ok and bigraded_ok
    return VerificationReport(
        space.label, cutoff, tuple(rows), bigraded_ok, ok, tuple(sorted(allowed_torsion))
    )


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
    predicted[(s - d, d)], and no predicted rank may lack its spot.  Run
    after the homology rows, it reads only rank profiles they memoised.
    """
    found = {}
    for s, d in cx.spots:
        if d <= cx.cutoff:
            rank = _spot_homology(cx, (s, d))[0]
            if rank:
                found[(s - d, d)] = rank
    return found == {key: c for key, c in predicted.items() if 1 <= key[1] <= cx.cutoff}
