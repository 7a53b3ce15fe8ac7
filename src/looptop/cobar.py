"""Integral cobar construction and Smith-normal-form homology oracle.

The chain complex is the tensor algebra on the desuspended reduced
homology of the space, with the differential extending the desuspended
reduced diagonal as a degree -1 derivation.  The differential lowers the
homological degree by one and raises the weight (word length) by one, so
the complex splits into finite slices indexed by s = degree + weight; all
linear algebra runs per slice, exactly, over the integers.  A build at
cutoff D keeps the words of degree at most D + 1 in the slices that can
reach a degree <= D, which is what homology through degree D needs.
"""

import os
from dataclasses import dataclass, field

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


@dataclass
class ChainComplex:
    """Cobar chain complex, stored per slice s = degree + weight.

    spots[(s, d)] is the ordered word basis in that bidegree, index[(s, d)]
    maps each word to its position there, and diffs[(s, d)] holds the
    sparse columns of the differential into (s, d-1).  Homology is
    complete through degree `cutoff`.
    """

    coalgebra: FiniteCoalgebra
    cutoff: int
    spots: dict = field(default_factory=dict)
    index: dict = field(default_factory=dict)
    diffs: dict = field(default_factory=dict)
    _profiles: dict = field(default_factory=dict)

    def dim(self, d):
        if d == 0:
            return 1
        return sum(len(words) for (s, dd), words in self.spots.items() if dd == d)


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


def build_cobar(coalgebra, cutoff, max_cells=None):
    """Cobar complex of a finite coalgebra; cutoff is the last complete degree.

    A word of degree d and weight w is kept when d <= cutoff + 1 and
    d + w <= cutoff + cutoff // (smallest generator degree).  Every word of
    degree <= cutoff passes, and so does every word of degree cutoff + 1 in
    a slice that holds one, so homology is complete through the cutoff.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    if max_cells is None:
        max_cells = _max_cells_default()
    degs = _desusp(coalgebra)
    if any(d < 1 for d in degs):
        raise ValidationError("every generator must have degree >= 2 before desuspension")
    slice_cap = cutoff + cutoff // min(degs)

    spots = {}
    count = 0
    stack = [((), 0, 0)]
    while stack:
        word, degree, weight = stack.pop()
        if word:
            spots.setdefault((degree + weight, degree), []).append(word)
            count += 1
            if count > max_cells:
                raise ValidationError(
                    f"chain complex exceeds {max_cells} words; raise LOOPTOP_MAX_CELLS "
                    f"or lower the degree cutoff"
                )
        for i, deg in enumerate(degs):
            nd, nw = degree + deg, weight + 1
            if nd <= cutoff + 1 and nd + nw <= slice_cap:
                stack.append((word + (i,), nd, nw))
    for key in spots:
        spots[key].sort()
    index = {key: {w: i for i, w in enumerate(words)} for key, words in spots.items()}

    diag = _diagonal_desuspended(coalgebra)
    diffs = {}
    for (s, d), words in spots.items():
        target = index.get((s, d - 1))
        cols = []
        for word in words:
            col = {}
            prefix_deg = 0
            for i, gi in enumerate(word):
                if diag[gi]:
                    outer = -1 if prefix_deg % 2 else 1
                    for left, right, coeff in diag[gi]:
                        image = word[:i] + (left, right) + word[i + 1 :]
                        if target is None:
                            raise IntegrityError("differential image fell outside the window")
                        row = target[image]
                        val = col.get(row, 0) + outer * coeff
                        if val:
                            col[row] = val
                        else:
                            col.pop(row, None)
                prefix_deg += degs[gi]
            cols.append(col)
        diffs[(s, d)] = cols

    cx = ChainComplex(coalgebra, cutoff, spots, index, diffs)
    _assert_d_squared_zero(cx)
    return cx


def _assert_d_squared_zero(cx):
    for (s, d), cols in cx.diffs.items():
        lower = cx.diffs.get((s, d - 1))
        if lower is None:
            if any(cols):
                raise IntegrityError("differential image lands in a missing spot")
            continue
        for j, col in enumerate(cols):
            acc = {}
            for row, v in col.items():
                for row2, v2 in lower[row].items():
                    nv = acc.get(row2, 0) + v * v2
                    if nv:
                        acc[row2] = nv
                    else:
                        acc.pop(row2, None)
            if acc:
                word = cx.spots[(s, d)][j]
                raise IntegrityError(f"d*d != 0 on word {word}: sign convention broken")


def _sparse_rank_and_torsion(columns):
    """Exact rank and torsion invariants of an integer column family.

    Left-looking elimination with unit-leading pivots: integer column
    operations are unimodular, so after full reduction the cokernel of
    the original matrix is free on the non-pivot rows modulo the columns
    that could not find a unit pivot.  Those survivors are cleared on
    every pivot row by the unit pivots (more unimodular column
    operations), and their sparse Smith invariants, which
    `smith_invariants` certifies independently, finish the computation
    exactly.  With no survivor (the unimodular case) nothing more runs.
    """
    pivots = {}
    aside = []

    def eliminate(vec, j, p):
        f = vec[j] * p[j]  # p[j] is +-1
        for k, v in p.items():
            nv = vec.get(k, 0) - f * v
            if nv:
                vec[k] = nv
            else:
                vec.pop(k, None)

    def reduce_col(vec):
        while vec:
            j = min(vec)
            p = pivots.get(j)
            if p is None:
                return vec, j
            eliminate(vec, j, p)
        return vec, None

    for col in columns:
        vec, j = reduce_col({k: v for k, v in col.items() if v})
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
        return len(pivots), []
    for vec in aside:
        # a pivot only adds rows below its own leading row, so this ends
        hits = [k for k in vec if k in pivots]
        while hits:
            j = min(hits)
            eliminate(vec, j, pivots[j])
            hits = [k for k in vec if k in pivots]
    invariants = smith_invariants(aside)
    torsion = [x for x in invariants if x > 1]
    return len(pivots) + len(invariants), torsion


def _spot_profile(cx, key):
    """Memoized (rank, torsion) of the differential columns leaving `key`."""
    if key not in cx._profiles:
        cols = cx.diffs.get(key, [])
        cx._profiles[key] = _sparse_rank_and_torsion(cols) if cols else (0, [])
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
    """
    series = space.denominator(cutoff).inverse()
    expected = [int(series[d]) for d in range(cutoff + 1)]
    allowed_torsion = space.torsion_primes()
    cx = build_cobar(space.coalgebra(), cutoff, max_cells=max_cells)

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
