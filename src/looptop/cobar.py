"""Integral cobar construction and Smith-normal-form homology oracle.

The chain complex is the tensor algebra on the desuspended reduced
homology of the space, with the differential extending the desuspended
reduced diagonal as a degree -1 derivation.  Both the homological degree
and the quantity degree + weight are preserved-or-respected by the
differential (degree drops by one, weight rises by one), so the complex
splits into finite slices indexed by s = degree + weight; all linear
algebra runs per slice, exactly, over the integers.
"""

import os
from dataclasses import dataclass, field

from ._linalg import smith_normal_form as _dense_snf
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

    spots[(s, d)] is the ordered word basis in that bidegree and
    diffs[(s, d)] holds the sparse columns of the differential into
    (s, d-1).  `complete_degree` is the largest homological degree whose
    homology is fully determined by the stored window.
    """

    coalgebra: FiniteCoalgebra
    cutoff: int
    complete_degree: int
    slice_complete: bool = False
    spots: dict = field(default_factory=dict)
    index: dict = field(default_factory=dict)
    diffs: dict = field(default_factory=dict)
    _profiles: dict = field(default_factory=dict)

    def slices(self):
        return sorted({s for (s, _) in self.spots})

    def basis(self, d):
        if d == 0:
            return [()]
        out = []
        for (s, dd) in sorted(self.spots):
            if dd == d:
                out.extend(self.spots[(s, dd)])
        return out

    def dim(self, d):
        if d == 0:
            return 1
        return sum(len(words) for (s, dd), words in self.spots.items() if dd == d)

    def differential_matrix(self, d):
        """Dense integer matrix of the boundary map C_d -> C_{d-1}.

        Rows follow basis(d-1), columns follow basis(d); blocks off the
        common slice are zero.
        """
        rows = self.basis(d - 1)
        row_pos = {}
        offset = 0
        for (s, dd) in sorted(self.spots):
            if dd == d - 1:
                for i, w in enumerate(self.spots[(s, dd)]):
                    row_pos[(s, w)] = offset + i
                offset += len(self.spots[(s, dd)])
        cols = []
        for (s, dd) in sorted(self.spots):
            if dd != d:
                continue
            for col in self.diffs.get((s, dd), []):
                dense = {}
                for r, v in col.items():
                    word = self.spots[(s, d - 1)][r]
                    dense[row_pos[(s, word)]] = v
                cols.append(dense)
        matrix = [[0] * len(cols) for _ in range(len(rows))]
        for j, col in enumerate(cols):
            for i, v in col.items():
                matrix[i][j] = v
        return matrix


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


def build_cobar(coalgebra, cutoff, max_cells=None, slice_mode=False):
    """Cobar complex of a finite coalgebra up to a degree window.

    With slice_mode=False the word basis is filtered by homological degree
    <= cutoff, so homology is complete for d < cutoff.  With
    slice_mode=True every slice that can contain a word of degree <=
    cutoff is built in full, making homology complete for d <= cutoff
    (the slices extend above the cutoff degree as needed).
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    if max_cells is None:
        max_cells = _max_cells_default()
    degs = _desusp(coalgebra)
    if any(d < 1 for d in degs):
        raise ValidationError("every generator must have degree >= 2 before desuspension")
    r = len(degs)
    min_deg = min(degs)
    if slice_mode:
        slice_cap = cutoff + cutoff // min_deg
        keep = lambda degree, weight: degree + weight <= slice_cap
        complete = cutoff
    else:
        keep = lambda degree, weight: degree <= cutoff
        complete = cutoff - 1

    spots = {}
    count = 0
    stack = [((i,), degs[i], 1) for i in range(r) if keep(degs[i], 1)]
    while stack:
        word, degree, weight = stack.pop()
        spots.setdefault((degree + weight, degree), []).append(word)
        count += 1
        if count > max_cells:
            raise ValidationError(
                f"chain complex exceeds {max_cells} words; raise LOOPTOP_MAX_CELLS "
                f"or lower the degree cutoff"
            )
        for i in range(r):
            nd, nw = degree + degs[i], weight + 1
            if keep(nd, nw):
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

    cx = ChainComplex(coalgebra, cutoff, complete, slice_mode, spots, index, diffs)
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
    operations), so projecting them to the remaining rows and running the
    dense SNF finishes the computation exactly.
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
    rows = sorted({r for vec in aside for r in vec})
    pos = {r: i for i, r in enumerate(rows)}
    dense = [[0] * len(aside) for _ in rows]
    for j, vec in enumerate(aside):
        for r, v in vec.items():
            dense[pos[r]][j] = v
    invariants, _, _ = _dense_snf(dense)
    torsion = [x for x in invariants if x > 1]
    return len(pivots) + len(invariants), torsion


def _spot_profile(cx, key):
    """Memoized (rank, torsion) of the differential columns leaving `key`."""
    if key not in cx._profiles:
        cols = cx.diffs.get(key, [])
        cx._profiles[key] = _sparse_rank_and_torsion(cols) if cols else (0, [])
    return cx._profiles[key]


def homology(cx, d):
    """(free rank, torsion list) of H_d, computed slice by slice.

    Needs the boundary from degree d+1 inside the window, so d must not
    exceed the complex's complete_degree.
    """
    if d < 0:
        raise ValidationError("degree must be >= 0")
    if d > cx.complete_degree:
        raise WindowError(
            f"homology at degree {d} needs chains above the cutoff "
            f"(complete through {cx.complete_degree})"
        )
    if d == 0:
        return 1, []  # the empty word: the algebra unit, never a boundary
    rank = 0
    torsion = []
    for (s, dd) in sorted(cx.spots):
        if dd != d:
            continue
        dim = len(cx.spots[(s, dd)])
        rank_out = _spot_profile(cx, (s, dd))[0]
        rank_in, tors = _spot_profile(cx, (s, dd + 1))
        piece = dim - rank_out - rank_in
        if piece < 0:
            raise IntegrityError(f"negative homology rank at slice {s}, degree {d}")
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
    euler_ok: bool
    ok: bool
    notes: tuple


def verify_loop_homology(space, cutoff, max_cells=None):
    """Compare cobar homology with the closed-form loop-homology prediction.

    Ranks are checked at every degree <= cutoff against the inverse of the
    family's denominator.  Torsion must be supported on the family's
    torsion primes: none for unimodular inputs (manifolds, connected sums,
    Betti-1 models), the bad primes of the form for two-cell complexes.
    Discrepancies populate the report; nothing raises.
    """
    series = space.denominator(cutoff).inverse()
    expected = [int(series[d]) for d in range(cutoff + 1)]
    allowed_torsion = space.torsion_primes()
    cx = build_cobar(space.coalgebra(), cutoff, max_cells=max_cells, slice_mode=True)
    notes = []
    if allowed_torsion:
        notes.append(f"torsion allowed only at primes {sorted(allowed_torsion)}")

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

    euler_ok = _euler_audit(cx)
    ok = ok and euler_ok
    return VerificationReport(space.label, cutoff, tuple(rows), euler_ok, ok, tuple(notes))


def _strip_primes(value, primes):
    """`value` with every factor from `primes` divided out."""
    for p in primes:
        while value % p == 0:
            value //= p
    return value


def _euler_audit(cx):
    """Per-slice alternating sums of chain dims must match homology ranks.

    Within a complete slice the boundary maps stay inside the slice, so
    the alternating sum of spot dimensions must equal the alternating sum
    of the homology ranks computed there.
    """
    for s in cx.slices():
        spot_degrees = sorted(d for (ss, d) in cx.spots if ss == s)
        if not spot_degrees:
            continue
        if not cx.slice_complete and s > cx.cutoff:
            continue  # slice truncated by the degree filter; audit not meaningful
        chain_sum = 0
        hom_sum = 0
        for d in spot_degrees:
            sign = -1 if d % 2 else 1
            dim = len(cx.spots[(s, d)])
            chain_sum += sign * dim
            rank_out = _spot_profile(cx, (s, d))[0]
            rank_in = _spot_profile(cx, (s, d + 1))[0]
            hom_sum += sign * (dim - rank_out - rank_in)
        if chain_sum != hom_sum:
            return False
    return True
