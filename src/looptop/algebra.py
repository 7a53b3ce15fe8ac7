"""Words over a degree-weighted alphabet, tensor elements, and relations.

Words are plain tuples of letter indices; lexicographic comparison is
tuple comparison, which matches the alphabet order by construction.  A
TensorElement is a sparse homogeneous rational combination of words.  The
quadratic relation of a space arrives as an integral (anti)symmetric
intersection matrix and leaves as a NormalizedRelation: its letters
reordered so that two letters spanning a nonsingular plane of the form come
first and the rest keep their order.  Splitting that plane off over the rationals would turn the relation
into a rewrite rule x0 x1 -> (words without x0 x1); every count reads only
the forbidden factor x0 x1, so the letter order is found by an integer
search and the congruence itself is never formed.
"""

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import rank_rational
from .errors import IntegrityError, UnsupportedSpaceError, ValidationError


@dataclass(frozen=True)
class Alphabet:
    """Ordered letters; index i has degree degrees[i] and display name names[i]."""

    degrees: tuple
    names: tuple

    def __post_init__(self):
        if len(self.degrees) != len(self.names):
            raise ValidationError("degrees and names must align")
        if any(d < 1 for d in self.degrees):
            raise ValidationError("letter degrees must be >= 1")

    @classmethod
    def uniform(cls, r, degree):
        return cls(tuple([degree] * r), tuple(_sub("α", i + 1) for i in range(r)))

    @property
    def size(self):
        return len(self.degrees)

    def word_degree(self, word):
        return sum(self.degrees[i] for i in word)


_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def _sub(prefix, i):
    return prefix + str(i).translate(_SUBSCRIPTS)


@dataclass(frozen=True)
class TensorElement:
    """Homogeneous sparse element of the tensor algebra on an alphabet."""

    alphabet: Alphabet
    terms: dict  # word tuple -> Fraction, no zeros stored

    def __post_init__(self):
        clean = {}
        degree = None
        for word, coeff in self.terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            d = self.alphabet.word_degree(word)
            if degree is None:
                degree = d
            elif d != degree:
                raise ValidationError("tensor element must be homogeneous")
            clean[tuple(word)] = coeff
        object.__setattr__(self, "terms", clean)

    @property
    def degree(self):
        for word in self.terms:
            return self.alphabet.word_degree(word)
        return None

    def __add__(self, other):
        if other.alphabet != self.alphabet:
            raise ValidationError("mixed alphabets")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return TensorElement(self.alphabet, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return TensorElement(self.alphabet, {w: v * c for w, v in self.terms.items()})

    def __mul__(self, other):
        if other.alphabet != self.alphabet:
            raise ValidationError("mixed alphabets")
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return TensorElement(self.alphabet, out)

    def commutator(self, other):
        return self * other - other * self

    def leading_word(self):
        """Lexicographically smallest word present."""
        if not self.terms:
            return None
        return min(self.terms)


@dataclass(frozen=True)
class IntersectionRelation:
    """The quadratic relation sum g_ij x_i x_j with its symmetry type."""

    matrix: tuple  # rows of ints
    symmetry: str  # "symmetric" | "skew"

    def __post_init__(self):
        if any(x != int(x) for row in self.matrix for x in row):
            raise ValidationError("relation matrix must be integral")
        rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValidationError("relation matrix must be square")
        if self.symmetry == "symmetric":
            if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(n)):
                raise ValidationError("matrix is not symmetric")
        elif self.symmetry == "skew":
            if any(rows[i][j] != -rows[j][i] for i in range(n) for j in range(n)):
                raise ValidationError("matrix is not skew-symmetric")
            if any(rows[i][i] != 0 for i in range(n)):
                raise ValidationError("skew matrix must have zero diagonal")
        else:
            raise ValidationError(f"unknown symmetry {self.symmetry!r}")

    @property
    def size(self):
        return len(self.matrix)

    def rank(self):
        return rank_rational([list(row) for row in self.matrix])


@dataclass(frozen=True)
class NormalizedRelation:
    """The letters of a relation in normal order: the plane letters, then the rest.

    The plane letters (i0, j0) span a nonsingular plane of the form g: for a
    skew form the first g_ij != 0; for a symmetric form the first coordinate
    plane with g_ii g_jj != g_ij^2, or else the first i with g_ii != 0 and
    the first j1 != i that has some j2 outside {i, j1} with
    g_ii g_j1j2 != g_ij1 g_ij2.  The other letters keep their order.  With
    the plane split off, the relation reads x0 x1 = (words without x0 x1),
    so x0 x1 is the one forbidden factor of the irreducible words.
    """

    alphabet: Alphabet

    @property
    def forbidden_pair(self):
        return (0, 1)


def _hyperbolic_block():
    return [[0, 1], [1, 0]]


def _symplectic_block():
    return [[0, 1], [-1, 0]]


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[at + i][at + j] = v
        at += len(b)
    return out


def default_manifold_matrix(n, r):
    """A unimodular matrix of the parity forced by n.

    n odd needs a skew form, so r must be even: direct sum of symplectic
    blocks.  n even: hyperbolic blocks, plus a diagonal <1> if r is odd.
    The decomposition depends only on (n, r), so any unimodular
    representative serves.
    """
    if n % 2 == 1:
        if r % 2 == 1:
            raise ValidationError(
                f"no skew unimodular form of odd rank {r}: an (n-1)-connected 2n-manifold "
                f"with n odd has even middle Betti number"
            )
        return _block_diag([_symplectic_block()] * (r // 2))
    blocks = [_hyperbolic_block()] * (r // 2)
    if r % 2 == 1:
        blocks.append([[1]])
    return _block_diag(blocks)


def relation_from_space(space):
    """Alphabet and intersection relation of a validated space model.

    The family answers through `space.relation()`; Betti-one models and
    forms of rational rank below 2 raise UnsupportedSpaceError.
    """
    return space.relation()


def _plane_letters(g, symmetry):
    """The first letters (i0, j0) spanning a nonsingular plane of g, or None."""
    n = len(g)
    coordinate = ((i, j) for i in range(n) for j in range(i + 1, n))
    if symmetry == "skew":
        return next(((i, j) for i, j in coordinate if g[i][j]), None)
    plane = next(((i, j) for i, j in coordinate if g[i][i] * g[j][j] != g[i][j] ** 2), None)
    if plane is not None:
        return plane
    # every coordinate plane is singular, so the projection of each other
    # letter j off an anisotropic letter i pairs to zero with itself, and i
    # spans a plane with j1 exactly when the projections of j1 and some j2
    # pair to g_j1j2 - g_ij1 g_ij2 / g_ii != 0
    i = next((i for i in range(n) if g[i][i]), None)
    if i is None:
        return None
    others = [j for j in range(n) if j != i]
    for j1 in others:
        if any(g[i][i] * g[j1][j2] != g[i][j1] * g[i][j2] for j2 in others if j2 != j1):
            return i, j1
    return None


def normalize_relation(alphabet, rel):
    """The NormalizedRelation of `rel`, by an integer search for its plane.

    A plane exists exactly when the form has rank >= 2, so a form of lower
    rank is refused.  A relation whose nonzero g_ij do not all have the same
    degree deg_i + deg_j is not homogeneous, which no space model produces.
    """
    if rel.size != alphabet.size:
        raise ValidationError("alphabet and relation size differ")
    plane = _plane_letters(rel.matrix, rel.symmetry)
    if plane is None:
        raise UnsupportedSpaceError("normalization needs rank >= 2")
    degrees = alphabet.degrees
    weights = {degrees[i] + degrees[j] for i, row in enumerate(rel.matrix) for j, v in enumerate(row) if v}
    if len(weights) > 1:
        raise IntegrityError(f"relation mixes the degrees {sorted(weights)}: it is not homogeneous")
    order = [*plane, *(k for k in range(rel.size) if k not in plane)]
    return NormalizedRelation(
        Alphabet(tuple(degrees[k] for k in order), tuple(alphabet.names[k] for k in order))
    )
