"""Words over a degree-weighted alphabet, tensor elements, and the plane search.

Words are plain tuples of letter indices; lexicographic comparison is
tuple comparison, which matches the alphabet order by construction.  A
TensorElement is a sparse homogeneous rational combination of words.  The
quadratic relation of a space arrives as its alphabet and the nonzero
entries (i, j, g_ij) of its integer form, both read off the space's
homology coalgebra (see `spaces`), and leaves as a NormalizedRelation:
its letters reordered so that two letters spanning a nonsingular plane
of the form come first and the rest keep their order.  Splitting that
plane off over the rationals would turn the relation into a rewrite rule
x0 x1 -> (words without x0 x1); every count reads only the forbidden
factor x0 x1, so the letter order is found by an integer search and the
congruence itself is never formed.
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

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
        """r letters of one degree, named as a manifold's: α₁, ..., α_r."""
        from .spaces import _sub

        return cls(tuple([degree] * r), tuple(_sub("α", i + 1) for i in range(r)))

    @property
    def size(self):
        return len(self.degrees)

    def word_degree(self, word):
        return sum(self.degrees[i] for i in word)


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
class NormalizedRelation:
    """The letters of a relation in normal order: the plane letters, then the rest.

    The plane letters (i0, j0) span a nonsingular plane of the form g: the
    first coordinate plane with g_ii g_jj != g_ij g_ji (on a skew form, the
    first g_ij != 0), or else the first i with g_ii != 0 and the first
    j1 != i that has some j2 outside {i, j1} with
    g_ii g_j1j2 != g_ij1 g_ij2.  The other letters keep their order.  With
    the plane split off, the relation reads x0 x1 = (words without x0 x1),
    so x0 x1 is the one forbidden factor of the irreducible words.
    """

    alphabet: Alphabet

    @property
    def forbidden_pair(self):
        return (0, 1)


def relation_from_space(space):
    """Alphabet and integer form of the quadratic relation of a space model.

    The family answers through `space.relation()`; Betti-one models and
    forms of rational rank below 2 raise UnsupportedSpaceError.
    """
    return space.relation()


def _plane_letters(n, form):
    """The first letters (i0, j0) spanning a nonsingular plane of the form
    g on n letters, given by its nonzero entries (i, j, g_ij), or None.

    A coordinate plane is nonsingular when g_ii g_jj != g_ij g_ji; on a skew
    form that is g_ij != 0.
    """
    g = defaultdict(int, {(i, j): v for i, j, v in form})  # reads 0 off the entries
    coordinate = ((i, j) for i in range(n) for j in range(i + 1, n))
    plane = next(((i, j) for i, j in coordinate if g[i, i] * g[j, j] != g[i, j] * g[j, i]), None)
    if plane is not None:
        return plane
    # every coordinate plane is singular, so the form is not skew unless it
    # is zero; the projection of each other letter j off an anisotropic
    # letter i pairs to zero with itself, and i spans a plane with j1
    # exactly when the projections of j1 and some j2 pair to
    # g_j1j2 - g_ij1 g_ij2 / g_ii != 0
    i = next((i for i in range(n) if g[i, i]), None)
    if i is None:
        return None
    others = [j for j in range(n) if j != i]
    for j1 in others:
        if any(g[i, i] * g[j1, j2] != g[i, j1] * g[i, j2] for j2 in others if j2 != j1):
            return i, j1
    return None


def normalize_relation(alphabet, form):
    """The NormalizedRelation of the relation sum g_ij x_i x_j, g = `form`.

    The form is given by its nonzero entries (i, j, g_ij), as the space's
    relation states it, and is symmetric or skew.  Its plane is
    found by an integer search; a plane exists exactly when the form has
    rank >= 2, so a form of lower rank is refused.  A relation whose
    nonzero g_ij do not all have the same degree deg_i + deg_j is not
    homogeneous, which no space model produces.
    """
    if any(max(i, j) >= alphabet.size for i, j, _ in form):
        raise ValidationError("alphabet and relation size differ")
    plane = _plane_letters(alphabet.size, form)
    if plane is None:
        raise UnsupportedSpaceError("normalization needs rank >= 2")
    degrees = alphabet.degrees
    weights = {degrees[i] + degrees[j] for i, j, v in form if v}
    if len(weights) > 1:
        raise IntegrityError(f"relation mixes the degrees {sorted(weights)}: it is not homogeneous")
    order = [*plane, *(k for k in range(alphabet.size) if k not in plane)]
    return NormalizedRelation(
        Alphabet(tuple(degrees[k] for k in order), tuple(alphabet.names[k] for k in order))
    )
