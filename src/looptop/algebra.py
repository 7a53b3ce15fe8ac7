"""Words over a degree-weighted alphabet, tensor elements, and relations.

Words are plain tuples of letter indices; lexicographic comparison is
tuple comparison, which matches the alphabet order by construction.  A
TensorElement is a sparse homogeneous rational combination of words.  The
quadratic relation of a space arrives as an (anti)symmetric intersection
matrix and leaves as a NormalizedRelation: a rewrite rule x0 x1 -> f_alg
together with the Lie tail of the eliminated bracket.
"""

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import mat_inverse, mat_mul, mat_transpose, rank_rational
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
    def uniform(cls, r, degree, prefix="α"):
        return cls(tuple([degree] * r), tuple(_sub(prefix, i + 1) for i in range(r)))

    @property
    def size(self):
        return len(self.degrees)

    def word_degree(self, word):
        return sum(self.degrees[i] for i in word)

    def word_name(self, word):
        return "".join(self.names[i] for i in word)


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

    def is_zero(self):
        return not self.terms

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

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms):
            c = self.terms[word]
            name = self.alphabet.word_name(word)
            if c == 1:
                parts.append(f"+ {name}")
            elif c == -1:
                parts.append(f"- {name}")
            elif c > 0:
                parts.append(f"+ {c}·{name}")
            else:
                parts.append(f"- {-c}·{name}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def evaluate(self, matrices):
        """Substitute a square matrix per letter; returns the resulting matrix."""
        size = len(matrices[0])
        total = [[Fraction(0)] * size for _ in range(size)]
        for word, coeff in self.terms.items():
            prod = [[Fraction(1) if i == j else Fraction(0) for j in range(size)] for i in range(size)]
            for letter in word:
                prod = mat_mul(prod, matrices[letter])
            for i in range(size):
                for j in range(size):
                    total[i][j] += coeff * prod[i][j]
        return total


def single_letter(alphabet, i):
    return TensorElement(alphabet, {(i,): Fraction(1)})


@dataclass(frozen=True)
class IntersectionRelation:
    """The quadratic relation sum g_ij x_i x_j with its symmetry type."""

    matrix: tuple  # rows of Fractions
    symmetry: str  # "symmetric" | "skew"

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
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

    def tensor(self, alphabet):
        terms = {}
        for i, row in enumerate(self.matrix):
            for j, g in enumerate(row):
                if g != 0:
                    terms[(i, j)] = g
        return TensorElement(alphabet, terms)

    def lie_tensor(self, alphabet):
        """Upper-triangle bracket combination sum_{i<j} g_ij [x_i, x_j]."""
        out = TensorElement(alphabet, {})
        for i in range(self.size):
            for j in range(i + 1, self.size):
                g = self.matrix[i][j]
                if g != 0:
                    out = out + single_letter(alphabet, i).commutator(single_letter(alphabet, j)).scale(g)
        return out


@dataclass(frozen=True)
class NormalizedRelation:
    """Plane-split normal form of an intersection relation.

    basis_change holds the congruence B with B g B^T = matrix, so entry
    (0,1) of the transformed pairing is 1 and rows/columns 0,1 vanish
    against letters >= 2.  The relation element then has coefficient
    matrix `matrix` when written in the letters that correspond to the
    rows of letter_map = B^(-T) (coefficients of a tensor transform
    contravariantly to the pairing), and reads x0 x1 = f_alg; the
    eliminated bracket satisfies [x0, x1] = lie_tail with lie_tail
    supported on letters >= 2.
    """

    alphabet: Alphabet
    basis_change: tuple  # rows: the plane-split basis in old coordinates
    letter_map: tuple  # rows: new letters as combinations of old letters
    matrix: tuple  # transformed pairing = relation coefficient matrix
    symmetry: str
    f_alg: TensorElement
    lie_tail: TensorElement

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


def _pair(matrix, u, v):
    n = len(matrix)
    return sum(u[i] * matrix[i][j] * v[j] for i in range(n) for j in range(n))


def _find_plane(rel):
    """Indices / vectors spanning a nonsingular plane, plus dropped basis slots."""
    g = [list(row) for row in rel.matrix]
    n = len(g)
    e = lambda i: [Fraction(1) if k == i else Fraction(0) for k in range(n)]
    if rel.symmetry == "skew":
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != 0:
                    v0 = [x / g[i][j] for x in e(i)]
                    return v0, e(j), (i, j)
        raise UnsupportedSpaceError("skew relation is zero; rank < 2")
    # symmetric: first try coordinate planes
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][i] * g[j][j] - g[i][j] * g[i][j] != 0:
                return e(i), e(j), (i, j)
    # all coordinate planes singular; pick a diagonal entry and project
    for i in range(n):
        if g[i][i] != 0:
            v0 = e(i)
            projected = []
            for j in range(n):
                if j == i:
                    continue
                w = [a - Fraction(g[i][j], g[i][i]) * b for a, b in zip(e(j), v0)]
                projected.append((j, w))
            for j, w in projected:
                if _pair(g, w, w) != 0:
                    return v0, w, (i, j)
            for a in range(len(projected)):
                for b in range(a + 1, len(projected)):
                    j, w1 = projected[a]
                    _, w2 = projected[b]
                    w = [x + y for x, y in zip(w1, w2)]
                    if _pair(g, w, w) != 0:
                        return v0, w, (i, j)
            raise UnsupportedSpaceError("form has rank < 2")
    raise UnsupportedSpaceError("symmetric form with zero diagonal and singular planes has rank < 2")


def normalize_relation(alphabet, rel):
    """Nonsingular-plane-split normal form over the rationals.

    Finds a plane with pairing(v0, v1) = 1, orthogonalizes the remaining
    basis vectors against it, and reorders letters so the plane occupies
    positions 0 and 1.  The resulting rewrite sends x0 x1 to f_alg (which
    contains no x0 x1 term) and the eliminated bracket to a tail supported
    on letters >= 2.
    """
    if rel.size != alphabet.size:
        raise ValidationError("alphabet and relation size differ")
    if rel.size < 2 or rel.rank() < 2:
        raise UnsupportedSpaceError("normalization needs rank >= 2")
    g = [list(row) for row in rel.matrix]
    n = rel.size
    v0, v1, (i0, j0) = _find_plane(rel)
    beta = _pair(g, v0, v1)
    if beta == 0:
        v1 = [a + b for a, b in zip(v0, v1)]
        beta = _pair(g, v0, v1)
    v1 = [x / beta for x in v1]
    plane = [[_pair(g, v0, v0), _pair(g, v0, v1)], [_pair(g, v1, v0), _pair(g, v1, v1)]]
    rest = []
    kept = [k for k in range(n) if k not in (i0, j0)]
    e = lambda i: [Fraction(1) if k == i else Fraction(0) for k in range(n)]
    plane_inv = mat_inverse(plane)
    for k in kept:
        w = e(k)
        rhs = [_pair(g, v0, w), _pair(g, v1, w)]
        a = plane_inv[0][0] * rhs[0] + plane_inv[0][1] * rhs[1]
        b = plane_inv[1][0] * rhs[0] + plane_inv[1][1] * rhs[1]
        w = [x - a * p - b * q for x, p, q in zip(w, v0, v1)]
        rest.append((k, w))

    basis = [v0, v1] + [w for _, w in rest]
    home = [i0, j0] + [k for k, _ in rest]
    new_degrees = tuple(alphabet.degrees[h] for h in home)
    new_names = tuple(alphabet.names[h] for h in home)
    B = basis
    letter_map = mat_transpose(mat_inverse(B))
    for row, vec in enumerate(letter_map):
        for col, val in enumerate(vec):
            if val != 0 and alphabet.degrees[col] != new_degrees[row]:
                raise IntegrityError("basis change would mix letters of different degrees")
    new_alphabet = Alphabet(new_degrees, new_names)

    Bt = mat_transpose(B)
    G = mat_mul(mat_mul(B, g), Bt)
    if G[0][1] != 1:
        raise IntegrityError("plane normalization failed to make pairing(v0, v1) = 1")
    for k in range(2, n):
        if G[0][k] != 0 or G[1][k] != 0 or G[k][0] != 0 or G[k][1] != 0:
            raise IntegrityError("plane split left a residual pairing with letters >= 2")

    # relation sum G_ij x_i x_j = 0 solved for the (0,1) slot
    f_terms = {}
    for i in range(n):
        for j in range(n):
            if (i, j) == (0, 1) or G[i][j] == 0:
                continue
            f_terms[(i, j)] = -G[i][j]
    f_alg = TensorElement(new_alphabet, f_terms)
    tail_terms = {}
    for i in range(2, n):
        for j in range(i + 1, n):
            if G[i][j] != 0:
                tail_terms[(i, j)] = tail_terms.get((i, j), Fraction(0)) - G[i][j]
                tail_terms[(j, i)] = tail_terms.get((j, i), Fraction(0)) + G[i][j]
    lie_tail = TensorElement(new_alphabet, tail_terms)
    return NormalizedRelation(
        alphabet=new_alphabet,
        basis_change=tuple(tuple(row) for row in B),
        letter_map=tuple(tuple(row) for row in letter_map),
        matrix=tuple(tuple(row) for row in G),
        symmetry=rel.symmetry,
        f_alg=f_alg,
        lie_tail=lie_tail,
    )
