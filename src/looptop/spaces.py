"""Space models, validation, and decomposition / Moore reports.

Four families are supported: (n-1)-connected 2n-manifolds with middle
Betti number r, connected sums of products of simply connected spheres,
two-cell complexes (a wedge of r n-spheres with one 2n-cell), and the
Betti-number-one manifolds parametrized by the attaching data m.

Each family's class makes every per-family decision itself: `label`,
`to_json()`, `denominator(order)` (the inverse of the loop-homology
Hilbert series), `coalgebra()` (the integral homology coalgebra),
`relation()` (alphabet and quadratic relation), `torsion_primes()`,
`classify(window)`, `moore()` and `report(max_dim)`.  The first three
families share the one-relator quadratic pipeline, whose denominator is
1 - sum_i t^(|a_i|-1) + t^(|top|-2); Betti-one models have no quadratic
relation and answer from closed forms.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from ._linalg import det_int, rank_rational, smith_normal_form
from .cobar import FiniteCoalgebra
from .errors import IntegrityError, UnsupportedSpaceError, ValidationError
from .series import (
    GrowthRate,
    PowerSeries,
    connected_sum_denominator,
    growth_rate,
    manifold_denominator,
    pbw_match_graded,
    sphere_counts_from_denominator,
    sphere_summand_counts,
)


def _as_int_matrix(matrix, what="matrix"):
    rows = []
    for row in matrix:
        out = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValidationError(f"{what} entries must be integers")
            out.append(int(f))
        rows.append(tuple(out))
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValidationError(f"{what} must be square")
    return tuple(rows)


def _check_parity(matrix, n, what="matrix"):
    size = len(matrix)
    if n % 2 == 0:
        for i in range(size):
            for j in range(size):
                if matrix[i][j] != matrix[j][i]:
                    raise ValidationError(f"{what} must be symmetric when n is even")
    else:
        for i in range(size):
            for j in range(size):
                if matrix[i][j] != -matrix[j][i]:
                    raise ValidationError(f"{what} must be skew-symmetric when n is odd")
        for i in range(size):
            if matrix[i][i] != 0:
                raise ValidationError(f"{what} must have zero diagonal when n is odd")


class _FormSpace:
    """Shared by manifolds and two-cell complexes: r n-spheres with one
    2n-cell attached along the integral form `self.form`."""

    def denominator(self, order):
        return manifold_denominator(self.n, self.r, order)

    def coalgebra(self):
        gens = tuple((f"a{i + 1}", self.n) for i in range(self.r)) + (("top", 2 * self.n),)
        terms = tuple((i, j, g) for i, row in enumerate(self.form) for j, g in enumerate(row) if g)
        return FiniteCoalgebra(gens, {self.r: terms})

    def relation(self):
        # algebra is imported on first use, here and below, to keep it out
        # of the start-up of commands that never build a relation
        from .algebra import Alphabet, IntersectionRelation

        symmetry = "skew" if self.n % 2 else "symmetric"
        return Alphabet.uniform(self.r, self.n - 1), IntersectionRelation(self.form, symmetry)

    def torsion_primes(self):
        return frozenset()

    def report(self, max_dim):
        inverted = self.torsion_primes()
        counts = sphere_summand_counts(self.n, self.r, max_dim)
        growth = growth_rate(self.r) if self.r >= 3 else None
        return _quadratic_report(self, max_dim, counts, inverted, growth)


@dataclass(frozen=True)
class Manifold(_FormSpace):
    """Closed (n-1)-connected 2n-manifold with middle Betti number r.

    With r = 1 the loop homology is that of the Betti-one model, which
    answers the questions the quadratic pipeline cannot.
    """

    n: int
    r: int
    matrix: tuple = None

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("manifold needs n >= 2")
        if self.r < 1:
            raise ValidationError("manifold needs middle Betti number >= 1")
        if self.r == 1 and self.n not in (2, 4, 8):
            raise ValidationError(
                "Betti number 1 forces a Hopf-invariant-one class, so n must be 2, 4 or 8"
            )
        if self.n % 2 == 1 and self.r % 2 == 1:
            raise ValidationError(
                "odd n needs a skew unimodular intersection form, which forces an even "
                "middle Betti number"
            )
        if self.matrix is not None:
            m = _as_int_matrix(self.matrix, "intersection form")
            if len(m) != self.r:
                raise ValidationError("intersection form size must equal the Betti number")
            _check_parity(m, self.n, "intersection form")
            if abs(det_int([list(row) for row in m])) != 1:
                raise ValidationError("a closed-manifold intersection form must be unimodular")
            object.__setattr__(self, "matrix", m)

    @property
    def form(self):
        from .algebra import default_manifold_matrix

        return self.matrix if self.matrix is not None else default_manifold_matrix(self.n, self.r)

    @property
    def label(self):
        return f"M({self.n},{self.r})"

    def to_json(self):
        return {
            "type": "manifold",
            "n": self.n,
            "betti": self.r,
            "matrix": [list(row) for row in self.matrix] if self.matrix is not None else None,
        }

    def denominator(self, order):
        if self.r == 1:
            return BettiOne(self.n).denominator(order)
        return super().denominator(order)

    def relation(self):
        if self.r == 1:
            return BettiOne(self.n).relation()
        return super().relation()

    def classify(self, window=12):
        return "elliptic" if self.r <= 2 else "hyperbolic"

    def moore(self):
        if self.r == 1:
            return BettiOne(self.n).moore()
        return _MOORE_PRODUCT if self.r == 2 else _MOORE_NO_EXPONENT

    def report(self, max_dim):
        if self.r > 1:
            return super().report(max_dim)
        if self.n == 2:
            return betti_one_report(2, 0)
        raise ValidationError(
            "a Betti-number-one manifold with n in {4, 8} needs the attaching "
            "parameter m; use the Betti-1 model"
        )


@dataclass(frozen=True)
class ConnectedSum:
    """Connected sum of sphere products S^p_i x S^q_i with orientation signs."""

    factors: tuple
    signs: tuple = None

    def __post_init__(self):
        factors = tuple((int(p), int(q)) for p, q in self.factors)
        if not factors:
            raise ValidationError("connected sum needs at least one factor")
        total = factors[0][0] + factors[0][1]
        for p, q in factors:
            if p < 2 or q < 2:
                raise ValidationError("each constituent sphere must be simply connected (p, q >= 2)")
            if p + q != total:
                raise ValidationError("all sphere products must share the total dimension")
        signs = self.signs
        if signs is None:
            signs = tuple(1 for _ in factors)
        signs = tuple(int(s) for s in signs)
        if len(signs) != len(factors) or any(s not in (1, -1) for s in signs):
            raise ValidationError("signs must be a +-1 vector matching the factors")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "signs", signs)

    @property
    def r(self):
        return len(self.factors)

    @property
    def total_dimension(self):
        return self.factors[0][0] + self.factors[0][1]

    @property
    def label(self):
        return "#".join(f"(S{p}xS{q})" for p, q in self.factors)

    def to_json(self):
        return {
            "type": "connected-sum",
            "factors": [list(f) for f in self.factors],
            "signs": list(self.signs),
        }

    def denominator(self, order):
        return connected_sum_denominator(self.factors, order)

    def coalgebra(self):
        gens = []
        for k, (p, q) in enumerate(self.factors, start=1):
            gens.append((f"a{k}", p))
            gens.append((f"b{k}", q))
        gens.append(("top", self.total_dimension))
        wrap = (-1) ** self.total_dimension
        terms = []
        for k, sign in enumerate(self.signs):
            terms.append((2 * k, 2 * k + 1, sign))
            terms.append((2 * k + 1, 2 * k, sign * wrap))
        return FiniteCoalgebra(tuple(gens), {len(gens) - 1: tuple(terms)})

    def relation(self):
        from .algebra import Alphabet, IntersectionRelation, _sub

        degrees, names = [], []
        for k, (p, q) in enumerate(self.factors, start=1):
            degrees += [p - 1, q - 1]
            names += [_sub("α", k), _sub("β", k)]
        size = 2 * self.r
        m = [[0] * size for _ in range(size)]
        for k, sign in enumerate(self.signs):
            m[2 * k][2 * k + 1] = sign
            m[2 * k + 1][2 * k] = -sign
        return Alphabet(tuple(degrees), tuple(names)), IntersectionRelation(m, "skew")

    def torsion_primes(self):
        return frozenset()

    def classify(self, window=12):
        return "elliptic" if self.r == 1 else "hyperbolic"

    def moore(self):
        return _MOORE_PRODUCT if self.r == 1 else _MOORE_NO_EXPONENT

    def report(self, max_dim):
        counts = sphere_counts_from_denominator(self.denominator(max_dim), max_dim)
        return _quadratic_report(self, max_dim, counts, self.torsion_primes(), None)


@dataclass(frozen=True)
class TwoCellComplex(_FormSpace):
    """Wedge of r n-spheres with a single 2n-cell; Q is the cup-product form."""

    n: int
    matrix: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("two-cell complex needs n >= 2")
        m = _as_int_matrix(self.matrix, "cup-product form")
        if len(m) < 1:
            raise ValidationError("cup-product form must be nonempty")
        _check_parity(m, self.n, "cup-product form")
        object.__setattr__(self, "matrix", m)

    @property
    def r(self):
        return len(self.matrix)

    @property
    def form(self):
        return self.matrix

    @property
    def label(self):
        rows = ";".join(",".join(str(v) for v in row) for row in self.matrix)
        return f"X(n={self.n},Q=[{rows}])"

    def to_json(self):
        return {"type": "two-cell", "n": self.n, "matrix": [list(row) for row in self.matrix]}

    def relation(self):
        alphabet, rel = super().relation()
        if rel.rank() < 2:
            raise UnsupportedSpaceError("two-cell decomposition needs rank(Q over Q) >= 2")
        return alphabet, rel

    def torsion_primes(self):
        """The bad primes of the form: it is reported after inverting them."""
        return bad_primes(self.matrix)

    def classify(self, window=12):
        if self.r >= 3:
            return "hyperbolic"
        if rank_rational([list(row) for row in self.matrix]) < 2:
            raise UnsupportedSpaceError(
                "rational classification of a two-cell complex with r <= 2 and a "
                "degenerate form is out of reach here"
            )
        window = max(window, 6 * (self.n - 1))
        table = pbw_match_graded(self.denominator(window).inverse(), window)
        upper_support = [d for d in range(window // 2 + 1, window + 1) if table[d]]
        return "elliptic" if not upper_support else "hyperbolic"

    def moore(self):
        if self.r >= 3:
            return _MOORE_UNBOUNDED
        return _MOORE_WINDOW if self.classify() == "elliptic" else _MOORE_NO_EXPONENT


@dataclass(frozen=True)
class BettiOne:
    """Betti-number-one manifold: CP^2 (n=2) or V_{m,1} in dimensions 8 and 16.

    The homology coalgebra e_2n -> e_n (x) e_n gives no quadratic relation;
    the loop homology is Lambda[x_(n-1)] (x) Z[y_(3n-2)].
    """

    n: int
    m: int = 0

    def __post_init__(self):
        if self.n not in (2, 4, 8):
            raise ValidationError("Betti-1 manifolds exist only for n in {2, 4, 8}")
        if self.n == 2:
            object.__setattr__(self, "m", 0)
        elif self.n == 4:
            object.__setattr__(self, "m", int(self.m) % 12)
        else:
            object.__setattr__(self, "m", int(self.m) % 120)

    @property
    def label(self):
        return "CP2" if self.n == 2 else f"V(n={self.n},m={self.m})"

    def to_json(self):
        return {"type": "betti-one", "n": self.n, "m": self.m}

    def denominator(self, order):
        """(1 - t^(3n-2)) / (1 + t^(n-1))."""
        periodic = PowerSeries.of([1] + [0] * (3 * self.n - 3) + [-1], order)
        exterior = PowerSeries.of([1] + [0] * (self.n - 2) + [1], order)
        return periodic * exterior.inverse()

    def coalgebra(self):
        n = self.n
        return FiniteCoalgebra(((f"e{n}", n), (f"e{2 * n}", 2 * n)), {1: ((0, 0, 1),)})

    def relation(self):
        raise UnsupportedSpaceError("Betti number 1 is handled by the Betti-1 pipeline")

    def torsion_primes(self):
        return frozenset()

    def classify(self, window=12):
        return "elliptic"

    def moore(self):
        return _MOORE_BETTI_ONE

    def report(self, max_dim):
        return betti_one_report(self.n, self.m)


# ------------------------------------------------------------- factorization

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:  # deterministic for n < 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n, rng):
    if n % 2 == 0:
        return 2
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = _gcd(abs(x - y), n)
        if d != n:
            return d


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def factorize(n):
    """Sorted prime factors (with multiplicity) by trial division then Pollard rho."""
    n = abs(int(n))
    if n < 2:
        return []
    out = []
    for p in range(2, 100_000):
        if p * p > n:
            break
        while n % p == 0:
            out.append(p)
            n //= p
    if n == 1:
        return sorted(out)
    rng = random.Random(0xC0BA)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out.append(m)
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return sorted(out)


def bad_primes(matrix):
    """Primes where the form drops below rank 2: divisors of the 2x2-minor gcd."""
    m = _as_int_matrix(matrix, "form")
    size = len(m)
    g = 0
    for i in range(size):
        for j in range(i + 1, size):
            for k in range(size):
                for l in range(k + 1, size):
                    minor = m[i][k] * m[j][l] - m[i][l] * m[j][k]
                    g = _gcd(g, abs(minor))
    if g == 0:
        raise UnsupportedSpaceError(
            "form has rank < 2 over the rationals; every prime would be bad"
        )
    return set(factorize(g))


# ------------------------------------------------------------------- reports

@dataclass(frozen=True)
class MooreReport:
    verdict: str
    justification: str


_MOORE_PRODUCT = MooreReport(
    "elliptic-with-finite-exponents",
    "rationally elliptic; the homotopy groups agree with those of a product "
    "of two spheres, which has a finite p-exponent at every prime",
)
_MOORE_BETTI_ONE = MooreReport(
    "elliptic-with-finite-exponents",
    "rationally elliptic; away from the inverted primes the loop space "
    "splits through spheres and loop spaces of spheres, whose p-torsion has "
    "a finite exponent, and at the remaining primes the verdict follows the "
    "elliptic side of the exponent conjecture",
)
_MOORE_WINDOW = MooreReport(
    "elliptic-with-finite-exponents",
    "window-limited: the graded ranks have finite support, and granting the "
    "exponent conjecture for such elliptic complexes every prime has a finite "
    "exponent; the rank-2 two-cell case is not settled by a theorem here",
)
_MOORE_UNBOUNDED = MooreReport(
    "hyperbolic-unbounded-cofinite-primes",
    "rationally hyperbolic; away from finitely many primes a wedge of two middle "
    "spheres retracts off the localized complex, so the p-primary torsion of the "
    "homotopy groups is unbounded for all but finitely many primes",
)
_MOORE_NO_EXPONENT = MooreReport(
    "hyperbolic-no-exponent-all-primes",
    "the sphere dimensions occurring in the decomposition are unbounded, and spheres "
    "of growing dimension carry p-power torsion of arbitrarily large exponent for "
    "every prime, so no prime admits a finite exponent",
)


@dataclass(frozen=True)
class Summand:
    sphere_dim: int
    multiplicity: int
    witnesses: tuple


@dataclass(frozen=True)
class DecompositionReport:
    space: object
    max_dimension: int
    summands: tuple
    inverted_primes: tuple
    classification: str
    growth: GrowthRate
    loop_decomposition_text: str
    moore: MooreReport


def smoothable(n, m):
    """Whether the Betti-1 manifold V_{m,1} admits a smooth structure."""
    if n == 4:
        return m * (m + 1) % 4 == 0
    if n == 8:
        return m * (m + 1) % 8 == 0
    raise ValidationError("smoothability criterion applies to n in {4, 8}")


def pi10_v8(m):
    """pi_10 of the 8-dimensional Betti-1 manifold V_{m,1}, as invariant factors.

    The group is (Z/24 + Z/3) modulo the relations (1, -m) and (1+2m, m);
    the cokernel is read off the Smith form of the 4x2 presentation.
    Returns the invariant factors > 1 (empty tuple = trivial group).
    """
    presentation = [[24, 0], [0, 3], [1, -m], [1 + 2 * m, m]]
    invariants, _, _ = smith_normal_form(presentation)
    return tuple(x for x in invariants if x > 1)


def group_description(invariants):
    if not invariants:
        return "0"
    return " + ".join(f"Z/{x}" for x in invariants)


def finite_pi1_betti(l, r):
    """Betti number of the universal cover: chi multiplies along covers."""
    if l < 1:
        raise ValidationError("the fundamental group order must be >= 1")
    if r < 0:
        raise ValidationError("the Betti number must be >= 0")
    return l * (r + 2) - 2


def classify_rational(space, window=12):
    """'elliptic' or 'hyperbolic'.

    Manifolds: elliptic iff r <= 2.  Connected sums: elliptic iff a single
    sphere product.  Two-cell complexes: hyperbolic for r >= 3; for r <= 2
    with a rank-2 form the graded ranks are scanned inside the window
    (their support is finite exactly in the elliptic case).  Betti-1
    models are elliptic.
    """
    return space.classify(window)


def moore_report(space):
    """Finite-p-exponent verdict matching the rational classification."""
    return space.moore()


_WITNESS_LIMIT = 2000


def _quadratic_report(space, max_dim, counts, inverted, growth):
    """Shared manifold / connected-sum / two-cell decomposition pipeline."""
    from .algebra import normalize_relation, relation_from_space
    from .lyndon import _estimated_words, bracket_string, lie_basis, standard_lyndon_counts

    alphabet, rel = relation_from_space(space)
    nr = normalize_relation(alphabet, rel)
    degree_counts = {l - 1: c for l, c in counts.items()}
    total = sum(counts.values())
    witnesses = {}
    if total <= _WITNESS_LIMIT and _estimated_words(nr.alphabet, max_dim - 1) <= 2_000_000:
        basis = lie_basis(nr, max_dim - 1, series_counts=degree_counts)
        for d, elements in basis.items():
            witnesses[d + 1] = tuple(bracket_string(e.word, nr.alphabet) for e in elements)
    else:
        lyndon_counts = standard_lyndon_counts(nr.alphabet, nr.forbidden_pair, max_dim - 1)
        if {d: c for d, c in lyndon_counts.items() if c} != degree_counts:
            raise IntegrityError(
                f"Lyndon pipeline disagrees with the series pipelines for {space.label}"
            )

    summands = tuple(
        Summand(l, counts[l], witnesses.get(l, ())) for l in sorted(counts)
    )
    return DecompositionReport(
        space=space,
        max_dimension=max_dim,
        summands=summands,
        inverted_primes=tuple(sorted(inverted)),
        classification=classify_rational(space),
        growth=growth,
        loop_decomposition_text=_loop_text(space.label, counts, max_dim, inverted),
        moore=moore_report(space),
    )


def _loop_text(label, counts, max_dim, inverted):
    if counts:
        factors = " x ".join(
            f"(Omega S^{l})^{c}" if c > 1 else f"Omega S^{l}" for l, c in sorted(counts.items())
        )
    else:
        factors = "point"
    text = f"Omega {label} ~ {factors} x ... (factors shown through dimension {max_dim})"
    if inverted:
        text += f" after inverting {{{', '.join(str(p) for p in sorted(inverted))}}}"
    return text


def decomposition_report(space, max_dim):
    """Sphere-summand decomposition of the homotopy groups, through max_dim."""
    if max_dim < 2:
        raise ValidationError("max_dim must be >= 2")
    return space.report(max_dim)


def betti_one_report(n, m):
    """Decomposition report for the Betti-number-one family."""
    space = BettiOne(n, m)
    label = space.label
    if n == 2:
        text = (
            f"Omega {label} ~ S^1 x Omega S^5: pi_2 = Z and pi_k = pi_k(S^5) for k >= 3"
        )
        summands = (Summand(5, 1, ()),)
        inverted = ()
    elif n == 4:
        if space.m % 3 in (0, 2):
            text = (
                f"Omega {label} ~ S^3 x Omega S^11 integrally: "
                f"pi_k = pi_(k-1)(S^3) + pi_k(S^11)"
            )
            inverted = ()
        else:
            text = (
                f"Omega {label} ~ S^3 x Omega S^11 only after inverting 3: the integral "
                f"splitting fails because pi_10 {label} = {group_description(pi10_v8(space.m))} "
                f"while pi_9(S^3) + pi_10(S^11) = Z/3"
            )
            inverted = (3,)
        summands = (Summand(11, 1, ()),)
    else:
        text = (
            f"Omega {label} ~ S^7 x Omega S^23 after inverting 2 and 3: "
            f"pi_k (x) Z[1/6] = (pi_(k-1)(S^7) + pi_k(S^23)) (x) Z[1/6]"
        )
        summands = (Summand(23, 1, ()),)
        inverted = (2, 3)
    return DecompositionReport(
        space=space,
        max_dimension=3 * n - 1,
        summands=summands,
        inverted_primes=inverted,
        classification="elliptic",
        growth=None,
        loop_decomposition_text=text,
        moore=moore_report(space),
    )


# ----------------------------------------------------------------- JSON view

def space_to_json(space):
    return space.to_json()


def report_to_json(report):
    """Stable-schema JSON view of a decomposition report."""
    growth = None
    if report.growth is not None:
        growth = {"surd": list(report.growth.surd), "decimal": report.growth.decimal()}
    return {
        "space": space_to_json(report.space),
        "max_dimension": report.max_dimension,
        "inverted_primes": list(report.inverted_primes),
        "summands": [
            {
                "sphere_dim": s.sphere_dim,
                "multiplicity": s.multiplicity,
                "witnesses": list(s.witnesses),
            }
            for s in report.summands
        ],
        "classification": report.classification,
        "growth_rate": growth,
        "loop_decomposition": report.loop_decomposition_text,
        "moore": {"verdict": report.moore.verdict, "justification": report.moore.justification},
    }
