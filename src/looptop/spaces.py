"""Space models, validation, and decomposition / Moore reports.

Four families are supported: (n-1)-connected 2n-manifolds with middle
Betti number r, connected sums of products of simply connected spheres,
two-cell complexes (a wedge of r n-spheres with one 2n-cell), and the
Betti-number-one manifolds parametrized by the attaching data m.

Each family's class makes every per-family decision itself: `label`,
`to_json()`, `series_fraction()` (the loop-homology Hilbert series as a
bigraded fraction), `coalgebra()` (the integral homology coalgebra),
`classify()`, `moore()` and `report(max_dim)`, which returns the report's
JSON payload, as built by `report_to_json`.  A shared base reads the
fraction: `bigraded_series(order)` by (word length, degree) and
`denominator(order)`, its inverse at x = 1.  The base has no torsion
primes; only a two-cell complex overrides `torsion_primes()`.  The first
three families share the one-relator quadratic pipeline and count their
sphere summands in `sphere_counts(max_dim)`, the Moebius inversion of
that fraction; manifolds and two-cell complexes check the count against
the closed form for r letters and one relation.  Their integer form is
stated once, in the top cell's reduced diagonal, and `relation()` and
`series_fraction()` read it off the coalgebra; a two-cell complex of rank
below 2 refuses a relation.  Betti-one models, and manifolds of Betti
number 1, have no quadratic relation and answer from closed forms.
"""

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import det_int, factorize, minor_gcd, smith_normal_form
from .cobar import FiniteCoalgebra
from .errors import IntegrityError, UnsupportedSpaceError, ValidationError
from .series import PowerSeries, growth_rate
from .series import pbw_match_graded  # kept only as a benchmark span site


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
    """Symmetric for even n; skew for odd n, which includes a zero diagonal."""
    if n % 2 == 0:
        sign, kind = 1, "symmetric when n is even"
    else:
        sign, kind = -1, "skew-symmetric when n is odd"
    if any(v != sign * matrix[j][i] for i, row in enumerate(matrix) for j, v in enumerate(row)):
        raise ValidationError(f"{what} must be {kind}")


def default_manifold_matrix(n, r):
    """A unimodular form of the parity forced by n.

    n odd needs a skew form, so r must be even: a direct sum of symplectic
    blocks [[0, 1], [-1, 0]].  n even: hyperbolic blocks [[0, 1], [1, 0]],
    plus a diagonal <1> if r is odd.  The decomposition depends only on
    (n, r), so any unimodular representative serves.
    """
    if n % 2 == 1 and r % 2 == 1:
        raise ValidationError(
            f"no skew unimodular form of odd rank {r}: an (n-1)-connected 2n-manifold "
            f"with n odd has even middle Betti number"
        )
    form = [[0] * r for _ in range(r)]
    for k in range(0, r - 1, 2):
        form[k][k + 1], form[k + 1][k] = 1, (-1) ** n
    if r % 2 == 1:
        form[r - 1][r - 1] = 1
    return form


def _bigraded_quotient(numerator, denominator, order):
    """numerator / denominator in Z[x][[t]] through t^order.

    Series are dicts {(power of x, power of t): coefficient}; the
    denominator is 1 plus terms of positive t power.  Zero coefficients
    are dropped from the result.
    """
    out = {}
    for d in range(order + 1):
        out.update(((w, t), c) for (w, t), c in numerator.items() if t == d)
        for (a, b), c in denominator.items():
            for (w, t), h in list(out.items()):
                if b and t == d - b:
                    out[(w + a, d)] = out.get((w + a, d), 0) - c * h
    return {key: c for key, c in out.items() if c}


def _at_x_one(bigraded, order):
    """A bigraded dict summed over word length, as a `PowerSeries` through t^order."""
    coeffs = [0] * (order + 1)
    for (_, t), c in bigraded.items():
        if t <= order:
            coeffs[t] += c
    return PowerSeries(tuple(coeffs))


class _Family:
    """Shared by the four families.

    Each family states its loop-homology Hilbert series once, in
    `series_fraction()`: a (numerator, denominator) pair of dicts
    {(word length, degree): coefficient}, each with constant term 1.
    """

    def torsion_primes(self):
        return frozenset()

    def bigraded_series(self, order):
        """Loop-homology ranks by (word length, degree), through degree `order`."""
        return _bigraded_quotient(*self.series_fraction(), order)

    def denominator(self, order):
        """The inverse of the loop-homology Hilbert series through t^order:
        the fraction at x = 1, turned upside down."""
        numerator, denominator = (_at_x_one(part, order) for part in self.series_fraction())
        return denominator * numerator.inverse()


class _OneRelator(_Family):
    """Shared by the one-relator quadratic families.

    The homology coalgebra is where each family states its form: the top
    cell's reduced diagonal is sum g_ij a_i (x) a_j over the other
    generators a_i.
    """

    def relation(self):
        """Alphabet and integer form (its rows) of the quadratic relation.

        The letters are the generators other than the top cell, one degree
        lower and under the same names; the form is read off the top cell's
        reduced diagonal.
        """
        # algebra is imported on first use, here and below, to keep it out
        # of the start-up of commands that never build a relation
        from .algebra import Alphabet

        coalgebra = self.coalgebra()
        *letters, _top = coalgebra.generators
        form = [[0] * len(letters) for _ in letters]
        for i, j, g in coalgebra.diagonal(len(letters)):
            form[i][j] = g
        names, degrees = zip(*letters)
        return Alphabet(tuple(d - 1 for d in degrees), names), tuple(map(tuple, form))

    def series_fraction(self):
        """1 / (1 - sum_g x t^(|g|-1) + x^2 t^(|top|-2)), read off the coalgebra.

        g runs over the primitive generators of the homology coalgebra; x
        counts word length (Koszul concentration of an inert quadratic
        relation).
        """
        coalgebra = self.coalgebra()
        denominator = {(0, 0): 1}
        for gi, (_, deg) in enumerate(coalgebra.generators):
            key, c = ((2, deg - 2), 1) if coalgebra.diagonal(gi) else ((1, deg - 1), -1)
            denominator[key] = denominator.get(key, 0) + c
        return {(0, 0): 1}, denominator

    def sphere_counts(self, max_dim):
        """Number of pi_* S^l summands by sphere dimension l <= max_dim: the
        Lie rank in degree l-1, by Moebius inversion of `denominator()`.
        The inversion is looked up on `looptop.series` at call time, as in
        `normalized_relation`."""
        from . import series

        N = max_dim - 1
        table = series.lie_ranks_from_denominator(self.denominator(N), N)
        return {d + 1: c for d, c in table.dims.items()}


class _FormSpace(_OneRelator):
    """Shared by manifolds and two-cell complexes: r n-spheres with one
    2n-cell attached along the integral form `self.form`."""

    def coalgebra(self):
        from .algebra import _sub

        gens = tuple((_sub("α", i + 1), self.n) for i in range(self.r)) + (("top", 2 * self.n),)
        terms = tuple((i, j, g) for i, row in enumerate(self.form) for j, g in enumerate(row) if g)
        return FiniteCoalgebra(gens, {self.r: terms})

    def sphere_counts(self, max_dim):
        """The inversion, checked in every degree against the closed form
        for r letters and one relation, which reads no series."""
        from . import series

        if self.r < 2:
            raise ValidationError("r must be >= 2 (Betti number 1 is handled by the Betti-1 pipeline)")
        counts = super().sphere_counts(max_dim)
        for degree in range(1, max_dim):
            closed = series.closed_form_lie_rank(self.n, self.r, degree)
            if closed != counts.get(degree + 1, 0):
                raise IntegrityError(
                    f"sphere count pipelines disagree at degree {degree} (n={self.n}, r={self.r}): "
                    f"closed {closed} vs inversion {counts.get(degree + 1, 0)}"
                )
        return counts

    def report(self, max_dim):
        return _quadratic_report(self, max_dim, growth_rate(self.r) if self.r >= 3 else None)


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

    def series_fraction(self):
        if self.r == 1:
            return BettiOne(self.n).series_fraction()
        return super().series_fraction()

    def relation(self):
        if self.r == 1:
            return BettiOne(self.n).relation()
        return super().relation()

    def classify(self):
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
class ConnectedSum(_OneRelator):
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

    def coalgebra(self):
        from .algebra import _sub

        gens = []
        for k, (p, q) in enumerate(self.factors, start=1):
            gens.append((_sub("α", k), p))
            gens.append((_sub("β", k), q))
        gens.append(("top", self.total_dimension))
        wrap = (-1) ** self.total_dimension
        terms = []
        for k, sign in enumerate(self.signs):
            terms.append((2 * k, 2 * k + 1, sign))
            terms.append((2 * k + 1, 2 * k, sign * wrap))
        return FiniteCoalgebra(tuple(gens), {len(gens) - 1: tuple(terms)})

    def classify(self):
        return "elliptic" if self.r == 1 else "hyperbolic"

    def moore(self):
        return _MOORE_PRODUCT if self.r == 1 else _MOORE_NO_EXPONENT

    def report(self, max_dim):
        return _quadratic_report(self, max_dim, None)


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

    def _rank_below_two(self):
        """Whether the form has rank < 2 over Q: it has no nonsingular plane."""
        from .algebra import _plane_letters

        return _plane_letters(self.matrix) is None

    def relation(self):
        if self._rank_below_two():
            raise UnsupportedSpaceError("two-cell decomposition needs rank(Q over Q) >= 2")
        return super().relation()

    def torsion_primes(self):
        """The bad primes of the form: it is reported after inverting them."""
        return bad_primes(self.matrix)

    def classify(self):
        if self.r >= 3:
            return "hyperbolic"
        if self._rank_below_two():
            raise UnsupportedSpaceError(
                "rational classification of a two-cell complex with r <= 2 and a "
                "degenerate form is out of reach here"
            )
        # Rank 2 makes the loop homology 1/(1 - t^(n-1))^2 whatever the form; its
        # graded PBW ranks sit in degrees n-1 and 2n-2 at most, a finite support.
        return "elliptic"

    def moore(self):
        return _MOORE_UNBOUNDED if self.classify() == "hyperbolic" else _MOORE_WINDOW


@dataclass(frozen=True)
class BettiOne(_Family):
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

    def series_fraction(self):
        """(1 + x t^(n-1)) / (1 - x^2 t^(3n-2)); x counts word length."""
        n = self.n
        return {(0, 0): 1, (1, n - 1): 1}, {(0, 0): 1, (2, 3 * n - 2): -1}

    def coalgebra(self):
        n = self.n
        return FiniteCoalgebra(((f"e{n}", n), (f"e{2 * n}", 2 * n)), {1: ((0, 0, 1),)})

    def relation(self):
        raise UnsupportedSpaceError("Betti number 1 is handled by the Betti-1 pipeline")

    def classify(self):
        return "elliptic"

    def moore(self):
        return _MOORE_BETTI_ONE

    def report(self, max_dim):
        return betti_one_report(self.n, self.m)


# ------------------------------------------------------------- bad primes

def bad_primes(form):
    """Primes where the integer form drops below rank 2: divisors of the 2x2-minor gcd."""
    g = minor_gcd(form)
    if g == 0:
        raise UnsupportedSpaceError(
            "form has rank < 2 over the rationals; every prime would be bad"
        )
    return set(factorize(g))


# ------------------------------------------------------------------- reports

# Each Moore verdict is a {"verdict", "justification"} dict; `moore_report`
# hands out copies, so no caller can change a constant.
_MOORE_PRODUCT = {
    "verdict": "elliptic-with-finite-exponents",
    "justification": "rationally elliptic; the homotopy groups agree with those of a product "
    "of two spheres, which has a finite p-exponent at every prime",
}
_MOORE_BETTI_ONE = {
    "verdict": "elliptic-with-finite-exponents",
    "justification": "rationally elliptic; away from the inverted primes the loop space "
    "splits through spheres and loop spaces of spheres, whose p-torsion has "
    "a finite exponent, and at the remaining primes the verdict follows the "
    "elliptic side of the exponent conjecture",
}
_MOORE_WINDOW = {
    "verdict": "elliptic-with-finite-exponents",
    "justification": "window-limited: the graded ranks have finite support, and granting the "
    "exponent conjecture for such elliptic complexes every prime has a finite "
    "exponent; the rank-2 two-cell case is not settled by a theorem here",
}
_MOORE_UNBOUNDED = {
    "verdict": "hyperbolic-unbounded-cofinite-primes",
    "justification": "rationally hyperbolic; away from finitely many primes a wedge of two middle "
    "spheres retracts off the localized complex, so the p-primary torsion of the "
    "homotopy groups is unbounded for all but finitely many primes",
}
_MOORE_NO_EXPONENT = {
    "verdict": "hyperbolic-no-exponent-all-primes",
    "justification": "the sphere dimensions occurring in the decomposition are unbounded, and spheres "
    "of growing dimension carry p-power torsion of arbitrarily large exponent for "
    "every prime, so no prime admits a finite exponent",
}


def pi10_v8(m):
    """pi_10 of the 8-dimensional Betti-1 manifold V_{m,1}, as invariant factors.

    The group is (Z/24 + Z/3) modulo the relations (1, -m) and (1+2m, m);
    the cokernel is read off the certified Smith invariants of the 4x2
    presentation.  Returns the invariant factors > 1 (empty tuple =
    trivial group).
    """
    presentation = [[24, 0], [0, 3], [1, -m], [1 + 2 * m, m]]
    return tuple(x for x in smith_normal_form(presentation) if x > 1)


def group_description(invariants):
    if not invariants:
        return "0"
    return " + ".join(f"Z/{x}" for x in invariants)


def classify_rational(space):
    """'elliptic' or 'hyperbolic'.

    Manifolds: elliptic iff r <= 2.  Connected sums: elliptic iff a single
    sphere product.  Two-cell complexes: hyperbolic for r >= 3; a rank-2
    form is elliptic with no scan, since its loop homology is
    1/(1 - t^(n-1))^2 whatever the form, and a form of rank below 2 is
    refused.  Betti-1 models are elliptic.
    """
    return space.classify()


def moore_report(space):
    """Finite-p-exponent verdict matching the rational classification, as
    a fresh {"verdict", "justification"} dict."""
    return dict(space.moore())


_WITNESS_LIMIT = 2000


def normalized_relation(space):
    """The space's quadratic relation in plane-split normal form.

    Models with no quadratic relation raise UnsupportedSpaceError.  Both
    steps are looked up on `looptop.algebra` at call time, so a wrapper
    bound there (the benchmark's traced pass) sees every call.
    """
    from . import algebra

    return algebra.normalize_relation(*algebra.relation_from_space(space))


def _quadratic_report(space, max_dim, growth):
    """Shared manifold / connected-sum / two-cell decomposition pipeline."""
    from .lyndon import basis_walk_fits, bracket_string, lie_basis, standard_lyndon_counts

    inverted = space.torsion_primes()
    counts = space.sphere_counts(max_dim)
    nr = normalized_relation(space)
    degree_counts = {l - 1: c for l, c in counts.items()}
    witnesses = {}
    if sum(counts.values()) <= _WITNESS_LIMIT and basis_walk_fits(nr.alphabet, max_dim - 1):
        for d, words in lie_basis(nr, max_dim - 1, degree_counts).items():
            witnesses[d + 1] = [bracket_string(w, nr.alphabet) for w in words]
    else:
        lyndon_counts = standard_lyndon_counts(nr.alphabet, nr.forbidden_pair, max_dim - 1)
        if {d: c for d, c in lyndon_counts.items() if c} != degree_counts:
            raise IntegrityError(
                f"Lyndon pipeline disagrees with the series pipelines for {space.label}"
            )
    text = _loop_text(space.label, counts, max_dim, inverted)
    return report_to_json(space, max_dim, counts, witnesses, inverted, growth, text)


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
    """Sphere-summand decomposition of the homotopy groups, through max_dim,
    as the report's JSON payload."""
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
    else:
        text = (
            f"Omega {label} ~ S^7 x Omega S^23 after inverting 2 and 3: "
            f"pi_k (x) Z[1/6] = (pi_(k-1)(S^7) + pi_k(S^23)) (x) Z[1/6]"
        )
        inverted = (2, 3)
    # one summand, S^(3n-1), which is also the window
    return report_to_json(space, 3 * n - 1, {3 * n - 1: 1}, {}, inverted, None, text)


# ----------------------------------------------------------------- JSON view

def space_to_json(space):
    return space.to_json()


def report_to_json(space, max_dim, counts, witnesses, inverted, growth, text):
    """The decomposition report, the one place its stable JSON schema is written.

    `counts` is {sphere dimension: multiplicity} and `witnesses` {sphere
    dimension: Lie brackets}, empty where none are listed; `growth` is a
    `GrowthRate` or None and `text` the loop-space decomposition.  The
    classification and the Moore verdict are read off the space.
    """
    return {
        "space": space_to_json(space),
        "max_dimension": max_dim,
        "inverted_primes": sorted(inverted),
        "summands": [
            {"sphere_dim": l, "multiplicity": counts[l], "witnesses": witnesses.get(l, [])}
            for l in sorted(counts)
        ],
        "classification": classify_rational(space),
        "growth_rate": None if growth is None else {"surd": list(growth.surd), "decimal": growth.decimal()},
        "loop_decomposition": text,
        "moore": moore_report(space),
    }
