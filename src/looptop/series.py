"""Integer power series and the dimension-counting pipelines.

Every series the engine inverts or matches has integer coefficients and
constant term 1, so series arithmetic runs on Python ints; no floats enter
at any point.  The module provides three independent ways of extracting
dimension tables from a Hilbert series (Newton power sums + Moebius
inversion, incremental PBW matching, and a closed-form double sum in exact
rationals) which the rest of the engine cross-checks against each other.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .errors import IntegrityError, ValidationError, WindowError


def moebius_mu(m):
    """Classical Moebius function; rejects m < 1."""
    if m < 1:
        raise ValidationError(f"moebius_mu requires m >= 1, got {m}")
    if m == 1:
        return 1
    result = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def divisors(m):
    """Sorted positive divisors of m >= 1."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series with integer coefficients.

    ``coefficients[d]`` is the coefficient of t^d; indices run up to and
    including ``truncation_order``.  Products truncate at the common order
    of the operands.
    """

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not self.coefficients:
            raise ValidationError("a power series needs at least the constant term")
        for c in self.coefficients:
            if not isinstance(c, int):
                raise ValidationError(f"coefficients must be integers, got {type(c).__name__}")

    @property
    def truncation_order(self):
        return len(self.coefficients) - 1

    @classmethod
    def of(cls, coeffs, order):
        """Series with the given low-order coefficients, padded to ``order``."""
        coeffs = list(coeffs)[: order + 1]
        return cls(tuple(coeffs + [0] * (order + 1 - len(coeffs))))

    def __getitem__(self, d):
        if not 0 <= d <= self.truncation_order:
            raise WindowError(f"degree {d} outside truncation window 0..{self.truncation_order}")
        return self.coefficients[d]

    def truncate(self, order):
        return PowerSeries.of(self.coefficients, order)

    def __mul__(self, other):
        if self.truncation_order != other.truncation_order:
            raise ValidationError("truncation orders differ; retruncate explicitly")
        n = self.truncation_order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients[: n + 1 - i]):
                    out[i + j] += a * b
        return PowerSeries(tuple(out))

    def inverse(self):
        """Multiplicative inverse; the constant term must be 1 or -1, so
        that the inverse has integer coefficients."""
        c0 = self.coefficients[0]
        if c0 not in (1, -1):
            raise ValidationError(f"cannot invert a series with constant term {c0} over the integers")
        terms = _nonzero_terms(self.coefficients)
        out = [c0]
        for d in range(1, self.truncation_order + 1):
            out.append(-c0 * sum(a * out[d - j] for j, a in terms if j <= d))
        return PowerSeries(tuple(out))


def _nonzero_terms(coefficients):
    """(degree, coefficient) of the nonzero terms of positive degree."""
    return [(j, a) for j, a in enumerate(coefficients) if j and a]


@dataclass(frozen=True)
class DimensionTable:
    """Map degree -> nonnegative integer dimension, valid up to max_degree."""

    dims: dict
    max_degree: int

    def __post_init__(self):
        for d, v in self.dims.items():
            if not isinstance(v, int) or v < 0:
                raise IntegrityError(f"dimension table entry {d} -> {v} is not a nonnegative integer")

    def __getitem__(self, d):
        if not 1 <= d <= self.max_degree:
            raise WindowError(f"degree {d} outside table window 1..{self.max_degree}")
        return self.dims.get(d, 0)

    def as_list(self):
        return [self[d] for d in range(1, self.max_degree + 1)]


def _require_nonneg_int(value, what):
    if value.denominator != 1:
        raise IntegrityError(f"{what} is not an integer: {value}")
    if value < 0:
        raise IntegrityError(f"{what} is negative: {value}")
    return int(value)


def _check_hilbert_input(H, N):
    if N < 1:
        raise ValidationError("N must be >= 1")
    if H.coefficients[0] != 1:
        raise ValidationError("Hilbert series must have constant term 1")
    if N > H.truncation_order:
        raise ValidationError("Hilbert series shorter than requested order")
    for d in range(N + 1):
        if H.coefficients[d] < 0:
            raise ValidationError(f"Hilbert coefficient at degree {d} must be a nonnegative integer")


def _pbw_match(H, N, what, factor):
    """Match H degree by degree against a product of sparse factors.

    At each degree d the running product agrees with H below d, so the
    multiplicity at d is forced to be the coefficient gap; a negative gap
    raises.  ``factor(d, m, N)`` gives the coefficients c_k of the degree-d
    factor sum_k c_k t^(dk) for multiplicity m through t^N, and the running
    product is multiplied by its terms only, never by a full series.
    """
    _check_hilbert_input(H, N)
    P = [1] + [0] * N
    dims = {}
    for d in range(1, N + 1):
        gap = H[d] - P[d]
        if gap < 0:
            raise IntegrityError(f"{what} PBW multiplicity at degree {d} is negative: {gap}")
        if gap:
            dims[d] = gap
            terms = [(d * k, c) for k, c in enumerate(factor(d, gap, N)) if k and c]
            # in place from the top: P[i - e] with e > 0 is still the old value
            for i in range(N, d - 1, -1):
                P[i] += sum(c * P[i - e] for e, c in terms if e <= i)
    return DimensionTable(dims, N)


def _polynomial_factor(d, m, N):
    """(1 - t^d)^(-m) = sum_k C(m+k-1, k) t^(dk), through t^N."""
    return [comb(m + k - 1, k) for k in range(N // d + 1)]


def pbw_match_ungraded(H, N):
    """Match H(t) = prod_d (1 - t^d)^(-l_d) degree by degree.

    A negative gap means H is not the Hilbert series of a free commutative
    algebra and raises IntegrityError.
    """
    return _pbw_match(H, N, "ungraded", _polynomial_factor)


def pbw_match_graded(H, N):
    """Match H(t) = prod_{odd} (1+t^d)^{m_d} * prod_{even} (1-t^d)^{-m_d}.

    Exterior factors sit on odd degrees, polynomial factors on even ones,
    mirroring the free graded-commutative algebra on a graded module.
    """
    return _pbw_match(H, N, "graded", _graded_factor)


def _graded_factor(d, m, N):
    """(1 + t^d)^m on odd d, (1 - t^d)^(-m) on even d, through t^N."""
    if d % 2:
        return [comb(m, k) for k in range(min(m, N // d) + 1)]
    return _polynomial_factor(d, m, N)


def manifold_denominator(n, r, order):
    """1 - r t^(n-1) + t^(2n-2), the loop-homology Hilbert denominator."""
    if n < 2:
        raise ValidationError("n must be >= 2")
    coeffs = [1] + [0] * order
    if n - 1 <= order:
        coeffs[n - 1] -= r
    if 2 * n - 2 <= order:
        coeffs[2 * n - 2] += 1
    return PowerSeries(tuple(coeffs))


def connected_sum_denominator(factors, order):
    """1 - sum_i (t^(p_i-1) + t^(q_i-1)) + t^(n-2) for factor list [(p_i, q_i)]."""
    if not factors:
        raise ValidationError("need at least one sphere-product factor")
    n = factors[0][0] + factors[0][1]
    coeffs = [1] + [0] * order
    for p, q in factors:
        if p + q != n:
            raise ValidationError("all factors must have the same total dimension")
        for e in (p - 1, q - 1):
            if e <= order:
                coeffs[e] -= 1
    if n - 2 <= order:
        coeffs[n - 2] += 1
    return PowerSeries(tuple(coeffs))


def _witt_inner_sum(r, k):
    # sum over a + 2b = k of (-1)^b C(a+b, b) r^a / (a+b)
    acc = Fraction(0)
    for b in range(0, k // 2 + 1):
        a = k - 2 * b
        acc += Fraction((-1) ** b * comb(a + b, b) * r**a, a + b)
    return acc


def closed_form_lie_rank(n, r, degree):
    """Degree-d dimension of the one-relator Lie algebra on r letters.

    Zero off multiples of n-1; on degree d(n-1) the value is the Moebius
    double sum over divisors of d.  Integrality is enforced.
    """
    if r < 2:
        raise ValidationError("closed form requires r >= 2")
    if degree < 1:
        raise ValidationError("degree must be >= 1")
    if degree % (n - 1) != 0:
        return 0
    d = degree // (n - 1)
    acc = Fraction(0)
    for c in divisors(d):
        mc = moebius_mu(c)
        if mc:
            acc += Fraction(mc, c) * _witt_inner_sum(r, d // c)
    return _require_nonneg_int(acc, f"closed-form rank at degree {degree}")


def _power_sums(a, N):
    """The power sums p_1..p_N (p[0] = 0) of a series with constant term 1.

    p_m = m * [t^m] log(a) by Newton's identity p_m = m a_m - sum_{k<m} a_k
    p_(m-k), in ints.  For integer coefficients the Moebius sums
    sum_{d|m} mu(d) p_(m/d) are divisible by m: they are m times the
    exponents of the series' Euler product (necklace integrality).
    """
    terms = _nonzero_terms(a)
    p = [0]
    for m in range(1, N + 1):
        p.append(m * a[m] - sum(c * p[m - k] for k, c in terms if k < m))
    return p


def lie_ranks_from_denominator(denominator, N):
    """Moebius pipeline: the Lie ranks l_m with denominator = prod (1 - t^m)^(l_m).

    Moebius inversion of the power sums (`_power_sums`) gives l_m = -(1/m)
    sum_{d|m} mu(d) p_(m/d), an integer for any integer series.  Every l_m
    must come out nonnegative; a negative one means the input was not the
    inverse of a free commutative algebra's Hilbert series and raises
    IntegrityError.
    """
    if N < 1:
        raise ValidationError("N must be >= 1")
    a = denominator.truncate(N).coefficients
    if a[0] != 1:
        raise ValidationError("denominator must have constant term 1")
    p = _power_sums(a, N)
    dims = {}
    for m in range(1, N + 1):
        rank = -sum(moebius_mu(d) * p[m // d] for d in divisors(m)) // m
        if rank < 0:
            raise IntegrityError(f"l_{m} is negative: {rank}")
        if rank:
            dims[m] = rank
    return DimensionTable(dims, N)


def sphere_summand_counts(n, r, max_dim):
    """Number of pi_* S^l summands, keyed by sphere dimension l <= max_dim.

    Supported only on l = d(n-1)+1.  Computed by the closed form and
    cross-checked against the log/Moebius-inversion pipeline; disagreement
    raises IntegrityError.
    """
    if n < 2:
        raise ValidationError("n must be >= 2")
    if r < 2:
        raise ValidationError("r must be >= 2 (Betti number 1 is handled by the Betti-1 pipeline)")
    if max_dim < 2:
        return {}
    N = max_dim - 1  # sphere dim l corresponds to Lie degree l-1
    table = lie_ranks_from_denominator(manifold_denominator(n, r, N), N)
    counts = {}
    for degree in range(1, N + 1):
        closed = closed_form_lie_rank(n, r, degree)
        if closed != table[degree]:
            raise IntegrityError(
                f"sphere count pipelines disagree at degree {degree} (n={n}, r={r}): "
                f"closed {closed} vs inversion {table[degree]}"
            )
        if closed:
            counts[degree + 1] = closed
    return counts


def sphere_counts_from_denominator(denominator, max_dim):
    """Sphere-summand counts for an arbitrary loop-homology denominator.

    Used for connected sums: count of pi_* S^j equals the Lie rank at
    degree j-1 obtained by Moebius inversion of the log coefficients.
    """
    if max_dim < 2:
        return {}
    N = max_dim - 1
    table = lie_ranks_from_denominator(denominator.truncate(N), N)
    return {d + 1: table[d] for d in range(1, N + 1) if table[d]}


@dataclass(frozen=True)
class GrowthRate:
    """(root + sqrt(root^2-4))/2 as a symbolic surd with a rational enclosure.

    ``surd`` is (a, b, c) encoding (a + b*sqrt(c))/2; ``low``/``high`` are
    exact rational bounds.  Rendering to decimal happens in the CLI.
    """

    surd: tuple
    low: Fraction
    high: Fraction

    def decimal(self, digits=10):
        a, b, c = self.surd
        scale = 10**digits
        s = isqrt(c * scale * scale)  # floor(sqrt(c) * 10^digits)
        num = (a * scale + b * s) // 2
        text = str(num)
        if len(text) <= digits:
            text = "0" * (digits + 1 - len(text)) + text
        return text[:-digits] + "." + text[-digits:]


def growth_rate(r):
    """Exponential growth rate (r + sqrt(r^2-4))/2 of the Lie ranks, r >= 3."""
    if r < 3:
        raise ValidationError("growth rate is defined for r >= 3 (r <= 2 is elliptic)")
    c = r * r - 4
    prec = 10**12
    lo_root = isqrt(c * prec * prec)
    low = Fraction(r * prec + lo_root, 2 * prec)
    high = Fraction(r * prec + lo_root + 1, 2 * prec)
    return GrowthRate((r, 1, c), low, high)
