"""Exact rational power series and the dimension-counting pipelines.

Everything here is computed with `fractions.Fraction`; no floats enter at
any point.  The module provides three independent ways of extracting
dimension tables from a Hilbert series (logarithm + Moebius inversion,
incremental PBW matching, and a closed-form double sum) which the rest of
the engine cross-checks against each other.
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


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ValidationError(f"coefficients must be exact rationals, got {type(x).__name__}")


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series with exact rational coefficients.

    ``coefficients[d]`` is the coefficient of t^d; indices run up to and
    including ``truncation_order``.  All arithmetic truncates at the same
    order as the operands.
    """

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(_frac(c) for c in self.coefficients))
        if not self.coefficients:
            raise ValidationError("a power series needs at least the constant term")

    @property
    def truncation_order(self):
        return len(self.coefficients) - 1

    @classmethod
    def of(cls, coeffs, order):
        """Series with the given low-order coefficients, padded to ``order``."""
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def one(cls, order):
        return cls.of([1], order)

    def __getitem__(self, d):
        if not 0 <= d <= self.truncation_order:
            raise WindowError(f"degree {d} outside truncation window 0..{self.truncation_order}")
        return self.coefficients[d]

    def _match(self, other):
        if self.truncation_order != other.truncation_order:
            raise ValidationError("truncation orders differ; retruncate explicitly")
        return other

    def truncate(self, order):
        return PowerSeries.of(self.coefficients, order)

    def __add__(self, other):
        other = self._match(other)
        return PowerSeries(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other):
        other = self._match(other)
        return PowerSeries(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)))

    def __mul__(self, other):
        other = self._match(other)
        n = self.truncation_order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coefficients[j]
                if b != 0:
                    out[i + j] += a * b
        return PowerSeries(tuple(out))

    def inverse(self):
        """Multiplicative inverse; needs an invertible constant term."""
        if self.coefficients[0] == 0:
            raise ValidationError("cannot invert a series with zero constant term")
        n = self.truncation_order
        c0 = self.coefficients[0]
        out = [Fraction(0)] * (n + 1)
        out[0] = 1 / c0
        for d in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, d + 1):
                acc += self.coefficients[j] * out[d - j]
            out[d] = -acc / c0
        return PowerSeries(tuple(out))

    def log(self):
        """log of a series with constant term 1, via log(1-u) = -sum u^k/k."""
        if self.coefficients[0] != 1:
            raise ValidationError("log needs constant term 1")
        n = self.truncation_order
        u = [Fraction(0)] + [-c for c in self.coefficients[1:]]  # self = 1 - u
        out = [Fraction(0)] * (n + 1)
        upow = [Fraction(1)] + [Fraction(0)] * n
        for k in range(1, n + 1):
            nxt = [Fraction(0)] * (n + 1)
            for i in range(k - 1, n + 1):
                a = upow[i]
                if a == 0:
                    continue
                for j in range(1, n + 1 - i):
                    if u[j] != 0:
                        nxt[i + j] += a * u[j]
            upow = nxt
            for m in range(k, n + 1):
                out[m] -= upow[m] / k
        return PowerSeries(tuple(out))

    def exp(self):
        """exp of a series with zero constant term."""
        if self.coefficients[0] != 0:
            raise ValidationError("exp needs zero constant term")
        n = self.truncation_order
        # E' = f' E gives a coefficient recursion with exact rationals.
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for d in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, d + 1):
                acc += j * self.coefficients[j] * out[d - j]
            out[d] = acc / d
        return PowerSeries(tuple(out))


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


def log_lambda_coefficients(denominator, N):
    """Coefficients of log(denominator) up to order N (index 0 is 0).

    The input must have constant term 1.  Returned as a PowerSeries whose
    degree-m entry is the lambda_m used by Moebius inversion.
    """
    if N < 1:
        raise ValidationError("N must be >= 1")
    if denominator.coefficients[0] != 1:
        raise ValidationError("denominator must have constant term 1")
    return denominator.truncate(N).log()


def moebius_invert_dims(lam, N):
    """Recover l_m = -sum_{d|m} mu(d) lambda_{m/d} / d for m <= N.

    Every l_m must come out a nonnegative integer; anything else means the
    input series was not the log of an inverse Hilbert product and is
    reported as an integrity error.
    """
    if N > lam.truncation_order:
        raise ValidationError("lambda series is shorter than requested order")
    dims = {}
    for m in range(1, N + 1):
        acc = Fraction(0)
        for d in divisors(m):
            md = moebius_mu(d)
            if md:
                acc -= Fraction(md, d) * lam[m // d]
        val = _require_nonneg_int(acc, f"l_{m}")
        if val:
            dims[m] = val
    return DimensionTable(dims, N)


def _check_hilbert_input(H, N):
    if N < 1:
        raise ValidationError("N must be >= 1")
    if H.coefficients[0] != 1:
        raise ValidationError("Hilbert series must have constant term 1")
    if N > H.truncation_order:
        raise ValidationError("Hilbert series shorter than requested order")
    for d in range(N + 1):
        if H.coefficients[d].denominator != 1 or H.coefficients[d] < 0:
            raise ValidationError(f"Hilbert coefficient at degree {d} must be a nonnegative integer")


def pbw_match_ungraded(H, N):
    """Match H(t) = prod_d (1 - t^d)^(-l_d) degree by degree.

    At each degree the current partial product agrees with H below d, so
    l_d is forced to be the coefficient gap; a negative gap means H is not
    the Hilbert series of a free commutative algebra and raises.
    """
    _check_hilbert_input(H, N)
    H = H.truncate(N)
    P = PowerSeries.one(N)
    dims = {}
    for d in range(1, N + 1):
        gap = H[d] - P[d]
        l_d = _require_nonneg_int(gap, f"ungraded PBW multiplicity at degree {d}")
        if l_d:
            dims[d] = l_d
            # multiply P by (1 - t^d)^(-l_d), i.e. sum_k C(l_d+k-1, k) t^(dk)
            factor = [Fraction(0)] * (N + 1)
            for k in range(0, N // d + 1):
                factor[d * k] = Fraction(comb(l_d + k - 1, k))
            P = P * PowerSeries(tuple(factor))
    return DimensionTable(dims, N)


def pbw_match_graded(H, N):
    """Match H(t) = prod_{odd} (1+t^d)^{m_d} * prod_{even} (1-t^d)^{-m_d}.

    Exterior factors sit on odd degrees, polynomial factors on even ones,
    mirroring the free graded-commutative algebra on a graded module.
    """
    _check_hilbert_input(H, N)
    H = H.truncate(N)
    P = PowerSeries.one(N)
    dims = {}
    for d in range(1, N + 1):
        gap = H[d] - P[d]
        m_d = _require_nonneg_int(gap, f"graded PBW multiplicity at degree {d}")
        if m_d:
            dims[d] = m_d
            factor = [Fraction(0)] * (N + 1)
            if d % 2 == 1:
                for k in range(0, min(m_d, N // d) + 1):
                    factor[d * k] = Fraction(comb(m_d, k))
            else:
                for k in range(0, N // d + 1):
                    factor[d * k] = Fraction(comb(m_d + k - 1, k))
            P = P * PowerSeries(tuple(factor))
    return DimensionTable(dims, N)


def manifold_denominator(n, r, order):
    """1 - r t^(n-1) + t^(2n-2), the loop-homology Hilbert denominator."""
    if n < 2:
        raise ValidationError("n must be >= 2")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
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
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
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


def lie_ranks_from_denominator(denominator, N):
    """Moebius-inversion pipeline: log the denominator, invert, tabulate."""
    lam = log_lambda_coefficients(denominator, N)
    return moebius_invert_dims(lam, N)


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
