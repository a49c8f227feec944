"""Exact truncated power series over the integers, in one nome variable or two.

Everything here is exact: coefficients are Python ints, truncation orders are
explicit, and an identity between two series means coefficient-by-coefficient
equality up to the stated order.  These series carry the combinatorial side of
the toolkit: the Euler product, the pentagonal-number series, both sides of
the Jacobi triple product, and the theta-series form of eta driven by the
Dirichlet character mod 12.

`QSeries` and `BiSeries` are named 2-tuples (coeffs, order) that check their
fields however they are built, `_make` and `_replace` included.  A series
equals the plain tuple of its fields and unpacks as one; it neither
concatenates nor repeats, and it cannot be hashed, since it holds a dict.

Every order, exponent and coefficient, given to a producer, a series or its
`coeff`, must be of type int: a bool, a float or a Fraction raises, say,
ValueError("order must be of type int, got 2.5") before any other check on it.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf, isqrt
from operator import add

from ._valuetype import ValueTuple, check_int

__all__ = [
    "QSeries",
    "BiSeries",
    "chi12",
    "euler_product_series",
    "pentagonal_series",
    "jtp_product_side",
    "jtp_sum_side",
    "jtp_shift_residual",
    "eta_char_qseries",
]

# chi12(n) is the Dirichlet character mod 12: +1 at n = +-1, -1 at n = +-5,
# zero elsewhere, period 12, completely multiplicative.
_CHI12_TABLE = (0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1)


# The largest truncation order the producers accept, checked before anything
# is allocated, so an order past it raises ValueError at once.  Sized by
# measurement on a 2-core host (Python 3.11): euler_product_series(MAX_ORDER)
# takes about 0.16 s, and jtp_shift_residual(MAX_W_ORDER), which expands the
# triple product to w-order (isqrt(MAX_W_ORDER) + 2)^2, about 0.05 s.  The
# one-variable series take MAX_ORDER, the two-variable ones MAX_W_ORDER.
MAX_ORDER = 20_000
MAX_W_ORDER = 2_000


def _check_order(n_order: int, limit: int | float) -> None:
    """Raise ValueError unless n_order is of type int and in [0, limit]."""
    check_int("order", n_order)
    if n_order < 0:
        raise ValueError(f"order must be >= 0, got {n_order}")
    if n_order > limit:
        raise ValueError(f"order {n_order} is above the limit {limit} of this series")


def _expansion_order(n_order: int) -> int:
    """The w-order to which `_jtp_expansion` expands F for its order n_order."""
    return (isqrt(n_order) + 2) ** 2


def chi12(n: int) -> int:
    """Dirichlet character mod 12 (+1 on 1, 11; -1 on 5, 7; else 0)."""
    check_int("n", n)
    return _CHI12_TABLE[n % 12]


class QSeries(ValueTuple, namedtuple("QSeries", "coeffs order")):
    """Power series in one variable, truncated at `order`, with int coefficients.

    The order, every exponent and every coefficient must be of type int.
    Coefficients are stored sparsely (zero entries are dropped).  Exponents
    above `order` are unknown, not zero, so `coeff` refuses them.  There is no
    series arithmetic: the producers below build a series, callers read it.
    """

    __slots__ = ()

    def __new__(cls, coeffs: dict[int, int], order: int):
        _check_order(order, inf)
        cleaned = {}
        for e, c in coeffs.items():
            check_int("exponent", e)
            check_int("coefficient", c)
            if e < 0 or e > order:
                raise ValueError(f"exponent {e} outside [0, {order}]")
            if c:
                cleaned[e] = c
        return tuple.__new__(cls, (cleaned, order))

    def coeff(self, e: int) -> int:
        """Coefficient at exponent e; raises if e is beyond the known range."""
        check_int("exponent", e)
        if e > self.order:
            raise ValueError(f"coefficient at {e} is unknown (order {self.order})")
        return self.coeffs.get(e, 0)

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        head = " ".join(f"{c:+d}*q^{e}" for e, c in terms[:6])
        if len(terms) > 6:
            head += " ..."
        return f"QSeries({head or '0'}; order={self.order})"


class BiSeries(ValueTuple, namedtuple("BiSeries", "coeffs order")):
    """Series in w truncated at `order`, Laurent in z^2, with int coefficients.

    A key (m, j) holds the coefficient of w^m * z^(2j); j may be negative.
    Both sides of the Jacobi triple product live here, so for every monomial
    |j| <= m (a z^2 step always costs at least one power of w).  The order,
    m, j and every coefficient must be of type int.  Like `QSeries`, it
    carries no arithmetic.
    """

    __slots__ = ()

    def __new__(cls, coeffs: dict[tuple[int, int], int], order: int):
        _check_order(order, inf)
        cleaned = {}
        for (m, j), c in coeffs.items():
            check_int("w-exponent", m)
            check_int("z^2-exponent", j)
            check_int("coefficient", c)
            if m < 0 or m > order:
                raise ValueError(f"w-exponent {m} outside [0, {order}]")
            if abs(j) > m:
                raise ValueError(f"z^2-exponent {j} exceeds w-degree {m}")
            if c:
                cleaned[(m, j)] = c
        return tuple.__new__(cls, (cleaned, order))

    def coeff(self, m: int, j: int) -> int:
        """Coefficient of w^m * z^(2j); raises if m is beyond the known range."""
        check_int("w-exponent", m)
        check_int("z^2-exponent", j)
        if m > self.order:
            raise ValueError(f"coefficient at w^{m} is unknown (order {self.order})")
        return self.coeffs.get((m, j), 0)

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        head = " ".join(f"{c:+d}*w^{m}*z^{2 * j}" for (m, j), c in terms[:4])
        if len(terms) > 4:
            head += " ..."
        return f"BiSeries({head or '0'}; order={self.order})"


def _divisor_sums(n: int) -> list[int]:
    """sigma(0..n) as a list, sigma(m) the sum of the divisors of m (sigma(0) = 0).

    A sieve over divisor pairs x e = m, split at s = isqrt(n).  Each d <= s
    adds itself to every multiple of d, then adds each co-divisor e > s to
    d e, reading the values e from a range.  A divisor x of m <= n is then
    counted exactly once: as itself if x <= s, else through its co-divisor
    m / x, which is at most s, since m / x <= n / (s + 1) < s + 1.  That is
    2s slice updates, where a sieve over every d <= n takes n, most of them
    on slices of one element.
    """
    sig = [0] * (n + 1)
    s = isqrt(n)
    for d in range(1, s + 1):
        sig[d::d] = map(d.__add__, sig[d::d])
        sig[d * (s + 1)::d] = map(add, sig[d * (s + 1)::d], range(s + 1, n // d + 1))
    return sig


def euler_product_series(n_order: int) -> QSeries:
    """prod_{n=1}^{N} (1 - q^n) truncated to order N.

    Factors with n > N cannot touch coefficients of exponent <= N, so the
    finite product determines the truncation exactly.  The coefficients come
    from the logarithmic derivative of P = prod (1 - q^n):

        q P'/P = sum_n -n q^n / (1 - q^n) = -sum_{m>=1} sigma(m) q^m,

    sigma being the divisor sum.  So q P' = P * (-sum sigma(m) q^m), and at
    q^m that reads m p(m) = -sum_{j=1}^{m} sigma(j) p(m - j) (Apostol,
    Introduction to Analytic Number Theory, 1976, ch. 14, has the same
    recurrence for partitions).  It is exact: a power series with p(0) = 1
    is fixed by that equation, one coefficient at a time, and P is such a
    series, so every division by m leaves no remainder.

    The sums are built forward: `acc[k]` holds sigma(k - i) p(i) summed over
    the nonzero p(i) found so far, so it is complete when the loop reaches
    k, and each new nonzero p(m) goes straight into the result and adds its
    row p(m) sigma(k - m) to `acc[m+1:]` in one slice update.  The rows are
    kept shifted by one, starting at sigma(1), so every p(m) reads its row
    from the start and `map` stops where `acc` ends; no row is cut per
    coefficient.  The rows for p(m) = +-1 are built once; any other value
    scales sigma afresh.  The work is N times the number of nonzero
    coefficients, since a zero p(i) drops out.  A division with a remainder
    can only come from a broken sigma table, never from the input, and
    raises ArithmeticError.

    No sparsity is assumed: the nonzero positions are read from the
    coefficients already computed, not from the pentagonal-number theorem,
    so a dense result would be as correct, only slower.  The tests hold the
    product to the plain loop over every factor.  Orders above MAX_ORDER
    raise ValueError before anything is allocated.
    """
    _check_order(n_order, MAX_ORDER)
    sig = _divisor_sums(n_order)
    tail = sig[1:]  # sigma(1), sigma(2), ...: the row of p(m) from exponent m + 1
    rows = {1: tail, -1: [-s for s in tail]}
    coeffs = {0: 1}
    acc = sig
    for m in range(1, n_order + 1):
        c, r = divmod(-acc[m], m)
        if r:
            raise ArithmeticError(f"inexact division at exponent {m}")
        if c:
            coeffs[m] = c
            row = rows[c] if c in rows else [c * s for s in tail]
            acc[m + 1:] = map(add, acc[m + 1:], row)
    return QSeries(coeffs, n_order)


def pentagonal_series(n_order: int) -> QSeries:
    """sum over all integers n of (-1)^n q^((3n^2 - n)/2), truncated to order N.

    The exponents (3n^2 -+ n)/2 are the generalized pentagonal numbers.
    """
    _check_order(n_order, MAX_ORDER)
    coeffs = {0: 1}
    n = 1
    while True:
        e_pos = (3 * n * n - n) // 2   # from +n
        e_neg = (3 * n * n + n) // 2   # from -n
        if e_pos > n_order:
            break
        sign = -1 if n % 2 else 1
        coeffs[e_pos] = sign
        if e_neg <= n_order:
            coeffs[e_neg] = sign
        n += 1
    return QSeries(coeffs, n_order)


def jtp_product_side(n_order: int) -> BiSeries:
    """Triple product prod_{n>=1} (1 - w^2n)(1 + w^(2n-1) z^2)(1 + w^(2n-1) z^-2).

    Expanded exactly to w-order N, from the logarithmic derivative of the
    product F, as `euler_product_series` does for one variable:

        w d/dw log F = sum_{m>=1} L_m(z) w^m,
        L_m = -2 sigma(m/2) [m even]
              + sum_{k | m, m/k odd} (-1)^(k+1) (m/k) (z^2k + z^-2k),

    the first term from the factors (1 - w^2n), as in the Euler product at
    w^2, the second from expanding each log(1 + w^d z^+-2) at odd d = 2n - 1.
    So m F_m(z) = sum_{i=1}^{m} L_i(z) F_{m-i}(z), and every division by m is
    exact, since F_0 = 1 fixes the series one coefficient at a time.

    The sums are kept in columns, one list over w-degree for each
    z^2-exponent |j| <= isqrt(N), and built forward: each nonzero
    c = F_m[j] adds c L_i to the columns at degree m + i.  The even part is
    one stride-2 slice update of column j, from a row of -2 sigma that is
    built once for c = +-1 and scaled afresh for any other c.  The part in
    z^(+-2k) is one stride-2k slice update of column j +- k, adding
    c (-1)^(k+1) d at degree m + kd for odd d, an arithmetic progression
    read from a range.  F has no monomial w^p z^(2j) with j^2 > p, and the
    loop reads column j only from degree j^2 on, so an update starts at
    d = 1 and what it adds below that degree is never read.

    No value or sparsity is assumed: the nonzero positions are read from
    the coefficients already computed.  A nonzero coefficient costs about
    N (1/2 + log sqrt(N)) additions, the stride-2k updates summing to a
    harmonic series, and by the theta sum there are about 2 sqrt(N) of
    them.  A division with a remainder can only come from a broken sigma
    table and raises ArithmeticError.  Orders above
    `(isqrt(MAX_W_ORDER) + 2)^2`, the expansion `jtp_shift_residual` reads
    at MAX_W_ORDER, raise ValueError before anything is allocated.
    """
    _check_order(n_order, _expansion_order(MAX_W_ORDER))
    radius = isqrt(n_order)
    even = [-2 * s for s in _divisor_sums(n_order // 2)[1:]]  # at w^2, w^4, ...
    rows = {1: even, -1: [-a for a in even]}
    # cols[radius + j][m] holds m F_m[j] once the loop reaches m >= j^2; the
    # constant term is seeded as F_0 itself and read as F_0 / 1
    cols = [[0] * (n_order + 1) for _ in range(2 * radius + 1)]
    cols[radius][0] = 1
    coeffs = {}
    for m in range(n_order + 1):
        for j in range(-isqrt(m), isqrt(m) + 1):
            col = cols[radius + j]
            if not col[m]:
                continue
            c, r = divmod(col[m], m or 1)
            if r:
                raise ArithmeticError(f"inexact division at exponent {m}")
            coeffs[m, j] = c
            row = rows[c] if c in rows else [c * a for a in even]
            col[m + 2::2] = map(add, col[m + 2::2], row)
            # stride 2k from degree m + k, adding c (-1)^(k+1) d for odd d:
            # v, 3v, 5v, ...
            for s in (1, -1):
                for k in range(1, radius - s * j + 1):
                    target = cols[radius + j + s * k]
                    v = c if k % 2 else -c
                    target[m + k::2 * k] = map(
                        add, target[m + k::2 * k], range(v, v * (n_order + 2), 2 * v)
                    )
    return BiSeries(coeffs, n_order)


def jtp_sum_side(n_order: int) -> BiSeries:
    """Theta sum sum over n of w^(n^2) z^(2n), truncated to w-order N."""
    _check_order(n_order, MAX_W_ORDER)
    coeffs = {(0, 0): 1}
    n = 1
    while n * n <= n_order:
        coeffs[(n * n, n)] = 1
        coeffs[(n * n, -n)] = 1
        n += 1
    return BiSeries(coeffs, n_order)


def jtp_shift_residual(n_order: int) -> BiSeries:
    """(z^2 w) * F(w, wz) - F(w, z) truncated to w-order N, with F the triple product.

    The residual has no coefficients exactly when the shift relation holds;
    see `_jtp_expansion`, which computes it.
    """
    return _jtp_expansion(n_order)[1]


def _jtp_expansion(n_order: int) -> tuple[BiSeries, BiSeries]:
    """F(w, z) and its shift residual, both to w-order N, from one expansion of F.

    Substituting z -> wz sends the monomial w^m z^(2j) to w^(m+2j) z^(2j), so
    after the extra z^2 w factor a source monomial (m, j) lands at
    (m + 2j + 1, j + 1).  A z^2 step at w-cost 2n - 1 uses each odd weight at
    most once, hence |j| <= sqrt(m); source terms with m up to (sqrt(N) + 2)^2
    therefore cover every target w-degree <= N.  The same expansion, cut at
    order N, is F(w, z) itself.  The shift is one-to-one on keys, so the
    shifted terms need no accumulation before F(w, z) is subtracted.

    The expansion is one `jtp_product_side` call; nothing here depends on
    how it is computed.  Orders above
    MAX_W_ORDER raise ValueError before the expansion starts.
    """
    _check_order(n_order, MAX_W_ORDER)
    source = jtp_product_side(_expansion_order(n_order))
    product = BiSeries({k: c for k, c in source.coeffs.items() if k[0] <= n_order}, n_order)
    residual = {
        (m + 2 * j + 1, j + 1): c
        for (m, j), c in source.coeffs.items()
        if m + 2 * j + 1 <= n_order
    }
    for k, c in product.coeffs.items():
        residual[k] = residual.get(k, 0) - c
    return product, BiSeries(residual, n_order)


def eta_char_qseries(n_order: int) -> QSeries:
    """Theta form of eta in the variable u = q^(1/24): sum_{n>=1} chi12(n) u^(n^2).

    One unit of exponent here is 1/24 of a power of q, which keeps the series
    over integer-indexed coefficients.  Equals u times the Euler product
    rewritten in u^24, which is what the tests pin down.
    """
    _check_order(n_order, MAX_ORDER)
    coeffs = {}
    n = 1
    while n * n <= n_order:
        c = chi12(n)
        if c:
            coeffs[n * n] = c
        n += 1
    return QSeries(coeffs, n_order)
