"""Exact truncated power series over the integers, in one nome variable or two.

Everything here is exact: coefficients are Python ints, truncation orders are
explicit, and an identity between two series means coefficient-by-coefficient
equality up to the stated order.  These series carry the combinatorial side of
the toolkit: the Euler product, the pentagonal-number series, both sides of
the Jacobi triple product, and the theta-series form of eta driven by the
Dirichlet character mod 12.
"""

from __future__ import annotations

from math import isqrt
from operator import add, sub

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


def chi12(n: int) -> int:
    """Dirichlet character mod 12 (+1 on 1, 11; -1 on 5, 7; else 0)."""
    return _CHI12_TABLE[n % 12]


class QSeries:
    """Power series in one variable, truncated at `order`, with int coefficients.

    Coefficients are stored sparsely (zero entries are dropped).  Exponents
    above `order` are unknown, not zero, so `coeff` refuses them.  There is no
    series arithmetic: the producers below build a series, callers read it.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict[int, int], order: int):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        cleaned = {}
        for e, c in coeffs.items():
            if e < 0 or e > order:
                raise ValueError(f"exponent {e} outside [0, {order}]")
            if c:
                cleaned[e] = c
        self.coeffs = cleaned
        self.order = order

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls({0: 1}, order)

    def coeff(self, e: int) -> int:
        """Coefficient at exponent e; raises if e is beyond the known range."""
        if e > self.order:
            raise ValueError(f"coefficient at {e} is unknown (order {self.order})")
        return self.coeffs.get(e, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        head = " ".join(f"{c:+d}*q^{e}" for e, c in terms[:6])
        if len(terms) > 6:
            head += " ..."
        return f"QSeries({head or '0'}; order={self.order})"


class BiSeries:
    """Series in w truncated at `order`, Laurent in z^2, with int coefficients.

    A key (m, j) holds the coefficient of w^m * z^(2j); j may be negative.
    Both sides of the Jacobi triple product live here, so for every monomial
    |j| <= m (a z^2 step always costs at least one power of w).  Subtraction,
    the one operation, truncates to the lower order of its two operands.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict[tuple[int, int], int], order: int):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        cleaned = {}
        for (m, j), c in coeffs.items():
            if m < 0 or m > order:
                raise ValueError(f"w-exponent {m} outside [0, {order}]")
            if abs(j) > m:
                raise ValueError(f"z^2-exponent {j} exceeds w-degree {m}")
            if c:
                cleaned[(m, j)] = c
        self.coeffs = cleaned
        self.order = order

    @classmethod
    def one(cls, order: int) -> "BiSeries":
        return cls({(0, 0): 1}, order)

    def coeff(self, m: int, j: int) -> int:
        if m > self.order:
            raise ValueError(f"coefficient at w^{m} is unknown (order {self.order})")
        return self.coeffs.get((m, j), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        if not isinstance(other, BiSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = {k: c for k, c in self.coeffs.items() if k[0] <= order}
        for k, c in other.coeffs.items():
            if k[0] <= order:
                out[k] = out.get(k, 0) - c
        return BiSeries(out, order)

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        head = " ".join(f"{c:+d}*w^{m}*z^{2 * j}" for (m, j), c in terms[:4])
        if len(terms) > 4:
            head += " ..."
        return f"BiSeries({head or '0'}; order={self.order})"


def euler_product_series(n_order: int) -> QSeries:
    """prod_{n=1}^{N} (1 - q^n) truncated to order N.

    Factors with n > N cannot touch coefficients of exponent <= N, so the
    finite product determines the truncation exactly.  The factors are
    multiplied into a dense coefficient table in descending n.  Before factor
    m, the partial product prod_{n>m} (1 - q^n) is supported on {0} and
    [m+1, N], so multiplying by (1 - q^m) sets c[m] = -1 and changes only
    c[2m+1..N], by c[e] -= c[e-m] from c[m+1..N-m]: about N^2/4 updates,
    half those of the ascending order.  A c[m] is read or changed only after
    its own factor, so the table starts as 1, -1, ..., -1 and only the
    factors with 2m + 1 <= N do any work.
    """
    if n_order < 0:
        raise ValueError(f"order must be >= 0, got {n_order}")
    dense = [1] + [-1] * n_order
    for m in range((n_order - 1) // 2, 0, -1):
        dense[2 * m + 1:] = map(sub, dense[2 * m + 1:], dense[m + 1:n_order - m + 1])
    return QSeries({e: c for e, c in enumerate(dense) if c}, n_order)


def pentagonal_series(n_order: int) -> QSeries:
    """sum over all integers n of (-1)^n q^((3n^2 - n)/2), truncated to order N.

    The exponents (3n^2 -+ n)/2 are the generalized pentagonal numbers.
    """
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

    Expanded exactly to w-order N.  Only factors with 2n - 1 <= N can
    contribute, so n runs down from ceil(N / 2); the factors are multiplied
    in descending n.  The coefficient of w^m is a dense row over
    |j| <= isqrt(m): in every partial product a monomial w^m z^(2j) takes
    its |j| net z^2 steps from distinct odd weights 2n - 1, whose sum is at
    least j^2.  Each factor updates the rows in place from the top degree
    down, as in a 0/1 knapsack, and reads only the source degrees in the
    current support: 0, and [low, N - shift] where low is the smallest
    shift applied so far.  A source coefficient that would leave its target
    row contradicts the bound and raises.
    """
    if n_order < 0:
        raise ValueError(f"order must be >= 0, got {n_order}")
    radius = [isqrt(m) for m in range(n_order + 1)]
    rows = [[0] * (2 * r + 1) for r in radius]
    rows[0][0] = 1
    low = n_order + 1
    for n in range((n_order + 1) // 2, 0, -1):
        for shift, dj, op in ((2 * n, 0, sub), (2 * n - 1, 1, add), (2 * n - 1, -1, add)):
            if shift > n_order:
                continue
            for m in (*range(n_order - shift, low - 1, -1), 0):
                source, target = rows[m], rows[m + shift]
                at = radius[m + shift] - radius[m] + dj  # target index of source[0]
                if at == dj != 0:  # equal radii: one end of the source lands off the row
                    if source[-1 if dj > 0 else 0]:
                        raise ArithmeticError(f"z^2-exponent above isqrt({m + shift})")
                    source = source[:-1] if dj > 0 else source[1:]
                    at = max(at, 0)
                target[at:at + len(source)] = map(op, target[at:at + len(source)], source)
            low = shift
    return BiSeries(
        {(m, j - radius[m]): c for m, row in enumerate(rows) for j, c in enumerate(row) if c},
        n_order,
    )


def jtp_sum_side(n_order: int) -> BiSeries:
    """Theta sum sum over n of w^(n^2) z^(2n), truncated to w-order N."""
    coeffs = {(0, 0): 1}
    n = 1
    while n * n <= n_order:
        coeffs[(n * n, n)] = 1
        coeffs[(n * n, -n)] = 1
        n += 1
    return BiSeries(coeffs, n_order)


def jtp_shift_residual(n_order: int) -> BiSeries:
    """(z^2 w) * F(w, wz) - F(w, z) truncated to w-order N, with F the triple product.

    The residual is the zero series exactly when the shift relation holds;
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
    order N, is F(w, z) itself.
    """
    if n_order < 0:
        raise ValueError(f"order must be >= 0, got {n_order}")
    source = jtp_product_side((isqrt(n_order) + 2) ** 2)
    product = BiSeries({k: c for k, c in source.coeffs.items() if k[0] <= n_order}, n_order)
    shifted: dict[tuple[int, int], int] = {}
    for (m, j), c in source.coeffs.items():
        m2 = m + 2 * j + 1
        if m2 <= n_order:
            key = (m2, j + 1)
            shifted[key] = shifted.get(key, 0) + c
    return product, BiSeries(shifted, n_order) - product


def eta_char_qseries(n_order: int) -> QSeries:
    """Theta form of eta in the variable u = q^(1/24): sum_{n>=1} chi12(n) u^(n^2).

    One unit of exponent here is 1/24 of a power of q, which keeps the series
    over integer-indexed coefficients.  Equals u times the Euler product
    rewritten in u^24, which is what the tests pin down.
    """
    coeffs = {}
    n = 1
    while n * n <= n_order:
        c = chi12(n)
        if c:
            coeffs[n * n] = c
        n += 1
    return QSeries(coeffs, n_order)
