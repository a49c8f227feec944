"""Exact Dedekind-sum arithmetic.

s(h, k) is the rational number sum_{r=1}^{k-1} (r/k)(hr/k - floor(hr/k) - 1/2),
with s(h, 1) = 0.  The module provides the defining sum as an O(k) oracle, an
O(log k) evaluation from the continued fraction of k/h, two lattice-point
identities used as cross-checks, and the integer multiplier omega(a, b, c, d)
that drives the eta transformation phase.

All arithmetic is exact: values are fractions.Fraction (lowest terms, positive
denominator), never floats.  The fast evaluation is one Euclid pass in
integers, on 12k s(h, k) (_scaled_dedekind_sum), and omega and the
reciprocity campaign read that integer directly, so neither the eta
transformation law nor the campaign's fast sums build a Fraction.  The three
O(k) sums raise ValueError, before the loop, for k above MAX_DIRECT_MODULUS;
dedekind_sum_fast has no limit.

Every public function refuses an h, k or matrix entry not of type int, such
as ValueError("h must be of type int, got 2.0"), before any other check on
it; the private kernel _scaled_dedekind_sum checks nothing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf

from ._valuetype import check_int
from .modgroup import _check_unimodular, _entry_text

__all__ = [
    "dedekind_sum_naive",
    "dedekind_sum_fast",
    "floor_sum_check",
    "floor_square_sum_check",
    "omega",
]


# The largest k an O(k) sum accepts: the defining sum takes about 2 s there.
MAX_DIRECT_MODULUS = 10_000_000


def _check_modulus(k: int, limit: int | float = inf) -> None:
    """Raise ValueError unless k is of type int and in [1, limit]; the O(k)
    sums pass MAX_DIRECT_MODULUS as the limit."""
    check_int("k", k)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if k > limit:
        raise ValueError(
            f"k = {k} is above MAX_DIRECT_MODULUS = {limit} for an O(k) sum; "
            "use dedekind_sum_fast"
        )


def _check_coprime(h: int, k: int) -> None:
    """gcd(h, k) = 1, for h and k already checked: each caller checks h's
    type itself, once, in its own order."""
    g = gcd(h, k)
    if g != 1:
        raise ValueError(f"h and k must be coprime, got gcd({h}, {k}) = {g}")


def _check_floor_args(h: int, k: int) -> None:
    """The floor sums' hypotheses, checked in one order: k, then h's type,
    then h >= 1, then gcd(h, k) = 1, so both floor sums raise the same
    message for any input."""
    _check_modulus(k, MAX_DIRECT_MODULUS)
    check_int("h", h)
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    _check_coprime(h, k)


def dedekind_sum_naive(h: int, k: int) -> Fraction:
    """s(h, k) by direct evaluation of the defining sum.

    Works for any integer h (coprimality is not part of the definition).
    Each term is r/k * ((hr mod k)/k - 1/2); over the common denominator 2k^2
    the sum is 2 sum r (hr mod k) - k sum r, so the loop accumulates the
    integers r (hr mod k) and the constant k sum r = k^2 (k-1)/2 is taken out.
    A term reads h only through hr mod k = (h mod k) r mod k, so h is reduced
    mod k first and the loop multiplies small integers whatever h's size.
    """
    _check_modulus(k, MAX_DIRECT_MODULUS)
    check_int("h", h)
    h %= k
    total = 2 * sum(r * (h * r % k) for r in range(1, k)) - k * k * (k - 1) // 2
    return Fraction(total, 2 * k * k)


def dedekind_sum_fast(h: int, k: int) -> Fraction:
    """s(h, k) for coprime arguments in O(log k) steps.

    s is periodic in h, so h is reduced mod k; the value then comes from the
    partial quotients of k/h and the inverse of h mod k, both read off one
    Euclidean pass over (k, h) in integers (_scaled_dedekind_sum).  The only
    Fraction built is the result.
    """
    _check_modulus(k)
    check_int("h", h)
    _check_coprime(h, k)
    return Fraction(_scaled_dedekind_sum(h, k), 12 * k)


def _scaled_dedekind_sum(h: int, k: int) -> int:
    """The integer N = 12k s(h, k), for k >= 1 and gcd(h, k) = 1 (unchecked).

    After h %= k, let k/h = [a_1; a_2, ..., a_n] be the continued fraction
    that Euclid's algorithm on (k, h) produces, and hbar = h^-1 mod k in
    [0, k).  Then

        N = k (a_1 - a_2 + ... + (-1)^(n+1) a_n + (-1)^n - 2) + h + hbar

    (D. Hickerson, "Continued fractions and density results for Dedekind
    sums", J. reine angew. Math. 290, 1977; Knuth, TAOCP vol. 2, 3.3.3), and
    N = 0 at k = 1.  One loop runs Euclid and carries each remainder's
    Bezout cofactor u, remainder = u h (mod k), so the cofactor of the last
    remainder 1 is hbar.  Each iteration takes two half-steps, a_i with i
    odd and then a_(i+1), so the remainder that reaches 0 tells the parity
    of n and no sign is carried.  No number in the loop exceeds k in size.
    """
    h %= k
    if k == 1:
        return 0
    a, b, ua, ub, alternating = k, h, 0, 1, 0
    while True:
        q, a = divmod(a, b)
        ua -= q * ub
        alternating += q
        if not a:  # n odd: b = 1 = ub h (mod k)
            return k * (alternating - 3) + h + ub % k
        q, b = divmod(b, a)
        ub -= q * ua
        alternating -= q
        if not b:  # n even: a = 1 = ua h (mod k)
            return k * (alternating - 1) + h + ua % k


def floor_sum_check(h: int, k: int) -> tuple[int, int]:
    """Both sides of sum_{r=1}^{k-1} floor(hr/k) = (h-1)(k-1)/2, independently.

    Requires gcd(h, k) = 1 and h >= 1; the two return values agree exactly
    whenever the hypotheses hold.  Both sides depend on h itself, not only on
    h mod k, so h is not reduced.
    """
    _check_floor_args(h, k)
    lhs = sum((h * r) // k for r in range(1, k))
    rhs = (h - 1) * (k - 1) // 2
    return lhs, rhs


def floor_square_sum_check(h: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the squared floor-sum identity, independently.

    lhs = sum_{r=1}^{k-1} floor(hr/k)^2
    rhs = 2h s(k, h) + (2hk - 3h - k + 3)(h - 1)/6

    for positive coprime h, k.  Both sides are returned as exact fractions;
    with s(k, h) = p/q the right side is built as the one exact fraction
    (12hp + (2hk - 3h - k + 3)(h - 1)q) / (6q).  Both sides depend on h
    itself, not only on h mod k, so h is not reduced.
    """
    _check_floor_args(h, k)
    lhs = Fraction(sum(((h * r) // k) ** 2 for r in range(1, k)))
    s = dedekind_sum_fast(k, h)
    p, q = s.numerator, s.denominator
    rhs = Fraction(12 * h * p + (2 * h * k - 3 * h - k + 3) * (h - 1) * q, 6 * q)
    return lhs, rhs


def omega(a: int, b: int, c: int, d: int) -> int:
    """Multiplier exponent omega(a, b, c, d) = (a + d)/c + 12 s(-d, c).

    Defined for a unimodular integer matrix with c >= 1; an entry whose type
    is not int (a bool, a float or a Fraction) raises ValueError.  The value
    is always an integer.  With N = 12c s(-d, c), itself an integer, it is
    (a + d + N) / c, divided in exact integer arithmetic with no Fraction
    built; the determinant makes gcd(c, d) = 1.  A nonzero remainder is
    asserted against, so a non-integer result can only mean a bug in the
    Dedekind-sum code, never bad input.
    """
    _check_unimodular(a, b, c, d)
    if c < 1:
        raise ValueError(f"c must be >= 1, got {_entry_text(c)}")
    num = a + d + _scaled_dedekind_sum(-d, c)
    value, rem = divmod(num, c)
    if rem:
        raise AssertionError(
            f"omega({a}, {b}, {c}, {d}) = {num}/{c} is not an integer; "
            "Dedekind-sum arithmetic is broken"
        )
    return value
