"""Exact Dedekind-sum arithmetic.

s(h, k) is the rational number sum_{r=1}^{k-1} (r/k)(hr/k - floor(hr/k) - 1/2),
with s(h, 1) = 0.  The module provides the defining sum as an O(k) oracle, a
reciprocity-based O(log k) evaluation, two lattice-point identities used as
cross-checks, and the integer multiplier omega(a, b, c, d) that drives the
eta transformation phase.

All arithmetic is exact: values are fractions.Fraction (lowest terms, positive
denominator), never floats.  The reciprocity descent itself runs in integers,
on 12k s(h, k) (_scaled_dedekind_sum), and omega and the reciprocity campaign
read that integer directly, so neither the eta transformation law nor the
campaign's fast sums build a Fraction.  The three O(k) sums raise ValueError,
before the loop, for k above MAX_DIRECT_MODULUS; dedekind_sum_fast has no
limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def _check_modulus(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")


def _check_direct_modulus(k: int) -> None:
    """_check_modulus, plus the limit of the O(k) sums."""
    _check_modulus(k)
    if k > MAX_DIRECT_MODULUS:
        raise ValueError(
            f"k = {k} is above MAX_DIRECT_MODULUS = {MAX_DIRECT_MODULUS} for an O(k) sum; "
            "use dedekind_sum_fast (--mode fast)"
        )


def _check_coprime(h: int, k: int) -> None:
    g = gcd(h, k)
    if g != 1:
        raise ValueError(f"h and k must be coprime, got gcd({h}, {k}) = {g}")


def dedekind_sum_naive(h: int, k: int) -> Fraction:
    """s(h, k) by direct evaluation of the defining sum.

    Works for any integer h (coprimality is not part of the definition).
    Each term is r/k * ((hr mod k)/k - 1/2); over the common denominator 2k^2
    the sum is 2 sum r (hr mod k) - k sum r, so the loop accumulates the
    integers r (hr mod k) and the constant k sum r = k^2 (k-1)/2 is taken out.
    """
    _check_direct_modulus(k)
    total = 2 * sum(r * (h * r % k) for r in range(1, k)) - k * k * (k - 1) // 2
    return Fraction(total, 2 * k * k)


def dedekind_sum_fast(h: int, k: int) -> Fraction:
    """s(h, k) for coprime arguments in O(log k) steps.

    First reduce h mod k (s is periodic in h), then repeat the reciprocity
    exchange

        s(h, k) = (h^2 + k^2 - 3hk + 1) / (12hk) - s(k, h),
        s(k, h) = s(k mod h, h),

    until the second argument reaches 1, where s vanishes.  Each step is a
    Euclidean division, so the (h, k) pair shrinks like gcd computation.
    The steps run in integers (_scaled_dedekind_sum), and the only Fraction
    built is the result.
    """
    _check_modulus(k)
    _check_coprime(h, k)
    return Fraction(_scaled_dedekind_sum(h, k), 12 * k)


def _scaled_dedekind_sum(h: int, k: int) -> int:
    """The integer 12k s(h, k), for k >= 1 and gcd(h, k) = 1 (unchecked).

    After the reciprocity step at (h, k) the sum so far is s(h0, k0) -+
    s(k mod h, h), and 6k s(h, k) is an integer for every s(h, k), so the sum
    is num / (12 k0 h) for an integer num.  A step thus goes from
    num / (12 k0 k) to num' / (12 k0 h) with one exact division by k, and the
    last step, at h = 1, leaves num = 12 k0 s(h0, k0).
    """
    h %= k
    k0 = k
    num = 0
    sign = 1
    while h > 0:
        num = (num * h + sign * (h * h + k * k - 3 * h * k + 1) * k0) // k
        sign = -sign
        h, k = k % h, h
    return num


def floor_sum_check(h: int, k: int) -> tuple[int, int]:
    """Both sides of sum_{r=1}^{k-1} floor(hr/k) = (h-1)(k-1)/2, independently.

    Requires gcd(h, k) = 1 and h >= 1; the two return values agree exactly
    whenever the hypotheses hold.
    """
    _check_direct_modulus(k)
    _check_coprime(h, k)
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    lhs = sum((h * r) // k for r in range(1, k))
    rhs = (h - 1) * (k - 1) // 2
    return lhs, rhs


def floor_square_sum_check(h: int, k: int) -> tuple[Fraction, Fraction]:
    """Both sides of the squared floor-sum identity, independently.

    lhs = sum_{r=1}^{k-1} floor(hr/k)^2
    rhs = 2h s(k, h) + (2hk - 3h - k + 3)(h - 1)/6

    for positive coprime h, k.  Both sides are returned as exact fractions;
    with s(k, h) = p/q the right side is built as the one exact fraction
    (12hp + (2hk - 3h - k + 3)(h - 1)q) / (6q).
    """
    _check_direct_modulus(k)
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    _check_coprime(h, k)
    lhs = Fraction(sum(((h * r) // k) ** 2 for r in range(1, k)))
    s = dedekind_sum_fast(k, h)
    p, q = s.numerator, s.denominator
    rhs = Fraction(12 * h * p + (2 * h * k - 3 * h - k + 3) * (h - 1) * q, 6 * q)
    return lhs, rhs


def omega(a: int, b: int, c: int, d: int) -> int:
    """Multiplier exponent omega(a, b, c, d) = (a + d)/c + 12 s(-d, c).

    Defined for a unimodular integer matrix with c >= 1; an entry whose type
    is not int (a bool or a float) raises ValueError.  The value is always
    an integer.  With N = 12c s(-d, c), itself an integer, it is
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
