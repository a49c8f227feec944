"""Dedekind sums: defining-sum oracle vs fast algorithm, floor-sum identities,
reciprocity, and the integer multiplier omega.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from etaforge import dedekind
from etaforge import (
    dedekind_sum_fast,
    dedekind_sum_naive,
    floor_square_sum_check,
    floor_sum_check,
    omega,
)
from etaforge.modgroup import ModularMatrix, _descent_step


def dedekind_sum_literal(h: int, k: int) -> Fraction:
    """Term-by-term Fraction evaluation of the defining sum; the slow oracle."""
    total = Fraction(0)
    for r in range(1, k):
        total += Fraction(r, k) * (Fraction(h * r, k) - (h * r) // k - Fraction(1, 2))
    return total


def reference_scaled_dedekind_sum(h: int, k: int) -> int:
    """12k s(h, k) by the reciprocity descent s(h, k) = (h^2 + k^2 - 3hk + 1)
    / (12hk) - s(k mod h, h), carrying one numerator over 12 k0 h with one
    exact division by k per step."""
    h %= k
    k0 = k
    num = 0
    sign = 1
    while h > 0:
        num = (num * h + sign * (h * h + k * k - 3 * h * k + 1) * k0) // k
        sign = -sign
        h, k = k % h, h
    return num


def fibonacci_numbers(n: int) -> list[int]:
    """F(0), ..., F(n)."""
    fib = [0, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    return fib


def coprime_pairs(limit):
    for k in range(1, limit + 1):
        for h in range(1, k):
            if gcd(h, k) == 1:
                yield h, k


def test_naive_matches_literal_fraction_sum():
    rng = random.Random(3)
    cases = [(0, 1), (1, 3), (5, 7), (2, 4), (6, 9), (-5, 7), (-14, 9)]
    cases += [(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(60)]
    for h, k in cases:
        assert dedekind_sum_naive(h, k) == dedekind_sum_literal(h, k), (h, k)


def test_naive_known_values():
    assert dedekind_sum_naive(0, 1) == 0
    assert dedekind_sum_naive(1, 3) == Fraction(1, 18)
    assert dedekind_sum_naive(5, 7) == Fraction(-1, 14)


def test_naive_accepts_non_coprime():
    # the defining sum needs no coprimality
    assert dedekind_sum_naive(2, 4) == dedekind_sum_literal(2, 4)
    assert dedekind_sum_naive(6, 9) == dedekind_sum_literal(6, 9)


def test_naive_reduces_a_huge_h_to_its_residue():
    # every term reads h through hr mod k only; a 20001-digit h, positive or
    # negative, gives the value of its residue mod k
    huge = 10**20000
    assert dedekind_sum_naive(huge + 1, 10**4) == dedekind_sum_naive(1, 10**4)
    assert dedekind_sum_naive(1 - huge, 10**4) == dedekind_sum_naive(1, 10**4)
    assert dedekind_sum_naive(-7 * huge - 3, 7) == dedekind_sum_naive(4, 7)


def test_fast_known_values():
    assert dedekind_sum_fast(1, 2) == 0
    assert dedekind_sum_fast(5, 7) == Fraction(-1, 14)
    for h in (-17, -1, 0, 1, 2, 40):
        assert dedekind_sum_fast(h, 1) == 0


def test_fast_equals_naive_on_coprime_pairs():
    for h, k in coprime_pairs(60):
        assert dedekind_sum_fast(h, k) == dedekind_sum_naive(h, k), (h, k)


def test_fast_equals_naive_negative_and_large_h():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(2, 120)
        h = rng.randint(-10**6, 10**6)
        if gcd(h, k) != 1:
            continue
        assert dedekind_sum_fast(h, k) == dedekind_sum_naive(h, k), (h, k)


def test_fast_equals_naive_sweep_outside_zero_to_k():
    for k in range(1, 41):
        for h in [*range(-2 * k - 1, 0), *range(k + 1, 3 * k + 2)]:
            if gcd(h, k) == 1:
                assert dedekind_sum_fast(h, k) == dedekind_sum_naive(h, k), (h, k)


def test_fast_at_modulus_near_1e18():
    # value computed by the step-by-step Fraction descent
    assert dedekind_sum_fast(999_999_999_999_999_989, 10**18 + 9) == Fraction(
        -4166666666666666666666666666666668, 1000000000000000009
    )


def test_kernel_matches_reciprocity_descent_on_small_pairs():
    # k = 1 has no partial quotient; the kernel returns 0 for any h there
    for h in (-(10**30), -2, 2, 10**30):
        assert dedekind._scaled_dedekind_sum(h, 1) == 0 == reference_scaled_dedekind_sum(h, 1)
    for k in range(1, 301):
        for h in range(-k, 2 * k):
            if gcd(h, k) == 1:
                assert dedekind._scaled_dedekind_sum(h, k) == reference_scaled_dedekind_sum(
                    h, k
                ), (h, k)


@pytest.mark.parametrize("bits, pairs", [(64, 300), (128, 200), (1000, 20)])
def test_kernel_matches_reciprocity_descent_on_random_pairs(bits, pairs):
    rng = random.Random(bits)
    done = 0
    while done < pairs:
        k = rng.getrandbits(bits) | 1 << (bits - 1)
        h = rng.randrange(-k, 2 * k)
        if gcd(h, k) == 1:
            assert dedekind._scaled_dedekind_sum(h, k) == reference_scaled_dedekind_sum(
                h, k
            ), (h, k)
            done += 1


def test_fast_rejects_non_coprime_and_bad_modulus():
    with pytest.raises(ValueError):
        dedekind_sum_fast(2, 4)
    with pytest.raises(ValueError):
        dedekind_sum_fast(1, 0)
    with pytest.raises(ValueError):
        dedekind_sum_naive(1, -3)


@pytest.mark.parametrize(
    "direct_sum", [dedekind_sum_naive, floor_sum_check, floor_square_sum_check]
)
def test_direct_sums_refuse_modulus_above_the_limit(direct_sum):
    # raised before the O(k) loop, which would take seconds here
    assert dedekind.MAX_DIRECT_MODULUS == 10**7
    with pytest.raises(ValueError, match=r"MAX_DIRECT_MODULUS = 10000000 .* dedekind_sum_fast$"):
        direct_sum(1, 10**7 + 1)


def test_periodicity():
    for h, k in coprime_pairs(60):
        assert dedekind_sum_fast(h + k, k) == dedekind_sum_fast(h, k)


def test_oddness():
    for h, k in coprime_pairs(60):
        assert dedekind_sum_fast(-h, k) == -dedekind_sum_fast(h, k)


def test_reciprocity():
    for h, k in coprime_pairs(100):
        lhs = dedekind_sum_fast(h, k) + dedekind_sum_fast(k, h)
        assert lhs == Fraction(h * h + k * k - 3 * h * k + 1, 12 * h * k), (h, k)


def test_s_one_h_closed_form():
    for h in range(1, 200):
        assert dedekind_sum_fast(1, h) == Fraction(h * h - 3 * h + 2, 12 * h)


def test_denominator_divides_6k():
    for k in range(1, 120):
        for h in range(0, k):
            assert (6 * k) % dedekind_sum_naive(h, k).denominator == 0, (h, k)


def test_floor_sum_check():
    assert floor_sum_check(3, 4) == (3, 3)
    assert floor_sum_check(7, 5) == (12, 12)
    for k in (2, 5, 9, 30):
        assert floor_sum_check(1, k) == (0, 0)
    for h, k in coprime_pairs(60):
        lhs, rhs = floor_sum_check(h, k)
        assert lhs == rhs, (h, k)
    with pytest.raises(ValueError):
        floor_sum_check(2, 4)


def test_floor_square_sum_check():
    assert floor_square_sum_check(3, 4) == (5, 5)
    for k in (2, 5, 9, 30):
        assert floor_square_sum_check(1, k) == (0, 0)
    lhs, rhs = floor_square_sum_check(5, 7)
    assert lhs == sum(((5 * r) // 7) ** 2 for r in range(1, 7)) == rhs
    for h, k in coprime_pairs(60):
        lhs, rhs = floor_square_sum_check(h, k)
        assert lhs == rhs, (h, k)
    with pytest.raises(ValueError):
        floor_square_sum_check(4, 6)


@pytest.mark.parametrize(
    "h, k, message",
    [
        (0, 2, "h must be >= 1, got 0"),
        (-1, 2, "h must be >= 1, got -1"),
        (2, 0, "k must be a positive integer, got 0"),
        (2, 4, "h and k must be coprime, got gcd(2, 4) = 2"),
    ],
)
def test_floor_sums_check_their_arguments_alike(h, k, message):
    # one order for both: k, then h >= 1, then coprimality
    for floor_sum in (floor_sum_check, floor_square_sum_check):
        with pytest.raises(ValueError) as exc:
            floor_sum(h, k)
        assert str(exc.value) == message, floor_sum.__name__


def test_omega_known_values():
    assert omega(0, -1, 1, 0) == 0
    assert omega(2, 1, 1, 1) == 3
    assert omega(1, 0, 3, 1) == 0


def test_omega_of_lower_translation():
    # the exact multiplier exponent behind transform_factor((1, 0; 1, 1), tau)
    assert omega(1, 0, 1, 1) == 2


def test_omega_rejects_bad_input():
    with pytest.raises(ValueError):
        omega(1, 1, 1, 1)  # determinant 0
    with pytest.raises(ValueError):
        omega(1, 0, 0, 1)  # c = 0
    with pytest.raises(ValueError):
        omega(0, 1, -1, 0)  # c < 0


def test_omega_names_an_entry_past_the_digit_limit_by_bit_length():
    with pytest.raises(ValueError, match=r"determinant 1") as caught:
        omega(1, 1, 10**5000, 1)
    assert "(1, 1; <16610-bit integer>, 1)" in str(caught.value)
    with pytest.raises(ValueError, match=r"^c must be >= 1, got -<16610-bit integer>$"):
        omega(1, 0, -(10**5000), 1)


def test_omega_asserts_on_non_integral_value(monkeypatch):
    # N = 12c s(-d, c) off by one makes (a + d + N)/c non-integral once c >= 2
    # (at c = 1 every integer N still gives an integer)
    exact = dedekind._scaled_dedekind_sum

    def off_by_one(h, k):
        return exact(h, k) + 1

    monkeypatch.setattr(dedekind, "_scaled_dedekind_sum", off_by_one)
    for entries in ((1, 0, 3, 1), (2, 1, 3, 2), (13567, 1341, 2074, 205)):
        with pytest.raises(AssertionError):
            omega(*entries)


def test_omega_matches_defining_sum():
    # omega = (a + d)/c + 12 s(-d, c), with s from the O(k) oracle
    for c in range(1, 61):
        for d in range(-c, 2 * c + 1):
            if gcd(c, d) != 1:
                continue
            inverse = pow(d, -1, c)
            for a in (inverse, inverse + c):
                b = (a * d - 1) // c
                expected = Fraction(a + d, c) + 12 * dedekind_sum_naive(-d, c)
                assert omega(a, b, c, d) == expected, (a, b, c, d)


def test_omega_matches_fraction_formula_at_huge_modulus():
    # (F(n+1), F(n); F(n), F(n-1)) has determinant (-1)^n; n = 1436 gives c ~ 1e300
    fib = fibonacci_numbers(1437)
    a, b, c, d = fib[1437], fib[1436], fib[1436], fib[1435]
    assert a * d - b * c == 1 and 1e299 < c < 1e301
    expected = Fraction(a + d, c) + 12 * dedekind_sum_fast(-d, c)
    assert omega(a, b, c, d) == expected


def test_omega_matches_reciprocity_descent_at_a_999_bit_fibonacci_matrix():
    fib = fibonacci_numbers(1441)
    a, b, c, d = fib[1441], fib[1440], fib[1440], fib[1439]
    assert a * d - b * c == 1 and c.bit_length() == 999
    num = a + d + reference_scaled_dedekind_sum(-d, c)
    assert num % c == 0
    assert omega(a, b, c, d) == num // c


def test_omega_integral_on_random_matrices():
    rng = random.Random(5)
    for _ in range(300):
        # random unimodular with c >= 1 via two Euclidean-style rows
        c = rng.randint(1, 10**4)
        d = rng.randint(-10**4, 10**4)
        if gcd(c, d) != 1:
            continue
        # solve a*d - b*c = 1
        a = pow(d, -1, c) if c > 1 else rng.randint(-5, 5)
        b = (a * d - 1) // c
        assert a * d - b * c == 1
        omega(a, b, c, d)  # raises if not an integer


def test_omega_descent_recursion():
    rng = random.Random(6)
    done = 0
    while done < 200:
        c = rng.randint(2, 10**4)
        d = rng.randint(-10**4, 10**4)
        if gcd(c, d) != 1:
            continue
        a = pow(d, -1, c)
        b = (a * d - 1) // c
        q, *rest = _descent_step(a, b, c, d)
        reduced = ModularMatrix(*rest)
        # the lower-right entry of the reduced matrix is c up to sign
        assert reduced.d in (c, -c)
        assert omega(a, b, c, d) == omega(*reduced) + q - 3 * reduced.d // c
        done += 1
