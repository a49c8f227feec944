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
from etaforge.modgroup import descent_step


def dedekind_sum_literal(h: int, k: int) -> Fraction:
    """Term-by-term Fraction evaluation of the defining sum; the slow oracle."""
    total = Fraction(0)
    for r in range(1, k):
        total += Fraction(r, k) * (Fraction(h * r, k) - (h * r) // k - Fraction(1, 2))
    return total


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
    with pytest.raises(ValueError, match=r"MAX_DIRECT_MODULUS = 10000000 .*--mode fast"):
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
    fib = [0, 1]
    while len(fib) < 1438:
        fib.append(fib[-1] + fib[-2])
    a, b, c, d = fib[1437], fib[1436], fib[1436], fib[1435]
    assert a * d - b * c == 1 and 1e299 < c < 1e301
    expected = Fraction(a + d, c) + 12 * dedekind_sum_fast(-d, c)
    assert omega(a, b, c, d) == expected


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
        q, reduced = descent_step(a, b, c, d)
        # the lower-right entry of the reduced matrix is c up to sign
        assert reduced.d in (c, -c)
        assert omega(a, b, c, d) == omega(*reduced) + q - 3 * reduced.d // c
        done += 1
