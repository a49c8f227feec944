"""Exact series identities: Euler product, pentagonal numbers, triple product,
and the character theta form.  Expected values come from a brute-force dense
polynomial oracle defined below, independent of the sparse implementation,
and at larger orders from the plain descending loops over every factor, which
the fast products must reproduce exactly.
"""

import random
from itertools import accumulate
from math import isqrt
from operator import add, sub

import pytest

from etaforge import qseries
from etaforge import (
    BiSeries,
    QSeries,
    chi12,
    eta_char_qseries,
    euler_product_series,
    jtp_product_side,
    jtp_shift_residual,
    jtp_sum_side,
    pentagonal_series,
)


def poly_mul(a: list[int], b: list[int], order: int) -> list[int]:
    """Dense truncated polynomial product, the oracle behind `brute_euler`."""
    out = [0] * (order + 1)
    for i, ca in enumerate(a):
        if ca == 0 or i > order:
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ca * cb
    return out


def brute_euler(order: int) -> list[int]:
    """prod (1 - q^n) by repeated dense multiplication."""
    acc = [1]
    for n in range(1, order + 1):
        factor = [0] * (n + 1)
        factor[0] = 1
        factor[n] = -1
        acc = poly_mul(acc, factor, order)
    return acc


def partition_numbers(order: int) -> list[int]:
    """p(0..order), the partitions of each n, counted part size by part size."""
    counts = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            counts[n] += counts[n - part]
    return counts


def as_qseries(dense: list[int], order: int) -> QSeries:
    return QSeries({e: c for e, c in enumerate(dense) if c}, order)


def brute_jtp(order: int) -> BiSeries:
    """The triple product by repeated dense multiplication, ascending n.

    The table is dense in both variables: row m covers every z^2-exponent
    |j| <= order, so it assumes no bound on j beyond the order itself.
    """
    width = 2 * order + 1
    acc = [[0] * width for _ in range(order + 1)]
    acc[0][order] = 1
    for n in range(1, order + 1):
        for dm, dj, sign in ((2 * n, 0, -1), (2 * n - 1, 1, 1), (2 * n - 1, -1, 1)):
            product = [row[:] for row in acc]
            for m in range(order + 1 - dm):
                for i, c in enumerate(acc[m]):
                    if c:
                        product[m + dm][i + dj] += sign * c
            acc = product
    return BiSeries(
        {(m, i - order): c for m, row in enumerate(acc) for i, c in enumerate(row) if c},
        order,
    )


def reference_euler(n_order: int) -> QSeries:
    """prod (1 - q^n) by one in-place slice update per factor, descending n.

    Before factor m the partial product is supported on {0} and [m+1, N], so
    (1 - q^m) sets c[m] = -1 and changes only c[2m+1..N].
    """
    dense = [1] + [-1] * n_order
    for m in range((n_order - 1) // 2, 0, -1):
        dense[2 * m + 1:] = map(sub, dense[2 * m + 1:], dense[m + 1:n_order - m + 1])
    return as_qseries(dense, n_order)


def reference_divisor_sums(n: int) -> list[int]:
    """sigma(0..n) by one slice update per d <= n: d adds itself to every multiple."""
    sig = [0] * (n + 1)
    for d in range(1, n + 1):
        sig[d::d] = map(d.__add__, sig[d::d])
    return sig


def reference_jtp(n_order: int) -> BiSeries:
    """The triple product by a 0/1 knapsack over all three factors, descending n.

    Row m is dense over |j| <= isqrt(m); each factor reads the source degrees
    0 and [low, N - shift], low being the smallest shift applied so far.
    """
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
                at = radius[m + shift] - radius[m] + dj
                if at == dj != 0:
                    assert not source[-1 if dj > 0 else 0]
                    source = source[:-1] if dj > 0 else source[1:]
                    at = max(at, 0)
                target[at:at + len(source)] = map(op, target[at:at + len(source)], source)
            low = shift
    return BiSeries(
        {(m, j - radius[m]): c for m, row in enumerate(rows) for j, c in enumerate(row) if c},
        n_order,
    )


# --- Series containers ------------------------------------------------------


PRODUCERS = [
    euler_product_series,
    pentagonal_series,
    jtp_product_side,
    jtp_sum_side,
    jtp_shift_residual,
    eta_char_qseries,
]


@pytest.mark.parametrize("producer", PRODUCERS)
def test_negative_order_rejected(producer):
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
        producer(-1)


@pytest.mark.parametrize(
    "producer, limit",
    [
        (euler_product_series, qseries.MAX_ORDER),
        (pentagonal_series, qseries.MAX_ORDER),
        (eta_char_qseries, qseries.MAX_ORDER),
        (jtp_sum_side, qseries.MAX_W_ORDER),
        (jtp_shift_residual, qseries.MAX_W_ORDER),
        # the expansion jtp_shift_residual reads at its own limit
        (jtp_product_side, (isqrt(qseries.MAX_W_ORDER) + 2) ** 2),
    ],
)
def test_order_above_the_limit_rejected_before_any_work(producer, limit):
    # at 10^18 any table or loop would fail or spin before the check
    for order in (limit + 1, 10**18):
        with pytest.raises(ValueError, match=rf"^order {order} is above the limit {limit} "):
            producer(order)


def test_unknown_coefficient_is_rejected():
    a = QSeries({0: 1}, 4)
    try:
        a.coeff(5)
    except ValueError:
        pass
    else:
        raise AssertionError("coefficient beyond the order must not be reported")


def test_exponent_beyond_order_rejected_at_construction():
    try:
        QSeries({7: 1}, 4)
    except ValueError:
        pass
    else:
        raise AssertionError("exponent above order must be rejected")


# --- Euler product ----------------------------------------------------------


def test_divisor_sums_match_trial_division():
    # every n <= 400 passes the split isqrt(n) at each s^2 - 1, s^2 and
    # s^2 + 1; sigma(m) does not depend on n, so one trial-division table
    # serves every n, and n = 0 and 1 are the empty and the one-entry sieve
    trial = [0] + [sum(x for x in range(1, m + 1) if m % x == 0) for m in range(1, 401)]
    for n in range(401):
        assert qseries._divisor_sums(n) == trial[:n + 1], n
    assert qseries._divisor_sums(qseries.MAX_ORDER) == reference_divisor_sums(qseries.MAX_ORDER)


def test_euler_product_empty():
    assert euler_product_series(0) == QSeries({0: 1}, 0)


def test_euler_product_order_seven():
    assert [euler_product_series(7).coeff(e) for e in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]


def test_euler_product_order_fifteen_support():
    # nonzero only at generalized pentagonal exponents
    s = euler_product_series(15)
    assert s.coeffs == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}


def test_euler_product_matches_brute_force():
    for order in (*range(61), 120):
        assert euler_product_series(order) == as_qseries(brute_euler(order), order), (
            f"euler product disagrees with dense oracle at order {order}"
        )


def test_euler_product_matches_the_descending_loop():
    # every order up to 512: a wrong sigma(m) first enters at exponent m, as
    # sigma(m) p(0), so the sweep reaches each m <= 512 where the division
    # first becomes inexact, also as the last exponent of a run; below 512
    # the reference is its order-512 table cut at each order, which factors
    # past that order do not touch.  The kernel decodes its packed sums 256
    # exponents at a time, so the sweep ends a run on either side of the
    # block edges at 256 and 512, in a block of one and of 256 exponents
    reference = reference_euler(512).coeffs
    for order in range(513):
        expected = QSeries({e: c for e, c in reference.items() if e <= order}, order)
        assert euler_product_series(order) == expected, order
    assert euler_product_series(10_000) == reference_euler(10_000)


def test_euler_coefficients_are_signs():
    s = euler_product_series(2000)
    assert all(c in (-1, 1) for c in s.coeffs.values())


def test_euler_kernel_takes_any_coefficient_value(monkeypatch):
    # 3 sigma is q P'/P for P the cube of the Euler product, whose coefficient
    # at n(n+1)/2 is (-1)^n (2n + 1) (Jacobi); values past +-1 scale the
    # kernel's rows afresh, both the decoded one inside a block and the packed
    # one past it, and order 300 runs past the first block of 256 exponents
    sigma = qseries._divisor_sums
    monkeypatch.setattr(qseries, "_divisor_sums", lambda n: [3 * s for s in sigma(n)])
    expected = {n * (n + 1) // 2: (-1) ** n * (2 * n + 1) for n in range(25)}
    assert euler_product_series(300) == QSeries(expected, 300)


def test_euler_kernel_is_exact_or_raises_up_to_its_field_bound(monkeypatch):
    # -sigma is q Q'/Q for Q = 1 / prod (1 - q^n), whose coefficients are the
    # partition numbers, so every one is positive and their running sum
    # grows fast.  The packed sums hold while (1 + sum p(i)) max sigma stays
    # below 2^30: up to order 59 every coefficient is exact, and from order 60
    # on each run raises at the first exponent past the bound, never
    # returning a wrong coefficient
    sigma = qseries._divisor_sums
    monkeypatch.setattr(qseries, "_divisor_sums", lambda n: [-s for s in sigma(n)])
    counts = partition_numbers(300)
    running = list(accumulate(counts))
    table = sigma(300)
    last = max(n for n in range(301) if running[n] * max(table[:n + 1]) < 2**30)
    assert last == 59
    for order in range(last + 1):
        assert euler_product_series(order) == as_qseries(counts[:order + 1], order), order
    for order in range(last + 1, 301):
        top = max(table[:order + 1])
        first = min(m for m in range(order + 1) if running[m] * top >= 2**30)
        with pytest.raises(ArithmeticError, match=rf"^packed field overflow at exponent {first}$"):
            euler_product_series(order)


def test_euler_kernel_rejects_a_sigma_table_past_the_field_bound(monkeypatch):
    # a table entry of 2^30 overflows the packed sums before any row is added
    monkeypatch.setattr(qseries, "_divisor_sums", lambda n: [0] * n + [2**30])
    with pytest.raises(ArithmeticError, match="^packed field overflow at exponent 0$"):
        euler_product_series(3)


# --- Pentagonal series ------------------------------------------------------


def test_pentagonal_small_orders():
    assert pentagonal_series(0) == QSeries({0: 1}, 0)
    assert pentagonal_series(2).coeffs == {0: 1, 1: -1, 2: -1}


def test_pentagonal_order_twelve():
    s = pentagonal_series(12)
    assert s.coeff(5) == 1    # n = 2
    assert s.coeff(7) == 1    # n = -2
    assert s.coeff(12) == -1  # n = 3


def test_pentagonal_equals_euler_product():
    rng = random.Random(7)
    orders = [0, 1, 2, 3, 500, qseries.MAX_ORDER] + [rng.randint(4, 400) for _ in range(8)]
    for order in orders:
        assert euler_product_series(order) == pentagonal_series(order), (
            f"pentagonal identity fails at order {order}"
        )


# --- Jacobi triple product --------------------------------------------------


def test_jtp_product_constant_term():
    assert jtp_product_side(0) == BiSeries({(0, 0): 1}, 0)


def test_jtp_product_low_slices():
    prod = jtp_product_side(4)
    assert [prod.coeff(1, j) for j in range(-1, 2)] == [1, 0, 1]    # z^2 + z^-2
    assert [prod.coeff(4, j) for j in range(-4, 5)] == [0, 0, 1, 0, 0, 0, 1, 0, 0]  # z^4 + z^-4


def test_jtp_product_matches_brute_force():
    for order in range(41):
        assert jtp_product_side(order) == brute_jtp(order), (
            f"triple product disagrees with dense oracle at w-order {order}"
        )


def test_jtp_product_matches_the_descending_loop():
    reference = reference_jtp(200).coeffs
    for order in range(201):
        expected = BiSeries({k: c for k, c in reference.items() if k[0] <= order}, order)
        assert jtp_product_side(order) == expected, order
    assert jtp_product_side(576) == reference_jtp(576)


def test_jtp_kernel_takes_any_coefficient_value(monkeypatch):
    # 3 sigma is w d/dw log of prod (1 - w^2n)^3 at w^2, so the kernel expands
    # the triple product times prod (1 - w^2n)^2, whose coefficients go past
    # +-1 and take the kernel's freshly scaled even row; the expected series
    # multiplies the dense oracles out by a plain loop
    sigma = qseries._divisor_sums
    monkeypatch.setattr(qseries, "_divisor_sums", lambda n: [3 * s for s in sigma(n)])
    order = 40
    euler = brute_euler(order // 2)
    square = poly_mul(euler, euler, order // 2)  # in w^2
    expected = {}
    for (m, j), c in brute_jtp(order).coeffs.items():
        for t, e in enumerate(square[:(order - m) // 2 + 1]):
            expected[m + 2 * t, j] = expected.get((m + 2 * t, j), 0) + c * e
    product = jtp_product_side(order)
    assert product == BiSeries(expected, order)
    assert max(abs(c) for c in product.coeffs.values()) > 1


def test_jtp_sum_side_enumeration():
    assert jtp_sum_side(0) == BiSeries({(0, 0): 1}, 0)
    assert jtp_sum_side(3).coeffs == {(0, 0): 1, (1, 1): 1, (1, -1): 1}
    s9 = jtp_sum_side(9)
    for key in ((4, 2), (4, -2), (9, 3), (9, -3)):
        assert s9.coeffs[key] == 1


def test_jtp_product_equals_sum():
    for order in (0, 1, 2, 7, 30, 60):
        assert jtp_product_side(order) == jtp_sum_side(order), (
            f"triple product identity fails at w-order {order}"
        )


def test_jtp_shift_residual_zero():
    for order in (0, 1, 10, 60):
        assert jtp_shift_residual(order).coeffs == {}, (
            f"shift relation residual nonzero at w-order {order}"
        )


def test_jtp_shift_residual_expands_the_product_once(monkeypatch):
    calls = []
    original = qseries.jtp_product_side
    monkeypatch.setattr(
        qseries, "jtp_product_side", lambda order: calls.append(order) or original(order)
    )
    assert jtp_shift_residual(60).coeffs == {}
    assert len(calls) == 1


def test_jtp_expansion_cut_is_the_product_at_that_order():
    # the jtp campaign reads product == sum and z-symmetry from this cut
    for order in range(41):
        product, residual = qseries._jtp_expansion(order)
        assert product == jtp_product_side(order), order
        assert residual.coeffs == {}, order


def test_jtp_z_inversion_symmetry():
    for side in (jtp_product_side(40), jtp_sum_side(40)):
        for (m, j), c in side.coeffs.items():
            assert side.coeff(m, -j) == c


# --- Character theta form ---------------------------------------------------


def test_chi12_table_and_multiplicativity():
    assert chi12(1) == chi12(11) == 1
    assert chi12(5) == chi12(7) == -1
    assert all(chi12(n) == 0 for n in (0, 2, 3, 4, 6, 8, 9, 10, 12))
    assert chi12(25) == chi12(5) ** 2 == 1
    for m in range(-24, 25):
        for n in range(-24, 25):
            assert chi12(m * n) == chi12(m) * chi12(n)
            assert chi12(n + 12) == chi12(n)


def test_eta_char_qseries_small():
    assert eta_char_qseries(1).coeffs == {1: 1}
    assert eta_char_qseries(49).coeffs == {1: 1, 25: -1, 49: -1}
    s = eta_char_qseries(121)
    assert s.coeff(121) == 1


def test_eta_char_matches_euler_in_u24():
    for order in (1, 30, 100, 600):
        char = eta_char_qseries(order)
        euler = euler_product_series(max((order - 1) // 24, 0))
        expanded = {24 * e + 1: c for e, c in euler.coeffs.items() if 24 * e + 1 <= order}
        assert char.coeffs == expanded, f"character series mismatch at order {order}"
