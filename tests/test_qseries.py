"""Exact series identities: Euler product, pentagonal numbers, triple product,
and the character theta form.  Expected values come from a brute-force dense
polynomial oracle defined below, independent of the sparse implementation.
"""

import random

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


# --- Series containers ------------------------------------------------------


def test_sub_truncates_to_min_order():
    a = BiSeries({(0, 0): 1, (1, 1): 2, (9, 3): 5}, 10)
    b = BiSeries({(0, 0): 1, (1, -1): 1}, 3)
    difference = a - b
    assert difference.order == 3
    assert difference.coeffs == {(1, 1): 2, (1, -1): -1}
    assert (b - a).order == 3


@pytest.mark.parametrize(
    "producer",
    [
        euler_product_series,
        pentagonal_series,
        jtp_product_side,
        jtp_sum_side,
        jtp_shift_residual,
        eta_char_qseries,
    ],
)
def test_negative_order_rejected(producer):
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
        producer(-1)


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


def test_euler_product_empty():
    assert euler_product_series(0) == QSeries.one(0)


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


def test_euler_coefficients_are_signs():
    s = euler_product_series(2000)
    assert all(c in (-1, 1) for c in s.coeffs.values())


# --- Pentagonal series ------------------------------------------------------


def test_pentagonal_small_orders():
    assert pentagonal_series(0) == QSeries.one(0)
    assert pentagonal_series(2).coeffs == {0: 1, 1: -1, 2: -1}


def test_pentagonal_order_twelve():
    s = pentagonal_series(12)
    assert s.coeff(5) == 1    # n = 2
    assert s.coeff(7) == 1    # n = -2
    assert s.coeff(12) == -1  # n = 3


def test_pentagonal_equals_euler_product():
    rng = random.Random(7)
    orders = [0, 1, 2, 3, 500] + [rng.randint(4, 400) for _ in range(8)]
    for order in orders:
        assert euler_product_series(order) == pentagonal_series(order), (
            f"pentagonal identity fails at order {order}"
        )


# --- Jacobi triple product --------------------------------------------------


def test_jtp_product_constant_term():
    assert jtp_product_side(0) == BiSeries.one(0)


def test_jtp_product_low_slices():
    prod = jtp_product_side(4)
    assert [prod.coeff(1, j) for j in range(-1, 2)] == [1, 0, 1]    # z^2 + z^-2
    assert [prod.coeff(4, j) for j in range(-4, 5)] == [0, 0, 1, 0, 0, 0, 1, 0, 0]  # z^4 + z^-4


def test_jtp_product_matches_brute_force():
    for order in range(41):
        assert jtp_product_side(order) == brute_jtp(order), (
            f"triple product disagrees with dense oracle at w-order {order}"
        )


def test_jtp_sum_side_enumeration():
    assert jtp_sum_side(0) == BiSeries.one(0)
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
        assert jtp_shift_residual(order).is_zero(), (
            f"shift relation residual nonzero at w-order {order}"
        )


def test_jtp_shift_residual_expands_the_product_once(monkeypatch):
    calls = []
    original = qseries.jtp_product_side
    monkeypatch.setattr(
        qseries, "jtp_product_side", lambda order: calls.append(order) or original(order)
    )
    assert jtp_shift_residual(60).is_zero()
    assert len(calls) == 1


def test_jtp_expansion_cut_is_the_product_at_that_order():
    # the jtp campaign reads product == sum and z-symmetry from this cut
    for order in range(41):
        product, residual = qseries._jtp_expansion(order)
        assert product == jtp_product_side(order), order
        assert residual.is_zero(), order


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
