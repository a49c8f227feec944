"""Modular-group elements: canonicalization, the Moebius action, generator
decomposition round trips, and fundamental-domain reduction.
"""

import math
import random
from fractions import Fraction

import pytest

from etaforge import (
    IDENTITY,
    NumericDegeneracyError,
    S,
    T,
    GeneratorWord,
    ModularMatrix,
    UpperHalfPoint,
    apply_mobius,
    decompose,
    evaluate_word,
    reduce_to_fundamental_domain,
    t_power,
)
from etaforge.modgroup import descent_step


def random_word_matrix(rng, exp_bound=20, max_factors=30):
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        factors.append(rng.randint(-exp_bound, exp_bound))
        factors.append("S")
    word = GeneratorWord(tuple(factors))
    return evaluate_word(word)


# --- matrices ----------------------------------------------------------------


def test_canonical_sign():
    assert ModularMatrix(0, -1, 1, 0).entries() == (0, -1, 1, 0)
    assert ModularMatrix(0, 1, -1, 0).entries() == (0, -1, 1, 0)
    assert ModularMatrix(1, 5, 0, 1).entries() == (1, 5, 0, 1)
    assert ModularMatrix(-1, 0, 0, -1) == IDENTITY


def test_non_unimodular_rejected():
    with pytest.raises(ValueError):
        ModularMatrix(1, 0, 0, 2)
    with pytest.raises(ValueError):
        ModularMatrix(2, 0, 0, 2)


def test_compose():
    assert S @ S == IDENTITY           # S^2 = -I ~ I
    assert T @ T == t_power(2)
    assert t_power(2) @ S @ T == ModularMatrix(2, 1, 1, 1)


def test_inverse():
    rng = random.Random(1)
    for _ in range(100):
        m = random_word_matrix(rng)
        assert m @ m.inverse() == IDENTITY
        assert m.inverse() @ m == IDENTITY


# --- Moebius action ----------------------------------------------------------


def test_apply_mobius_fixed_point_and_translation():
    i = UpperHalfPoint(0.0, 1.0)
    image = apply_mobius(S, i)
    assert abs(complex(image) - 1j) < 1e-15

    tau = UpperHalfPoint(0.37, 2.1)
    shifted = apply_mobius(t_power(3), tau)
    assert abs(complex(shifted) - (complex(tau) + 3)) < 1e-12


def test_apply_mobius_explicit():
    image = apply_mobius(ModularMatrix(2, 1, 1, 1), UpperHalfPoint(0.0, 1.0))
    assert abs(complex(image) - (1.5 + 0.5j)) < 1e-15


def test_mobius_is_homomorphism():
    rng = random.Random(2)
    for _ in range(200):
        m1 = random_word_matrix(rng, exp_bound=6, max_factors=8)
        m2 = random_word_matrix(rng, exp_bound=6, max_factors=8)
        tau = UpperHalfPoint(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        lhs = complex(apply_mobius(m1 @ m2, tau))
        rhs = complex(apply_mobius(m1, apply_mobius(m2, tau)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), (m1, m2, complex(tau))


def test_mobius_imaginary_part_formula():
    rng = random.Random(4)
    for _ in range(200):
        m = random_word_matrix(rng, exp_bound=6, max_factors=8)
        tau = UpperHalfPoint(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        z = complex(tau)
        expected = tau.im / abs(m.c * z + m.d) ** 2
        got = apply_mobius(m, tau).im
        assert abs(got - expected) <= 1e-12 * expected


def test_upper_half_point_rejects_lower_half():
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(1.0, -2.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, float("nan"))


INF = float("inf")


@pytest.mark.parametrize(
    "re, im", [(0, INF), (INF, 1), (-INF, 1.0), (float("nan"), 1.0), (INF, INF)]
)
def test_upper_half_point_rejects_non_finite(re, im):
    with pytest.raises(ValueError, match="finite"):
        UpperHalfPoint(re, im)


def test_non_finite_point_never_reaches_reduction_or_mobius():
    # UpperHalfPoint(0, inf) used to reduce to itself, UpperHalfPoint(inf, 1)
    # raised OverflowError there, and S sent it to a point with im = nan
    with pytest.raises(ValueError, match="finite"):
        reduce_to_fundamental_domain(UpperHalfPoint(0, INF))
    with pytest.raises(ValueError, match="finite"):
        reduce_to_fundamental_domain(UpperHalfPoint(INF, 1))
    with pytest.raises(ValueError, match="finite"):
        apply_mobius(S, UpperHalfPoint(INF, 1))


# --- generator words ----------------------------------------------------------


def test_word_normalization():
    w = GeneratorWord((2, 3, "S", 0, "S", -1, 1))
    assert w.factors == (5, "S", "S")
    assert str(GeneratorWord(())) == "I"
    assert str(GeneratorWord((2, "S", 1))) == "T^2 S T"


def test_decompose_generators():
    assert decompose(S).factors == ("S",)
    assert str(decompose(t_power(5))) == "T^5"
    assert decompose(ModularMatrix(2, 1, 1, 1)).factors == (2, "S", 1)


def test_evaluate_word_basics():
    assert evaluate_word(GeneratorWord(())) == IDENTITY
    assert evaluate_word(GeneratorWord(("S",))) == S
    assert evaluate_word(GeneratorWord((5,))) == t_power(5)


def test_decompose_round_trip():
    rng = random.Random(8)
    for _ in range(1000):
        m = random_word_matrix(rng)
        word = decompose(m)
        assert evaluate_word(word) == m, f"round trip failed for {m} -> {word}"
        # no adjacent T-power factors
        for left, right in zip(word.factors, word.factors[1:]):
            assert not (isinstance(left, int) and isinstance(right, int))


def test_decompose_deep_descent_round_trip():
    # one descent step per unit of c: far deeper than the interpreter's
    # recursion limit
    m = ModularMatrix(1, 0, 10**4, 1)
    word = decompose(m)
    assert sum(1 for f in word.factors if f == "S") == 10**4
    assert evaluate_word(word) == m


def test_descent_step_factorization():
    rng = random.Random(11)
    checked = 0
    for _ in range(1000):
        m = random_word_matrix(rng)
        if m.c < 2:
            continue
        q, reduced = descent_step(*m.entries())
        assert 1 <= reduced[2] < m.c
        assert ModularMatrix(*reduced) @ S @ t_power(q) == m, m
        checked += 1
    assert checked > 900


def negative_residue_steps(d: int, c: int) -> int:
    # chain length of the reduction (c, d) -> (r, c) with r = (-d) mod c,
    # the Euclidean-style descent decompose performs
    steps = 0
    while c >= 2:
        d, c = c, (-d) % c
        steps += 1
    return steps


def test_decompose_depth_matches_descent():
    # one S factor per descent level: the c >= 2 levels plus the single base
    # case at c = 1 (c = 0 words are pure translations with no S at all)
    rng = random.Random(9)
    for _ in range(500):
        m = random_word_matrix(rng)
        s_count = sum(1 for f in decompose(m).factors if f == "S")
        if m.c == 0:
            assert s_count == 0
        else:
            assert s_count == negative_residue_steps(m.d, m.c) + 1, m


# --- fundamental domain -------------------------------------------------------


def test_reduce_translation_only():
    reduced, mat = reduce_to_fundamental_domain(UpperHalfPoint(5.0, 1.0))
    assert mat == t_power(-5)
    assert abs(complex(reduced) - 1j) < 1e-15


def test_reduce_single_inversion():
    reduced, mat = reduce_to_fundamental_domain(UpperHalfPoint(0.0, 0.25))
    assert mat == S
    assert abs(complex(reduced) - 4j) < 1e-15


def test_reduce_near_real_axis():
    reduced, _ = reduce_to_fundamental_domain(UpperHalfPoint(0.5, 0.0001))
    assert reduced.im >= 0.866


def test_reduce_properties_random():
    rng = random.Random(10)
    for _ in range(500):
        tau = UpperHalfPoint(rng.uniform(-8, 8), 10 ** rng.uniform(-3, 1))
        reduced, mat = reduce_to_fundamental_domain(tau)
        assert abs(reduced.re) <= 0.5 + 1e-12
        assert abs(complex(reduced)) >= 1.0 - 1e-12
        # the returned matrix actually maps tau to the reduced point
        image = complex(apply_mobius(mat, tau))
        assert abs(image - complex(reduced)) <= 1e-9 * max(1.0, abs(image)), complex(tau)


def exact_image(mat, tau):
    """M tau from the exact dyadic values of tau's parts, as two Fractions."""
    x, y = Fraction(tau.re), Fraction(tau.im)
    a, b, c, d = mat.entries()
    den = (c * x + d) ** 2 + (c * y) ** 2
    return ((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den


@pytest.mark.parametrize("re_scale", [1.0, 1e3, 1e6, 1e12])
def test_reduce_returns_the_exact_image_correctly_rounded(re_scale):
    rng = random.Random(int(re_scale))
    for _ in range(300):
        tau = UpperHalfPoint(rng.uniform(-re_scale, re_scale), 10 ** rng.uniform(-9, 1))
        reduced, mat = reduce_to_fundamental_domain(tau)
        re, im = exact_image(mat, tau)
        assert (reduced.re, reduced.im) == (float(re), float(im)), complex(tau)
        assert -Fraction(1, 2) <= re < Fraction(1, 2), complex(tau)
        assert re * re + im * im >= 1, complex(tau)


def test_reduce_boundary_points():
    # the exact loop sends Re = 1/2 to -1/2 and leaves |tau| = 1 uninverted
    assert reduce_to_fundamental_domain(UpperHalfPoint(0.5, 1.0)) == (
        UpperHalfPoint(-0.5, 1.0),
        T.inverse(),
    )
    assert reduce_to_fundamental_domain(UpperHalfPoint(0.0, 1.0)) == (
        UpperHalfPoint(0.0, 1.0),
        IDENTITY,
    )


def test_reduce_far_below_float_resolution():
    # a float reduction loses c tau + d here; the exact one finds the true
    # reducer, whose image is near the top of the float range
    tau = UpperHalfPoint(0.3, 1e-300)
    reduced, mat = reduce_to_fundamental_domain(tau)
    re, im = exact_image(mat, tau)
    assert (reduced.re, reduced.im) == (float(re), float(im))
    assert math.isclose(reduced.im, 3.08e267, rel_tol=1e-3)
    assert -0.5 <= reduced.re < 0.5


def test_reduce_image_beyond_float_range_raises():
    with pytest.raises(NumericDegeneracyError, match="float range"):
        reduce_to_fundamental_domain(UpperHalfPoint(0.0, 5e-324))
