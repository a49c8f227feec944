"""Modular-group elements: canonicalization, the Moebius action, generator
decomposition round trips, fundamental-domain reduction, and the one check
that every entry point makes on a point of the upper half-plane.
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
    apply_mobius,
    decompose,
    eta_char_eval,
    eta_eval,
    eta_pentagonal_eval,
    eta_product_eval,
    eta_transformed_eval,
    evaluate_word,
    functional_eq_residual,
    reduce_to_fundamental_domain,
    theta_identity_residual,
    transform_factor,
)
from etaforge import evaluate, modgroup
from etaforge.cli import main
from etaforge.modgroup import _descent_step


def random_word_matrix(rng, exp_bound=20, max_factors=30):
    factors = []
    for _ in range(rng.randint(1, max_factors)):
        factors.append(rng.randint(-exp_bound, exp_bound))
        factors.append("S")
    word = GeneratorWord(tuple(factors))
    return evaluate_word(word)


# --- matrices ----------------------------------------------------------------


def test_canonical_sign():
    assert tuple(ModularMatrix(0, -1, 1, 0)) == (0, -1, 1, 0)
    assert tuple(ModularMatrix(0, 1, -1, 0)) == (0, -1, 1, 0)
    assert tuple(ModularMatrix(1, 5, 0, 1)) == (1, 5, 0, 1)
    assert ModularMatrix(-1, 0, 0, -1) == IDENTITY


def test_non_unimodular_rejected():
    with pytest.raises(ValueError):
        ModularMatrix(1, 0, 0, 2)
    with pytest.raises(ValueError):
        ModularMatrix(2, 0, 0, 2)


def test_compose():
    assert S @ S == IDENTITY           # S^2 = -I ~ I
    assert T @ T == ModularMatrix(1, 2, 0, 1)
    assert ModularMatrix(1, 2, 0, 1) @ S @ T == ModularMatrix(2, 1, 1, 1)


def test_inverse():
    rng = random.Random(1)
    for _ in range(100):
        m = random_word_matrix(rng)
        a, b, c, d = m
        inverse = ModularMatrix(d, -b, -c, a)
        assert m @ inverse == IDENTITY
        assert inverse @ m == IDENTITY


def test_matrix_str_names_an_entry_past_the_digit_limit_by_bit_length():
    assert str(ModularMatrix(2, 1, 1, 1)) == "[2 1; 1 1]"
    assert str(ModularMatrix(-(10**5000), -1, 1, 0)) == "[-<16610-bit integer> -1; 1 0]"
    with pytest.raises(ValueError, match=r"\(<16610-bit integer>, 1; 0, 1\)"):
        ModularMatrix(10**5000, 1, 0, 1)


# --- Moebius action ----------------------------------------------------------


def test_apply_mobius_fixed_point_and_translation():
    i = complex(0.0, 1.0)
    image = apply_mobius(S, i)
    assert abs(image - 1j) < 1e-15

    tau = complex(0.37, 2.1)
    shifted = apply_mobius(ModularMatrix(1, 3, 0, 1), tau)
    assert abs(shifted - (tau + 3)) < 1e-12


def test_apply_mobius_explicit():
    image = apply_mobius(ModularMatrix(2, 1, 1, 1), complex(0.0, 1.0))
    assert abs(image - (1.5 + 0.5j)) < 1e-15


def test_mobius_is_homomorphism():
    rng = random.Random(2)
    for _ in range(200):
        m1 = random_word_matrix(rng, exp_bound=6, max_factors=8)
        m2 = random_word_matrix(rng, exp_bound=6, max_factors=8)
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        lhs = apply_mobius(m1 @ m2, tau)
        rhs = apply_mobius(m1, apply_mobius(m2, tau))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), (m1, m2, tau)


def test_mobius_imaginary_part_formula():
    rng = random.Random(4)
    for _ in range(200):
        m = random_word_matrix(rng, exp_bound=6, max_factors=8)
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        expected = tau.imag / abs(m.c * tau + m.d) ** 2
        got = apply_mobius(m, tau).imag
        assert abs(got - expected) <= 1e-12 * expected


# every public entry point that takes a point checks it with the one checker
ENTRY_POINTS = (
    reduce_to_fundamental_domain,
    lambda tau: apply_mobius(S, tau),
    eta_product_eval,
    eta_pentagonal_eval,
    eta_char_eval,
    eta_transformed_eval,
    eta_eval,
    lambda tau: transform_factor(S, tau),
    lambda tau: functional_eq_residual(S, tau),
    lambda tau: theta_identity_residual(tau, 0, 0),
)


def test_upper_half_point_rejects_lower_half():
    for tau in (complex(0.0, 0.0), complex(1.0, -2.0), complex(0.0, float("nan"))):
        for entry in ENTRY_POINTS:
            with pytest.raises(ValueError, match="finite point of the upper half-plane"):
                entry(tau)


INF = float("inf")


@pytest.mark.parametrize(
    "re, im", [(0, INF), (INF, 1), (-INF, 1.0), (float("nan"), 1.0), (INF, INF)]
)
def test_upper_half_point_rejects_non_finite(re, im):
    for entry in ENTRY_POINTS:
        with pytest.raises(ValueError, match="finite point of the upper half-plane"):
            entry(complex(re, im))


def test_non_finite_point_never_reaches_reduction_or_mobius():
    # 0 + inf i used to reduce to itself, inf + 1i raised OverflowError there,
    # and S sent it to a point with im = nan
    with pytest.raises(ValueError, match="finite"):
        reduce_to_fundamental_domain(complex(0, INF))
    with pytest.raises(ValueError, match="finite"):
        reduce_to_fundamental_domain(complex(INF, 1))
    with pytest.raises(ValueError, match="finite"):
        apply_mobius(S, complex(INF, 1))


# --- generator words ----------------------------------------------------------


def test_word_normalization():
    w = GeneratorWord((2, 3, "S", 0, "S", -1, 1))
    assert w.factors == (5, "S", "S")
    assert str(GeneratorWord(())) == "I"
    assert str(GeneratorWord((2, "S", 1))) == "T^2 S T"


def test_word_str_names_an_exponent_past_the_digit_limit_by_bit_length():
    word = decompose(ModularMatrix(1, 0, 10**5000, 1))
    assert word.factors[1] == -(10**5000)
    assert str(word) == "S T^-<16610-bit integer> S"


def test_decompose_generators():
    assert decompose(S).factors == ("S",)
    assert str(decompose(ModularMatrix(1, 5, 0, 1))) == "T^5"
    assert decompose(ModularMatrix(2, 1, 1, 1)).factors == (2, "S", 1)


# Every function that takes a caller's matrix, each called on that matrix
# alone; each reads a plain input through modgroup._as_matrix.
MATRIX_ENTRY_POINTS = {
    "decompose": decompose,
    "apply_mobius": lambda mat: apply_mobius(mat, 1j),
    "transform_factor": lambda mat: transform_factor(mat, 1j),
    "functional_eq_residual": lambda mat: functional_eq_residual(mat, 1j),
    "matmul": lambda mat: S @ mat,
}
entry_points = pytest.mark.parametrize(
    "call", MATRIX_ENTRY_POINTS.values(), ids=MATRIX_ENTRY_POINTS.keys()
)


@entry_points
@pytest.mark.parametrize(
    "entries, message",
    [
        ((2, 5, 0, 3), "determinant 1"),  # decompose used to return T^5
        # apply_mobius used to return 1j, not 2j; S @ used to name the product
        ((2, 0, 0, 1), r"^matrix \(2, 0; 0, 1\) must have determinant 1$"),
        ((1, 0, 0, 1.5), "type int"),  # apply_mobius used to return 0.444...j
    ],
    ids=["det6", "det2", "float_d"],
)
def test_plain_tuple_is_checked_as_a_matrix(call, entries, message):
    with pytest.raises(ValueError, match=message):
        call(entries)


@entry_points
@pytest.mark.parametrize(
    "mat, got",
    [
        ((1, 0, 0), "tuple of length 3"),  # used to raise TypeError: missing argument 'd'
        ((1, 0, 0, 1, 0), "tuple of length 5"),
        ([0, -1, 1], "list of length 3"),
        (5, "int"),  # used to raise TypeError: argument after * must be an iterable
        (None, "NoneType"),
    ],
)
def test_input_that_is_not_four_entries_raises_value_error(call, mat, got):
    message = f"^matrix must be a ModularMatrix or four entries a, b, c, d, got {got}$"
    with pytest.raises(ValueError, match=message):
        call(mat)


@entry_points
@pytest.mark.parametrize("entries", [(1, 0, -1, 1), (0, 1, -1, 0), [-2, -1, -1, -1]])
def test_plain_tuple_is_taken_in_canonical_form(call, entries):
    # (1, 0; -1, 1) used to raise "c must be >= 1" in decompose, and
    # (0, 1; -1, 0) "requires c > 0, got c = -1" in transform_factor
    assert call(entries) == call(ModularMatrix(*entries))


def test_functional_eq_residual_reads_its_matrix_once(monkeypatch):
    # a built matrix takes the fast path everywhere; a plain tuple is
    # converted once and passed on as a ModularMatrix
    calls = []
    as_matrix = modgroup._as_matrix
    for module in (modgroup, evaluate):
        monkeypatch.setattr(module, "_as_matrix", lambda m: calls.append(m) or as_matrix(m))
    m = ModularMatrix(2, 1, 1, 1)
    value = functional_eq_residual(m, 0.1 + 0.01j)
    assert calls == []
    assert functional_eq_residual(tuple(m), 0.1 + 0.01j) == value
    assert calls == [tuple(m)]


def test_plain_tuple_values():
    assert str(decompose((1, 0, -1, 1))) == "T^-1 S T^-1"
    assert apply_mobius((0, -1, 1, 0), 2j) == 0.5j
    assert S @ (0, 1, -1, 0) == IDENTITY


def test_evaluate_word_basics():
    assert evaluate_word(GeneratorWord(())) == IDENTITY
    assert evaluate_word(GeneratorWord(("S",))) == S
    assert evaluate_word(GeneratorWord((5,))) == ModularMatrix(1, 5, 0, 1)


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
    # the nearest integer to 1/c is 0, and one step then reaches c = 1
    m = ModularMatrix(1, 0, 10**4, 1)
    word = decompose(m)
    assert word.factors == ("S", -(10**4), "S")
    assert evaluate_word(word) == m


def fibonacci_matrix(n: int) -> ModularMatrix:
    # (F(n+1), F(n); F(n), F(n-1)) has determinant (-1)^n; each descent step
    # on it lowers n by 2
    f = [0, 1]
    while len(f) < n + 2:
        f.append(f[-1] + f[-2])
    return ModularMatrix(f[n + 1], f[n], f[n], f[n - 1])


@pytest.mark.parametrize(
    "m, s_count",
    [
        (ModularMatrix(1, 0, 10**6, 1), 2),
        (ModularMatrix(1, 0, 10**12, 1), 2),
        (fibonacci_matrix(1438), 719),  # c ~ 1.5e300, 998 bits
    ],
    ids=["c=1e6", "c=1e12", "fibonacci"],
)
def test_decompose_s_count_is_at_most_the_bit_length_of_c(m, s_count):
    word = decompose(m)
    assert word.factors.count("S") == s_count <= m.c.bit_length()
    assert evaluate_word(word) == m


def test_decompose_checks_its_input_once_and_no_step(monkeypatch):
    # the descent walks on plain ints, so a built matrix costs no check and
    # a plain tuple one, however many steps follow
    m = fibonacci_matrix(1438)
    calls = []
    check = modgroup._check_unimodular
    monkeypatch.setattr(modgroup, "_check_unimodular", lambda *e: calls.append(e) or check(*e))
    assert decompose(m).factors.count("S") == 719
    assert calls == []
    assert decompose(tuple(m)) == decompose(m)
    assert calls == [tuple(m)]


def test_decompose_stops_a_descent_that_does_not_shrink_c(monkeypatch, capsys):
    # a broken step that leaves c as it is fails after c.bit_length() + 1
    # steps, where the walk would otherwise never end
    def stalled(a, b, c, d):
        calls.append(c)
        return 0, a, b, c, d

    monkeypatch.setattr(modgroup, "_descent_step", stalled)
    for m in (ModularMatrix(2, 1, 1, 1), fibonacci_matrix(1438)):
        calls = []
        with pytest.raises(AssertionError, match="did not reach c = 0"):
            decompose(m)
        assert len(calls) == m.c.bit_length() + 1
    assert main(["decompose", "2", "1", "1", "1"]) == 1
    assert capsys.readouterr().err == (
        "internal invariant violated: the descent of [2 1; 1 1] did not reach c = 0 in 2 steps\n"
    )


def test_descent_step_factorization():
    rng = random.Random(11)
    checked = 0
    for _ in range(1000):
        m = random_word_matrix(rng)
        if m.c == 0:
            continue
        q, *rest = _descent_step(*m)
        reduced = ModularMatrix(*rest)
        assert 0 <= 2 * reduced.c <= m.c
        assert reduced @ S @ ModularMatrix(1, q, 0, 1) == m, m
        checked += 1
    assert checked > 900


def nearest_integer_steps(d: int, c: int) -> int:
    # chain length of the lower-row reduction (c, d) -> +-(qc - d, c), with q
    # the integer nearest d/c (halves rounded up), the descent decompose performs
    steps = 0
    while c:
        r = math.floor(Fraction(d, c) + Fraction(1, 2)) * c - d
        c, d = (r, c) if r >= 0 else (-r, -c)
        steps += 1
    return steps


def test_decompose_depth_matches_descent():
    # one S factor per descent level; c = 0 words are pure translations
    rng = random.Random(9)
    for _ in range(500):
        m = random_word_matrix(rng)
        s_count = sum(1 for f in decompose(m).factors if f == "S")
        assert s_count == nearest_integer_steps(m.d, m.c) <= m.c.bit_length(), m


# --- fundamental domain -------------------------------------------------------


def test_reduce_translation_only():
    reduced, mat = reduce_to_fundamental_domain(complex(5.0, 1.0))
    assert mat == ModularMatrix(1, -5, 0, 1)
    assert abs(reduced - 1j) < 1e-15


def test_reduce_single_inversion():
    reduced, mat = reduce_to_fundamental_domain(complex(0.0, 0.25))
    assert mat == S
    assert abs(reduced - 4j) < 1e-15


def test_reduce_near_real_axis():
    reduced, _ = reduce_to_fundamental_domain(complex(0.5, 0.0001))
    assert reduced.imag >= 0.866


def test_reduce_properties_random():
    rng = random.Random(10)
    for _ in range(500):
        tau = complex(rng.uniform(-8, 8), 10 ** rng.uniform(-3, 1))
        reduced, mat = reduce_to_fundamental_domain(tau)
        assert abs(reduced.real) <= 0.5 + 1e-12
        assert abs(reduced) >= 1.0 - 1e-12
        # the returned matrix actually maps tau to the reduced point
        image = apply_mobius(mat, tau)
        assert abs(image - reduced) <= 1e-9 * max(1.0, abs(image)), tau


def exact_image(mat, tau):
    """M tau from the exact dyadic values of tau's parts, as two Fractions."""
    x, y = Fraction(tau.real), Fraction(tau.imag)
    a, b, c, d = mat
    den = (c * x + d) ** 2 + (c * y) ** 2
    return ((a * x + b) * (c * x + d) + a * c * y * y) / den, y / den


@pytest.mark.parametrize("re_scale", [1.0, 1e3, 1e6, 1e12])
def test_reduce_returns_the_exact_image_correctly_rounded(re_scale):
    rng = random.Random(int(re_scale))
    for _ in range(300):
        tau = complex(rng.uniform(-re_scale, re_scale), 10 ** rng.uniform(-9, 1))
        reduced, mat = reduce_to_fundamental_domain(tau)
        re, im = exact_image(mat, tau)
        assert (reduced.real, reduced.imag) == (float(re), float(im)), tau
        assert -Fraction(1, 2) <= re < Fraction(1, 2), tau
        assert re * re + im * im >= 1, tau


def test_reduce_boundary_points():
    # the exact loop sends Re = 1/2 to -1/2 and leaves |tau| = 1 uninverted
    assert reduce_to_fundamental_domain(complex(0.5, 1.0)) == (
        complex(-0.5, 1.0),
        ModularMatrix(1, -1, 0, 1),
    )
    assert reduce_to_fundamental_domain(complex(0.0, 1.0)) == (
        complex(0.0, 1.0),
        IDENTITY,
    )


def test_reduce_far_below_float_resolution():
    # a float reduction loses c tau + d here; the exact one finds the true
    # reducer, whose image is near the top of the float range
    tau = complex(0.3, 1e-300)
    reduced, mat = reduce_to_fundamental_domain(tau)
    re, im = exact_image(mat, tau)
    assert (reduced.real, reduced.imag) == (float(re), float(im))
    assert math.isclose(reduced.imag, 3.08e267, rel_tol=1e-3)
    assert -0.5 <= reduced.real < 0.5


@pytest.mark.parametrize(
    "mat",
    [ModularMatrix(1, 0, 10**20, 1)],  # Im = 1e-300 / 2.5e39 underflows to 0
)
def test_apply_mobius_image_beyond_float_range_raises(mat):
    # the caller's point is valid, so this is not a ValueError
    with pytest.raises(NumericDegeneracyError, match="float range"):
        apply_mobius(mat, complex(0.5, 1e-300))


@pytest.mark.parametrize(
    "mat, tau",
    [
        # |c tau + d|^2 = 4e-600 underflows to 0; the image is 0.5 + 2.5e299i
        (ModularMatrix(1, -1, 2, -1), complex(0.5, 1e-300)),
        # |c tau + d|^2 = 1.02e309 overflows; the image's Im is 9.8e-300
        (ModularMatrix(0, -1, 1, 32 * 10**153), complex(0.0, 1e10)),
    ],
)
def test_apply_mobius_image_when_only_the_norm_leaves_the_float_range(mat, tau):
    image = apply_mobius(mat, tau)
    re, im = exact_image(mat, tau)
    assert math.isclose(image.real, float(re), rel_tol=1e-15)
    assert math.isclose(image.imag, float(im), rel_tol=1e-15)


def test_reduce_image_beyond_float_range_raises():
    with pytest.raises(NumericDegeneracyError, match="float range"):
        reduce_to_fundamental_domain(complex(0.0, 5e-324))
