"""Floating-point eta evaluation and identity residuals.

Reference values are frozen from a 40-digit pentagonal-series evaluation
(independent of this package); eta(i) also matches the classical closed form
Gamma(1/4) / (2 pi^(3/4)) to all quoted digits.
"""

import cmath
import math
import random
import time

import pytest

import etaforge
from etaforge import dedekind, evaluate
from etaforge import (
    ConvergenceBudgetError,
    ModularMatrix,
    NumericDegeneracyError,
    S,
    apply_mobius,
    chi12,
    eta_pentagonal_eval,
    eta_product_eval,
    eta_transformed_eval,
    functional_eq_residual,
    gaussian_poisson_residual,
    reduce_to_fundamental_domain,
    theta_identity_residual,
    transform_factor,
)
from etaforge.campaigns import POISSON_FIXED_CASES, random_unimodular_matrix

ETA_I = 0.7682254223260566590025942
ETA_2I = 0.5923827813324158852903634
ETA_HALF_I = 0.837755763476598057912366
ETA_03_02I = complex(1.106216548444957774733147, -0.1251970021575189068786067)
ETA_1_PLUS_I = complex(0.7420487758365647263392722, 0.1988313702299107190516142)

ALL_EVALUATORS = (eta_product_eval, eta_pentagonal_eval, eta_transformed_eval)


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


# --- reference values ---------------------------------------------------------


@pytest.mark.parametrize("evaluator", ALL_EVALUATORS)
def test_eta_at_i(evaluator):
    result = evaluator(1j, 1e-13)
    assert rel(result.value, ETA_I) < 3e-13
    assert result.tail_bound <= 1e-13
    assert result.terms_used >= 1


@pytest.mark.parametrize("evaluator", ALL_EVALUATORS)
def test_eta_off_axis(evaluator):
    result = evaluator(0.3 + 0.2j, 1e-13)
    assert rel(result.value, ETA_03_02I) < 1e-12


def test_eta_product_at_10i():
    # value is e^(-10 pi / 12) up to a correction of relative size e^(-20 pi)
    result = eta_product_eval(10j, 1e-20)
    assert result.tail_bound <= 1e-20
    assert rel(result.value, math.exp(-10 * math.pi / 12)) < 5e-15


def test_eta_translation_by_one():
    # eta(tau + 1) = e^(pi i / 12) eta(tau)
    result = eta_product_eval(1 + 1j)
    assert rel(result.value, ETA_1_PLUS_I) < 1e-13
    assert rel(result.value, cmath.exp(1j * math.pi / 12) * ETA_I) < 1e-13


def test_eta_pentagonal_dominant_term_at_10i():
    result = eta_pentagonal_eval(10j)
    assert rel(result.value, math.exp(-10 * math.pi / 12)) < 1e-14


def test_translation_law():
    base = eta_pentagonal_eval(0.21 + 0.9j, 1e-13).value
    for m in range(-12, 13):
        shifted = eta_pentagonal_eval(m + 0.21 + 0.9j, 1e-13).value
        expected = cmath.exp(1j * math.pi * m / 12) * base
        assert rel(shifted, expected) < 1e-12, m


def test_inversion_law():
    for tau in (1j, 0.3 + 0.8j, -0.4 + 1.3j, 2j, 0.5 + 0.6j):
        lhs = eta_pentagonal_eval(-1 / tau, 1e-13).value
        rhs = cmath.sqrt(-1j * tau) * eta_pentagonal_eval(tau, 1e-13).value
        assert rel(lhs, rhs) < 1e-12, tau


def test_cross_representation_agreement():
    rng = random.Random(12)
    for _ in range(20):
        tau = complex(rng.uniform(-2, 2), 10 ** rng.uniform(-1, 1))
        values = [e(tau, 1e-13).value for e in ALL_EVALUATORS]
        for v in values[1:]:
            assert rel(v, values[0]) < 1e-12, tau


def test_accepts_upper_half_point_inputs():
    point = complex(0.0, 1.0)
    assert rel(eta_pentagonal_eval(point).value, ETA_I) < 1e-12


def test_rejects_lower_half_plane_and_bad_tol():
    for evaluator in ALL_EVALUATORS:
        with pytest.raises(ValueError):
            evaluator(1 - 1j)
    with pytest.raises(ValueError):
        eta_pentagonal_eval(1j, -1e-9)


@pytest.mark.parametrize("tau", [1j, 1 - 1j])
def test_eta_eval_rejects_unknown_method(tau):
    # the method is checked before tau or any series
    with pytest.raises(ValueError, match="unknown method 'foo'") as info:
        evaluate.eta_eval(tau, method="foo")
    assert all(method in str(info.value) for method in evaluate.EVAL_METHODS)


def test_character_sum_is_the_pentagonal_evaluator():
    # the chi12 theta sum is the pentagonal series re-indexed: one kernel, and
    # eta_char_eval is only the name the benchmarks still use for it
    assert evaluate.eta_char_eval is evaluate.eta_pentagonal_eval
    assert "eta_char_eval" not in etaforge.__all__
    assert "character" not in evaluate.EVAL_METHODS


def non_finite_calls():
    """(entry point, args) with inf or nan in each tau, tol, z, w, u, a, b slot."""
    tau_routes = (*ALL_EVALUATORS, evaluate.eta_eval)
    for x in (math.nan, math.inf, -math.inf):
        for tau in (complex(x, 1.0), complex(0.3, x)):
            yield from ((route, (tau,)) for route in tau_routes)
            yield transform_factor, (S, tau)
            yield functional_eq_residual, (S, tau)
            yield theta_identity_residual, (tau, 0, 0)
        yield from ((route, (1j, x)) for route in tau_routes)
        yield functional_eq_residual, (S, 1j, x)
        for z in (complex(x, 0.1), complex(0.2, x)):
            yield theta_identity_residual, (1j, z, 0)
            yield theta_identity_residual, (1j, 0, z)
        yield theta_identity_residual, (1j, 0, 0, x)
        for args in ((x, 0.1, 0.2), (1.0, x, 0.2), (1.0, 0.1, x), (1.0, 0.1, 0.2, x)):
            yield gaussian_poisson_residual, args


NON_FINITE_CALLS = list(non_finite_calls())


@pytest.mark.parametrize(
    "fn, args", NON_FINITE_CALLS, ids=[f"{fn.__name__}{args}" for fn, args in NON_FINITE_CALLS]
)
def test_non_finite_input_raises_value_error(fn, args):
    with pytest.raises(ValueError, match="finite"):
        fn(*args)


@pytest.mark.parametrize(
    "tau", [complex(-1.9958923010938387, 0.020140973318589484), complex(1e12 + 0.3, 0.5)]
)
def test_direct_series_split_off_large_real_part(tau):
    reference = eta_transformed_eval(tau).value
    for evaluator in (eta_product_eval, eta_pentagonal_eval):
        assert rel(evaluator(tau).value, reference) <= 1e-11, evaluator.__name__


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: eta_product_eval(0.5 + 1e-9j), id="product"),
        # 1 - |q| rounds to 0 here
        pytest.param(lambda: eta_product_eval(0.3 + 1e-300j), id="product-1e-300"),
        pytest.param(lambda: eta_pentagonal_eval(0.5 + 1e-12j), id="pentagonal"),
        pytest.param(lambda: theta_identity_residual(1e-14j, 0, 0), id="theta"),
    ],
)
def test_every_series_raises_the_one_budget_error(call):
    budget = f"needs more than {evaluate.MAX_SERIES_TERMS} terms"
    with pytest.raises(ConvergenceBudgetError) as info:
        call()
    assert str(info.value).endswith(budget)


def test_product_just_inside_budget_still_sums(monkeypatch):
    result = eta_product_eval(0.3 + 1e-4j)
    terms = result.terms_used
    assert terms > 1000
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms)
    assert eta_product_eval(0.3 + 1e-4j) == result
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms - 1)
    with pytest.raises(ConvergenceBudgetError):
        eta_product_eval(0.3 + 1e-4j)


@pytest.mark.parametrize("evaluator", [eta_product_eval, eta_pentagonal_eval])
def test_direct_series_budget_error_near_real_axis_is_fast(evaluator):
    start = time.perf_counter()
    with pytest.raises(ConvergenceBudgetError):
        evaluator(0.5 + 1e-12j)
    # the term count is predicted from the tail ratio, not summed up to the budget
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "tau, min_terms", [(0.3 + 1e-4j, 700), (0.1 + 1e-3j, 100), (0.7 + 3e-5j, 2000)]
)
def test_pentagonal_just_inside_budget_still_sums(monkeypatch, tau, min_terms):
    # at these heights the tail-ratio condition, which the budget check predicts,
    # is what ends the sum
    terms = eta_pentagonal_eval(tau).terms_used
    assert terms > min_terms
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms)
    assert eta_pentagonal_eval(tau).terms_used == terms
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms - 1)
    with pytest.raises(ConvergenceBudgetError):
        eta_pentagonal_eval(tau)


def test_extreme_height_underflows_cleanly():
    # representable: eta(300i) = e^(-25 pi) up to an invisible correction
    assert rel(eta_pentagonal_eval(300j).value, math.exp(-300 * math.pi / 12)) < 1e-13
    # below double range the value and its bound underflow to exact zero
    result = eta_pentagonal_eval(4000j)
    assert result.value == 0.0
    assert result.tail_bound == 0.0


def test_tail_bound_honesty():
    # halving the tolerance moves the value by at most the reported bound
    for tau in (1j, 0.3 + 0.2j, 0.1 + 0.5j):
        for evaluator in (eta_product_eval, eta_pentagonal_eval):
            coarse = evaluator(tau, 1e-8)
            fine = evaluator(tau, 5e-9)
            assert abs(coarse.value - fine.value) <= coarse.tail_bound * abs(coarse.value) + 1e-15


@pytest.mark.parametrize("tau", [1j, 0.5j, 0.3 + 0.2j, 1 + 1j, -0.4 + 1.3j, 0.1 + 0.02j])
def test_character_theta_form_is_the_pentagonal_series(tau):
    # eta(tau) = sum_{m >= 1} chi12(m) e^(pi i tau m^2 / 12), summed here term by
    # term: the sum eta_char_eval names, checked against two evaluators
    total, m = 0j, 1
    while (m - 1) ** 2 * tau.imag * math.pi / 12 < 45:
        total += chi12(m) * cmath.exp(1j * math.pi * tau * m * m / 12)
        m += 1
    assert rel(total, eta_pentagonal_eval(tau, 1e-14).value) < 1e-12
    assert rel(total, eta_product_eval(tau, 1e-14).value) < 1e-12


def test_char_eval_gauss_sum_identity():
    # chi12(n) = 12^(-1/2) sum_{m=1..12} chi12(m) e^(2 pi i m n / 12)
    for n in range(24):
        total = sum(
            chi12(m) * cmath.exp(2j * math.pi * m * n / 12) for m in range(1, 13)
        ) / math.sqrt(12)
        assert abs(total - chi12(n)) < 1e-12, n


# --- transformation machinery ---------------------------------------------------


def test_transform_factor_at_s():
    assert abs(transform_factor(S, 1j) - 1.0) < 1e-15
    assert abs(transform_factor(S, 2j) - math.sqrt(2)) < 1e-15


def test_transform_factor_explicit():
    # omega = 2, so the phase is e^(2 pi i/12)
    expected = cmath.exp(1j * math.pi / 6) * cmath.sqrt(1 - 1j)
    assert abs(transform_factor(ModularMatrix(1, 0, 1, 1), 1j) - expected) < 1e-15


def test_transform_factor_rejects_translations():
    with pytest.raises(ValueError):
        transform_factor(ModularMatrix(1, 1, 0, 1), 1j)


def test_branch_safety():
    # -i(c tau + d) stays in the open right half-plane whenever c > 0
    rng = random.Random(13)
    for _ in range(300):
        mat = random_unimodular_matrix(rng)
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
        assert (-1j * (mat.c * tau + mat.d)).real > 0


def test_eta_transformed_matches_direct():
    assert rel(eta_transformed_eval(1j).value, ETA_I) < 1e-12
    direct = eta_product_eval(0.5 + 0.01j, 1e-13)
    reduced = eta_transformed_eval(0.5 + 0.01j, 1e-13)
    assert rel(reduced.value, direct.value) < 1e-11


def test_eta_at_half_i_inversion():
    # eta(i/2) = sqrt(2) eta(2i)
    value = eta_transformed_eval(0.5j, 1e-13).value
    assert rel(value, ETA_HALF_I) < 1e-12
    assert abs(value - math.sqrt(2) * ETA_2I) < 1e-12


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.1j, -0.49 + 0.9j, 3 + 2j, -1.7 + 1.1j])
def test_transport_by_a_translation_is_the_phase_table(tau):
    # here the reducer is I or T^-b, so transport multiplies the pentagonal
    # value at tau_red by e^(pi i b/12) and keeps its bound and term count
    tau_red, reducer = reduce_to_fundamental_domain(tau)
    b = -reducer.b
    assert tuple(reducer) == (1, -b, 0, 1)
    inner = eta_pentagonal_eval(tau_red)
    expected = (evaluate._ROOTS24[b % 24] * inner.value, inner.tail_bound, inner.terms_used)
    assert eta_transformed_eval(tau) == expected


def test_transported_value_underflows_to_positive_zeros():
    result = eta_transformed_eval(0.3 + 1e-300j)
    assert result == (0j, 0.0, 1)
    value, bound, _ = result
    assert math.copysign(1.0, value.real) == math.copysign(1.0, value.imag) == 1.0
    assert math.copysign(1.0, bound) == 1.0


def test_eta_transformed_tiny_imaginary_part():
    result = eta_transformed_eval(0.5 + 0.001j)
    assert result.tail_bound <= 1e-12
    assert abs(result.value) > 0.0


def test_eta_transformed_matches_mpmath_near_real_axis():
    # a float reduction loses up to 9.1e-11 relative on these points; the
    # exact one leaves only the rounding of tau_red and of the series
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(5)
    for _ in range(6):
        tau = complex(rng.uniform(-1, 1), 10 ** rng.uniform(-6, -5))
        with mpmath.workdps(30):
            ref = mpmath.eta(mpmath.mpc(tau.real, tau.imag))
        value = eta_transformed_eval(tau).value
        assert abs(mpmath.mpc(value) - ref) / abs(ref) < 1e-12, tau


@pytest.mark.parametrize(
    "mat, tau, reductions",
    [
        (S, 0.3 + 1e-4j, 1),  # both sides below SMALL_IM
        (S, 0.3 + 0.5j, 0),  # both sides direct
        (ModularMatrix(1, 0, 40, 1), 0.1 + 0.2j, 1),  # only the image below SMALL_IM
        (ModularMatrix(2, 1, 1, 1), -0.5 + 0.01j, 1),  # both below, image at Im 0.04
        (S, 0.3 + 0.04j, 1),  # only tau below SMALL_IM
    ],
)
def test_functional_eq_residual_reduces_tau_at_most_once(monkeypatch, mat, tau, reductions):
    calls = []
    original = evaluate.reduce_to_fundamental_domain

    def counting(point):
        calls.append(point)
        return original(point)

    monkeypatch.setattr(evaluate, "reduce_to_fundamental_domain", counting)
    assert functional_eq_residual(mat, tau) < 1e-10
    assert len(calls) == reductions


def test_functional_eq_residual_examples():
    assert functional_eq_residual(S, 1j) < 1e-12
    assert functional_eq_residual(S, 1 + 1j) < 1e-10
    assert functional_eq_residual(ModularMatrix(2, 1, 1, 1), 0.3 + 0.7j) < 1e-10


def test_functional_eq_residual_random():
    rng = random.Random(14)
    for _ in range(50):
        mat = random_unimodular_matrix(rng)
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))
        residual = functional_eq_residual(mat, tau)
        assert residual < 1e-10, (mat, tau, residual)


@pytest.mark.parametrize("mat", [S, ModularMatrix(2, 1, 1, 1)])
@pytest.mark.parametrize("re", [1e4, 1e8, 1e12, 1e16])
def test_functional_eq_residual_at_large_real_part(mat, re):
    # both sides are about |factor eta(tau)|, with |factor| ~ |tau|^(1/2), so
    # the relative residual must not grow with Re tau
    assert functional_eq_residual(mat, complex(re, 0.5)) <= 1e-14


@pytest.mark.parametrize(
    "mat, tau", [(S, 0.3 + 1e-300j), (ModularMatrix(1, 0, 10**9, 1), 0.5 + 1e-300j)]
)
def test_functional_eq_residual_underflow_raises(mat, tau):
    # f eta(tau) underflows to 0 here, so there is no scale to divide by
    with pytest.raises(NumericDegeneracyError, match="underflows"):
        functional_eq_residual(mat, tau)


HUGE = 10**400  # no float holds it


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_mobius(ModularMatrix(1, 0, HUGE, 1), 1j),
        lambda: apply_mobius(ModularMatrix(1, HUGE, 0, 1), 1j),
        lambda: transform_factor(ModularMatrix(1, 0, HUGE, 1), 1j),
        lambda: functional_eq_residual(ModularMatrix(1, 0, HUGE, 1), 1j),
    ],
    ids=["apply_mobius", "apply_mobius-translation", "transform_factor", "functional_eq_residual"],
)
def test_matrix_entry_beyond_float_range_raises(call):
    with pytest.raises(NumericDegeneracyError, match="entry of .* beyond the float range"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_mobius(ModularMatrix(1, 0, 10**5000, 1), 1j),
        lambda: transform_factor(ModularMatrix(1, 0, 10**5000, 1), 1j),
        lambda: functional_eq_residual(ModularMatrix(1, 0, 10**5000, 1), 1j),
    ],
    ids=["apply_mobius", "transform_factor", "functional_eq_residual"],
)
def test_matrix_entry_past_the_digit_limit_raises(call):
    # 10^5000 has more digits than Python converts to str, so the message
    # names the entry by its bit length
    with pytest.raises(NumericDegeneracyError, match="<16610-bit integer>"):
        call()


def test_functional_eq_residual_shift_beyond_float_range():
    # a/c = 10^400 leaves the float range; the shift is still split off exactly
    residual = functional_eq_residual(ModularMatrix(10**400, 10**400 - 1, 1, 1), 1j)
    assert residual <= 1e-10


def test_functional_eq_residual_shift_is_round_half_even(monkeypatch):
    # the balanced matrix has a - round(a/c) c in its corner, ties included
    balanced = []

    def record(mat, tau):
        balanced.append(mat)
        return apply_mobius(mat, tau)

    monkeypatch.setattr(evaluate, "apply_mobius", record)
    for c in range(1, 9):
        for a in range(-3 * c, 3 * c + 1):
            if math.gcd(a, c) != 1:
                continue
            d = pow(a, -1, c)
            functional_eq_residual(ModularMatrix(a, (a * d - 1) // c, c, d), 0.3 + 0.7j)
            assert balanced.pop().a == a - round(a / c) * c, (a, c)


def test_transformation_law_builds_no_fraction(monkeypatch):
    # omega reads the integer Dedekind kernel, so no Fraction is built here
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(dedekind, "Fraction", no_fraction)
    assert eta_transformed_eval(0.3 + 1e-4j).value
    assert functional_eq_residual(ModularMatrix(2, 1, 1, 1), 0.3 + 0.7j) <= 1e-10


def test_roots_of_unity_table_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for j, root in enumerate(evaluate._ROOTS24):
            assert abs(mpmath.mpc(root) - mpmath.expjpi(mpmath.mpf(j) / 12)) <= 1e-15, j


@pytest.mark.parametrize("m", [-25, -1, 0, 7, 13, 23])
def test_translation_phase_depends_on_m_mod_24(m):
    assert evaluate._translation_phase(m) == evaluate._translation_phase(m + 24 * 10**30)


def test_functional_eq_rejects_translations():
    with pytest.raises(ValueError):
        functional_eq_residual(ModularMatrix(1, 3, 0, 1), 1j)


# --- theta and Gaussian summation identities ------------------------------------


def test_theta_identity_fixed_cases():
    assert theta_identity_residual(1j, 0, 0) < 1e-12
    assert theta_identity_residual(2j, 0, 0) < 1e-12
    assert theta_identity_residual(1j, 0.5, 1.0 / 6.0) < 1e-12


def test_theta_identity_complex_parameters():
    assert theta_identity_residual(0.4 + 1.3j, 0.3 - 0.2j, -0.7 + 0.1j) < 1e-12


def test_theta_identity_budget_error():
    start = time.perf_counter()
    with pytest.raises(ConvergenceBudgetError):
        theta_identity_residual(1e-14j, 0, 0)
    # the term count is predicted, not summed up to the budget
    assert time.perf_counter() - start < 1.0


# (tau, z, w, tol_abs) where the theta sum's cuts, not its closed-form lower
# bound on the term count, decide the budget
THETA_BUDGET_POINT = (0.0005j, 0.25 + 0.1j, -0.3j, 1e-12)


def test_theta_sum_just_inside_budget_still_sums(monkeypatch):
    _, terms = evaluate._bilateral_theta_sum(*THETA_BUDGET_POINT)
    assert terms > 1000
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms)
    assert evaluate._bilateral_theta_sum(*THETA_BUDGET_POINT)[1] == terms
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms - 1)
    with pytest.raises(ConvergenceBudgetError):
        evaluate._bilateral_theta_sum(*THETA_BUDGET_POINT)


def test_theta_sum_decides_its_budget_before_any_term(monkeypatch):
    # both cuts come from the exact term magnitudes, so a sum one term past
    # the budget raises before it evaluates a single complex exponential
    _, terms = evaluate._bilateral_theta_sum(*THETA_BUDGET_POINT)
    exps = []

    class CountingCmath:
        def __getattr__(self, name):
            return getattr(cmath, name)

        def exp(self, x):
            exps.append(x)
            return cmath.exp(x)

    monkeypatch.setattr(evaluate, "cmath", CountingCmath())
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms)
    evaluate._bilateral_theta_sum(*THETA_BUDGET_POINT)
    assert len(exps) == terms  # the stand-in sees one exponential a term
    exps.clear()
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms - 1)
    with pytest.raises(ConvergenceBudgetError):
        evaluate._bilateral_theta_sum(*THETA_BUDGET_POINT)
    assert exps == []


def test_theta_sum_is_within_its_truncation_bound_of_a_wide_window():
    # each side's omitted tail is at most tol_abs/4, so the sum is within
    # tol_abs/2 of one over a window far past both cuts, up to rounding;
    # an even term count i_hi + i_lo - 1 means the two cuts differ
    rng = random.Random(41)
    uneven = 0
    for _ in range(200):
        tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 2.0))
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))
        w = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))
        tol_abs = 10.0 ** rng.uniform(-13.0, -8.0)
        value, terms = evaluate._bilateral_theta_sum(tau, z, w, tol_abs)
        uneven += terms % 2 == 0
        window = [
            cmath.exp(-2j * math.pi * (n + z) * w + 1j * math.pi * tau * (n + z) * (n + z))
            for n in range(-80, 81)
        ]
        allowance = tol_abs / 2 + 8 * math.ulp(1.0) * sum(map(abs, window))
        assert abs(value - sum(window)) <= allowance, (tau, z, w, tol_abs)
    assert uneven >= 50


def test_theta_identity_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        theta_identity_residual(-1j, 0, 0)


@pytest.mark.parametrize(
    "tau, z, w, what",
    [
        (1j, 20, -10j, r"e\^\(-2 pi i w z\)"),  # e^(-400 pi) underflows
        (1j, 1e6, 1e-3j, r"e\^\(-2 pi i w z\)"),  # e^(2000 pi) overflows
        (1e200 + 1j, 0, 0, "-1/tau"),  # Im(-1/tau) = 1e-400 underflows
        (1j, 0, 100j, "a theta term"),  # the H1 terms peak near e^(10^4 pi)
    ],
    ids=["factor-underflow", "factor-overflow", "inverse-underflow", "term-overflow"],
)
def test_theta_identity_names_what_leaves_the_float_range(tau, z, w, what):
    with pytest.raises(NumericDegeneracyError, match=what):
        theta_identity_residual(tau, z, w)


def test_gaussian_poisson_fixed_cases():
    assert gaussian_poisson_residual(1, 0, 0) < 1e-12
    assert gaussian_poisson_residual(4, 0, 0) < 1e-12
    assert gaussian_poisson_residual(1, 1.0 / 3.0, 1.0 / 5.0) < 1e-12


def test_gaussian_poisson_is_theta_at_imaginary_tau():
    rng = random.Random(15)
    draws = [
        (4.0 ** rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)
    ]
    for u, a, b in (*POISSON_FIXED_CASES, *draws):
        expected = theta_identity_residual(complex(0.0, u), a, b)
        assert gaussian_poisson_residual(u, a, b) == expected, (u, a, b)


def test_gaussian_poisson_rejects_nonpositive_u():
    with pytest.raises(ValueError):
        gaussian_poisson_residual(0, 0, 0)
    with pytest.raises(ValueError):
        gaussian_poisson_residual(-2, 0.5, 0.5)


@pytest.mark.parametrize(
    "args, name",
    [
        ((1.0, 0.5 + 0.1j, 0.2), "a"),  # used to return 1.4e-15, the theta residual
        ((1 + 0j, 0.5, 0.2), "u"),  # used to raise TypeError
        ((1.0, 0.5, 0.2 + 0j), "b"),
        ((complex(1.0, math.nan), 0.5, 0.2), "u"),
    ],
)
def test_gaussian_poisson_rejects_complex_parameters(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be real"):
        gaussian_poisson_residual(*args)
