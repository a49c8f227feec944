"""Floating-point eta evaluation and identity residuals.

Reference values are frozen from a 40-digit pentagonal-series evaluation
(independent of this package); eta(i) also matches the classical closed form
Gamma(1/4) / (2 pi^(3/4)) to all quoted digits.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from etaforge import evaluate
from etaforge import (
    ConvergenceBudgetError,
    ModularMatrix,
    S,
    UpperHalfPoint,
    chi12,
    eta_char_eval,
    eta_pentagonal_eval,
    eta_product_eval,
    eta_transformed_eval,
    functional_eq_residual,
    gaussian_poisson_residual,
    theta_identity_residual,
    transform_factor,
)
from etaforge.campaigns import random_unimodular_matrix

ETA_I = 0.7682254223260566590025942
ETA_2I = 0.5923827813324158852903634
ETA_HALF_I = 0.837755763476598057912366
ETA_03_02I = complex(1.106216548444957774733147, -0.1251970021575189068786067)
ETA_1_PLUS_I = complex(0.7420487758365647263392722, 0.1988313702299107190516142)

ALL_EVALUATORS = (eta_product_eval, eta_pentagonal_eval, eta_char_eval, eta_transformed_eval)


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
    point = UpperHalfPoint(0.0, 1.0)
    assert rel(eta_pentagonal_eval(point).value, ETA_I) < 1e-12


def test_rejects_lower_half_plane_and_bad_tol():
    for evaluator in ALL_EVALUATORS:
        with pytest.raises(ValueError):
            evaluator(1 - 1j)
    with pytest.raises(ValueError):
        eta_pentagonal_eval(1j, -1e-9)


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
    for evaluator in (eta_product_eval, eta_pentagonal_eval, eta_char_eval):
        assert rel(evaluator(tau).value, reference) <= 1e-11, evaluator.__name__


def test_product_budget_error_near_real_axis():
    with pytest.raises(ConvergenceBudgetError):
        eta_product_eval(0.5 + 1e-9j)


@pytest.mark.parametrize("evaluator", [eta_pentagonal_eval, eta_char_eval])
def test_direct_series_budget_error_near_real_axis_is_fast(evaluator):
    start = time.perf_counter()
    with pytest.raises(ConvergenceBudgetError):
        evaluator(0.5 + 1e-12j)
    # the term count is predicted from the tail ratio, not summed up to the budget
    assert time.perf_counter() - start < 1.0


def test_pentagonal_just_inside_budget_still_sums(monkeypatch):
    # at this height the tail-ratio condition, which the budget check predicts,
    # is what ends the sum
    terms = eta_pentagonal_eval(0.3 + 1e-4j).terms_used
    assert terms > 700
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms)
    assert eta_pentagonal_eval(0.3 + 1e-4j).terms_used == terms
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms - 1)
    with pytest.raises(ConvergenceBudgetError):
        eta_pentagonal_eval(0.3 + 1e-4j)


@pytest.mark.parametrize("tau", [0.3 + 1e-4j, 0.1 + 1e-3j, 0.7 + 3e-5j])
def test_character_just_inside_budget_still_sums(monkeypatch, tau):
    # the budget counts the summed terms that terms_used reports
    result = eta_char_eval(tau)
    assert result.terms_used > 100
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", result.terms_used)
    assert eta_char_eval(tau) == result
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", result.terms_used - 1)
    with pytest.raises(ConvergenceBudgetError):
        eta_char_eval(tau)


def test_extreme_height_underflows_cleanly():
    # representable: eta(300i) = e^(-25 pi) up to an invisible correction
    for evaluator in (eta_pentagonal_eval, eta_char_eval):
        assert rel(evaluator(300j).value, math.exp(-300 * math.pi / 12)) < 1e-13
        # below double range the value and its bound underflow to exact zero
        result = evaluator(4000j)
        assert result.value == 0.0
        assert result.tail_bound == 0.0


def test_tail_bound_honesty():
    # halving the tolerance moves the value by at most the reported bound
    for tau in (1j, 0.3 + 0.2j, 0.1 + 0.5j):
        for evaluator in (eta_product_eval, eta_pentagonal_eval, eta_char_eval):
            coarse = evaluator(tau, 1e-8)
            fine = evaluator(tau, 5e-9)
            assert abs(coarse.value - fine.value) <= coarse.tail_bound * abs(coarse.value) + 1e-15


def test_char_eval_gauss_sum_identity():
    # chi12(n) = 12^(-1/2) sum_{m=1..12} chi12(m) e^(2 pi i m n / 12)
    for n in range(24):
        total = sum(
            chi12(m) * cmath.exp(2j * math.pi * m * n / 12) for m in range(1, 13)
        ) / math.sqrt(12)
        assert abs(total - chi12(n)) < 1e-12, n


# --- transformation machinery ---------------------------------------------------


def test_transform_factor_at_s():
    ctx = transform_factor(S, 1j)
    assert ctx.multiplier_phase == Fraction(0)
    assert abs(ctx.factor - 1.0) < 1e-15

    ctx2 = transform_factor(S, 2j)
    assert abs(ctx2.factor - math.sqrt(2)) < 1e-15


def test_transform_factor_explicit():
    ctx = transform_factor(ModularMatrix(1, 0, 1, 1), 1j)
    assert ctx.multiplier_phase == Fraction(1, 6)  # omega = 2, phase 2/12
    assert abs(ctx.sqrt_factor - cmath.sqrt(1 - 1j)) < 1e-15


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


def test_theta_sum_just_inside_budget_still_sums(monkeypatch):
    args = (0.0005j, 0.25 + 0.1j, -0.3j, 1e-12)
    _, _, terms = evaluate._bilateral_theta_sum(*args)
    assert terms > 1000
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms)
    assert evaluate._bilateral_theta_sum(*args)[2] == terms
    monkeypatch.setattr(evaluate, "MAX_SERIES_TERMS", terms - 1)
    with pytest.raises(ConvergenceBudgetError):
        evaluate._bilateral_theta_sum(*args)


def test_theta_identity_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        theta_identity_residual(-1j, 0, 0)


def test_gaussian_poisson_fixed_cases():
    assert gaussian_poisson_residual(1, 0, 0) < 1e-12
    assert gaussian_poisson_residual(4, 0, 0) < 1e-12
    assert gaussian_poisson_residual(1, 1.0 / 3.0, 1.0 / 5.0) < 1e-12


def test_gaussian_poisson_rejects_nonpositive_u():
    with pytest.raises(ValueError):
        gaussian_poisson_residual(0, 0, 0)
    with pytest.raises(ValueError):
        gaussian_poisson_residual(-2, 0.5, 0.5)
