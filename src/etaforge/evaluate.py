"""Floating-point evaluation of the Dedekind eta function and the theta-type
identities, with explicit truncation-error control.

Two independent series routes to eta are provided (infinite product and
pentagonal-exponent sum), each summed at tau - round(Re tau) behind one front
end that restores the exact phase, plus a third that reduces the argument to
the fundamental domain (exactly, rounding the reduced point once) and
transports the value back through the transformation law.  The chi12 theta
sum is the pentagonal sum re-indexed, so it is not a separate route.  Every
evaluator reports a rigorous bound on its truncation error; double-precision
rounding is outside that bound and is documented instead.  All tolerances
here are meaningful down to ~1e-13 away from the real axis; near it a
direct sum cancels many terms of modulus near 1 (at 0.3+1e-4i the pentagonal
sum is 6.4e-3 off with bound 2.2e-45), which `auto` avoids below
Im tau = SMALL_IM and a direct route by name does not.

Truncation policy: each series is cut where a geometric majorant of the tail,
taken with an explicit safety factor 2, drops below the requested tolerance.
The majorants are exact term-magnitude formulas, so the reported bound is a
genuine bound and not a heuristic.

Identity residuals: functional_eq_residual is the defect of the
transformation law relative to |factor * eta(tau)|, the size of both sides;
theta_identity_residual is the absolute defect of the theta transformation
identity; gaussian_poisson_residual is that identity at tau = iu with real
z and w.

Invalid input: tau is a plain complex number.  Every public entry point raises
ValueError, before any summation, for a tau that fails `modgroup._as_tau`
(finite, Im > 0), a matrix that fails `modgroup._as_matrix` (four int
entries with determinant 1), a tolerance that is not a finite positive
number, or a non-finite theta/Poisson parameter (z, w, u, a, b; u, a and b
must also be real, and u positive).  A series that would need more than
MAX_SERIES_TERMS terms raises ConvergenceBudgetError instead, before summing
where a closed-form lower bound on its term count already passes the budget.
An intermediate value beyond the float range raises NumericDegeneracyError:
a reduced or image point, f eta(tau) in functional_eq_residual when it
underflows to 0, and -1/tau, the H2 factor or a theta term in
theta_identity_residual.

An `EvalResult` is a named tuple (value, tail_bound, terms_used): it unpacks
as one and equals the plain tuple of its fields, and it neither concatenates
nor repeats.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from ._valuetype import ValueTuple
from .dedekind import omega
from .modgroup import (
    IDENTITY,
    ModularMatrix,
    NumericDegeneracyError,
    _as_matrix,
    _as_tau,
    apply_mobius,
    reduce_to_fundamental_domain,
)

__all__ = [
    "EvalResult",
    "ConvergenceBudgetError",
    "eta_product_eval",
    "eta_pentagonal_eval",
    "transform_factor",
    "eta_transformed_eval",
    "eta_eval",
    "functional_eq_residual",
    "theta_identity_residual",
    "gaussian_poisson_residual",
]

DEFAULT_TOL = 1e-12

# When the argument sits below this height, direct series evaluation is
# replaced by the fundamental-domain route.
SMALL_IM = 0.05

# Hard cap on series terms before giving up with a budget error.
MAX_SERIES_TERMS = 10_000_000


class ConvergenceBudgetError(Exception):
    """Raised when a series would need more terms than the evaluator budget."""


class EvalResult(ValueTuple, namedtuple("EvalResult", "value tail_bound terms_used")):
    """A computed value with a rigorous relative truncation bound."""

    __slots__ = ()


def _check_tol(tol: float) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def _check_finite(name: str, value: complex) -> None:
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _over_budget(what: str) -> ConvergenceBudgetError:
    """The one budget error, from a closed-form term-count bound or a running count."""
    return ConvergenceBudgetError(f"{what} needs more than {MAX_SERIES_TERMS} terms")


def _translated(series, tau: complex, tol: float) -> EvalResult:
    """Front end of the direct routes: checks tau and tol, runs `series(z, tol) ->
    (value, relative tail bound, terms)` at z = tau - round(Re tau) = tau - m,
    where term phases stay small, and applies eta(tau) = e^(pi i m/12) eta(z)."""
    z = _as_tau(tau)
    _check_tol(tol)
    m = round(z.real)
    value, rel, terms = series(z - m, tol)
    return EvalResult(_translation_phase(m) * value, rel, terms)


def eta_product_eval(tau: complex, tol: float = DEFAULT_TOL) -> EvalResult:
    """eta(tau) from its defining product e^(pi i tau/12) prod (1 - q^n).

    The factor count N is chosen so that 2|q|^(N+1)/(1 - |q|) <= tol with
    q = e^(2 pi i tau); that geometric sum majorizes the relative error of
    dropping all factors beyond N.  Arguments very close to the real axis
    would need more than the term budget; use eta_transformed_eval there.
    """
    return _translated(_product_series, tau, tol)


def _product_series(z: complex, tol: float) -> tuple[complex, float, int]:
    t = z.imag
    log_absq = -2.0 * math.pi * t
    absq = math.exp(log_absq)
    target = tol * (1.0 - absq) / 2.0
    # where 1 - |q| rounds to 0, no factor count reaches the target
    n_terms = max(1, math.ceil(math.log(target) / log_absq)) if target else math.inf
    if n_terms > MAX_SERIES_TERMS:
        raise _over_budget(f"product evaluation at im(tau) = {t}")
    q = cmath.exp(2j * math.pi * z)
    qn = complex(1.0)
    prod = complex(1.0)
    for n in range(1, n_terms + 1):
        # periodic re-anchor keeps the power free of accumulated drift
        qn = cmath.exp(2j * math.pi * z * n) if n % 256 == 0 else qn * q
        prod *= 1.0 - qn
    value = cmath.exp(1j * math.pi * z / 12.0) * prod
    tail = 2.0 * absq ** (n_terms + 1) / (1.0 - absq)
    return value, tail, n_terms


def eta_pentagonal_eval(tau: complex, tol: float = DEFAULT_TOL) -> EvalResult:
    """eta(tau) as the sum over all integers n of (-1)^n e^(3 pi i tau (n + 1/6)^2).

    Terms are added in symmetric rings |n| <= N; the omitted tails on the two
    sides are majorized geometrically from the exact magnitudes
    e^(-3 pi t (n +- 1/6)^2).  Only a ring N >= ln 2/(6 pi t) - 4/3 can end the
    sum, so when 2N + 1 passes MAX_SERIES_TERMS the budget error comes first.
    """
    return _translated(_pentagonal_series, tau, tol)


def _pentagonal_series(z: complex, tol: float) -> tuple[complex, float, int]:
    t = z.imag
    c = 3.0 * math.pi
    min_rings = math.log(2.0) / (2.0 * c * t) - 4.0 / 3.0
    if 2.0 * min_rings + 1.0 > MAX_SERIES_TERMS:
        raise _over_budget(f"pentagonal evaluation at im(tau) = {t}")
    # loop invariants: term n is sign * exp(icz (n + 1/6)^2) with sign = (-1)^n,
    # term 0 included (so an underflowed sum keeps its signed zeros), and a
    # tail magnitude is exp(minus_ct x)
    icz = c * 1j * z
    minus_ct = -c * t
    value = 1.0 * cmath.exp(icz * (1.0 / 6.0) ** 2)
    n = 0
    terms = 1
    while True:
        # tails for omitting |m| > n
        ratio_lo = math.exp(minus_ct * (2 * n + 2 + 2.0 / 3.0))
        if ratio_lo <= 0.5:
            ratio_hi = math.exp(minus_ct * (2 * n + 2 + 4.0 / 3.0))
            tail_hi = math.exp(minus_ct * (n + 7.0 / 6.0) ** 2) / (1.0 - ratio_hi)
            tail_lo = math.exp(minus_ct * (n + 5.0 / 6.0) ** 2) / (1.0 - ratio_lo)
            bound = 2.0 * (tail_hi + tail_lo)
            if bound <= tol * abs(value):
                # at extreme heights value and bound both underflow to 0.0
                return value, bound / abs(value) if value else 0.0, terms
        n += 1
        sign = -1.0 if n % 2 else 1.0
        value += sign * cmath.exp(icz * (n + 1.0 / 6.0) ** 2) + sign * cmath.exp(
            icz * (-n + 1.0 / 6.0) ** 2
        )
        terms += 2
        if terms > MAX_SERIES_TERMS:
            raise _over_budget(f"pentagonal evaluation at im(tau) = {t}")


# The chi12 theta sum over n >= 1 of chi12(n) e^(pi i tau n^2 / 12) is the
# pentagonal series re-indexed by n = |6k + 1|, so it has no kernel of its own.
# `benchmarks/` still names this evaluator `eta_char_eval` (its eta-eval routes
# and tracer sites); the name goes when they stop using it.
eta_char_eval = eta_pentagonal_eval


def transform_factor(mat: ModularMatrix, tau: complex) -> complex:
    """The factor e^(pi i omega/12) sqrt(-i(c tau + d)) for a matrix with c > 0.

    omega comes from the integer Dedekind kernel (dedekind.omega builds no
    Fraction), and the phase is the table entry _ROOTS24[omega mod 24], so it
    never accumulates float error from a large omega.  With c > 0 and
    Im(tau) > 0, -i(c tau + d) lies in the open right half-plane, so the
    principal square root is the continuous branch.  Translations (c = 0)
    have no square-root factor and follow the shift law directly, so they are
    rejected here.  A plain 4-tuple is checked and put in canonical sign form
    by `modgroup._as_matrix` first, so (0, 1, -1, 0) is S.
    """
    a, b, c, d = mat if type(mat) is ModularMatrix else _as_matrix(mat)
    if c <= 0:
        raise ValueError(f"transformation factor requires c > 0, got c = {c}")
    return _law_factor(a, b, c, d, _as_tau(tau))


def _law_factor(a: int, b: int, c: int, d: int, z: complex) -> complex:
    """transform_factor for (a, b; c, d) at z, from plain ints and unchecked
    but for an entry beyond the float range, which raises NumericDegeneracyError."""
    try:
        den = c * z + d
    except OverflowError:
        mat = ModularMatrix(a, b, c, d)
        raise NumericDegeneracyError(f"an entry of {mat} lies beyond the float range") from None
    return _ROOTS24[omega(a, b, c, d) % 24] * cmath.sqrt(-1j * den)


# e^(pi i j/12) for j = 0..23, each within 5.2e-16 of the exact root.
_ROOTS24 = tuple(cmath.exp(1j * math.pi * (j / 12)) for j in range(24))


def _translation_phase(m: int) -> complex:
    """exp(pi i m / 12) from the exact residue of m mod 24."""
    return _ROOTS24[m % 24]


def _reduced(z: complex, tol: float) -> tuple[ModularMatrix, complex, EvalResult]:
    """Reduce tau once: (R, tau_red = R tau, eta(tau_red) by the pentagonal sum).

    tau_red is the exact image of tau, correctly rounded, with Im at least
    sqrt(3)/2, so the sum needs only a handful of terms."""
    tau_red, reducer = reduce_to_fundamental_domain(z)
    return reducer, tau_red, eta_pentagonal_eval(tau_red, tol)


def _transported(
    mat: ModularMatrix, reducer: ModularMatrix, tau_red: complex, inner: EvalResult
) -> EvalResult:
    """eta(mat * tau) from inner = eta(tau_red), tau_red = reducer * tau.

    mat * tau = C(tau_red) with C = mat reducer^-1 formed in plain integers,
    signed so that c > 0 or C = T^b.  eta is carried back by the law factor
    at the well-conditioned point tau_red, or for T^b by the phase
    e^(pi i b/12), exactly 1 at b = 0.  This deliberately avoids evaluating
    anything at the float image mat * tau, whose imaginary part may be far
    below float resolution.
    """
    a, b, c, d = mat
    ra, rb, rc, rd = reducer
    a, b, c, d = a * rd - b * rc, b * ra - a * rb, c * rd - d * rc, d * ra - c * rb
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    value = (_law_factor(a, b, c, d, tau_red) if c else _translation_phase(b)) * inner.value
    return EvalResult(value, inner.tail_bound, inner.terms_used)


def eta_transformed_eval(tau: complex, tol: float = DEFAULT_TOL) -> EvalResult:
    """eta(tau) via reduction to the fundamental domain.

    The reduced point is the exact image of tau, correctly rounded; inside
    the domain the imaginary part is at least sqrt(3)/2, so the pentagonal
    sum needs only a handful of terms, and the transformation law then
    carries the value back.  This route works for arguments far too close to
    the real axis for any direct series.
    """
    _check_tol(tol)
    return _transported(IDENTITY, *_reduced(_as_tau(tau), tol))


_ROUTES = {
    "product": eta_product_eval,
    "pentagonal": eta_pentagonal_eval,
    "transformed": eta_transformed_eval,
}

# The `eta_eval` and `etaforge eval --method` choices: `auto`, then each route.
EVAL_METHODS = ("auto", *_ROUTES)


def eta_eval(
    tau: complex, tol: float = DEFAULT_TOL, method: str = "auto"
) -> tuple[str, EvalResult]:
    """eta(tau) by one of EVAL_METHODS, with the route taken; `auto` takes
    `transformed` below Im tau = SMALL_IM and `pentagonal` elsewhere; a named
    route calls the evaluator that `_ROUTES` bound at import."""
    if method not in EVAL_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(EVAL_METHODS)}")
    if method == "auto":
        method = "pentagonal" if _direct(_as_tau(tau).imag) else "transformed"
    return method, _ROUTES[method](tau, tol)


def _direct(im: float) -> bool:
    """The `auto` rule: the direct pentagonal sum at Im tau >= SMALL_IM."""
    return im >= SMALL_IM


def functional_eq_residual(mat: ModularMatrix, tau: complex, tol: float = DEFAULT_TOL) -> float:
    """Relative defect |eta(M tau) - f eta(tau)| / |f eta(tau)| for c > 0, with
    f = transform_factor(M, tau).

    Both sides are about |f eta(tau)|, so each side's series, cut at relative
    tolerance tol/8, adds at most tol/8 to the defect whatever |f| is.  The
    image value is computed with the integer translation round(a/c) (half to
    even, in exact integers) split off exactly, so eta is only ever evaluated
    at well-scaled points even when the matrix entries reach 10^6.  Each side
    takes the `auto` route; when either is below SMALL_IM, tau is reduced once
    and both sides that need it transport the same eta(tau_red).  A plain
    4-tuple is read once by `modgroup._as_matrix`, as in `transform_factor`.
    """
    mat = mat if type(mat) is ModularMatrix else _as_matrix(mat)
    factor = transform_factor(mat, tau)
    z = complex(tau)
    _check_tol(tol)
    inner_tol = tol / 8.0
    # shift = round(a/c), half to even, in integers: a/c may leave the float range
    a, b, c, d = mat
    q, r = divmod(a, c)
    shift = q + (2 * r > c or 2 * r == c and q % 2 == 1)
    balanced = ModularMatrix(a - shift * c, b - shift * d, c, d)
    img = apply_mobius(balanced, z)
    # each side by the `auto` rule, sharing one reduction of tau
    base_direct, img_direct = _direct(z.imag), _direct(img.imag)
    reduced = None if base_direct and img_direct else _reduced(z, inner_tol)
    if base_direct:
        eta_base = eta_pentagonal_eval(z, inner_tol)
    else:
        eta_base = _transported(IDENTITY, *reduced)
    if img_direct:
        eta_img = eta_pentagonal_eval(img, inner_tol)
    else:
        eta_img = _transported(balanced, *reduced)
    image_value = _translation_phase(shift) * eta_img.value
    expected = factor * eta_base.value
    if not expected:
        raise NumericDegeneracyError(f"f eta(tau) at tau = {z} underflows to 0")
    return abs(image_value - expected) / abs(expected)


def _bilateral_theta_sum(
    tau: complex, z: complex, w: complex, tol_abs: float
) -> tuple[complex, int]:
    """Sum over all integers n of exp(-2 pi i (n+z) w + pi i tau (n+z)^2).

    Returns (value, terms).  With x = n + Re(z) the term magnitude is exactly
    exp(-pi t x^2 + beta x + c0) for

        t = Im(tau), beta = 2 pi (Im(w) - Re(tau) Im(z)),
        c0 = 2 pi Im(z) Re(w) + pi t Im(z)^2,

    a Gaussian profile in x; summation starts at the profile vertex and stops
    once both one-sided geometric majorants fall below tol_abs/4, so the
    omitted tail is at most tol_abs/2.  A side can stop only where the
    magnitude ratio is at most 1/2 and the magnitude itself is at most
    tol_abs/4, so the distance of those points from the vertex bounds the term
    count from below; past MAX_SERIES_TERMS the budget error is raised before
    any term is summed.  The caller passes a checked tau and a finite positive
    tol_abs.
    """
    t = tau.imag
    pi = math.pi
    zr, zi = z.real, z.imag
    beta = 2.0 * pi * (w.imag - tau.real * zi)
    c0 = 2.0 * pi * zi * w.real + pi * t * zi * zi
    log_target = math.log(tol_abs / 4.0)
    peak = c0 + beta * beta / (4.0 * pi * t)
    half_width = max(
        math.log(2.0) / (2.0 * pi * t) - 0.5,
        math.sqrt(max(peak - log_target, 0.0) / (pi * t)),
    )
    if 2.0 * half_width - 1.0 > MAX_SERIES_TERMS:
        raise _over_budget(f"theta sum at tau = {tau}, z = {z}, w = {w}")

    def term(n: int) -> complex:
        nz = n + z
        return cmath.exp(-2j * pi * nz * w + 1j * pi * tau * nz * nz)

    def side_done(x_next: float, going_up: bool) -> bool:
        # geometric ratio of magnitudes in the direction of travel
        log_ratio = (-pi * t * (2.0 * x_next + 1.0) + beta) if going_up else (
            pi * t * (2.0 * x_next - 1.0) - beta
        )
        if log_ratio > -math.log(2.0):
            return False
        log_mag = -pi * t * x_next * x_next + beta * x_next + c0
        return log_mag - math.log1p(-math.exp(log_ratio)) <= log_target

    n0 = round(beta / (2.0 * pi * t) - zr)
    value = term(n0)
    n_hi = n_lo = n0
    terms = 1
    while True:
        hi_done = side_done(n_hi + 1 + zr, going_up=True)
        lo_done = side_done(n_lo - 1 + zr, going_up=False)
        if hi_done and lo_done:
            break
        if not hi_done:
            n_hi += 1
            value += term(n_hi)
            terms += 1
        if not lo_done:
            n_lo -= 1
            value += term(n_lo)
            terms += 1
        if terms > MAX_SERIES_TERMS:
            raise _over_budget(f"theta sum at tau = {tau}, z = {z}, w = {w}")
    return value, terms


def theta_identity_residual(
    tau: complex, z: complex, w: complex, tol: float = DEFAULT_TOL
) -> float:
    """|H1 - H2| for the theta transformation identity, both sides truncated
    to absolute tail <= tol.

        H1 = sum_n exp(-2 pi i (n+z) w) exp(pi i tau (n+z)^2)
        H2 = (-i tau)^(-1/2) sum_n exp(2 pi i n z) exp(-pi i (n+w)^2 / tau)

    The H2 sum is the same Gaussian profile at -1/tau with the roles of z and
    w exchanged (up to an exact constant phase), so one summation routine
    serves both sides.  Large |Im z| or |Im w| inflate the profiles until the
    term budget runs out, which raises a budget error rather than returning a
    silently under-resolved residual.  When -1/tau, the H2 factor
    e^(-2 pi i w z) (-i tau)^(-1/2) or a term of either sum leaves the float
    range, the NumericDegeneracyError raised says which.
    """
    tau_c = _as_tau(tau)
    _check_tol(tol)
    z_c = complex(z)
    w_c = complex(w)
    _check_finite("z", z_c)
    _check_finite("w", w_c)

    def degenerate(what: str) -> NumericDegeneracyError:
        return NumericDegeneracyError(
            f"{what} at tau = {tau_c}, z = {z_c}, w = {w_c} leaves the float range"
        )

    tau_inv = -1.0 / tau_c
    if not (tau_inv.imag > 0 and cmath.isfinite(tau_inv)):
        raise degenerate(f"-1/tau = {tau_inv}")
    try:
        prefactor = cmath.exp(-2j * math.pi * w_c * z_c) / cmath.sqrt(-1j * tau_c)
        inner_tol = tol / abs(prefactor)
    except (OverflowError, ZeroDivisionError):
        inner_tol = 0.0
    if not 0.0 < inner_tol < math.inf:
        raise degenerate("the H2 factor e^(-2 pi i w z) (-i tau)^(-1/2)")
    try:
        h1, _ = _bilateral_theta_sum(tau_c, z_c, w_c, tol)
        inner, _ = _bilateral_theta_sum(tau_inv, w_c, -z_c, inner_tol)
    except OverflowError:
        raise degenerate("a theta term") from None
    h2 = prefactor * inner
    return abs(h1 - h2)


def gaussian_poisson_residual(u: float, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Absolute defect of the Gaussian summation identity

        sum_n e^(-2 pi i (n+a) b) e^(-pi u (n+a)^2)
          = u^(-1/2) sum_n e^(2 pi i n a) e^(-pi (n+b)^2 / u)

    for u > 0 and real a, b.  This is the theta transformation identity at
    tau = iu, z = a, w = b, so the residual is theta_identity_residual there.
    """
    for name, value in (("u", u), ("a", a), ("b", b)):
        if isinstance(value, complex):
            raise ValueError(f"{name} must be real, got {value}")
    if not (u > 0 and math.isfinite(u)):
        raise ValueError(f"u must be finite and positive, got {u}")
    _check_finite("a", a)
    _check_finite("b", b)
    return theta_identity_residual(complex(0.0, u), a, b, tol)
