"""Verification campaigns: batch identity checks with machine-readable reports.

Each campaign replays one family of identities (exact series equalities,
exact rational identities, or floating-point residuals) over either a fixed
sweep or seeded random trials, and returns a VerificationReport.  Reports are
deterministic for a given seed and configuration; the JSON form deliberately
omits wall time so identical runs serialize to identical bytes.

A `CliConfig` is an immutable named tuple (order, trials, seed).  A
`VerificationReport` and its `CheckResult`s are filled in place as a campaign
records its checks.
"""

from __future__ import annotations

import json
import random
import time
from collections import namedtuple
from collections.abc import Callable
from math import gcd, inf, isnan
from operator import eq

from .dedekind import (
    dedekind_sum_fast,
    dedekind_sum_naive,
    floor_square_sum_check,
    floor_sum_check,
    omega,
)
from .evaluate import (
    eta_pentagonal_eval,
    functional_eq_residual,
    gaussian_poisson_residual,
    theta_identity_residual,
)
from .modgroup import ModularMatrix, S, descent_step
from .qseries import (
    _jtp_expansion,
    euler_product_series,
    eta_char_qseries,
    # the benchmark tracer (benchmarks/tracer.py) patches every producer at
    # this module, so these two stay importable here although run_jtp reads
    # both from _jtp_expansion
    jtp_product_side,
    jtp_shift_residual,
    jtp_sum_side,
    pentagonal_series,
)

__all__ = [
    "CliConfig",
    "CheckResult",
    "VerificationReport",
    "random_unimodular_matrix",
    "CAMPAIGNS",
    "run_campaign",
    "reports_json",
]

JSON_SCHEMA_VERSION = 1

# How many failing inputs a report keeps (the count and max residual always
# cover the full campaign).
MAX_RECORDED_FAILURES = 20


class CliConfig(namedtuple("CliConfig", "order trials seed")):
    """Campaign knobs; None means the campaign's own default.  order and
    trials are None or a positive int, seed an int; a bool or a float
    raises ValueError."""

    __slots__ = ()

    def __new__(cls, order: int | None = None, trials: int | None = None, seed: int = 0):
        for name, value in (("order", order), ("trials", trials)):
            if value is not None and (type(value) is not int or value < 1):
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, got {seed!r}")
        return tuple.__new__(cls, (order, trials, seed))

    @classmethod
    def _make(cls, iterable) -> "CliConfig":
        # the namedtuple default skips __new__; _replace goes through here too
        return cls(*iterable)


class CheckResult:
    """One named check over `count` inputs.  An exact check fails (residual
    1.0, worst input = first failing one) on any inequality, whatever the
    tolerance; a numeric check fails on any residual not <= the tolerance."""

    def __init__(self, name: str, exact: bool, count: int = 0):
        self.name = name
        self.exact = exact
        self.count = count
        self.max_residual = 0.0
        self.worst_input = ""
        self.failures: list[tuple[str, float]] = []

    @property
    def passed(self) -> bool:
        return not self.failures


def _severity(residual: float) -> float:
    """Ordering key for residuals: NaN ranks as the worst value."""
    return inf if isnan(residual) else residual


class VerificationReport:
    """Outcome of one campaign: its named checks, in the order they ran, and
    their summary (an exact check counts as one trial).  `failures` holds
    (input description, residual) pairs, worst first; empty when all pass.
    `run_campaign` sets `wall_time`."""

    def __init__(self, campaign: str, tolerance: float, seed: int):
        self.campaign = campaign
        self.tolerance = tolerance
        self.seed = seed
        self.checks: dict[str, CheckResult] = {}
        self.wall_time = 0.0

    @property
    def trials(self) -> int:
        return sum(1 if check.exact else check.count for check in self.checks.values())

    @property
    def max_residual(self) -> float:
        return max([0.0, *(check.max_residual for check in self.checks.values())], key=_severity)

    @property
    def failures(self) -> list[tuple[str, float]]:
        failures = [item for check in self.checks.values() for item in check.failures]
        failures.sort(key=lambda item: (-_severity(item[1]), item[0]))
        return failures[:MAX_RECORDED_FAILURES]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks.values())

    def record(self, description: str, residual: float, check: str | None = None) -> None:
        """One input of the numeric check `check` (by default a check of its own)."""
        name = check or description
        result = self.checks.get(name)
        if result is None:
            result = self.checks[name] = CheckResult(name, exact=False)
        result.count += 1
        if result.count == 1 or _severity(residual) > _severity(result.max_residual):
            result.max_residual, result.worst_input = residual, description
        if not residual <= self.tolerance:
            result.failures.append((description, residual))

    def record_exact(
        self, description: str, equal: bool, count: int = 1, first_failure: str = ""
    ) -> None:
        """Exact check `description` over `count` inputs: it fails whenever not equal."""
        result = self.checks[description] = CheckResult(description, exact=True, count=count)
        if not equal:
            result.max_residual, result.worst_input = 1.0, first_failure
            suffix = f" (first failure {first_failure})" if first_failure else ""
            result.failures.append((description + suffix, 1.0))

    def record_sweep(self, description: str, holds: Callable[..., bool], inputs) -> None:
        """Exact check that holds(*item) is true for every input item."""
        count, first_failure = 0, ""
        for item in inputs:
            count += 1
            if not holds(*item) and not first_failure:
                first_failure = str(item) if len(item) > 1 else str(item[0])
        self.record_exact(description, not first_failure, count, first_failure)

    def to_json_dict(self) -> dict:
        # wall_time stays out: reports must be byte-identical for a fixed
        # seed and configuration.
        return {
            "schema": JSON_SCHEMA_VERSION,
            "campaign": self.campaign,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "seed": self.seed,
            "passed": self.passed,
            "failures": [{"input": desc, "residual": res} for desc, res in self.failures],
        }

    def to_json(self) -> str:
        return reports_json([self])

    def human_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status}  {self.campaign}: trials={self.trials} "
            f"max_residual={self.max_residual:.3e} tolerance={self.tolerance:.1e} "
            f"seed={self.seed} wall={self.wall_time:.2f}s"
        ]
        for desc, res in self.failures:
            lines.append(f"      failed: {desc} (residual {res:.3e})")
        return lines


def reports_json(reports: list[VerificationReport]) -> str:
    """The schema-1 JSON text: one campaign's report, or the suite of several."""
    if len(reports) == 1:
        payload = reports[0].to_json_dict()
    else:
        payload = {
            "schema": JSON_SCHEMA_VERSION,
            "suite": "all",
            "passed": all(r.passed for r in reports),
            "reports": [
                {key: val for key, val in r.to_json_dict().items() if key != "schema"}
                for r in reports
            ],
        }
    return json.dumps(payload, indent=2, sort_keys=True)


# The shape of the words random_unimodular_matrix draws.
MAX_T_FACTORS = 30
EXP_BOUND = 9
MAX_ENTRY = 10**6


def random_unimodular_matrix(rng: random.Random, min_c: int = 1) -> ModularMatrix:
    """A random modular-group element built as a word of T-powers and S.

    Draws 1..MAX_T_FACTORS T-exponents from [-EXP_BOUND, EXP_BOUND] and
    interleaves S, which is unimodular by construction; candidates whose
    entries exceed MAX_ENTRY or whose lower-left entry is below min_c (in the
    canonical sign form) are redrawn.  The word is multiplied out in plain
    integers, each factor T^m S taking (a, b; c, d) to (am + b, -a; cm + d, -c),
    and only the accepted candidate becomes a ModularMatrix.  Each candidate
    draws its factor count and then its exponents, in that order.

    The factor count comes from `rng.randint`, once per candidate.  The
    exponents are written out on `rng.getrandbits` as the rejection sampling
    `randint` does: draw (2 EXP_BOUND + 1).bit_length() bits and redraw while
    the value is not below 2 EXP_BOUND + 1.  The stream is therefore that of
    `randint(-EXP_BOUND, EXP_BOUND)`, draw for draw.
    """
    width = 2 * EXP_BOUND + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(10_000):
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randint(1, MAX_T_FACTORS)):
            m = getrandbits(bits)
            while m >= width:
                m = getrandbits(bits)
            m -= EXP_BOUND
            a, b, c, d = a * m + b, -a, c * m + d, -c
        if max(abs(a), abs(b), abs(c), abs(d)) > MAX_ENTRY:
            continue
        if abs(c) < min_c:
            continue
        return ModularMatrix(a, b, c, d)
    raise RuntimeError("failed to draw a random matrix within the entry bound")


def run_pentagonal(config: CliConfig) -> VerificationReport:
    """Euler-product identities: pentagonal series and the character theta form."""
    order = config.order or 10_000
    char_order = config.order or 2400
    report = VerificationReport("pentagonal", 0.0, config.seed)
    euler = euler_product_series(order)
    report.record_exact(f"euler == pentagonal at order {order}", euler == pentagonal_series(order))
    report.record_exact(
        f"euler coefficients in {{-1,0,1}} at order {order}",
        all(c in (-1, 0, 1) for c in euler.coeffs.values()),
    )
    char = eta_char_qseries(char_order)
    expanded = {
        24 * e + 1: c
        for e, c in euler_product_series(max((char_order - 1) // 24, 0)).coeffs.items()
        if 24 * e + 1 <= char_order
    }
    report.record_exact(
        f"char series == u * euler(u^24) at order {char_order}", char.coeffs == expanded
    )
    return report


def run_jtp(config: CliConfig) -> VerificationReport:
    """Triple product vs theta sum, the z -> wz shift relation, and z-symmetry,
    all read from one expansion of the product."""
    order = config.order or 200
    report = VerificationReport("jtp", 0.0, config.seed)
    product, shift_residual = _jtp_expansion(order)
    report.record_exact(f"product == sum at w-order {order}", product == jtp_sum_side(order))
    report.record_exact(f"shift residual zero at w-order {order}", shift_residual.is_zero())
    report.record_exact(
        f"z-inversion symmetry at w-order {order}",
        all(product.coeff(m, -j) == c for (m, j), c in product.coeffs.items()),
    )
    return report


def run_reciprocity(config: CliConfig) -> VerificationReport:
    """Exact Dedekind-sum identities, decided in one pass over k <= order.

    The pass visits every 0 <= h < k for k <= `order` (default 500) and has
    three limits, matching the checks' costs: the reciprocity law and the
    s(1, h) closed form run to `order`; the O(k) defining sum is evaluated
    once per pair to min(order, 300), for the denominator check on every
    pair and the fast-vs-defining-sum check on the coprime ones; periodicity,
    oddness and the two O(k) floor sums run to min(order, 200).

    The fast algorithm gives s(h, k) = p/q and s(k, h) = r/t once per coprime
    pair with h >= 1, and every check reads those two values with integer
    comparisons only: reciprocity as 12hk(pt + rq) == (h^2 + k^2 - 3hk + 1)qt,
    the closed form as 12kp == (k^2 - 3k + 2)q at h = 1, oddness part by part,
    and the defining sum and periodicity against s(h, k) itself.  Counts,
    first failures and the order of the checks are those of one sweep per
    check in (k, h) order.
    """
    limit = config.order or 500
    naive_limit, sweep_limit = min(limit, 300), min(limit, 200)
    report = VerificationReport("reciprocity", 0.0, config.seed)
    fast, naive = dedekind_sum_fast, dedekind_sum_naive
    floor_sum, floor_square_sum = floor_sum_check, floor_square_sum_check
    first: dict[str, str] = {}  # check label -> its first failing input
    if fast(1, 1).numerator:  # the closed form at h = 1, which has no coprime pair
        first["closed form"] = "1"
    coprime = [0]  # coprime[k]: pairs 1 <= h < j <= k with gcd(h, j) = 1
    for k in range(1, limit + 1):
        with_naive, with_sweeps = k <= naive_limit, k <= sweep_limit
        count = 0
        for h in range(k):
            if with_naive:
                s = naive(h, k)
                if (6 * k) % s.denominator:
                    first.setdefault("denominator", str((h, k)))
            if not h or gcd(h, k) != 1:
                continue
            count += 1
            s_hk, s_kh = fast(h, k), fast(k, h)
            p, q, r, t = s_hk.numerator, s_hk.denominator, s_kh.numerator, s_kh.denominator
            if 12 * h * k * (p * t + r * q) != (h * h + k * k - 3 * h * k + 1) * q * t:
                first.setdefault("reciprocity", str((h, k)))
            if h == 1 and 12 * k * p != (k * k - 3 * k + 2) * q:
                first.setdefault("closed form", str(k))
            if with_naive and s_hk != s:
                first.setdefault("defining sum", str((h, k)))
            if with_sweeps:
                if fast(h + k, k) != s_hk:
                    first.setdefault("periodicity", str((h, k)))
                odd = fast(-h, k)
                if odd.numerator != -p or odd.denominator != q:
                    first.setdefault("oddness", str((h, k)))
                if not eq(*floor_sum(h, k)):
                    first.setdefault("floor-sum identity", str((h, k)))
                if not eq(*floor_square_sum(h, k)):
                    first.setdefault("floor-square-sum identity", str((h, k)))
        coprime.append(coprime[-1] + count)

    sweeps = ("periodicity", "oddness", "floor-sum identity", "floor-square-sum identity")
    for label, description, count in (
        ("closed form", f"s(1, h) closed form for h <= {limit}", limit),
        ("reciprocity", f"reciprocity on coprime pairs <= {limit}", coprime[limit]),
        (
            "defining sum",
            f"fast == defining sum on coprime pairs <= {naive_limit}",
            coprime[naive_limit],
        ),
        *((label, f"{label} on coprime pairs <= {sweep_limit}", coprime[sweep_limit])
          for label in sweeps),
        (
            "denominator",
            f"denominator of s(h, k) divides 6k for k <= {naive_limit} (all h)",
            naive_limit * (naive_limit + 1) // 2,
        ),
    ):
        report.record_exact(description, label not in first, count, first.get(label, ""))
    return report


def _omega_is_integral(mat: ModularMatrix) -> bool:
    try:
        omega(*mat)
    except AssertionError:
        return False
    return True


def _omega_descends(mat: ModularMatrix) -> bool:
    """omega(M) = omega(M') + q - 3 d'/c for the descent step M = M' S T^q
    (c >= 2), where the lower-right entry d' of M' is +-c."""
    q, reduced = descent_step(*mat)
    return omega(*mat) == omega(*reduced) + q - 3 * reduced.d // mat.c


def run_omega(config: CliConfig) -> VerificationReport:
    """Integrality of the multiplier exponent, plus its descent recursion."""
    trials = config.trials or 10_000
    report = VerificationReport("omega", 0.0, config.seed)
    rng = random.Random(config.seed)
    report.record_sweep(
        f"omega integral on {trials} random matrices",
        _omega_is_integral,
        ((random_unimodular_matrix(rng),) for _ in range(trials)),
    )
    recursion_trials = min(trials, 1000)
    report.record_sweep(
        f"omega descent recursion on {recursion_trials} matrices with c >= 2",
        _omega_descends,
        ((random_unimodular_matrix(rng, min_c=2),) for _ in range(recursion_trials)),
    )
    return report


# Fixed transformation-law probes far out along the real axis, where the
# factor |sqrt(-i(c tau + d))| ~ |tau|^(1/2) makes both sides much larger than eta(tau).
LARGE_RE_CASES = tuple(
    (mat, complex(re, 0.5)) for mat in (S, ModularMatrix(2, 1, 1, 1)) for re in (1e4, 1e8, 1e12)
)


def run_functional_eq(config: CliConfig) -> VerificationReport:
    """Transformation-law residuals on fixed probes (two special values and
    the large-Re points) and for random matrices and random points."""
    trials = config.trials or 1000
    report = VerificationReport("functional-eq", 1e-10, config.seed)
    rng = random.Random(config.seed)
    report.record("special: S at tau = i", functional_eq_residual(S, complex(0.0, 1.0)))
    eta_half_i = eta_pentagonal_eval(complex(0.0, 0.5)).value
    eta_2i = eta_pentagonal_eval(complex(0.0, 2.0)).value
    report.record(
        "special: eta(i/2) = sqrt(2) eta(2i)",
        abs(eta_half_i - 2.0**0.5 * eta_2i) / abs(eta_half_i),
    )
    for mat, tau in LARGE_RE_CASES:
        report.record(f"M = {mat}, tau = {tau}", functional_eq_residual(mat, tau), "large Re")
    for _ in range(trials):
        mat = random_unimodular_matrix(rng)
        tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))
        report.record(f"M = {mat}, tau = {tau}", functional_eq_residual(mat, tau), "random")
    return report


# Fixed theta-identity probes: self-dual point, a real rescaling, and the
# specialization (z, w) = (1/2, 1/6) that drives the eta inversion law.
THETA_FIXED_CASES = (
    (complex(0.0, 1.0), complex(0.0), complex(0.0)),
    (complex(0.0, 2.0), complex(0.0), complex(0.0)),
    (complex(0.0, 1.0), complex(0.5), complex(1.0 / 6.0)),
)

POISSON_FIXED_CASES = ((1.0, 0.0, 0.0), (4.0, 0.0, 0.0), (1.0, 1.0 / 3.0, 1.0 / 5.0))


def run_theta(config: CliConfig) -> VerificationReport:
    """Theta transformation residuals on fixed probes and random parameters.

    Random tau has im in [0.3, 3]; z and w have real parts in [-1, 1] and
    imaginary parts in [-0.3, 0.3], the envelope where double precision keeps
    the two sides comparable at 1e-12.
    """
    trials = config.trials or 100
    tol = 1e-12  # the gate, and the truncation tolerance of each sum
    report = VerificationReport("theta", tol, config.seed)
    rng = random.Random(config.seed)
    for tau, z, w in THETA_FIXED_CASES:
        report.record(
            f"fixed tau = {tau}, z = {z}, w = {w}",
            theta_identity_residual(tau, z, w, tol),
            "fixed probes",
        )
    for _ in range(trials):
        tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0))
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))
        w = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))
        report.record(
            f"tau = {tau}, z = {z}, w = {w}", theta_identity_residual(tau, z, w, tol), "random"
        )
    return report


def run_poisson(config: CliConfig) -> VerificationReport:
    """Gaussian summation-identity residuals on fixed probes and random (u, a, b)."""
    trials = config.trials or 100
    tol = 1e-12  # the gate, and the truncation tolerance of each sum
    report = VerificationReport("poisson", tol, config.seed)
    rng = random.Random(config.seed)
    for u, a, b in POISSON_FIXED_CASES:
        report.record(
            f"fixed u = {u}, a = {a}, b = {b}",
            gaussian_poisson_residual(u, a, b, tol),
            "fixed probes",
        )
    for _ in range(trials):
        u = 4.0 ** rng.uniform(-1.0, 1.0)
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        report.record(
            f"u = {u}, a = {a}, b = {b}", gaussian_poisson_residual(u, a, b, tol), "random"
        )
    return report


CAMPAIGNS: dict[str, Callable[[CliConfig], VerificationReport]] = {
    "jtp": run_jtp,
    "pentagonal": run_pentagonal,
    "reciprocity": run_reciprocity,
    "functional-eq": run_functional_eq,
    "theta": run_theta,
    "poisson": run_poisson,
    "omega": run_omega,
}


def run_campaign(name: str, config: CliConfig) -> list[VerificationReport]:
    """Run one named campaign, or every campaign for name == 'all', and time each."""
    if name != "all" and name not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {name!r}; choose from {', '.join(CAMPAIGNS)} or all")
    reports = []
    for runner in CAMPAIGNS.values() if name == "all" else [CAMPAIGNS[name]]:
        start = time.perf_counter()
        report = runner(config)
        report.wall_time = time.perf_counter() - start
        reports.append(report)
    return reports
