"""Verification campaigns: batch identity checks with machine-readable reports.

Each campaign replays one family of identities (exact series equalities,
exact rational identities, or floating-point residuals) over either a fixed
sweep or seeded random trials, and returns a VerificationReport.  Reports are
deterministic for a given seed and configuration; the JSON form deliberately
omits wall time so identical runs serialize to identical bytes.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from math import gcd, inf, isnan
from operator import eq
from typing import Callable

from .dedekind import (
    dedekind_sum_fast,
    dedekind_sum_naive,
    floor_square_sum_check,
    floor_sum_check,
    omega,
)
from .evaluate import (
    _check_tol,
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


@dataclass(frozen=True)
class CliConfig:
    """Campaign knobs; None means the campaign's own default."""

    tolerance: float | None = None
    order: int | None = None
    trials: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.tolerance is not None:
            _check_tol(self.tolerance)
        if self.order is not None and self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")


@dataclass
class CheckResult:
    """One named check over `count` inputs.  An exact check fails (residual
    1.0, worst input = first failing one) on any inequality, whatever the
    tolerance; a numeric check fails on any residual not <= the tolerance."""

    name: str
    exact: bool
    count: int = 0
    max_residual: float = 0.0
    worst_input: str = ""
    failures: list[tuple[str, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _severity(residual: float) -> float:
    """Ordering key for residuals: NaN ranks as the worst value."""
    return inf if isnan(residual) else residual


@dataclass
class VerificationReport:
    """Outcome of one campaign: its named checks, in the order they ran, and
    their summary (an exact check counts as one trial).  `failures` holds
    (input description, residual) pairs, worst first; empty when all pass."""

    campaign: str
    trials: int
    tolerance: float
    max_residual: float
    seed: int
    wall_time: float
    failures: list[tuple[str, float]] = field(default_factory=list)
    checks: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

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


class _Recorder:
    """Accumulates named check results and turns them into a report."""

    def __init__(self, campaign: str, tolerance: float, seed: int):
        self.campaign = campaign
        self.tolerance = tolerance
        self.seed = seed
        self.checks: dict[str, CheckResult] = {}
        self._start = time.perf_counter()

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

    def report(self) -> VerificationReport:
        checks = self.checks.values()
        failures = [item for check in checks for item in check.failures]
        failures.sort(key=lambda item: (-_severity(item[1]), item[0]))
        return VerificationReport(
            campaign=self.campaign,
            trials=sum(1 if check.exact else check.count for check in checks),
            tolerance=self.tolerance,
            max_residual=max([0.0, *(check.max_residual for check in checks)], key=_severity),
            seed=self.seed,
            wall_time=time.perf_counter() - self._start,
            failures=failures[:MAX_RECORDED_FAILURES],
            checks=self.checks,
        )


def random_unimodular_matrix(
    rng: random.Random,
    max_t_factors: int = 30,
    exp_bound: int = 9,
    max_entry: int = 10**6,
    min_c: int = 1,
) -> ModularMatrix:
    """A random modular-group element built as a word of T-powers and S.

    Draws 1..max_t_factors T-exponents from [-exp_bound, exp_bound] and
    interleaves S, which is unimodular by construction; candidates whose
    entries exceed max_entry or whose lower-left entry is below min_c (in the
    canonical sign form) are redrawn.  The word is multiplied out in plain
    integers, each factor T^m S taking (a, b; c, d) to (am + b, -a; cm + d, -c),
    and only the accepted candidate becomes a ModularMatrix.  Each candidate
    draws its factor count and then its exponents, in that order.
    """
    for _ in range(10_000):
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randint(1, max_t_factors)):
            m = rng.randint(-exp_bound, exp_bound)
            a, b, c, d = a * m + b, -a, c * m + d, -c
        if max(abs(a), abs(b), abs(c), abs(d)) > max_entry:
            continue
        if abs(c) < min_c:
            continue
        return ModularMatrix(a, b, c, d)
    raise RuntimeError("failed to draw a random matrix within the entry bound")


def _coprime_pairs(limit: int):
    for k in range(1, limit + 1):
        for h in range(1, k):
            if gcd(h, k) == 1:
                yield h, k


def run_pentagonal(config: CliConfig) -> VerificationReport:
    """Euler-product identities: pentagonal series and the character theta form."""
    order = config.order or 10_000
    char_order = config.order or 2400
    rec = _Recorder("pentagonal", 0.0, config.seed)
    euler = euler_product_series(order)
    rec.record_exact(f"euler == pentagonal at order {order}", euler == pentagonal_series(order))
    rec.record_exact(
        f"euler coefficients in {{-1,0,1}} at order {order}",
        all(c in (-1, 0, 1) for c in euler.coeffs.values()),
    )
    char = eta_char_qseries(char_order)
    expanded = {
        24 * e + 1: c
        for e, c in euler_product_series(max((char_order - 1) // 24, 0)).coeffs.items()
        if 24 * e + 1 <= char_order
    }
    rec.record_exact(
        f"char series == u * euler(u^24) at order {char_order}", char.coeffs == expanded
    )
    return rec.report()


def run_jtp(config: CliConfig) -> VerificationReport:
    """Triple product vs theta sum, the z -> wz shift relation, and z-symmetry,
    all read from one expansion of the product."""
    order = config.order or 200
    rec = _Recorder("jtp", 0.0, config.seed)
    product, shift_residual = _jtp_expansion(order)
    rec.record_exact(f"product == sum at w-order {order}", product == jtp_sum_side(order))
    rec.record_exact(f"shift residual zero at w-order {order}", shift_residual.is_zero())
    rec.record_exact(
        f"z-inversion symmetry at w-order {order}",
        all(product.coeff(m, -j) == c for (m, j), c in product.coeffs.items()),
    )
    return rec.report()


def run_reciprocity(config: CliConfig) -> VerificationReport:
    """Exact Dedekind-sum identities over coprime sweeps.

    The reciprocity law and the s(1, h) closed form run to `order` (default
    500); the fast-vs-defining-sum cross-check and the denominator check
    share one pass of the defining sum to min(order, 300), and the
    remaining identities (periodicity, oddness, floor sums) run to
    min(order, 200), matching their costs.
    """
    limit = config.order or 500
    rec = _Recorder("reciprocity", 0.0, config.seed)
    rec.record_sweep(
        f"s(1, h) closed form for h <= {limit}",
        lambda h: 12 * h * dedekind_sum_fast(1, h) == h * h - 3 * h + 2,
        ((h,) for h in range(1, limit + 1)),
    )
    fast, sweep_limit, naive_limit = dedekind_sum_fast, min(limit, 200), min(limit, 300)
    rec.record_sweep(
        f"reciprocity on coprime pairs <= {limit}",
        lambda h, k: 12 * h * k * (fast(h, k) + fast(k, h)) == h * h + k * k - 3 * h * k + 1,
        _coprime_pairs(limit),
    )
    agrees, divides = _defining_sum_sweeps(naive_limit)
    rec.record_exact(f"fast == defining sum on coprime pairs <= {naive_limit}", *agrees)
    for label, holds in (
        ("periodicity", lambda h, k: fast(h + k, k) == fast(h, k)),
        ("oddness", lambda h, k: fast(-h, k) == -fast(h, k)),
        ("floor-sum identity", lambda h, k: eq(*floor_sum_check(h, k))),
        ("floor-square-sum identity", lambda h, k: eq(*floor_square_sum_check(h, k))),
    ):
        rec.record_sweep(
            f"{label} on coprime pairs <= {sweep_limit}", holds, _coprime_pairs(sweep_limit)
        )
    rec.record_exact(
        f"denominator of s(h, k) divides 6k for k <= {naive_limit} (all h)", *divides
    )
    return rec.report()


def _defining_sum_sweeps(limit: int) -> tuple[tuple[bool, int, str], tuple[bool, int, str]]:
    """One pass of the defining sum over k <= limit and 0 <= h < k, for two checks.

    Returns (equal, count, first_failure) for "fast == defining sum" on the
    coprime pairs with h >= 1, then for "denominator divides 6k" on every
    pair, each in `record_exact`'s argument order.
    """
    fast, naive = dedekind_sum_fast, dedekind_sum_naive
    coprime = pairs = 0
    wrong_sum = wrong_denominator = ""
    for k in range(1, limit + 1):
        for h in range(k):
            pairs += 1
            s = naive(h, k)
            if (6 * k) % s.denominator and not wrong_denominator:
                wrong_denominator = str((h, k))
            if h and gcd(h, k) == 1:
                coprime += 1
                if fast(h, k) != s and not wrong_sum:
                    wrong_sum = str((h, k))
    return (not wrong_sum, coprime, wrong_sum), (not wrong_denominator, pairs, wrong_denominator)


def _omega_is_integral(mat: ModularMatrix) -> bool:
    try:
        omega(*mat.entries())
    except AssertionError:
        return False
    return True


def _omega_descends(mat: ModularMatrix) -> bool:
    """omega(M) = omega(M') + q - 3 for the descent step M = M' S T^q (c >= 2)."""
    q, reduced = descent_step(*mat.entries())
    return omega(*mat.entries()) == omega(*reduced) + q - 3


def run_omega(config: CliConfig) -> VerificationReport:
    """Integrality of the multiplier exponent, plus its descent recursion."""
    trials = config.trials or 10_000
    rec = _Recorder("omega", 0.0, config.seed)
    rng = random.Random(config.seed)
    rec.record_sweep(
        f"omega integral on {trials} random matrices",
        _omega_is_integral,
        ((random_unimodular_matrix(rng),) for _ in range(trials)),
    )
    recursion_trials = min(trials, 1000)
    rec.record_sweep(
        f"omega descent recursion on {recursion_trials} matrices with c >= 2",
        _omega_descends,
        ((random_unimodular_matrix(rng, min_c=2),) for _ in range(recursion_trials)),
    )
    return rec.report()


def run_functional_eq(config: CliConfig) -> VerificationReport:
    """Transformation-law residuals for random matrices and random points."""
    trials = config.trials or 1000
    tol = config.tolerance or 1e-10
    rec = _Recorder("functional-eq", tol, config.seed)
    rng = random.Random(config.seed)
    rec.record("special: S at tau = i", functional_eq_residual(S, complex(0.0, 1.0)))
    eta_half_i = eta_pentagonal_eval(complex(0.0, 0.5)).value
    eta_2i = eta_pentagonal_eval(complex(0.0, 2.0)).value
    rec.record(
        "special: eta(i/2) = sqrt(2) eta(2i)",
        abs(eta_half_i - 2.0**0.5 * eta_2i) / abs(eta_half_i),
    )
    for _ in range(trials):
        mat = random_unimodular_matrix(rng)
        tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))
        rec.record(f"M = {mat}, tau = {tau}", functional_eq_residual(mat, tau), "random")
    return rec.report()


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
    tol = config.tolerance or 1e-12
    rec = _Recorder("theta", tol, config.seed)
    rng = random.Random(config.seed)
    for tau, z, w in THETA_FIXED_CASES:
        rec.record(
            f"fixed tau = {tau}, z = {z}, w = {w}",
            theta_identity_residual(tau, z, w, tol),
            "fixed probes",
        )
    for _ in range(trials):
        tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0))
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))
        w = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3))
        rec.record(
            f"tau = {tau}, z = {z}, w = {w}", theta_identity_residual(tau, z, w, tol), "random"
        )
    return rec.report()


def run_poisson(config: CliConfig) -> VerificationReport:
    """Gaussian summation-identity residuals on fixed probes and random (u, a, b)."""
    trials = config.trials or 100
    tol = config.tolerance or 1e-12
    rec = _Recorder("poisson", tol, config.seed)
    rng = random.Random(config.seed)
    for u, a, b in POISSON_FIXED_CASES:
        rec.record(
            f"fixed u = {u}, a = {a}, b = {b}",
            gaussian_poisson_residual(u, a, b, tol),
            "fixed probes",
        )
    for _ in range(trials):
        u = 4.0 ** rng.uniform(-1.0, 1.0)
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        rec.record(
            f"u = {u}, a = {a}, b = {b}", gaussian_poisson_residual(u, a, b, tol), "random"
        )
    return rec.report()


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
    """Run one named campaign, or every campaign for name == 'all'."""
    if name == "all":
        return [runner(config) for runner in CAMPAIGNS.values()]
    if name not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {name!r}; choose from {', '.join(CAMPAIGNS)} or all")
    return [CAMPAIGNS[name](config)]
