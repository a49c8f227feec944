"""Verification campaigns: batch identity checks with machine-readable reports.

Each campaign replays one family of identities (exact series equalities,
exact rational identities, or floating-point residuals) over either a fixed
sweep or seeded random trials.  A runner `run_x(report, config)` only records
named checks, one input at a time: `report.record` feeds a numeric check, and
`report.exact_check(name).add`, the one way to record an exact check, feeds
an exact one: it counts its inputs and keeps the first that fails.  The theta
and Poisson runners share one residual sweep.  Each check keeps at most
MAX_RECORDED_FAILURES failing inputs, its worst, which hold the worst of the
whole report.  `run_campaign` alone builds a report, with the campaign's gate
from TOLERANCES, times the runner, and records an exception it raises as one
failed exact check after the checks already declared or recorded.  Reports
are deterministic for a given seed and configuration; the JSON form, with one
"schema" key from `reports_json`, omits wall time so identical runs serialize
to identical bytes.

The reciprocity campaign, most of `verify all`, runs its pass on up to
MAX_SHARES of the CPUs this process may run on: from order FORK_MIN_ORDER
on, where `os.fork` exists, there is more than one CPU and forking is safe,
its rows k are dealt into one share per CPU up to that cap, each share runs
in a forked child and sends back, for each row, each check's input count and
first failing input, and the parent merges the rows in ascending k.  Its
report is therefore the same, byte for byte, as that of the one in-process
sweep, which it falls back to when a share fails.

A `CliConfig` is an immutable named tuple (order, trials, seed).  A
`VerificationReport` and its `CheckResult`s are filled in place as a campaign
records its checks.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import partial
from math import gcd, inf, isnan
from operator import eq

from . import dedekind
from ._valuetype import ValueTuple, check_int
from .dedekind import (
    # the benchmark tracer (benchmarks/tracer.py) patches this name at this
    # module, so it stays importable here although run_reciprocity reads
    # every Dedekind sum from dedekind._scaled_dedekind_sum
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
from .modgroup import ModularMatrix, S, _descent_step
from .qseries import (
    MAX_ORDER,
    MAX_W_ORDER,
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

# The gate of each numeric campaign; an exact campaign's is 0.0.
TOLERANCES = {"functional-eq": 1e-10, "theta": 1e-12, "poisson": 1e-12}


class CliConfig(ValueTuple, namedtuple("CliConfig", "order trials seed")):
    """Campaign knobs; None means the campaign's own default.  order and
    trials are None or a positive int, seed an int; a bool, a float or a
    Fraction raises ValueError."""

    __slots__ = ()

    def __new__(cls, order: int | None = None, trials: int | None = None, seed: int = 0):
        for name, value in (("order", order), ("trials", trials)):
            if value is not None:
                check_int(name, value)
                if value < 1:
                    raise ValueError(f"{name} must be a positive int, got {value!r}")
        check_int("seed", seed)
        return tuple.__new__(cls, (order, trials, seed))


class CheckResult:
    """One named check over `count` inputs.  An exact check, declared with
    `VerificationReport.exact_check` and fed by `add`, fails (residual 1.0,
    worst input = first failing one) on any input that does not hold,
    whatever the tolerance; a numeric check fails on any residual not <= the
    tolerance.  `failures` keeps at most MAX_RECORDED_FAILURES of its worst."""

    def __init__(self, name: str, exact: bool):
        self.name = name
        self.exact = exact
        self.count = 0
        self.max_residual = 0.0
        self.worst_input = ""
        self.failures: list[tuple[str, float]] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def add(self, holds: bool, item: object = "") -> None:
        """One input `item` of this exact check; only the first that fails is kept."""
        self.count += 1
        if not holds and not self.failures:
            self._fail(str(item))

    def merge(self, count: int, first_failure: str | None) -> None:
        """`count` more inputs of this exact check, decided after those it
        holds, the first that failed given by its text, or None if none did."""
        self.count += count
        if first_failure is not None and not self.failures:
            self._fail(first_failure)

    def _fail(self, text: str) -> None:
        self.max_residual = 1.0
        self.worst_input = text
        suffix = f" (first failure {text})" if text else ""
        self.failures.append((self.name + suffix, 1.0))


def _severity(residual: float) -> float:
    """Ordering key for residuals: NaN ranks as the worst value."""
    return inf if isnan(residual) else residual


def _failure_key(failure: tuple[str, float]) -> tuple[float, str]:
    """Worst first: by residual (NaN first), then by input description."""
    return -_severity(failure[1]), failure[0]


class VerificationReport:
    """Outcome of one campaign: its named checks, in the order they were
    declared or first recorded, and their summary (an exact check counts as
    one trial, whatever its input count).  `failures` holds (input
    description, residual) pairs, worst first; empty when all pass.
    `run_campaign` builds each report and sets its `wall_time`."""

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
        failures.sort(key=_failure_key)
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
            failures = result.failures
            failures.append((description, residual))
            # the worst MAX_RECORDED_FAILURES of each check hold the report's worst
            if len(failures) > MAX_RECORDED_FAILURES:
                failures.sort(key=_failure_key)
                del failures[MAX_RECORDED_FAILURES:]

    def exact_check(self, description: str) -> CheckResult:
        """Declare the exact check `description`, with no inputs yet; feed it by `add`."""
        result = self.checks[description] = CheckResult(description, exact=True)
        return result

    def to_json_dict(self) -> dict:
        """The report's JSON fields but "schema", which `reports_json` adds."""
        # wall_time stays out: reports must be byte-identical for a fixed
        # seed and configuration.
        return {
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
    """The JSON text, with one "schema" key: one campaign's report, or the suite."""
    if len(reports) == 1:
        payload = reports[0].to_json_dict()
    else:
        payload = {
            "suite": "all",
            "passed": all(r.passed for r in reports),
            "reports": [r.to_json_dict() for r in reports],
        }
    payload["schema"] = JSON_SCHEMA_VERSION
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

    A min_c not of type int, or above MAX_ENTRY, where no candidate can
    pass, raises ValueError before anything is drawn.
    """
    check_int("min_c", min_c)
    if min_c > MAX_ENTRY:
        raise ValueError(f"min_c must be <= MAX_ENTRY = {MAX_ENTRY}, got {min_c}")
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


def run_pentagonal(report: VerificationReport, config: CliConfig) -> None:
    """Euler-product identities: pentagonal series and the character theta form."""
    order = config.order or 10_000
    char_order = config.order or 2400
    euler = euler_product_series(order)
    check = report.exact_check
    check(f"euler == pentagonal at order {order}").add(euler == pentagonal_series(order))
    check(f"euler coefficients in {{-1,0,1}} at order {order}").add(
        all(c in (-1, 0, 1) for c in euler.coeffs.values())
    )
    char = eta_char_qseries(char_order)
    # every e with 24e + 1 <= char_order is at most order, so `euler` holds it
    expanded = {24 * e + 1: c for e, c in euler.coeffs.items() if 24 * e + 1 <= char_order}
    check(f"char series == u * euler(u^24) at order {char_order}").add(char.coeffs == expanded)


def run_jtp(report: VerificationReport, config: CliConfig) -> None:
    """Triple product vs theta sum, the z -> wz shift relation, and z-symmetry,
    all read from one expansion of the product."""
    order = config.order or 200
    product, shift_residual = _jtp_expansion(order)
    check = report.exact_check
    check(f"product == sum at w-order {order}").add(product == jtp_sum_side(order))
    check(f"shift residual zero at w-order {order}").add(not shift_residual.coeffs)
    check(f"z-inversion symmetry at w-order {order}").add(
        all(product.coeff(m, -j) == c for (m, j), c in product.coeffs.items())
    )


# Where the reciprocity pass starts to fork.  On a 2-core x86-64 host
# (Python 3.11) the in-process pass took about 5 ms at order 30, 10 ms at
# 40, 25 ms at 60 and 0.5 s at 200.  Two forked shares cost about 5 ms more
# than half the pass: 2 ms to fork and reap, and the rest as each child
# first writes to the pages it shares with the parent.  With the host's two
# cores often running at unequal speeds, forking won 2 of 25 alternating
# runs at order 50, 7 at 60, 24 at 70 and 25 at 80.
FORK_MIN_ORDER = 70

# The most shares the pass forks: the two that FORK_MIN_ORDER and the gain
# were measured with.  Each more share costs one more fork, reap and set of
# copied pages for a pass that does not grow, and in a container held to a
# CPU quota the affinity mask can name far more CPUs than the quota grants;
# W > 2 has not been measured.
MAX_SHARES = 2


def _reciprocity_workers(limit: int) -> int:
    """W, the number of row shares the reciprocity pass to `limit` splits
    into: the CPUs this process may run on, at most MAX_SHARES.  W is 1
    below FORK_MIN_ORDER, without `os.fork`, while another thread runs (a
    child could wait forever on a lock that thread held), and when SIGCHLD
    is not at its default: a host that ignores it or reaps its children
    itself takes the children's exit status that `_forked` waits for."""
    if limit < FORK_MIN_ORDER or not hasattr(os, "fork"):
        return 1
    threading = sys.modules.get("threading")
    if threading and threading.active_count() > 1:
        return 1
    import signal

    if signal.getsignal(signal.SIGCHLD) != signal.SIG_DFL:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(cpus, MAX_SHARES)


def _share_of(k: int, workers: int) -> int:
    """The share that row k of the reciprocity pass falls in: rows are dealt
    out to the `workers` shares in blocks of `workers`, every other block in
    reverse, so that each share holds as many odd k as even ones.  An odd k
    has more coprime pairs, each with its two O(k) floor sums: at order 500
    the two shares k mod 2 took 688 and 525 ms in-process, these two 600
    and 598 ms."""
    position = (k - 1) % (2 * workers)
    return position if position < workers else 2 * workers - 1 - position


def _reciprocity_share(
    ks: Iterable[int], limits: tuple[int, int], checks_for: Callable[[int], list]
) -> None:
    """Decide every input of the reciprocity rows k in `ks`, in (k, h) order,
    feeding each to its check's `add` from `checks_for(k)`: eight, in the
    order `run_reciprocity` declares them.  `limits` holds the pass's
    defining-sum and sweep limits.  Row k visits every 0 <= h < k; row 1
    also holds the closed form's s(1, 1), which is in no coprime pair."""
    naive_limit, sweep_limit = limits
    scaled, naive = dedekind._scaled_dedekind_sum, dedekind_sum_naive
    floor_sum, floor_square_sum = floor_sum_check, floor_square_sum_check
    for k in ks:
        (
            closed_form, reciprocity, defining_sum, periodicity, oddness,
            floor_identity, floor_square_identity, denominator,
        ) = checks_for(k)
        if k == 1:
            closed_form(scaled(1, 1) == 0, 1)
        with_naive, with_sweeps = k <= naive_limit, k <= sweep_limit
        for h in range(k):
            pair = (h, k)
            if with_naive:
                s = naive(h, k)
                denominator(not (6 * k) % s.denominator, pair)
            if not h or gcd(h, k) != 1:
                continue
            n = scaled(h, k)
            reciprocity(h * n + k * scaled(k, h) == h * h + k * k - 3 * h * k + 1, pair)
            if h == 1:
                closed_form(n == k * k - 3 * k + 2, k)
            if with_naive:
                defining_sum(n * s.denominator == 12 * k * s.numerator, pair)
            if with_sweeps:
                periodicity(scaled(h + k, k) == n, pair)
                oddness(scaled(-h, k) == -n, pair)
                floor_identity(eq(*floor_sum(h, k)), pair)
                floor_square_identity(eq(*floor_square_sum(h, k)), pair)


def _share_rows(ks: Iterable[int], limits: tuple[int, int]) -> list[list[tuple]]:
    """`_reciprocity_share` over `ks`, as one row per k of eight (input
    count, first failing input's text or None) cells, one per check."""
    rows = []

    def checks_for(k):
        row = [CheckResult("", exact=True) for _ in range(8)]
        rows.append(row)
        return [check.add for check in row]

    _reciprocity_share(ks, limits, checks_for)
    return [[(c.count, c.worst_input if c.failures else None) for c in row] for row in rows]


def _forked(tasks: list[Callable[[], object]]) -> list | None:
    """Each task's result, each task run in a child made by `os.fork` and
    marshalled back over a pipe of its own; None when a child fails to
    deliver, as when its task raises, or when a pipe or fork cannot be made.
    A child leaves through `os._exit`, so no buffer it shares with the
    parent (stdout, an open `verify --out` file) is flushed twice, and every
    child is reaped before this returns or raises, by this function or, where
    SIGCHLD is ignored, by the kernel."""
    import marshal
    import signal

    pids, pipes = [], []  # the children not yet reaped, the read ends not yet closed
    try:
        for task in tasks:
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if not pid:
                    code = 1
                    try:
                        for fd in pipes:
                            os.close(fd)
                        with open(write_end, "wb") as pipe:
                            marshal.dump(task(), pipe)
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(write_end)
            pids.append(pid)
        results = []
        while pids:
            with open(pipes.pop(0), "rb") as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            if status:
                return None
            results.append(marshal.loads(payload))
        return results
    except OSError:
        return None
    finally:
        for read_end in pipes:
            os.close(read_end)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped already, as where SIGCHLD is ignored


def run_reciprocity(report: VerificationReport, config: CliConfig) -> None:
    """Exact Dedekind-sum identities, decided in one pass over k <= order.

    The eight checks are declared first, so a check with no inputs (at
    order 1, reciprocity) is still reported, and each is fed one input at a
    time where the pass decides it.  The pass visits every 0 <= h < k for
    k <= `order` (default 500) and has three limits, matching the checks'
    costs: the reciprocity law and the s(1, h) closed form run to `order`;
    the O(k) defining sum is evaluated once per pair to min(order, 300), for
    the denominator check on every pair and the fast-vs-defining-sum check
    on the coprime ones; periodicity, oddness and the two O(k) floor sums
    run to min(order, 200).

    Every fast Dedekind sum is read as the integer N(h, k) = 12k s(h, k)
    from `dedekind._scaled_dedekind_sum`, bound from the module when the run
    starts, and every check but the floor sums is an integer comparison:
    reciprocity as h N(h, k) + k N(k, h) == h^2 + k^2 - 3hk + 1, the closed
    form as N(1, k) == k^2 - 3k + 2 (and N(1, 1) == 0), the defining sum
    s = p/q as N(h, k) q == 12k p, periodicity as N(h + k, k) == N(h, k) and
    oddness as N(-h, k) == -N(h, k).  The only Fractions are the defining
    sums and the floor-square sums.

    The rows k split into W = `_reciprocity_workers(order)` shares,
    interleaved as `_share_of` deals them.  With W = 1 the one share feeds
    the report's checks in-process.  With W >= 2 each share runs in a
    forked child (`_forked`) and sends back, for each of its rows, each
    check's input count and first failing input; the rows are merged in
    ascending k.  If any share fails to deliver, as when a kernel raises,
    the pass is run again in-process, so a raise leaves the counts up to
    the failing pair.  Either way counts and first failures are those of
    one sweep per check in (k, h) order.
    """
    limit = config.order or 500
    naive_limit, sweep_limit = min(limit, 300), min(limit, 200)
    limits = (naive_limit, sweep_limit)
    checks = [
        report.exact_check(name)
        for name in (
            f"s(1, h) closed form for h <= {limit}",
            f"reciprocity on coprime pairs <= {limit}",
            f"fast == defining sum on coprime pairs <= {naive_limit}",
            f"periodicity on coprime pairs <= {sweep_limit}",
            f"oddness on coprime pairs <= {sweep_limit}",
            f"floor-sum identity on coprime pairs <= {sweep_limit}",
            f"floor-square-sum identity on coprime pairs <= {sweep_limit}",
            f"denominator of s(h, k) divides 6k for k <= {naive_limit} (all h)",
        )
    ]
    ks = range(1, limit + 1)
    workers = _reciprocity_workers(limit)
    shares = None
    if workers > 1:
        shares = _forked(
            [
                partial(_share_rows, [k for k in ks if _share_of(k, workers) == j], limits)
                for j in range(workers)
            ]
        )
    if shares is None:
        adds = [check.add for check in checks]
        _reciprocity_share(ks, limits, lambda k: adds)
        return
    rows = [iter(share) for share in shares]
    for k in ks:
        for check, cell in zip(checks, next(rows[_share_of(k, workers)])):
            check.merge(*cell)


def _omega_descends(mat: ModularMatrix) -> bool:
    """omega(M) = omega(M') + q - 3 d'/c for the descent step M = M' S T^q
    (c >= 2).  M' is put in canonical form, so omega gets c' >= 1, and its
    lower-right entry d' is +-c."""
    q, *rest = _descent_step(*mat)
    reduced = ModularMatrix(*rest)
    return omega(*mat) == omega(*reduced) + q - 3 * reduced.d // mat.c


def run_omega(report: VerificationReport, config: CliConfig) -> None:
    """Integrality of the multiplier exponent (`omega` raises on a fraction),
    plus its descent recursion.  Each check is declared before its draws and
    fed one matrix at a time, so a raise part-way keeps the inputs counted."""
    trials = config.trials or 10_000
    rng = random.Random(config.seed)
    integral = report.exact_check(f"omega integral on {trials} random matrices").add
    for _ in range(trials):
        mat = random_unimodular_matrix(rng)
        integral(isinstance(omega(*mat), int), mat)
    recursion_trials = min(trials, 1000)
    descends = report.exact_check(
        f"omega descent recursion on {recursion_trials} matrices with c >= 2"
    ).add
    for _ in range(recursion_trials):
        mat = random_unimodular_matrix(rng, min_c=2)
        descends(_omega_descends(mat), mat)


# Fixed transformation-law probes far out along the real axis, where the
# factor |sqrt(-i(c tau + d))| ~ |tau|^(1/2) makes both sides much larger than eta(tau).
LARGE_RE_CASES = tuple(
    (mat, complex(re, 0.5)) for mat in (S, ModularMatrix(2, 1, 1, 1)) for re in (1e4, 1e8, 1e12)
)


def run_functional_eq(report: VerificationReport, config: CliConfig) -> None:
    """Transformation-law residuals on fixed probes (two special values and
    the large-Re points) and for random matrices and random points."""
    trials = config.trials or 1000
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


# Fixed theta-identity probes: self-dual point, a real rescaling, and the
# specialization (z, w) = (1/2, 1/6) that drives the eta inversion law.
THETA_FIXED_CASES = (
    (complex(0.0, 1.0), complex(0.0), complex(0.0)),
    (complex(0.0, 2.0), complex(0.0), complex(0.0)),
    (complex(0.0, 1.0), complex(0.5), complex(1.0 / 6.0)),
)

POISSON_FIXED_CASES = ((1.0, 0.0, 0.0), (4.0, 0.0, 0.0), (1.0, 1.0 / 3.0, 1.0 / 5.0))


def _identity_sweep(report, config, residual, names, fixed, draw) -> None:
    """Record `residual(*args, report.tolerance)` at each fixed probe as "fixed " +
    label under "fixed probes", then at `config.trials or 100` draws `draw(rng)`,
    rng = random.Random(config.seed), as label under "random"; the label gives
    `names` as "u = {}, a = {}, b = {}".  The gate is also each sum's truncation
    tolerance."""
    label = ", ".join(name + " = {}" for name in names)
    tol = report.tolerance
    for args in fixed:
        report.record("fixed " + label.format(*args), residual(*args, tol), "fixed probes")
    rng = random.Random(config.seed)
    for _ in range(config.trials or 100):
        args = draw(rng)
        report.record(label.format(*args), residual(*args, tol), "random")


def run_theta(report: VerificationReport, config: CliConfig) -> None:
    """Theta transformation residuals at fixed and random (tau, z, w), drawn in
    that order, each as (re, im): tau in [-1, 1] + [0.3, 3]i, z and w in [-1, 1]
    + [-0.3, 0.3]i, where double precision keeps both sides comparable at 1e-12."""
    _identity_sweep(
        report, config, theta_identity_residual, ("tau", "z", "w"), THETA_FIXED_CASES,
        lambda rng: (
            complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0)),
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)),
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)),
        ),
    )


def run_poisson(report: VerificationReport, config: CliConfig) -> None:
    """Gaussian summation-identity residuals at fixed and random (u, a, b),
    drawn in that order: u = 4^x, with x, a and b uniform in [-1, 1]."""
    _identity_sweep(
        report, config, gaussian_poisson_residual, ("u", "a", "b"), POISSON_FIXED_CASES,
        lambda rng: (
            4.0 ** rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        ),
    )


CAMPAIGNS: dict[str, Callable[[VerificationReport, CliConfig], None]] = {
    "jtp": run_jtp,
    "pentagonal": run_pentagonal,
    "reciprocity": run_reciprocity,
    "functional-eq": run_functional_eq,
    "theta": run_theta,
    "poisson": run_poisson,
    "omega": run_omega,
}

# The largest `order` and `trials` of each campaign, by the knobs it reads,
# sized at up to about 10 s of work on a 2-core x86-64 host (Python 3.11): a
# series campaign takes the limit of the series it builds, and reciprocity
# visits every pair h < k <= order (order 2000 took 5.6-6.2 s of CPU time,
# and 3.1-3.7 s of wall time in two forked shares; two runs).
LIMITS = {
    "jtp": {"order": MAX_W_ORDER},
    "pentagonal": {"order": MAX_ORDER},
    "reciprocity": {"order": 2_000},
    "functional-eq": {"trials": 100_000},
    "theta": {"trials": 200_000},
    "poisson": {"trials": 200_000},
    "omega": {"trials": 300_000},
}


def _selected_campaigns(name: str, config: CliConfig) -> list[str]:
    """The campaigns `name` selects: one, or every one for 'all'.  Raises
    ValueError, before any campaign runs, for an unknown name, for an
    `order` or `trials` above its LIMITS entry for a selected campaign, or,
    when one campaign is named, for an `order` or `trials` it does not read
    (one with no LIMITS entry), which would otherwise be dropped unseen."""
    if name != "all" and name not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {name!r}; choose from {', '.join(CAMPAIGNS)} or all")
    keys = list(CAMPAIGNS) if name == "all" else [name]
    for knob in ("order", "trials"):
        if name != "all" and getattr(config, knob) is not None and knob not in LIMITS[name]:
            reads = ", ".join(LIMITS[name])
            raise ValueError(f"the {name} campaign reads no {knob}, only {reads}")
    for key in keys:
        for knob, limit in LIMITS[key].items():
            value = getattr(config, knob)
            if value is not None and value > limit:
                raise ValueError(f"{knob} {value} is above the {key} campaign's limit {limit}")
    return keys


def run_campaign(name: str, config: CliConfig) -> list[VerificationReport]:
    """Run one named campaign, or every campaign for name == 'all', each into
    a report of its own, and time each.

    A runner that raises an Exception keeps the checks it recorded and gains
    one failed exact check naming the exception, fed through `exact_check`
    like any other; the next campaign still runs.  A BaseException such as
    KeyboardInterrupt propagates.  A name or a knob that _selected_campaigns
    refuses raises ValueError before any campaign runs.
    """
    reports = []
    for key in _selected_campaigns(name, config):
        report = VerificationReport(key, TOLERANCES.get(key, 0.0), config.seed)
        start = time.perf_counter()
        try:
            CAMPAIGNS[key](report, config)
        except Exception as exc:
            report.exact_check(f"raised {type(exc).__name__}: {exc}").add(False)
        report.wall_time = time.perf_counter() - start
        reports.append(report)
    return reports
