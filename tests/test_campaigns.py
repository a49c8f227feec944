"""Campaign report semantics: named checks, NaN residuals, exact checks fed
one input at a time that fail on any inequality, the cap on the failures
each check keeps, and which campaigns and checks catch which broken kernel."""

import ast
import cmath
import json
import math
import os
import random
import signal
import threading
import time
from fractions import Fraction
from functools import partial
from operator import add
from pathlib import Path
from types import SimpleNamespace

import pytest

from etaforge import campaigns, dedekind, evaluate, modgroup, qseries
from etaforge.campaigns import VerificationReport, random_unimodular_matrix
from etaforge.cli import main
from etaforge.dedekind import dedekind_sum_naive, floor_square_sum_check, omega
from etaforge.qseries import jtp_sum_side, pentagonal_series

ROOT = Path(__file__).resolve().parent.parent


def test_nan_residual_fails():
    report = VerificationReport("x", 1e-10, 0)
    report.record("nan", math.nan)
    assert not report.passed
    assert [desc for desc, _ in report.failures] == ["nan"]
    assert math.isnan(report.max_residual)


def test_named_checks_keep_count_and_worst_input():
    report = VerificationReport("x", 1e-10, 0)
    for desc, residual in (("a", 1e-12), ("b", 1e-11), ("c", 0.0)):
        report.record(desc, residual, check="sweep")
    sum_check = report.exact_check("sum")
    for n in range(5):
        sum_check.add(n < 3, n)
    sweep, exact = report.checks["sweep"], report.checks["sum"]
    assert (sweep.exact, sweep.count, sweep.worst_input, sweep.passed) == (False, 3, "b", True)
    assert (exact.exact, exact.count, exact.worst_input, exact.passed) == (True, 5, "3", False)
    assert report.trials == 4  # an exact check is one trial
    assert report.failures == [("sum (first failure 3)", 1.0)]


def test_declared_exact_check_without_inputs_passes_as_one_trial():
    report = VerificationReport("x", 0.0, 0)
    check = report.exact_check("empty")
    assert (check.exact, check.count, check.worst_input, check.passed) == (True, 0, "", True)
    assert list(report.checks) == ["empty"]
    assert (report.trials, report.passed, report.failures) == (1, True, [])


def test_exact_check_keeps_its_first_failure():
    report = VerificationReport("x", 0.0, 0)
    check = report.exact_check("pairs")
    for item, holds in (((1, 2), True), ((2, 3), False), ((3, 4), True), ((4, 5), False)):
        check.add(holds, item)
    assert (check.count, check.max_residual, check.worst_input) == (4, 1.0, "(2, 3)")
    assert report.failures == [("pairs (first failure (2, 3))", 1.0)]
    report.exact_check("bare").add(False)  # an input with no description
    assert report.failures[0] == ("bare", 1.0)


def test_each_check_keeps_only_its_worst_failures():
    rng = random.Random(3)
    report = VerificationReport("x", 0.5, 0)
    records = []
    for n in range(1000):
        # repeated residuals and NaNs, so the order also rests on the descriptions
        residual = rng.choice([math.nan, 0.7, 1.0, rng.uniform(0.6, 9.0)])
        records.append((f"input {rng.randrange(400)}", residual))
        report.record(*records[-1], check=f"check {n % 3}")
    records.sort(key=lambda item: (-campaigns._severity(item[1]), item[0]))
    expected = records[: campaigns.MAX_RECORDED_FAILURES]
    assert repr(report.failures) == repr(expected)  # repr compares NaN entries too
    assert all(check.count > 300 for check in report.checks.values())
    assert all(
        len(check.failures) <= campaigns.MAX_RECORDED_FAILURES
        for check in report.checks.values()
    )


def _bump(series, key):
    """A copy of `series` with the coefficient at `key` off by one."""
    coeffs = dict(series.coeffs)
    coeffs[key] = coeffs.get(key, 0) + 1
    return type(series)(coeffs, series.order)


BROKEN_PRIMITIVES = [
    ("jtp", "jtp_sum_side", lambda order: _bump(jtp_sum_side(order), (1, 0)), "--order", "40"),
    ("pentagonal", "pentagonal_series", lambda order: _bump(pentagonal_series(order), 3),
     "--order", "400"),
    ("reciprocity", "dedekind_sum_naive",
     lambda h, k: dedekind_sum_naive(h, k) + ((h, k) == (2, 7)), "--order", "60"),
    ("omega", "omega", lambda a, b, c, d: omega(a, b, c, d) + c % 2, "--trials", "50"),
]


@pytest.mark.parametrize(
    "campaign, name, broken, flag, value", BROKEN_PRIMITIVES, ids=[b[0] for b in BROKEN_PRIMITIVES]
)
def test_tolerance_cannot_pass_broken_exact_identity(
    capsys, monkeypatch, campaign, name, broken, flag, value
):
    monkeypatch.setattr(campaigns, name, broken)
    code = main(["verify", campaign, flag, value, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["passed"] is False
    assert payload["failures"] and all(f["residual"] == 1.0 for f in payload["failures"])


# Draws recorded from the word-by-word ModularMatrix construction: the first
# matrices of a stream and the next rng.random() after them, which pins how
# many random numbers the draws consume.  Seed 5 with min_c = 2 redraws a
# c = 1 candidate; the fourth stream ends in a translation (c = 0, sign
# fixed).  The last three, recorded from draws made with rng.randint, pin the
# one-value exponent range, the one-value factor count, and a factor count of
# 32, a power of two, where the bit width of the draw grows.  A key other than
# min_c sets the module constant of the same name in upper case.
PINNED_DRAWS = [
    (0, {}, [(36807, 10091, 7171, 1966), (-7, 1, 6, -1), (-163, -34, 24, 5),
             (-23939, 4926, 4573, -941), (-19, 6, 3, -1)], 0.19935579046706298),
    (0, {"min_c": 2}, [(36807, 10091, 7171, 1966), (-7, 1, 6, -1), (-163, -34, 24, 5),
                       (-23939, 4926, 4573, -941), (-19, 6, 3, -1)], 0.19935579046706298),
    (5, {"min_c": 2}, [(13567, 1341, 2074, 205), (305, 1259, 86, 355), (4282, -739, 817, -141),
                       (5757, 1105, 3350, 643), (54669, 5938, 9713, 1055)], 0.31915254850071706),
    (3, {"max_t_factors": 3, "exp_bound": 2, "max_entry": 5, "min_c": 0},
     [(2, -1, 1, 0), (1, -1, 1, 0), (5, 2, 2, 1), (-2, -3, 1, 1), (-1, 0, 2, -1), (1, 1, 0, 1)],
     0.6390681405441619),
    (0, {"exp_bound": 0}, [(0, -1, 1, 0)] * 5, 0.11489641277540219),
    (1, {"max_t_factors": 1}, [(9, -1, 1, 0), (-1, -1, 1, 0), (6, -1, 1, 0), (6, -1, 1, 0),
                               (-3, -1, 1, 0)], 0.0938595867742349),
    (2, {"max_t_factors": 32}, [(-460, -103, 67, 15), (-70, -9, 39, 5), (2, -1, 1, 0),
                                (-1673, -206, 1405, 173), (377, 311, 40, 33)],
     0.5261899437805846),
]


@pytest.mark.parametrize("seed, kwargs, entries, next_random", PINNED_DRAWS)
def test_random_unimodular_matrix_draws_are_pinned(
    seed, kwargs, entries, next_random, monkeypatch
):
    for name, value in kwargs.items():
        if name != "min_c":
            monkeypatch.setattr(campaigns, name.upper(), value)
    min_c = kwargs.get("min_c", 1)
    rng = random.Random(seed)
    assert [tuple(random_unimodular_matrix(rng, min_c)) for _ in entries] == entries
    assert rng.random() == next_random


@pytest.mark.parametrize(
    "min_c, message",
    [
        (campaigns.MAX_ENTRY + 1, "min_c must be <= MAX_ENTRY = 1000000, got 1000001"),
        (10**7, "min_c must be <= MAX_ENTRY = 1000000, got 10000000"),
        (2.5, "min_c must be of type int, got 2.5"),
        (True, "min_c must be of type int, got True"),
    ],
)
def test_random_unimodular_matrix_refuses_min_c_before_any_draw(min_c, message):
    # no candidate can pass above MAX_ENTRY; the refusal leaves the stream as it was
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"^{message}$"):
        random_unimodular_matrix(rng, min_c)
    assert rng.getstate() == state


def _bumped_at(fn, broken_args, bump):
    """`fn` with its value passed through `bump` at the argument tuples in `broken_args`."""

    def broken(*args):
        value = fn(*args)
        return bump(value) if args in broken_args else value

    return broken


def _off(value):
    return value + Fraction(1, 35)


def _kernel_off_at(broken_args):
    """The `dedekind` module as the reciprocity campaign reads it, with the
    kernel N(h, k) = 12k s(h, k) one more at the argument tuples in
    `broken_args`.  The floor-square sum reads the real module, so it stays
    honest."""
    scaled = _bumped_at(dedekind._scaled_dedekind_sum, broken_args, lambda n: n + 1)
    return "dedekind", SimpleNamespace(_scaled_dedekind_sum=scaled)


# Each variant breaks one name the reciprocity campaign looks up at three
# inputs, spread over its limits at order 201 (200 for periodicity, oddness
# and the floor sums, the order itself for the rest).  The fast sum is broken
# once at arguments (h, k) with h < k, as the pair's own value, and once at
# (k, h) with k > h, as its reciprocity partner; (13, 9) is also the shifted
# argument of the periodicity check at (4, 9).
RECIPROCITY_VARIANTS = {
    "honest": None,
    "defining sum off at (5, 12), (0, 97), (100, 201)": (
        "dedekind_sum_naive",
        _bumped_at(dedekind_sum_naive, {(5, 12), (0, 97), (100, 201)}, _off),
    ),
    "fast sum off at (1, 9), (45, 199), (100, 201)": _kernel_off_at(
        {(1, 9), (45, 199), (100, 201)}
    ),
    "fast sum off at (13, 9), (199, 45), (201, 100)": _kernel_off_at(
        {(13, 9), (199, 45), (201, 100)}
    ),
    "floor-square sum off at (2, 3), (50, 101), (150, 199)": (
        "floor_square_sum_check",
        _bumped_at(
            floor_square_sum_check, {(2, 3), (50, 101), (150, 199)}, lambda s: (s[0], s[1] + 1)
        ),
    ),
}
# Orders 1 and 2 are the smallest sweeps, 201 passes the 200 limit; the
# default order is compared in the acceptance suite, which runs it anyway.
RECIPROCITY_ORDERS = (1, 2, 40, 201)
RECIPROCITY_GOLDEN = Path(__file__).resolve().parent / "golden" / "reciprocity_checks.json"


def reciprocity_checks(report):
    """(name, exact, count, worst input, failures) of each check, in the order recorded."""
    return [
        [c.name, c.exact, c.count, c.worst_input, [list(f) for f in c.failures]]
        for c in report.checks.values()
    ]


def _forced_shares(monkeypatch, forks):
    """Hand every reciprocity pass to `_forked` if `forks`, else run it
    in-process, whatever its size and the CPU count, by setting the policy's
    FORK_MIN_ORDER and CPU mask, and return the list that collects what each
    forked pass's `_forked` returns when its shares are collected: each
    share's counts, in the order the shares finish, or None if a share
    failed or failed to deliver."""
    forked = campaigns._forked
    returned = []

    def spy(tasks):
        returned.append((yield from forked(tasks)))
        return returned[-1]

    monkeypatch.setattr(campaigns, "FORK_MIN_ORDER", 1 if forks else math.inf)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(campaigns, "_forked", spy)
    return returned


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _collected(forked):
    """What the `_forked` generator `forked` returns, resumed at once."""
    try:
        while True:
            next(forked)
    except StopIteration as stop:
        return stop.value


# A broken variant whose order-201 shares split into one that fails and one
# that passes: every pair it breaks is in a row of the first of two shares.
MIXED_SHARES = "defining sum off at (5, 12), (0, 97), (100, 201)"

# Every variant in-process; in two forked shares, as on a 2-core host, the
# honest campaign and MIXED_SHARES.  A broken variant's forked pass replays
# in-process, so the other variants' forked shares are checked directly
# below.
RECIPROCITY_PATHS = [
    *((variant, False) for variant in RECIPROCITY_VARIANTS),
    ("honest", True),
    (MIXED_SHARES, True),
]


@pytest.mark.parametrize(
    "variant, forks",
    RECIPROCITY_PATHS,
    ids=[f"{v}, 2 forked shares" if f else v for v, f in RECIPROCITY_PATHS],
)
def test_reciprocity_checks_match_the_recorded_campaign(monkeypatch, variant, forks):
    # recorded from one sweep per check; keys are --order values
    recorded = json.loads(RECIPROCITY_GOLDEN.read_text())[variant]
    if RECIPROCITY_VARIANTS[variant]:
        monkeypatch.setattr(campaigns, *RECIPROCITY_VARIANTS[variant])
    forked = _forced_shares(monkeypatch, forks)
    # the passes the parent runs itself: when forked, only replays, as a
    # forked child's calls land in its own copy of this list
    in_process = []
    share = campaigns._reciprocity_share

    def spy(ks, *rest):
        in_process.append(len(ks))
        share(ks, *rest)

    monkeypatch.setattr(campaigns, "_reciprocity_share", spy)
    for order in RECIPROCITY_ORDERS:
        (report,) = campaigns.run_campaign("reciprocity", campaigns.CliConfig(order=order))
        assert reciprocity_checks(report) == recorded[str(order)], order
    assert_no_child_left()
    if not forks:
        assert forked == [] and in_process == list(RECIPROCITY_ORDERS)
        return
    # every forked pass was collected: its shares' counts, or None where a
    # share failed; such a pass is replayed in-process, and its report is the replay's
    assert len(forked) == len(RECIPROCITY_ORDERS)
    failed = [order for order, shares in zip(RECIPROCITY_ORDERS, forked) if shares is None]
    assert in_process == failed
    assert all(len(shares) == 2 for shares in forked if shares is not None)
    if variant == "honest":
        assert failed == []
    else:
        assert failed == [40, 201]
        # at 201 the first share failed: the second holds no broken pair
        second = [k for k in range(1, 202) if campaigns._share_of(k) == 1]
        assert len(campaigns._share_counts(second, (201, 200))) == 8


@pytest.mark.parametrize(
    "variant", [v for v in RECIPROCITY_VARIANTS if v not in ("honest", MIXED_SHARES)]
)
def test_a_forked_share_holding_a_broken_pair_sends_none(monkeypatch, variant):
    # at order 201 each of the two shares holds a row with a broken pair:
    # rows 9, 101 and 201 fall in the first share, rows 3 and 199 in the
    # second, and each variant breaks a pair in one row of each; each share,
    # forked alone, stops at its first failing input and its child sends None
    monkeypatch.setattr(campaigns, *RECIPROCITY_VARIANTS[variant])
    rows, limits = range(1, 202), (201, 200)  # as run_reciprocity at order 201
    shares = [[k for k in rows if campaigns._share_of(k) == j] for j in range(2)]
    for share in shares:
        task = partial(campaigns._share_counts, share, limits)
        assert _collected(campaigns._forked([task])) is None
    assert_no_child_left()


def test_a_share_stops_at_its_first_failing_input(monkeypatch):
    # MIXED_SHARES breaks pairs in rows 12, 97 and 201 of the first share
    monkeypatch.setattr(campaigns, *RECIPROCITY_VARIANTS[MIXED_SHARES])
    share = [k for k in range(1, 202) if campaigns._share_of(k) == 0]
    broken, decided = campaigns.dedekind_sum_naive, []

    def spy(h, k):
        decided.append((h, k))
        return broken(h, k)

    monkeypatch.setattr(campaigns, "dedekind_sum_naive", spy)
    with pytest.raises(ValueError, match=r"at \(5, 12\)$"):
        campaigns._share_counts(share, (201, 200))
    assert decided[-1] == (5, 12)


def test_a_raise_in_a_forked_share_leaves_the_in_process_report(monkeypatch):
    # (45, 79) falls in the second of two shares; the pass stops there
    def raising(h, k):
        if (h, k) == (45, 79):
            raise ZeroDivisionError("kernel failed at (45, 79)")
        return scaled(h, k)

    scaled = dedekind._scaled_dedekind_sum
    monkeypatch.setattr(campaigns, "dedekind", SimpleNamespace(_scaled_dedekind_sum=raising))
    assert campaigns._share_of(79) == 1
    config = campaigns.CliConfig(order=100)
    _forced_shares(monkeypatch, False)
    (in_process,) = campaigns.run_campaign("reciprocity", config)
    forked = _forced_shares(monkeypatch, True)
    (report,) = campaigns.run_campaign("reciprocity", config)
    assert forked == [None]  # the forked pass failed and was replayed in-process
    assert_no_child_left()
    assert reciprocity_checks(report) == reciprocity_checks(in_process)
    assert report.to_json() == in_process.to_json()
    raised = list(report.checks.values())[-1]
    assert raised.name == "raised ZeroDivisionError: kernel failed at (45, 79)"
    # the counts stop at the failing pair: reciprocity saw every coprime pair before it
    before = sum(math.gcd(h, k) == 1 for k in range(2, 79) for h in range(1, k))
    before += sum(math.gcd(h, 79) == 1 for h in range(1, 45))
    assert report.checks["reciprocity on coprime pairs <= 100"].count == before


def _fail_the_second_fork(monkeypatch):
    """Let the first `os.fork` start its child and fail every later one, as
    at a process limit; return the list of the pids forked."""

    def second_fork_fails():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(fork())
        return forks[-1]

    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", second_fork_fails)
    return forks


# Tasks whose child sends None: one raises, the other's result marshals
# past the 512 bytes that one write to a pipe is sure to deliver whole
FAILING_TASKS = {"raises": partial(divmod, 1, 0), "too long a record": lambda: list(range(200))}


@pytest.mark.parametrize("position", ["first", "after the slow one"])
@pytest.mark.parametrize("failing", FAILING_TASKS)
def test_a_failing_share_kills_the_shares_still_running(tmp_path, failing, position):
    finished = tmp_path / "finished"

    def slow():
        time.sleep(5)
        finished.touch()
        return 1

    tasks = [FAILING_TASKS[failing], slow]
    if position != "first":
        tasks.reverse()
    # the parent returns at the failing share's record, whichever child sent it first
    assert _collected(campaigns._forked(tasks)) is None
    assert_no_child_left()
    assert not finished.exists()


def test_a_child_that_dies_before_it_writes_sends_none():
    def killed():
        os.kill(os.getpid(), signal.SIGKILL)

    # its sibling's record arrives, then the pipe reads EOF
    assert _collected(campaigns._forked([lambda: 1, killed])) is None
    assert_no_child_left()


def test_forked_results_come_in_the_order_the_children_finish():
    def slow():
        time.sleep(0.5)
        return "slow"

    assert _collected(campaigns._forked([slow, lambda: "fast"])) == ["fast", "slow"]
    assert_no_child_left()


@pytest.mark.parametrize(
    "path", ["delivered", "a share fails", "a fork fails", "closed before collection"]
)
def test_forked_leaves_no_file_descriptor_open(monkeypatch, path):
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip(f"no {fd_dir} to list the open descriptors")
    before = sorted(os.listdir(fd_dir))
    second = partial(divmod, 1, 0) if path == "a share fails" else lambda: 2
    if path == "a fork fails":
        _fail_the_second_fork(monkeypatch)
    forked = campaigns._forked([lambda: 1, second])
    if path == "closed before collection":
        next(forked)
        forked.close()
    else:
        expected = [1, 2] if path == "delivered" else None
        result = _collected(forked)
        assert (sorted(result) if result else result) == expected
    assert_no_child_left()
    assert sorted(os.listdir(fd_dir)) == before


def test_reciprocity_runs_in_process_when_a_share_cannot_be_forked(monkeypatch):
    config = campaigns.CliConfig(order=40)
    _forced_shares(monkeypatch, False)
    (in_process,) = campaigns.run_campaign("reciprocity", config)
    forked = _forced_shares(monkeypatch, True)
    forks = _fail_the_second_fork(monkeypatch)
    (report,) = campaigns.run_campaign("reciprocity", config)
    assert len(forks) == 1 and forked == [None]
    assert_no_child_left()
    assert reciprocity_checks(report) == reciprocity_checks(in_process)


def test_forked_shares_flush_no_buffer_of_the_parent(monkeypatch, tmp_path):
    # as `verify --out` holds its file open while the campaigns run
    _forced_shares(monkeypatch, True)
    path = tmp_path / "report.txt"
    with open(path, "w") as out:
        out.write("written once\n")  # still buffered when the shares fork
        campaigns.run_campaign("reciprocity", campaigns.CliConfig(order=10))
    assert path.read_text() == "written once\n"


def test_reciprocity_shares_deal_every_row_once_and_balance_odd_and_even():
    rows = range(1, 81)  # twenty blocks of four rows
    shares = [[k for k in rows if campaigns._share_of(k) == j] for j in range(2)]
    assert sorted(k for share in shares for k in share) == list(rows)
    assert len({len(share) for share in shares}) == 1
    assert all(sum(k % 2 for k in share) * 2 == len(share) for share in shares)


def test_reciprocity_shares_hold_rows_one_and_zero_then_two_and_three_mod_4():
    # the dealing the 600/598 ms split in `_share_of` was measured with
    assert [campaigns._share_of(k) for k in range(1, 13)] == [0, 1, 1, 0] * 3


def test_forked_reciprocity_runs_each_share_of_rows_with_the_pass_limits(monkeypatch):
    _forced_shares(monkeypatch, True)
    tasks = []

    def spy(shares):  # takes the shares and runs none of them
        tasks.extend(shares)
        return [[0] * 8 for _ in shares]
        yield  # a generator, as `_forked` is

    monkeypatch.setattr(campaigns, "_forked", spy)
    # order 201 passes the sweep limit: the pass limits are (201, 200)
    campaigns.run_campaign("reciprocity", campaigns.CliConfig(order=201))
    assert [(task.func, task.args) for task in tasks] == [
        (campaigns._share_counts, ([k for k in range(1, 202) if k % 4 in (0, 1)], (201, 200))),
        (campaigns._share_counts, ([k for k in range(1, 202) if k % 4 in (2, 3)], (201, 200))),
    ]


def _hands_forked_its_tasks(monkeypatch, order):
    """Whether `run_reciprocity` at `order` hands `_forked` its two shares;
    the stand-in runs neither, and returns zero counts for both."""
    handed = []

    def spy(tasks):
        handed.append(len(tasks))
        return [[0] * 8 for _ in tasks]
        yield  # a generator, as `_forked` is

    monkeypatch.setattr(campaigns, "_forked", spy)
    campaigns.run_campaign("reciprocity", campaigns.CliConfig(order=order))
    assert handed in ([], [2])
    return bool(handed)


def test_reciprocity_forks_from_the_threshold_where_more_than_one_cpu_may_run(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    order = campaigns.FORK_MIN_ORDER
    assert order == 70
    assert _hands_forked_its_tasks(monkeypatch, order - 1) is False
    assert _hands_forked_its_tasks(monkeypatch, order) is True
    # more CPUs than were measured: still two shares
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert _hands_forked_its_tasks(monkeypatch, 500) is True
    # one CPU in the mask: in-process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _hands_forked_its_tasks(monkeypatch, order) is False
    # no affinity mask: the CPU count, which may be unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _hands_forked_its_tasks(monkeypatch, order) is True
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _hands_forked_its_tasks(monkeypatch, order) is False


def _refuses_to_fork():
    """Assert that `_forked` returns None without yielding, calls `os.fork`
    (where it exists) and `os.pipe` zero times, and leaves the open file
    descriptors as they were."""
    calls = []
    fd_dir = "/proc/self/fd"
    before = sorted(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
    with pytest.MonkeyPatch.context() as patch:
        for name in ("fork", "pipe"):
            if hasattr(os, name):
                real = getattr(os, name)
                patch.setattr(os, name, lambda real=real, name=name: calls.append(name) or real())
        with pytest.raises(StopIteration) as stop:
            next(campaigns._forked([lambda: 1, lambda: 2]))
    assert stop.value.value is None
    assert calls == []
    assert (sorted(os.listdir(fd_dir)) if before is not None else None) == before


def test_forked_returns_none_at_once_where_a_fork_is_unsafe(monkeypatch):
    assert _collected(campaigns._forked([lambda: 1])) == [1]
    # another live thread: a child could wait forever on a lock it held
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        _refuses_to_fork()
    finally:
        release.set()
        waiter.join()
    # SIGCHLD ignored or handled by the host: a reaped child's pid may be reused
    for disposition in (signal.SIG_IGN, lambda signum, frame: None):
        previous = signal.signal(signal.SIGCHLD, disposition)
        try:
            _refuses_to_fork()
        finally:
            signal.signal(signal.SIGCHLD, previous)
    # no os.fork
    monkeypatch.delattr(os, "fork")
    _refuses_to_fork()
    assert_no_child_left()


def test_reciprocity_with_sigchld_ignored_leaves_the_in_process_report(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config = campaigns.CliConfig(order=campaigns.FORK_MIN_ORDER)
    forked = campaigns._forked
    (two_shares,) = campaigns.run_campaign("reciprocity", config)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        (report,) = campaigns.run_campaign("reciprocity", config)
        # no child is forked, so none can be reaped by the kernel
        assert _collected(forked([lambda: 1, lambda: 2])) is None
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert_no_child_left()
    _forced_shares(monkeypatch, False)
    (in_process,) = campaigns.run_campaign("reciprocity", config)
    assert report.to_json() == two_shares.to_json() == in_process.to_json()


# `verify all` small enough to run often, its reciprocity pass forked in two shares
ALL_SMALL = campaigns.CliConfig(order=80, trials=50)


def test_verify_all_runs_the_later_campaigns_while_the_shares_work(monkeypatch):
    _forced_shares(monkeypatch, False)
    in_process = campaigns.run_campaign("all", ALL_SMALL)
    forked = _forced_shares(monkeypatch, True)
    omega_runner, collected_at_omega = campaigns.CAMPAIGNS["omega"], []

    def omega_spy(report, config):
        collected_at_omega.append(list(forked))
        omega_runner(report, config)

    monkeypatch.setitem(campaigns.CAMPAIGNS, "omega", omega_spy)
    reports = campaigns.run_campaign("all", ALL_SMALL)
    assert_no_child_left()
    # omega, the last campaign, started before the shares were collected
    assert collected_at_omega == [[]]
    assert len(forked) == 1 and [len(counts) for counts in forked[0]] == [8, 8]
    assert campaigns.reports_json(reports) == campaigns.reports_json(in_process)


def test_an_interrupt_in_a_later_campaign_kills_and_reaps_the_shares(monkeypatch):
    def interrupted(report, config):
        raise KeyboardInterrupt

    forked = _forced_shares(monkeypatch, True)
    monkeypatch.setitem(campaigns.CAMPAIGNS, "omega", interrupted)
    with pytest.raises(KeyboardInterrupt) as interrupt:
        campaigns.run_campaign("all", ALL_SMALL)
    assert forked == []  # the shares were forked but never collected
    # `interrupt` holds run_campaign's frame, and so its pending pass: the
    # children were reaped by run_campaign itself, not by the collector
    assert isinstance(interrupt.value, KeyboardInterrupt)
    assert_no_child_left()


def test_a_raise_in_a_later_campaign_leaves_the_forked_report(monkeypatch):
    def failing(report, config):
        raise RuntimeError("omega failed")

    _forced_shares(monkeypatch, False)
    in_process = campaigns.run_campaign("all", ALL_SMALL)
    forked = _forced_shares(monkeypatch, True)
    monkeypatch.setitem(campaigns.CAMPAIGNS, "omega", failing)
    reports = campaigns.run_campaign("all", ALL_SMALL)
    assert_no_child_left()
    assert len(forked) == 1 and forked[0] is not None
    assert [r.campaign for r in reports] == list(campaigns.CAMPAIGNS)
    *rest, omega_report = reports
    assert [(c.name, c.passed) for c in omega_report.checks.values()] == [
        ("raised RuntimeError: omega failed", False)
    ]
    assert [r.to_json() for r in rest] == [r.to_json() for r in in_process[:-1]]


def test_a_raise_while_the_shares_are_collected_stays_in_the_reciprocity_report(monkeypatch):
    # (45, 79) falls in the second share, whose child sends None; the replay that
    # follows the last campaign raises there
    def raising(h, k):
        if (h, k) == (45, 79):
            raise ZeroDivisionError("kernel failed at (45, 79)")
        return scaled(h, k)

    scaled = dedekind._scaled_dedekind_sum
    monkeypatch.setattr(campaigns, "dedekind", SimpleNamespace(_scaled_dedekind_sum=raising))
    _forced_shares(monkeypatch, False)
    in_process = campaigns.run_campaign("all", ALL_SMALL)
    forked = _forced_shares(monkeypatch, True)
    reports = campaigns.run_campaign("all", ALL_SMALL)
    assert_no_child_left()
    assert forked == [None]
    assert campaigns.reports_json(reports) == campaigns.reports_json(in_process)
    assert [r.campaign for r in reports if not r.passed] == ["reciprocity"]


def test_reciprocity_builds_no_fast_sum_fraction(monkeypatch):
    def fraction_path(h, k):
        raise AssertionError(f"dedekind_sum_fast({h}, {k}) called")

    monkeypatch.setattr(campaigns, "dedekind_sum_fast", fraction_path)
    assert main(["verify", "reciprocity", "--order", "40"]) == 0


def test_run_campaign_records_a_raised_exception_after_the_checks_before_it(monkeypatch):
    def runner(report, config):
        report.exact_check("first").add(True)
        raise error

    monkeypatch.setitem(campaigns.CAMPAIGNS, "jtp", runner)
    error = ValueError("bad input 7")
    (report,) = campaigns.run_campaign("jtp", campaigns.CliConfig())
    assert [(c.name, c.passed) for c in report.checks.values()] == [
        ("first", True),
        ("raised ValueError: bad input 7", False),
    ]
    error = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt):
        campaigns.run_campaign("jtp", campaigns.CliConfig())


def _omega_plus(n):
    return lambda a, b, c, d: omega(a, b, c, d) + n


def _floor_descent_step(a, b, c, d):
    q = d // c
    return q, a * q - b, a, q * c - d, c


_scaled, _CHI12 = dedekind._scaled_dedekind_sum, qseries._CHI12_TABLE
_pentagonal, _theta_sum = evaluate._pentagonal_series, evaluate._bilateral_theta_sum
_translated = evaluate._translated
_jtp_product = qseries.jtp_product_side
_divisor_sums = qseries._divisor_sums


def _jtp_product_plus_one_at_4_0(n_order):
    coeffs = dict(_jtp_product(n_order).coeffs)
    coeffs[(4, 0)] = coeffs.get((4, 0), 0) + 1
    return qseries.BiSeries(coeffs, n_order)


def _divisor_sums_plus_one_at_4(n):
    sig = _divisor_sums(n)
    if n >= 4:
        sig[4] += 1
    return sig


def _divisor_sums_split_one_low(n):
    # the divisor-pair sieve split at isqrt(n) - 1: a divisor x of m with x
    # and m / x both at least isqrt(n), as at m = isqrt(n)^2, is never counted
    sig = [0] * (n + 1)
    s = max(math.isqrt(n) - 1, 0)
    for d in range(1, s + 1):
        sig[d::d] = map(d.__add__, sig[d::d])
        sig[d * (s + 1)::d] = map(add, sig[d * (s + 1)::d], range(s + 1, n // d + 1))
    return sig


def _divisor_sums_pairs_one_short(n):
    # the divisor-pair sieve with its loop stopping at isqrt(n) - 1: the
    # pairs whose smaller member is isqrt(n), as at m = isqrt(n)^2, are lost
    sig = [0] * (n + 1)
    for d in range(1, math.isqrt(n)):
        sig[d * d] += d
        sig[d * (d + 1)::d] = map(add, sig[d * (d + 1)::d], range(2 * d + 1, d + n // d + 1))
    return sig


def _pentagonal_times(factor):
    # every eta route scaled by one constant: the transformation law still
    # holds, only the closed forms do not
    def scaled(z, tol):
        value, tail, terms = _pentagonal(z, tol)
        return factor * value, tail, terms

    return scaled


def _theta_sum_times_minus_2(tau, z, w, tol_abs):
    value, terms = _theta_sum(tau, z, w, tol_abs)
    return -2 * value, terms


def _translated_times_2(series, tau, tol):
    result = _translated(series, tau, tol)
    return result._replace(value=2 * result.value)


def _scaled_parity_swapped(h, k):
    # the continued-fraction kernel with its parity term (-1)^n - 2 swapped:
    # -1 where n is odd, -3 where it is even
    h %= k
    if k == 1:
        return 0
    a, b, ua, ub, alternating = k, h, 0, 1, 0
    while True:
        q, a = divmod(a, b)
        ua -= q * ub
        alternating += q
        if not a:
            return k * (alternating - 1) + h + ub % k
        q, b = divmod(b, a)
        ub -= q * ua
        alternating -= q
        if not b:
            return k * (alternating - 3) + h + ua % k


# Mutation analysis (DeMillo, Lipton and Sayward, "Hints on test data
# selection", Computer 11(4), 1978): each variant breaks one kernel, patched
# at every module that looks the name up, as (owner, name, replacement).
MUTATIONS = {
    "honest": [],
    "omega + 1": [(campaigns, "omega", _omega_plus(1)), (evaluate, "omega", _omega_plus(1))],
    "omega + 24": [(campaigns, "omega", _omega_plus(24)), (evaluate, "omega", _omega_plus(24))],
    "_ROOTS24 conjugated": [
        (evaluate, "_ROOTS24", tuple(z.conjugate() for z in evaluate._ROOTS24))
    ],
    "chi12(7) = +1": [
        (qseries, "_CHI12_TABLE", tuple(1 if n == 7 else x for n, x in enumerate(_CHI12)))
    ],
    "_scaled_dedekind_sum sign-flipped": [
        (dedekind, "_scaled_dedekind_sum", lambda h, k: -_scaled(h, k))
    ],
    "_scaled_dedekind_sum parity term swapped": [
        (dedekind, "_scaled_dedekind_sum", _scaled_parity_swapped)
    ],
    "floor descent step q = d // c": [
        (modgroup, "_descent_step", _floor_descent_step),
        (campaigns, "_descent_step", _floor_descent_step),
    ],
    "SMALL_IM = 0.001": [(evaluate, "SMALL_IM", 0.001)],
    "jtp_product_side (4, 0) + 1": [(qseries, "jtp_product_side", _jtp_product_plus_one_at_4_0)],
    "σ(4) + 1": [(qseries, "_divisor_sums", _divisor_sums_plus_one_at_4)],
    "σ split at isqrt(n) − 1": [(qseries, "_divisor_sums", _divisor_sums_split_one_low)],
    "σ pair loop one short of isqrt(n)": [
        (qseries, "_divisor_sums", _divisor_sums_pairs_one_short)
    ],
    "_pentagonal_series × 1.01": [(evaluate, "_pentagonal_series", _pentagonal_times(1.01))],
    "_pentagonal_series × 2": [(evaluate, "_pentagonal_series", _pentagonal_times(2))],
    "_pentagonal_series × −1": [(evaluate, "_pentagonal_series", _pentagonal_times(-1))],
    "_pentagonal_series × e^(iπ/12)": [
        (evaluate, "_pentagonal_series", _pentagonal_times(cmath.exp(1j * math.pi / 12)))
    ],
    "_bilateral_theta_sum × −2": [
        (evaluate, "_bilateral_theta_sum", _theta_sum_times_minus_2),
        (campaigns, "_bilateral_theta_sum", _theta_sum_times_minus_2),
    ],
    "_translated × 2": [(evaluate, "_translated", _translated_times_2)],
}
MUTATION_GOLDEN = Path(__file__).resolve().parent / "golden" / "mutation_checks.json"


@pytest.mark.parametrize("variant", MUTATIONS)
def test_mutation_is_caught_where_recorded(monkeypatch, variant):
    # the failing campaigns of `verify all` at a small size, and the failing
    # checks of each; a variant that no campaign catches names the tests that do
    golden = json.loads(MUTATION_GOLDEN.read_text())
    assert list(golden) == list(MUTATIONS)
    recorded = golden[variant]
    for owner, name, value in MUTATIONS[variant]:
        monkeypatch.setattr(owner, name, value)
    reports = campaigns.run_campaign("all", campaigns.CliConfig(order=60, trials=50))
    assert [r.campaign for r in reports if not r.passed] == recorded["failing campaigns"]
    assert {
        r.campaign: [c.name for c in r.checks.values() if not c.passed]
        for r in reports
        if not r.passed
    } == recorded["failing checks"]
    caught_by = recorded.get("caught by", [])
    assert variant == "honest" or bool(recorded["failing campaigns"]) != bool(caught_by)
    for node in caught_by:
        path, _, test = node.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        assert test in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, node


def test_jtp_campaign_passes_at_its_limit():
    limit = campaigns.LIMITS["jtp"]["order"]
    assert limit == qseries.MAX_W_ORDER
    (report,) = campaigns.run_campaign("jtp", campaigns.CliConfig(order=limit))
    assert report.passed
    assert all(check.count == 1 for check in report.checks.values())


def test_functional_eq_campaign_probes_large_real_parts():
    (report,) = campaigns.run_campaign("functional-eq", campaigns.CliConfig(trials=1))
    large_re = report.checks["large Re"]
    assert large_re.count == 6
    assert large_re.max_residual <= 1e-14
    assert report.trials == 1 + 1 + 6 + 3 * 5


def test_every_route_meets_the_closed_forms_of_eta_and_theta():
    (report,) = campaigns.run_campaign("functional-eq", campaigns.CliConfig(trials=1))
    for route in ("product", "pentagonal", "transformed"):
        check = report.checks[f"closed forms, {route} route"]
        assert check.count == 5 and check.max_residual <= 1e-13, route
    (report,) = campaigns.run_campaign("theta", campaigns.CliConfig(trials=1))
    check = report.checks["closed form"]
    assert check.count == 1 and check.max_residual <= 1e-15
