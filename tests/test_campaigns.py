"""Campaign report semantics: named checks, NaN residuals, exact checks fed
one input at a time that fail on any inequality, the cap on the failures
each check keeps, and which campaigns and checks catch which broken kernel."""

import ast
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from etaforge import campaigns, dedekind, evaluate, modgroup, qseries
from etaforge.campaigns import VerificationReport, random_unimodular_matrix
from etaforge.cli import main
from etaforge.dedekind import dedekind_sum_naive, floor_square_sum_check, omega
from etaforge.modgroup import ModularMatrix
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


@pytest.mark.parametrize("variant", RECIPROCITY_VARIANTS)
def test_reciprocity_checks_match_the_recorded_campaign(monkeypatch, variant):
    # recorded from one sweep per check; keys are --order values
    recorded = json.loads(RECIPROCITY_GOLDEN.read_text())[variant]
    if RECIPROCITY_VARIANTS[variant]:
        monkeypatch.setattr(campaigns, *RECIPROCITY_VARIANTS[variant])
    for order in RECIPROCITY_ORDERS:
        (report,) = campaigns.run_campaign("reciprocity", campaigns.CliConfig(order=order))
        assert reciprocity_checks(report) == recorded[str(order)], order


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
    return q, ModularMatrix(a * q - b, a, q * c - d, c)


_scaled, _CHI12 = dedekind._scaled_dedekind_sum, qseries._CHI12_TABLE
_jtp_product = qseries.jtp_product_side


def _jtp_product_plus_one_at_4_0(n_order):
    coeffs = dict(_jtp_product(n_order).coeffs)
    coeffs[(4, 0)] = coeffs.get((4, 0), 0) + 1
    return qseries.BiSeries(coeffs, n_order)


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
    "floor descent step q = d // c": [
        (modgroup, "descent_step", _floor_descent_step),
        (campaigns, "descent_step", _floor_descent_step),
    ],
    "SMALL_IM = 0.001": [(evaluate, "SMALL_IM", 0.001)],
    "jtp_product_side (4, 0) + 1": [(qseries, "jtp_product_side", _jtp_product_plus_one_at_4_0)],
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


def test_functional_eq_campaign_probes_large_real_parts():
    (report,) = campaigns.run_campaign("functional-eq", campaigns.CliConfig(trials=1))
    large_re = report.checks["large Re"]
    assert large_re.count == 6
    assert large_re.max_residual <= 1e-14
    assert report.trials == 1 + 2 + 6
