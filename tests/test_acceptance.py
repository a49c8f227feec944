"""Acceptance suite: the full exit criteria, each at its stated scale and
tolerance, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass.  The identity criteria read the named checks that the verification
campaigns record at full scale, so each identity has one implementation:
one seed-0 `verify all` run, shared with the performance budget of
criterion 12, plus `omega` at seed 2024 and `functional-eq` at seed 515.
A criterion's time budget covers the whole campaign that checks it.
"""

import json
import random
import time
from math import gcd
from pathlib import Path

import pytest

from etaforge import (
    CliConfig,
    GeneratorWord,
    dedekind_sum_fast,
    decompose,
    eta_pentagonal_eval,
    eta_product_eval,
    eta_transformed_eval,
    evaluate_word,
    reduce_to_fundamental_domain,
    run_campaign,
)
from etaforge.campaigns import reports_json

ETA_I_REFERENCE = 0.7682254223260566590025942  # 40-digit pentagonal oracle

# `etaforge verify all --format json --seed 0 --out tests/golden/verify_all_seed0.json`
GOLDEN_SEED0 = Path(__file__).parent / "golden" / "verify_all_seed0.json"
RECIPROCITY_GOLDEN = Path(__file__).parent / "golden" / "reciprocity_checks.json"


def announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS  {text}")


@pytest.fixture(scope="module")
def verify_all():
    """The default `verify all` run: reports by campaign, and its wall time."""
    start = time.perf_counter()
    reports = run_campaign("all", CliConfig(seed=0))
    elapsed = time.perf_counter() - start
    return {r.campaign: r for r in reports}, elapsed


def passed_check(report, name):
    check = report.checks[name]
    assert check.passed, check.failures
    return check


def test_01_pentagonal_identity_at_10000(verify_all):
    report = verify_all[0]["pentagonal"]
    passed_check(report, "euler == pentagonal at order 10000")
    elapsed = report.wall_time
    assert elapsed < 10.0, f"pentagonal campaign at order 10000 took {elapsed:.1f}s"
    announce(1, f"Euler product == pentagonal series at order 10000 in {elapsed:.1f}s")


def test_02_jacobi_triple_product_at_200(verify_all):
    report = verify_all[0]["jtp"]
    passed_check(report, "product == sum at w-order 200")
    elapsed = report.wall_time
    assert elapsed < 30.0, f"triple product campaign at w-order 200 took {elapsed:.1f}s"
    announce(2, f"triple product == theta sum at w-order 200 in {elapsed:.1f}s")


def test_03_shift_relation_residual_at_200(verify_all):
    passed_check(verify_all[0]["jtp"], "shift residual zero at w-order 200")
    announce(3, "shift relation residual identically zero at w-order 200")


def test_04_character_series_at_2400(verify_all):
    passed_check(verify_all[0]["pentagonal"], "char series == u * euler(u^24) at order 2400")
    announce(4, "character theta series == u * euler(u^24) to order 2400")


def test_05_dedekind_fast_equals_naive_to_300(verify_all):
    report = verify_all[0]["reciprocity"]
    count = passed_check(report, "fast == defining sum on coprime pairs <= 300").count
    elapsed = report.wall_time
    assert elapsed < 30.0, f"reciprocity campaign took {elapsed:.1f}s"
    announce(5, f"fast == defining sum on {count} coprime pairs (k <= 300) in {elapsed:.1f}s")


def test_06_dedekind_lemma_identities(verify_all):
    report = verify_all[0]["reciprocity"]
    for name in (
        "reciprocity on coprime pairs <= 500",
        "s(1, h) closed form for h <= 500",
        "periodicity on coprime pairs <= 200",
        "oddness on coprime pairs <= 200",
        "floor-sum identity on coprime pairs <= 200",
        "floor-square-sum identity on coprime pairs <= 200",
        "denominator of s(h, k) divides 6k for k <= 300 (all h)",
    ):
        passed_check(report, name)
    # every check's count, worst input and failures as recorded from one
    # sweep per check (tests/test_campaigns.py compares the smaller orders)
    recorded = json.loads(RECIPROCITY_GOLDEN.read_text())["honest"]["None"]
    assert [
        [c.name, c.exact, c.count, c.worst_input, [list(f) for f in c.failures]]
        for c in report.checks.values()
    ] == recorded
    announce(
        6,
        "reciprocity to 500; periodicity, oddness, floor-sum, floor-square-sum to 200; "
        "denominator | 6k to 300",
    )


def test_07_omega_integrality_and_recursion():
    (report,) = run_campaign("omega", CliConfig(seed=2024))
    passed_check(report, "omega integral on 10000 random matrices")
    passed_check(report, "omega descent recursion on 1000 matrices with c >= 2")
    announce(7, "omega integral on 10^4 random matrices; descent recursion exact on 10^3")


def test_08_functional_equation_campaign():
    (report,) = run_campaign("functional-eq", CliConfig(seed=515))
    random_trials = report.checks["random"]
    assert random_trials.count == 1000
    worst = random_trials.max_residual
    assert worst < 1e-10, f"max functional-equation residual {worst:.3e}"

    for special in ("special: S at tau = i", "closed forms, pentagonal route"):
        residual = report.checks[special].max_residual
        assert residual < 1e-12, f"{special}: residual {residual:.3e}"
    announce(8, f"functional equation: 10^3 random trials, max residual {worst:.2e}; specials OK")


def test_09_cross_representation_grid():
    worst = 0.0
    for i in range(10):
        im = 0.1 * (10.0 ** (i * 2.0 / 9.0))  # log-spaced in [0.1, 10]
        for j in range(10):
            re = -2.0 + j * 4.0 / 9.0
            tau = complex(re, im)
            product = eta_product_eval(tau, 1e-13).value
            pentagonal = eta_pentagonal_eval(tau, 1e-13).value
            transformed = eta_transformed_eval(tau, 1e-13).value
            for a, b in ((product, pentagonal), (product, transformed), (pentagonal, transformed)):
                worst = max(worst, abs(a - b) / abs(a))
    assert worst < 1e-12, f"max pairwise disagreement {worst:.3e}"

    value = eta_product_eval(1j, 1e-13).value
    assert abs(value - ETA_I_REFERENCE) / ETA_I_REFERENCE < 1e-10  # 10 digits
    announce(9, f"three evaluators agree on 100-point grid (worst {worst:.2e}); eta(i) to 10 digits")


def test_10_theta_and_poisson_identities(verify_all):
    worst = 0.0
    for campaign in ("theta", "poisson"):
        probes = verify_all[0][campaign].checks["fixed probes"]
        assert probes.count == 3
        assert probes.max_residual < 1e-12, f"max {campaign} residual {probes.max_residual:.3e}"
        worst = max(worst, probes.max_residual)
    announce(10, f"theta and Gaussian summation identities, max residual {worst:.2e}")


def test_11_decomposition_round_trip_and_reduction():
    rng = random.Random(77)
    for _ in range(10_000):
        factors = []
        for _ in range(rng.randint(1, 30)):
            factors.append(rng.randint(-20, 20))
            factors.append("S")
        mat = evaluate_word(GeneratorWord(tuple(factors)))
        assert evaluate_word(decompose(mat)) == mat, mat

    for _ in range(2000):
        tau = complex(rng.uniform(-8, 8), 10 ** rng.uniform(-3, 1))
        reduced, _ = reduce_to_fundamental_domain(tau)
        assert abs(reduced.real) <= 0.5 + 1e-12
        assert abs(reduced) >= 1.0 - 1e-12
    announce(11, "decompose round trip on 10^4 random words; reduction lands in the domain")


def test_12_performance_budgets(verify_all):
    h = 999_999_999_999_999_989
    k = 10**18 + 9
    assert gcd(h, k) == 1
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        dedekind_sum_fast(h, k)
        timings.append(time.perf_counter() - start)
    best = min(timings)
    assert best < 0.010, f"dedekind_sum_fast at k ~ 1e18 took {best * 1000:.2f} ms"

    reports, elapsed = verify_all
    assert all(r.passed for r in reports.values()), [
        name for name, r in reports.items() if not r.passed
    ]
    assert elapsed < 60.0, f"verify all took {elapsed:.1f}s"
    announce(
        12,
        f"dedekind_sum_fast at k ~ 1e18 in {best * 1000:.2f} ms; verify all in {elapsed:.1f}s",
    )


def test_verify_all_seed0_report_matches_golden(verify_all):
    reports, _ = verify_all
    expected = GOLDEN_SEED0.read_bytes()
    assert (reports_json(list(reports.values())) + "\n").encode() == expected
