"""Campaign recorder semantics: named checks, NaN residuals, and exact checks
that no tolerance can pass."""

import json
import math

import pytest

from etaforge import campaigns
from etaforge.campaigns import _Recorder
from etaforge.cli import main
from etaforge.dedekind import dedekind_sum_naive, omega
from etaforge.qseries import jtp_sum_side, pentagonal_series


def test_nan_residual_fails():
    rec = _Recorder("x", 1e-10, 0)
    rec.record("nan", math.nan)
    report = rec.report()
    assert not report.passed
    assert [desc for desc, _ in report.failures] == ["nan"]
    assert math.isnan(report.max_residual)


def test_named_checks_keep_count_and_worst_input():
    rec = _Recorder("x", 1e-10, 0)
    for desc, residual in (("a", 1e-12), ("b", 1e-11), ("c", 0.0)):
        rec.record(desc, residual, check="sweep")
    rec.record_sweep("sum", lambda n: n < 3, ((n,) for n in range(5)))
    report = rec.report()
    sweep, exact = report.checks["sweep"], report.checks["sum"]
    assert (sweep.exact, sweep.count, sweep.worst_input, sweep.passed) == (False, 3, "b", True)
    assert (exact.exact, exact.count, exact.worst_input, exact.passed) == (True, 5, "3", False)
    assert report.trials == 4  # an exact check is one trial
    assert report.failures == [("sum (first failure 3)", 1.0)]


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
    code = main(["verify", campaign, flag, value, "--tol", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["passed"] is False
    assert payload["failures"] and all(f["residual"] == 1.0 for f in payload["failures"])
