"""The benchmark's span tracer against the package: every name it patches must
exist where the program looks it up, and uninstalling must restore each one.

The tracer lives in `benchmarks/` and patches the package from outside, so a
rename inside the package would otherwise only show when a traced benchmark
run fails.
"""

import importlib.util
import inspect
import random
from pathlib import Path

from etaforge import campaigns

_TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
_spec = importlib.util.spec_from_file_location("tracer", _TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _site(owner, attr):
    return f"{getattr(owner, '__name__', owner)}.{attr}"


def test_every_site_exists():
    missing = [_site(owner, attr) for owner, attr, _ in tracer._SITES if not hasattr(owner, attr)]
    assert not missing, f"tracer sites missing from the package: {missing}"


def test_install_wraps_and_uninstall_restores_every_site():
    sites = [(owner, attr) for owner, attr, _ in tracer._SITES]
    originals = [getattr(owner, attr) for owner, attr in sites]
    runners = dict(campaigns.CAMPAIGNS)
    spans = tracer.Tracer()
    spans.install()
    try:
        for (owner, attr), original in zip(sites, originals):
            patched = getattr(owner, attr)
            assert patched is not original and inspect.unwrap(patched) is original, (
                _site(owner, attr)
            )
        campaigns.run_campaign("reciprocity", campaigns.CliConfig(order=10))
        campaigns.run_campaign("jtp", campaigns.CliConfig(order=10))
        campaigns.run_campaign("pentagonal", campaigns.CliConfig(order=10))
        for name in ("theta", "poisson"):
            campaigns.run_campaign(name, campaigns.CliConfig(trials=2))
        metrics = spans.layer_metrics()
    finally:
        spans.uninstall()
    # one defining sum per pair k <= 10, 0 <= h < k; one triple-product
    # expansion serves every check of the jtp campaign
    assert metrics["dedekind.dedekind_sum_naive.calls"] == 55
    # the campaign reads every Dedekind sum from the integer kernel, so these
    # are floor_square_sum_check's own calls, one per coprime pair
    assert metrics["dedekind.dedekind_sum_fast.calls"] == 31
    # each campaign builds its product once: pentagonal the Euler product,
    # jtp the triple-product expansion
    assert metrics["qseries.euler_product_series.calls"] == 1
    assert metrics["qseries.jtp_product_side.calls"] == 1
    # three fixed probes and two draws each; the runners look up their
    # residual when they run, so the patched one is counted
    assert metrics["evaluate.theta_identity_residual.calls"] == 3 + 2
    assert metrics["evaluate.gaussian_poisson_residual.calls"] == 3 + 2
    left_patched = [
        _site(owner, attr)
        for (owner, attr), original in zip(sites, originals)
        if getattr(owner, attr) is not original
    ]
    assert not left_patched, f"names left patched: {left_patched}"
    assert campaigns.CAMPAIGNS == runners
    assert campaigns.random is random
