"""The three benchmark workloads: inputs from a seed, one operation, output checks.

Every workload is one closed-loop client on one thread: the next operation
starts only when the previous one has returned.  An operation fails when the
program raises or when one of its output checks rejects the result; `failed`
counts every such operation, which is never retried or filtered out.

`correct` is stricter: it turns false when an exact result is wrong, that is
when a verify-all or series-exact report does not pass or does not repeat
byte for byte.  An eta-eval check that rejects a floating-point result feeds
`failed` only.

The eta-eval pool stays inside the domain where the program is known to be
correct, so no operation is expected to fail.  Two known defects lie outside
it; `defect_probes()` reproduces each at one fixed input in every run, so
they stay visible without failing operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import tempfile
import time
from array import array
from dataclasses import dataclass, field

from etaforge import campaigns, cli, evaluate
from etaforge.modgroup import ModularMatrix


@dataclass
class Tally:
    """Outcome counts and latency samples of one run."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    op_start: array = field(default_factory=lambda: array("d"))  # per completed op
    op_s: array = field(default_factory=lambda: array("d"))

    def done(self, start: float, elapsed: float) -> None:
        self.op_start.append(start)
        self.op_s.append(elapsed)

    def error(self, exc: BaseException) -> None:
        self.failed += 1
        key = type(exc).__name__
        self.errors[key] = self.errors.get(key, 0) + 1

    def reject(self) -> None:
        self.failed += 1

    def reject_exact(self) -> None:
        self.failed += 1
        self.wrong += 1


class VerifyAll:
    """`etaforge verify all` in-process, default config, JSON report to a file.

    The headline user command.  One operation is one `cli.main` call; its
    report must pass and be byte-identical to the first report of the run.
    """

    name = "verify-all"
    min_units = 2

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        fd, self.path = tempfile.mkstemp(prefix="verify-all-", suffix=".json", dir=out_dir)
        os.close(fd)
        self.first_report: bytes | None = None

    def close(self) -> None:
        os.unlink(self.path)

    def unit(self, tally: Tally) -> None:
        argv = ["verify", "all", "--seed", str(self.seed), "--format", "json", "--out", self.path]
        tally.attempted += 1
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            tally.error(exc)
            return
        elapsed = time.perf_counter() - start
        with open(self.path, "rb") as fh:
            report = fh.read()
        if self.first_report is None:
            self.first_report = report
        try:
            payload = json.loads(report)
        except ValueError:
            payload = {"passed": False, "reports": []}
        ok = (
            rc == 0
            and report == self.first_report
            and payload["passed"] is True
            and len(payload["reports"]) == len(campaigns.CAMPAIGNS)
            and all(r["passed"] for r in payload["reports"])
            and captured.getvalue().rstrip().rpartition("\n")[2].startswith("PASS  overall")
        )
        if not ok:
            tally.reject_exact()
            return
        tally.done(start, elapsed)


class SeriesExact:
    """The exact q-series campaigns: pentagonal at its default order 10^4 (dense
    Euler product) and jtp at order 500 (sparse two-variable series).

    The seed has no effect on these campaigns.  One operation runs both; every
    exact check must pass and the JSON reports must repeat byte for byte.
    """

    name = "series-exact"
    min_units = 2
    CONFIGS = (("pentagonal", None), ("jtp", 500))

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.first_reports: list[str] | None = None

    def close(self) -> None:
        pass

    def unit(self, tally: Tally) -> None:
        tally.attempted += 1
        start = time.perf_counter()
        try:
            reports = [
                report
                for name, order in self.CONFIGS
                for report in campaigns.run_campaign(
                    name, campaigns.CliConfig(order=order, seed=self.seed)
                )
            ]
        except Exception as exc:
            tally.error(exc)
            return
        elapsed = time.perf_counter() - start
        texts = [r.to_json() for r in reports]
        if self.first_reports is None:
            self.first_reports = texts
        if not (all(r.passed for r in reports) and texts == self.first_reports):
            tally.reject_exact()
            return
        tally.done(start, elapsed)


# Direct series routes only run at or above this height, where each needs a few
# hundred terms at most.  A benchmark constant, independent of evaluate.SMALL_IM.
# Below about 0.025 the direct pentagonal and character series lose relative
# precision past ROUTE_TOL when |Re tau| >= 1, because they do not split off the
# integer part of Re tau (see LARGE_RE_PROBE).
DIRECT_MIN_IM = 0.03
# Points whose reduced height exceeds this are redrawn: there |eta| is near
# 1e-227 or smaller, and past a height of about 2700 it is below the float64
# normal range, where the program returns 0 and functional_eq_residual divides
# by it (see UNDERFLOW_PROBE).
MAX_REDUCED_HEIGHT = 2000.0
UNDERFLOW_PROBE = complex(0.3, 1e-300)
LARGE_RE_PROBE = complex(-1.9958923010938387, 0.020140973318589484)
ROUTE_TOL = 1e-10
RESIDUAL_TOL = 1e-10
ROUTES = ("eta_pentagonal_eval", "eta_char_eval", "eta_product_eval")


def st_word_matrix(rng: random.Random, max_entry: int = 10**6) -> ModularMatrix:
    """A modular matrix with c >= 1, built as a word (T^m S)^k in plain ints.

    Independent of the program's own matrix draws, so a change to those cannot
    change this workload's inputs.
    """
    while True:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randint(1, 12)):
            m = rng.randint(-9, 9)
            a, b, c, d = a * m + b, -a, c * m + d, -c
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        if c >= 1 and max(abs(a), abs(b), c, abs(d)) <= max_entry:
            return ModularMatrix(a, b, c, d)


def reduced_height(tau: complex) -> float:
    """Im of tau moved into the fundamental domain, by plain float steps."""
    x, y = tau.real, tau.imag
    while True:
        x -= math.floor(x + 0.5)
        r2 = x * x + y * y
        if r2 >= 1.0:
            return y
        x, y = -x / r2, y / r2


def defect_probes() -> dict[str, str]:
    """One fixed input per known defect that the eta-eval pool avoids, and
    what the program does there now; untimed and not counted as operations."""
    under = evaluate.eta_transformed_eval(UNDERFLOW_PROBE)
    base = evaluate.eta_transformed_eval(LARGE_RE_PROBE).value
    direct = evaluate.eta_pentagonal_eval(LARGE_RE_PROBE).value
    return {
        f"underflow at {UNDERFLOW_PROBE}":
            f"eta_transformed_eval = {under.value}, tail_bound = {under.tail_bound}",
        f"large Re direct series at {LARGE_RE_PROBE}":
            f"eta_pentagonal_eval relative disagreement = {abs(direct - base) / abs(base):.3g}",
    }


@dataclass(frozen=True)
class EtaPoint:
    tau: complex
    mat: ModularMatrix
    route: str | None


class EtaEval:
    """Floating-point eta at seeded points, cross-checked route against route.

    Points have Im log-uniform over [1e-8, 3] and Re uniform over [-2, 2], each
    with a matrix from the benchmark's own S/T-word generator; a point with
    reduced height above MAX_REDUCED_HEIGHT is redrawn in its strata.  One
    operation is eta_transformed_eval, one direct route (rotating pentagonal, character,
    product) when Im >= DIRECT_MIN_IM, and functional_eq_residual.  A unit is
    one pass over the whole pool.
    """

    name = "eta-eval"
    min_units = 2
    POOL = 2048

    def __init__(self, seed: int, out_dir: str):
        self.points, self.redrawn = self.make_points(seed)
        self.max_rel_disagreement = 0.0
        # (Im decade, route) -> latency samples and terms, for the height ladder
        self.ladder: dict[tuple[int, str], list[tuple[float, int]]] | None = None

    @classmethod
    def make_points(cls, seed: int) -> tuple[list[EtaPoint], int]:
        """A Latin-hypercube sample: each of POOL equal strata of log Im and of
        Re holds exactly one point, so pools from different seeds share their
        height profile and differ only in where each point sits in its stratum.
        Also returns how many draws were redrawn for their reduced height."""
        rng = random.Random(seed)
        im_strata = list(range(cls.POOL))
        re_strata = list(range(cls.POOL))
        rng.shuffle(im_strata)
        rng.shuffle(re_strata)
        lo, hi = -8.0, math.log10(3.0)
        points = []
        redrawn = 0
        for i in range(cls.POOL):
            while True:
                im = 10.0 ** (lo + (hi - lo) * (im_strata[i] + rng.random()) / cls.POOL)
                re = -2.0 + 4.0 * (re_strata[i] + rng.random()) / cls.POOL
                if reduced_height(complex(re, im)) <= MAX_REDUCED_HEIGHT:
                    break
                redrawn += 1
            route = ROUTES[i % len(ROUTES)] if im >= DIRECT_MIN_IM else None
            points.append(EtaPoint(complex(re, im), st_word_matrix(rng), route))
        return points, redrawn

    def close(self) -> None:
        pass

    def notes(self) -> dict:
        return {"pool_redrawn": self.redrawn, "known_defect_probes": defect_probes()}

    def unit(self, tally: Tally) -> None:
        clock = time.perf_counter
        ladder = self.ladder
        for p in self.points:
            tally.attempted += 1
            direct = None
            try:
                t0 = clock()
                base = evaluate.eta_transformed_eval(p.tau)
                t1 = clock()
                if p.route is not None:
                    direct = getattr(evaluate, p.route)(p.tau)
                t2 = clock()
                residual = evaluate.functional_eq_residual(p.mat, p.tau)
                t3 = clock()
            except Exception as exc:
                tally.error(exc)
                continue
            value = base.value
            ok = math.isfinite(abs(value)) and value != 0 and residual <= RESIDUAL_TOL
            if ok and direct is not None:
                rel = abs(direct.value - value) / abs(value)
                self.max_rel_disagreement = max(self.max_rel_disagreement, rel)
                ok = rel <= ROUTE_TOL
            if not ok:
                tally.reject()
                continue
            tally.done(t0, t3 - t0)
            if ladder is not None:
                decade = math.floor(math.log10(p.tau.imag))
                ladder.setdefault((decade, "eta_transformed_eval"), []).append(
                    (t1 - t0, base.terms_used)
                )
                if direct is not None:
                    ladder.setdefault((decade, p.route), []).append((t2 - t1, direct.terms_used))


WORKLOADS = {w.name: w for w in (VerifyAll, EtaEval, SeriesExact)}
