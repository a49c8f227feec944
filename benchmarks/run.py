"""etaforge benchmark: one closed-loop client, one thread, three workloads.

    python3 benchmarks/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`, so no
install is needed.  Workloads (see workloads.py and BENCHMARK.json):

    verify-all    `etaforge verify all` in-process, JSON report to a file
    eta-eval      eta by reduction, by a direct series and through the
                  transformation law, at seeded points down to Im 1e-8
    series-exact  the pentagonal (order 10^4) and jtp (order 500) campaigns

With `--trace 0` the run repeats whole units (a verify-all command, a
series-exact pair, or one pass over the eta-eval pool) until the next would
end past `--seconds`, at least twice, and reports the end-to-end metrics as
medians over units and operations.  With `--trace 1` it runs one unit plain
and one under the span tracer (tracer.py) and reports the per-layer metrics,
including the tracing overhead; eta-eval also prints the per-route latency
ladder by Im decade.  Every eta-eval run prints how many pool points were
redrawn to stay in float64 range and reproduces the known defects the pool
avoids at fixed inputs, untimed (workloads.defect_probes).

Times are scaled to a fixed host speed.  Small shared hosts drift by 1.5x or
more for seconds to minutes at a time, which no amount of repetition inside one
run averages out.  So a fixed pure-Python calibration loop, which imports
nothing from etaforge, runs around every timed stretch and every
SAMPLE_INTERVAL_S inside it, and each time is multiplied by
CAL_REF_S / (mean calibration time).  A change to etaforge moves the scaled
times exactly as it moves the raw ones; the scale factors are kept in the
result file.

Human-readable lines go first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Every result, with the
Python version, core count, seed and commit, is also written to
`.bench_out/` at the repository root, and traced runs write their spans there.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 11
# _calibration_loop() in the fast state of a 2-core x86-64 host, Python 3.11.7.
CAL_REF_S = 0.007


def _calibration_loop() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    z = 0j
    table = {}
    for i in range(1, 2001):
        acc += Fraction(i % 7 + 1, i)
        z += cmath.exp(1j * i * 0.001)
        table[i % 64] = (i, i * i % 97)
    return time.perf_counter() - start


class ScaledClock:
    """Times stretches of work and scales each to the CAL_REF_S host speed.

    The calibration loop runs three times before and after a stretch and, for
    stretches timed with `sample=True`, also from a SIGALRM handler every
    SAMPLE_INTERVAL_S, so a speed change in the middle of a long unit is seen.
    The handler's own time is subtracted from the stretch.
    """

    SAMPLE_INTERVAL_S = 0.25

    def __init__(self):
        self.edge = [_calibration_loop() for _ in range(3)]
        self.scales: list[float] = []
        self.interruptions: list[tuple[float, float]] = []  # (start, seconds)

    def _on_alarm(self, signum, frame) -> None:
        self.interruptions.append((time.perf_counter(), _calibration_loop()))

    def time(self, fn, sample: bool = True) -> tuple[float, float]:
        """(scaled seconds, raw seconds) of fn()."""
        first = len(self.interruptions)
        if sample:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        try:
            start = time.perf_counter()
            fn()
            raw = time.perf_counter() - start
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        inside = [seconds for _, seconds in self.interruptions[first:]]
        raw -= sum(inside)
        after = [_calibration_loop() for _ in range(3)]
        cal = self.edge + inside + after
        self.edge = after
        scale = CAL_REF_S / (sum(cal) / len(cal))
        self.scales.append(scale)
        return raw * scale, raw


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolated inside the observed range."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload_cls, seed: int, clock: ScaledClock):
    """Median over SETUP_REPEATS of a fresh-interpreter `import etaforge` plus
    the workload's input generation; returns (scaled seconds, last workload built)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import etaforge"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode once
    samples = []
    built = []

    def repeats():
        for _ in range(SETUP_REPEATS):
            if built:
                built.pop().close()
            start = time.perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True)
            built.append(workload_cls(seed, str(OUT_DIR)))
            samples.append(time.perf_counter() - start)

    # no in-stretch sampling: the handler would compete with the child process
    scaled, raw = clock.time(repeats, sample=False)
    return statistics.median(samples) * scaled / raw, built.pop()


def timed_run(workload, tally, seconds: float, clock: ScaledClock):
    """Closed loop of whole units until the next would overrun `seconds`.

    Returns (scaled unit time, scale, slice of tally.op_s it completed) per unit.
    """
    units = []
    loop_start = time.perf_counter()
    while True:
        first_op = len(tally.op_s)
        scaled, raw = clock.time(lambda: workload.unit(tally))
        units.append((scaled, scaled / raw, slice(first_op, len(tally.op_s))))
        if len(units) >= workload.min_units and time.perf_counter() + raw > loop_start + seconds:
            return units


def end_to_end(units, tally, clock: ScaledClock) -> tuple[dict, dict]:
    unit_s = [u[0] for u in units]
    op_s = array("d", tally.op_s)
    for start, seconds in clock.interruptions:
        i = bisect.bisect_right(tally.op_start, start) - 1
        if i >= 0 and start < tally.op_start[i] + tally.op_s[i]:
            op_s[i] -= seconds
    ops = [lat * scale for _, scale, done in units for lat in op_s[done]] or unit_s
    completed = sum(u[2].stop - u[2].start for u in units)
    values = {
        "wall_s": statistics.median(unit_s),
        "ops_per_s": completed / sum(unit_s),
        "op_p50_us": statistics.median(ops) * 1e6,
        "op_p99_us": quantile(ops, 99) * 1e6,
    }
    samples = {"wall_s": len(units), "op_p50_us": len(ops), "op_p99_us": len(ops)}
    return values, samples


def ladder_lines(ladder) -> tuple[list[str], list[dict]]:
    rows = []
    for (decade, route), samples in sorted(ladder.items()):
        lat = sorted(s[0] for s in samples)
        rows.append(
            {
                "im_decade": f"1e{decade}",
                "route": route,
                "n": len(samples),
                "p50_us": statistics.median(lat) * 1e6,
                "p90_us": quantile(lat, 90) * 1e6,
                "terms_p50": statistics.median(s[1] for s in samples),
            }
        )
    lines = ["height ladder (untraced, raw): Im decade, route, n, p50 us, p90 us, median terms"]
    lines += [
        f"  {r['im_decade']:>6} {r['route']:<21} {r['n']:>4} {r['p50_us']:9.1f} "
        f"{r['p90_us']:9.1f} {r['terms_p50']:7g}"
        for r in rows
    ]
    return lines, rows


def traced_run(workload, tally, clock: ScaledClock, extra: dict) -> dict:
    """One plain unit, then one unit under the tracer; per-layer metrics."""
    from tracer import LAYER_MAP, Tracer

    has_ladder = hasattr(workload, "ladder")
    if has_ladder:
        workload.ladder = {}
    plain_s, _ = clock.time(lambda: workload.unit(tally))
    if has_ladder:
        lines, extra["ladder"] = ladder_lines(workload.ladder)
        print("\n".join(lines))
        workload.ladder = None
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, _ = clock.time(lambda: workload.unit(tally))
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics()
    values["trace.overhead_ratio"] = traced_s / plain_s
    values["evaluate.max_rel_disagreement"] = getattr(workload, "max_rel_disagreement", 0.0)
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}")
    extra["layer_map"] = LAYER_MAP
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "etaforge" / "__init__.py").is_file():
        print(f"error: no etaforge sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "commit": git_commit(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))

    clock = ScaledClock()
    setup_s, workload = measure_setup(WORKLOADS[args.workload], args.seed, clock)
    tally = Tally()
    extra: dict = workload.notes() if hasattr(workload, "notes") else {}
    for key, value in extra.items():
        print(f"{key}: {json.dumps(value)}")
    samples: dict = {}
    try:
        if args.trace == 0:
            units = timed_run(workload, tally, args.seconds, clock)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values, samples = end_to_end(units, tally, clock)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = peak_rss_mb
            samples["setup_s"] = SETUP_REPEATS
            metric_specs = spec["end_to_end"]
        else:
            values = traced_run(workload, tally, clock, extra)
            metric_specs = spec["per_layer"]
    finally:
        workload.close()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    for name, m in metrics.items():
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{count}")
    print(f"speed scale factors: median {statistics.median(clock.scales):.4g}, "
          f"min {min(clock.scales):.4g}, max {max(clock.scales):.4g}")
    fail_ratio = tally.failed / tally.attempted
    print(
        f"fail_ratio = {fail_ratio:.6g} ({tally.failed} failed / {tally.attempted} attempted; "
        f"wrong exact results {tally.wrong}; errors {tally.errors or 'none'})"
    )
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(meta, result=result, fail_ratio=fail_ratio, errors=tally.errors,
                  samples=samples, scales=clock.scales, **extra)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
