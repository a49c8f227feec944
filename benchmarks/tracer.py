"""Span tracing around etaforge's public functions, installed only for traced runs.

Each wrapper replaces a function at the name its caller looks up (for example
both `campaigns.dedekind_sum_fast` and `dedekind.dedekind_sum_fast`, which
`omega` uses), so a call is seen whichever module makes it.  Spans are kept in
memory as parallel arrays (name, parent, start, end) and written out after the
run.  Work counts are derived from call arguments and return values, never from
program internals, so they repeat exactly for the same inputs.

Untraced runs never import the wrappers into the program: `Tracer.install` is
the only place that patches anything, and `Tracer.uninstall` restores every
patched name.
"""

from __future__ import annotations

import json
import random
import time
from array import array
from collections import defaultdict
from pathlib import Path

from etaforge import campaigns, cli, dedekind, evaluate, modgroup, qseries


def _euclid_steps(h: int, k: int) -> int:
    """Reciprocity steps dedekind_sum_fast takes: the Euclid length of (h mod k, k)."""
    h %= k
    steps = 0
    while h > 0:
        h, k = k % h, h
        steps += 1
    return steps


def _terms(args, result):
    return result.terms_used


def _coeffs(args, result):
    return len(result.coeffs)


# span name -> (qty, capture, finish): capture(args, result) runs in the traced
# call and must be cheap; finish(captured) turns it into the count afterwards.
_WORK = {
    "dedekind.dedekind_sum_fast": ("steps", lambda args, result: args, lambda a: _euclid_steps(*a)),
    "dedekind.dedekind_sum_naive": ("terms", lambda args, result: max(args[1] - 1, 0), int),
    "evaluate.eta_pentagonal_eval": ("terms", _terms, int),
    "evaluate.eta_char_eval": ("terms", _terms, int),
    "evaluate.eta_product_eval": ("terms", _terms, int),
}
_QSERIES_PRODUCERS = (
    "euler_product_series",
    "pentagonal_series",
    "jtp_product_side",
    "jtp_sum_side",
    "jtp_shift_residual",
    "eta_char_qseries",
)
for _fn in _QSERIES_PRODUCERS:
    _WORK[f"qseries.{_fn}"] = ("coeffs", _coeffs, int)

# (owner, attribute, span name): every lookup site the program uses.
_SITES = [
    (cli, "main", "cli.main"),
    (campaigns, "random_unimodular_matrix", "campaigns.random_unimodular_matrix"),
    (campaigns, "dedekind_sum_fast", "dedekind.dedekind_sum_fast"),
    (dedekind, "dedekind_sum_fast", "dedekind.dedekind_sum_fast"),
    (campaigns, "dedekind_sum_naive", "dedekind.dedekind_sum_naive"),
    (campaigns, "floor_sum_check", "dedekind.floor_checks"),
    (campaigns, "floor_square_sum_check", "dedekind.floor_checks"),
    (campaigns, "omega", "dedekind.omega"),
    (evaluate, "omega", "dedekind.omega"),
    (modgroup.ModularMatrix, "__matmul__", "modgroup.matmul"),
    (evaluate, "reduce_to_fundamental_domain", "modgroup.reduce_to_fundamental_domain"),
    (evaluate, "apply_mobius", "modgroup.apply_mobius"),
    (evaluate, "eta_pentagonal_eval", "evaluate.eta_pentagonal_eval"),
    (campaigns, "eta_pentagonal_eval", "evaluate.eta_pentagonal_eval"),
    (evaluate, "eta_char_eval", "evaluate.eta_char_eval"),
    (evaluate, "eta_product_eval", "evaluate.eta_product_eval"),
    (evaluate, "eta_transformed_eval", "evaluate.eta_transformed_eval"),
    (evaluate, "transform_factor", "evaluate.transform_factor"),
    (evaluate, "functional_eq_residual", "evaluate.functional_eq_residual"),
    (campaigns, "functional_eq_residual", "evaluate.functional_eq_residual"),
    (campaigns, "theta_identity_residual", "evaluate.theta_identity_residual"),
    (campaigns, "gaussian_poisson_residual", "evaluate.gaussian_poisson_residual"),
    (qseries, "jtp_product_side", "qseries.jtp_product_side"),
] + [(campaigns, fn, f"qseries.{fn}") for fn in _QSERIES_PRODUCERS]

# Per-layer metric -> (end-to-end metric it should move, workloads where it does).
LAYER_MAP = {
    "qseries.euler_product_series": ("wall_s", ["series-exact", "verify-all"]),
    "qseries.jtp_product_side": ("wall_s", ["series-exact", "verify-all"]),
    "qseries.jtp_shift_residual": ("wall_s", ["series-exact", "verify-all"]),
    "qseries.coeffs": ("peak_rss_mb", ["series-exact"]),
    "dedekind.dedekind_sum_fast": ("wall_s; op_p50_us, op_p99_us", ["verify-all", "eta-eval"]),
    "dedekind.dedekind_sum_naive": ("wall_s", ["verify-all"]),
    "dedekind.floor_checks": ("wall_s", ["verify-all"]),
    "dedekind.omega": ("wall_s; op_p50_us, op_p99_us", ["verify-all", "eta-eval"]),
    "modgroup.matmul": ("wall_s", ["verify-all"]),
    "modgroup.reduce_to_fundamental_domain": ("op_p99_us", ["eta-eval"]),
    "modgroup.apply_mobius": ("op_p99_us", ["eta-eval"]),
    "evaluate.*": ("op_p50_us, ops_per_s", ["eta-eval"]),
    "campaigns.*": ("wall_s", ["verify-all"]),
    "cli.main": ("wall_s", ["verify-all"]),
    "trace.overhead_ratio": ("none: traced wall_s / untraced wall_s", ["all"]),
}


class Tracer:
    """Collects spans from wrapped etaforge functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._captured: list[tuple[int, object]] = []
        self._patches: list[tuple[object, str, object]] = []
        # campaign span name -> matrix candidates drawn by rngs it created
        self.candidates: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        capture = _WORK[name][1] if name in _WORK else None
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        captured = self._captured
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if capture is not None:
                captured.append((idx, capture(args, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def current_span(self) -> str:
        top = self._stack[-1]
        return self.names[self.span_name[top]] if top >= 0 else ""

    def install(self) -> None:
        for owner, attr, name in _SITES:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        table = campaigns.CAMPAIGNS
        for key, runner in list(table.items()):
            self._patches.append((table, key, runner))
            table[key] = self._wrap(runner, f"campaigns.{key}")
        # random_unimodular_matrix draws its factor count from [1, max_t_factors]
        # once per candidate (its documented draw order), so counting randint
        # calls with lower bound 1 counts candidates built.
        tracer = self

        class CountingRandom(random.Random):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.owner = tracer.current_span()

            def randint(self, a, b):
                if a == 1:
                    tracer.candidates[self.owner] += 1
                return super().randint(a, b)

        shim = type(random)("random")
        shim.__dict__.update(random.__dict__)
        shim.Random = CountingRandom
        self._patches.append((campaigns, "random", campaigns.random))
        campaigns.random = shim

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-span-name calls, self time, inclusive time and work counts.

        Every installed span name and work count is present, as zero when the
        workload never reached it.
        """
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        ids = self._name_ids
        reduce_id = ids["modgroup.reduce_to_fundamental_domain"]
        matmul_id = ids["modgroup.matmul"]
        draw_id = ids["campaigns.random_unimodular_matrix"]
        omega_campaign_id = ids["campaigns.omega"]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        busy_s = [0.0] * len(self.names)
        reduce_steps = 0
        drawn_in_omega = 0
        for i in range(n):
            name_id = names[i]
            dur = ends[i] - starts[i]
            calls[name_id] += 1
            self_s[name_id] += dur - child[i]
            busy_s[name_id] += dur
            p = parents[i]
            if p >= 0:
                # reduction steps: the translations and inversions it composes
                if name_id == matmul_id and names[p] == reduce_id:
                    reduce_steps += 1
                elif name_id == draw_id and names[p] == omega_campaign_id:
                    drawn_in_omega += 1

        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_s[name_id]
            out[f"{name}.busy_s"] = busy_s[name_id]
        work_key = {
            name: "qseries.coeffs" if qty == "coeffs" else f"{name}.{qty}"
            for name, (qty, _, _) in _WORK.items()
        }
        for key in work_key.values():
            out[key] = 0
        for idx, value in self._captured:
            name = self.names[names[idx]]
            out[work_key[name]] += _WORK[name][2](value)
        out["modgroup.reduce_to_fundamental_domain.steps"] = reduce_steps
        candidates = self.candidates.get("campaigns.omega", 0)
        out["campaigns.omega.draw_yield"] = drawn_in_omega / candidates if candidates else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as raw arrays (names in a JSON header beside them)."""
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = {
            "spans": len(self.span_name),
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "names": self.names,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
