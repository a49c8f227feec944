"""Command-line front end.

Subcommands: `eval` (eta values with tail bounds), `dedekind` (exact Dedekind
sums), `decompose` (generator words), and `verify` (identity campaigns with
human or JSON reports).

Exit codes: 0 all good, 1 verification failure (a check that raises is one),
2 usage or domain error, or a `verify --out` file that cannot be opened.
Complex arguments use the shell-safe literal RE+IMi, e.g. 0.5+0.001i; a
value with a leading minus may follow --tau as its own argument.
A `verify` report is fixed by its command line: the seed comes from --seed
alone, and each campaign's tolerance is its own, with no flag to change it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import nullcontext

from .campaigns import (
    CAMPAIGNS,
    JSON_SCHEMA_VERSION,
    CliConfig,
    _selected_campaigns,
    reports_json,
    run_campaign,
)
from .dedekind import dedekind_sum_fast, dedekind_sum_naive
from .evaluate import DEFAULT_TOL, EVAL_METHODS, SMALL_IM, ConvergenceBudgetError, eta_eval
from .modgroup import (
    ModularMatrix,
    NumericDegeneracyError,
    decompose,
    evaluate_word,
)

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


def parse_complex_literal(text: str) -> complex:
    """Parse RE+IMi (both parts required, sign on IM required), e.g. 0+1i."""
    match = _COMPLEX_RE.match(text.strip())
    if not match:
        raise ValueError(
            f"cannot parse {text!r} as a complex literal; expected RE+IMi, e.g. 0.5+0.001i"
        )
    return complex(float(match.group("re")), float(match.group("im")))


def _cmd_eval(args: argparse.Namespace) -> int:
    method, result = eta_eval(parse_complex_literal(args.tau), args.tol, args.method)
    if args.format == "json":
        payload = {
            "schema": JSON_SCHEMA_VERSION,
            "tau": args.tau,
            "method": method,
            "value_re": result.value.real,
            "value_im": result.value.imag,
            "tail_bound": result.tail_bound,
            "terms_used": result.terms_used,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        im = f"{result.value.imag:+.16g}"
        print(f"eta({args.tau}) = {result.value.real:.16g} {im[0]} {im[1:]}i")
        print(
            f"method={method} terms_used={result.terms_used} "
            f"tail_bound={result.tail_bound:.3e}"
        )
    return 0


def _cmd_dedekind(args: argparse.Namespace) -> int:
    h, k = args.h, args.k
    if args.mode == "naive":
        print(f"s({h}, {k}) = {dedekind_sum_naive(h, k)}")
        return 0
    if args.mode == "fast":
        print(f"s({h}, {k}) = {dedekind_sum_fast(h, k)}")
        return 0
    naive = dedekind_sum_naive(h, k)
    fast = dedekind_sum_fast(h, k)
    print(f"s({h}, {k}) = {naive} (naive) = {fast} (fast)")
    if naive != fast:
        print("error: naive and fast values disagree", file=sys.stderr)
        return 1
    print("equal: yes")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    mat = ModularMatrix(args.a, args.b, args.c, args.d)
    word = decompose(mat)
    print(str(word))
    if args.check:
        recomposed = evaluate_word(word)
        if recomposed != mat:
            print(
                f"error: word recomposes to {recomposed}, expected {mat}", file=sys.stderr
            )
            return 1
        print(f"check: OK, word recomposes to {recomposed}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = CliConfig(order=args.order, trials=args.trials, seed=args.seed)
    _selected_campaigns(args.suite, config)  # a knob past its limit exits 2 before --out opens
    # opened before any campaign runs, so a bad --out path fails at once
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as fh:
        reports = run_campaign(args.suite, config)
        json_text = reports_json(reports)
        if fh:
            fh.write(json_text + "\n")
    all_passed = all(r.passed for r in reports)
    if args.format == "json" and not args.out:
        print(json_text)
    else:
        for report in reports:
            for line in report.human_lines():
                print(line)
        total = sum(r.trials for r in reports)
        print(f"{'PASS' if all_passed else 'FAIL'}  overall: {total} checks")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etaforge",
        description="Dedekind eta toolkit: evaluation, exact Dedekind sums, "
        "generator words, and identity-verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate eta(tau) with a truncation bound")
    p_eval.add_argument("--tau", required=True, help="point as RE+IMi, e.g. 0+1i")
    p_eval.add_argument(
        "--method",
        choices=EVAL_METHODS,
        default="auto",
        help="series route; auto picks transformed below im = %s" % SMALL_IM,
    )
    p_eval.add_argument("--tol", type=float, default=DEFAULT_TOL, help="truncation tolerance")
    p_eval.add_argument("--format", choices=["human", "json"], default="human")
    p_eval.set_defaults(func=_cmd_eval)

    p_ded = sub.add_parser("dedekind", help="exact Dedekind sum s(h, k)")
    p_ded.add_argument("h", type=int)
    p_ded.add_argument("k", type=int)
    p_ded.add_argument(
        "--mode",
        choices=["naive", "fast", "both"],
        default="both",
        help="defining sum, logarithmic reciprocity descent, or cross-checked both",
    )
    p_ded.set_defaults(func=_cmd_dedekind)

    p_dec = sub.add_parser("decompose", help="write a matrix as a word in S and T")
    p_dec.add_argument("a", type=int)
    p_dec.add_argument("b", type=int)
    p_dec.add_argument("c", type=int)
    p_dec.add_argument("d", type=int)
    p_dec.add_argument("--check", action="store_true", help="re-multiply the word and confirm")
    p_dec.set_defaults(func=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="run an identity-verification campaign")
    p_ver.add_argument("suite", choices=[*CAMPAIGNS, "all"])
    p_ver.add_argument("--order", type=int, default=None, help="series truncation order")
    p_ver.add_argument("--trials", type=int, default=None, help="random trial count")
    p_ver.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p_ver.add_argument("--format", choices=["human", "json"], default="human")
    p_ver.add_argument("--out", default=None, help="write the JSON report to this file")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def _attach_tau_values(argv: list[str]) -> list[str]:
    """Join `--tau VALUE` into `--tau=VALUE` where VALUE is a complex literal,
    so argparse takes one with a leading minus (-0.3+0.7i) as the value."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] == "--tau" and _COMPLEX_RE.match(arg):
            joined[-1] = f"--tau={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_tau_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (OSError, ValueError, ConvergenceBudgetError, NumericDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
