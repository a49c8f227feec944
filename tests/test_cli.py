"""Command-line interface: output contracts, exit codes, and report determinism."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from etaforge import campaigns, cli, dedekind, evaluate
from etaforge.cli import main, parse_complex_literal
from etaforge.dedekind import omega
from etaforge.modgroup import ModularMatrix

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- literal parsing -----------------------------------------------------------


def test_parse_complex_literal():
    assert parse_complex_literal("0+1i") == 1j
    assert parse_complex_literal("0.5+0.001i") == 0.5 + 0.001j
    assert parse_complex_literal("-1.5-2e-3i") == complex(-1.5, -0.002)
    with pytest.raises(ValueError):
        parse_complex_literal("1j")
    with pytest.raises(ValueError):
        parse_complex_literal("not-a-number")


# --- README examples ---------------------------------------------------------


def test_readme_cli_examples_run(capsys):
    # every `etaforge` line of the CLI block but `verify` (covered elsewhere)
    # exits 0 and prints what its comment quotes, the text before any ";"
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if not line.startswith("etaforge verify")]
    assert len(lines) == 7
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, _ = run(capsys, *shlex.split(command)[1:])
        assert code == 0, line
        assert comment.split(";")[0].strip() in out, line
    # each literal of the complex-argument paragraph evaluates
    paragraph = text.split("Complex arguments use", 1)[1].split("\n\n", 1)[0]
    literals = [lit for lit in re.findall(r"`([^`]*)`", paragraph) if re.search(r"\d", lit)]
    assert len(literals) == 4
    for literal in literals:
        tau = literal.split()[-1]  # "--tau -0.3+0.7i" passes its value on its own
        code, out, _ = run(capsys, "eval", "--tau", tau)
        assert code == 0, literal
        assert out.startswith(f"eta({tau}) = "), literal


# --- eval ------------------------------------------------------------------------


def test_eval_at_i(capsys):
    code, out, _ = run(capsys, "eval", "--tau", "0+1i")
    assert code == 0
    assert "0.768225" in out
    assert "tail_bound" in out


def test_eval_at_10i(capsys):
    code, out, _ = run(capsys, "eval", "--tau", "0+10i")
    assert code == 0
    assert "0.0729490" in out  # e^(-10 pi / 12)


def test_eval_transformed_near_axis(capsys):
    code, out, _ = run(capsys, "eval", "--tau", "0.5+0.001i", "--method", "transformed")
    assert code == 0
    assert "method=transformed" in out


def test_eval_auto_picks_transformed(capsys):
    code, out, _ = run(capsys, "eval", "--tau", "0.5+0.001i")
    assert code == 0
    assert "method=transformed" in out


@pytest.mark.parametrize("tau, method", [("0+0.049i", "transformed"), ("0+0.05i", "pentagonal")])
def test_eval_auto_crossover(capsys, tau, method):
    code, out, _ = run(capsys, "eval", "--tau", tau)
    assert code == 0
    assert f"method={method} " in out


def test_eval_tau_with_negative_real_part_as_its_own_argument(capsys):
    for fmt in ("human", "json"):
        code, out, err = run(capsys, "eval", "--tau", "-0.3+0.7i", "--format", fmt)
        assert (code, err) == (0, "")
        assert run(capsys, "eval", "--tau=-0.3+0.7i", "--format", fmt) == (code, out, err)
    assert json.loads(out)["tau"] == "-0.3+0.7i"


@pytest.mark.parametrize("tau, sign", [(-0.3 + 0.7j, "-"), (0.3 + 0.7j, "+")])
def test_eval_human_output_signs_the_imaginary_part(capsys, tau, sign):
    value = evaluate.eta_eval(tau)[1].value
    assert (value.imag < 0) == (sign == "-")
    literal = f"{tau.real}+{tau.imag}i"
    _, out, _ = run(capsys, "eval", "--tau", literal)
    assert out.splitlines()[0] == (
        f"eta({literal}) = {value.real:.16g} {sign} {abs(value.imag):.16g}i"
    )


def test_eval_json_format(capsys):
    code, out, _ = run(capsys, "eval", "--tau", "0+1i", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert abs(payload["value_re"] - 0.7682254223260566) < 1e-12


# Each (tau, method) of `eval --format json` at ten points, with its exit code,
# stdout and stderr, as the CLI printed them when the file was written.
EVAL_GOLDEN = Path(__file__).resolve().parent / "golden" / "eval_json.json"


def test_eval_json_matches_the_golden_file(capsys):
    recorded = json.loads(EVAL_GOLDEN.read_text())
    assert len(recorded) == 40
    assert sum(entry["exit"] == 2 for entry in recorded) == 2
    for entry in recorded:
        tau, method = entry["tau"], entry["method"]
        argv = ("eval", "--tau", tau, "--method", method, "--format", "json")
        got = run(capsys, *argv)
        assert got == (entry["exit"], entry["stdout"], entry["stderr"]), (tau, method)


def test_eval_character_method_is_refused():
    # the character theta sum is the pentagonal sum, not a route of its own
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--tau", "0+1i", "--method", "character"])
    assert exc.value.code == 2


def test_eval_bad_literal_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--tau", "garbage")
    assert code == 2
    assert "error" in err


def test_eval_lower_half_plane_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--tau", "0-1i")
    assert code == 2
    assert "upper half-plane" in err


# --- dedekind ---------------------------------------------------------------------


def test_dedekind_both_defined_cross_checks(capsys):
    code, out, _ = run(capsys, "dedekind", "5", "7")
    assert code == 0
    assert out.splitlines() == ["s(5, 7) = -1/14 (naive) = -1/14 (fast)", "equal: yes"]
    code, out, _ = run(capsys, "dedekind", "1", "3")
    assert code == 0
    assert "1/18" in out
    assert "equal: yes" in out


def test_dedekind_zero_case(capsys):
    code, out, _ = run(capsys, "dedekind", "0", "1")
    assert code == 0
    assert out.splitlines() == ["s(0, 1) = 0 (naive) = 0 (fast)", "equal: yes"]


def test_dedekind_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "dedekind_sum_fast", lambda h, k: Fraction(1, 2))
    code, out, err = run(capsys, "dedekind", "5", "7")
    assert code == 1
    assert out == "s(5, 7) = -1/14 (naive) = 1/2 (fast)\n"
    assert "disagree" in err


def test_dedekind_non_coprime_prints_the_defining_sum_only(capsys):
    # the fast sum needs gcd(h, k) = 1; the defining sum does not
    code, out, _ = run(capsys, "dedekind", "2", "4")
    assert code == 0
    assert out.splitlines() == [
        "s(2, 4) = -1/4 (naive)",
        "not cross-checked: h and k must be coprime, got gcd(2, 4) = 2",
    ]


def test_dedekind_modulus_above_the_limit_prints_the_fast_sum_only(capsys):
    # the O(k) defining sum refuses k above MAX_DIRECT_MODULUS before its loop
    code, out, _ = run(capsys, "dedekind", "1", "10000001")
    assert code == 0
    value, note = out.splitlines()
    assert value == f"s(1, 10000001) = {dedekind.dedekind_sum_fast(1, 10000001)} (fast)"
    assert note.startswith("not cross-checked: k = 10000001 is above MAX_DIRECT_MODULUS")
    assert note.endswith("use dedekind_sum_fast")


def test_dedekind_neither_defined_exits_2_with_the_first_error(capsys):
    code, out, err = run(capsys, "dedekind", "2", "10000002")
    assert (code, out) == (2, "")
    assert err.startswith("error: k = 10000002 is above MAX_DIRECT_MODULUS")
    code, out, err = run(capsys, "dedekind", "1", "0")
    assert (code, out, err) == (2, "", "error: k must be a positive integer, got 0\n")


@pytest.mark.parametrize(
    "argv",
    [["dedekind", "5", "7", "--mode", "fast"], ["decompose", "2", "1", "1", "1", "--check"]],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --- decompose --------------------------------------------------------------------


def test_decompose_s(capsys):
    code, out, _ = run(capsys, "decompose", "0", "-1", "1", "0")
    assert code == 0
    assert out.splitlines() == ["S", "check: OK, word recomposes to [0 -1; 1 0]"]


def test_decompose_translation(capsys):
    code, out, _ = run(capsys, "decompose", "1", "5", "0", "1")
    assert code == 0
    assert out.splitlines()[0] == "T^5"


def test_decompose_checks_the_word(capsys):
    code, out, _ = run(capsys, "decompose", "2", "1", "1", "1")
    assert code == 0
    assert "T^2 S T" in out
    assert "check: OK" in out


def test_decompose_deep_descent_checks_the_word(capsys):
    # the descent from c = 10^12 takes two steps
    code, out, _ = run(capsys, "decompose", "1", "0", "1000000000000", "1")
    assert code == 0
    assert out.splitlines() == [
        "S T^-1000000000000 S",
        "check: OK, word recomposes to [1 0; 1000000000000 1]",
    ]


def test_decompose_recomposition_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "evaluate_word", lambda word: ModularMatrix(1, 0, 0, 1))
    code, out, err = run(capsys, "decompose", "2", "1", "1", "1")
    assert (code, out) == (1, "T^2 S T\n")
    assert err == "error: word recomposes to [1 0; 0 1], expected [2 1; 1 1]\n"


def test_decompose_non_unimodular_exits_2(capsys):
    code, _, err = run(capsys, "decompose", "1", "0", "0", "2")
    assert code == 2
    assert "determinant" in err


# --- verify -----------------------------------------------------------------------


def test_verify_pentagonal(capsys):
    code, out, _ = run(capsys, "verify", "pentagonal", "--order", "400")
    assert code == 0
    assert "PASS" in out


def test_verify_jtp(capsys):
    code, out, _ = run(capsys, "verify", "jtp", "--order", "40")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "suite, order, limit",
    [("pentagonal", 100_000_000, 20_000), ("jtp", 2_001, 2_000), ("all", 2_001, 2_000)],
)
def test_verify_order_above_a_series_limit_exits_2_before_anything_runs(
    capsys, monkeypatch, tmp_path, suite, order, limit
):
    ran = []
    for name in campaigns.CAMPAIGNS:
        monkeypatch.setitem(campaigns.CAMPAIGNS, name, lambda report, config: ran.append(config))
    out_file = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", suite, "--order", str(order), "--out", str(out_file))
    assert (code, out, ran, out_file.exists()) == (2, "", [], False)
    assert err.startswith(f"error: order {order} is above the ") and f"limit {limit}" in err


@pytest.mark.parametrize(
    "suite, knob, limit",
    [
        ("reciprocity", "order", 2_000),
        ("functional-eq", "trials", 100_000),
        ("theta", "trials", 200_000),
        ("poisson", "trials", 200_000),
        ("omega", "trials", 300_000),
        ("all", "trials", 100_000),
    ],
)
def test_verify_knob_above_a_campaign_limit_exits_2_before_anything_runs(
    capsys, monkeypatch, tmp_path, suite, knob, limit
):
    ran = []
    for name in campaigns.CAMPAIGNS:
        monkeypatch.setitem(campaigns.CAMPAIGNS, name, lambda report, config: ran.append(config))
    out_file = tmp_path / "report.json"
    for value in (limit + 1, 10**18):
        code, out, err = run(
            capsys, "verify", suite, f"--{knob}", str(value), "--out", str(out_file)
        )
        assert (code, out, ran, out_file.exists()) == (2, "", [], False)
        assert err.startswith(f"error: {knob} {value} is above the ") and f"limit {limit}" in err
    assert run(capsys, "verify", suite, f"--{knob}", str(limit))[0] == 0
    assert ran and all(getattr(config, knob) == limit for config in ran)


@pytest.mark.parametrize(
    "suite, knob",
    [
        ("jtp", "trials"),
        ("pentagonal", "trials"),
        ("reciprocity", "trials"),
        ("functional-eq", "order"),
        ("theta", "order"),
        ("poisson", "order"),
        ("omega", "order"),
    ],
)
def test_verify_knob_a_named_campaign_does_not_read_exits_2_before_anything_runs(
    capsys, monkeypatch, tmp_path, suite, knob
):
    ran = []
    for name in campaigns.CAMPAIGNS:
        monkeypatch.setitem(campaigns.CAMPAIGNS, name, lambda report, config: ran.append(config))
    out_file = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", suite, f"--{knob}", "5", "--out", str(out_file))
    assert (code, out, ran, out_file.exists()) == (2, "", [], False)
    other = "trials" if knob == "order" else "order"
    assert err == f"error: the {suite} campaign reads no {knob}, only {other}\n"
    # `all` passes each campaign the knobs it reads and ignores the rest
    assert run(capsys, "verify", "all", f"--{knob}", "5")[0] == 0
    assert len(ran) == len(campaigns.CAMPAIGNS)


def test_verify_reciprocity(capsys):
    code, out, _ = run(capsys, "verify", "reciprocity", "--order", "60")
    assert code == 0
    assert "PASS" in out


EXACT_REPORT_BYTES = """{{
  "campaign": "{campaign}",
  "failures": [],
  "max_residual": 0.0,
  "passed": true,
  "schema": 1,
  "seed": 0,
  "tolerance": 0.0,
  "trials": {trials}
}}
"""


@pytest.mark.parametrize(
    "campaign, order, trials",
    [("jtp", "40", 3), ("pentagonal", "400", 3), ("reciprocity", "60", 8)],
)
def test_verify_exact_json_bytes(capsys, campaign, order, trials):
    code, out, _ = run(capsys, "verify", campaign, "--order", order, "--format", "json")
    assert code == 0
    assert out == EXACT_REPORT_BYTES.format(campaign=campaign, trials=trials)


def test_verify_functional_eq(capsys):
    code, out, _ = run(capsys, "verify", "functional-eq", "--trials", "10", "--seed", "7")
    assert code == 0
    assert "PASS" in out


def test_verify_omega(capsys):
    code, out, _ = run(capsys, "verify", "omega", "--trials", "50", "--seed", "1")
    assert code == 0


def test_verify_json_deterministic(capsys):
    argv = ["verify", "theta", "--trials", "5", "--seed", "42", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2, "same seed and config must give byte-identical reports"
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["campaign"] == "theta"
    assert payload["passed"] is True
    assert payload["failures"] == []


def test_verify_report_to_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "poisson", "--trials", "3", "--seed", "5", "--out", str(out_file)
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["schema"] == 1
    assert payload["seed"] == 5


def test_verify_bad_out_path_exits_2_before_any_campaign_runs(capsys, monkeypatch, tmp_path):
    ran = []
    monkeypatch.setitem(campaigns.CAMPAIGNS, "omega", lambda report, config: ran.append(config))
    out_file = tmp_path / "no" / "such" / "x.json"
    code, out, err = run(capsys, "verify", "omega", "--trials", "5", "--out", str(out_file))
    assert (code, out, ran) == (2, "", [])
    assert err.startswith("error: ") and str(out_file) in err


def test_verify_seed_ignores_environment(capsys, monkeypatch):
    # the command line alone fixes the report
    monkeypatch.setenv("ETAFORGE_SEED", "99")
    code, out, _ = run(capsys, "verify", "omega", "--trials", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 0


def test_verify_failure_exits_1(capsys, monkeypatch):
    # the shift law e^(pi i m/12) taken the wrong way round breaks every image
    # whose matrix has a nonzero translation part round(a/c)
    phase = evaluate._translation_phase
    monkeypatch.setattr(evaluate, "_translation_phase", lambda m: phase(-m))
    code, out, _ = run(capsys, "verify", "functional-eq", "--trials", "3", "--seed", "3")
    assert code == 1
    assert "FAIL" in out


def test_tolerance_flag_cannot_pass_wrong_multiplier(capsys, monkeypatch):
    # every law factor takes the phase of omega + 1 instead of omega
    monkeypatch.setattr(evaluate, "omega", lambda a, b, c, d: omega(a, b, c, d) + 1)
    code, out, _ = run(capsys, "verify", "functional-eq")
    assert code == 1
    assert "FAIL  functional-eq" in out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "functional-eq", "--tol", "1"])
    assert exc.value.code == 2
    assert "PASS" not in capsys.readouterr().out


def test_verify_all_reports_every_campaign_when_a_kernel_raises(capsys, monkeypatch, tmp_path):
    # a sign-flipped Dedekind-sum kernel fails reciprocity outright, and makes
    # omega raise AssertionError inside the functional-eq and omega campaigns
    scaled = dedekind._scaled_dedekind_sum
    monkeypatch.setattr(dedekind, "_scaled_dedekind_sum", lambda h, k: -scaled(h, k))
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "all", "--order", "60", "--trials", "50", "--out", str(out_file)
    )
    assert code == 1
    status = [line.split(":")[0] for line in out.splitlines() if line[:6] in ("PASS  ", "FAIL  ")]
    failing = {"reciprocity", "functional-eq", "omega"}
    assert status == [
        f"{'FAIL' if name in failing else 'PASS'}  {name}" for name in campaigns.CAMPAIGNS
    ] + ["FAIL  overall"]
    assert "raised AssertionError: omega(" in out
    payload = json.loads(out_file.read_text())
    assert payload["passed"] is False
    assert len(payload["reports"]) == len(campaigns.CAMPAIGNS)
    # the omega campaign keeps its declared integrality check, which the
    # first draw's raise left at no inputs, before the raised one
    assert payload["reports"][-1]["trials"] == 2
    (report,) = campaigns.run_campaign("omega", campaigns.CliConfig(trials=50))
    assert [(c.name, c.count, c.passed) for c in report.checks.values()] == [
        ("omega integral on 50 random matrices", 0, True),
        (
            "raised AssertionError: omega(36807, 10091, 7171, 1966) = 70375/7171 is not an "
            "integer; Dedekind-sum arithmetic is broken",
            1,
            False,
        ),
    ]


def test_verify_reports_a_raising_check_as_a_failure(capsys, monkeypatch):
    def broken(order):
        raise ArithmeticError(f"z^2-exponent above isqrt({order})")

    monkeypatch.setattr(campaigns, "_jtp_expansion", broken)
    code, out, _ = run(capsys, "verify", "jtp", "--order", "40", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["failures"] == [
        {"input": "raised ArithmeticError: z^2-exponent above isqrt(40)", "residual": 1.0}
    ]


def test_verify_bad_trials_exits_2(capsys):
    code, _, err = run(capsys, "verify", "omega", "--trials", "0")
    assert code == 2
    assert "positive" in err


def test_verify_negative_seed_exits_2(capsys):
    # random.Random(-5) draws the stream of Random(5), which would then be
    # reported under the seed -5
    code, out, err = run(capsys, "verify", "omega", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "seed must be a non-negative int, got -1" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense-suite"])
    assert exc.value.code == 2
