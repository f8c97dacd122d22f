import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ruleselect
from ruleselect import (
    CapacityError,
    InfeasibleError,
    ParseError,
    ValidationError,
    cli,
    fact,
)
from ruleselect.cli import main

from conftest import F1_PREMISE, F1_RULES, F1_TRUTH


@pytest.fixture
def f1_files(tmp_path):
    (tmp_path / "rules.rules").write_text(F1_RULES)
    (tmp_path / "premise.facts").write_text(F1_PREMISE)
    (tmp_path / "truth.facts").write_text(F1_TRUTH)
    return ["--rules", str(tmp_path / "rules.rules"),
            "--premise", str(tmp_path / "premise.facts"),
            "--truth", str(tmp_path / "truth.facts")]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def test_select_exact_fpfn(capsys, f1_files):
    code, out, _ = run(capsys, ["select", "--objective", "fpfn",
                                "--method", "exact"] + f1_files)
    assert code == 0
    assert out["error"] == 2
    assert out["selected_rules"] == ["r1"]
    assert out["optimal"] is True
    assert list(out)[:3] == ["command", "objective", "method"]
    assert list(out)[-1] == "runtime_ms"


def test_select_greedy_fp_reports_bound_and_consistent_counts(capsys, f1_files):
    code, out, _ = run(capsys, ["select", "--objective", "fp",
                                "--method", "greedy"] + f1_files)
    assert code == 0
    assert out["fn_count"] == 0
    assert out["error"] == out["fp_count"] == 2
    assert out["selected_rules"] == ["r1", "r2"]
    assert out["bound_value"] == 4.3611


def test_select_greedy_fpfn_reports_the_bound_of_the_explicit_reduction(capsys, f1_files):
    # 3 rule sets plus one skip set per truth fact: 2 * sqrt(6 * log2 3)
    code, out, _ = run(capsys, ["select", "--objective", "fpfn",
                                "--method", "greedy"] + f1_files)
    assert code == 0
    assert (out["selected_rules"], out["error"]) == (["r1", "r2"], 2)
    assert out["bound_value"] == 6.1676


def test_pareto_points_by_ascending_size(capsys, f1_files):
    code, out, _ = run(capsys, ["pareto"] + f1_files)
    assert code == 0
    assert out["pareto_points"] == [[3, 0], [2, 1]]


def test_bilevel(capsys, f1_files):
    code, out, _ = run(capsys, ["bilevel"] + f1_files)
    assert (out["error"], out["size"], out["selected_rules"]) == (2, 1, ["r1"])
    code_fp, out_fp, _ = run(capsys, ["bilevel", "--objective", "fp"] + f1_files)
    assert (out_fp["error"], out_fp["size"]) == (2, 2)


def test_member_in_body(capsys, f1_files):
    code, out, _ = run(capsys, ["member", "--point", "2,1"] + f1_files)
    assert code == 0 and out["member"] is True
    code, out, _ = run(capsys, ["member", "--point", "2,2"] + f1_files)
    assert code == 0 and out["member"] is False


def test_eval_with_selection(capsys, f1_files):
    code, out, _ = run(capsys, ["eval", "--select", "r1"] + f1_files)
    assert (out["fp_count"], out["fn_count"], out["error"], out["size"]) == (1, 1, 2, 1)


def test_eval_with_selection_evaluates_only_the_selected_rules(capsys, f1_files, monkeypatch):
    from ruleselect import evaluation

    evaluated = []
    original = evaluation.eval_rule

    def counting(rule, *args, **kwargs):
        evaluated.append(rule.name)
        return original(rule, *args, **kwargs)

    monkeypatch.setattr(evaluation, "eval_rule", counting)
    code, out, _ = run(capsys, ["eval", "--select", "r1"] + f1_files)
    assert code == 0 and out["selected_rules"] == ["r1"]
    assert evaluated == ["r1"]
    code, _, err = run(capsys, ["eval", "--select", "r1,nope"] + f1_files)
    assert code == 1 and err["error"]["code"] == "validation_error"


def test_check_feasible(capsys, f1_files, tmp_path):
    code, out, _ = run(capsys, ["check-feasible"] + f1_files)
    assert code == 0 and out["feasible"] is True and out["missing"] == []
    (tmp_path / "truth.facts").write_text(F1_TRUTH + 'B("zz")\n')
    code, out, _ = run(capsys, ["check-feasible"] + f1_files)
    assert code == 0 and out["feasible"] is False and out["missing"] == ['B("zz")']


def test_exit_code_usage(capsys, f1_files):
    code, _, err = run(capsys, ["select", "--objective", "fpfn"])
    assert code == 1 and err["error"]["code"] == "usage"
    code, _, err = run(capsys, [])
    assert code == 1
    # only the enumerating commands take an enumeration cap
    for command in (["eval"], ["check-feasible"],
                    ["select", "--objective", "fp", "--method", "greedy"],
                    ["select", "--objective", "fpfn", "--method", "greedy"]):
        for value in ("5", "-5"):
            code, out, err = run(capsys, command + ["--max-rules", value] + f1_files)
            assert code == 1 and out is None and err["error"]["code"] == "usage", command


@pytest.mark.parametrize("command, message", [
    (["eval", "--limits", "1"], "--limits expects 'a,r', got '1'"),
    (["eval", "--limits", "1,2,3"], "--limits expects 'a,r', got '1,2,3'"),
    (["member", "--point", "x"], "--point expects 'e,s', got 'x'"),
    (["member", "--point", "1,"], "--point expects 'e,s', got '1,'"),
])
def test_bad_integer_pairs_are_usage_errors(capsys, f1_files, command, message):
    code, out, err = run(capsys, command + f1_files)
    assert code == 1 and out is None
    assert err == {"error": {"code": "usage", "message": message}}


def test_max_rules_must_be_positive(capsys, f1_files):
    for value in ("0", "-1"):
        for command in (["select", "--objective", "fpfn", "--method", "exact"], ["pareto"]):
            code, out, err = run(capsys, command + ["--max-rules", value] + f1_files)
            assert code == 1 and out is None, (command, value)
            assert err["error"]["message"] == "max_rules must be positive"


def test_exit_code_parse_error(capsys, f1_files, tmp_path):
    (tmp_path / "rules.rules").write_text("rule bad: S(x) -> B(x,")
    code, _, err = run(capsys, ["eval"] + f1_files)
    assert code == 1 and err["error"]["code"] == "parse_error"


@pytest.mark.parametrize("name", ["rules.rules", "premise.facts", "truth.facts"])
def test_a_file_that_is_not_utf8_is_an_io_error(capsys, f1_files, tmp_path, name):
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b'# caf\xe9\n')
    code, out, err = run(capsys, ["eval"] + f1_files)
    assert code == 1 and out is None and err["error"]["code"] == "io_error"
    assert err["error"]["message"].startswith(f"{path}: ")


def test_exit_code_infeasible(capsys, f1_files, tmp_path):
    (tmp_path / "truth.facts").write_text(F1_TRUTH + 'B("zz")\n')
    code, _, err = run(capsys, ["select", "--objective", "fp",
                                "--method", "exact"] + f1_files)
    assert code == 2
    assert err["error"]["code"] == "fp_infeasible"
    assert err["error"]["missing"] == ['B("zz")']


@pytest.mark.parametrize("failure, status, code", [
    (cli.UsageError("bad option"), 1, "usage"),
    (ParseError("expected ')'", "r.rules", 2, 7, "S(x"), 1, "parse_error"),
    (InfeasibleError(frozenset({fact("B", 1), fact("B", "u2")})), 2, "fp_infeasible"),
    (CapacityError("too many rules"), 3, "capacity_exceeded"),
    (ValidationError("unknown rule name 'r9'"), 1, "validation_error"),
    (OSError("cannot read"), 1, "io_error"),
    (ImportError("needs numpy"), 1, "usage"),
    (KeyError("oops"), 1, "internal_error"),
])
def test_each_failure_has_one_code_and_exit_status(capsys, f1_files, monkeypatch,
                                                   failure, status, code):
    def fail(args):
        raise failure

    monkeypatch.setitem(cli._COMMANDS, "eval", fail)
    expected = {"code": code, "message": str(failure)}
    if code == "internal_error":
        expected["message"] = "KeyError: 'oops'"
    if code == "fp_infeasible":  # sorted as text: the quote sorts before the digit
        expected["missing"] = ['B("u2")', "B(1)"]
    assert run(capsys, ["eval"] + f1_files) == (status, None, {"error": expected})


def test_a_report_with_an_unknown_key_is_an_internal_error(capsys, f1_files, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "eval", lambda args: {"command": "eval", "bogus": 1})
    assert run(capsys, ["eval"] + f1_files) == (1, None, {"error": {
        "code": "internal_error", "message": "RuntimeError: unordered report keys: {'bogus'}"}})


def test_greedy_and_exact_agree_on_numerically_equal_constants(capsys, tmp_path):
    # Out(1) derived and Out(1.0) in the truth are one fact: equal by value.
    (tmp_path / "rules.rules").write_text("rule a: P(x) -> Out(x).\n")
    (tmp_path / "premise.facts").write_text("P(1)\nP(2)\n")
    (tmp_path / "truth.facts").write_text("Out(1.0)\n")
    files = ["--rules", str(tmp_path / "rules.rules"),
             "--premise", str(tmp_path / "premise.facts"),
             "--truth", str(tmp_path / "truth.facts")]
    for objective in ("fp", "fpfn"):
        _, exact, _ = run(capsys, ["select", "--objective", objective,
                                   "--method", "exact"] + files)
        code, out, err = run(capsys, ["select", "--objective", objective,
                                      "--method", "greedy"] + files)
        assert code == 0 and err is None, (objective, err)
        assert out["error"] == exact["error"] == 1, objective


def test_numerically_equal_premise_facts_count_once(capsys, tmp_path):
    # P(1) and P(1.0) are one premise fact, P("1") another; Out(1) derived by
    # both rules and Out(1.0) in the truth are one conclusion fact.
    (tmp_path / "rules.rules").write_text(
        "rule a: P(x) -> Out(x).\nrule b: P(x), neq(x, 2) -> Out(x).\n")
    (tmp_path / "premise.facts").write_text('P(1)\nP(1.0)\nP("1")\n')
    (tmp_path / "truth.facts").write_text('Out(1.0)\nOut("2")\n')
    files = ["--rules", str(tmp_path / "rules.rules"),
             "--premise", str(tmp_path / "premise.facts"),
             "--truth", str(tmp_path / "truth.facts")]
    code, out, err = run(capsys, ["eval"] + files)
    assert code == 0 and err is None
    del out["runtime_ms"]
    assert out == {"command": "eval", "selected_rules": ["a", "b"],
                   "fp_count": 1, "fn_count": 1, "error": 2, "size": 3}
    code, out, err = run(capsys, ["check-feasible"] + files)
    assert code == 0 and err is None
    del out["runtime_ms"]
    assert out == {"command": "check-feasible", "feasible": False, "missing": ['Out("2")']}


def test_exit_code_capacity(capsys, f1_files):
    code, _, err = run(capsys, ["select", "--objective", "fpfn", "--method", "exact",
                                "--max-rules", "2"] + f1_files)
    assert code == 3 and err["error"]["code"] == "capacity_exceeded"


def test_exit_code_capacity_beyond_subset_masks(capsys, tmp_path):
    # 70 rules under --max-rules 100: 2^70 subsets pass the visit limit, which
    # refuses every enumeration past 32 rules, so subset masks fit in int64
    run(capsys, ["gen", "random", "--seed", "5", "--universe", "20", "--sets", "70",
                 "--out", str(tmp_path)])
    files = ["--rules", str(tmp_path / "rules.rules"),
             "--premise", str(tmp_path / "premise.facts"),
             "--truth", str(tmp_path / "truth.facts")]
    for command in (["select", "--objective", "fpfn", "--method", "exact"], ["pareto"],
                    ["select", "--objective", "fp", "--method", "exact"]):
        code, _, err = run(capsys, command + ["--max-rules", "100"] + files)
        assert code == 3 and err["error"]["code"] == "capacity_exceeded", err
        assert "word visits" in err["error"]["message"], err


@pytest.mark.parametrize("n_rules, cap", [(40, "40"), (60, "70")])
def test_exit_code_capacity_past_the_work_limit(capsys, tmp_path, n_rules, cap):
    # Under the rule cap, but 2^n subsets are too many to enumerate: refused
    # at once instead of running for hours.
    run(capsys, ["gen", "random", "--seed", "5", "--universe", "40",
                 "--sets", str(n_rules), "--out", str(tmp_path)])
    files = ["--rules", str(tmp_path / "rules.rules"),
             "--premise", str(tmp_path / "premise.facts"),
             "--truth", str(tmp_path / "truth.facts")]
    start = time.perf_counter()
    code, _, err = run(capsys, ["pareto", "--max-rules", cap] + files)
    assert code == 3 and err["error"]["code"] == "capacity_exceeded", err
    assert "word visits" in err["error"]["message"]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("rule, n_facts, matches", [
    ("rule x: P(a), P(b) -> Q(a, b).", 1000, "1,000,000"),
    ("rule x: P(a), P(b), P(c) -> Q(a, b).", 200, "8,000,000"),
])
def test_exit_code_capacity_past_the_join_limit(capsys, tmp_path, rule, n_facts, matches):
    # A cross product is refused before its matches are built, not run until
    # memory runs out.
    import tracemalloc

    (tmp_path / "rules.rules").write_text(rule + "\n")
    (tmp_path / "premise.facts").write_text("".join(f"P({i})\n" for i in range(n_facts)))
    (tmp_path / "truth.facts").write_text("")
    tracemalloc.start()
    try:
        code, _, err = run(capsys, ["eval", "--rules", str(tmp_path / "rules.rules"),
                                    "--premise", str(tmp_path / "premise.facts"),
                                    "--truth", str(tmp_path / "truth.facts")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and err["error"]["code"] == "capacity_exceeded", err
    assert err["error"]["message"] == (
        f"rule x: joining P makes {matches} matches, above the limit of 524,288")
    assert peak < 64 * 2**20


def test_fpfn_checks_the_cap_before_evaluation_and_the_work_limits_after(capsys, tmp_path):
    # 40 rules, one a cross product over 1,000 facts.  Under the cap, the
    # visit limit would refuse 2^40 subsets, but it needs the fact-word count,
    # so evaluation runs first and refuses the join.
    rules = [f"rule p{i}: P(a) -> Q(a).\n" for i in range(39)]
    (tmp_path / "rules.rules").write_text("".join(rules) + "rule x: P(a), P(b) -> R(a, b).\n")
    (tmp_path / "premise.facts").write_text("".join(f"P({i})\n" for i in range(1, 1001)))
    (tmp_path / "truth.facts").write_text("")
    files = ["--rules", str(tmp_path / "rules.rules"),
             "--premise", str(tmp_path / "premise.facts"),
             "--truth", str(tmp_path / "truth.facts")]
    code, _, err = run(capsys, ["pareto", "--objective", "fpfn", "--max-rules", "39"] + files)
    assert code == 3
    assert err["error"]["message"] == "40 rules exceed the enumeration cap of 39"
    code, _, err = run(capsys, ["pareto", "--objective", "fpfn", "--max-rules", "100"] + files)
    assert code == 3
    assert err["error"]["message"] == (
        "rule x: joining P makes 1,000,000 matches, above the limit of 524,288")


@pytest.mark.parametrize("n_forced", [26, 70])
def test_fp_cap_counts_free_rules(capsys, tmp_path, n_forced):
    # Each rule f<i> alone derives its truth fact, so FP mode fixes it, and
    # only g1 and g2, which share the one derivation of B("s"), are
    # enumerated. FPFN forces nothing and refuses on the declared count.
    rules = [f"rule f{i}: A{i}(x) -> B(x).\n" for i in range(n_forced)]
    premise = [f'A{i}("t{i}")\n' for i in range(n_forced)]
    truth = [f'B("t{i}")\n' for i in range(n_forced)] + ['B("s")\n']
    rules += ["rule g1: G1(x) -> B(x).\n", "rule g2: G2(x) -> B(x).\n"]
    premise += ['G1("s")\n', 'G1("n1")\n', 'G2("s")\n', 'G2("n2")\n']
    for name, lines in (("rules.rules", rules), ("premise.facts", premise),
                        ("truth.facts", truth)):
        (tmp_path / name).write_text("".join(lines))
    files = ["--rules", str(tmp_path / "rules.rules"),
             "--premise", str(tmp_path / "premise.facts"),
             "--truth", str(tmp_path / "truth.facts")]
    chosen = sorted([f"f{i}" for i in range(n_forced)] + ["g1"])
    code, out, _ = run(capsys, ["select", "--method", "exact", "--objective", "fp"] + files)
    assert code == 0
    assert (out["selected_rules"], out["error"], out["size"]) == (chosen, 1, n_forced + 1)
    code, out, _ = run(capsys, ["pareto", "--objective", "fp"] + files)
    assert code == 0 and out["pareto_points"] == [[1, n_forced + 1]]
    code, out, _ = run(capsys, ["bilevel", "--objective", "fp"] + files)
    assert code == 0 and out["selected_rules"] == chosen
    code, _, err = run(capsys, ["pareto", "--objective", "fp", "--max-rules", "1"] + files)
    assert code == 3
    assert err["error"]["message"] == \
        f"2 free rules (of {n_forced + 2}) exceed the enumeration cap of 1"
    code, _, err = run(capsys, ["select", "--method", "exact", "--objective", "fpfn"] + files)
    assert code == 3
    assert err["error"]["message"] == f"{n_forced + 2} rules exceed the enumeration cap of 24"


def test_fp_infeasibility_is_reported_before_the_free_rule_cap(capsys, f1_files, tmp_path):
    # f1 has 2 free rules, past --max-rules 1, and B("nowhere") is derived by
    # no rule: FP mode exits 2 as the greedy does. FPFN still refuses on the
    # declared count.
    truth = tmp_path / "truth.facts"
    truth.write_text(F1_TRUTH + 'B("nowhere")\n')
    for command in (["select", "--method", "exact"], ["pareto"], ["bilevel"],
                    ["member", "--point", "0,0"]):
        code, _, err = run(capsys, command + ["--objective", "fp", "--max-rules", "1"]
                           + f1_files)
        assert code == 2, (command, err)
        assert err["error"]["code"] == "fp_infeasible"
        assert err["error"]["missing"] == ['B("nowhere")']
    code, _, err = run(capsys, ["select", "--method", "greedy", "--objective", "fp"]
                       + f1_files)
    assert code == 2 and err["error"]["code"] == "fp_infeasible"
    code, _, err = run(capsys, ["select", "--method", "exact", "--objective", "fpfn",
                                "--max-rules", "1"] + f1_files)
    assert code == 3 and err["error"]["code"] == "capacity_exceeded"


def test_exit_code_limits_violation(capsys, f1_files, tmp_path):
    (tmp_path / "rules.rules").write_text("rule w: E(x,z), E(z,y) -> F(x,y).\n")
    (tmp_path / "premise.facts").write_text("E(1, 2)\n")
    (tmp_path / "truth.facts").write_text("F(1, 2)\n")
    code, _, err = run(capsys, ["eval", "--limits", "1,1"] + f1_files)
    assert code == 1 and err["error"]["code"] == "validation_error"
    assert err["error"]["message"] == "rule w: premise has 2 atoms, limit 1"


def test_jaccard_reads_numbers_by_value(capsys, f1_files, tmp_path):
    # x binds to 2 or to 2.0 depending on which relation joins first, which an
    # unrelated P(7) flips; jaccard_geq must read the value "2" either way.
    (tmp_path / "rules.rules").write_text(
        'rule a: P(x), Q(x), jaccard_geq(x, "2 0", 1) -> Out(x).\n')
    (tmp_path / "truth.facts").write_text("Out(2)\n")
    outs = []
    for premise in ("P(2)\nQ(2.0)\n", "P(2)\nP(7)\nQ(2.0)\n"):
        (tmp_path / "premise.facts").write_text(premise)
        code, out, _ = run(capsys, ["eval"] + f1_files)
        assert code == 0
        outs.append((out["fp_count"], out["fn_count"]))
    assert outs == [(0, 1), (0, 1)]


def test_deterministic_json_modulo_runtime(capsys, f1_files):
    outs = []
    for _ in range(2):
        code = main(["select", "--objective", "fpfn", "--method", "exact"] + f1_files)
        assert code == 0
        raw = capsys.readouterr().out
        body = json.loads(raw)
        body.pop("runtime_ms")
        outs.append(json.dumps(body))
    assert outs[0] == outs[1]


def test_output_does_not_depend_on_the_hash_seed(capsys, tmp_path):
    # Set and dict iteration orders follow the string hash, which
    # PYTHONHASHSEED randomizes; the reported answers must not.
    out_dir = tmp_path / "inst"
    code, _, _ = run(capsys, ["gen", "random", "--seed", "1", "--universe", "10",
                              "--sets", "8", "--density", "0.4", "--fp-noise", "0.5",
                              "--fn-noise", "0.2", "--join-rules", "1",
                              "--out", str(out_dir)])
    assert code == 0
    files = ["--rules", str(out_dir / "rules.rules"),
             "--premise", str(out_dir / "premise.facts"),
             "--truth", str(out_dir / "truth.facts")]
    script = f"""
from ruleselect.cli import main
files = {files!r}
for argv in (["select", "--method", "greedy", "--objective", "fpfn"] + files,
             ["select", "--method", "exact", "--objective", "fpfn"] + files,
             ["pareto"] + files):
    assert main(argv) == 0, argv
"""
    src = str(Path(ruleselect.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(re.sub(r'"runtime_ms": [0-9]+', '"runtime_ms": 0', proc.stdout))
    assert len(outs[0].splitlines()) == 3
    assert outs[0] == outs[1]


def test_gen_writes_reproducible_files(capsys, tmp_path):
    args = ["gen", "thm1", "--seed", "7", "--universe", "5", "--sets", "4"]
    code, out, _ = run(capsys, args + ["--out", str(tmp_path / "a")])
    assert code == 0
    assert out["files"] == ["manifest.json", "premise.facts", "rules.rules", "truth.facts"]
    code2, _, _ = run(capsys, args + ["--out", str(tmp_path / "b")])
    for name in out["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["kind"] == "thm1"


def test_only_random_manifests_record_the_random_only_knobs(capsys, tmp_path):
    knobs = {"fp_noise", "fn_noise", "join_rules"}
    for mode in ("random", "thm1", "thm3", "clones"):
        assert run(capsys, ["gen", mode, "--seed", "2", "--out", str(tmp_path / mode)])[0] == 0
        manifest = json.loads((tmp_path / mode / "manifest.json").read_text())
        assert manifest["kind"] == mode and manifest["seed"] == 2
        assert knobs & manifest.keys() == (knobs if mode == "random" else set())


def test_random_only_gen_options_are_usage_errors_in_set_cover_modes(capsys, tmp_path):
    for mode in ("thm1", "thm3", "clones"):
        for option, value in (("--fp-noise", "0.5"), ("--fn-noise", "0"), ("--join-rules", "3")):
            code, out, err = run(capsys, ["gen", mode, "--seed", "3", option, value,
                                          "--out", str(tmp_path / mode)])
            assert code == 1 and out is None and not (tmp_path / mode).exists()
            assert err == {"error": {"code": "usage",
                                     "message": f"{option} applies only to gen random"}}
    # gen random writes the same files whether the default knobs are spelled out or not
    args = ["gen", "random", "--seed", "3"]
    assert run(capsys, args + ["--out", str(tmp_path / "a")])[0] == 0
    assert run(capsys, args + ["--fp-noise", "0", "--fn-noise", "0", "--join-rules", "0",
                               "--out", str(tmp_path / "b")])[0] == 0
    for name in ("manifest.json", "premise.facts", "rules.rules", "truth.facts"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_modes_produce_parseable_solvable_instances(capsys, tmp_path):
    from ruleselect import parse_facts, parse_rules

    for mode in ("thm1", "thm3", "clones", "random"):
        out_dir = tmp_path / mode
        code, out, _ = run(capsys, ["gen", mode, "--seed", "3", "--universe", "4",
                                    "--sets", "3", "--out", str(out_dir)])
        assert code == 0
        rules = parse_rules((out_dir / "rules.rules").read_text())
        parse_facts((out_dir / "premise.facts").read_text(),
                    schema=rules.premise_schema)
        parse_facts((out_dir / "truth.facts").read_text(),
                    schema=rules.conclusion_schema)
        # each emitted instance drives the full selection pipeline from disk
        code, sel, _ = run(capsys, [
            "select", "--objective", "fpfn", "--method", "greedy",
            "--rules", str(out_dir / "rules.rules"),
            "--premise", str(out_dir / "premise.facts"),
            "--truth", str(out_dir / "truth.facts")])
        assert code == 0
        assert sel["error"] == sel["fp_count"] + sel["fn_count"]


def test_gen_and_select_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "inst"
    run(capsys, ["gen", "random", "--seed", "11", "--universe", "6", "--sets", "5",
                 "--fp-noise", "0.3", "--out", str(out_dir)])
    code, out, _ = run(capsys, [
        "select", "--objective", "fpfn", "--method", "greedy",
        "--rules", str(out_dir / "rules.rules"),
        "--premise", str(out_dir / "premise.facts"),
        "--truth", str(out_dir / "truth.facts")])
    assert code == 0
    assert out["error"] == out["fp_count"] + out["fn_count"]
    assert "bound_value" in out


def test_pretty_output_is_not_json(capsys, f1_files):
    code = main(["pareto", "--pretty"] + f1_files)
    assert code == 0
    text = capsys.readouterr().out
    assert "pareto_points:" in text and "error  size" in text


def _generated(tmp_path, n_rules):
    """Files of `gen random --seed 1 --universe 40 --sets n_rules --fp-noise 0.2`."""
    out = tmp_path / f"gen{n_rules}"
    assert main(["gen", "random", "--seed", "1", "--universe", "40", "--sets", str(n_rules),
                 "--fp-noise", "0.2", "--out", str(out)]) == 0
    return ["--rules", str(out / "rules.rules"), "--premise", str(out / "premise.facts"),
            "--truth", str(out / "truth.facts")]


def _run_script(script, env=None):
    src = str(Path(ruleselect.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**(env or os.environ), "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_non_enumeration_commands_do_not_import_numpy(f1_files, tmp_path):
    # eval, check-feasible, gen and greedy select never load numpy, and the
    # exact names resolve from the package without loading it either.
    _run_script(f"""
import sys
from ruleselect.cli import main
files = {f1_files!r}
for argv in (["eval"] + files, ["check-feasible"] + files,
             ["select", "--objective", "fpfn", "--method", "greedy"] + files,
             ["select", "--objective", "fp", "--method", "greedy"] + files,
             ["gen", "thm1", "--out", {str(tmp_path / "gen")!r}]):
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy imported"
from ruleselect import pareto_front, solve_exact
assert callable(solve_exact) and callable(pareto_front)
assert "numpy" not in sys.modules, "numpy imported by the exact names"
""")


def test_no_command_imports_dataclasses(f1_files, tmp_path):
    # The records are plain classes: no command loads `dataclasses`, which
    # alone costs about 10 ms of imports per call.  The 17-rule exact select
    # runs the numpy kernel.
    gen17 = _generated(tmp_path, 17)
    _run_script(f"""
import sys
from ruleselect.cli import main
files = {f1_files!r}
for argv in (["eval"] + files, ["check-feasible"] + files,
             ["select", "--objective", "fpfn", "--method", "greedy"] + files,
             ["select", "--objective", "fp", "--method", "greedy"] + files,
             ["select", "--objective", "fp", "--method", "exact"] + files,
             ["select", "--objective", "fpfn", "--method", "exact"] + {gen17!r},
             ["pareto"] + files, ["bilevel"] + files,
             ["member", "--point", "2,1"] + files,
             ["gen", "thm3", "--out", {str(tmp_path / "gen")!r}]):
    assert main(argv) == 0, argv
assert "dataclasses" not in sys.modules, "dataclasses imported"
""")


def test_greedy_bound_value_is_at_least_one_without_rules(capsys, tmp_path):
    # With no rule and no truth fact the bound formulas give 0, which no
    # approximation factor can be; the reported bound is clamped at 1.
    for name in ("rules.rules", "premise.facts", "truth.facts"):
        (tmp_path / name).write_text("")
    files = ["--rules", str(tmp_path / "rules.rules"),
             "--premise", str(tmp_path / "premise.facts"),
             "--truth", str(tmp_path / "truth.facts")]
    for objective in ("fp", "fpfn"):
        code, out, _ = run(capsys, ["select", "--objective", objective,
                                    "--method", "greedy"] + files)
        assert code == 0
        assert (out["selected_rules"], out["error"], out["bound_value"]) == ([], 0, 1.0)


def test_exact_commands_load_numpy_only_past_16_enumerated_rules(capsys, f1_files, tmp_path):
    # Up to 16 enumerated rules (FP: the free ones) run in pure Python: the
    # FP commands on f1 and on 16 rules with 15 free, and FPFN on exactly 16.
    # FPFN on 17 rules loads numpy.
    gen16, gen17 = _generated(tmp_path, 16), _generated(tmp_path, 17)
    capsys.readouterr()
    _run_script(f"""
import sys
from ruleselect.cli import main
for files in ({f1_files!r}, {gen16!r}):
    for argv in (["select", "--method", "exact", "--objective", "fp"],
                 ["bilevel", "--objective", "fp"], ["pareto", "--objective", "fp"],
                 ["member", "--objective", "fp", "--point", "0,0"]):
        assert main(argv + files) == 0, argv
assert main(["select", "--method", "exact", "--objective", "fpfn"] + {gen16!r}) == 0
assert "numpy" not in sys.modules, "numpy imported"
""")
    _run_script(f"""
import sys
from ruleselect.cli import main
assert main(["select", "--method", "exact", "--objective", "fpfn"] + {gen17!r}) == 0
assert "numpy" in sys.modules
""")


def test_cli_runs_openblas_on_one_thread_unless_told_otherwise(f1_files, tmp_path):
    # The CLI defaults OPENBLAS_NUM_THREADS to 1 before any import that can
    # load numpy, keeps a count the caller set, and importing the package
    # leaves it alone. The FP call on f1 stays in pure Python; the FPFN call
    # on 17 rules loads numpy.
    gen17 = _generated(tmp_path, 17)
    cli_call = f"""
import os, sys
from ruleselect.cli import main
assert main(["select", "--method", "exact", "--objective", "fp"] + {f1_files!r}) == 0
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""
    numpy_call = f"""
import os, sys
from ruleselect.cli import main
assert main(["select", "--method", "exact", "--objective", "fpfn"] + {gen17!r}) == 0
assert "numpy" in sys.modules
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""
    library = """
import os
import ruleselect, ruleselect.exact
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for script, preset, expect in ((cli_call, None, "1"), (cli_call, "3", "3"),
                                   (numpy_call, None, "1"), (numpy_call, "3", "3"),
                                   (library, None, "None")):
        run_env = env if preset is None else {**env, "OPENBLAS_NUM_THREADS": preset}
        out = _run_script(script, run_env)
        assert out.split()[-1] == expect, (preset, out)


def test_closed_stdout_is_an_io_error(f1_files):
    # A report that cannot be written is a failure like any other: one JSON
    # error object on stderr and exit 1, with no traceback.
    src = str(Path(ruleselect.__file__).resolve().parents[1])
    for argv in (["eval"], ["pareto", "--pretty"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "ruleselect.cli", *argv, *f1_files],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env={**os.environ, "PYTHONPATH": src}, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"]["code"] == "io_error"


def test_enumeration_past_the_pure_python_limit_needs_numpy(capsys, f1_files, tmp_path,
                                                            monkeypatch):
    # Without numpy an enumeration of more than 16 rules is refused as a
    # usage error that names numpy; smaller ones and the other commands run.
    gen16, gen17 = _generated(tmp_path, 16), _generated(tmp_path, 17)
    capsys.readouterr()
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "ruleselect._kernels", raising=False)
    monkeypatch.delattr(ruleselect, "_kernels", raising=False)
    for argv in (["pareto"], ["select", "--method", "exact", "--objective", "fpfn"]):
        code, out, err = run(capsys, argv + gen17)
        assert (code, out, err["error"]["code"]) == (1, None, "usage")
        assert "needs numpy" in err["error"]["message"]
        assert "up to 16 free rules run without it" in err["error"]["message"]
    for argv in (["eval"] + gen17, ["check-feasible"] + gen17,
                 ["select", "--method", "greedy", "--objective", "fpfn"] + gen17,
                 ["select", "--method", "exact", "--objective", "fpfn"] + gen16,
                 ["pareto"] + f1_files, ["bilevel", "--objective", "fp"] + f1_files):
        code, _, err = run(capsys, argv)
        assert code == 0, (argv, err)
