import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ruleselect
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


def test_exit_code_infeasible(capsys, f1_files, tmp_path):
    (tmp_path / "truth.facts").write_text(F1_TRUTH + 'B("zz")\n')
    code, _, err = run(capsys, ["select", "--objective", "fp",
                                "--method", "exact"] + f1_files)
    assert code == 2
    assert err["error"]["code"] == "fp_infeasible"
    assert err["error"]["missing"] == ['B("zz")']


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
    # 70 rules under --max-rules 100: past the 62 rules a subset mask holds
    run(capsys, ["gen", "random", "--seed", "5", "--universe", "20", "--sets", "70",
                 "--out", str(tmp_path)])
    files = ["--rules", str(tmp_path / "rules.rules"),
             "--premise", str(tmp_path / "premise.facts"),
             "--truth", str(tmp_path / "truth.facts")]
    for command in (["select", "--objective", "fpfn", "--method", "exact"], ["pareto"]):
        code, _, err = run(capsys, command + ["--max-rules", "100"] + files)
        assert code == 3 and err["error"]["code"] == "capacity_exceeded", err


@pytest.mark.parametrize("n_rules, cap", [(40, "40"), (60, "70")])
def test_exit_code_capacity_past_the_work_limit(capsys, tmp_path, n_rules, cap):
    # Under the rule cap and the 62-rule mask limit, but 2^n subsets are too
    # many to enumerate: refused at once instead of running for hours.
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


def test_non_enumeration_commands_do_not_import_numpy(f1_files, tmp_path):
    # eval, check-feasible, gen and greedy select never load numpy; the exact
    # names still resolve from the package once asked for.
    script = f"""
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
assert "numpy" in sys.modules
"""
    src = str(Path(ruleselect.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
