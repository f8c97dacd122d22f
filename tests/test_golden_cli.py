"""Golden CLI outputs: every call's exit code, stdout and stderr, and every
generated file, must match the digests in `golden_cli.json`.

The instances are generated with `ruleselect gen` into a temporary
directory (the one with no rules is three empty files), and each command of
`COMMANDS` runs on each of them in process.  A call is stored as one sha256
over its exit code, its stdout with `runtime_ms` masked (in `--pretty`
output too) and its stderr; a generated file as the sha256 of its bytes.

When an output changes on purpose, regenerate the file from the repository
root with

    PYTHONPATH=src python tests/test_golden_cli.py

and say in the change log which outputs changed and why.
"""
import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

from ruleselect.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden_cli.json")

_RANDOM = ["--sets", "12", "--universe", "20", "--fp-noise", "0.2"]

#: instance name -> `gen` arguments; None is the instance with no rules
INSTANCES = {
    "random2": ["random", "--seed", "2", *_RANDOM],
    "random3": ["random", "--seed", "3", *_RANDOM, "--join-rules", "2"],
    "random4": ["random", "--seed", "4", *_RANDOM, "--join-rules", "3"],
    "random2_fn": ["random", "--seed", "2", *_RANDOM, "--fn-noise", "0.1"],
    "random3_fn": ["random", "--seed", "3", *_RANDOM, "--join-rules", "2",
                   "--fn-noise", "0.1"],
    **{f"{mode}_{seed}": [mode, "--seed", str(seed)]
       for mode in ("thm1", "thm3", "clones") for seed in (1, 2)},
    # 19 rules: the numpy kernel, with three outer rules past its inner block
    "random19": ["random", "--seed", "1", "--sets", "19", "--universe", "40",
                 "--fp-noise", "0.2"],
    "no_rules": None,
}

COMMANDS = [
    *(["select", "--method", method, "--objective", objective]
      for method in ("greedy", "exact") for objective in ("fp", "fpfn")),
    *([command, "--objective", objective]
      for command in ("pareto", "bilevel") for objective in ("fp", "fpfn")),
    ["member", "--point", "3,3"],
    ["member", "--point", "1,1", "--objective", "fp"],
    ["eval"],
    ["eval", "--select", "r1,r2"],
    ["check-feasible"],
    ["eval", "--limits", "1,1"],
    ["pareto", "--max-rules", "100"],
    ["pareto", "--pretty"],
    ["select", "--method", "greedy", "--objective", "fpfn", "--pretty"],
]

_RUNTIME = re.compile(r'("?runtime_ms"?: )\d+')


def _call(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, _RUNTIME.sub(r"\g<1>#", out.getvalue()), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _make_instances() -> dict:
    """Generate every instance under the current directory; name -> digest
    of each generated file."""
    files = {}
    for name, gen in INSTANCES.items():
        if gen is None:
            os.mkdir(name)
            for file in ("rules.rules", "premise.facts", "truth.facts"):
                Path(name, file).write_text("")
            continue
        code, _, err = _call(["gen", *gen, "--out", name])
        assert code == 0, err
        for path in sorted(Path(name).iterdir()):
            files[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return files


def _calls():
    for name in INSTANCES:
        for command in COMMANDS:
            yield [*command, "--rules", f"{name}/rules.rules",
                   "--premise", f"{name}/premise.facts", "--truth", f"{name}/truth.facts"]


def _digests() -> dict:
    """Run the whole grid in the current directory."""
    files = _make_instances()
    calls = {}
    for argv in _calls():
        code, out, err = _call(argv)
        calls[" ".join(argv)] = (_sha(f"{code}\n{out}\n{err}"), code, out, err)
    return {"files": files, "calls": calls}


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    got = _digests()
    assert got["files"] == golden["files"]
    assert list(got["calls"]) == list(golden["calls"])
    wrong = []
    for call, (digest, code, out, err) in got["calls"].items():
        if digest != golden["calls"][call]:
            wrong.append(f"ruleselect {call}\nexit {code}\nstdout: {out}stderr: {err}")
    assert not wrong, f"{len(wrong)} call(s) changed output:\n\n" + "\n".join(wrong)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        result = _digests()
    GOLDEN.write_text(json.dumps(
        {"files": result["files"],
         "calls": {call: digest for call, (digest, *_) in result["calls"].items()}},
        indent=1) + "\n")
    print(f"wrote {len(result['calls'])} call and {len(result['files'])} file digests "
          f"to {GOLDEN}", file=sys.stderr)
