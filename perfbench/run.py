"""End-to-end benchmark of the ruleselect command line.

Usage (from anywhere; the repository root is found from this file):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each run generates its instance from the seed with `ruleselect gen random`,
sets up (generation plus one warm-up `eval`) several times, then drives the
workload's operation mix as a single-client closed loop for `--seconds`: one
`ruleselect` child process per operation, one at a time, so interpreter
start-up and imports stay in the timed path.  Every output is checked; the
last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.

With `--trace 1` rounds alternate between untraced ones and ones run through
`trace_child.py`, which records a span at every layer boundary; the output
then holds the per-layer metrics of `layers.PER_LAYER`.  A full report and
the spans are written under `.perfbench_work/` in the repository root.

`--tiny` shrinks every instance and sets up once, for the smoke test.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
RUN_BUDGET_S = 170  # every run must end within 180 s, set-up included
# setup_s is the median of 3 to 9 set-ups: set-ups repeat until 4 s are spent,
# so the cheap ones, whose times spread most, get the most samples
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 4.0

DENSITY, FP_NOISE = 0.2, 0.3
# gen knobs per size; eval_large is scaled down from 1,500 constants (3-4.5 s
# per call) so that a run holds enough rounds for steady medians.
WORKLOADS = {
    "exact_front": {
        "full": {"sets": 22, "join-rules": 4, "universe": 300, "fn-noise": 0.0},
        "tiny": {"sets": 10, "join-rules": 2, "universe": 60, "fn-noise": 0.0},
        "ops": ("select_exact_fpfn", "select_exact_fp", "pareto", "bilevel"),
    },
    "greedy_sweep": {
        "full": {"sets": 60, "join-rules": 15, "universe": 600, "fn-noise": 0.0},
        "tiny": {"sets": 14, "join-rules": 3, "universe": 80, "fn-noise": 0.0},
        "ops": ("select_greedy_fpfn", "select_greedy_fp", "eval"),
    },
    "eval_large": {
        "full": {"sets": 120, "join-rules": 30, "universe": 600, "fn-noise": 0.05},
        "tiny": {"sets": 20, "join-rules": 5, "universe": 100, "fn-noise": 0.05},
        "ops": ("check_feasible", "eval", "eval_subset"),
    },
}
# Operation -> CLI arguments before the instance files.  `eval_subset` adds
# `--select` with a fixed 10-rule subset of the instance.
OPS = {
    "select_exact_fpfn": ("select", "--method", "exact", "--objective", "fpfn"),
    "select_exact_fp": ("select", "--method", "exact", "--objective", "fp"),
    "pareto": ("pareto", "--objective", "fpfn"),
    "bilevel": ("bilevel", "--objective", "fp"),
    "select_greedy_fpfn": ("select", "--method", "greedy", "--objective", "fpfn"),
    "select_greedy_fp": ("select", "--method", "greedy", "--objective", "fp"),
    "eval": ("eval",),
    "eval_subset": ("eval",),
    "check_feasible": ("check-feasible",),
}
END_TO_END = {"setup_s": "s", "round_s": "s", "op_geomean_ms": "ms", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    pass


class Instance:
    """The generated files plus what the checks need to know about them."""

    def __init__(self, directory: Path):
        self.files = ("--rules", str(directory / "rules.rules"),
                      "--premise", str(directory / "premise.facts"),
                      "--truth", str(directory / "truth.facts"))
        rules_text = (directory / "rules.rules").read_text(encoding="utf-8")
        self.names = re.findall(r"^rule (\S+):", rules_text, flags=re.M)
        self.premise = _count_lines(directory / "premise.facts")
        self.truth = _count_lines(directory / "truth.facts")
        step = max(1, len(self.names) // 10)
        self.subset = self.names[::step][:10]
        self.universe = self.words = None

    def argv(self, op: str) -> list:
        extra = ("--select", ",".join(self.subset)) if op == "eval_subset" else ()
        return [*OPS[op], *extra, *self.files]


def _count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


class Call:
    __slots__ = ("rc", "stdout", "stderr", "wall_s", "rss_mb", "spans")


class Runner:
    """Starts one child at a time and waits for it; nothing outlives a call."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.ops_started = 0

    def call(self, argv, traced=False) -> Call:
        self.ops_started += 1
        spans_path = self.work / "spans.tmp"
        if traced:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans_path),
                   str(self.ops_started), *argv]
        else:
            cmd = [sys.executable, "-m", "ruleselect.cli", *argv]
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.work / "stdout", "w+b") as out, open(self.work / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the child down with us
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
            result = Call()
            result.wall_s = time.perf_counter() - start
            proc.returncode = result.rc = os.waitstatus_to_exitcode(status)
            result.rss_mb = usage.ru_maxrss / 1024.0
            out.seek(0)
            err.seek(0)
            result.stdout = out.read().decode("utf-8", "replace")
            result.stderr = err.read().decode("utf-8", "replace")
        result.spans = None
        if traced and spans_path.exists():
            result.spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        return result


def _parse_report(call: Call):
    """The stdout JSON object of a successful call, or None."""
    if call.rc != 0:
        return None
    try:
        out = json.loads(call.stdout)
    except ValueError:
        return None
    return out if isinstance(out, dict) else None


def _normalized(out: dict) -> str:
    return json.dumps({k: v for k, v in out.items() if k != "runtime_ms"})


def _digest(call: Call, out: dict) -> str:
    return hashlib.sha256(f"{call.rc}\n{_normalized(out)}".encode()).hexdigest()


def check_output(op: str, out: dict, inst: Instance) -> list:
    """Properties of one operation's report that hold on every seed."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(f"{op}: {what}")

    args = OPS[op]
    need(out.get("command") == args[0], f"command is {out.get('command')!r}")
    for flag, value in zip(args[1::2], args[2::2]):
        need(out.get(flag[2:]) == value, f"{flag[2:]} is {out.get(flag[2:])!r}")
    if op == "check_feasible":
        missing = out.get("missing")
        need(isinstance(missing, list) and missing == sorted(missing), "missing not a sorted list")
        need(out.get("feasible") is (missing == []), "feasible disagrees with missing")
        return problems
    if op == "pareto":
        points = out.get("pareto_points") or [[None, None]]
        need(points[0] == [inst.truth, 0], "front does not start at (|truth|, 0)")
        need(all(a[0] > b[0] and a[1] < b[1] for a, b in zip(points, points[1:])),
             "front not strictly improving")
        return problems
    selected = out.get("selected_rules")
    need(isinstance(selected, list) and selected == sorted(selected)
         and set(selected) <= set(inst.names), "selected_rules not sorted rule names")
    fp, fn, err = out.get("fp_count"), out.get("fn_count"), out.get("error")
    if not all(isinstance(x, int) and x >= 0 for x in (fp, fn, err, out.get("size"))):
        return problems + [f"{op}: counts missing or negative"]
    if out.get("objective") == "fp":
        need(fn == 0 and err == fp, "fp objective needs fn_count 0 and error == fp_count")
    else:
        need(err == fp + fn, "error != fp_count + fn_count")
    if op == "eval":
        need(selected == sorted(inst.names), "eval did not select every rule")
    if op == "eval_subset":
        need(selected == sorted(inst.subset), "eval --select changed the selection")
    if op.startswith("select_exact") or op == "bilevel":
        need(out.get("optimal") is True, "exact answer not marked optimal")
    if op.startswith("select_greedy"):
        bound = out.get("bound_value")
        need(isinstance(bound, (int, float)) and bound >= 1, "bound_value below 1")
    return problems


def cross_check(outs: dict) -> list:
    """(operation, problem) pairs for answers of one round that must agree."""
    problems = []
    if "select_exact_fpfn" in outs and "pareto" in outs:
        best = min(outs["pareto"]["pareto_points"])
        sel = outs["select_exact_fpfn"]
        if sel["error"] != best[0] or sel["size"] < best[1]:
            problems.append(("pareto", "exact fpfn optimum is not the front's least error"))
    if "select_exact_fp" in outs and "bilevel" in outs:
        bil, sel = outs["bilevel"], outs["select_exact_fp"]
        if bil["error"] != sel["error"] or bil["size"] > sel["size"]:
            problems.append(("bilevel", "bilevel fp disagrees with exact fp select"))
    if "check_feasible" in outs and "eval" in outs:
        if len(outs["check_feasible"]["missing"]) != outs["eval"]["fn_count"]:
            problems.append(("check_feasible", "missing count != fn_count of eval over all rules"))
    return problems


class Workload:
    """One run: set-up, the closed loop, the checks and the figures."""

    def __init__(self, name, seed, seconds, trace, tiny):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.size = "tiny" if tiny else "full"
        self.spec = WORKLOADS[name]
        self.work = ROOT / ".perfbench_work" / f"{name}-{self.size}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.runner = Runner(self.work, time.perf_counter() + RUN_BUDGET_S)
        self.expected = {}      # op -> normalized output of its first call
        self.digests = {}       # op -> digest of its first call
        self.verified = {}      # greedy answer -> problems from re-evaluating it
        self.known = _load_digests().get(self.size, {}).get(name, {}) \
            if seed == DEFAULT_SEED else {}
        self.samples = {op: [] for op in self.spec["ops"]}
        self.untraced_round_s, self.traced_round_s, self.traced_rounds = [], [], []
        self.setup_s, self.rss_mb, self.problems = [], [], []
        self.attempted = self.failed = 0
        self.absent = set()

    # -- set-up ---------------------------------------------------------
    def setup(self):
        knobs = self.spec[self.size]
        gen = ["gen", "random", "--seed", str(self.seed), "--density", str(DENSITY),
               "--fp-noise", str(FP_NOISE), "--out", str(self.work / "instance")]
        for key, value in knobs.items():
            gen += [f"--{key}", str(value)]
        least, most = (1, 1) if self.size == "tiny" else (SETUP_MIN, SETUP_MAX)
        while len(self.setup_s) < least or \
                (len(self.setup_s) < most and sum(self.setup_s) < SETUP_BUDGET_S):
            start = time.perf_counter()
            made = self.runner.call(gen)
            if made.rc != 0:
                raise SetupError(f"gen failed with exit {made.rc}: {made.stderr.strip()}")
            self.inst = Instance(self.work / "instance")
            warm = self.runner.call(self.inst.argv("eval"))
            self.setup_s.append(time.perf_counter() - start)
            out = _parse_report(warm)
            if out is None or check_output("eval", out, self.inst):
                raise SetupError(f"warm-up eval failed with exit {warm.rc}: {warm.stderr.strip()}")
            self.expected.setdefault("eval", _normalized(out))
            if _normalized(out) != self.expected["eval"]:
                raise SetupError("warm-up eval differs between set-ups of one seed")
        self.inst.universe = out["fp_count"] + self.inst.truth
        self.inst.words = max(1, -(-self.inst.universe // 64))

    # -- closed loop ----------------------------------------------------
    def run(self):
        deadline = time.perf_counter() + self.seconds
        k = 0
        min_rounds = 2 if self.trace else 1
        while (k < min_rounds or time.perf_counter() < deadline) \
                and time.perf_counter() < self.runner.deadline:
            # traced rounds pair with untraced ones, alternating which goes first
            traced = self.trace and k % 4 in (1, 2)
            self.round(traced)
            k += 1

    def round(self, traced: bool):
        outs, calls, failed_ops, total = {}, [], set(), 0.0
        for op in self.spec["ops"]:
            call = self.runner.call(self.inst.argv(op), traced=traced)
            self.attempted += 1
            total += call.wall_s
            self.rss_mb.append(call.rss_mb)
            problems = self.check(op, call)
            if traced:
                if call.spans is None:
                    problems.append(f"{op}: traced call wrote no spans")
                else:
                    self.absent.update(call.spans["absent"], call.spans["uncounted"])
                    calls.append((op, call.wall_s, call.spans["op"], call.spans["spans"]))
            else:
                self.samples[op].append(1000.0 * call.wall_s)
            if problems:
                failed_ops.add(op)
                self.problems.extend(problems)
            else:
                outs[op] = _parse_report(call)
        for op, problem in cross_check(outs):
            failed_ops.add(op)
            self.problems.append(f"{op}: {problem}")
        self.failed += len(failed_ops)
        if traced:
            self.traced_round_s.append(total)
            self.traced_rounds.append(calls)
        else:
            self.untraced_round_s.append(total)

    def check(self, op: str, call: Call) -> list:
        out = _parse_report(call)
        if out is None:
            return [f"{op}: exit {call.rc}, stderr {call.stderr.strip()[:200]!r}"]
        try:
            problems = check_output(op, out, self.inst)
        except (TypeError, KeyError, IndexError):
            return [f"{op}: malformed report {call.stdout[:200]!r}"]
        text = _normalized(out)
        if self.expected.setdefault(op, text) != text:
            problems.append(f"{op}: output differs from the first call of this run")
        digest = _digest(call, out)
        self.digests.setdefault(op, digest)
        if op in self.known and digest != self.known[op]:
            problems.append(f"{op}: output differs from the recorded default-seed digest")
        if op.startswith("select_greedy") and not problems:
            problems += self.recheck_greedy(op, out)
        return problems

    def recheck_greedy(self, op: str, out: dict) -> list:
        """An untimed `eval --select` of the chosen rules must reproduce the counts."""
        key = _normalized(out)
        if key not in self.verified:
            call = self.runner.call(["eval", "--select", ",".join(out["selected_rules"]),
                                     *self.inst.files])
            again = _parse_report(call) or {}
            same = all(again.get(k) == out[k] for k in ("fp_count", "fn_count", "size"))
            self.verified[key] = [] if same else [f"{op}: eval --select of the answer disagrees"]
        return list(self.verified[key])

    # -- figures --------------------------------------------------------
    def end_to_end(self) -> dict:
        medians = [statistics.median(v) for v in self.samples.values()]
        values = {
            "setup_s": statistics.median(self.setup_s),
            "round_s": statistics.median(self.untraced_round_s),
            "op_geomean_ms": math.exp(statistics.fmean(math.log(m) for m in medians)),
            "peak_rss_mb": max(self.rss_mb),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def per_layer(self) -> dict:
        spans_only = [[spans for _, _, _, spans in calls] for calls in self.traced_rounds]
        return layers.run_metrics(spans_only, self.traced_round_s, self.untraced_round_s,
                                  self.failed / self.attempted)

    def shares_by_op(self) -> dict:
        by_op = {}
        for calls in self.traced_rounds:
            for op, _, _, spans in calls:
                by_op.setdefault(op, []).append(spans)
        by_op["round"] = [spans for calls in self.traced_rounds for _, _, _, spans in calls]
        return {op: layers.layer_shares(calls) for op, calls in by_op.items()}


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    sys.path.insert(0, str(SRC))
    try:
        from ruleselect import _kernels
        backend = _kernels.default_backend()
    except (ImportError, AttributeError, ValueError):
        backend = "absent"
    commit = "absent"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "numba": version("numba"), "kernel_backend": backend,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def _load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny instances, one set-up")
    args = parser.parse_args(argv)
    if not (SRC / "ruleselect" / "cli.py").is_file():
        print(f"perfbench: no ruleselect sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.pop("RULESELECT_BACKEND", None)  # children use the default backend
    load_start = os.getloadavg()
    bench = Workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    try:
        bench.setup()
    except SetupError as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 1
    bench.run()
    env = {**environment(), "load_start": load_start, "load_end": os.getloadavg()}

    inst = bench.inst
    stats = {"rules": len(inst.names), "premise_facts": inst.premise, "truth_facts": inst.truth,
             "universe_facts": inst.universe, "words": inst.words}
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    ops = {f"{op}_ms": {"median": statistics.median(v), "quartiles": _quartiles(v),
                        "samples": len(v)} for op, v in bench.samples.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "size": bench.size, "trace": args.trace,
        "instance": stats, "environment": env, "operations": ops,
        "failed_share": bench.failed / bench.attempted, "problems": bench.problems[:50],
        "setup_s": bench.setup_s, "round_s": bench.untraced_round_s,
        "traced_round_s": bench.traced_round_s, "absent_spans": sorted(bench.absent),
        "layer_shares_pct": bench.shares_by_op() if args.trace else {},
        "digests": bench.digests, "metrics": metrics,
    }
    (bench.work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if args.trace:
        spans = [{"round": r, "op_id": op_id, "op": op, "wall_s": wall, "spans": spans}
                 for r, calls in enumerate(bench.traced_rounds)
                 for op, wall, op_id, spans in calls]
        (bench.work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print(f"workload {args.workload} ({bench.size}), seed {args.seed}, trace {args.trace}")
    print("instance: " + ", ".join(f"{k} {v}" for k, v in stats.items()))
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, op in ops.items():
        print(f"{name}: median {op['median']:.1f} ms over {op['samples']} samples")
    print(f"failed_share: {report['failed_share']} ({bench.failed} of {bench.attempted})")
    for problem in bench.problems[:10]:
        print(f"problem: {problem}")
    if bench.absent:
        print("absent spans or counters: " + ", ".join(sorted(bench.absent)))
    for op, shares in report["layer_shares_pct"].items():
        print(f"layer share % {op}: " + ", ".join(f"{k} {v:.1f}" for k, v in shares.items()))
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
