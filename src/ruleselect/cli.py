"""Command-line interface: evaluate, select, pareto, bilevel, member, gen, check-feasible.

Reports are JSON on stdout with a fixed key order, exit status 0; every failure
is a single JSON error object on stderr, whose code and exit status `_FAILURES`
gives: 2 FP-mode infeasibility, 3 capacity exceeded, 1 any other failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .evaluation import check_fp_feasible, compute_errors
from .model import (
    CapacityError,
    DataExample,
    EvalLimits,
    InfeasibleError,
    RuleSet,
    ValidationError,
    check_selection,
    ruleset_size,
    validate,
)
from .parser import ParseError, parse_facts, parse_rules, write_facts, write_rules

_KEY_ORDER = (
    "command", "objective", "method", "selected_rules", "fp_count", "fn_count",
    "error", "size", "bound_value", "optimal", "member", "point",
    "pareto_points", "feasible", "missing", "files", "seed", "runtime_ms",
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_CAPACITY = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); we own the exit codes
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ruleselect", add_help=True)
    sub = parser.add_subparsers(dest="command")

    def add_common(p, enumerates=True):
        p.add_argument("--rules", required=True)
        p.add_argument("--premise", required=True)
        p.add_argument("--truth", required=True)
        p.add_argument("--limits", default=None, metavar="a,r")
        if enumerates:
            p.add_argument("--max-rules", type=int, default=None)
        p.add_argument("--pretty", action="store_true")

    p_eval = sub.add_parser("eval", description="Evaluate a selection against the truth.")
    add_common(p_eval, enumerates=False)
    p_eval.add_argument("--select", default=None, help="comma-separated rule names (default: all)")

    p_select = sub.add_parser("select", description="Pick a low-error subset of rules.")
    add_common(p_select)
    p_select.add_argument("--objective", choices=("fp", "fpfn"), required=True)
    p_select.add_argument("--method", choices=("greedy", "exact"), required=True)

    for name in ("pareto", "bilevel"):
        p = sub.add_parser(name)
        add_common(p)
        p.add_argument("--objective", choices=("fp", "fpfn"), default="fpfn")

    p_member = sub.add_parser("member", description="Is (error, size) on the Pareto front?")
    add_common(p_member)
    p_member.add_argument("--objective", choices=("fp", "fpfn"), default="fpfn")
    p_member.add_argument("--point", required=True, metavar="e,s")

    p_feas = sub.add_parser("check-feasible")
    add_common(p_feas, enumerates=False)

    p_gen = sub.add_parser("gen", description="Generate an instance onto disk.")
    p_gen.add_argument("mode", choices=("thm1", "thm3", "clones", "random"))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--universe", type=int, default=8)
    p_gen.add_argument("--sets", type=int, default=5)
    p_gen.add_argument("--density", type=float, default=0.3)
    p_gen.add_argument("--fp-noise", type=float, default=None)  # these three: random only
    p_gen.add_argument("--fn-noise", type=float, default=None)
    p_gen.add_argument("--join-rules", type=int, default=None)
    p_gen.add_argument("--out", required=True, metavar="DIR")
    p_gen.add_argument("--pretty", action="store_true")
    return parser


def _int_pair(option: str, spec: str, shape: str) -> tuple:
    """The two integers of `spec`, written "x,y"; a usage error otherwise."""
    try:
        x, y = (int(part) for part in spec.split(","))
    except ValueError:
        raise UsageError(f"{option} expects {shape!r}, got {spec!r}") from None
    return x, y


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise OSError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None


def _load(args):
    rules = parse_rules(_read(args.rules), file=args.rules)
    if args.limits is not None:
        validate(rules, EvalLimits(*_int_pair("--limits", args.limits, "a,r")))
    premise = parse_facts(_read(args.premise), schema=rules.premise_schema, file=args.premise)
    truth = parse_facts(_read(args.truth), schema=rules.conclusion_schema, file=args.truth)
    return rules, DataExample(premise=premise, truth=truth)


def _exact():
    """The `exact` module, imported only by the enumeration commands.

    An enumeration past 16 rules loads numpy, whose bundled OpenBLAS starts a
    thread pool as it loads unless told otherwise.  No ruleselect code calls
    BLAS, so the CLI process asks for one thread before any such import,
    unless its environment already sets a count.  Importing the package as a
    library leaves the variable alone.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import exact

    return exact


def _exact_config(args):
    kwargs = {"objective": args.objective}
    if args.max_rules is not None:
        kwargs["max_rules"] = args.max_rules
    return _exact().ExactConfig(**kwargs)


def _selection_report(rules: RuleSet, example: DataExample, selection):
    report = compute_errors(rules, selection, example)
    body = {
        "selected_rules": sorted(selection),
        "fp_count": report.fp_count,
        "fn_count": report.fn_count,
        "size": ruleset_size(selection, rules),
    }
    return body, report.total


def _cmd_eval(args) -> dict:
    rules, example = _load(args)
    if args.select is not None:  # evaluate only the selected rules
        names = check_selection(rules, (s for s in args.select.split(",") if s))
        rules = RuleSet([r for r in rules.rules if r.name in names],
                        rules.premise_schema, rules.conclusion_schema)
    body, total = _selection_report(rules, example, frozenset(rules.names()))
    return {"command": "eval", **body, "error": total}


def _cmd_select(args) -> dict:
    if args.method != "exact" and args.max_rules is not None:
        raise UsageError("--max-rules applies only to --method exact")
    rules, example = _load(args)
    if args.method == "exact":
        err, selection = _exact().solve_exact(rules, example, _exact_config(args))
        body, _ = _selection_report(rules, example, selection)
        return {"command": "select", "objective": args.objective, "method": "exact",
                **body, "error": err, "optimal": True}
    from . import covering

    if args.objective == "fp":
        cover = covering.solve_rbsc_greedy(covering.build_rbsc(rules, example))
    else:
        cover = covering.solve_pnpsc_approx(covering.build_pnpsc(rules, example))
    body, _ = _selection_report(rules, example, frozenset(cover.chosen))
    return {"command": "select", "objective": args.objective, "method": "greedy",
            **body, "error": cover.cost, "bound_value": round(cover.bound, 4)}


def _cmd_pareto(args) -> dict:
    rules, example = _load(args)
    front = _exact().pareto_front(rules, example, _exact_config(args))
    points = [[p.error, p.size] for p in sorted(front, key=lambda p: p.size)]
    return {"command": "pareto", "objective": args.objective, "pareto_points": points}


def _cmd_bilevel(args) -> dict:
    rules, example = _load(args)
    result = _exact().bilevel_optimum(rules, example, _exact_config(args))
    body, _ = _selection_report(rules, example, result.witness)
    return {"command": "bilevel", "objective": args.objective, **body,
            "error": result.error, "optimal": True}


def _cmd_member(args) -> dict:
    rules, example = _load(args)
    e, s = _int_pair("--point", args.point, "e,s")
    member = _exact().pareto_membership(rules, example, e, s, _exact_config(args))
    return {"command": "member", "objective": args.objective,
            "member": member, "point": [e, s]}


def _cmd_check_feasible(args) -> dict:
    rules, example = _load(args)
    missing = check_fp_feasible(rules, example)
    return {"command": "check-feasible", "feasible": not missing,
            "missing": sorted(map(str, missing))}


def _cmd_gen(args) -> dict:
    from . import generators

    knobs = {name: getattr(args, name) for name in ("fp_noise", "fn_noise", "join_rules")
             if getattr(args, name) is not None}
    if knobs and args.mode != "random":
        option = "--" + next(iter(knobs)).replace("_", "-")
        raise UsageError(f"{option} applies only to gen random")
    gs = generators.GenSeed(seed=args.seed, n_universe=args.universe, n_sets=args.sets,
                            density=args.density, **knobs)
    if args.mode == "random":
        rules, example = generators.gen_random_ruleselect(gs)
    else:
        sc = generators.gen_random_setcover(gs)
        build = {"thm1": generators.rules_from_set_cover,
                 "thm3": generators.rules_from_set_cover_indexed,
                 "clones": generators.rules_from_set_cover_clones}[args.mode]
        rules, example = build(sc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "rules.rules": write_rules(rules),
        "premise.facts": write_facts(example.premise),
        "truth.facts": write_facts(example.truth),
        "manifest.json": generators.manifest_line(args.mode, gs) + "\n",
    }
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return {"command": "gen", "method": args.mode, "files": sorted(files),
            "seed": args.seed}


_COMMANDS = {
    "eval": _cmd_eval,
    "select": _cmd_select,
    "pareto": _cmd_pareto,
    "bilevel": _cmd_bilevel,
    "member": _cmd_member,
    "check-feasible": _cmd_check_feasible,
    "gen": _cmd_gen,
}


def _ordered(report: dict) -> dict:
    out = {key: report[key] for key in _KEY_ORDER if key in report}
    leftovers = set(report) - set(out)
    if leftovers:
        raise RuntimeError(f"unordered report keys: {leftovers}")
    return out


def _emit(report: dict, pretty: bool):
    if pretty:
        for key, value in report.items():
            if key == "pareto_points":
                print("pareto_points:")
                print("  error  size")
                for e, s in value:
                    print(f"  {e:5d}  {s:4d}")
            else:
                print(f"{key}: {json.dumps(value)}")
    else:
        print(json.dumps(report))


def _error(code: str, message: str, **detail):
    print(json.dumps({"error": {"code": code, "message": message, **detail}}), file=sys.stderr)


# (failure class, error code, exit status): a failure takes the first row it
# is an instance of; any other is an internal_error with exit status 1.
_FAILURES = (
    (UsageError, "usage", EXIT_USAGE),
    (ParseError, "parse_error", EXIT_USAGE),
    (InfeasibleError, "fp_infeasible", EXIT_INFEASIBLE),
    (CapacityError, "capacity_exceeded", EXIT_CAPACITY),
    (ValidationError, "validation_error", EXIT_USAGE),
    (OSError, "io_error", EXIT_USAGE),
    (ImportError, "usage", EXIT_USAGE),  # numpy, past the pure-Python enumeration
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand")
        start = time.perf_counter()
        report = _COMMANDS[args.command](args)
        report["runtime_ms"] = int((time.perf_counter() - start) * 1000)
        report = _ordered(report)
    except Exception as e:  # contract: failures are always a JSON object on stderr
        for kind, code, status in _FAILURES:
            if isinstance(e, kind):
                detail = {"missing": sorted(map(str, e.missing))} if kind is InfeasibleError else {}
                _error(code, str(e), **detail)
                return status
        _error("internal_error", f"{type(e).__name__}: {e}")
        return EXIT_USAGE
    try:
        _emit(report, args.pretty)
        sys.stdout.flush()
    except OSError as e:  # stdout closed, say by the reader of a pipe
        # Point stdout at devnull, so the flush at exit prints nothing more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _error("io_error", str(e))
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
