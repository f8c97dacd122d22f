"""Command-line interface: evaluate, select, pareto, bilevel, member, gen, check-feasible.

Reports are JSON on stdout with a fixed key order; every failure is a single
JSON error object on stderr with a machine-readable code.  Exit codes:
0 success, 1 usage/parse error, 2 FP-mode infeasibility, 3 capacity exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import covering, generators
from .evaluation import check_fp_feasible, compute_errors
from .model import (
    CapacityError,
    CoverageError,
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
    p_gen.add_argument("--fp-noise", type=float, default=0.0)
    p_gen.add_argument("--fn-noise", type=float, default=0.0)
    p_gen.add_argument("--join-rules", type=int, default=0)
    p_gen.add_argument("--out", required=True, metavar="DIR")
    p_gen.add_argument("--pretty", action="store_true")
    return parser


def _parse_limits(spec: Optional[str]) -> Optional[EvalLimits]:
    if spec is None:
        return None
    try:
        a, r = (int(part) for part in spec.split(","))
    except ValueError:
        raise UsageError(f"--limits expects 'a,r', got {spec!r}") from None
    return EvalLimits(max_premise_atoms=a, max_conclusion_arity=r)


def _parse_point(spec: str):
    try:
        e, s = (int(part) for part in spec.split(","))
    except ValueError:
        raise UsageError(f"--point expects 'e,s', got {spec!r}") from None
    return e, s


def _load(args):
    rules = parse_rules(Path(args.rules).read_text(encoding="utf-8"), file=args.rules)
    limits = _parse_limits(args.limits)
    if limits is not None:
        validate(rules, limits)
    premise = parse_facts(Path(args.premise).read_text(encoding="utf-8"),
                          schema=rules.premise_schema, file=args.premise)
    truth = parse_facts(Path(args.truth).read_text(encoding="utf-8"),
                        schema=rules.conclusion_schema, file=args.truth)
    return rules, DataExample(premise=premise, truth=truth)


# Only the enumeration commands import `exact`, which loads numpy.
def _exact_config(args):
    from .exact import ExactConfig

    kwargs = {"objective": args.objective}
    if args.max_rules is not None:
        kwargs["max_rules"] = args.max_rules
    return ExactConfig(**kwargs)


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
        from . import exact

        err, selection = exact.solve_exact(rules, example, _exact_config(args))
        body, _ = _selection_report(rules, example, selection)
        return {"command": "select", "objective": args.objective, "method": "exact",
                **body, "error": err, "optimal": True}
    if args.objective == "fp":
        cover = covering.solve_rbsc_greedy(covering.build_rbsc(rules, example))
        bound = covering.greedy_fp_bound(len(rules), len(example.truth.facts))
    else:
        cover = covering.solve_pnpsc_approx(covering.build_pnpsc(rules, example))
        bound = covering.greedy_fpfn_bound(len(rules), len(example.truth.facts))
    selection = frozenset(cover.chosen)
    body, total = _selection_report(rules, example, selection)
    err = body["fp_count"] if args.objective == "fp" else total
    return {"command": "select", "objective": args.objective, "method": "greedy",
            **body, "error": err, "bound_value": round(bound, 4)}


def _cmd_pareto(args) -> dict:
    from . import exact

    rules, example = _load(args)
    front = exact.pareto_front(rules, example, _exact_config(args))
    points = [[p.error, p.size] for p in sorted(front, key=lambda p: p.size)]
    return {"command": "pareto", "objective": args.objective, "pareto_points": points}


def _cmd_bilevel(args) -> dict:
    from . import exact

    rules, example = _load(args)
    result = exact.bilevel_optimum(rules, example, _exact_config(args))
    body, _ = _selection_report(rules, example, result.witness)
    return {"command": "bilevel", "objective": args.objective, **body,
            "error": result.error, "size": result.size, "optimal": True}


def _cmd_member(args) -> dict:
    from . import exact

    rules, example = _load(args)
    e, s = _parse_point(args.point)
    member = exact.pareto_membership(rules, example, e, s,
                                     _exact_config(args))
    return {"command": "member", "objective": args.objective,
            "member": member, "point": [e, s]}


def _cmd_check_feasible(args) -> dict:
    rules, example = _load(args)
    missing = check_fp_feasible(rules, example)
    return {"command": "check-feasible", "feasible": not missing,
            "missing": sorted(map(str, missing))}


def _cmd_gen(args) -> dict:
    gs = generators.GenSeed(
        seed=args.seed, n_universe=args.universe, n_sets=args.sets,
        density=args.density, fp_noise=args.fp_noise, fn_noise=args.fn_noise,
        join_rules=args.join_rules)
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


def _emit(report: dict, pretty: bool, stream):
    if pretty:
        for key, value in report.items():
            if key == "pareto_points":
                print("pareto_points:", file=stream)
                print("  error  size", file=stream)
                for e, s in value:
                    print(f"  {e:5d}  {s:4d}", file=stream)
            else:
                print(f"{key}: {json.dumps(value)}", file=stream)
    else:
        print(json.dumps(report), file=stream)


def _error(code: str, message: str, detail: Optional[dict] = None):
    body = {"error": {"code": code, "message": message}}
    if detail:
        body["error"].update(detail)
    print(json.dumps(body), file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        _error("usage", str(e))
        return EXIT_USAGE
    if args.command is None:
        _error("usage", "missing subcommand")
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        report = _COMMANDS[args.command](args)
    except UsageError as e:
        _error("usage", str(e))
        return EXIT_USAGE
    except ParseError as e:
        _error("parse_error", str(e))
        return EXIT_USAGE
    except InfeasibleError as e:
        _error("fp_infeasible", str(e),
               {"missing": sorted(map(str, e.missing))})
        return EXIT_INFEASIBLE
    except CapacityError as e:
        _error("capacity_exceeded", str(e))
        return EXIT_CAPACITY
    except (ValidationError, CoverageError) as e:
        _error("validation_error", str(e))
        return EXIT_USAGE
    except OSError as e:
        _error("io_error", str(e))
        return EXIT_USAGE
    except Exception as e:  # contract: failures are always a JSON object on stderr
        _error("internal_error", f"{type(e).__name__}: {e}")
        return EXIT_USAGE
    report["runtime_ms"] = int((time.perf_counter() - start) * 1000)
    _emit(_ordered(report), getattr(args, "pretty", False), sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
