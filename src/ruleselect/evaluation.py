"""Rule evaluation on premise instances, builtin predicates, and error reports.

Evaluating a rule enumerates all variable assignments under which every
relational premise atom maps to a stored fact and every builtin atom holds,
then instantiates the conclusion.  Relational atoms bind variables; builtins
only filter.  A rule list is evaluated once per premise: `evaluated` memoizes
its per-rule outputs on the premise `Instance`, and every function here and in
the solvers reads them from there.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .model import (
    BuiltinAtom,
    DataExample,
    ErrorReport,
    EvaluationError,
    Fact,
    Instance,
    Rule,
    RuleSet,
    Selection,
    ValidationError,
    check_selection,
    display_var,
    literal,
)
from .parser import write_rules

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> frozenset:
    """Lowercase, split on non-alphanumeric runs, drop empties, deduplicate."""
    return frozenset(_TOKEN_RE.findall(text.lower()))


def _as_text(v) -> str:
    return v if isinstance(v, str) else literal(v)


def jaccard(x, y) -> Fraction:
    """Token-set Jaccard similarity in [0, 1]; two empty token sets count as equal."""
    a = tokenize(_as_text(x))
    b = tokenize(_as_text(y))
    if not a and not b:
        return Fraction(1)
    return Fraction(len(a & b), len(a | b))


#: Builtin name -> predicate; all are pure, deterministic, and total on constants.
#: geq/leq compare numbers numerically, texts lexicographically; cross-kind is false.
BUILTINS: dict = {
    "neq": lambda vals, thr: vals[0] != vals[1],
    "eq": lambda vals, thr: vals[0] == vals[1],
    "jaccard_geq": lambda vals, thr: jaccard(vals[0], vals[1]) >= thr,
    "geq": lambda vals, thr: (isinstance(vals[0], str) == isinstance(vals[1], str)
                              and vals[0] >= vals[1]),
    "leq": lambda vals, thr: (isinstance(vals[0], str) == isinstance(vals[1], str)
                              and vals[0] <= vals[1]),
}


def _eval_builtin(atom: BuiltinAtom, binding: dict) -> bool:
    vals = tuple(binding[t.var] if t.is_var else t.const for t in atom.terms)
    return BUILTINS[atom.name](vals, atom.threshold)


def _pick_next_atom(remaining, bound, premise: Instance):
    # Most already-bound variables; tie-break smaller relation, then premise order.
    best = None
    for pos, atom in remaining:
        n_bound = len(set(atom.variables()) & bound)
        key = (-n_bound, len(premise.bucket(atom.relation)), pos)
        if best is None or key < best[0]:
            best = (key, pos, atom)
    return best[1], best[2]


def eval_rule(rule: Rule, premise: Instance) -> frozenset:
    """All conclusion facts derivable from the premise instance via this rule.

    Join order is greedy: at each step the unprocessed relational atom with
    the most already-bound variables is joined next (ties: smallest relation,
    then premise order), via the premise's shared index on its bound
    positions.  Builtins are applied as soon as all their variables are bound.
    """
    unsafe = rule.unsafe_variables()
    if unsafe:
        shown = ", ".join(display_var(v) for v in unsafe)
        raise ValidationError(f"rule {rule.name} is unsafe: {shown} unbound")
    for atom in rule.relational_atoms():
        arity = premise.schema.get(atom.relation)
        if arity is None:
            raise EvaluationError(
                f"rule {rule.name} references unknown relation {atom.relation}")
        if arity != len(atom.terms):
            raise EvaluationError(
                f"rule {rule.name}: {atom.relation} has arity {arity}, "
                f"atom uses {len(atom.terms)}")

    bindings = [{}]
    bound: set = set()
    remaining = list(enumerate(rule.relational_atoms()))
    pending = list(rule.builtin_atoms())

    def apply_ready_builtins():
        nonlocal bindings, pending
        still = []
        for atom in pending:
            if set(atom.variables()) <= bound:
                bindings = [b for b in bindings if _eval_builtin(atom, b)]
            else:
                still.append(atom)
        pending = still

    apply_ready_builtins()
    while remaining and bindings:
        pos, atom = _pick_next_atom(remaining, bound, premise)
        remaining = [(p, a) for p, a in remaining if p != pos]

        fixed = []     # positions matched against the index key
        free = []      # positions binding new variables
        for i, t in enumerate(atom.terms):
            if t.is_var and t.var not in bound:
                free.append((i, t.var))
            else:
                fixed.append(i)
        index = premise.lookup(atom.relation, tuple(fixed))

        new_bindings = []
        for b in bindings:
            key = tuple(
                b[atom.terms[i].var] if atom.terms[i].is_var else atom.terms[i].const
                for i in fixed)
            for f in index.get(key, ()):
                ext = dict(b)
                ok = True
                for i, name in free:
                    v = f.args[i]
                    if name in ext and ext[name] != v:
                        ok = False
                        break
                    ext[name] = v
                if ok:
                    new_bindings.append(ext)
        bindings = new_bindings
        bound |= {v for _, v in free}
        apply_ready_builtins()

    out = set()
    for b in bindings:
        args = tuple(b[t.var] if t.is_var else t.const for t in rule.head.terms)
        out.add(Fact(rule.head.relation, args))
    return frozenset(out)


class EvalCache:
    """Per-rule evaluation results of one rule list on one premise instance.

    Built once, then read-only; selection queries cost only set unions.  Get
    one through `evaluated`, which shares one per premise and rule list.
    """

    __slots__ = ("per_rule", "union")

    def __init__(self, rules: RuleSet, premise: Instance):
        self.per_rule = {r.name: eval_rule(r, premise) for r in rules.rules}
        self.union = frozenset().union(*self.per_rule.values()) if self.per_rule else frozenset()

    def eval_selection(self, selection: Selection) -> frozenset:
        if not selection:
            return frozenset()
        return frozenset().union(*(self.per_rule[name] for name in selection))


def evaluated(rules: RuleSet, premise: Instance) -> EvalCache:
    """The per-rule outputs of `rules` on `premise`, memoized on the premise.

    Keyed by the canonical rule text, so an equal rule list built anew shares
    them, and lists that spell a constant differently (`1`, `1.0`) do not.
    """
    return premise.derived(write_rules(rules), lambda: EvalCache(rules, premise))


def eval_ruleset(rules: RuleSet, selection: Iterable[str], premise: Instance) -> frozenset:
    """Union of per-rule outputs over the chosen rules."""
    sel = check_selection(rules, selection)
    return evaluated(rules, premise).eval_selection(sel)


def compute_errors(rules: RuleSet, selection: Iterable[str],
                   example: DataExample) -> ErrorReport:
    """FP = produced facts absent from the truth; FN = truth facts not produced."""
    produced = eval_ruleset(rules, selection, example.premise)
    truth = example.truth.facts
    return ErrorReport(fp=produced - truth, fn=truth - produced)


@dataclass(frozen=True)
class Feasibility:
    ok: bool
    missing: frozenset


def check_fp_feasible(rules: RuleSet, example: DataExample) -> Feasibility:
    """Whether the full rule set derives every truth fact (zero-FN is attainable)."""
    missing = example.truth.facts - evaluated(rules, example.premise).union
    return Feasibility(ok=not missing, missing=missing)
