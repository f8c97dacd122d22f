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
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Optional

from .model import (
    BuiltinAtom,
    DataExample,
    ErrorReport,
    EvaluationError,
    Instance,
    RelationalAtom,
    Rule,
    RuleSet,
    Selection,
    ValidationError,
    check_selection,
    checked_fact,
    display_var,
    literal,
)
from .parser import write_rules

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> frozenset:
    """Lowercase, split on non-alphanumeric runs, drop empties, deduplicate."""
    return frozenset(_TOKEN_RE.findall(text.lower()))


def _as_text(v) -> str:
    """A constant's text for tokenizing: text as is, a number by its value
    (integer digits when integral, else a decimal without trailing zeros),
    so `2` and `2.0` read alike."""
    if isinstance(v, str):
        return v
    text = literal(v)
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


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


def _pick_next_atom(remaining, bound, premise: Instance):
    # Most already-bound variables; tie-break smaller relation, then premise order.
    best = None
    for pos, atom in remaining:
        n_bound = len(set(atom.variables()) & bound)
        key = (-n_bound, len(premise.bucket(atom.relation)), pos)
        if best is None or key < best[0]:
            best = (key, pos, atom)
    return best[1], best[2]


def _picker(positions: list):
    """A function from a tuple to the tuple of its items at `positions` (one or more)."""
    if len(positions) == 1:
        (i,) = positions
        return lambda t: (t[i],)
    return itemgetter(*positions)


def eval_rule(rule: Rule, premise: Instance, interned: Optional[dict] = None) -> frozenset:
    """All conclusion facts derivable from the premise instance via this rule.

    Join order is greedy: at each step the unprocessed relational atom with
    the most already-bound variables is joined next (ties: smallest relation,
    then premise order), via the premise's shared index on its bound
    positions.  Builtins are applied as soon as all their variables are bound.

    A binding is a tuple: the rule's constants, one slot per occurrence, then
    the variables in the order the join binds them.  `interned` (head
    relation -> {arguments: fact}) lets the rules of one list share their
    conclusion facts; `EvalCache` passes one for the whole list.
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

    # Each term as a reference: a constant's slot (int) or a variable's name.
    constants: list = []

    def refs(atom) -> list:
        out = []
        for t in atom.terms:
            if t.is_var:
                out.append(t.var)
            else:
                out.append(len(constants))
                constants.append(t.const)
        return out

    premise_refs = [refs(a) for a in rule.premise]
    head_refs = refs(rule.head)
    slot: dict = {}  # variable -> its slot in a binding

    def slots(terms: list) -> list:
        return [ref if isinstance(ref, int) else slot[ref] for ref in terms]

    bindings = [tuple(constants)]
    remaining = [(pos, a) for pos, a in enumerate(rule.premise) if isinstance(a, RelationalAtom)]
    pending = [(pos, a) for pos, a in enumerate(rule.premise) if isinstance(a, BuiltinAtom)]

    def apply_ready_builtins():
        nonlocal bindings, pending
        still = []
        for pos, atom in pending:
            if all(v in slot for v in atom.variables()):
                values = _picker(slots(premise_refs[pos]))
                holds, threshold = BUILTINS[atom.name], atom.threshold
                bindings = [b for b in bindings if holds(values(b), threshold)]
            else:
                still.append((pos, atom))
        pending = still

    apply_ready_builtins()
    while remaining and bindings:
        pos, atom = _pick_next_atom(remaining, slot.keys(), premise)
        remaining = [(p, a) for p, a in remaining if p != pos]

        fixed = []     # positions matched against the index key
        fresh = []     # positions binding new variables
        repeats = []   # (first position, later position) of a new variable
        first: dict = {}
        for i, ref in enumerate(premise_refs[pos]):
            if isinstance(ref, int) or ref in slot:
                fixed.append(i)
            elif ref in first:
                repeats.append((first[ref], i))
            else:
                first[ref] = i
                fresh.append(i)

        if fixed:
            index = premise.lookup(atom.relation, tuple(fixed))
            key = itemgetter(*slots([premise_refs[pos][i] for i in fixed]))
            matches = [(b, f.args) for b in bindings for f in index.get(key(b), ())]
        else:
            bucket = premise.bucket(atom.relation)
            matches = [(b, f.args) for b in bindings for f in bucket]
        if repeats:
            matches = [(b, a) for b, a in matches if all(a[i] == a[j] for i, j in repeats)]
        if fresh:
            new = _picker(fresh)
            bindings = [b + new(a) for b, a in matches]
        else:
            bindings = [b for b, _ in matches]
        for name in first:
            slot[name] = len(constants) + len(slot)
        apply_ready_builtins()

    if not bindings:
        return frozenset()
    relation = rule.head.relation
    known = {} if interned is None else interned.setdefault(relation, {})
    out = set()
    for args in map(_picker(slots(head_refs)), bindings):
        f = known.get(args)
        if f is None:
            f = known[args] = checked_fact(relation, args)
        out.add(f)
    return frozenset(out)


class EvalCache:
    """Per-rule evaluation results of one rule list on one premise instance.

    Built once, then read-only; selection queries cost only set unions.  Get
    one through `evaluated`, which shares one per premise and rule list.
    """

    __slots__ = ("per_rule", "union")

    def __init__(self, rules: RuleSet, premise: Instance):
        interned: dict = {}  # the rules share each conclusion fact they derive
        self.per_rule = {r.name: eval_rule(r, premise, interned) for r in rules.rules}
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


def check_fp_feasible(rules: RuleSet, example: DataExample) -> frozenset:
    """The truth facts the full rule set does not derive: empty exactly when
    zero-FN is attainable."""
    return example.truth.facts - evaluated(rules, example.premise).union
