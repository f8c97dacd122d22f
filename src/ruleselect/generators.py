"""Instance generators: set-cover encodings and seeded random instances.

The set-cover encodings are the classic hardness constructions for this
problem family; they double as a ground-truth corpus, since the optimum of
the produced rule-selection instance is the optimum cover size.
"""
from __future__ import annotations

import json
import random
import re

from .evaluation import evaluated
from .model import (
    DataExample,
    Instance,
    Record,
    RelationalAtom,
    Rule,
    RuleSet,
    ValidationError,
    const,
    fact,
    var,
)

_MARKER_RE = re.compile(r"a\d+\Z")
_CLONE_RE = re.compile(r"b\d+\^\d+\Z")


class SetCoverInstance(Record):
    """A universe and a list of covering sets whose union is the universe."""

    _fields = ("universe", "sets")

    def __new__(cls, universe: tuple, sets: tuple):
        # sets: frozensets of universe ids
        if len(set(universe)) != len(universe):
            raise ValidationError("universe ids must be unique")
        union = set()
        for s in sets:
            if not s:
                raise ValidationError("covering sets must be nonempty")
            union |= s
        if union != set(universe):
            raise ValidationError("union of the sets must equal the universe")
        return tuple.__new__(cls, (universe, sets))


class GenSeed(Record):
    """Seed plus size knobs; identical seeds and knobs give identical output."""

    _fields = ("seed", "n_universe", "n_sets", "density", "fp_noise", "fn_noise",
               "join_rules")

    def __new__(cls, seed: int, n_universe: int, n_sets: int, density: float = 0.3,
                fp_noise: float = 0.0, fn_noise: float = 0.0, join_rules: int = 0):
        if n_universe < 1 or n_sets < 1:
            raise ValidationError("need at least one universe element and one set")
        if not 0.0 < density <= 1.0:
            raise ValidationError("density must be in (0, 1]")
        if not (0.0 <= fp_noise <= 1.0 and 0.0 <= fn_noise <= 1.0):
            raise ValidationError("noise knobs must be in [0, 1]")
        if not 0 <= join_rules <= n_sets:
            raise ValidationError("join_rules must be between 0 and n_sets")
        return tuple.__new__(cls, (seed, n_universe, n_sets, density, fp_noise, fn_noise,
                                   join_rules))


def _check_namespace(sc: SetCoverInstance, clones: bool):
    for u in sc.universe:
        if _MARKER_RE.match(u) or (clones and _CLONE_RE.match(u)):
            raise ValidationError(
                f"universe id {u!r} collides with the reserved marker namespace")


def _marker_encoding(sc: SetCoverInstance, clones: bool):
    """One unary rule per set, a private marker element per set and, with
    `clones`, p clones b<j>^1..b<j>^p of every universe element u_j."""
    _check_namespace(sc, clones)
    p = len(sc.sets)
    copies = range(1, p + 1) if clones else ()
    pos = {u: j for j, u in enumerate(sc.universe, start=1)}
    rules = [Rule(f"r{i}", (RelationalAtom(f"Set{i}", (var("x"),)),),
                  RelationalAtom("B", (var("x"),)))
             for i in range(1, p + 1)]
    premise_facts = []
    for i, s in enumerate(sc.sets, start=1):
        for u in sorted(s):
            premise_facts.append(fact(f"Set{i}", u))
            premise_facts += [fact(f"Set{i}", f"b{pos[u]}^{c}") for c in copies]
        premise_facts.append(fact(f"Set{i}", f"a{i}"))
    premise = Instance({f"Set{i}": 1 for i in range(1, p + 1)}, premise_facts)
    truth_facts = [fact("B", u) for u in sc.universe]
    truth_facts += [fact("B", f"b{pos[u]}^{c}") for u in sc.universe for c in copies]
    truth = Instance({"B": 1}, truth_facts)
    return RuleSet(rules, premise.schema, {"B": 1}), DataExample(premise=premise, truth=truth)


def rules_from_set_cover(sc: SetCoverInstance):
    """One unary rule per set; each set gets a private marker element.

    Selecting rules that cover the universe costs exactly one false positive
    per chosen rule (its marker), so optimum error equals optimum cover size.
    """
    return _marker_encoding(sc, clones=False)


def rules_from_set_cover_clones(sc: SetCoverInstance):
    """Marker construction plus p clones of every universe element.

    An uncovered element then costs itself plus its p clones, which pins the
    (k, k) points of the error/size Pareto front to the optimum cover size.
    """
    return _marker_encoding(sc, clones=True)


def rules_from_set_cover_indexed(sc: SetCoverInstance):
    """Set-cover encoding over a fixed premise schema {One, S, Bit_0, Bit_1, Succ}.

    Rule i spells out the binary code of i (most significant bit first, width
    ceil(log2(p+1)) so that i = p still fits) against a shared index column,
    then copies the set members over: rule i derives exactly what the plain
    marker construction's rule i derives.
    """
    _check_namespace(sc, clones=False)
    p = len(sc.sets)
    width = p.bit_length()  # == ceil(log2(p + 1))
    schema = {"One": 1, "S": 2, "Bit_0": 2, "Bit_1": 2, "Succ": 2}

    rules = []
    for i in range(1, p + 1):
        bits = f"{i:0{width}b}"
        premise = [RelationalAtom(f"Bit_{b}", (const(j), var("z")))
                   for j, b in enumerate(bits, start=1)]
        premise.append(RelationalAtom("One", (const(1),)))
        for j in range(1, width):
            premise.append(RelationalAtom("Succ", (const(j), const(j + 1))))
        premise.append(RelationalAtom("S", (var("x"), var("z"))))
        rules.append(Rule(f"r{i}", tuple(premise), RelationalAtom("B", (var("x"),))))

    premise_facts = [fact("One", 1)]
    for j in range(1, width):
        premise_facts.append(fact("Succ", j, j + 1))
    for i, s in enumerate(sc.sets, start=1):
        for x in sorted(s):
            premise_facts.append(fact("S", x, i))
        premise_facts.append(fact("S", f"a{i}", i))
        bits = f"{i:0{width}b}"
        for j, b in enumerate(bits, start=1):
            premise_facts.append(fact(f"Bit_{b}", j, i))
    premise = Instance(schema, premise_facts)
    truth = Instance({"B": 1}, [fact("B", u) for u in sc.universe])
    ruleset = RuleSet(rules, schema, {"B": 1})
    return ruleset, DataExample(premise=premise, truth=truth)


def gen_random_setcover(gs: GenSeed) -> SetCoverInstance:
    """Seeded random set-cover instance; coverage and nonemptiness are repaired."""
    rng = random.Random(gs.seed)
    universe = [f"u{j}" for j in range(1, gs.n_universe + 1)]
    sets = [set() for _ in range(gs.n_sets)]
    for s in sets:
        for u in universe:
            if rng.random() < gs.density:
                s.add(u)
    for s in sets:
        if not s:
            s.add(rng.choice(universe))
    covered = set().union(*sets)
    for u in universe:
        if u not in covered:
            sets[rng.randrange(gs.n_sets)].add(u)
    return SetCoverInstance(universe=tuple(universe),
                            sets=tuple(frozenset(s) for s in sets))


def gen_random_ruleselect(gs: GenSeed):
    """Seeded random rule-selection instance: unary rules, optional join rules,
    and a truth instance sampled from the full evaluation with planted noise.

    fp_noise drops derivable facts from the truth (making them potential
    false positives); fn_noise adds fresh underivable truth facts (permanent
    false negatives, which also break FP-mode feasibility).
    """
    rng = random.Random(gs.seed)
    constants = [f"c{j}" for j in range(1, gs.n_universe + 1)]
    n_unary = gs.n_sets - gs.join_rules

    rules = []
    premise_facts = []
    schema = {}
    for i in range(1, n_unary + 1):
        rel = f"A{i}"
        schema[rel] = 1
        rules.append(Rule(f"r{i}", (RelationalAtom(rel, (var("x"),)),),
                          RelationalAtom("Out", (var("x"),))))
        for c in constants:
            if rng.random() < gs.density:
                premise_facts.append(fact(rel, c))
    for k in range(1, gs.join_rules + 1):
        pair_rel, tail_rel = f"P{k}", f"Q{k}"
        schema[pair_rel] = 2
        schema[tail_rel] = 1
        rules.append(Rule(
            f"j{k}",
            (RelationalAtom(pair_rel, (var("x"), var("y"))),
             RelationalAtom(tail_rel, (var("y"),))),
            RelationalAtom("Out", (var("x"),))))
        for c in constants:
            if rng.random() < gs.density:
                premise_facts.append(fact(pair_rel, c, rng.choice(constants)))
        for c in constants:
            if rng.random() < gs.density:
                premise_facts.append(fact(tail_rel, c))

    ruleset = RuleSet(rules, schema, {"Out": 1})
    premise = Instance(schema, premise_facts)
    derivable = evaluated(ruleset, premise).union

    truth_facts = []
    fresh = 0
    for f in sorted(derivable, key=lambda f: f.sort_key()):
        if rng.random() >= gs.fp_noise:
            truth_facts.append(f)
        if rng.random() < gs.fn_noise:
            fresh += 1
            truth_facts.append(fact("Out", f"z{fresh}"))
    truth = Instance({"Out": 1}, truth_facts)
    return ruleset, DataExample(premise=premise, truth=truth)


def manifest_line(kind: str, gs: GenSeed) -> str:
    """One JSON line recording how to regenerate an emitted instance; the
    noise and join knobs, which only `random` reads, only for `random`."""
    payload = {
        "kind": kind,
        "seed": gs.seed,
        "n_universe": gs.n_universe,
        "n_sets": gs.n_sets,
        "density": gs.density,
    }
    if kind == "random":
        payload.update(fp_noise=gs.fp_noise, fn_noise=gs.fn_noise, join_rules=gs.join_rules)
    return json.dumps(payload, sort_keys=True)
