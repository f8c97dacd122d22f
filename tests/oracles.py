"""Independent brute-force oracles used to check the package's fast paths.

Everything here works on plain Python sets and full enumeration, with no
imports from the solver/kernel modules, so oracle and implementation can only
agree by computing the same thing.
"""
from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from itertools import product

from ruleselect.model import BuiltinAtom, Fact, RelationalAtom
from ruleselect.parser import write_facts, write_rules


def instance_digest(rules, example) -> str:
    """Stable hex digest of the canonical serialization of a problem instance."""
    h = hashlib.sha256()
    h.update(write_rules(rules).encode("utf-8"))
    h.update(b"\x00")
    h.update(write_facts(example.premise).encode("utf-8"))
    h.update(b"\x00")
    h.update(write_facts(example.truth).encode("utf-8"))
    return h.hexdigest()[:16]


def subsets_canonical(names):
    """All subsets in canonical order: rule i (list order) at bit i, mask ascending."""
    names = list(names)
    for m in range(1 << len(names)):
        yield frozenset(n for i, n in enumerate(names) if m >> i & 1)


def _oracle_tokens(text: str):
    return frozenset(re.findall(r"[^\W_]+", text.lower(), re.UNICODE))


def _oracle_value_text(v):
    """Text as is; a number by its value: the shortest decimal that spells it,
    with no point when it is integral (so 2 and 2.0 both read "2")."""
    if isinstance(v, str):
        return v
    q = Fraction(v)
    places = 0
    while (q * 10**places).denominator != 1:
        places += 1
    digits = str(abs(q.numerator) * 10**places // q.denominator).rjust(places + 1, "0")
    sign = "-" if q < 0 else ""
    if not places:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _oracle_builtin(atom: BuiltinAtom, env) -> bool:
    vals = tuple(env[t.var] if t.is_var else t.const for t in atom.terms)
    if atom.name == "neq":
        return vals[0] != vals[1]
    if atom.name == "eq":
        return vals[0] == vals[1]
    if atom.name == "jaccard_geq":
        a = _oracle_tokens(_oracle_value_text(vals[0]))
        b = _oracle_tokens(_oracle_value_text(vals[1]))
        sim = Fraction(1) if not a and not b else Fraction(len(a & b), len(a | b))
        return sim >= atom.threshold
    a, b = vals
    if isinstance(a, str) != isinstance(b, str):
        return False
    return a >= b if atom.name == "geq" else a <= b


def naive_eval_rule(rule, premise) -> frozenset:
    """Try every assignment of rule variables over the premise's active domain."""
    adom = sorted({v for f in premise.facts for v in f.args},
                  key=lambda v: (isinstance(v, str), v))
    variables = []
    for atom in list(rule.premise) + [rule.head]:
        for name in atom.variables():
            if name not in variables:
                variables.append(name)
    out = set()
    for combo in product(adom, repeat=len(variables)):
        env = dict(zip(variables, combo))
        ok = True
        for atom in rule.premise:
            if isinstance(atom, RelationalAtom):
                args = tuple(env[t.var] if t.is_var else t.const for t in atom.terms)
                if Fact(atom.relation, args) not in premise.facts:
                    ok = False
                    break
            else:
                if not _oracle_builtin(atom, env):
                    ok = False
                    break
        if ok:
            args = tuple(env[t.var] if t.is_var else t.const for t in rule.head.terms)
            out.add(Fact(rule.head.relation, args))
    return frozenset(out)


def subset_fp_fn(per_rule: dict, selection, truth: frozenset):
    produced = set()
    for name in selection:
        produced |= per_rule[name]
    return frozenset(produced - truth), frozenset(truth - produced)


def brute_force_optimum(names, per_rule: dict, truth: frozenset, fp_only: bool):
    """(optimum error, first canonical witness); witness None if nothing qualifies."""
    best = None
    for sel in subsets_canonical(names):
        fp, fn = subset_fp_fn(per_rule, sel, truth)
        if fp_only:
            if fn:
                continue
            err = len(fp)
        else:
            err = len(fp) + len(fn)
        if best is None or err < best[0]:
            best = (err, sel)
    return best if best is not None else (None, None)


def brute_force_front(names, per_rule: dict, sizes: dict, truth: frozenset,
                      fp_only: bool):
    """Non-dominated (error, size) pairs achieved by any qualifying selection."""
    pairs = {}
    for sel in subsets_canonical(names):
        fp, fn = subset_fp_fn(per_rule, sel, truth)
        if fp_only and fn:
            continue
        err = len(fp) if fp_only else len(fp) + len(fn)
        size = sum(sizes[n] for n in sel)
        pairs.setdefault((err, size), sel)
    front = set()
    for e, s in pairs:
        dominated = any(e2 <= e and s2 <= s and (e2, s2) != (e, s) for e2, s2 in pairs)
        if not dominated:
            front.add((e, s))
    return front, pairs


def brute_force_min_cover(universe, sets) -> int:
    """Smallest number of sets whose union covers the universe."""
    target = set(universe)
    best = None
    for m in range(1 << len(sets)):
        chosen = [s for i, s in enumerate(sets) if m >> i & 1]
        union = set().union(*chosen) if chosen else set()
        if target <= union and (best is None or len(chosen) < best):
            best = len(chosen)
    return best


def brute_force_rbsc_min(instance) -> int:
    """Minimum covered reds over all subsets that cover every blue element."""
    best = None
    n = len(instance.sets)
    for m in range(1 << n):
        union = set()
        for i in range(n):
            if m >> i & 1:
                union |= instance.sets[i][1]
        if instance.blue <= union:
            cost = len(union & instance.red)
            if best is None or cost < best:
                best = cost
    return best


def brute_force_pnpsc_min(instance) -> int:
    """Minimum (uncovered positives + covered negatives) over all subsets."""
    best = None
    n = len(instance.sets)
    for m in range(1 << n):
        union = set()
        for i in range(n):
            if m >> i & 1:
                union |= instance.sets[i][1]
        cost = len(instance.positive - union) + len(instance.negative & union)
        if best is None or cost < best:
            best = cost
    return best


def _reference_schedule(red_counts):
    taus = {0, max(red_counts, default=0)}
    t = 1
    while t <= max(red_counts, default=0):
        taus.add(t)
        t *= 2
    if len(set(red_counts)) <= 64:
        taus.update(red_counts)
    return sorted(taus)


def _reference_pass(sets, red, blue):
    covered = set()
    chosen = []
    available = dict(sets)
    while not blue <= covered:
        best_key = best_label = None
        for label, members in available.items():
            fresh = members - covered
            nb = len(fresh & blue)
            if nb == 0:
                continue
            nr = len(fresh & red)
            key = (0, Fraction(0), -nb, label) if nr == 0 else (1, Fraction(nr, nb), -nb, label)
            if best_key is None or key < best_key:
                best_key, best_label = key, label
        chosen.append(best_label)
        covered |= available.pop(best_label)
    return chosen, covered


def reference_rbsc_greedy(red, blue, sets):
    """(chosen, cost) of the threshold-sweep greedy on frozensets.

    The set-of-strings implementation the bitset greedy replaced: thresholds
    0, the largest red count, the powers of two below it and (with at most 64
    distinct counts) every count; per threshold a greedy pass ranking sets by
    exact `Fraction` new-red/new-blue ratio, zero-red sets first, then most new
    blue, then label; the best pass by covered reds, set count, label list.
    """
    red_counts = [len(members & red) for _, members in sets]
    best = None
    for tau in _reference_schedule(red_counts):
        eligible = [s for s, rc in zip(sets, red_counts) if rc <= tau]
        if not blue <= set().union(*(members for _, members in eligible)):
            continue
        chosen, covered = _reference_pass(eligible, red, blue)
        labels = tuple(sorted(chosen))
        key = (len(covered & red), len(labels), labels)
        if best is None or key < best[0]:
            best = (key, labels, covered)
    _, labels, covered = best
    return labels, len(covered & red)


def reference_pnpsc_approx(positive, negative, sets):
    """(chosen, cost): one skip set {p, marker} per positive, the reference
    greedy, skip labels dropped, cost recomputed on the original system."""
    skips = tuple((f"skip({p})", frozenset({p, f"skip:{p}"})) for p in sorted(positive))
    red = frozenset(negative) | {f"skip:{p}" for p in positive}
    labels, _ = reference_rbsc_greedy(red, frozenset(positive), tuple(sets) + skips)
    original = {label for label, _ in sets}
    chosen = tuple(label for label in labels if label in original)
    union = set().union(*(members for label, members in sets if label in chosen))
    return chosen, len(positive - union) + len(negative & union)
