"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""
import json
import random
import time

import pytest

from ruleselect import (
    ExactConfig,
    bilevel_optimum,
    build_pnpsc,
    build_rbsc,
    compute_errors,
    eval_rule,
    evaluated,
    greedy_bound,
    pareto_front,
    pareto_membership,
    parse_facts,
    parse_rules,
    pnpsc_to_rbsc,
    solve_exact,
    solve_pnpsc_approx,
    solve_rbsc_greedy,
    write_facts,
    write_rules,
)
from ruleselect.covering import SetSystem
from ruleselect.generators import (
    GenSeed,
    gen_random_ruleselect,
    gen_random_setcover,
    rules_from_set_cover,
    rules_from_set_cover_clones,
    rules_from_set_cover_indexed,
)

from oracles import (
    brute_force_front,
    brute_force_min_cover,
    brute_force_pnpsc_min,
    brute_force_rbsc_min,
    instance_digest,
    naive_eval_rule,
    subsets_canonical,
)

FP = ExactConfig(objective="fp")
FPFN = ExactConfig(objective="fpfn")


def report(num, desc, ok=True):
    print(f"criterion {num:2d} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok


def random_instances(count, *, base_seed, max_sets, n_universe=(4, 20),
                     fn_noise=0.0, join_max=2):
    """A deterministic stream of random rule-selection instances."""
    rng = random.Random(base_seed)
    out = []
    for i in range(count):
        gs = GenSeed(
            seed=rng.getrandbits(32),
            n_universe=rng.randint(*n_universe),
            n_sets=rng.randint(2, max_sets),
            density=rng.uniform(0.15, 0.6),
            fp_noise=rng.uniform(0.0, 0.6),
            fn_noise=rng.uniform(0.0, 0.3) if fn_noise else 0.0,
            join_rules=rng.randint(0, join_max))
        out.append(gen_random_ruleselect(gs))
    return out


def test_criterion_01_f1_end_to_end(f1):
    rules, example = f1
    start = time.perf_counter()
    assert solve_exact(rules, example, FPFN) == (2, frozenset({"r1"}))
    assert solve_exact(rules, example, FP) == (2, frozenset({"r1", "r2"}))
    bl = bilevel_optimum(rules, example, FPFN)
    assert (bl.error, bl.size) == (2, 1)
    bl_fp = bilevel_optimum(rules, example, FP)
    assert (bl_fp.error, bl_fp.size) == (2, 2)
    front = {(p.error, p.size) for p in pareto_front(rules, example, FPFN)}
    assert front == {(3, 0), (2, 1)}
    front_fp = {(p.error, p.size) for p in pareto_front(rules, example, FP)}
    assert front_fp == {(2, 2)}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"F1 end-to-end took {elapsed:.3f}s"
    report(1, "fixture end-to-end, exact values, < 1 s")


def test_criterion_02_greedy_fp_within_bound():
    start = time.perf_counter()
    violations = 0
    checked = 0
    for rules, example in random_instances(220, base_seed=402, max_sets=12):
        truth_size = len(example.truth.facts)
        assert truth_size <= 40
        opt, _ = solve_exact(rules, example, FP)
        cover = solve_rbsc_greedy(build_rbsc(rules, example))
        selection = frozenset(cover.chosen)
        rep = compute_errors(rules, selection, example)
        assert rep.fn_count == 0
        bound = greedy_bound(len(rules), truth_size)
        if rep.fp_count > bound * opt:
            violations += 1
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 200 and elapsed < 60.0
    report(2, f"greedy FP within 2*sqrt(|C| log|J|) on {checked} instances",
           violations == 0)


def test_criterion_03_greedy_fpfn_within_bound():
    start = time.perf_counter()
    violations = 0
    checked = 0
    for rules, example in random_instances(220, base_seed=403, max_sets=12,
                                           fn_noise=0.3):
        truth_size = len(example.truth.facts)
        assert truth_size <= 40
        opt, _ = solve_exact(rules, example, FPFN)
        cover = solve_pnpsc_approx(build_pnpsc(rules, example))
        selection = frozenset(cover.chosen)
        rep = compute_errors(rules, selection, example)
        assert rep.total == cover.cost
        bound = greedy_bound(len(rules) + truth_size, truth_size)
        if cover.cost > bound * opt:
            violations += 1
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 200 and elapsed < 60.0
    report(3, f"pipeline FP+FN within 2*sqrt((|C|+|J|) log|J|) on {checked} instances",
           violations == 0)


def test_criterion_04_cost_preservation_exhaustive():
    checked = 0
    for rules, example in random_instances(50, base_seed=404, max_sets=10,
                                           n_universe=(3, 8), fn_noise=0.3):
        cache = evaluated(rules, example.premise)
        pn = build_pnpsc(rules, example)
        members = dict(pn.sets)
        feasible = not (example.truth.facts - cache.union)
        rb = build_rbsc(rules, example) if feasible else None
        for sel in subsets_canonical(rules.names()):
            rep = compute_errors(rules, sel, example)
            assert rep.total == pn.cost(sel)
            if rb is not None and rep.fn_count == 0:
                union = set().union(*(members[n] for n in sel)) if sel else set()
                assert rep.fp_count == len(union & rb.red)
        checked += 1
    report(4, f"reduction cost preservation, all subsets of {checked} instances")


def test_criterion_05_pnpsc_to_rbsc_optimum_preserved():
    rng = random.Random(405)
    checked = 0
    while checked < 50:
        positives = [f"p{i}" for i in range(rng.randint(1, 5))]
        negatives = [f"n{i}" for i in range(rng.randint(0, 6))]
        ground = positives + negatives
        sets = []
        for i in range(rng.randint(1, 8)):
            members = frozenset(x for x in ground if rng.random() < 0.5)
            if members:
                sets.append((f"s{i}", members))
        inst = SetSystem(blue=frozenset(positives), sets=tuple(sets))
        assert len(inst.sets) <= 12
        assert brute_force_pnpsc_min(inst) == brute_force_rbsc_min(pnpsc_to_rbsc(inst))
        checked += 1
    report(5, f"positive-negative to red-blue optimum preserved on {checked} instances")


def test_criterion_06_marker_construction_equivalence():
    rng = random.Random(406)
    for _ in range(50):
        sc = gen_random_setcover(GenSeed(
            seed=rng.getrandbits(32), n_universe=rng.randint(1, 10),
            n_sets=rng.randint(1, 8), density=rng.uniform(0.2, 0.7)))
        k = brute_force_min_cover(sc.universe, sc.sets)
        rules, example = rules_from_set_cover(sc)
        assert solve_exact(rules, example, FP)[0] == k
        assert solve_exact(rules, example, FPFN)[0] == k
    report(6, "min cover = FP optimum = FP+FN optimum on 50 set covers")


def test_criterion_07_clone_construction_diagonal():
    rng = random.Random(407)
    for _ in range(25):
        sc = gen_random_setcover(GenSeed(
            seed=rng.getrandbits(32), n_universe=rng.randint(1, 6),
            n_sets=rng.randint(1, 5), density=rng.uniform(0.2, 0.8)))
        k = brute_force_min_cover(sc.universe, sc.sets)
        rules, example = rules_from_set_cover_clones(sc)
        points = {(p.error, p.size) for p in pareto_front(rules, example, FPFN)}
        for kk in range(0, len(sc.sets) + 1):
            assert ((kk, kk) in points) == (kk == k)
    report(7, "(k,k) on the front iff min cover = k, 25 clone instances")


def test_criterion_08_indexed_construction_agreement():
    rng = random.Random(408)
    for _ in range(25):
        sc = gen_random_setcover(GenSeed(
            seed=rng.getrandbits(32), n_universe=rng.randint(1, 8),
            n_sets=rng.randint(1, 6), density=rng.uniform(0.2, 0.7)))
        rules1, ex1 = rules_from_set_cover(sc)
        rules3, ex3 = rules_from_set_cover_indexed(sc)
        assert solve_exact(rules3, ex3, FP)[0] == solve_exact(rules1, ex1, FP)[0]
    report(8, "fixed-schema and marker constructions share FP optima, 25 instances")


def test_criterion_09_decision_procedure_coherence(f1):
    instances = [f1] + random_instances(25, base_seed=409, max_sets=6,
                                        n_universe=(3, 8), fn_noise=0.3)
    for rules, example in instances:
        cache = evaluated(rules, example.premise)
        opt, _ = solve_exact(rules, example, FPFN)
        sizes = {r.name: len(r.premise) for r in rules.rules}
        _, pairs = brute_force_front(rules.names(), cache.per_rule, sizes,
                                     example.truth.facts, fp_only=False)
        errors = {e for e, _ in pairs}
        hi = len(example.truth.facts) + len(cache.union)
        for k in range(0, hi + 1):  # error <= k and error == k, the decision versions
            assert (opt <= k) == any(e <= k for e in errors)
            assert (opt == k) == (min(errors) == k)
        front = pareto_front(rules, example, FPFN)
        points = {(p.error, p.size) for p in front}
        max_size = sum(len(r.premise) for r in rules.rules)
        for e in range(0, hi + 1):
            for s in range(0, max_size + 1):
                assert pareto_membership(rules, example, e, s, FPFN) \
                    == ((e, s) in points)
        bl = bilevel_optimum(rules, example, FPFN)
        assert (bl.error, bl.size) in points
        assert bl.error == opt == min(p.error for p in front)
    report(9, "decision procedures agree with the exact solver and the front")


def test_criterion_10_determinism_and_formats(capsys, tmp_path):
    # parse/write round-trips
    for rules, example in random_instances(20, base_seed=410, max_sets=6,
                                           n_universe=(3, 10), fn_noise=0.3):
        assert parse_rules(write_rules(rules)) == rules
        assert parse_facts(write_facts(example.premise),
                           schema=rules.premise_schema) == example.premise
        assert parse_facts(write_facts(example.truth),
                           schema=rules.conclusion_schema) == example.truth

    # identical seeds give identical generator output
    gs = GenSeed(seed=99, n_universe=8, n_sets=6, density=0.4,
                 fp_noise=0.3, fn_noise=0.2, join_rules=2)
    a = gen_random_ruleselect(gs)
    b = gen_random_ruleselect(gs)
    assert instance_digest(*a) == instance_digest(*b)
    assert write_rules(a[0]) == write_rules(b[0])
    assert write_facts(a[1].premise) == write_facts(b[1].premise)

    # CLI JSON is byte-identical modulo runtime_ms
    from ruleselect.cli import main

    (tmp_path / "rules.rules").write_text(write_rules(a[0]))
    (tmp_path / "premise.facts").write_text(write_facts(a[1].premise))
    (tmp_path / "truth.facts").write_text(write_facts(a[1].truth))
    argv = ["select", "--objective", "fpfn", "--method", "exact",
            "--rules", str(tmp_path / "rules.rules"),
            "--premise", str(tmp_path / "premise.facts"),
            "--truth", str(tmp_path / "truth.facts")]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        body = json.loads(capsys.readouterr().out)
        body.pop("runtime_ms")
        outs.append(json.dumps(body))
    assert outs[0] == outs[1]

    # evaluation matches the all-assignments oracle at a = 3
    rng = random.Random(4100)
    rules = parse_rules(
        'rule a: P(x) -> Out(x).\n'
        'rule b: R(x,y), Q(y) -> Out(x).\n'
        'rule c: R(x,y), R(y,z), neq(x,z) -> Out(z).\n')
    for _ in range(25):
        lines = []
        n_facts = 0
        for rel, arity in (("P", 1), ("Q", 1), ("R", 2)):
            for _ in range(rng.randint(0, 6)):
                if n_facts >= 20:
                    break
                args = ", ".join(str(rng.randint(1, 4)) for _ in range(arity))
                lines.append(f"{rel}({args})")
                n_facts += 1
        premise = parse_facts("\n".join(lines), schema={"P": 1, "Q": 1, "R": 2})
        for rule in rules.rules:
            assert eval_rule(rule, premise) == naive_eval_rule(rule, premise)
    report(10, "round-trips, seeded determinism, and oracle-equal evaluation")
