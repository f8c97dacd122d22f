import pytest
from hypothesis import given, settings, strategies as st

from ruleselect import (
    EvalLimits,
    ExactConfig,
    Instance,
    SetCoverInstance,
    ValidationError,
    compute_errors,
    evaluated,
    fact,
    pareto_front,
    rule_size,
    solve_exact,
    validate,
)
from ruleselect.generators import (
    GenSeed,
    gen_random_ruleselect,
    gen_random_setcover,
    manifest_line,
    rules_from_set_cover,
    rules_from_set_cover_clones,
    rules_from_set_cover_indexed,
)
from ruleselect.parser import write_facts, write_rules

from conftest import F1_PREMISE, F1_RULES, F1_TRUTH
from oracles import brute_force_min_cover, instance_digest, subsets_canonical

F1_SC = SetCoverInstance(
    universe=("u1", "u2", "u3"),
    sets=(frozenset({"u1", "u2"}), frozenset({"u2", "u3"}), frozenset({"u3"})))


def test_marker_construction_reproduces_f1():
    rules, example = rules_from_set_cover(F1_SC)
    assert write_rules(rules) == F1_RULES
    assert set(write_facts(example.premise).splitlines()) == set(F1_PREMISE.splitlines())
    assert set(write_facts(example.truth).splitlines()) == set(F1_TRUTH.splitlines())


def test_marker_construction_single_set():
    sc = SetCoverInstance(universe=("u1", "u2"), sets=(frozenset({"u1", "u2"}),))
    rules, example = rules_from_set_cover(sc)
    err, sel = solve_exact(rules, example, ExactConfig(objective="fp"))
    assert (err, sel) == (1, frozenset({"r1"}))


def test_set_cover_instance_invariants():
    with pytest.raises(ValidationError):
        SetCoverInstance(universe=(), sets=(frozenset(),))
    with pytest.raises(ValidationError):
        SetCoverInstance(universe=("u1",), sets=(frozenset({"u2"}),))
    with pytest.raises(ValidationError):
        rules_from_set_cover(
            SetCoverInstance(universe=("a1",), sets=(frozenset({"a1"}),)))


def test_clone_construction_smallest():
    sc = SetCoverInstance(universe=("u1",), sets=(frozenset({"u1"}),))
    rules, example = rules_from_set_cover_clones(sc)
    prem = {f.args[0] for f in example.premise.facts}
    assert prem == {"u1", "a1", "b1^1"}
    truth = {f.args[0] for f in example.truth.facts}
    assert truth == {"u1", "b1^1"}


def test_clone_construction_truth_size():
    _, example = rules_from_set_cover_clones(F1_SC)
    assert len(example.truth.facts) == 3 + 3 * 3


def test_clone_construction_is_the_marker_encoding_plus_p_clones():
    p = len(F1_SC.sets)
    marker_rules, marker = rules_from_set_cover(F1_SC)
    rules, example = rules_from_set_cover_clones(F1_SC)
    assert rules == marker_rules
    clones = {u: {f"b{j}^{c}" for c in range(1, p + 1)}
              for j, u in enumerate(F1_SC.universe, start=1)}
    assert example.premise == Instance(marker.premise.schema, marker.premise.facts | {
        fact(f"Set{i}", b) for i, s in enumerate(F1_SC.sets, start=1)
        for u in s for b in clones[u]})
    assert example.truth == Instance(marker.truth.schema, marker.truth.facts | {
        fact("B", b) for u in F1_SC.universe for b in clones[u]})


def test_clone_construction_pins_diagonal_front():
    rules, example = rules_from_set_cover_clones(F1_SC)
    front = {(p.error, p.size) for p in pareto_front(rules, example)}
    k = brute_force_min_cover(F1_SC.universe, F1_SC.sets)
    assert k == 2
    for kk in range(0, len(F1_SC.sets) + 1):
        assert ((kk, kk) in front) == (kk == k)


def test_indexed_construction_bit_atoms():
    sc = SetCoverInstance(universe=("u1", "u2"),
                          sets=(frozenset({"u1"}), frozenset({"u2"})))
    rules, example = rules_from_set_cover_indexed(sc)
    sigma1 = rules.rule("r1")  # index 1 in two bits is 01
    rels = [a.relation for a in sigma1.relational_atoms()]
    assert rels == ["Bit_0", "Bit_1", "One", "Succ", "S"]
    first_args = [a.terms[0].const for a in sigma1.relational_atoms()[:2]]
    assert first_args == [1, 2]
    assert rules.premise_schema == {"One": 1, "S": 2, "Bit_0": 2, "Bit_1": 2, "Succ": 2}


def test_indexed_construction_single_set_has_no_chain():
    sc = SetCoverInstance(universe=("u1",), sets=(frozenset({"u1"}),))
    rules, _ = rules_from_set_cover_indexed(sc)
    rels = [a.relation for a in rules.rule("r1").relational_atoms()]
    assert rels == ["Bit_1", "One", "S"]


def test_indexed_matches_marker_optimum():
    rules1, ex1 = rules_from_set_cover(F1_SC)
    rules3, ex3 = rules_from_set_cover_indexed(F1_SC)
    fp = ExactConfig(objective="fp")
    assert solve_exact(rules3, ex3, fp)[0] == solve_exact(rules1, ex1, fp)[0] == 2


def test_indexed_matches_marker_through_greedy_pipeline():
    # Per-rule outputs coincide, so the covering reductions are isomorphic.
    from ruleselect import build_rbsc, solve_rbsc_greedy

    rules1, ex1 = rules_from_set_cover(F1_SC)
    rules3, ex3 = rules_from_set_cover_indexed(F1_SC)
    cover1 = solve_rbsc_greedy(build_rbsc(rules1, ex1))
    cover3 = solve_rbsc_greedy(build_rbsc(rules3, ex3))
    assert cover1.chosen == cover3.chosen
    assert cover1.cost == cover3.cost
    assert cover3.chosen == ("r1", "r2")


def test_generated_rules_validate_within_limits():
    rules1, _ = rules_from_set_cover(F1_SC)
    validate(rules1, EvalLimits(1, 1))
    rulesc, _ = rules_from_set_cover_clones(F1_SC)
    validate(rulesc, EvalLimits(1, 1))
    rules3, _ = rules_from_set_cover_indexed(F1_SC)
    width = len(F1_SC.sets).bit_length()
    validate(rules3, EvalLimits(2 * width + 2, 1))
    assert max(rule_size(r) for r in rules3.rules) <= 2 * width + 2


def test_marker_fp_sets_are_exactly_markers():
    rules, example = rules_from_set_cover(F1_SC)
    for sel in subsets_canonical(rules.names()):
        covered = set().union(*(F1_SC.sets[int(n[1:]) - 1] for n in sel)) if sel else set()
        if covered == set(F1_SC.universe):
            rep = compute_errors(rules, sel, example)
            assert {f.args[0] for f in rep.fp} == {f"a{n[1:]}" for n in sel}


def test_random_setcover_reproducible_and_valid():
    gs = GenSeed(seed=42, n_universe=6, n_sets=5)
    a = gen_random_setcover(gs)
    b = gen_random_setcover(gs)
    assert a == b
    assert set().union(*a.sets) == set(a.universe)


def test_random_setcover_density_one():
    sc = gen_random_setcover(GenSeed(seed=1, n_universe=4, n_sets=3, density=1.0))
    assert all(s == frozenset(sc.universe) for s in sc.sets)


def test_random_ruleselect_reproducible_digest():
    gs = GenSeed(seed=42, n_universe=6, n_sets=5, density=0.4,
                 fp_noise=0.3, fn_noise=0.2, join_rules=2)
    d1 = instance_digest(*gen_random_ruleselect(gs))
    d2 = instance_digest(*gen_random_ruleselect(gs))
    assert d1 == d2
    other = instance_digest(*gen_random_ruleselect(
        GenSeed(seed=43, n_universe=6, n_sets=5, density=0.4,
                fp_noise=0.3, fn_noise=0.2, join_rules=2)))
    assert d1 != other


def test_random_ruleselect_zero_noise_is_perfect():
    rules, example = gen_random_ruleselect(
        GenSeed(seed=9, n_universe=6, n_sets=4, density=0.5))
    cache = evaluated(rules, example.premise)
    assert example.truth.facts == cache.union
    err, _ = solve_exact(rules, example, ExactConfig(objective="fpfn"))
    assert err == 0
    assert compute_errors(rules, frozenset(rules.names()), example).total == 0


def test_random_ruleselect_rules_validate():
    rules, _ = gen_random_ruleselect(
        GenSeed(seed=3, n_universe=5, n_sets=4, join_rules=2))
    validate(rules, EvalLimits(2, 1))


def test_gen_seed_knob_validation():
    with pytest.raises(ValidationError):
        GenSeed(seed=0, n_universe=0, n_sets=1)
    with pytest.raises(ValidationError):
        GenSeed(seed=0, n_universe=1, n_sets=1, density=0.0)
    with pytest.raises(ValidationError):
        GenSeed(seed=0, n_universe=1, n_sets=1, join_rules=2)


def test_manifest_line_is_json():
    import json

    gs = GenSeed(seed=5, n_universe=4, n_sets=3)
    payload = json.loads(manifest_line("random", gs))
    assert payload["seed"] == 5 and payload["kind"] == "random"


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_marker_construction_equivalence_random(seed):
    import random

    rng = random.Random(seed)
    gs = GenSeed(seed=seed, n_universe=rng.randrange(1, 8),
                 n_sets=rng.randrange(1, 7), density=0.4)
    sc = gen_random_setcover(gs)
    k = brute_force_min_cover(sc.universe, sc.sets)
    rules, example = rules_from_set_cover(sc)
    assert solve_exact(rules, example, ExactConfig(objective="fp"))[0] == k
    assert solve_exact(rules, example, ExactConfig(objective="fpfn"))[0] == k
