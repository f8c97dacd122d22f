import pytest
from hypothesis import given, settings, strategies as st

from ruleselect import (
    CoverageError,
    DataExample,
    EvalCache,
    InfeasibleError,
    Instance,
    PnpscInstance,
    RbscInstance,
    build_pnpsc,
    build_rbsc,
    compute_errors,
    fact,
    map_back,
    parse_facts,
    parse_rules,
    pnpsc_to_rbsc,
    solve_pnpsc_approx,
    solve_rbsc_greedy,
)
from ruleselect.covering import fact_id
from ruleselect.generators import GenSeed, gen_random_ruleselect

from oracles import brute_force_pnpsc_min, brute_force_rbsc_min, subsets_canonical


def bid(name):  # element id of a unary B fact
    return fact_id(fact("B", name))


def test_build_rbsc_f1(f1):
    rules, example = f1
    inst = build_rbsc(rules, example)
    assert inst.blue == {bid("u1"), bid("u2"), bid("u3")}
    assert inst.red == {bid("a1"), bid("a2"), bid("a3")}
    assert dict(inst.sets) == {
        "r1": {bid("u1"), bid("u2"), bid("a1")},
        "r2": {bid("u2"), bid("u3"), bid("a2")},
        "r3": {bid("u3"), bid("a3")},
    }
    assert inst.back_map == {"r1": "r1", "r2": "r2", "r3": "r3"}


def test_build_rbsc_no_reds_when_truth_covers_eval(f1):
    rules, example = f1
    truth = Instance({"B": 1}, [fact("B", x) for x in
                                ("u1", "u2", "u3", "a1", "a2", "a3")])
    inst = build_rbsc(rules, DataExample(example.premise, truth))
    assert inst.red == frozenset()


def test_build_rbsc_restricted(f1):
    rules, example = f1
    two = parse_rules('rule r2: Set2(x) -> B(x).\nrule r3: Set3(x) -> B(x).')
    premise = parse_facts(
        'Set2("u2")\nSet2("u3")\nSet2("a2")\nSet3("u3")\nSet3("a3")')
    truth = parse_facts('B("u2")\nB("u3")')
    inst = build_rbsc(two, DataExample(premise, truth))
    assert inst.blue == {bid("u2"), bid("u3")}
    assert inst.red == {bid("a2"), bid("a3")}


def test_build_rbsc_infeasible_raises(f1):
    rules, example = f1
    truth = Instance({"B": 1}, list(example.truth.facts) + [fact("B", "zz")])
    with pytest.raises(InfeasibleError) as err:
        build_rbsc(rules, DataExample(example.premise, truth))
    assert err.value.missing == frozenset({fact("B", "zz")})


def test_build_pnpsc_f1(f1):
    rules, example = f1
    inst = build_pnpsc(rules, example)
    assert inst.positive == {bid("u1"), bid("u2"), bid("u3")}
    assert inst.negative == {bid("a1"), bid("a2"), bid("a3")}
    assert len(inst.sets) == 3


def test_build_pnpsc_empty_truth_and_empty_rules(f1):
    rules, example = f1
    empty_truth = Instance({"B": 1}, ())
    inst = build_pnpsc(rules, DataExample(example.premise, empty_truth))
    assert inst.positive == frozenset()
    assert inst.cost(["r1"]) == 3  # covered negatives only
    none = parse_rules("")
    inst2 = build_pnpsc(none, DataExample(Instance.empty(), example.truth))
    assert inst2.sets == ()
    assert inst2.cost([]) == 3


def test_pnpsc_to_rbsc_f1(f1):
    rules, example = f1
    aug = pnpsc_to_rbsc(build_pnpsc(rules, example))
    assert len(aug.red) == 6
    assert len(aug.sets) == 6
    labels = [label for label, _ in aug.sets]
    assert labels[:3] == ["r1", "r2", "r3"]
    assert all(label.startswith("skip(") for label in labels[3:])
    assert all(aug.back_map[label] is None for label in labels[3:])


def test_pnpsc_to_rbsc_no_positives():
    inst = PnpscInstance(positive=frozenset(), negative=frozenset({"n"}),
                         sets=(("s", frozenset({"n"})),), back_map={"s": "s"})
    aug = pnpsc_to_rbsc(inst)
    assert aug.sets == inst.sets
    assert aug.red == inst.negative


def test_pnpsc_to_rbsc_isolated_positive():
    inst = PnpscInstance(positive=frozenset({"p"}), negative=frozenset(), sets=())
    aug = pnpsc_to_rbsc(inst)
    (label, members) = aug.sets[0]
    assert label == "skip(p)" and members == {"p", "skip:p"}
    cover = solve_rbsc_greedy(aug)
    assert cover.chosen == ("skip(p)",) and cover.cost == 1


def test_greedy_f1(f1):
    rules, example = f1
    cover = solve_rbsc_greedy(build_rbsc(rules, example))
    assert cover.chosen == ("r1", "r2")
    assert cover.cost == 2
    assert cover.covered_red == {bid("a1"), bid("a2")}


def test_greedy_prefers_zero_red_sets():
    inst = RbscInstance(red=frozenset({"x"}), blue=frozenset({"b1", "b2"}),
                        sets=(("all", frozenset({"b1", "b2"})),))
    cover = solve_rbsc_greedy(inst)
    assert cover.chosen == ("all",) and cover.cost == 0


def test_greedy_threshold_sweep_shields_heavy_sets():
    inst = RbscInstance(
        red=frozenset({"x1", "x2", "x3"}), blue=frozenset({"b"}),
        sets=(("heavy", frozenset({"b", "x1", "x2"})),
              ("light", frozenset({"b", "x3"}))))
    cover = solve_rbsc_greedy(inst)
    assert cover.chosen == ("light",) and cover.cost == 1


def test_threshold_schedule_policies():
    from ruleselect.covering import GreedyConfig, _threshold_schedule

    counts = [3, 5, 12]
    assert _threshold_schedule(counts, "powers-of-two") == [0, 1, 2, 4, 8, 12]
    assert _threshold_schedule(counts, "exact-counts") == [0, 3, 5, 12]
    assert _threshold_schedule(counts, "both") == [0, 1, 2, 3, 4, 5, 8, 12]
    assert _threshold_schedule([], "both") == [0]
    # >64 distinct counts: "both" falls back to powers (plus 0 and max)
    many = list(range(1, 70))
    assert _threshold_schedule(many, "both") == [0, 1, 2, 4, 8, 16, 32, 64, 69]
    with pytest.raises(Exception):
        GreedyConfig(schedule="fibonacci")


def test_greedy_same_result_across_policies(f1):
    from ruleselect.covering import GreedyConfig

    rules, example = f1
    inst = build_rbsc(rules, example)
    results = {solve_rbsc_greedy(inst, GreedyConfig(schedule=s)).chosen
               for s in ("powers-of-two", "exact-counts", "both")}
    assert results == {("r1", "r2")}


def test_greedy_uncoverable_blue_raises():
    inst = RbscInstance(red=frozenset(), blue=frozenset({"b"}), sets=())
    with pytest.raises(CoverageError) as err:
        solve_rbsc_greedy(inst)
    assert "b" in str(err.value)


def test_greedy_deterministic_under_permutation(f1):
    rules, example = f1
    inst = build_rbsc(rules, example)
    for perm in ((2, 1, 0), (1, 2, 0), (0, 2, 1)):
        shuffled = RbscInstance(red=inst.red, blue=inst.blue,
                                sets=tuple(inst.sets[i] for i in perm),
                                back_map=inst.back_map)
        assert solve_rbsc_greedy(shuffled) == solve_rbsc_greedy(inst)


def test_pnpsc_approx_f1(f1):
    rules, example = f1
    cover = solve_pnpsc_approx(build_pnpsc(rules, example))
    assert cover.chosen == ("r1", "r2") and cover.cost == 2


def test_pnpsc_approx_nothing_to_cover():
    inst = PnpscInstance(positive=frozenset(), negative=frozenset({"n"}),
                         sets=(("s", frozenset({"n"})),))
    cover = solve_pnpsc_approx(inst)
    assert cover.chosen == () and cover.cost == 0


def test_pnpsc_approx_skip_beats_costly_cover():
    inst = PnpscInstance(
        positive=frozenset({"p"}), negative=frozenset({"n1", "n2", "n3"}),
        sets=(("s", frozenset({"p", "n1", "n2", "n3"})),))
    cover = solve_pnpsc_approx(inst)
    assert cover.chosen == () and cover.cost == 1


def test_map_back(f1):
    rules, example = f1
    pn = build_pnpsc(rules, example)
    aug = pnpsc_to_rbsc(pn)
    cover = solve_rbsc_greedy(aug)
    assert map_back(cover, aug.back_map) == {"r1", "r2"}
    from ruleselect.covering import CoverSelection

    assert map_back(CoverSelection(chosen=(), cost=0), aug.back_map) == frozenset()
    with pytest.raises(LookupError):
        map_back(CoverSelection(chosen=("ghost",), cost=0), aug.back_map)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_fp_cost_preservation_exhaustive(seed):
    """Selections with no false negatives cost exactly their covered reds."""
    rules, example = gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=6, n_sets=6, density=0.4,
                fp_noise=0.4, fn_noise=0.0, join_rules=1))
    cache = EvalCache(rules, example.premise)
    inst = build_rbsc(rules, example, cache)
    members = dict(inst.sets)
    for sel in subsets_canonical(rules.names()):
        rep = compute_errors(rules, sel, example, cache)
        if rep.fn_count:
            continue
        union = set().union(*(members[n] for n in sel)) if sel else set()
        assert rep.fp_count == len(union & inst.red)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_total_cost_preservation_exhaustive(seed):
    """Every selection's total error equals its positive-negative cover cost."""
    rules, example = gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=6, n_sets=6, density=0.4,
                fp_noise=0.4, fn_noise=0.2, join_rules=1))
    cache = EvalCache(rules, example.premise)
    inst = build_pnpsc(rules, example, cache)
    for sel in subsets_canonical(rules.names()):
        rep = compute_errors(rules, sel, example, cache)
        assert rep.total == inst.cost(sel)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_pnpsc_to_rbsc_preserves_optimum(seed):
    import random

    rng = random.Random(seed)
    positives = [f"p{i}" for i in range(rng.randrange(1, 6))]
    negatives = [f"n{i}" for i in range(rng.randrange(0, 6))]
    ground = positives + negatives
    sets = tuple(
        (f"s{i}", frozenset(x for x in ground if rng.random() < 0.5))
        for i in range(rng.randrange(1, 8)))
    sets = tuple((label, members) for label, members in sets if members)
    inst = PnpscInstance(positive=frozenset(positives),
                         negative=frozenset(negatives), sets=sets)
    assert brute_force_pnpsc_min(inst) == brute_force_rbsc_min(pnpsc_to_rbsc(inst))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_greedy_feasible_and_bounded_by_brute_force(seed):
    rules, example = gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=6, n_sets=5, density=0.5,
                fp_noise=0.3, fn_noise=0.0, join_rules=0))
    inst = build_rbsc(rules, example)
    cover = solve_rbsc_greedy(inst)
    members = dict(inst.sets)
    union = set().union(*(members[label] for label in cover.chosen)) if cover.chosen else set()
    assert inst.blue <= union
    assert cover.cost == len(union & inst.red)
    assert cover.cost >= brute_force_rbsc_min(inst)
