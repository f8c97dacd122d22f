import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ruleselect import (
    DataExample,
    InfeasibleError,
    Instance,
    SetSystem,
    ValidationError,
    build_pnpsc,
    build_rbsc,
    check_fp_feasible,
    compute_errors,
    evaluated,
    fact,
    greedy_bound,
    parse_facts,
    parse_rules,
    pnpsc_to_rbsc,
    solve_pnpsc_approx,
    solve_rbsc_greedy,
    write_facts,
    write_rules,
)
from ruleselect import cli
from ruleselect._bitset import PackedUniverse
from ruleselect.covering import pack
from ruleselect.generators import (
    GenSeed,
    gen_random_ruleselect,
    gen_random_setcover,
    rules_from_set_cover,
    rules_from_set_cover_clones,
    rules_from_set_cover_indexed,
)

from oracles import (
    brute_force_pnpsc_min,
    brute_force_rbsc_min,
    reference_pnpsc_approx,
    reference_rbsc_greedy,
    subsets_canonical,
)


def bid(name):  # set-system element of a unary B fact: the fact itself
    return fact("B", name)


def test_build_rbsc_f1(f1):
    rules, example = f1
    inst = build_rbsc(rules, example)
    assert inst.blue == example.truth.facts
    assert inst.blue == {bid("u1"), bid("u2"), bid("u3")}
    assert inst.red == {bid("a1"), bid("a2"), bid("a3")}
    assert dict(inst.sets) == {
        "r1": {bid("u1"), bid("u2"), bid("a1")},
        "r2": {bid("u2"), bid("u3"), bid("a2")},
        "r3": {bid("u3"), bid("a3")},
    }


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


def test_red_is_every_set_element_that_is_not_blue():
    # "b" is in a set and blue: blue only; "lone" is blue in no set, and an
    # element in no set is never red.
    inst = SetSystem(blue=frozenset({"b", "lone"}),
                     sets=(("s", frozenset({"b", "x"})), ("t", frozenset({"x", "y"}))))
    assert inst.red == {"x", "y"}
    assert inst.cost(["s"]) == 2 and inst.cost(["s", "t"]) == 3
    assert SetSystem(blue=frozenset({"b"}), sets=()).red == frozenset()
    universe, masks, blue = pack(inst)
    assert set(universe.facts) == {"b", "lone", "x", "y"}
    assert blue == universe.pack({"b", "lone"})
    assert universe.pack(inst.red) == universe.pack({"x", "y"}) == 0b1111 & ~blue
    assert masks == [universe.pack(members) for _, members in inst.sets]


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_derived_red_matches_the_spurious_derivable_facts(seed):
    rules, example = gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=12, n_sets=6, density=0.4,
                fp_noise=0.4, fn_noise=0.2, join_rules=2))
    inst = build_pnpsc(rules, example)
    truth = example.truth.facts
    assert inst.red == evaluated(rules, example.premise).union - truth
    universe, _, blue = pack(inst)
    assert blue == universe.pack(truth)
    assert universe.pack(inst.red) == ((1 << len(universe.facts)) - 1) & ~blue


def test_build_rbsc_infeasible_raises(f1):
    rules, example = f1
    truth = Instance({"B": 1}, list(example.truth.facts) + [fact("B", "zz")])
    with pytest.raises(InfeasibleError) as err:
        build_rbsc(rules, DataExample(example.premise, truth))
    assert err.value.missing == frozenset({fact("B", "zz")})


def test_build_pnpsc_f1(f1):
    rules, example = f1
    inst = build_pnpsc(rules, example)
    assert inst.blue == {bid("u1"), bid("u2"), bid("u3")}
    assert inst.red == {bid("a1"), bid("a2"), bid("a3")}
    assert len(inst.sets) == 3


def test_build_pnpsc_empty_truth_and_empty_rules(f1):
    rules, example = f1
    empty_truth = Instance({"B": 1}, ())
    inst = build_pnpsc(rules, DataExample(example.premise, empty_truth))
    assert inst.blue == frozenset()
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
    assert labels == ["r1", "r2", "r3", 'skip(B("u1"))', 'skip(B("u2"))', 'skip(B("u3"))']


def test_pnpsc_to_rbsc_no_positives():
    inst = SetSystem(blue=frozenset(), sets=(("s", frozenset({"n"})),))
    aug = pnpsc_to_rbsc(inst)
    assert aug.sets == inst.sets
    assert aug.red == inst.red


def test_pnpsc_to_rbsc_isolated_positive():
    inst = SetSystem(blue=frozenset({"p"}), sets=())
    aug = pnpsc_to_rbsc(inst)
    (label, members) = aug.sets[0]
    assert label == "skip(p)" and members == {"p", "skip:p"}
    cover = solve_rbsc_greedy(aug)
    assert cover.chosen == ("skip(p)",) and cover.cost == 1


def test_greedy_f1(f1):
    rules, example = f1
    inst = build_rbsc(rules, example)
    cover = solve_rbsc_greedy(inst)
    assert cover.chosen == ("r1", "r2")
    assert cover.cost == 2
    members = dict(inst.sets)
    assert (members["r1"] | members["r2"]) & inst.red == {bid("a1"), bid("a2")}


def test_greedy_prefers_zero_red_sets():
    inst = SetSystem(blue=frozenset({"b1", "b2"}), sets=(("all", frozenset({"b1", "b2"})),))
    cover = solve_rbsc_greedy(inst)
    assert cover.chosen == ("all",) and cover.cost == 0


def test_greedy_threshold_sweep_shields_heavy_sets():
    inst = SetSystem(
        blue=frozenset({"b"}),
        sets=(("heavy", frozenset({"b", "x1", "x2"})),
              ("light", frozenset({"b", "x3"}))))
    cover = solve_rbsc_greedy(inst)
    assert cover.chosen == ("light",) and cover.cost == 1


def test_thresholds_are_the_red_counts_the_sweep_needs():
    from ruleselect.covering import _thresholds

    assert _thresholds([12, 3, 5, 3]) == [3, 5, 12]
    assert _thresholds([]) == [0]
    assert _thresholds([0, 0]) == [0]
    assert _thresholds(list(range(64))) == list(range(64))
    # >64 distinct counts: the counts that 0, the maximum and 1, 2, 4, ... reach
    assert _thresholds(list(range(65))) == [0, 1, 2, 4, 8, 16, 32, 64]
    many = list(range(1, 70))
    assert _thresholds(many) == [1, 2, 4, 8, 16, 32, 64, 69]
    sparse = [3 * k + 5 for k in range(70)]  # 5, 8, ..., 212
    assert _thresholds(sparse) == [8, 14, 32, 62, 128, 212]  # 0, 1, 2, 4 admit no set


def test_greedy_uncoverable_blue_raises():
    inst = SetSystem(blue=frozenset({"b"}), sets=())
    with pytest.raises(InfeasibleError) as err:
        solve_rbsc_greedy(inst)
    assert err.value.missing == {"b"}


def test_packed_universe_is_linear_in_memory():
    # One bit per element, packed through a byte buffer: tens of thousands of
    # elements stay within a few MB, not the square of the universe size.
    import tracemalloc

    elements = range(50_000)
    tracemalloc.start()
    try:
        universe = PackedUniverse(elements)
        mask = universe.pack(elements)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask == (1 << 50_000) - 1
    assert peak < 20 * 2**20
    assert universe.pack(universe.facts[1:]) == mask & ~1


def test_greedy_deterministic_under_permutation(f1):
    rules, example = f1
    inst = build_rbsc(rules, example)
    for perm in ((2, 1, 0), (1, 2, 0), (0, 2, 1)):
        shuffled = SetSystem(blue=inst.blue, sets=tuple(inst.sets[i] for i in perm))
        assert solve_rbsc_greedy(shuffled) == solve_rbsc_greedy(inst)


def test_pnpsc_approx_f1(f1):
    rules, example = f1
    cover = solve_pnpsc_approx(build_pnpsc(rules, example))
    assert cover.chosen == ("r1", "r2") and cover.cost == 2


def test_pnpsc_approx_nothing_to_cover():
    inst = SetSystem(blue=frozenset(), sets=(("s", frozenset({"n"})),))
    cover = solve_pnpsc_approx(inst)
    assert cover.chosen == () and cover.cost == 0


def test_pnpsc_approx_skip_beats_costly_cover():
    inst = SetSystem(
        blue=frozenset({"p"}),
        sets=(("s", frozenset({"p", "n1", "n2", "n3"})),))
    cover = solve_pnpsc_approx(inst)
    assert cover.chosen == () and cover.cost == 1


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_fp_cost_preservation_exhaustive(seed):
    """Selections with no false negatives cost exactly their covered reds."""
    rules, example = gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=6, n_sets=6, density=0.4,
                fp_noise=0.4, fn_noise=0.0, join_rules=1))
    inst = build_rbsc(rules, example)
    members = dict(inst.sets)
    for sel in subsets_canonical(rules.names()):
        rep = compute_errors(rules, sel, example)
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
    inst = build_pnpsc(rules, example)
    for sel in subsets_canonical(rules.names()):
        rep = compute_errors(rules, sel, example)
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
    inst = SetSystem(blue=frozenset(positives), sets=sets)
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


# Labels that sort next to, before and after the skip labels skip(p0)..skip(p9).
_NEAR_SKIP = ("skip", "skip(", "skip(p", "skip(p0", "skip(p0)0", "skip(p00)", "skip(p1)a",
              "skip((", "skip)", "skip(o)", "skip(q)", "skio", "skiq", "sk", "r1", "r10", "r2")


def _random_system(seed):
    """Reds n*, blues p* and uniquely labelled sets over them; one draw in four
    has more than 64 distinct red counts."""
    import random

    rng = random.Random(seed)
    blues = [f"p{i}" for i in range(rng.randrange(10))]
    if rng.random() < 0.25:
        reds = [f"n{i}" for i in range(rng.randrange(70, 80))]
        counts = rng.sample(range(len(reds) + 1), rng.randrange(65, 71))
    else:
        reds = [f"n{i}" for i in range(rng.randrange(0, 10))]
        counts = [sum(rng.random() < 0.4 for _ in reds) for _ in range(rng.randrange(0, 9))]
    pool = list(_NEAR_SKIP) + [f"s{i}" for i in range(len(counts))]
    labels = rng.sample(pool, len(counts))
    sets = tuple((label, frozenset(rng.sample(reds, c)) | {b for b in blues if rng.random() < 0.4})
                 for label, c in zip(labels, counts))
    return frozenset(reds), frozenset(blues), sets


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300)
def test_greedy_matches_reference_greedy(seed):
    red, blue, sets = _random_system(seed)
    union = set().union(*(members for _, members in sets))
    if blue <= union:
        cover = solve_rbsc_greedy(SetSystem(blue=blue, sets=sets))
        assert (cover.chosen, cover.cost) == reference_rbsc_greedy(red, blue, sets)
    else:
        with pytest.raises(InfeasibleError):
            solve_rbsc_greedy(SetSystem(blue=blue, sets=sets))
    cover = solve_pnpsc_approx(SetSystem(blue=blue, sets=sets))
    assert (cover.chosen, cover.cost) == reference_pnpsc_approx(blue, red, sets)


def _check_greedy_on_rules(rules, example):
    """Both greedy solvers against the reference greedy, which takes the
    explicit red; the red-blue one only where every truth fact is derivable.
    Returns whether it ran."""
    system = build_pnpsc(rules, example)
    cover = solve_pnpsc_approx(system)
    assert (cover.chosen, cover.cost) == reference_pnpsc_approx(system.blue, system.red,
                                                                system.sets)
    if check_fp_feasible(rules, example):
        return False
    system = build_rbsc(rules, example)
    cover = solve_rbsc_greedy(system)
    assert (cover.chosen, cover.cost) == reference_rbsc_greedy(system.red, system.blue,
                                                               system.sets)
    return True


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([0.0, 0.2]))
@settings(max_examples=40)
def test_greedy_matches_reference_greedy_on_rule_systems(seed, fn_noise):
    # Fact elements from evaluated rules, where the other reference tests
    # draw strings.
    _check_greedy_on_rules(*gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=12, n_sets=8, density=0.4,
                fp_noise=0.4, fn_noise=fn_noise, join_rules=2)))


@pytest.mark.parametrize("encode", [rules_from_set_cover, rules_from_set_cover_indexed,
                                    rules_from_set_cover_clones])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_matches_reference_greedy_on_set_cover_encodings(encode, seed):
    sc = gen_random_setcover(GenSeed(seed=seed, n_universe=8, n_sets=5))
    assert _check_greedy_on_rules(*encode(sc))  # every encoding is FP-feasible


def _check_cost_and_bound(rules, example):
    """Each greedy's cost is its objective on the selection and its bound the
    `greedy_bound` of the red-blue system it solves, the FPFN one with a skip
    set per truth fact; greedy `select` reports both, or exits 2 where FP
    mode is infeasible."""
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for option, name, text in (("--rules", "rules.rules", write_rules(rules)),
                                   ("--premise", "premise.facts", write_facts(example.premise)),
                                   ("--truth", "truth.facts", write_facts(example.truth))):
            Path(tmp, name).write_text(text, encoding="utf-8")
            files += [option, str(Path(tmp, name))]
        for objective in ("fp", "fpfn"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["select", "--method", "greedy", "--objective", objective]
                                + files)
            if objective == "fp" and check_fp_feasible(rules, example):
                assert code == 2
                continue
            if objective == "fp":
                system = build_rbsc(rules, example)
                cover, n_sets = solve_rbsc_greedy(system), len(system.sets)
            else:
                system = build_pnpsc(rules, example)
                cover, n_sets = solve_pnpsc_approx(system), len(system.sets) + len(system.blue)
            errors = compute_errors(rules, frozenset(cover.chosen), example)
            assert cover.cost == (errors.fp_count if objective == "fp" else errors.total)
            assert cover.bound == greedy_bound(n_sets, len(system.blue))
            out = json.loads(stdout.getvalue())
            assert code == 0 and out["selected_rules"] == list(cover.chosen)
            assert (out["error"], out["bound_value"]) == (cover.cost, round(cover.bound, 4))


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([0.0, 0.2]))
@settings(max_examples=40)
def test_greedy_reports_its_cost_and_bound(seed, fn_noise):
    _check_cost_and_bound(*gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=12, n_sets=8, density=0.4,
                fp_noise=0.4, fn_noise=fn_noise, join_rules=2)))


@pytest.mark.parametrize("encode", [rules_from_set_cover, rules_from_set_cover_indexed,
                                    rules_from_set_cover_clones])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_reports_its_cost_and_bound_on_set_cover_encodings(encode, seed):
    _check_cost_and_bound(*encode(gen_random_setcover(GenSeed(seed=seed, n_universe=8,
                                                              n_sets=5))))


def test_pnpsc_approx_rescans_after_a_rule_between_skips():
    # skip(p0) beats every rule; then the rule "skip(p0)x" (one new red, one
    # new blue) wins on label over skip(p1) and covers n0, which lowers b's
    # new-red/new-blue ratio to 2/2, so b beats skip(p1).  A pass that kept
    # taking skips after "skip(p0)x" without a rescan would miss b.
    inst = SetSystem(
        blue=frozenset({"p0", "p1", "p5", "p6", "p7"}),
        sets=(("skip(p0)x", frozenset({"p5", "n0"})),
              ("b", frozenset({"n0", "n1", "n2", "p6", "p7"}))))
    cover = solve_pnpsc_approx(inst)
    assert cover.chosen == ("b", "skip(p0)x") and cover.cost == 5
    assert (cover.chosen, cover.cost) == reference_pnpsc_approx(inst.blue, inst.red,
                                                                inst.sets)


def test_pnpsc_approx_takes_skips_in_label_order():
    # "skip(p!)" < "skip(p!)x" < "skip(p)", though "p" < "p!": the skip of p!
    # beats the rule, which then adds no blue.  Taking skips in positive order
    # would try skip(p) first, lose to the rule and take it.
    inst = SetSystem(blue=frozenset({"p", "p!"}), sets=(("skip(p!)x", frozenset({"p!", "n0"})),))
    cover = solve_pnpsc_approx(inst)
    assert cover.chosen == () and cover.cost == 2
    assert (cover.chosen, cover.cost) == reference_pnpsc_approx(inst.blue, inst.red,
                                                                inst.sets)


@pytest.mark.parametrize("positive, negative, sets", [
    ({"p0"}, set(), (("skip(p0)", frozenset({"p0"})),)),
    ({"p0"}, {"skip:p0"}, ()),
    ({"p0", "skip:p0"}, set(), ()),
    ({1, "1"}, set(), ()),  # two positives, one text: both would be labelled skip(1)
])
def test_skip_ids_must_not_collide(positive, negative, sets):
    # The negatives form a set of their own.  The explicit reduction refuses
    # a taken skip label or marker.  The greedy's implicit skips have labels
    # but no markers, so it refuses only a taken label.
    inst = SetSystem(blue=frozenset(positive), sets=(*sets, ("n", frozenset(negative))))
    with pytest.raises(ValidationError, match="collides"):
        pnpsc_to_rbsc(inst)
    if {f"skip:{p}" for p in positive} & (positive | negative):
        cover = solve_pnpsc_approx(inst)
        assert cover.chosen == () and cover.cost == len(positive)
    else:
        with pytest.raises(ValidationError, match="collides"):
            solve_pnpsc_approx(inst)


# Labels next to the skip labels of positives p0..p29 and p0!..p29!, equal to
# none of them.  "skip(p1!)" sorts before "skip(p1)" though "p1!" sorts after
# "p1": skips go in label order, not positive order.
_NEAR_WIDE_SKIP = ("skip(p", "skip(p0", "skip(p0)0", "skip(p1", "skip(p1)a", "skip(p1!)a",
                   "skip(p10", "skip(p10)a", "skip(p19)0", "skip(p2", "skip(p2!)(", "skip(p29)z",
                   "skip(p3)!", "skip(p3!)x", "skip(p9)~", "skip)", "skip(q)", "skio", "r1")


def _wide_system(seed):
    """Up to 30 positives p* and p*!, 30 negatives n* and 14 sets, labelled
    mostly next to the skip labels, at mixed densities."""
    import random

    rng = random.Random(seed)
    names = [name for i in range(30) for name in (f"p{i}", f"p{i}!")[:rng.choice((1, 1, 2))]]
    positives = names[:rng.randrange(31)]
    negatives = [f"n{i}" for i in range(rng.randrange(31))]
    n_sets = rng.randrange(15)
    labels = rng.sample(_NEAR_WIDE_SKIP + tuple(f"s{i}" for i in range(n_sets)), n_sets)
    sets = []
    for label in labels:
        density = rng.choice((0.05, 0.2, 0.5))
        sets.append((label, frozenset(x for x in positives + negatives
                                      if rng.random() < density)))
    return frozenset(positives), frozenset(negatives), tuple(sets)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200)
def test_pnpsc_approx_matches_the_explicit_reduction_on_wide_systems(seed):
    positive, negative, sets = _wide_system(seed)
    inst = SetSystem(blue=positive, sets=sets)
    cover = solve_pnpsc_approx(inst)
    assert (cover.chosen, cover.cost) == reference_pnpsc_approx(positive, negative, sets)
    explicit = solve_rbsc_greedy(pnpsc_to_rbsc(inst))
    labels = {label for label, _ in sets}
    assert cover.chosen == tuple(label for label in explicit.chosen if label in labels)
