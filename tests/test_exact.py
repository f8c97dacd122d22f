from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ruleselect import (
    CapacityError,
    DataExample,
    ExactConfig,
    InfeasibleError,
    Instance,
    bilevel_optimum,
    build_pnpsc,
    build_rbsc,
    check_fp_feasible,
    evaluated,
    fact,
    pareto_front,
    pareto_membership,
    parse_rules,
    rule_size,
    solve_exact,
)
from ruleselect import _kernels, exact
from ruleselect._bitset import MAX_UNION_WORDS, MAX_WORD_VISITS, PackedUniverse, subset_profile
from ruleselect.covering import pack
from ruleselect.generators import GenSeed, gen_random_ruleselect

from oracles import (
    brute_force_front,
    brute_force_optimum,
    brute_force_pnpsc_min,
    brute_force_rbsc_min,
    subset_fp_fn,
)

FP = ExactConfig(objective="fp")
FPFN = ExactConfig(objective="fpfn")


def random_example(seed, n_sets=None, fn_noise=0.2):
    import random

    if n_sets is None:
        n_sets = random.Random(seed ^ 0xA5).randint(2, 10)
    return gen_random_ruleselect(
        GenSeed(seed=seed, n_universe=6, n_sets=n_sets, density=0.4,
                fp_noise=0.4, fn_noise=fn_noise, join_rules=1))


def test_solve_exact_f1(f1):
    rules, example = f1
    assert solve_exact(rules, example, FPFN) == (2, frozenset({"r1"}))
    assert solve_exact(rules, example, FP) == (2, frozenset({"r1", "r2"}))


def test_solve_exact_empty_rules(f1):
    _, example = f1
    none = parse_rules("")
    err, sel = solve_exact(none, DataExample(Instance.empty(), example.truth), FPFN)
    assert (err, sel) == (3, frozenset())


def test_solve_exact_capacity(f1):
    rules, example = f1
    with pytest.raises(CapacityError):
        solve_exact(rules, example, ExactConfig(max_rules=2))


def test_solve_exact_fp_infeasible(f1):
    rules, example = f1
    bad_truth = Instance({"B": 1}, list(example.truth.facts) + [fact("B", "zz")])
    with pytest.raises(InfeasibleError):
        solve_exact(rules, DataExample(example.premise, bad_truth), FP)


def test_pareto_front_f1(f1):
    rules, example = f1
    front = pareto_front(rules, example, FPFN)
    assert [(p.error, p.size) for p in front] == [(2, 1), (3, 0)]
    assert front[0].witness == frozenset({"r1"})
    assert front[1].witness == frozenset()
    front_fp = pareto_front(rules, example, FP)
    assert [(p.error, p.size) for p in front_fp] == [(2, 2)]


def test_pareto_front_single_perfect_rule():
    rules = parse_rules('rule r: S(x) -> B(x).')
    premise = Instance({"S": 1}, [fact("S", "u1"), fact("S", "u2")])
    truth = Instance({"B": 1}, [fact("B", "u1"), fact("B", "u2")])
    front = pareto_front(rules, DataExample(premise, truth), FPFN)
    assert {(p.error, p.size) for p in front} == {(0, 1), (2, 0)}


def candidate_point(rules, example, candidate):
    """A selection's FP+FN (error, size), by the oracle's own set arithmetic."""
    fp, fn = subset_fp_fn(evaluated(rules, example.premise).per_rule, candidate,
                          example.truth.facts)
    return len(fp) + len(fn), sum(rule_size(rules.rule(n)) for n in candidate)


def test_candidate_pareto_optimality_f1(f1):
    # A selection is Pareto-optimal exactly when its point is on the front.
    rules, example = f1
    for candidate, optimal in (({"r1"}, True), ({"r1", "r2"}, False), (set(), True)):
        point = candidate_point(rules, example, candidate)
        assert pareto_membership(rules, example, *point, FPFN) is optimal, candidate


def test_pareto_membership_f1(f1):
    rules, example = f1
    assert pareto_membership(rules, example, 2, 1, FPFN) is True
    assert pareto_membership(rules, example, 2, 2, FPFN) is False
    assert pareto_membership(rules, example, 0, 0, FPFN) is False


def test_bilevel_f1(f1):
    rules, example = f1
    res = bilevel_optimum(rules, example, FPFN)
    assert (res.error, res.size, res.witness) == (2, 1, frozenset({"r1"}))
    res_fp = bilevel_optimum(rules, example, FP)
    assert (res_fp.error, res_fp.size) == (2, 2)
    none = parse_rules("")
    ex = DataExample(Instance.empty(), example.truth)
    res0 = bilevel_optimum(none, ex, FPFN)
    assert (res0.error, res0.size, res0.witness) == (3, 0, frozenset())


def test_candidate_bilevel_optimality_f1(f1):
    # A selection is bi-level optimal exactly when it attains the optimum's point.
    rules, example = f1
    best = bilevel_optimum(rules, example, FPFN)
    for candidate, optimal in (({"r1"}, True), ({"r2"}, True),  # r2 also gives (2, 1)
                               ({"r1", "r2"}, False)):
        point = candidate_point(rules, example, candidate)
        assert (point == (best.error, best.size)) is optimal, candidate


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60)
def test_solve_exact_matches_brute_force(seed):
    rules, example = random_example(seed)
    cache = evaluated(rules, example.premise)
    truth = example.truth.facts
    for objective in ("fpfn", "fp"):
        expect_err, expect_sel = brute_force_optimum(
            rules.names(), cache.per_rule, truth, fp_only=objective == "fp")
        if objective == "fp" and (truth - cache.union):
            with pytest.raises(InfeasibleError):
                solve_exact(rules, example, ExactConfig(objective=objective))
            continue
        err, sel = solve_exact(rules, example, ExactConfig(objective=objective))
        assert err == expect_err
        assert sel == expect_sel


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_solve_exact_matches_the_set_cover_optima(seed):
    # The exact solvers read the systems the greedy reads; their optima are
    # those of red-blue (FP) and positive-negative (FPFN) set cover.
    rules, example = random_example(seed, fn_noise=0.2 if seed % 2 else 0.0)
    err, _ = solve_exact(rules, example, FPFN)
    assert err == brute_force_pnpsc_min(build_pnpsc(rules, example))
    if check_fp_feasible(rules, example):
        with pytest.raises(InfeasibleError):
            solve_exact(rules, example, FP)
        return
    err, _ = solve_exact(rules, example, FP)
    assert err == brute_force_rbsc_min(build_rbsc(rules, example))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_front_sound_and_complete(seed):
    rules, example = random_example(seed)
    cache = evaluated(rules, example.premise)
    sizes = {r.name: rule_size(r) for r in rules.rules}
    front = pareto_front(rules, example, FPFN)
    points = {(p.error, p.size) for p in front}
    expect, pairs = brute_force_front(
        rules.names(), cache.per_rule, sizes, example.truth.facts, fp_only=False)
    assert points == expect
    # no front point dominates another
    for a in points:
        for b in points:
            assert a == b or not (a[0] <= b[0] and a[1] <= b[1])
    # every achieved pair is weakly dominated by some front point
    for e, s in pairs:
        assert any(fe <= e and fs <= s for fe, fs in points)
    # witnesses realize their points
    for p in front:
        fp, fn = subset_fp_fn(cache.per_rule, p.witness, example.truth.facts)
        assert len(fp) + len(fn) == p.error
        assert sum(sizes[n] for n in p.witness) == p.size


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_bilevel_on_front_with_min_error(seed):
    rules, example = random_example(seed)
    front = pareto_front(rules, example, FPFN)
    res = bilevel_optimum(rules, example, FPFN)
    assert (res.error, res.size) in {(p.error, p.size) for p in front}
    assert res.error == solve_exact(rules, example, FPFN)[0]
    assert res.size == min(p.size for p in front if p.error == res.error)
    assert candidate_point(rules, example, res.witness) == (res.error, res.size)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20)
def test_decision_procedures_cohere(seed):
    # The decision versions (some selection has error <= k; the optimum is k),
    # read off the optimum and off the front, agree with brute force.
    rules, example = random_example(seed, n_sets=4)
    cache = evaluated(rules, example.premise)
    opt, _ = solve_exact(rules, example, FPFN)
    front_min = min(p.error for p in pareto_front(rules, example, FPFN))
    sizes = {r.name: rule_size(r) for r in rules.rules}
    _, pairs = brute_force_front(rules.names(), cache.per_rule, sizes, example.truth.facts,
                                 fp_only=False)
    errors = {e for e, _ in pairs}
    hi = len(example.truth.facts) + len(cache.union)
    for k in range(0, hi + 1):
        assert (opt <= k) == (front_min <= k) == any(e <= k for e in errors)
        assert (opt == k) == (front_min == k) == (min(errors) == k)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_fp_optimum_at_least_fpfn(seed):
    rules, example = random_example(seed, fn_noise=0.0)
    fp_err, _ = solve_exact(rules, example, FP)
    fpfn_err, _ = solve_exact(rules, example, FPFN)
    assert fp_err >= fpfn_err


def _subset_unions(int_masks, int_sizes):
    """Union and size of every subset, each from its mask without the lowest bit."""
    n = len(int_masks)
    unions, subset_sizes = [0] * (1 << n), [0] * (1 << n)
    for m in range(1, 1 << n):
        low = (m & -m).bit_length() - 1
        unions[m] = unions[m & (m - 1)] | int_masks[low]
        subset_sizes[m] = subset_sizes[m & (m - 1)] + int_sizes[low]
    return unions, subset_sizes


def _direct_sweep(subsets, j_int):
    """Per fp_only: (least error, lowest mask) overall and per size, by a direct
    integer sweep over every subset."""
    unions, subset_sizes = subsets
    best = {False: (-1, -1), True: (-1, -1)}
    profile = {f: [(-1, -1)] * (max(subset_sizes) + 1) for f in best}  # per size
    for m, (union, s) in enumerate(zip(unions, subset_sizes)):
        fp = (union & ~j_int).bit_count()
        fn = (j_int & ~union).bit_count()
        for fp_only in (False, True):
            if fp_only and fn:
                continue
            err = fp if fp_only else fp + fn
            if best[fp_only][0] < 0 or err < best[fp_only][0]:
                best[fp_only] = (err, m)
            if profile[fp_only][s][0] < 0 or err < profile[fp_only][s][0]:
                profile[fp_only][s] = (err, m)
    return best, profile


def _as_word_rows(int_masks, n_words):
    return np.array([[m >> (64 * k) & (2**64 - 1) for k in range(n_words)]
                     for m in int_masks], dtype=np.uint64)


def _check_kernels(int_masks, int_sizes, subsets, j_int, n_words):
    masks = _as_word_rows(int_masks, n_words)
    j = _as_word_rows([j_int], n_words)[0]
    sizes = np.array(int_sizes, dtype=np.int64)
    zero_sizes = np.zeros(len(int_masks), dtype=np.int64)
    best, profile = _direct_sweep(subsets, j_int)
    for fp_only in (False, True):
        assert _kernels.solve_exact_masks(masks, j, fp_only=fp_only) == best[fp_only]
        got_err, got_witness = _kernels.size_profile_masks(masks, sizes, j, fp_only=fp_only)
        assert list(zip(got_err.tolist(), got_witness.tolist())) == profile[fp_only], fp_only
        got_err, got_witness = _kernels.size_profile_masks(masks, zero_sizes, j, fp_only=fp_only)
        assert (got_err.tolist(), got_witness.tolist()) == ([best[fp_only][0]], [best[fp_only][1]])


def test_kernels_beyond_numpy_chunk_threshold():
    # 18 rules exercise the kernel's outer/inner split (at 16) and the witness
    # order at scale; checked against a direct integer sweep.
    import random

    rng = random.Random(1234)
    n, bits = 18, 30
    int_masks = [rng.getrandbits(bits) for _ in range(n)]
    j_int = rng.getrandbits(bits)
    int_sizes = [rng.randint(1, 3) for _ in range(n)]
    _check_kernels(int_masks, int_sizes, _subset_unions(int_masks, int_sizes), j_int,
                   n_words=1)
    masks = _as_word_rows(int_masks, 1)
    uncoverable = np.array([j_int | 1 << 40], dtype=np.uint64)  # bit 40 is in no rule
    assert _kernels.solve_exact_masks(masks[:4], uncoverable, fp_only=True) == (-1, -1)


def test_kernels_with_several_outer_rules():
    # 19 rules: three outer rules past the 16-rule inner block, so the outer
    # table's unions and sizes take every combination of them.  The rule at
    # bit 17 adds nothing but size; those at bits 16 and 18 hold truth facts
    # that no inner rule has, so FP mode needs both.
    import random

    rng = random.Random(1919)
    bits = 90
    inner = [rng.getrandbits(bits) & rng.getrandbits(bits) & ~(0b111 << 80)
             for _ in range(16)]
    int_masks = inner + [1 << 80 | rng.getrandbits(bits) & rng.getrandbits(bits), 0,
                         0b110 << 80 | rng.getrandbits(40)]
    int_sizes = [rng.randint(1, 4) for _ in int_masks]
    subsets = _subset_unions(int_masks, int_sizes)
    for j_int in (rng.getrandbits(bits) & ~(0b111 << 80) | 0b101 << 80, 0b111 << 80):
        _check_kernels(int_masks, int_sizes, subsets, j_int, n_words=2)


def test_kernels_across_fact_words():
    # 18 rules over 200 facts (4 words, the last one partial), so a slip in
    # the kernel's per-word loop shows; checked against a direct integer sweep.
    import random

    rng = random.Random(4321)
    n_words, bits = 4, 200
    sparse = [rng.getrandbits(bits) & rng.getrandbits(bits) & rng.getrandbits(bits)
              for _ in range(14)]
    straddling = [1 << 63 | 1 << 64, 1 << 127 | 1 << 128, 1 << 191 | 1 << 192, 1 << 199]
    no_rule = 1 << 70 | 1 << 198  # bits that no rule has
    int_masks = [m & ~no_rule for m in sparse + straddling]
    int_sizes = [rng.randint(1, 3) for _ in int_masks]
    first_word_only = rng.getrandbits(64) & rng.getrandbits(64)
    last_word_only = (rng.getrandbits(6) | 1) << 192
    across_words = (1 << 63 | 1 << 64 | 1 << 127 | 1 << 128 | 1 << 191 | 1 << 192
                    | rng.getrandbits(bits) & rng.getrandbits(bits) & ~no_rule)
    subsets = _subset_unions(int_masks, int_sizes)
    for j_int in (first_word_only, last_word_only, across_words):
        _check_kernels(int_masks, int_sizes, subsets, j_int, n_words)
    masks = _as_word_rows(int_masks, n_words)
    sizes = np.array(int_sizes, dtype=np.int64)
    for bit in (70, 198):
        uncoverable = _as_word_rows([across_words | 1 << bit], n_words)[0]
        assert _kernels.solve_exact_masks(masks, uncoverable, fp_only=True) == (-1, -1)
        got_err, got_witness = _kernels.size_profile_masks(masks, sizes, uncoverable,
                                                           fp_only=True)
        assert set(got_err.tolist()) == set(got_witness.tolist()) == {-1}


def test_kernels_refuse_work_past_the_limit():
    # 2^33 subsets of one word each is past the limit, refused before any
    # allocation, and so is every larger input, so subset masks never pass 32
    # bits; the default 24-rule cap over 256 words stays within it.
    assert (1 << 24) * 256 <= MAX_WORD_VISITS
    for n in (33, 63):
        masks = np.ones((n, 1), dtype=np.uint64)
        with pytest.raises(CapacityError, match="word visits"):
            _kernels.solve_exact_masks(masks, np.ones(1, dtype=np.uint64))
    # the pure-Python path has the same limit: 2^16 subsets over 2^16 + 1 words
    with pytest.raises(CapacityError, match="word visits"):
        subset_profile([1] * 16, [0] * 16, 1, 2**16 + 1, False)


def test_enumerations_refuse_union_tables_past_the_memory_limit():
    # Both paths hold the unions of 2^min(n, 16) subsets at once.  One word
    # past MAX_UNION_WORDS is refused before anything is allocated, well
    # within the visit limit; the default 24-rule cap over 256 words fits.
    words = MAX_UNION_WORDS // 2**16 + 1
    assert 2**16 * words <= MAX_WORD_VISITS
    assert 2**16 * 256 <= MAX_UNION_WORDS
    with pytest.raises(CapacityError, match=f"{2**16:,} subset unions over {words} fact words"):
        subset_profile([0] * 16, [0] * 16, 0, words, False)
    with pytest.raises(CapacityError, match=f"{2**16:,} subset unions over {words} fact words"):
        _kernels.size_profile_masks(np.zeros((17, words), dtype=np.uint64),
                                    np.zeros(17, dtype=np.int64),
                                    np.zeros(words, dtype=np.uint64))


def test_exact_witness_is_lowest_mask_not_smallest_front_point():
    # On this instance the least-error subset with the lowest mask is not the
    # smallest one, so solve_exact must not take its witness from the front.
    rules, example = random_example(36)
    cache = evaluated(rules, example.premise)
    expect = brute_force_optimum(rules.names(), cache.per_rule,
                                 example.truth.facts, fp_only=False)
    err, witness = solve_exact(rules, example, FPFN)
    assert (err, witness) == expect
    assert witness != bilevel_optimum(rules, example, FPFN).witness


def test_wide_universe_crosses_word_boundary():
    # >64 facts forces multi-word masks through both kernels.
    rules, example = gen_random_ruleselect(
        GenSeed(seed=7, n_universe=90, n_sets=8, density=0.6,
                fp_noise=0.3, fn_noise=0.1, join_rules=2))
    cache = evaluated(rules, example.premise)
    assert len(cache.union | example.truth.facts) > 64
    expect = brute_force_optimum(rules.names(), cache.per_rule,
                                 example.truth.facts, fp_only=False)
    assert solve_exact(rules, example, FPFN) == expect


def _outputs_instance(outputs, truth):
    """Rule r<i> derives B(c) for each constant c in outputs[i]; truth holds B(c)
    for each c in truth."""
    rules = parse_rules("".join(f"rule r{i}: A{i}(x) -> B(x).\n" for i in range(len(outputs))))
    premise = Instance({f"A{i}": 1 for i in range(len(outputs))},
                       [fact(f"A{i}", f"c{c}") for i, out in enumerate(outputs) for c in out])
    return rules, DataExample(premise, Instance({"B": 1}, [fact("B", f"c{c}") for c in truth]))


@st.composite
def fp_instances(draw):
    """(rules, example, kind) with every truth fact derivable, shaped by kind:
    no rule forced; every rule forced; one rule the sole deriver of several
    truth facts; two rules sharing the only derivation of a fact; or a
    generated corpus instance."""
    kind = draw(st.sampled_from(["none", "all", "several", "shared", "corpus"]))
    if kind == "corpus":
        rules, example = random_example(draw(st.integers(0, 10**6)), fn_noise=0.0)
        return rules, example, kind
    n = draw(st.integers(min_value=2 if kind in ("none", "shared") else 1, max_value=8))
    outputs = [set(draw(st.sets(st.integers(0, 11), max_size=6))) for _ in range(n)]
    truth = set(draw(st.sets(st.integers(0, 11)))) & set().union(*outputs)
    if kind in ("none", "shared"):  # a second deriver for every sole-derived fact
        for c in truth:
            ds = [i for i, out in enumerate(outputs) if c in out]
            if len(ds) == 1:
                outputs[(ds[0] + 1) % n].add(c)
    if kind == "shared":
        outputs[0].add(20)
        outputs[1].add(20)
        truth.add(20)
    if kind == "all":
        for i in range(n):
            outputs[i].add(30 + i)
            truth.add(30 + i)
    if kind == "several":
        outputs[0] |= {40, 41, 42}
        truth |= {40, 41, 42}
    rules, example = _outputs_instance(outputs, truth)
    return rules, example, kind


def _unreduced(rules, example, sizes):
    """FP answers of the kernel on every rule's row, read as the CLI read them
    before forced rules were fixed: (optimum, witness), then the front."""
    cache = evaluated(rules, example.premise)
    universe = PackedUniverse(cache.union | example.truth.facts)
    rows = _kernels.as_words(
        universe.pack_rows([cache.per_rule[r.name] for r in rules.rules]), universe.n_words)
    j = _kernels.as_words([universe.pack(example.truth.facts)], universe.n_words)[0]
    names = [r.name for r in rules.rules]

    def selection(mask):
        return frozenset(n for i, n in enumerate(names) if mask >> i & 1)

    err, mask = _kernels.solve_exact_masks(rows, j, fp_only=True)
    best_err, witness = _kernels.size_profile_masks(
        rows, np.array([sizes[n] for n in names], dtype=np.int64), j, fp_only=True)
    front, least = [], None
    for s, e in enumerate(best_err.tolist()):
        if e >= 0 and (least is None or e < least):
            least = e
            front.append((e, s, selection(int(witness[s]))))
    return (err, selection(mask)), sorted(front)


@given(fp_instances())
@settings(max_examples=80)
def test_fp_forced_rules_match_unreduced_kernel_and_brute_force(drawn):
    rules, example, kind = drawn
    cache = evaluated(rules, example.premise)
    truth = example.truth.facts
    # forced: some truth fact it derives, no other rule derives
    forced = {r.name for r in rules.rules
              if any(all(f not in cache.per_rule[o.name] for o in rules.rules if o is not r)
                     for f in cache.per_rule[r.name] & truth)}
    if kind == "several":
        assert "r0" in forced
    elif kind != "corpus":
        assert forced == {"none": set(), "shared": set(), "all": set(rules.names())}[kind]
    _, rows, j = pack(build_rbsc(rules, example))
    assert {rules.rules[i].name for i in exact._forced(rows, j)} == forced
    sizes = {r.name: rule_size(r) for r in rules.rules}
    optimum, front = _unreduced(rules, example, sizes)
    assert solve_exact(rules, example, FP) == optimum
    assert optimum == brute_force_optimum(rules.names(), cache.per_rule, truth, fp_only=True)
    got = pareto_front(rules, example, FP)
    assert sorted((p.error, p.size, p.witness) for p in got) == front
    expect_points, _ = brute_force_front(rules.names(), cache.per_rule, sizes, truth,
                                         fp_only=True)
    assert {(e, s) for e, s, _ in front} == expect_points


@st.composite
def enumeration_inputs(draw):
    """(rows, sizes, j, n_words, fp_only) on both sides of the pure-Python
    cutoff. Rows come from a small pool, so equal rows tie optima; the truth
    may hold a fact no rule derives; sizes are all zero or drawn."""
    cutoff = exact.PURE_PYTHON_RULES
    n = draw(st.one_of(st.sampled_from([cutoff, cutoff + 1]), st.integers(0, cutoff + 1)))
    n_words = draw(st.integers(1, 3))
    bits = 64 * n_words - draw(st.integers(0, 63))
    fact_bits = st.integers(0, bits - 1)
    pool = draw(st.lists(st.sets(fact_bits, max_size=8), min_size=1, max_size=max(1, n)))
    rows = [sum(1 << b for b in draw(st.sampled_from(pool))) for _ in range(n)]
    j = sum(1 << b for b in draw(st.sets(fact_bits, max_size=12)))
    covered = 0
    for row in rows:
        covered |= row
    if draw(st.booleans()) and covered != (1 << bits) - 1:
        j |= 1 << next(b for b in range(bits) if not covered >> b & 1)
    sizes = draw(st.one_of(st.just([0] * n), st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return rows, sizes, j, n_words, draw(st.booleans())


@given(enumeration_inputs())
@settings(max_examples=60)
def test_pure_python_enumeration_matches_numpy_kernel_and_brute_force(drawn):
    # Up to PURE_PYTHON_RULES rows enumerate in pure Python, more in the
    # numpy kernel; either way the answers are the kernel's: per-size least
    # error at its lowest mask, and the brute-force optimum and front.
    rows, sizes, j, n_words, fp_only = drawn
    masks = _kernels.as_words(rows, n_words)
    j_mask = _kernels.as_words([j], n_words)[0]
    best_err, witness = _kernels._size_profile(
        masks, np.array(sizes, dtype=np.int64), j_mask, fp_only)
    expect = (best_err.tolist(), witness.tolist())
    assert subset_profile(rows, sizes, j, n_words, fp_only) == expect
    with mock.patch.object(_kernels, "size_profile_masks",
                           wraps=_kernels.size_profile_masks) as kernel:
        assert exact._profile(rows, j, n_words, fp_only, sizes=sizes) == expect
    assert kernel.called == (len(rows) > exact.PURE_PYTHON_RULES)
    with mock.patch.object(_kernels, "solve_exact_masks",
                           wraps=_kernels.solve_exact_masks) as kernel:
        optimum = exact._profile(rows, j, n_words, fp_only)
    assert kernel.called == (len(rows) > exact.PURE_PYTHON_RULES)
    if len(rows) > 8:
        return
    names = [f"r{i}" for i in range(len(rows))]
    per_rule = {name: frozenset(b for b in range(64 * n_words) if row >> b & 1)
                for name, row in zip(names, rows)}
    truth = frozenset(b for b in range(64 * n_words) if j >> b & 1)
    err, sel = brute_force_optimum(names, per_rule, truth, fp_only)
    mask = -1 if sel is None else sum(1 << names.index(name) for name in sel)
    assert optimum == ([-1 if err is None else err], [mask])
    front, least = set(), None
    for s, e in enumerate(expect[0]):
        if e >= 0 and (least is None or e < least):
            least = e
            front.add((e, s))
    assert front == brute_force_front(names, per_rule, dict(zip(names, sizes)), truth,
                                      fp_only)[0]
