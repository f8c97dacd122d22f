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
    evaluated,
    fact,
    pareto_front,
    pareto_membership,
    parse_rules,
    rule_size,
    solve_exact,
)
from ruleselect import _kernels
from ruleselect.generators import GenSeed, gen_random_ruleselect

from oracles import brute_force_front, brute_force_optimum, subset_fp_fn

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
    # allocation, and so is any input past the 62 rules a subset mask holds;
    # the default 24-rule cap over 256 words stays within it.
    assert (1 << 24) * 256 <= _kernels.MAX_WORD_VISITS
    for n in (33, 63):
        masks = np.ones((n, 1), dtype=np.uint64)
        with pytest.raises(CapacityError, match="word visits"):
            _kernels.solve_exact_masks(masks, np.ones(1, dtype=np.uint64))


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
