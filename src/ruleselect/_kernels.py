"""Subset enumeration over bit-packed fact universes: the numpy kernel behind
the exact solvers past `exact.PURE_PYTHON_RULES` rules.

One numpy kernel walks all 2^n rule subsets and returns, for every selection
size, the least error and the lowest subset mask that reaches it.  The Pareto
front and the bi-level optimum are that table's strict-improvement points.
The exact optimum is the same kernel with every rule size set to 0: all
subsets then fall in one size group, whose entry is the least error over all
subsets at its lowest mask.  `_bitset.subset_profile` gives the same answers
in pure Python; `exact` calls it up to `PURE_PYTHON_RULES` rules and imports
this module, and with it numpy, only for more.

Subset bitmasks use the canonical order throughout: rule i (declaration
order) occupies bit i, and subsets are ranked by ascending mask value, so the
"first" witness is the lowest mask among optima.

Fact sets arrive as the Python ints of `_bitset.PackedUniverse`; `as_words`
lays them out as rows of uint64 words, fact bit i at bit i % 64 of word
i // 64, for the kernel.

One doubling, `_doubled`, builds the unions, one contiguous row per fact word,
and the sizes of the inner and the outer subsets; the visit limit keeps the
outer table within 2^16 words.  Each outer block is one pass per word: OR the
base, XOR the truth J, popcount, add, into preallocated buffers.  One popcount
suffices as fp + fn = |x xor J|; FP mode also ORs up the J bits of x xor J
(those x misses) and keeps only subsets missing none.
"""
from __future__ import annotations

import numpy as np

from ._bitset import check_enumeration


def as_words(masks, n_words: int) -> np.ndarray:
    """Int bit masks as a (len(masks), n_words) uint64 array."""
    raw = b"".join(m.to_bytes(8 * n_words, "little") for m in masks)
    words = np.frombuffer(raw, dtype="<u8").reshape(len(masks), n_words)
    return words.astype(np.uint64)


def _doubled(masks: np.ndarray, sizes) -> tuple:
    """Union and size total of every subset of the rows, subset m holding row i
    iff bit i of m: unions word-major, (words, 2^rows), and totals (2^rows,)."""
    unions = np.zeros((masks.shape[1], 1 << len(masks)), dtype=np.uint64)
    totals = np.zeros(1 << len(masks), dtype=np.int64)
    for i, (row, size) in enumerate(zip(masks, sizes)):  # subsets [2^i, 2^(i+1)) add row i
        np.bitwise_or(unions[:, :1 << i], row[:, None], out=unions[:, 1 << i:2 << i])
        np.add(totals[:1 << i], size, out=totals[1 << i:2 << i])
    return unions, totals


def _size_profile(rule_masks, sizes, j_mask, fp_only):
    """Per-size least error and lowest witness mask (arrays, -1 = none).

    The lowest 16 rules are enumerated at once as one block of inner subsets;
    the remaining rules pick the block's base union, in ascending mask order.
    """
    n, w = rule_masks.shape
    split = min(n, 16)
    check_enumeration(n, w, split)
    inner, inner_sizes = _doubled(rule_masks[:split], sizes[:split])
    outer, outer_sizes = _doubled(rule_masks[split:], sizes[split:])
    # Inner subsets grouped by size, ascending mask within a group; the least
    # (error << split | inner mask) of a group is its least error at its
    # lowest mask, found for every group by one reduceat per block.
    order = np.argsort(inner_sizes, kind="stable")
    inner = np.take(inner, order, axis=1)  # rebound: at most two tables are held at once
    grouped_sizes = inner_sizes[order]
    starts = np.flatnonzero(np.r_[True, grouped_sizes[1:] != grouped_sizes[:-1]])
    group_sizes = grouped_sizes[starts]
    low = np.int64((1 << split) - 1)
    big = np.int64(64 * w + 1)  # above any |x xor J|

    diff, lost, missing = (np.empty(1 << split, dtype=np.uint64) for _ in range(3))
    count = np.empty(1 << split, dtype=np.uint8)
    errs = np.empty(1 << split, dtype=np.int64)
    # one entry per size up to that of the subset of every rule
    best_err = np.full(int(inner_sizes[-1] + outer_sizes[-1]) + 1, np.int64(-1))
    witness = np.full_like(best_err, -1)
    for block, (base, base_size) in enumerate(zip(outer.T, outer_sizes)):
        errs.fill(0)
        missing.fill(0)
        for k in range(w):
            np.bitwise_or(inner[k], base[k], out=diff)
            np.bitwise_xor(diff, j_mask[k], out=diff)
            if fp_only:
                np.bitwise_and(diff, j_mask[k], out=lost)
                np.bitwise_or(missing, lost, out=missing)
            np.bitwise_count(diff, out=count)
            np.add(errs, count, out=errs)
        if fp_only:
            errs[missing != 0] = big
        least = np.minimum.reduceat((errs << split) | order, starts)
        err = least >> split
        s = group_sizes + base_size
        # strict improvement only: an earlier block has the lower mask
        better = (err < big) & ((best_err[s] < 0) | (err < best_err[s]))
        best_err[s[better]] = err[better]
        witness[s[better]] = (block << split) | (least[better] & low)
    return best_err, witness


def solve_exact_masks(rule_masks: np.ndarray, j_mask: np.ndarray,
                      fp_only: bool = False) -> tuple:
    """Minimum error over all rule subsets and its lowest mask: (error, mask).

    Both are -1 when no subset qualifies (FP mode, uncoverable truth).
    """
    best_err, witness = _size_profile(rule_masks, [0] * len(rule_masks), j_mask, fp_only)
    return int(best_err[0]), int(witness[0])


def size_profile_masks(rule_masks: np.ndarray, sizes: np.ndarray, j_mask: np.ndarray,
                       fp_only: bool = False) -> tuple:
    """Per-size least error and lowest witness mask over all subsets (arrays, -1 = none)."""
    return _size_profile(rule_masks, sizes, j_mask, fp_only)
