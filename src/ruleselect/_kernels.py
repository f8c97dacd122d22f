"""Subset enumeration over bit-packed fact universes: the hot loop behind the
exact solvers.

One numpy kernel walks all 2^n rule subsets and returns, for every selection
size, the least error and the lowest subset mask that reaches it.  The Pareto
front and the bi-level optimum are that table's strict-improvement points.
The exact optimum is the same kernel with every rule size set to 0: all
subsets then fall in one size group, whose entry is the least error over all
subsets at its lowest mask.

Subset bitmasks use the canonical order throughout: rule i (declaration
order) occupies bit i, and subsets are ranked by ascending mask value, so the
"first" witness is the lowest mask among optima.

Fact sets arrive as the Python ints of `_bitset.PackedUniverse`; `as_words`
lays them out as rows of uint64 words, fact bit i at bit i % 64 of word
i // 64, for the kernel.

Inner subset unions are held word-major, one contiguous row per fact word,
and each outer block is one pass per word: OR the base, XOR the truth J,
popcount, add, into preallocated buffers.  One popcount suffices because
fp + fn = |x xor J|; FP mode also ORs up the J bits of x xor J (those x
misses) and keeps only subsets that miss none.
"""
from __future__ import annotations

import numpy as np

from .model import CapacityError

#: Subset masks are int64 values with rule i at bit i.
MAX_RULES = 62
#: Most (subset, fact word) pairs one enumeration may visit: 2^24 subsets over
#: 256 words, about 15-30 s on a 2-vCPU host.  More is refused up front.
MAX_WORD_VISITS = 2**32


def as_words(masks, n_words: int) -> np.ndarray:
    """Int bit masks as a (len(masks), n_words) uint64 array."""
    raw = b"".join(m.to_bytes(8 * n_words, "little") for m in masks)
    words = np.frombuffer(raw, dtype="<u8").reshape(len(masks), n_words)
    return words.astype(np.uint64)


def _doubled_unions(rule_masks: np.ndarray, upto: int) -> np.ndarray:
    """Unions of all subsets of rules [0, upto); row m has bit i of m = rule i."""
    w = rule_masks.shape[1]
    unions = np.zeros((1, w), dtype=np.uint64)
    for i in range(upto):
        unions = np.concatenate([unions, unions | rule_masks[i]])
    return unions


def _size_profile(rule_masks, sizes, j_mask, fp_only):
    """Per-size least error and lowest witness mask (arrays, -1 = none).

    The lowest 16 rules are enumerated at once as one block of inner subsets;
    the remaining rules pick the block's base union, in ascending mask order.
    """
    n, w = rule_masks.shape
    if (1 << n) * w > MAX_WORD_VISITS:
        raise CapacityError(
            f"enumerating 2^{n} subsets over {w} fact words is {(1 << n) * w:,} word "
            f"visits, above the limit of {MAX_WORD_VISITS:,}")
    sizes = np.asarray(sizes, dtype=np.int64)
    split = min(n, 16)
    inner_sizes = np.zeros(1, dtype=np.int64)
    for i in range(split):
        inner_sizes = np.concatenate([inner_sizes, inner_sizes + sizes[i]])
    # Inner subsets grouped by size, ascending mask within a group; the least
    # (error << split | inner mask) of a group is its least error at its
    # lowest mask, found for every group by one reduceat per block.
    order = np.argsort(inner_sizes, kind="stable")
    inner_t = np.ascontiguousarray(_doubled_unions(rule_masks, split)[order].T)  # (w, 2^split)
    grouped_sizes = inner_sizes[order]
    starts = np.flatnonzero(np.r_[True, grouped_sizes[1:] != grouped_sizes[:-1]])
    group_sizes = grouped_sizes[starts]
    low = np.int64((1 << split) - 1)
    big = np.int64(64 * w + 1)  # above any |x xor J|
    max_size = int(sizes.sum())

    diff, lost, missing = (np.empty(1 << split, dtype=np.uint64) for _ in range(3))
    count = np.empty(1 << split, dtype=np.uint8)
    errs = np.empty(1 << split, dtype=np.int64)
    best_err = np.full(max_size + 1, np.int64(-1))
    witness = np.full(max_size + 1, np.int64(-1))
    for outer in range(1 << (n - split)):
        base = np.zeros(w, dtype=np.uint64)
        base_size = 0
        for t in range(n - split):
            if outer >> t & 1:
                base |= rule_masks[split + t]
                base_size += int(sizes[split + t])
        errs.fill(0)
        missing.fill(0)
        for k in range(w):
            np.bitwise_or(inner_t[k], base[k], out=diff)
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
        witness[s[better]] = (outer << split) | (least[better] & low)
    return best_err, witness


def solve_exact_masks(rule_masks: np.ndarray, j_mask: np.ndarray,
                      fp_only: bool = False) -> tuple:
    """Minimum error over all rule subsets and its lowest mask: (error, mask).

    Both are -1 when no subset qualifies (FP mode, uncoverable truth).
    """
    no_sizes = np.zeros(rule_masks.shape[0], dtype=np.int64)
    best_err, witness = _size_profile(rule_masks, no_sizes, j_mask, fp_only)
    return int(best_err[0]), int(witness[0])


def size_profile_masks(rule_masks: np.ndarray, sizes: np.ndarray, j_mask: np.ndarray,
                       fp_only: bool = False) -> tuple:
    """Per-size least error and lowest witness mask over all subsets (arrays, -1 = none)."""
    return _size_profile(rule_masks, sizes, j_mask, fp_only)
