"""Subset-enumeration kernels over bit-packed fact universes.

These are the hot loops behind the exact solvers: a depth-first walk over all
2^n rule subsets with incremental unions.  Each kernel exists twice — a numba
@njit build and a pure-numpy fallback — selected by the RULESELECT_BACKEND
environment variable ("numba" | "numpy"; default numba when importable).

Subset bitmasks use the canonical order throughout: rule i (declaration
order) occupies bit i, and subsets are ranked by ascending mask value, so the
"first" witness is the lowest mask among optima.
"""
from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        return wrap


_ENV_VAR = "RULESELECT_BACKEND"

#: Subset masks are int64 values with rule i at bit i.
MAX_RULES = 62


def default_backend() -> str:
    choice = os.environ.get(_ENV_VAR, "").strip().lower()
    if choice in ("numba", "numpy"):
        return choice
    if choice:
        raise ValueError(f"{_ENV_VAR} must be 'numba' or 'numpy', got {choice!r}")
    return "numba" if HAS_NUMBA else "numpy"


def _popcount_rows(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a).sum(axis=-1, dtype=np.int64)


_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_U1 = np.uint64(1)
_U2 = np.uint64(2)
_U4 = np.uint64(4)
_U56 = np.uint64(56)


@njit(cache=True)
def _popcnt64(x):
    x = x - ((x >> _U1) & _M1)
    x = (x & _M2) + ((x >> _U2) & _M2)
    x = (x + (x >> _U4)) & _M4
    return np.int64((x * _H01) >> _U56)


@njit(cache=True)
def _pop_and(a, b):
    total = np.int64(0)
    for k in range(a.shape[0]):
        total += _popcnt64(a[k] & b[k])
    return total


@njit(cache=True)
def _nb_solve_exact(rule_masks, j_mask, not_j, fp_only, prune):
    """DFS over all subsets in canonical order; returns (best_error, best_mask).

    best_mask is -1 when no subset qualifies (FP mode on an uncoverable
    instance).  Depth d decides rule n-1-d, exclude branch first, which
    enumerates leaves by ascending subset mask; strict improvement keeps the
    first witness among optima.  Pruning drops a node once the union's FP
    count alone exceeds the best error, which can never exclude an optimum.
    """
    n, w = rule_masks.shape
    j_pop = np.int64(0)
    for k in range(w):
        j_pop += _popcnt64(j_mask[k])

    unions = np.zeros((n + 1, w), dtype=np.uint64)
    fps = np.zeros(n + 1, dtype=np.int64)
    state = np.zeros(n + 1, dtype=np.int8)
    best_err = np.int64(64) * w + j_pop + 1
    best_mask = np.int64(-1)
    cur = np.int64(0)
    d = 0
    while d >= 0:
        if d == n:
            fp = fps[d]
            fn = j_pop - _pop_and(unions[d], j_mask)
            if fp_only:
                if fn == 0 and fp < best_err:
                    best_err = fp
                    best_mask = cur
            else:
                err = fp + fn
                if err < best_err:
                    best_err = err
                    best_mask = cur
            d -= 1
            continue
        ridx = n - 1 - d
        st = state[d]
        if st == 0:
            if prune and fps[d] > best_err:
                state[d] = 2
                continue
            state[d] = 1
            for k in range(w):
                unions[d + 1, k] = unions[d, k]
            fps[d + 1] = fps[d]
            state[d + 1] = 0
            d += 1
        elif st == 1:
            state[d] = 2
            newfp = np.int64(0)
            for k in range(w):
                u = unions[d, k] | rule_masks[ridx, k]
                unions[d + 1, k] = u
                newfp += _popcnt64(u & not_j[k])
            if prune and newfp > best_err:
                continue
            fps[d + 1] = newfp
            cur |= np.int64(1) << ridx
            state[d + 1] = 0
            d += 1
        else:
            cur &= ~(np.int64(1) << ridx)
            d -= 1
    return best_err, best_mask


@njit(cache=True)
def _nb_size_profile(rule_masks, sizes, j_mask, not_j, fp_only):
    """Per-size minima over all subsets: (best_error_by_size, witness_mask_by_size).

    Entries are -1 where no subset of that size qualifies.  Same canonical
    DFS order as the exact kernel, so witnesses are first-in-order.
    """
    n, w = rule_masks.shape
    j_pop = np.int64(0)
    for k in range(w):
        j_pop += _popcnt64(j_mask[k])
    max_size = np.int64(0)
    for i in range(n):
        max_size += sizes[i]

    best_err = np.full(max_size + 1, np.int64(-1))
    witness = np.full(max_size + 1, np.int64(-1))
    unions = np.zeros((n + 1, w), dtype=np.uint64)
    state = np.zeros(n + 1, dtype=np.int8)
    cur = np.int64(0)
    cur_size = np.int64(0)
    d = 0
    while d >= 0:
        if d == n:
            fn = j_pop - _pop_and(unions[d], j_mask)
            if not (fp_only and fn != 0):
                fp = np.int64(0)
                for k in range(w):
                    fp += _popcnt64(unions[d, k] & not_j[k])
                err = fp if fp_only else fp + fn
                s = cur_size
                if best_err[s] < 0 or err < best_err[s]:
                    best_err[s] = err
                    witness[s] = cur
            d -= 1
            continue
        ridx = n - 1 - d
        st = state[d]
        if st == 0:
            state[d] = 1
            for k in range(w):
                unions[d + 1, k] = unions[d, k]
            state[d + 1] = 0
            d += 1
        elif st == 1:
            state[d] = 2
            for k in range(w):
                unions[d + 1, k] = unions[d, k] | rule_masks[ridx, k]
            cur |= np.int64(1) << ridx
            cur_size += sizes[ridx]
            state[d + 1] = 0
            d += 1
        else:
            if cur & (np.int64(1) << ridx):
                cur_size -= sizes[ridx]
            cur &= ~(np.int64(1) << ridx)
            d -= 1
    return best_err, witness


def _doubled_unions(rule_masks: np.ndarray, upto: int) -> np.ndarray:
    """Unions of all subsets of rules [0, upto); row m has bit i of m = rule i."""
    w = rule_masks.shape[1]
    unions = np.zeros((1, w), dtype=np.uint64)
    for i in range(upto):
        unions = np.concatenate([unions, unions | rule_masks[i]])
    return unions


def _np_solve_exact(rule_masks, j_mask, not_j, fp_only, prune):
    n, w = rule_masks.shape
    split = min(n, 16)
    inner = _doubled_unions(rule_masks, split)
    j_pop = int(_popcount_rows(j_mask[None, :])[0])
    big = np.int64(64 * w + j_pop + 1)

    best_err = int(big)
    best_mask = -1
    for outer in range(1 << (n - split)):
        base = np.zeros(w, dtype=np.uint64)
        for t in range(n - split):
            if outer >> t & 1:
                base |= rule_masks[split + t]
        if prune and int(_popcount_rows((base & not_j)[None, :])[0]) > best_err:
            continue
        fulls = inner | base
        fp = _popcount_rows(fulls & not_j)
        fn = j_pop - _popcount_rows(fulls & j_mask)
        if fp_only:
            errs = np.where(fn == 0, fp, big)
        else:
            errs = fp + fn
        i = int(np.argmin(errs))
        e = int(errs[i])
        if e < best_err:
            best_err = e
            best_mask = (outer << split) | i
    if best_mask < 0:
        return int(big), -1
    return best_err, best_mask


def _np_size_profile(rule_masks, sizes, j_mask, not_j, fp_only):
    n, w = rule_masks.shape
    split = min(n, 16)
    inner = _doubled_unions(rule_masks, split)
    inner_sizes = np.zeros(1, dtype=np.int64)
    for i in range(split):
        inner_sizes = np.concatenate([inner_sizes, inner_sizes + sizes[i]])
    # Inner subsets grouped by size, ascending mask within a group; the least
    # (error << split | inner mask) of a group is its least error at its
    # lowest mask, found for every group by one reduceat per block.
    order = np.argsort(inner_sizes, kind="stable")
    inner = inner[order]
    grouped_sizes = inner_sizes[order]
    starts = np.flatnonzero(np.r_[True, grouped_sizes[1:] != grouped_sizes[:-1]])
    group_sizes = grouped_sizes[starts]
    low = np.int64((1 << split) - 1)
    j_pop = int(_popcount_rows(j_mask[None, :])[0])
    big = np.int64(64 * w + j_pop + 1)
    max_size = int(sizes.sum())

    best_err = np.full(max_size + 1, np.int64(-1))
    witness = np.full(max_size + 1, np.int64(-1))
    for outer in range(1 << (n - split)):
        base = np.zeros(w, dtype=np.uint64)
        base_size = 0
        for t in range(n - split):
            if outer >> t & 1:
                base |= rule_masks[split + t]
                base_size += int(sizes[split + t])
        fulls = inner | base
        fp = _popcount_rows(fulls & not_j)
        fn = j_pop - _popcount_rows(fulls & j_mask)
        errs = np.where(fn == 0, fp, big) if fp_only else fp + fn
        least = np.minimum.reduceat((errs << split) | order, starts)
        err = least >> split
        s = group_sizes + base_size
        # strict improvement only: an earlier block has the lower mask
        better = (err < big) & ((best_err[s] < 0) | (err < best_err[s]))
        best_err[s[better]] = err[better]
        witness[s[better]] = (outer << split) | (least[better] & low)
    return best_err, witness


def solve_exact_masks(rule_masks: np.ndarray, j_mask: np.ndarray,
                      fp_only: bool = False, prune: bool = True,
                      backend: str | None = None) -> tuple:
    """Minimum error over all rule subsets; returns (error, subset_mask).

    subset_mask is -1 when no subset qualifies (FP mode, uncoverable truth).
    """
    if rule_masks.shape[0] > MAX_RULES:
        raise ValueError(f"subset masks limited to {MAX_RULES} rules")
    backend = backend or default_backend()
    not_j = np.bitwise_not(j_mask)
    if backend == "numba":
        err, mask = _nb_solve_exact(rule_masks, j_mask, not_j, fp_only, prune)
    elif backend == "numpy":
        err, mask = _np_solve_exact(rule_masks, j_mask, not_j, fp_only, prune)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return int(err), int(mask)


def size_profile_masks(rule_masks: np.ndarray, sizes: np.ndarray, j_mask: np.ndarray,
                       fp_only: bool = False, backend: str | None = None) -> tuple:
    """Per-size best error and first witness over all subsets (arrays, -1 = none)."""
    if rule_masks.shape[0] > MAX_RULES:
        raise ValueError(f"subset masks limited to {MAX_RULES} rules")
    backend = backend or default_backend()
    not_j = np.bitwise_not(j_mask)
    sizes = np.asarray(sizes, dtype=np.int64)
    if backend == "numba":
        return _nb_size_profile(rule_masks, sizes, j_mask, not_j, fp_only)
    if backend == "numpy":
        return _np_size_profile(rule_masks, sizes, j_mask, not_j, fp_only)
    raise ValueError(f"unknown backend {backend!r}")
