"""Bit-packed element universes shared by the exact and greedy solvers, and
the pure-Python subset enumeration over them.

Each element of a fixed universe owns one bit of a Python `int`, so a set of
elements packs into one int, unions are `|`, and sizes are `bit_count()`.
Bit positions follow set iteration order: every result the solvers report
depends only on counts and unions, never on which bit an element holds.
Packing goes through a little-endian byte buffer of `n_words` 64-bit words,
so it takes time and memory linear in the universe size.

`subset_profile` enumerates the subsets of a few rows on these ints, under
the same contract as the numpy kernel in `_kernels`; `exact` chooses between
the two.  Both refuse work past the limits below through one guard,
`check_enumeration`.
"""
from __future__ import annotations

from typing import Hashable, Iterable

from .model import CapacityError

#: Most (subset, fact word) pairs one enumeration may visit: 2^24 subsets over
#: 256 words, about 15-30 s on a 2-vCPU host.  More is refused up front.
MAX_WORD_VISITS = 2**32
#: Most fact words the table of subset unions, which both enumerations hold
#: at once, may take: 2^16 subsets over 512 words, 256 MiB of words.  At 16
#: rules over 500 words the pure-Python enumeration peaked at 285 MB and the
#: numpy kernel at 529 MB (2-vCPU host).  More is refused up front.
MAX_UNION_WORDS = 2**25


def check_enumeration(n: int, n_words: int, table_rows: int) -> None:
    """Refuse, before anything is allocated, an enumeration of the 2^n
    subsets of `n` rows over `n_words` words past `MAX_WORD_VISITS`, or one
    that holds the unions of 2^`table_rows` subsets past `MAX_UNION_WORDS`.
    No n past 32 passes, so subset masks fit the kernel's int64 witnesses."""
    visits, held = (1 << n) * n_words, (1 << table_rows) * n_words
    if visits > MAX_WORD_VISITS:
        raise CapacityError(
            f"enumerating 2^{n} subsets over {n_words} fact words is {visits:,} "
            f"word visits, above the limit of {MAX_WORD_VISITS:,}")
    if held > MAX_UNION_WORDS:
        raise CapacityError(
            f"holding {1 << table_rows:,} subset unions over {n_words} fact words takes "
            f"{held:,} words, above the limit of {MAX_UNION_WORDS:,}")


class PackedUniverse:
    """Fixed element universe; `index[e]` is the bit position of element `e`."""

    __slots__ = ("facts", "index", "n_words")

    def __init__(self, elements: Iterable[Hashable]):
        self.facts = tuple(set(elements))
        self.index = {e: i for i, e in enumerate(self.facts)}
        self.n_words = max(1, -(-len(self.facts) // 64))

    def pack(self, elements: Iterable[Hashable]) -> int:
        buf = bytearray(self.n_words * 8)
        for e in elements:
            i = self.index[e]
            buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")

    def pack_rows(self, element_sets) -> list:
        return [self.pack(es) for es in element_sets]


def subset_profile(rows: list, sizes: list, j: int, n_words: int, fp_only: bool) -> tuple:
    """Per-size least error |union xor j| and its lowest subset mask, over
    every subset of `rows` (lists indexed by size, -1 = none).

    Mask bit i selects `rows[i]`.  In FP mode only subsets whose union holds
    all of `j` count.
    """
    check_enumeration(len(rows), n_words, len(rows))
    unions, totals = [0], [0]
    for row, size in zip(rows, sizes):
        unions += [u | row for u in unions]
        totals += [t + size for t in totals]
    best = [-1] * (sum(sizes) + 1)
    witness = [-1] * len(best)
    for mask, (u, s) in enumerate(zip(unions, totals)):
        if fp_only and u & j != j:
            continue
        e = (u ^ j).bit_count()
        if best[s] < 0 or e < best[s]:  # strict: the lowest mask wins ties
            best[s], witness[s] = e, mask
    return best, witness
