"""Bit-packed element universes shared by the exact and greedy solvers.

Each element of a fixed universe owns one bit of a Python `int`, so a set of
elements packs into one int, unions are `|`, and sizes are `bit_count()`.
Bit positions follow set iteration order: every result the solvers report
depends only on counts and unions, never on which bit an element holds.
Packing goes through a little-endian byte buffer of `n_words` 64-bit words,
so it takes time and memory linear in the universe size.
"""
from __future__ import annotations

from typing import Hashable, Iterable


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
