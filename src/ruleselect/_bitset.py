"""Bit-packed element universes shared by the exact and greedy solvers.

Each element of a fixed universe owns one bit of a Python `int`, so a set of
elements packs into one int, unions are `|`, and sizes are `bit_count()`.
Bit positions follow set iteration order: every result the solvers report
depends only on counts and unions, never on which bit an element holds.
"""
from __future__ import annotations

from typing import Hashable, Iterable


class PackedUniverse:
    """Fixed element universe; `index[e]` is the one-bit mask of element `e`."""

    __slots__ = ("facts", "index", "n_words")

    def __init__(self, elements: Iterable[Hashable]):
        self.facts = tuple(set(elements))
        self.index = {e: 1 << i for i, e in enumerate(self.facts)}
        self.n_words = max(1, -(-len(self.facts) // 64))

    def pack(self, elements: Iterable[Hashable]) -> int:
        mask = 0
        for e in elements:
            mask |= self.index[e]
        return mask

    def pack_rows(self, element_sets) -> list:
        return [self.pack(es) for es in element_sets]
