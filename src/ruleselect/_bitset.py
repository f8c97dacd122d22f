"""Bit-packed fact universes: facts become bit positions in uint64 word arrays."""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .model import Fact


class PackedUniverse:
    """Fixed, canonically sorted fact universe with mask packing."""

    __slots__ = ("facts", "index", "n_words")

    def __init__(self, facts: Iterable[Fact]):
        self.facts = tuple(sorted(set(facts), key=Fact.sort_key))
        self.index = {f: i for i, f in enumerate(self.facts)}
        self.n_words = max(1, -(-len(self.facts) // 64))

    def __len__(self):
        return len(self.facts)

    def pack(self, facts: Iterable[Fact]) -> np.ndarray:
        mask = np.zeros(self.n_words, dtype=np.uint64)
        for f in facts:
            i = self.index[f]
            mask[i >> 6] |= np.uint64(1) << np.uint64(i & 63)
        return mask

    def pack_rows(self, fact_sets) -> np.ndarray:
        rows = np.zeros((len(fact_sets), self.n_words), dtype=np.uint64)
        for r, fs in enumerate(fact_sets):
            rows[r] = self.pack(fs)
        return rows
