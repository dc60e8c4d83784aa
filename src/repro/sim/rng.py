"""Deterministic random-number streams.

Every experiment takes a single integer seed. Subsystems (each fading
link, the MAC backoff draws, application think times, ...) must not
share one generator, or adding an event in one subsystem would perturb
every other — so we hand each consumer its own ``numpy`` Generator
derived from the root seed and a stable string label.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


class RngRegistry:
    """Derives independent, reproducible RNG streams from one seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, label: str) -> np.random.Generator:
        """Return the generator for ``label``, creating it on first use.

        The same ``(seed, label)`` pair always yields the same stream,
        independent of creation order.
        """
        generator = self._streams.get(label)
        if generator is None:
            digest = hashlib.sha256(
                f"{self.seed}:{label}".encode("utf-8")
            ).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            generator = np.random.default_rng(child_seed)
            self._streams[label] = generator
        return generator

    def spawn(self, label: str) -> "RngRegistry":
        """A child registry whose streams are disjoint from the parent's."""
        digest = hashlib.sha256(f"{self.seed}/{label}".encode("utf-8")).digest()
        return RngRegistry(int.from_bytes(digest[:8], "little"))


def seeded_generator(seed: int) -> np.random.Generator:
    """A generator from an explicit fixed seed.

    The blessed constructor for the few call sites that own a seed
    constant rather than a registry (e.g. the backhaul's default loss
    stream).  Routing them through here keeps the DET002 check's
    guarantee (``tests/lint.py``) airtight: every ``np.random``
    generator in the tree is constructed in this module, so auditing
    determinism means auditing this file's callers — nothing else can
    mint entropy.
    """
    return np.random.default_rng(int(seed))
