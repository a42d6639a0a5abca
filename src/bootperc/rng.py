"""Deterministic random streams for seeded, order-independent experiments.

Every stochastic component draws from a counter-based Philox generator
whose 128-bit key is a hash of (master seed, stream indices).  Trial
streams are therefore independent of execution order and worker count:
trial k of an experiment always sees the same numbers, whether it runs
first, last, or on another process.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Dedicated sub-stream tags, so one (seed, trial) pair can feed several
# independent consumers without overlap.
STREAM_RUN = 0
STREAM_STAGES = 1
STREAM_GRAPH = 2


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def derive_key(*parts: int) -> tuple[int, int]:
    """Fold integer parts in [0, 2^64) into a 128-bit key.
    Order-sensitive; ValueError for a part outside that range, since a
    wider part would alias a run of later ones."""
    h = 0
    for part in map(int, parts):
        if part < 0:
            raise ValueError(f"stream key parts must be non-negative, got {part}")
        if part > _MASK64:
            raise ValueError(f"stream key parts must be below 2**64, got {part}")
        h = _splitmix64(h ^ part)
    return h, _splitmix64(h)


def make_generator(*parts: int) -> np.random.Generator:
    """Philox generator keyed by a hash of the parts; no global state."""
    w0, w1 = derive_key(*parts)
    key = np.array([w0, w1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
