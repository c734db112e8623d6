"""Counter-based random streams for reproducible runs.

All randomness flows through Philox (a 64-bit counter-based generator), so
independent streams are derived by key splitting rather than by sequential
seeding: stream ``(seed, stream_id)`` is statistically independent of every
other id and identical across platforms and process layouts.  Simulations
consume a fixed number of draws per round from per-block streams, which
keeps trajectories bit-reproducible even when runs execute in parallel.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

# stream ids, one per consumer; 5 and 7 are retired (the expander
# experiment's own process and its component placement) and must not be
# reused, so that no new consumer replays their old draws
GRAPH_GEN = 1
MARKOV_CHAIN = 2
AGENT_SIM = 3
CAPPED_ADMISSION = 4
LEMMA_INSTANCES = 6
LANCZOS_START = 8


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """An independent generator keyed by (seed, stream_id)."""
    key = np.array([seed & _MASK, stream_id & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substream(seed: int, stream_id: int, index: int) -> np.random.Generator:
    """A generator for one block/instance within a stream."""
    mixed = (stream_id * 0x9E3779B97F4A7C15 + index) & _MASK
    key = np.array([seed & _MASK, mixed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
