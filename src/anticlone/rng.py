"""Seeded counter-based random streams.

Philox streams keyed by (seed, stream index) make every Monte Carlo result a
pure function of its seed: batches can run in any order, or in parallel, and
merge deterministically by index. ``machine.measure_prepare_baseline`` does
so: round by round, it builds its block streams on the calling thread,
scores the blocks on one thread per usable CPU and adds their sums in block
order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox_stream"]


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, stream) pair."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )
