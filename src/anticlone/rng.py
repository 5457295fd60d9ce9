"""Seeded random streams keyed by (seed, stream index).

A stream keyed by (seed, stream index) makes every Monte Carlo result a pure
function of its seed: batches can run in any order, or in parallel, and
merge deterministically by index. Both generators here take the same
``SeedSequence(entropy=seed, spawn_key=(stream,))``:

- ``pcg_stream`` (PCG64DXSM, NumPy's recommended generator for many
  parallel streams) feeds ``machine.measure_prepare_baseline``, where the
  draws are most of the cost. Round by round, the baseline builds its block
  streams on the calling thread, scores the blocks on one thread per usable
  CPU and adds their sums in block order.
- ``philox_stream`` (counter-based Philox) feeds every other draw: verify's
  Haar directions, optimize's restart start points and prob's binomial
  success counts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pcg_stream", "philox_stream"]


def pcg_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent PCG64DXSM generator for one (seed, stream) pair."""
    return np.random.Generator(
        np.random.PCG64DXSM(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent Philox generator for one (seed, stream) pair."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )
