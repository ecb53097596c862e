"""Deterministic random streams keyed by (seed, stream id).

Built on numpy's counter-based Philox generator so that distinct stream ids
yield statistically independent sequences and an identical (seed, stream)
pair reproduces the exact same draws. Monte Carlo code derives one stream
per trial, which makes each trial's draws independent of the trials around
it.
"""

from __future__ import annotations

import numpy as np

# the largest seed a stream tells apart; larger ones would wrap onto it
MAX_SEED = 2**64 - 1


class RngStream:
    """One deterministic pseudo-random stream.

    seed: 64-bit integer shared by a whole experiment.
    stream: integer naming this stream within the experiment.
    """

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) % 2**64
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream % 2**64,))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"

    def substream(self, offset: int) -> "RngStream":
        """A fresh stream at `stream + offset`; the caller owns the layout."""
        return RngStream(self.seed, self.stream + int(offset))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    # Thin delegation for the draws used across the package.

    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def bits(self, count: int) -> np.ndarray:
        """`count` uniform bits as uint8."""
        return self._gen.integers(0, 2, size=count).astype(np.uint8)
