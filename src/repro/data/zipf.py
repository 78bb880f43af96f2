"""Zipfian sampling for skewed synthetic data (Section 5.1).

The paper's skewed data sets draw leaf values "such that data objects
exhibited a skewed Zipfian distribution of leaf values, across all sets in
the database [12]", with skew factor ``0 < θ < 1`` (closer to 1 = more
skew) and ``θ ∈ {0.5, 0.7, 0.9}``.

:class:`ZipfSampler` draws ranks ``1..n`` with probability proportional to
``1 / rank**θ`` via inverse-CDF sampling over a precomputed cumulative
table (numpy), which is exact and fast for the domain sizes used here.
"""

from __future__ import annotations

import random

import numpy as np


class ZipfSampler:
    """Draw 0-based ranks with Zipfian probabilities ``∝ 1/(rank+1)**θ``."""

    def __init__(self, n_items: int, theta: float,
                 rng: random.Random | None = None) -> None:
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        if not 0.0 < theta < 2.0:
            raise ValueError("theta must be in (0, 2); the paper uses (0, 1)")
        self.n_items = n_items
        self.theta = theta
        self._rng = rng if rng is not None else random.Random()
        weights = 1.0 / np.power(np.arange(1, n_items + 1, dtype=np.float64),
                                 theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self) -> int:
        """Draw one rank in ``[0, n_items)`` (rank 0 is the most popular)."""
        u = self._rng.random()
        return int(self._cdf.searchsorted(u, side="left"))

    def sample_many(self, count: int) -> list[int]:
        """Draw ``count`` i.i.d. ranks."""
        return [self.sample() for _ in range(count)]

    def probability(self, rank: int) -> float:
        """Exact probability mass of a 0-based rank."""
        if not 0 <= rank < self.n_items:
            raise ValueError(f"rank {rank} outside [0, {self.n_items})")
        previous = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - previous)


class UniformSampler:
    """Uniform ranks over ``[0, n_items)`` (the paper's uniform data sets)."""

    def __init__(self, n_items: int,
                 rng: random.Random | None = None) -> None:
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        self.n_items = n_items
        self._rng = rng if rng is not None else random.Random()

    def sample(self) -> int:
        return self._rng.randrange(self.n_items)

    def sample_many(self, count: int) -> list[int]:
        return [self.sample() for _ in range(count)]
