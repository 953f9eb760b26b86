"""Deterministic named random-number streams.

Every stochastic component of the simulator (OS jitter on compute phases,
unexpected checkpoint delays, failure inter-arrival times, ...) draws from a
*named* stream derived from a single master seed.  Streams are independent of
each other and of the order in which other streams are consumed, which keeps
experiments reproducible even as the code evolves.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np


class RandomStreams:
    """A registry of independent, named :class:`numpy.random.Generator` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        s = self._streams.get(name)
        if s is None:
            s = self._streams[name] = np.random.default_rng(self._derive_seed(name))
        return s

    # Convenience draws -------------------------------------------------
    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw from stream ``name``."""
        return float(self.stream(name).uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return float(self.stream(name).exponential(mean))

    def normal(self, name: str, loc: float, scale: float) -> float:
        """One normal draw."""
        if scale < 0:
            raise ValueError("scale must be non-negative")
        return float(self.stream(name).normal(loc, scale))

    def lognormal_jitter(self, name: str, base: float, sigma: float) -> float:
        """Multiplicative log-normal jitter around ``base`` (mean-preserving)."""
        if base < 0:
            raise ValueError("base must be non-negative")
        if sigma == 0.0 or base == 0.0:
            return base
        g = self.stream(name)
        return float(base * g.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))

    def bernoulli(self, name: str, p: float) -> bool:
        """One biased coin flip."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        return bool(self.stream(name).random() < p)

    def bernoulli_count(self, name: str, p: float, trials: int) -> int:
        """Successes among ``trials`` biased coin flips, drawn in one call.

        Consumes the stream exactly like ``trials`` calls of :meth:`bernoulli`:
        ``Generator.random(k)`` yields the doubles of ``k`` scalar draws.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        return int((self.stream(name).random(trials) < p).sum())

    def integers(self, name: str, low: int, high: int) -> int:
        """One integer draw in ``[low, high)``."""
        return int(self.stream(name).integers(low, high))

    def child(self, suffix: str) -> "RandomStreams":
        """A new :class:`RandomStreams` whose master seed is derived from this one."""
        return RandomStreams(self._derive_seed(f"child:{suffix}") % (2**31 - 1))

    def spawn(self, count: int, prefix: str = "replica") -> list["RandomStreams"]:
        """``count`` independent child registries (one per experiment repeat)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.child(f"{prefix}:{i}") for i in range(count)]

    def reset(self, name: Optional[str] = None) -> None:
        """Forget one stream (or all of them), so the next use re-seeds it."""
        if name is None:
            self._streams.clear()
        else:
            self._streams.pop(name, None)
