"""Deterministic random-stream management.

Simulations in this project must be exactly reproducible from a single root
seed, and must remain reproducible when components are added or reordered.
To achieve that, every component derives its own independent ``RandomSource``
from the root seed plus a stable string key (e.g. ``"failures/node-17"``),
instead of sharing one global generator whose consumption order would couple
unrelated components.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")

_MASK_64 = (1 << 64) - 1


def _hash_path(root_seed: int, path: Sequence[object]) -> "hashlib._Hash":
    """The SHA-256 state covering ``root_seed`` plus every path key."""
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode("utf-8"))
    for key in path:
        h.update(b"\x1f")
        h.update(str(key).encode("utf-8"))
    return h


def derive_seed(root_seed: int, *keys: object) -> int:
    """Derive a stable 64-bit seed from a root seed and a key path.

    The derivation hashes the textual representation of the key path with
    SHA-256, so it is stable across Python versions and process runs (unlike
    ``hash()``, which is salted).
    """
    h = _hash_path(root_seed, keys)
    return int.from_bytes(h.digest()[:8], "big") & _MASK_64


class RandomSource:
    """A seeded random stream with named sub-stream derivation.

    Wraps :class:`random.Random` and adds :meth:`substream`, which returns a
    new independent ``RandomSource`` keyed by a string path. Two substreams
    with different keys never share state, so adding a consumer of one stream
    cannot perturb another.
    """

    def __init__(
        self,
        seed: int,
        _path: Sequence[object] = (),
        *,
        _hash: Optional["hashlib._Hash"] = None,
    ) -> None:
        self._seed = int(seed)
        self._path: tuple = tuple(_path)
        if _hash is None:
            _hash = _hash_path(self._seed, self._path)
        #: SHA-256 state covering (seed, path); kept so substream derivation
        #: copies it and hashes only the new trailing keys instead of
        #: re-hashing the whole path.
        self._h: "hashlib._Hash" = _hash
        self._random = random.Random(int.from_bytes(_hash.digest()[:8], "big") & _MASK_64)

    @property
    def seed(self) -> int:
        """The root seed this source was derived from."""
        return self._seed

    @property
    def path(self) -> tuple:
        """The key path identifying this substream."""
        return self._path

    def substream(self, *keys: object) -> "RandomSource":
        """Return an independent stream keyed by ``keys`` under this path.

        Derivation is incremental: the parent's hash state is copied and
        only the new keys are hashed, which is what keeps per-node stream
        construction cheap at 226k hosts. The digest — and therefore every
        sampled value — is bit-identical to a from-scratch derivation.
        """
        h = self._h.copy()
        for key in keys:
            h.update(b"\x1f")
            h.update(str(key).encode("utf-8"))
        return RandomSource(self._seed, self._path + tuple(keys), _hash=h)

    # -- sampling primitives -------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    @property
    def raw_random(self) -> Callable[[], float]:
        """The bound uniform sampler, for hot rejection loops.

        Calling it consumes this stream exactly like :meth:`random`; it
        exists so vectorized samplers with data-dependent draw counts
        (e.g. normal rejection sampling) can skip per-draw wrapper
        overhead without over-drawing the stream.
        """
        return self._random.random

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randrange(self, stop: int) -> int:
        """Uniform integer in [0, stop)."""
        return self._random.randrange(stop)

    def expovariate(self, rate: float) -> float:
        """Exponential sample with the given rate (1/mean)."""
        return self._random.expovariate(rate)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        """Lognormal sample with underlying normal parameters (mu, sigma)."""
        return self._random.lognormvariate(mu, sigma)

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        """Sample ``k`` distinct elements."""
        return self._random.sample(population, k)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self._seed}, path={self._path!r})"
