"""ASURA-style deterministic replica placement over the ASU fleet.

Maps a shard id to an *ordered* replica set of ASU indices with the two
properties the replication layer needs (PAPERS.md -> ASURA):

- **uniformity** — each ASU receives an equal share of primaries (and of
  every replica rank), within sampling noise;
- **minimal movement** — growing or shrinking the fleet N -> N±1 relocates
  only ~1/N of shard assignments, because assignments are decided by a
  per-shard *fixed* pseudo-random draw sequence over a fixed value space,
  and resizing only changes which draws land in the assigned region.

The value space is ``[0, capacity * SEGMENT)`` and never changes; ASU ``i``
owns the segment ``[i * SEGMENT, (i + 1) * SEGMENT)``.  With ``N`` ASUs the
assigned region is the prefix ``[0, N * SEGMENT)``.  A shard's draw sequence
``x_0, x_1, ...`` is a pure function of ``(shard, seed, k)`` (splitmix64);
its rank-0 replica is the owner of the first draw landing in the assigned
region.  Because the winning draw is uniform over the assigned region,
placement is uniform by construction; because the sequence is fixed,
growing N -> N+1 relocates a shard only when some draw hits the *newly*
assigned segment before its current winner — probability 1/(N+1).

Replica ranks > 0 continue the same draw sequence, skipping ASUs already
chosen, so the replica set is ordered, distinct, and inherits both
properties per rank.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ReplicaPlacement", "SEGMENT"]

#: width of each ASU's segment in the draw space.  The expected number of
#: draws to land a shard is capacity / N, so the constant trades placement
#: cost at small fleets against the maximum supported fleet size.
SEGMENT = 1 << 16

_MASK = (1 << 64) - 1
#: multiplier spreading the shard id over the draw input (``k`` is added)
_SHARD_MULT = 0x2545F4914F6CDD1D
_SEGMENT_U64 = np.uint64(SEGMENT)


def _splitmix64(x: int) -> int:
    """One splitmix64 output for integer input ``x`` (stateless, exact)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_splitmix64` of a uint64 array, in place.

    uint64 array arithmetic wraps modulo 2**64, which is exactly the
    ``& _MASK`` of the scalar version.
    """
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class ReplicaPlacement:
    """Deterministic shard -> ordered replica-set mapping over ``n_asus``.

    ``capacity`` bounds the fleet size the draw space supports (the space is
    fixed at ``capacity * SEGMENT`` values so it never changes on resize —
    that fixedness IS the minimal-movement property).  ``seed`` decorrelates
    independent placements (e.g. two jobs on one fleet).
    """

    def __init__(self, n_asus: int, capacity: int = 1024, seed: int = 0):
        if n_asus < 1:
            raise ValueError(f"need at least one ASU, got {n_asus}")
        if capacity < n_asus:
            raise ValueError(
                f"placement capacity {capacity} < fleet size {n_asus}"
            )
        self.n_asus = int(n_asus)
        self.capacity = int(capacity)
        self.seed = int(seed)
        # Full-width mix of the seed.  XORing the raw seed onto the
        # k-indexed input would only flip its low bits, which merely
        # *permutes* the draw sequence within small k-blocks — placements
        # under nearby seeds would be almost identical.  A mixed constant
        # perturbs the high bits, so distinct seeds give unrelated streams.
        self._seed_mix = _splitmix64(self.seed)
        self._seed_u64 = np.uint64(self._seed_mix)
        self._space_u64 = np.uint64(self.capacity * SEGMENT)
        self._limit_u64 = np.uint64(self.n_asus * SEGMENT)
        # First block of draws in replicas() when it must find ``need``
        # ASUs: the expected draw count capacity * sum_{i<need} 1/(N - i),
        # rounded up to a power of two, at least 64.
        self._first_block = [64]
        expect = 0.0
        for i in range(self.n_asus):
            expect += self.capacity / (self.n_asus - i)
            self._first_block.append(max(64, 1 << (math.ceil(expect) - 1).bit_length()))

    def replicas(self, shard: int, r: int) -> tuple[int, ...]:
        """Ordered replica set of ``min(r, n_asus)`` distinct ASU indices.

        Walks the draw sequence ``k = 0, 1, ...`` in NumPy blocks (each twice
        the previous one), keeping each ASU the first time one of its draws
        lands in the assigned region, until ``r`` distinct ASUs are found.
        """
        if r < 1:
            raise ValueError(f"need r >= 1, got {r}")
        r = min(r, self.n_asus)
        # Ranking the whole fleet: the last ASU is the one not yet chosen,
        # wherever its first draw falls, so it need not be drawn.
        need = r - 1 if r == self.n_asus else r
        base = np.uint64(((int(shard) & _MASK) * _SHARD_MULT) & _MASK)
        chosen: list[int] = []
        k, block = 0, self._first_block[need]
        while len(chosen) < need:
            x = np.arange(k, k + block, dtype=np.uint64)
            x += base
            x ^= self._seed_u64
            x = _splitmix64_array(x) % self._space_u64
            for d in (x[x < self._limit_u64] // _SEGMENT_U64).tolist():
                if d not in chosen:
                    chosen.append(d)
                    if len(chosen) == need:
                        break
            k += block
            block *= 2
        if need < r:
            chosen.append(self.n_asus * (self.n_asus - 1) // 2 - sum(chosen))
        return tuple(chosen)

    def primary(self, shard: int) -> int:
        return self.replicas(shard, 1)[0]

    # -- vectorised primaries (property tests sweep millions of shards) -----
    def primaries(self, shards: np.ndarray) -> np.ndarray:
        """Rank-0 replica for each shard id in ``shards`` (vectorised)."""
        shards = np.asarray(shards, dtype=np.uint64)
        out = np.full(shards.shape, -1, dtype=np.int64)
        pending = np.arange(shards.size, dtype=np.int64)
        k = 0
        while pending.size:
            x = shards[pending] * np.uint64(_SHARD_MULT)
            x += np.uint64(k)
            x ^= self._seed_u64
            x = _splitmix64_array(x) % self._space_u64
            hit = x < self._limit_u64
            out[pending[hit]] = (x[hit] // _SEGMENT_U64).astype(np.int64)
            pending = pending[~hit]
            k += 1
        return out

    def __repr__(self) -> str:
        return (
            f"<ReplicaPlacement n={self.n_asus} capacity={self.capacity} "
            f"seed={self.seed}>"
        )
