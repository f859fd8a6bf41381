"""Property tests for the ASURA-style replica placement (repro.replica).

The two properties the replication layer depends on:

- **uniformity**: every ASU receives an equal share of primaries within
  sampling noise (the tentpole bound: ±2% of the mean at fleet sizes of
  64+ ASUs, with enough shards that the binomial noise floor sits below
  the bound);
- **minimal movement**: growing the fleet N -> N+1 relocates ~1/(N+1) of
  shard assignments and never moves a shard between two surviving ASUs
  (every move lands on the new ASU).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.replica import SEGMENT, ReplicaPlacement
from repro.replica.manager import _shard_key
from repro.replica.placement import _MASK, _splitmix64


def scalar_replicas(p: ReplicaPlacement, shard: int, r: int):
    """Reference oracle: the one-draw-at-a-time ASURA loop.

    Returns ``(ranking, draws)`` where ``draws`` is how many ``k`` values
    were consumed to find the ``min(r, n_asus)``-th distinct ASU.
    """
    r = min(r, p.n_asus)
    seed_mix = _splitmix64(p.seed)
    space, limit = p.capacity * SEGMENT, p.n_asus * SEGMENT
    chosen: list[int] = []
    k = 0
    while len(chosen) < r:
        x = _splitmix64(
            (((shard & _MASK) * 0x2545F4914F6CDD1D + k) & _MASK) ^ seed_mix
        ) % space
        k += 1
        if x >= limit:
            continue
        d = x // SEGMENT
        if d not in chosen:
            chosen.append(d)
    return tuple(chosen), k


#: shard ids: negative, beyond 64 bits, and the manager's key layout
_shards = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=1 << 64, max_value=1 << 96),
    st.builds(
        lambda kind, host, seq: kind << 48 | host << 24 | seq,
        st.integers(0, 1),
        st.integers(0, (1 << 24) - 1),
        st.integers(0, (1 << 24) - 1),
    ),
)


@st.composite
def _placements(draw):
    n_asus = draw(st.integers(1, 64))
    capacity = draw(st.integers(n_asus, 2048))
    seed = draw(st.integers(-(1 << 64), 1 << 64))
    r = draw(st.integers(1, n_asus + 2))
    return ReplicaPlacement(n_asus, capacity=capacity, seed=seed), r


class TestDraws:
    def test_scalar_vector_equivalence(self):
        p = ReplicaPlacement(7, capacity=64, seed=11)
        shards = np.arange(512, dtype=np.uint64)
        vec = p.primaries(shards)
        assert [p.primary(int(s)) for s in shards] == vec.tolist()

    def test_deterministic_and_seed_sensitive(self):
        a = ReplicaPlacement(16, seed=1)
        b = ReplicaPlacement(16, seed=1)
        c = ReplicaPlacement(16, seed=2)
        sets_a = [a.replicas(s, 3) for s in range(200)]
        assert sets_a == [b.replicas(s, 3) for s in range(200)]
        assert sets_a != [c.replicas(s, 3) for s in range(200)]

    def test_replicas_ordered_distinct(self):
        p = ReplicaPlacement(8)
        for s in range(100):
            reps = p.replicas(s, 3)
            assert len(reps) == 3
            assert len(set(reps)) == 3
            assert all(0 <= d < 8 for d in reps)
            # rank 0 is the primary; prefixes are consistent across r
            assert p.replicas(s, 1) == reps[:1]
            assert p.replicas(s, 2) == reps[:2]

    def test_r_clamped_to_fleet(self):
        p = ReplicaPlacement(3)
        assert len(p.replicas(0, 5)) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one ASU"):
            ReplicaPlacement(0)
        with pytest.raises(ValueError, match="capacity"):
            ReplicaPlacement(8, capacity=4)
        with pytest.raises(ValueError, match="r >= 1"):
            ReplicaPlacement(8).replicas(0, 0)

    def test_nearby_seeds_decorrelate(self):
        # Regression: the raw seed XORed onto the k-indexed draw input only
        # flips low bits, which merely permutes the draw sequence within
        # small blocks — seeds 0 and 9 then produce near-identical
        # placements.  The seed must be mixed to full width first.
        n_shards = 2000
        shards = np.arange(n_shards, dtype=np.uint64)
        a = ReplicaPlacement(6, seed=0).primaries(shards)
        b = ReplicaPlacement(6, seed=9).primaries(shards)
        agree = (a == b).mean()
        # independent uniform placements agree on ~1/6 of shards
        assert agree < 0.35, f"seeds 0 and 9 agree on {agree:.0%} of shards"

    def test_splitmix64_reference(self):
        # Known-answer test for the underlying mix (splitmix64 of 0 and 1).
        assert _splitmix64(0) == 0xE220A8397B1DCDAF
        assert _splitmix64(1) == 0x910A2DEC89025CC1


class TestBlockedDraws:
    """``replicas`` evaluates draws in NumPy blocks; the result must be the
    scalar loop's, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(_placements(), _shards)
    def test_matches_scalar_oracle(self, placement, shard):
        p, r = placement
        assert p.replicas(shard, r) == scalar_replicas(p, shard, r)[0]

    # Rankings at the chaos-soak configuration (4 ASUs, capacity 1024,
    # seed 0, full r=4 ranking) for manager keys: emitted runs (0, host,
    # seq) and manifest-restored runs (1, rid, 0).
    GOLDEN = {
        (0, 0, 0): (1, 2, 3, 0),
        (0, 0, 1): (3, 1, 0, 2),
        (0, 0, 2): (2, 1, 3, 0),
        (0, 1, 0): (2, 1, 3, 0),
        (0, 1, 1): (1, 3, 0, 2),
        (0, 1, 2): (0, 3, 2, 1),
        (0, 2, 0): (2, 0, 1, 3),
        (0, 2, 1): (1, 2, 0, 3),
        (0, 2, 2): (3, 0, 1, 2),
        (0, 3, 0): (1, 3, 2, 0),
        (0, 3, 1): (3, 2, 1, 0),
        (0, 3, 2): (3, 0, 1, 2),
        (1, 0, 0): (1, 3, 0, 2),
        (1, 1, 0): (3, 2, 1, 0),
        (1, 7, 0): (3, 0, 1, 2),
        (1, 42, 0): (3, 0, 2, 1),
    }

    def test_golden_manager_rankings(self):
        p = ReplicaPlacement(4, capacity=1024, seed=0)
        got = {key: p.replicas(_shard_key(key), 4) for key in self.GOLDEN}
        assert got == self.GOLDEN

    @pytest.mark.parametrize(
        "shard, r, draws",
        # ``draws`` = draws the scalar loop takes.  Blocks end after draw
        # 256, 768, ... for r=1; 1024, 3072, ... for r=2; 2048, ... for r=3.
        [
            (40, 1, 256),  # last draw of the first block
            (17, 1, 257),  # first draw of the second block
            (981, 2, 1024),
            (719, 2, 1025),
            (2384, 2, 3661),  # third block
            (8502, 3, 2048),
            (1747, 3, 2049),
            # Full rankings: the scalar loop draws until the last ASU shows
            # up; the blocked one stops at the N-1-th and appends the rest.
            (36, 4, 1536),
            (_shard_key((0, 0, 14)), 4, 5811),
        ],
    )
    def test_ranking_continues_across_blocks(self, shard, r, draws):
        p = ReplicaPlacement(4, capacity=1024, seed=0)
        # First block per number of ASUs to find; later blocks double.
        assert p._first_block == [64, 256, 1024, 2048, 4096]
        want, used = scalar_replicas(p, shard, r)
        assert used == draws
        assert p.replicas(shard, r) == want

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_every_draw_hits_when_fleet_fills_capacity(self, n):
        p = ReplicaPlacement(n, capacity=n, seed=4)
        for shard in range(40):
            assert scalar_replicas(p, shard, 1)[1] == 1  # draw 0 always hits
            for r in range(1, n + 2):
                assert p.replicas(shard, r) == scalar_replicas(p, shard, r)[0]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, (1 << 24) - 1), st.integers(0, (1 << 24) - 1))
    def test_emit_key_layout(self, host, seq):
        # ReplicationManager.register_emit derives its placement key through
        # _shard_key; the layout is host in bits 24..47, seq in bits 0..23.
        assert _shard_key((0, host, seq)) == (host << 24) | seq


class TestUniformity:
    def test_primaries_uniform_at_64_asus(self):
        # 1.5M shards over 64 ASUs: mean 23437.5/ASU, binomial sigma
        # ~0.65% of the mean, so the ±2% tentpole bound is a 3-sigma test.
        n_asus, n_shards = 64, 1_500_000
        p = ReplicaPlacement(n_asus, capacity=128, seed=5)
        counts = np.bincount(
            p.primaries(np.arange(n_shards, dtype=np.uint64)), minlength=n_asus
        )
        mean = n_shards / n_asus
        dev = np.abs(counts - mean) / mean
        assert dev.max() < 0.02, f"max deviation {dev.max():.4f} >= 2%"

    def test_replica_ranks_uniform(self):
        # Every rank of the replica set inherits uniformity, not just rank 0
        # (looser bound: fewer samples per rank in the scalar path).
        n_asus, n_shards, r = 16, 60_000, 3
        p = ReplicaPlacement(n_asus, capacity=64, seed=9)
        per_rank = np.zeros((r, n_asus), dtype=np.int64)
        for s in range(n_shards):
            for rank, d in enumerate(p.replicas(s, r)):
                per_rank[rank, d] += 1
        mean = n_shards / n_asus
        dev = np.abs(per_rank - mean) / mean
        assert dev.max() < 0.05, f"max rank deviation {dev.max():.4f} >= 5%"


class TestMinimalMovement:
    @pytest.mark.parametrize("n", [4, 63, 64])
    def test_grow_moves_one_over_n(self, n):
        # N -> N+1: expected move fraction is exactly 1/(N+1); allow 3-sigma
        # binomial slack around it.
        n_shards = 200_000
        shards = np.arange(n_shards, dtype=np.uint64)
        before = ReplicaPlacement(n, capacity=128, seed=7).primaries(shards)
        after = ReplicaPlacement(n + 1, capacity=128, seed=7).primaries(shards)
        moved = before != after
        frac = moved.mean()
        expect = 1.0 / (n + 1)
        sigma = np.sqrt(expect * (1 - expect) / n_shards)
        assert abs(frac - expect) < 3 * sigma, (
            f"moved {frac:.4f}, expected {expect:.4f} ± {3 * sigma:.4f}"
        )
        # Every move lands on the *new* ASU: no reshuffling among survivors.
        assert (after[moved] == n).all()

    def test_shrink_reassigns_only_lost_segment(self):
        n, n_shards = 32, 100_000
        shards = np.arange(n_shards, dtype=np.uint64)
        before = ReplicaPlacement(n, capacity=128, seed=3).primaries(shards)
        after = ReplicaPlacement(n - 1, capacity=128, seed=3).primaries(shards)
        moved = before != after
        # Only shards whose primary was the removed ASU move.
        assert (before[moved] == n - 1).all()
        assert moved.sum() == (before == n - 1).sum()

    def test_segment_constant_pins_draw_space(self):
        # The fixed draw space IS the minimal-movement property; changing
        # SEGMENT silently would reshuffle every deployment's placement.
        assert SEGMENT == 1 << 16
