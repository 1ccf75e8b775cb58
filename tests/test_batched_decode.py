"""Certification suite for the cross-shot batched decode engine.

The contract: :func:`batched_cut_parities` / :func:`batched_decode` are
*bit-identical* to the per-shot ``greedy_cut_parity`` /
``greedy_decode_fast`` on every input (inputs outside the integer
engine's envelope run through the per-shot core, so the equality is
unconditional), and the kernels' ``decode="batched"`` campaigns equal
their ``decode="pershot"`` runs shot for shot.
"""

import numpy as np
import pytest

import repro.decoding.batched as batched_mod
from repro.decoding import (
    DistanceModel,
    ScratchArena,
    SyndromeLattice,
    batched_cut_parities,
    batched_decode,
    greedy_cut_parity,
    greedy_decode_fast,
)
from repro import campaigns
from repro.campaigns import InlineExecutor, MemorySpec, ProcessPoolExecutor
from repro.campaigns.runner import shot_engine
from repro.noise import AnomalousRegion, PhenomenologicalNoise
from repro.scenarios.model import Scenario, StrikeEvent
from repro.sim import bitops
from repro.sim.batch import (
    EndToEndShotKernel,
    MatchingCache,
    MemoryShotKernel,
    chunk_plan,
)


def _random_nodes(rng, d, n):
    return np.column_stack([
        rng.integers(0, d + 1, n), rng.integers(0, d - 1, n),
        rng.integers(0, d, n)])


def _random_model(rng, d):
    region = None if rng.random() < 0.4 else AnomalousRegion(
        int(rng.integers(0, max(1, d - 2))),
        int(rng.integers(0, max(1, d - 1))),
        int(rng.integers(1, 5)), t_lo=int(rng.integers(0, 8)),
        t_hi=None if rng.random() < 0.5 else int(rng.integers(8, 100_000)))
    w_ano = 0.0 if rng.random() < 0.7 else float(rng.random())
    return DistanceModel(d, region, w_ano)


class TestBatchedEquivalence:
    """The engine equals the per-shot core bit for bit."""

    def _assert_chunk(self, model, nodes_list, arena):
        ref = np.array([greedy_cut_parity(model, x) for x in nodes_list],
                       dtype=np.int8)
        got = batched_cut_parities(model, nodes_list, arena=arena)
        assert np.array_equal(ref, got)
        full = batched_decode(model, nodes_list, arena=arena)
        for nodes, res in zip(nodes_list, full, strict=True):
            exp = greedy_decode_fast(model, nodes)
            assert exp.matches == res.matches
            assert exp.weight == pytest.approx(res.weight, abs=1e-12)

    def test_property_sweep(self):
        """Random node sets, region on/off, w_ano zero and nonzero,
        empty shots, duplicates — chunk sizes not divisible by any
        bucket size."""
        rng = np.random.default_rng(20260728)
        arena = ScratchArena()
        for _ in range(60):
            d = int(rng.integers(3, 15))
            model = _random_model(rng, d)
            nodes_list = [_random_nodes(rng, d, int(n))
                          for n in rng.integers(0, 25, int(rng.integers(0, 40)))]
            self._assert_chunk(model, nodes_list, arena)

    def test_acceptance_paths_agree(self):
        """Vectorized rounds, the sequential tail scan and the hybrid
        all produce the identical matching."""
        rng = np.random.default_rng(7)
        arena = ScratchArena()
        d = 9
        model = DistanceModel(d, AnomalousRegion.centered(d, 3), 0.0)
        nodes_list = [_random_nodes(rng, d, int(n))
                      for n in rng.integers(0, 25, 30)]
        default = batched_mod._SCAN_TAIL
        try:
            outs = []
            for tail in (0, default, 10**9):
                batched_mod._SCAN_TAIL = tail
                outs.append(batched_cut_parities(model, nodes_list,
                                                 arena=arena))
            assert np.array_equal(outs[0], outs[1])
            assert np.array_equal(outs[0], outs[2])
            ref = np.array([greedy_cut_parity(model, x)
                            for x in nodes_list], dtype=np.int8)
            assert np.array_equal(outs[0], ref)
        finally:
            batched_mod._SCAN_TAIL = default

    def test_negative_coordinates_fall_back_exactly(self):
        model = DistanceModel(7)
        nodes = np.array([[-1, 2, 3], [0, 1, 1], [2, 3, 3]])
        got = batched_cut_parities(model, [nodes])
        assert got[0] == greedy_cut_parity(model, nodes)

    def test_huge_explicit_t_hi_stays_exact(self):
        model = DistanceModel(9, AnomalousRegion(1, 1, 3, t_hi=100_000), 0.0)
        nodes = np.array([[0, 0, 0], [0, 7, 8], [5, 3, 3], [5, 4, 3]])
        assert batched_cut_parities(model, [nodes])[0] == \
            greedy_cut_parity(model, nodes)
        res = batched_decode(model, [nodes])[0]
        assert res.matches == greedy_decode_fast(model, nodes).matches

    def test_region_window_after_run_end(self):
        """t_lo beyond every node's time: the box collapses onto the
        shot's last layer (the per-shot open-window semantics)."""
        model = DistanceModel(6, AnomalousRegion(1, 4, 3, t_lo=2), 0.0)
        nodes = np.array([[0, 3, 4]])
        assert batched_cut_parities(model, [nodes])[0] == \
            greedy_cut_parity(model, nodes)

    def test_wide_distance_uses_sorted_levels(self):
        """d > 64 exercises the argsort level path."""
        rng = np.random.default_rng(3)
        d = 80
        model = _random_model(rng, d)
        nodes_list = [_random_nodes(rng, d, int(n))
                      for n in rng.integers(0, 20, 12)]
        ref = np.array([greedy_cut_parity(model, x) for x in nodes_list],
                       dtype=np.int8)
        assert np.array_equal(
            ref, batched_cut_parities(model, nodes_list))

    def test_empty_chunk_and_empty_shots(self):
        model = DistanceModel(5)
        assert len(batched_cut_parities(model, [])) == 0
        out = batched_cut_parities(
            model, [np.zeros((0, 3), dtype=np.int64)])
        assert out[0] == 0
        res = batched_decode(model, [np.zeros((0, 3), dtype=np.int64)])[0]
        assert res.matches == []

    def test_high_density_cluster(self):
        """A p_ano = 0.5 box cluster (the Fig. 8 hot regime)."""
        d = 9
        region = AnomalousRegion.centered(d, 4)
        noise = PhenomenologicalNoise(d, 2.5e-2, 0.5, region)
        lattice = SyndromeLattice(d)
        v, h, m = noise.sample_batch(70, d, np.random.default_rng(5))
        nodes_list = lattice.detection_events_batch(v, h, m)
        for model in (DistanceModel(d), DistanceModel(d, region, 0.0)):
            ref = np.array([greedy_cut_parity(model, x)
                            for x in nodes_list], dtype=np.int8)
            assert np.array_equal(
                ref, batched_cut_parities(model, nodes_list))


class TestScratchArena:
    def test_buffers_reused_across_chunks(self):
        arena = ScratchArena()
        a = arena.take("x", 100, np.int8)
        b = arena.take("x", 64, np.int8)
        assert a.base is b.base  # same backing buffer, sliced
        c = arena.take("x", 1000, np.int8)
        assert c.base is not a.base  # grew
        assert arena.take("x", 500, np.int8).base is c.base

    def test_dtype_keys_are_distinct(self):
        arena = ScratchArena()
        a = arena.take("x", 10, np.int8)
        b = arena.take("x", 10, np.int16)
        assert a.dtype != b.dtype
        assert len(arena) == 2
        assert arena.nbytes >= 30

    def test_engine_reuses_arena_buffers(self):
        rng = np.random.default_rng(0)
        arena = ScratchArena()
        model = DistanceModel(9)
        nodes_list = [_random_nodes(rng, 9, 12) for _ in range(20)]
        batched_cut_parities(model, nodes_list, arena=arena)
        held = arena.nbytes
        batched_cut_parities(model, nodes_list, arena=arena)
        assert arena.nbytes == held  # steady state allocates nothing new


class TestBulkShotNodes:
    @pytest.mark.parametrize("shots", [1, 37, 64, 130])
    def test_bulk_equals_per_shot(self, shots):
        noise = PhenomenologicalNoise(5, 0.05, 0.5,
                                      AnomalousRegion.centered(5, 2))
        lattice = SyndromeLattice(5)
        v, h, m = noise.sample_batch_packed(shots, 5,
                                            np.random.default_rng(2))
        coords, vals, bounds = lattice.detection_events_packed(v, h, m)
        nodes, offsets = lattice.shot_nodes_bulk(coords, vals, shots)
        assert offsets[0] == 0 and offsets[-1] == len(nodes)
        for s in range(shots):
            assert np.array_equal(
                nodes[offsets[s]:offsets[s + 1]],
                lattice.shot_nodes(coords, vals, bounds, s)), s

    def test_empty_stream(self):
        lattice = SyndromeLattice(3)
        coords = np.zeros((0, 4), dtype=np.int64)
        vals = np.zeros(0, dtype=np.uint64)
        nodes, offsets = lattice.shot_nodes_bulk(coords, vals, 5)
        assert nodes.shape == (0, 3)
        assert np.array_equal(offsets, np.zeros(6, dtype=np.int64))


class TestKernelDecodeModes:
    """decode="batched" campaigns equal decode="pershot" bit for bit."""

    REGIONS = [None, AnomalousRegion(0, 0, 2, t_lo=1, t_hi=3),
               AnomalousRegion(1, 1, 2, t_lo=2)]

    @pytest.mark.parametrize("shots", [37, 130])
    def test_memory_kernel_modes(self, shots):
        for region in self.REGIONS:
            for informed in (False, True):
                outs = {}
                for mode in ("pershot", "batched"):
                    kernel, _, _ = shot_engine(MemorySpec(
                        distance=5, p=0.04, samples=shots, region=region,
                        informed=informed, decode=mode))
                    kernel.prepare()
                    outs[mode] = kernel.run_batch_packed(
                        shots, np.random.default_rng(7))
                assert np.array_equal(outs["pershot"], outs["batched"]), \
                    (shots, region, informed)

    def test_memory_kernel_float_path_matches(self):
        kernel, _, _ = shot_engine(MemorySpec(
            distance=5, p=0.04, samples=70, region="centered",
            anomaly_size=2, informed=True))
        kernel.prepare()
        a = kernel.run_batch(70, np.random.default_rng(3))
        b = kernel.run_batch_packed(70, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_rejects_unknown_decode_mode(self):
        with pytest.raises(ValueError):
            MemoryShotKernel(5, 0.04, decode="magic")
        with pytest.raises(ValueError):
            EndToEndShotKernel(
                5, 0.01, Scenario(events=(StrikeEvent(onset=10, size=2),)),
                cycles=30, c_win=10, n_th=3, alpha=0.01, decode="magic")

    @pytest.mark.parametrize("distance", [3, 5])
    def test_endtoend_kernel_modes(self, distance):
        outs = {}
        for mode in ("pershot", "batched"):
            strike = StrikeEvent(onset=30, size=2, p_ano=0.5)
            kernel = EndToEndShotKernel(distance, 0.01,
                                        Scenario(events=(strike,)),
                                        cycles=70, c_win=25, n_th=3,
                                        alpha=0.01, decode=mode)
            kernel.prepare()
            outs[mode] = kernel.run_batch_packed(
                37, np.random.default_rng(3))
        assert np.array_equal(outs["pershot"], outs["batched"])

    def test_runner_campaign_bit_equal_across_modes(self):
        fails = {}
        for mode in ("pershot", "batched"):
            kernel, _, _ = shot_engine(MemorySpec(
                distance=7, p=2.5e-2, samples=200, region="centered",
                anomaly_size=3, informed=True, decode=mode))
            fails[mode] = np.concatenate([
                outcome for outcome, _ in InlineExecutor().run_chunks(
                    kernel, "bits", chunk_plan(200, 48, 19))])
        assert np.array_equal(fails["pershot"], fails["batched"])


class TestLRUMatchingCache:
    def test_lru_eviction_order(self):
        cache = MatchingCache(max_entries=2)
        cache.put(b"a", 0)
        cache.put(b"b", 1)
        assert cache.get(b"a") == 0  # refreshes "a"
        cache.put(b"c", 1)  # evicts "b", the least recently used
        assert cache.get(b"b") is None
        assert cache.get(b"a") == 0
        assert cache.get(b"c") == 1
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_stats_counting(self):
        cache = MatchingCache()
        nodes = np.array([[0, 1, 2], [1, 1, 3]])
        assert cache.parity(nodes, lambda n: 1) == 1
        assert cache.parity(nodes, lambda n: 1) == 1
        assert cache.stats() == (1, 1, 0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MatchingCache(max_entries=0)

    def test_batched_path_hit_accounting_matches_sequential(self):
        """The batched chunk dedup counts hits exactly like the
        sequential per-shot lookups would (below the LRU capacity;
        saturated caches may evict in a different order)."""
        rng = np.random.default_rng(4)
        model = DistanceModel(5)
        pool = [_random_nodes(rng, 5, int(rng.integers(1, 5)))
                for _ in range(6)]
        nodes_list = [pool[int(rng.integers(0, len(pool)))]
                      for _ in range(40)]
        seq_cache = MatchingCache()
        seq = np.array(
            [seq_cache.parity(x, lambda n: greedy_cut_parity(model, n))
             for x in nodes_list], dtype=np.int8)
        bat_cache = MatchingCache()
        bat = batched_cut_parities(model, nodes_list, cache=bat_cache)
        assert np.array_equal(seq, bat)
        assert bat_cache.stats() == seq_cache.stats()

    def test_runner_surfaces_misses_and_evictions(self):
        spec = MemorySpec(distance=5, p=0.005, samples=2000, seed=3)
        counts = campaigns.run(
            spec, executor=InlineExecutor(whole_request=False)).counts
        assert counts["cache_hits"] > 0
        assert counts["cache_misses"] > 0
        assert counts["cache_evictions"] == 0  # far below capacity

    def test_pool_merges_cache_stats(self):
        spec = MemorySpec(distance=5, p=0.005, samples=2000, seed=3,
                          batch_size=500)
        counts = campaigns.run(spec,
                               executor=ProcessPoolExecutor(2)).counts
        assert counts["cache_hits"] > 0
        assert counts["cache_misses"] > 0

    def test_bounded_campaign_stays_exact(self):
        """A tiny LRU capacity must never change outcomes."""
        kernel_small = MemoryShotKernel(5, 0.01)
        kernel_small.prepare()
        kernel_small.cache = MatchingCache(max_entries=4)
        kernel_off = MemoryShotKernel(5, 0.01, cache_matchings=False)
        kernel_off.prepare()
        a = kernel_small.run_batch_packed(300, np.random.default_rng(9))
        b = kernel_off.run_batch_packed(300, np.random.default_rng(9))
        assert np.array_equal(a, b)
        assert kernel_small.cache.evictions > 0


class TestBackendSeam:
    """The SWAR popcount behind :func:`repro.sim.bitops.popcount` on
    NumPy < 2 agrees with the fast path."""

    def test_generic_popcount_matches_fast_path(self):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 2**63, 257, dtype=np.uint64)
        assert np.array_equal(bitops._popcount_generic(words),
                              bitops.popcount(words))
