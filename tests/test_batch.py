"""Tests for the batched shot engine (repro.sim.batch)."""

import numpy as np
import pytest

from repro.decoding import (
    DistanceModel,
    GreedyDecoder,
    FastGreedyDecoder,
    MultiRegionDistanceModel,
    SyndromeLattice,
    greedy_cut_parity,
    greedy_decode_fast,
)
from repro.decoding.batched import batched_region_cut_parities
from repro.decoding import greedy
from repro.decoding.greedy import _reach, _sparse_pairs, _vias
from repro.decoding.weights import relative_anomalous_weight
from repro import campaigns
from repro.campaigns import (EndToEndSpec, InlineExecutor, MemorySpec,
                             ProcessPoolExecutor, SpecError,
                             default_executor)
from repro.campaigns.runner import shot_engine
from repro.noise import AnomalousRegion, PhenomenologicalNoise
from repro.scenarios.model import Scenario, StrikeEvent
from repro.sim import bitops
from repro.sim.batch import (
    DetectionShotKernel,
    MatchingCache,
    MemoryShotKernel,
    chunk_plan,
)
from repro.sim.detection import run_detection_trials
from repro.sim.endtoend import EndToEndExperiment
from repro.sim.memory import MemoryExperiment

from reference_engines import (reference_detection_trials,
                               reference_endtoend_run)


def _run_kernel(kernel, shots, batch_size=None, seed=None, packing="bits",
                executor=None):
    """A hand-built kernel over its chunk plan: ``(outcomes, cache stats)``.

    The executor seam the campaign layer drives (inline by default),
    fed the plan straight from :func:`chunk_plan`.
    """
    executor = executor if executor is not None else InlineExecutor()
    if batch_size is None:
        batch_size = kernel.default_batch_size
    outcomes, stats = [], np.zeros(3, dtype=np.int64)
    for outcome, delta in executor.run_chunks(
            kernel, packing, chunk_plan(shots, batch_size, seed)):
        outcomes.append(outcome)
        stats += delta
    return np.concatenate(outcomes), tuple(int(s) for s in stats)


#: The in-process executor with the kernel's fan-out chunk size as the
#: unset-``batch_size`` default.
CHUNKED = InlineExecutor(whole_request=False)


class TestBatchedPrimitives:
    """sample_batch / batched lattice extraction agree with the
    per-shot primitives they replace."""

    def test_sample_batch_shapes(self, rng):
        noise = PhenomenologicalNoise(5, 0.05)
        v, h, m = noise.sample_batch(7, 3, rng)
        assert v.shape == (7, 3, 5, 5)
        assert h.shape == (7, 3, 4, 4)
        assert m.shape == (7, 3, 4, 5)

    def test_sample_batch_rejects_zero_shots(self, rng):
        with pytest.raises(ValueError):
            PhenomenologicalNoise(5, 0.05).sample_batch(0, 3, rng)

    def test_single_shot_bitwise_matches_sample(self):
        """sample() draws the same uniforms as a one-shot batch."""
        region = AnomalousRegion(1, 1, 2, t_lo=1)
        noise = PhenomenologicalNoise(5, 0.05, 0.5, region)
        v1, h1, m1 = noise.sample(4, np.random.default_rng(3))
        vb, hb, mb = noise.sample_batch(1, 4, np.random.default_rng(3))
        assert np.array_equal(v1, vb[0])
        assert np.array_equal(h1, hb[0])
        assert np.array_equal(m1, mb[0])

    def test_detection_events_batch_matches_per_shot(self, rng):
        noise = PhenomenologicalNoise(7, 0.03, 0.5,
                                      AnomalousRegion.centered(7, 2))
        lattice = SyndromeLattice(7)
        v, h, m = noise.sample_batch(9, 7, rng)
        batched = lattice.detection_events_batch(v, h, m)
        assert len(batched) == 9
        for s in range(9):
            single = lattice.detection_events(v[s], h[s], m[s])
            assert np.array_equal(batched[s], single)

    def test_error_cut_parity_batched(self, rng):
        v = rng.random((6, 4, 5, 5)) < 0.2
        batched = SyndromeLattice.error_cut_parity(v)
        assert batched.shape == (6,)
        for s in range(6):
            single = SyndromeLattice.error_cut_parity(v[s])
            assert isinstance(single, int)
            assert batched[s] == single

    def test_per_cycle_activity_batched(self, rng):
        noise = PhenomenologicalNoise(5, 0.05)
        lattice = SyndromeLattice(5)
        v, h, m = noise.sample_batch(4, 6, rng)
        batched = lattice.per_cycle_activity(v, h, m)
        for s in range(4):
            assert np.array_equal(
                batched[s], lattice.per_cycle_activity(v[s], h[s], m[s]))


class TestFastGreedyEquivalence:
    """The batch engine's matching core is exactly the legacy decoder."""

    @staticmethod
    def _models(rng, d):
        yield DistanceModel(d)
        yield DistanceModel(
            d, AnomalousRegion(int(rng.integers(0, 3)),
                               int(rng.integers(0, 3)),
                               int(rng.integers(1, 5)),
                               t_lo=int(rng.integers(0, 3))), 0.0)
        yield DistanceModel(d, AnomalousRegion(1, 1, 3),
                            float(rng.random()))

    def test_fast_matches_legacy_exactly(self, rng):
        for _ in range(40):
            d = int(rng.integers(5, 12))
            n = int(rng.integers(0, 70))
            nodes = np.column_stack([
                rng.integers(0, d + 1, n), rng.integers(0, d - 1, n),
                rng.integers(0, d, n)])
            for model in self._models(rng, d):
                legacy = GreedyDecoder(model).decode(nodes)
                fast = greedy_decode_fast(model, nodes)
                assert legacy.matches == fast.matches
                assert legacy.weight == pytest.approx(fast.weight)
                assert (greedy_cut_parity(model, nodes)
                        == legacy.correction_cut_parity)

    def test_fast_decoder_class_wraps_core(self, rng):
        model = DistanceModel(9)
        nodes = np.column_stack([
            rng.integers(0, 9, 20), rng.integers(0, 8, 20),
            rng.integers(0, 9, 20)])
        assert (FastGreedyDecoder(model).decode(nodes).matches
                == GreedyDecoder(model).decode(nodes).matches)

    def test_pairwise_fast_is_float_exact(self, rng):
        for _ in range(30):
            d = int(rng.integers(5, 12))
            n = int(rng.integers(1, 40))
            nodes = np.column_stack([
                rng.integers(0, d + 1, n), rng.integers(0, d - 1, n),
                rng.integers(0, d, n)])
            for model in self._models(rng, d):
                assert np.array_equal(model.pairwise(nodes),
                                      model.pairwise_fast(nodes))

    def test_pairwise_int_declines_weighted_region(self):
        model = DistanceModel(9, AnomalousRegion(1, 1, 3), 0.4)
        assert model.pairwise_int(np.array([[0, 1, 2]])) is None

    def test_huge_explicit_t_hi_stays_exact(self):
        """Regression: an int16 cast of far-future box bounds used to
        wrap and corrupt every fast-path distance."""
        model = DistanceModel(9, AnomalousRegion(1, 1, 3, t_hi=100_000), 0.0)
        nodes = np.array([[0, 0, 0], [0, 7, 8], [5, 3, 3], [5, 4, 3]])
        assert np.array_equal(model.pairwise(nodes),
                              model.pairwise_fast(nodes))
        assert (GreedyDecoder(model).decode(nodes).matches
                == greedy_decode_fast(model, nodes).matches)

    def test_overwrite_anomalous_honors_time_bounds(self):
        from repro.sim.batch import _overwrite_anomalous
        region = AnomalousRegion(1, 1, 2, t_lo=2, t_hi=4)
        v = np.zeros((1, 8, 5, 5), dtype=bool)
        h = np.zeros((1, 8, 4, 4), dtype=bool)
        m = np.zeros((1, 8, 4, 5), dtype=bool)
        _overwrite_anomalous(v, h, m, 0, region, 5, 1.0,
                             np.random.default_rng(0))
        assert v[0, 2:4].any() and m[0, 2:4].any()
        for arr in (v, h, m):
            assert not arr[0, :2].any()
            assert not arr[0, 4:].any()


class TestSparseFloatCore:
    """The sparse float core equals the dense, unpruned
    :class:`GreedyDecoder` where its locality bound actually prunes:
    time spans of many boundary distances, every weight regime, and
    the awkward boxes (open/closed/overhanging/not yet started)."""

    @staticmethod
    def _assert_oracle(model, nodes):
        bdist, _ = model.boundary(nodes)
        if model.pairwise_int(nodes) is None:  # the sparse path runs
            dist = model.pairwise(nodes)
            keep = np.triu(dist <= np.minimum.outer(bdist, bdist), 1)
            iu, ju, pair_d = _sparse_pairs(model, nodes, bdist)
            assert np.array_equal(np.stack(np.nonzero(keep)),
                                  np.stack([iu, ju]))
            assert np.array_equal(dist[keep], pair_d)
            # The radius bound itself: every kept pair is within reach
            # of both of its ends.
            pts = np.asarray(nodes, dtype=float)
            reach = _reach(pts[:, 0], bdist, _vias(model, pts))
            dt = np.abs(pts[iu, 0] - pts[ju, 0])
            assert np.all(dt <= np.minimum(reach[iu], reach[ju]))
        ref = GreedyDecoder(model).decode(nodes)
        got = greedy_decode_fast(model, nodes)
        assert got.matches == ref.matches
        assert got.weight == ref.weight
        assert greedy_cut_parity(model, nodes) == ref.correction_cut_parity

    @staticmethod
    def _nodes(rng, d, n, span, jitter=False, dups=False):
        nodes = np.column_stack([
            rng.integers(0, span, n), rng.integers(0, d - 1, n),
            rng.integers(0, d, n)])
        if dups:  # repeat ~10% of the coordinates, shuffled in
            nodes = rng.permutation(np.vstack(
                [nodes, nodes[rng.integers(0, n, n // 10)]]))
        if jitter:
            nodes = nodes + rng.random(nodes.shape).round(2)
        return nodes

    @staticmethod
    def _regions(d, span, t0=0):
        return [
            AnomalousRegion(1, 1, 3, t_lo=t0 + span // 3),          # open
            AnomalousRegion(2, 1, 4, t_lo=t0 + span // 4,
                            t_hi=t0 + span // 4 + 3 * d),           # closed
            AnomalousRegion(d - 2, d - 2, 4, t_lo=t0 + span // 2),  # overhang
            AnomalousRegion(1, 2, 3, t_lo=t0 + span + 5),  # t_max < t_lo
        ]

    @pytest.mark.parametrize("t0", [0, 1000, 10 ** 6])
    @pytest.mark.parametrize("w_ano", [1e-12, 1e-3, 0.18, 1.0, 1.5, 7.0])
    def test_reach_sweep(self, w_ano, t0):
        """The per-node reach holds for every weight regime (tiny, below,
        at and above 1), with and without decimal-tenths jitter, at time
        offsets where ``t + reach`` rounds, for the awkward boxes and for
        a multi-region model with a ``w = 0`` box beside the weighted
        one."""
        rng = np.random.default_rng(int(w_ano * 1e3) + t0)
        d, span = 7, 80
        regions = self._regions(d, span, t0)
        models = [DistanceModel(d, reg, w_ano) for reg in regions]
        models.append(MultiRegionDistanceModel(
            d, [regions[0], regions[1]], [0.0, w_ano]))
        for model in models:
            for jitter in (False, True):
                nodes = self._nodes(rng, d, 250, span).astype(float)
                nodes[:, 0] += t0
                if jitter:  # tenths are inexact in binary
                    nodes = nodes + rng.integers(0, 10, nodes.shape) / 10.0
                self._assert_oracle(model, nodes)

    @pytest.mark.parametrize("w_ano", [1e-3, 0.18, 0.7, 1.5])
    def test_long_spans_match_dense_oracle(self, w_ano):
        rng = np.random.default_rng(int(w_ano * 1000))
        for k, n in enumerate((120, 400, 1000)):
            d = (5, 7, 9)[k]
            span = 12 * d
            for region in self._regions(d, span):
                model = DistanceModel(d, region, w_ano)
                nodes = self._nodes(rng, d, n, span, dups=k == 1)
                bdist, _ = model.boundary(nodes)
                assert np.ptp(nodes[:, 0]) >= 10 * bdist.max()
                self._assert_oracle(model, nodes)

    @pytest.mark.parametrize("w_ano", [1e-3, 0.18, 0.7, 1.5])
    def test_non_integer_and_duplicate_coordinates(self, w_ano):
        rng = np.random.default_rng(7)
        d, span = 7, 90
        for region in self._regions(d, span) + [None]:
            model = DistanceModel(d, region, w_ano if region else 0.0)
            self._assert_oracle(
                model, self._nodes(rng, d, 300, span, jitter=True))
            self._assert_oracle(
                model, self._nodes(rng, d, 300, span, jitter=True,
                                   dups=True))

    @pytest.mark.parametrize("w_ano", [1e-3, 0.18, 0.7, 1.5])
    def test_overlapping_multi_region_boxes(self, w_ano):
        rng = np.random.default_rng(3)
        d, span = 9, 110
        model = MultiRegionDistanceModel(d, [
            AnomalousRegion(1, 1, 4, t_lo=20),
            AnomalousRegion(2, 3, 4, t_lo=30, t_hi=80),
            AnomalousRegion(2, 3, 4, t_lo=30, t_hi=80),
        ], [w_ano, 0.18, w_ano])
        for dups in (False, True):
            self._assert_oracle(model, self._nodes(rng, d, 600, span,
                                                   dups=dups))

    @pytest.mark.parametrize("region, w_ano, nodes", [
        # w = 1/11 rounds the in-box reach b / w to just under 24.
        (AnomalousRegion(1, 1, 5), 1 / 11, [[6, 3, 3], [30, 3, 3]]),
        # w * inside vanishes into to_i + to_j = b: a kept pair with
        # dt = 5 while exact arithmetic would bound it by b - to_i = 0.
        (AnomalousRegion(4, 7, 4, t_lo=18, t_hi=39), 1e-300,
         [[18, 6, 7], [23, 7, 6]]),
    ])
    def test_reach_slack_covers_rounding(self, region, w_ano, nodes):
        """Kept pairs just beyond the exact-arithmetic reach: only the
        slack on the budget keeps them in the window."""
        model = DistanceModel(9, region, w_ano)
        nodes = np.array(nodes)
        bdist, _ = model.boundary(nodes)
        to_box = _vias(model, nodes.astype(float))[0][1]
        exact = to_box + (bdist - to_box) / w_ano
        assert abs(nodes[1, 0] - nodes[0, 0]) > exact.min()
        assert model.pairwise(nodes)[0, 1] <= bdist.min()
        self._assert_oracle(model, nodes)

    def test_real_endtoend_chunks(self, monkeypatch):
        """Shots straight out of the end-to-end kernel's detect stage
        (~900 nodes each), decoded at p_ano = 0.3 under their true
        strike box and the detection unit's estimate, as the campaign
        does.  The per-node reach evaluates fewer than half the pairs of
        a shared window ``|dt| <= max(bdist)`` plus all pairs of the
        nodes within ``max(bdist)`` of the box."""
        p, d = 0.01, 9
        kernel, _, _ = shot_engine(EndToEndSpec(
            distance=d, p=p, shots=3, p_ano=0.3, cycles=300, onset=150))
        kernel.prepare()
        nodes_list, _, regions, detections = kernel._chunk_packed(
            3, np.random.default_rng(12))
        w_ano = relative_anomalous_weight(p, 0.3)
        sizes = []  # pairs per manhattan call; the first is the direct one
        real_manhattan = greedy.manhattan
        monkeypatch.setattr(greedy, "manhattan", lambda x, y: (
            sizes.append(np.shape(x)[1]) or real_manhattan(x, y)))
        evaluated = wide = 0
        for nodes, regs, (estimated, _) in zip(
                nodes_list, regions, detections, strict=True):
            assert estimated is not None
            for region in (regs[0], estimated):
                model = DistanceModel(d, region, w_ano)
                bdist, _ = model.boundary(nodes)
                bound = bdist.max()
                assert np.ptp(nodes[:, 0]) >= 10 * bound
                dt = np.abs(np.subtract.outer(nodes[:, 0], nodes[:, 0]))
                (_, to_box, _), = _vias(model, nodes.astype(float))
                near = to_box <= bound
                wide += int(np.count_nonzero(np.triu(
                    (dt <= bound) | np.logical_and.outer(near, near), 1)))
                sizes.clear()
                _sparse_pairs(model, nodes, bdist)
                evaluated += sizes[0]
                self._assert_oracle(model, nodes)
        assert evaluated < wide / 2, (evaluated, wide)
        refs = [GreedyDecoder(DistanceModel(d, regs[0], w_ano))
                .decode(nodes).correction_cut_parity
                for nodes, regs in zip(nodes_list, regions, strict=True)]
        assert np.array_equal(
            batched_region_cut_parities(d, list(regions), nodes_list,
                                        w_ano), refs)

    @pytest.mark.parametrize("w_ano", [-0.1, -1e-300, float("nan"),
                                       float("inf")])
    def test_negative_or_nan_weight_rejected(self, w_ano):
        boxes = [AnomalousRegion(1, 1, 3), AnomalousRegion(2, 2, 3)]
        with pytest.raises(ValueError, match="w_ano"):
            DistanceModel(9, boxes[0], w_ano)
        with pytest.raises(ValueError, match="w_ano"):
            MultiRegionDistanceModel(9, boxes, w_ano)
        with pytest.raises(ValueError, match="w_ano"):
            MultiRegionDistanceModel(9, boxes, [0.5, w_ano])


class TestBitops:
    """Pack/unpack/popcount helpers for the uint64 backend."""

    def test_word_count(self):
        assert bitops.word_count(1) == 1
        assert bitops.word_count(64) == 1
        assert bitops.word_count(65) == 2
        with pytest.raises(ValueError):
            bitops.word_count(0)

    @pytest.mark.parametrize("shots", [1, 37, 64, 130, 513])
    def test_pack_round_trip(self, rng, shots):
        bits = rng.random((shots, 3, 4, 5)) < 0.3
        words = bitops.pack_shots(bits)
        assert words.dtype == np.uint64
        assert words.shape == (bitops.word_count(shots), 3, 4, 5)
        assert np.array_equal(bitops.unpack_shots(words, shots), bits)

    def test_lane_extracts_one_shot(self, rng):
        bits = rng.random((130, 6, 2, 3)) < 0.4
        words = bitops.pack_shots(bits)
        for s in (0, 63, 64, 129):
            assert np.array_equal(bitops.lane(words, s),
                                  bits[s].astype(np.uint8))

    def test_tail_lanes_zero_filled(self):
        words = bitops.pack_shots(np.ones((70, 2), dtype=bool))
        assert bitops.popcount(words).sum() == 70 * 2  # not 128 * 2

    def test_popcount(self, rng):
        bits = rng.random((256, 5, 7)) < 0.5
        words = bitops.pack_shots(bits)
        assert bitops.popcount(words).sum() == bits.sum()
        assert np.array_equal(bitops.popcount(words).sum(axis=0),
                              bits.sum(axis=0))


class TestPackedSampling:
    """sample_batch_packed consumes the identical uniform stream as the
    float path: packed bits equal the float path's bits per seed."""

    REGIONS = [
        None,
        AnomalousRegion(1, 1, 2, t_lo=1),              # open time window
        AnomalousRegion(0, 0, 2, t_lo=2, t_hi=4),      # clipped window
        AnomalousRegion(1, 0, 3, t_lo=0, t_hi=100),    # t_hi past the run
        AnomalousRegion(0, 0, 2, t_lo=50),             # never active
    ]

    @pytest.mark.parametrize("shots", [1, 37, 64, 130])
    @pytest.mark.parametrize("distance", [3, 5])
    def test_bit_identical_to_float_path(self, shots, distance):
        for region in self.REGIONS:
            noise = PhenomenologicalNoise(distance, 0.05, 0.5, region)
            ref = noise.sample_batch(shots, 6, np.random.default_rng(42))
            packed = noise.sample_batch_packed(
                shots, 6, np.random.default_rng(42))
            for a, b in zip(ref, packed, strict=True):
                assert b.dtype == np.uint64
                assert np.array_equal(bitops.unpack_shots(b, shots), a), \
                    (shots, distance, region)

    def test_spans_multiple_sample_chunks(self):
        """Shots crossing the word-aligned scratch-block boundary still
        reproduce the one-big-call uniform stream."""
        noise = PhenomenologicalNoise(3, 0.1, 0.5,
                                      AnomalousRegion(0, 0, 1, t_lo=1))
        shots = 300  # chunk is 64: five blocks, the last one partial
        ref = noise.sample_batch(shots, 4, np.random.default_rng(8))
        packed = noise.sample_batch_packed(shots, 4,
                                           np.random.default_rng(8))
        for a, b in zip(ref, packed, strict=True):
            assert np.array_equal(bitops.unpack_shots(b, shots), a)

    def test_rejects_zero_shots(self, rng):
        with pytest.raises(ValueError):
            PhenomenologicalNoise(5, 0.05).sample_batch_packed(0, 3, rng)


class TestPackedExtraction:
    """Word-wise syndrome extraction equals the uint8 reference."""

    def _arrays(self, d, shots, cycles, seed, region=None):
        noise = PhenomenologicalNoise(d, 0.05, 0.5, region)
        v, h, m = noise.sample_batch(shots, cycles,
                                     np.random.default_rng(seed))
        vw, hw, mw = noise.sample_batch_packed(shots, cycles,
                                               np.random.default_rng(seed))
        return (v, h, m), (vw, hw, mw)

    @pytest.mark.parametrize("distance", [3, 5])
    def test_layers_and_activity(self, distance):
        shots = 70
        (v, h, m), (vw, hw, mw) = self._arrays(distance, shots, 5, 2)
        lattice = SyndromeLattice(distance)
        assert np.array_equal(
            bitops.unpack_shots(lattice.measured_layers_packed(vw, hw, mw),
                                shots).astype(np.uint8),
            lattice.measured_layers(v, h, m))
        assert np.array_equal(
            bitops.unpack_shots(
                lattice.per_cycle_activity_packed(vw, hw, mw),
                shots).astype(np.uint8),
            lattice.per_cycle_activity(v, h, m))

    @pytest.mark.parametrize("distance", [3, 5])
    def test_detection_events(self, distance):
        shots = 130
        (v, h, m), (vw, hw, mw) = self._arrays(
            distance, shots, 6, 3, AnomalousRegion(0, 0, 2, t_lo=2))
        lattice = SyndromeLattice(distance)
        ref = lattice.detection_events_batch(v, h, m)
        coords, vals, bounds = lattice.detection_events_packed(vw, hw, mw)
        for s in range(shots):
            assert np.array_equal(
                lattice.shot_nodes(coords, vals, bounds, s), ref[s]), s

    def test_cut_parities(self):
        shots = 130
        (v, _, _), (vw, _, _) = self._arrays(5, shots, 6, 4)
        lattice = SyndromeLattice(5)
        ref = lattice.error_cut_parity(v)
        words = lattice.error_cut_parity_packed(vw)
        prefix = lattice.north_cut_prefix_packed(vw)
        for s in range(shots):
            assert ((int(words[s // 64]) >> (s % 64)) & 1) == ref[s]
            for stop in (1, 3, 6):
                assert ((int(prefix[s // 64, stop - 1]) >> (s % 64)) & 1) \
                    == lattice.error_cut_parity(v[s, :stop])


class TestPackedKernelEquivalence:
    """The packed backend is bit-identical to the float reference for
    the same seed — the certification seam of the whole engine."""

    REGIONS = [None,
               AnomalousRegion(0, 0, 2, t_lo=1, t_hi=3),
               AnomalousRegion(1, 1, 2, t_lo=2)]

    @pytest.mark.parametrize("shots", [37, 130])
    @pytest.mark.parametrize("distance", [3, 5])
    def test_memory_kernel(self, shots, distance):
        for region in self.REGIONS:
            kernel, _, _ = shot_engine(MemorySpec(
                distance=distance, p=0.04, samples=shots, region=region))
            kernel.prepare()
            ref = kernel.run_batch(shots, np.random.default_rng(7))
            packed = kernel.run_batch_packed(shots,
                                             np.random.default_rng(7))
            assert np.array_equal(ref, packed), (shots, distance, region)

    def test_memory_kernel_mwpm(self):
        kernel = MemoryShotKernel(5, 0.03, decoder="mwpm")
        kernel.prepare()
        ref = kernel.run_batch(70, np.random.default_rng(5))
        packed = kernel.run_batch_packed(70, np.random.default_rng(5))
        assert np.array_equal(ref, packed)

    @pytest.mark.parametrize("distance", [3, 5])
    def test_endtoend_kernel(self, distance):
        kernel, _, _ = shot_engine(EndToEndSpec(
            distance=distance, p=0.01, shots=37, p_ano=0.5, anomaly_size=2,
            onset=30, cycles=70, c_win=25, n_th=3, alpha=0.01))
        kernel.prepare()
        ref = kernel.run_batch(37, np.random.default_rng(3))
        packed = kernel.run_batch_packed(37, np.random.default_rng(3))
        assert np.array_equal(ref, packed)

    @pytest.mark.parametrize("distance", [3, 5])
    def test_detection_kernel(self, distance):
        strike = StrikeEvent(onset=80, size=2, p_ano=0.05)
        kernel = DetectionShotKernel(distance, 2e-3,
                                     Scenario(events=(strike,)),
                                     c_win=40, n_th=3, alpha=0.01,
                                     normal_cycles=80, post_cycles=160)
        kernel.prepare()
        ref = kernel.run_batch(17, np.random.default_rng(5))
        packed = kernel.run_batch_packed(17, np.random.default_rng(5))
        assert np.array_equal(ref, packed, equal_nan=True)

    def test_runner_packing_knob(self):
        a, _ = _run_kernel(MemoryShotKernel(5, 0.03), 300, seed=11,
                           packing="none")
        b, _ = _run_kernel(MemoryShotKernel(5, 0.03), 300, seed=11,
                           packing="bits")
        assert np.array_equal(a, b)
        with pytest.raises(SpecError):
            MemorySpec(distance=5, p=0.03, samples=300, packing="words")

    def test_experiment_entry_points_accept_packing(self):
        exp = MemoryExperiment(5, 0.02)
        bits = exp.run(200, workers=1, seed=9, packing="bits")
        none = exp.run(200, workers=1, seed=9, packing="none")
        assert bits.failures == none.failures
        perf_b = run_detection_trials(5, 2e-3, 0.05, anomaly_size=2,
                                      c_win=40, n_th=3, trials=5, seed=2,
                                      workers=1, packing="bits")
        perf_n = run_detection_trials(5, 2e-3, 0.05, anomaly_size=2,
                                      c_win=40, n_th=3, trials=5, seed=2,
                                      workers=1, packing="none")
        assert perf_b.false_positives == perf_n.false_positives
        assert perf_b.detections == perf_n.detections
        assert np.isclose(perf_b.mean_latency, perf_n.mean_latency,
                          equal_nan=True)
        assert np.isclose(perf_b.mean_position_error,
                          perf_n.mean_position_error, equal_nan=True)

    def test_pool_runs_packed(self):
        solo, _ = _run_kernel(MemoryShotKernel(5, 0.03), 150, 50, seed=5,
                              packing="bits")
        pooled, _ = _run_kernel(MemoryShotKernel(5, 0.03), 150, 50, seed=5,
                                packing="bits",
                                executor=ProcessPoolExecutor(2))
        assert np.array_equal(solo, pooled)


class TestMatchingCache:
    def test_cache_is_pure_memoization(self):
        calls = []

        def compute(nodes):
            calls.append(nodes.copy())
            return int(len(nodes)) & 1

        cache = MatchingCache()
        nodes = np.array([[0, 1, 2], [1, 1, 3]])
        assert cache.parity(nodes, compute) == 0
        assert cache.parity(nodes, compute) == 0
        assert len(calls) == 1
        assert cache.hits == 1

    def test_large_sets_bypass(self):
        cache = MatchingCache(max_nodes=2)
        nodes = np.zeros((3, 3), dtype=np.intp)
        cache.parity(nodes, lambda n: 1)
        cache.parity(nodes, lambda n: 1)
        assert cache.hits == 0 and len(cache) == 0

    def test_table_bounded_by_lru_eviction(self):
        cache = MatchingCache(max_entries=2)
        for k in range(5):
            cache.parity(np.array([[k, 0, 0]]), lambda n: 0)
        assert len(cache) == 2
        assert cache.evictions == 3
        # The most recently used entries survive.
        assert cache.get(np.array([[4, 0, 0]]).tobytes()) == 0
        assert cache.get(np.array([[0, 0, 0]]).tobytes()) is None

    def test_cached_and_uncached_runs_agree(self):
        """Satellite: memoized matchings must not change outcomes, and
        low-p campaigns must actually hit the cache."""
        cached, cached_stats = _run_kernel(MemoryShotKernel(5, 0.005),
                                           2000, seed=3)
        uncached, uncached_stats = _run_kernel(
            MemoryShotKernel(5, 0.005, cache_matchings=False), 2000, seed=3)
        assert np.array_equal(cached, uncached)
        assert cached_stats[0] > 0
        assert uncached_stats[0] == 0

    def test_cache_hits_reported_from_pool(self):
        spec = MemorySpec(distance=5, p=0.005, samples=2000, seed=3,
                          batch_size=500)
        result = campaigns.run(spec, executor=ProcessPoolExecutor(2))
        assert result.counts["cache_hits"] > 0


class TestBatchRunner:
    """The campaign chunk loop (``campaigns.run`` → executor) over the
    memory kernel: argument checks, determinism, chunking, early stop."""

    def _spec(self, **overrides):
        return MemorySpec(**{"distance": 5, "p": 0.03, "samples": 300,
                             **overrides})

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            default_executor(-1)
        with pytest.raises(SpecError):
            self._spec(batch_size=0)
        with pytest.raises(SpecError):
            self._spec(samples=0)
        with pytest.raises(ValueError):
            chunk_plan(100, 0, 1)
        with pytest.raises(ValueError):
            chunk_plan(0, 64, 1)

    def test_deterministic_for_fixed_seed(self):
        a = campaigns.run(self._spec(seed=11), executor=CHUNKED)
        b = campaigns.run(self._spec(seed=11), executor=CHUNKED)
        assert a.counts == b.counts
        assert a.estimates == b.estimates
        outs = [_run_kernel(MemoryShotKernel(5, 0.03), 300, seed=11)[0]
                for _ in range(2)]
        assert np.array_equal(*outs)
        assert a.counts["failures"] == int(np.count_nonzero(outs[0]))

    def test_partial_final_batch(self):
        result = campaigns.run(self._spec(samples=100, batch_size=64,
                                          seed=1), executor=CHUNKED)
        assert result.counts["samples"] == 100
        assert result.provenance.chunks == 2
        outcomes, _ = _run_kernel(MemoryShotKernel(5, 0.03), 100, 64, 1)
        assert len(outcomes) == 100

    def test_outcomes_independent_of_batching_workers(self):
        """Chunk seeds come from one SeedSequence: the pool must return
        exactly the in-process outcomes."""
        solo, _ = _run_kernel(MemoryShotKernel(5, 0.03), 150, 50, seed=5)
        pooled, _ = _run_kernel(MemoryShotKernel(5, 0.03), 150, 50, seed=5,
                                executor=ProcessPoolExecutor(2))
        assert np.array_equal(solo, pooled)

    def test_early_stop_on_tight_wilson_interval(self):
        # High failure rate: converges long before the request.
        spec = MemorySpec(distance=3, p=0.15, samples=100_000,
                          batch_size=128, seed=2, target_rel_width=0.5)
        result = campaigns.run(spec, executor=CHUNKED)
        assert result.counts["samples"] < 100_000
        estimate = result.detail.estimate
        lo, hi = estimate.interval
        assert (hi - lo) <= 0.5 * estimate.mean

    def test_no_early_stop_without_target(self):
        result = campaigns.run(self._spec(samples=256, batch_size=128,
                                          seed=3), executor=CHUNKED)
        assert result.counts["samples"] == 256
        assert result.provenance.chunks == 2


class TestMemoryBatchEquivalence:
    def test_batch_matches_sequential_distribution(self):
        """Same error model through both engines: the failure rates must
        agree within Monte-Carlo resolution."""
        exp = MemoryExperiment(7, 0.02,
                               region=AnomalousRegion.centered(7, 2))
        samples = 800
        seq = exp.run(samples, np.random.default_rng(21))
        bat = exp.run(samples, workers=1, seed=21)
        p = (seq.per_run + bat.per_run) / 2
        se = np.sqrt(max(2 * p * (1 - p) / samples, 1e-9))
        assert abs(seq.per_run - bat.per_run) < 5 * se

    def test_batch_deterministic_and_worker_invariant(self):
        exp = MemoryExperiment(7, 0.02, region=AnomalousRegion.centered(7, 2))
        one = exp.run(200, workers=1, seed=9)
        again = exp.run(200, workers=1, seed=9)
        pooled = exp.run(200, workers=2, seed=9)
        assert one.failures == again.failures == pooled.failures

    def test_mwpm_kernel_path(self):
        est = MemoryExperiment(5, 0.02, decoder="mwpm").run(
            60, workers=1, seed=4)
        assert est.samples == 60
        assert 0 <= est.failures <= 60

    def test_early_stop_via_experiment(self):
        exp = MemoryExperiment(3, 0.15)
        est = exp.run(50_000, workers=1, seed=13, target_rel_width=0.5)
        assert est.samples < 50_000


class TestEndToEndBatch:
    def test_batched_campaign_deterministic_and_pool_invariant(self):
        exp = EndToEndExperiment(9, 0.008, anomaly_size=3, onset=60,
                                 cycles=140, c_win=50, n_th=6)
        a = exp.run(24, workers=1, seed=31, batch_size=12)
        b = exp.run(24, workers=1, seed=31, batch_size=12)
        c = exp.run(24, workers=2, seed=31, batch_size=12)
        for res in (b, c):
            assert res.naive_failures == a.naive_failures
            assert res.detected_failures == a.detected_failures
            assert res.oracle_failures == a.oracle_failures
            assert res.detections == a.detections

    def test_batched_campaign_detects_strikes(self):
        exp = EndToEndExperiment(9, 0.008, anomaly_size=3, onset=60,
                                 cycles=140, c_win=50, n_th=6)
        res = exp.run(24, workers=1, seed=31)
        assert res.detection_rate > 0.7
        assert res.mean_latency >= 0

    @pytest.mark.slow
    def test_batch_matches_sequential_distribution(self):
        """Both engines score the same experiment: every failure rate
        must agree within Monte-Carlo resolution."""
        exp = EndToEndExperiment(9, 0.008, anomaly_size=3, onset=60,
                                 cycles=140, c_win=50, n_th=6)
        shots = 120
        seq = reference_endtoend_run(exp, shots, np.random.default_rng(41))
        bat = exp.run(shots, workers=1, seed=41)
        for key in ("naive", "detected", "oracle"):
            p = (seq.rates()[key] + bat.rates()[key]) / 2
            se = np.sqrt(max(2 * p * (1 - p) / shots, 1e-9))
            assert abs(seq.rates()[key] - bat.rates()[key]) < 5 * se, key
        assert abs(seq.detection_rate - bat.detection_rate) < 0.25


class TestDetectionTrialsBatch:
    def test_batched_trials_deterministic_and_pool_invariant(self):
        kwargs = dict(distance=11, p=1e-3, p_ano=0.05, anomaly_size=3,
                      c_win=120, n_th=8, trials=6, seed=17)
        a = run_detection_trials(workers=1, **kwargs)
        b = run_detection_trials(workers=1, **kwargs)
        c = run_detection_trials(workers=2, **kwargs)
        assert a.detections == b.detections == c.detections
        assert a.false_positives == b.false_positives == c.false_positives

    def test_batched_trials_find_the_anomaly(self):
        perf = run_detection_trials(
            11, 1e-3, 0.05, anomaly_size=3, c_win=120, n_th=8,
            trials=6, seed=17, workers=1)
        assert perf.miss_rate == 0.0
        assert perf.mean_position_error < 4.0

    @pytest.mark.slow
    def test_batch_matches_sequential_distribution(self):
        """The windowed-count scan must reproduce the streamed unit's
        outcomes within Monte-Carlo resolution."""
        kwargs = dict(distance=11, p=1e-3, p_ano=0.05, anomaly_size=3,
                      c_win=100, n_th=8, trials=16)
        seq = reference_detection_trials(seed=23, **kwargs)
        bat = run_detection_trials(seed=23, workers=1, **kwargs)
        assert seq.miss_rate == bat.miss_rate == 0.0
        assert abs(seq.false_positive_rate - bat.false_positive_rate) <= 0.5
        assert abs(seq.mean_latency - bat.mean_latency) <= 10
        assert abs(seq.mean_position_error - bat.mean_position_error) <= 2.0
