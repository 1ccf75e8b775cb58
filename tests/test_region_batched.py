"""Equivalence suite for the region-bucketed batched decode engine.

PR 4's tentpole: the cross-shot engine folds *per-shot* anomalous
regions into its bucket tensors, the end-to-end and detection kernels
decode whole chunks through it, and the sequential ``workers=0``
experiment branches are retired onto the batched kernels.  Everything
here certifies bit-equality against the per-shot references
(``greedy_cut_parity``, ``decode="pershot"``, and the retired per-cycle
loops now housed in ``tests/reference_engines.py``).
"""

import numpy as np
import pytest

from repro.decoding.batched import (ScratchArena, batched_cut_parities,
                                    batched_region_cut_parities)
from repro.decoding.greedy import GreedyDecoder, greedy_cut_parity
from repro.decoding.weights import DistanceModel, region_signature
from repro.noise.models import AnomalousRegion
from repro.scenarios.model import Scenario, StrikeEvent
from repro.sim.batch import DetectionShotKernel, EndToEndShotKernel

from reference_engines import (reference_detection_trials,
                               reference_endtoend_run)
from repro.sim.detection import run_detection_trials
from repro.sim.endtoend import EndToEndExperiment


def _reference(distance, regions, nodes_list, w_ano):
    """The certified per-shot path, one model per shot."""
    out = []
    for reg, nodes in zip(regions, nodes_list, strict=True):
        model = (DistanceModel(distance, reg, w_ano) if reg is not None
                 else DistanceModel(distance))
        out.append(greedy_cut_parity(model, nodes))
    return np.array(out, dtype=np.int8)


def _random_chunk(rng, d, shots, none_frac=0.2, t_span=30):
    """Random mixed-region chunk: open/closed/huge windows, Nones."""
    regions, nodes_list = [], []
    for _ in range(shots):
        if rng.random() < none_frac:
            regions.append(None)
        else:
            t_lo = int(rng.integers(0, t_span))
            roll = rng.random()
            t_hi = None
            if roll < 0.3:
                t_hi = t_lo + int(rng.integers(0, 20))
            elif roll < 0.4:
                t_hi = 100_000  # far-future explicit window
            regions.append(AnomalousRegion(
                int(rng.integers(0, max(1, d - 2))),
                int(rng.integers(0, max(1, d - 1))),
                int(rng.integers(1, 6)), t_lo=t_lo, t_hi=t_hi))
        n = int(rng.integers(0, 25))
        nodes_list.append(np.column_stack([
            rng.integers(0, t_span, n), rng.integers(0, d - 1, n),
            rng.integers(0, d, n)]))
    return regions, nodes_list


class TestBatchedRegionCutParities:
    """batched_region_cut_parities == per-shot greedy_cut_parity."""

    @pytest.mark.parametrize("w_ano", [0.0, 0.35])
    def test_property_sweep_mixed_regions(self, rng, w_ano):
        arena = ScratchArena()
        for _ in range(60):
            d = int(rng.integers(3, 13))
            shots = int(rng.integers(0, 14))
            regions, nodes_list = _random_chunk(rng, d, shots)
            got = batched_region_cut_parities(d, regions, nodes_list,
                                              w_ano, arena=arena)
            assert np.array_equal(
                got, _reference(d, regions, nodes_list, w_ano))

    def test_every_shot_distinct_region_and_onset(self, rng):
        """The detected-decode shape: estimates whose t_lo varies shot
        to shot, so signature grouping would degenerate to singletons —
        the engine must fold them per shot instead."""
        d, shots = 9, 40
        regions = [AnomalousRegion(int(rng.integers(0, 5)),
                                   int(rng.integers(0, 6)), 4,
                                   t_lo=int(s))
                   for s in range(shots)]
        nodes_list = [np.column_stack([
            rng.integers(0, 60, 12), rng.integers(0, d - 1, 12),
            rng.integers(0, d, 12)]) for _ in range(shots)]
        got = batched_region_cut_parities(d, regions, nodes_list, 0.0)
        assert np.array_equal(got, _reference(d, regions, nodes_list, 0.0))

    def test_collapsed_and_never_active_windows(self, rng):
        d = 9
        regions = [AnomalousRegion(1, 1, 3, t_lo=5, t_hi=5),   # empty
                   AnomalousRegion(2, 2, 2, t_lo=500),         # pre-onset
                   AnomalousRegion(0, 0, 2, t_lo=3, t_hi=4)]   # one layer
        nodes_list = [np.column_stack([
            rng.integers(0, 12, 9), rng.integers(0, d - 1, 9),
            rng.integers(0, d, 9)]) for _ in regions]
        got = batched_region_cut_parities(d, regions, nodes_list, 0.0)
        assert np.array_equal(got, _reference(d, regions, nodes_list, 0.0))

    def test_duplicate_nodes_inside_the_box(self):
        nodes = np.array([[5, 2, 2], [5, 2, 2], [5, 2, 2], [6, 3, 3],
                          [0, 0, 0], [5, 2, 3]])
        regions = [AnomalousRegion(2, 2, 2, t_lo=4)]
        got = batched_region_cut_parities(9, regions, [nodes], 0.0)
        assert np.array_equal(got, _reference(9, regions, [nodes], 0.0))

    def test_empty_shots_and_empty_chunk(self):
        empty = np.zeros((0, 3), dtype=np.int64)
        regions = [AnomalousRegion(0, 0, 2), None]
        got = batched_region_cut_parities(
            9, regions, [empty, np.array([[1, 1, 1]])], 0.0)
        assert np.array_equal(
            got, _reference(9, regions, [empty, np.array([[1, 1, 1]])], 0.0))
        assert len(batched_region_cut_parities(9, [], [], 0.0)) == 0

    def test_fallbacks_outside_the_envelope(self, rng):
        d = 9
        # Negative coordinates, huge t, and an off-lattice region all
        # decline the integer engine but must still score correctly.
        cases = [
            ([AnomalousRegion(0, 0, 2), AnomalousRegion(1, 1, 2, t_lo=3)],
             [np.array([[-1, 2, 3], [4, 5, 6]]), np.array([[0, 1, 2]])]),
            ([AnomalousRegion(1, 1, 2)],
             [np.array([[5000, 1, 1], [5001, 2, 2]])]),
            ([AnomalousRegion(40, 0, 2)],
             [np.array([[1, 1, 1], [2, 2, 2]])]),
            ([AnomalousRegion(1, 1, 2, t_lo=5000)],
             [np.array([[1, 1, 1], [2, 2, 2]])]),
        ]
        for regions, nodes_list in cases:
            for w_ano in (0.0, 0.6):
                got = batched_region_cut_parities(d, regions, nodes_list,
                                                  w_ano)
                assert np.array_equal(
                    got, _reference(d, regions, nodes_list, w_ano))

    def test_wide_distance_sort_path(self, rng):
        d = 80  # beyond the level-split threshold of the engine
        regions, nodes_list = _random_chunk(rng, d, 8, t_span=50)
        got = batched_region_cut_parities(d, regions, nodes_list, 0.0)
        assert np.array_equal(got, _reference(d, regions, nodes_list, 0.0))

    def test_region_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batched_region_cut_parities(9, [None], [], 0.0)

    def test_weighted_region_matches_dense_oracle(self, rng):
        """Weighted regions leave the integer engine for the per-shot
        sparse core; the chunk still equals the dense, unpruned
        GreedyDecoder shot for shot."""
        d = 9
        model = DistanceModel(d, AnomalousRegion(1, 1, 3, t_lo=2), 0.7)
        nodes_list = [np.column_stack([
            rng.integers(0, 12, int(n)), rng.integers(0, d - 1, int(n)),
            rng.integers(0, d, int(n))])
            for n in rng.integers(1, 18, 30)]
        got = batched_cut_parities(model, nodes_list)
        ref = np.array([GreedyDecoder(model).decode(nodes)
                        .correction_cut_parity
                        for nodes in nodes_list], dtype=np.int8)
        assert np.array_equal(got, ref)

    def test_region_signature_keys(self):
        a = AnomalousRegion(1, 2, 3, t_lo=4, t_hi=9)
        assert region_signature(a) == (1, 2, 3, 4, 9)
        assert region_signature(AnomalousRegion(1, 2, 3, t_lo=4)) \
            == (1, 2, 3, 4, -1)
        assert region_signature(None) == ()


class TestEndToEndKernelDecodeModes:
    """decode="batched" == decode="pershot", float and packed, over the
    (d, p_ano, anomaly_size, onset) grid — including no-detection shots
    and chunks whose estimates differ shot to shot."""

    GRID = [(3, 0.5, 2, 20), (5, 0.5, 2, 30), (5, 0.2, 3, 40),
            (3, 0.3, 1, 25)]

    @pytest.mark.parametrize("d,p_ano,anomaly_size,onset", GRID)
    def test_modes_bit_equal(self, d, p_ano, anomaly_size, onset):
        outs = {}
        for mode in ("pershot", "batched"):
            strike = StrikeEvent(onset=onset, size=anomaly_size,
                                 p_ano=p_ano)
            kernel = EndToEndShotKernel(
                d, 0.01, Scenario(events=(strike,)), cycles=onset + 40,
                c_win=20, n_th=3, alpha=0.01, decode=mode)
            kernel.prepare()
            ref = kernel.run_batch(41, np.random.default_rng(7))
            packed = kernel.run_batch_packed(41, np.random.default_rng(7))
            assert np.array_equal(ref, packed), (mode, "packed != float")
            outs[mode] = ref
        assert np.array_equal(outs["pershot"], outs["batched"])

    def test_missed_detections_inherit_naive(self):
        """An impossible threshold forces misses on every shot: the
        detected column must equal the naive column bit for bit."""
        outs = {}
        for mode in ("pershot", "batched"):
            strike = StrikeEvent(onset=30, size=1, p_ano=0.5)
            kernel = EndToEndShotKernel(
                5, 0.005, Scenario(events=(strike,)), cycles=60,
                c_win=20, n_th=10 ** 6, alpha=0.01, decode=mode)
            kernel.prepare()
            outs[mode] = kernel.run_batch(23, np.random.default_rng(11))
        assert np.array_equal(outs["pershot"], outs["batched"])
        assert (outs["batched"][:, 3] == -1).all()
        assert np.array_equal(outs["batched"][:, 0], outs["batched"][:, 1])


class TestDetectionKernelScanModes:
    """scan="batched" == scan="pershot" for the detection kernel."""

    @pytest.mark.parametrize("d,p_ano", [(3, 0.05), (5, 0.05), (5, 0.3)])
    def test_modes_bit_equal(self, d, p_ano):
        outs = {}
        for mode in ("pershot", "batched"):
            strike = StrikeEvent(onset=80, size=2, p_ano=p_ano)
            kernel = DetectionShotKernel(
                d, 2e-3, Scenario(events=(strike,)), c_win=40, n_th=3,
                alpha=0.01, normal_cycles=80, post_cycles=160, scan=mode)
            kernel.prepare()
            ref = kernel.run_batch(19, np.random.default_rng(5))
            packed = kernel.run_batch_packed(19, np.random.default_rng(5))
            assert np.array_equal(ref, packed, equal_nan=True)
            outs[mode] = ref
        assert np.array_equal(outs["pershot"], outs["batched"],
                              equal_nan=True)

    def test_false_positives_scored_identically(self):
        """A hair-trigger threshold generates pre-onset false positives;
        both scans must count them (and the post-onset detections that
        follow the discarded flags) the same way."""
        outs = {}
        for mode in ("pershot", "batched"):
            strike = StrikeEvent(onset=40, size=2, p_ano=0.5)
            kernel = DetectionShotKernel(
                5, 2e-2, Scenario(events=(strike,)), c_win=10, n_th=1,
                alpha=0.4, normal_cycles=40, post_cycles=40, scan=mode)
            kernel.prepare()
            outs[mode] = kernel.run_batch(31, np.random.default_rng(3))
        assert np.array_equal(outs["pershot"], outs["batched"],
                              equal_nan=True)
        assert outs["batched"][:, 0].sum() > 0  # the sweep has FPs

    def test_legacy_name_is_retired(self):
        """The DetectionTrialKernel alias (deprecated in PR 5) is gone."""
        from repro.sim import batch
        with pytest.raises(AttributeError):
            batch.DetectionTrialKernel
        import repro.sim
        with pytest.raises(AttributeError):
            repro.sim.DetectionTrialKernel

    def test_bad_scan_mode_rejected(self):
        with pytest.raises(ValueError):
            DetectionShotKernel(
                5, 1e-3, Scenario(events=(StrikeEvent(onset=80, size=2),)),
                40, 3, 0.01, 80, 160, scan="vectorized")


class TestRetiredSequentialBranches:
    """workers=0 now rides the batched kernels; the per-cycle loops
    survive only in tests/reference_engines.py."""

    def test_endtoend_workers0_deterministic_and_pool_invariant(self):
        exp = EndToEndExperiment(9, 0.008, anomaly_size=3, onset=60,
                                 cycles=140, c_win=50, n_th=6)
        a = exp.run(24, seed=31)
        b = exp.run(24, seed=31)
        c = exp.run(24, workers=2, seed=31, batch_size=24)
        for res in (b, c):
            assert res.naive_failures == a.naive_failures
            assert res.detected_failures == a.detected_failures
            assert res.oracle_failures == a.oracle_failures
            assert res.detections == a.detections

    def test_endtoend_reference_engine_still_streams(self):
        exp = EndToEndExperiment(9, 0.008, anomaly_size=3, onset=40,
                                 cycles=90, c_win=30, n_th=5)
        res = reference_endtoend_run(exp, 4, np.random.default_rng(2))
        assert res.shots == 4
        assert 0 <= res.naive_failures <= 4

    def test_endtoend_engine_knob_is_retired(self):
        exp = EndToEndExperiment(9, 0.008, onset=40, cycles=90)
        with pytest.raises(TypeError):
            exp.run(2, engine="reference")

    def test_detection_workers0_deterministic(self):
        kwargs = dict(distance=11, p=1e-3, p_ano=0.05, anomaly_size=3,
                      c_win=120, n_th=8, trials=6, seed=17)
        a = run_detection_trials(workers=0, **kwargs)
        b = run_detection_trials(workers=0, **kwargs)
        assert a.detections == b.detections
        assert a.false_positives == b.false_positives
        assert np.isclose(a.mean_latency, b.mean_latency, equal_nan=True)

    def test_detection_engine_knob_is_retired(self):
        with pytest.raises(TypeError):
            run_detection_trials(5, 1e-3, 0.05, 2, 40, trials=2,
                                 engine="reference")

    @pytest.mark.slow
    @pytest.mark.parametrize("d,p_ano,anomaly_size,onset",
                             [(7, 0.5, 3, 40), (5, 0.25, 2, 30)])
    def test_batched_matches_run_shot_distribution(self, d, p_ano,
                                                   anomaly_size, onset):
        """The retired path vs the certified per-cycle reference: every
        failure rate agrees within Monte-Carlo resolution."""
        exp = EndToEndExperiment(d, 0.01, p_ano=p_ano,
                                 anomaly_size=anomaly_size, onset=onset,
                                 cycles=onset + 50, c_win=25, n_th=4)
        shots = 60
        seq = reference_endtoend_run(exp, shots, np.random.default_rng(13))
        bat = exp.run(shots, seed=13)
        for key in ("naive", "detected", "oracle"):
            p = (seq.rates()[key] + bat.rates()[key]) / 2
            se = np.sqrt(max(2 * p * (1 - p) / shots, 1e-9))
            assert abs(seq.rates()[key] - bat.rates()[key]) < 5 * se, key
        assert abs(seq.detection_rate - bat.detection_rate) < 0.3

    @pytest.mark.slow
    def test_preonset_false_positive_semantics_agree(self):
        """Parameters hot enough to trip pre-onset flags: the reference
        engine discards them (clearing masks) and keeps streaming; the
        batched windowed scan must agree within Monte-Carlo resolution
        on both the false-positive and the detection rates."""
        kwargs = dict(distance=9, p=1.5e-2, p_ano=0.5, anomaly_size=3,
                      c_win=20, n_th=2, trials=24, normal_cycles=60,
                      post_cycles=60)
        seq = reference_detection_trials(seed=29, **kwargs)
        bat = run_detection_trials(seed=29, **kwargs)
        assert seq.false_positives > 0  # the regime exercises discards
        assert abs(seq.false_positive_rate - bat.false_positive_rate) <= 0.35
        assert abs(seq.miss_rate - bat.miss_rate) <= 0.35
