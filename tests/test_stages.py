"""The stage seam: structure, per-stage units, and golden certification.

The refactor contract for PR 7 is that re-basing the shot kernels on
:mod:`repro.sim.stages` changes *structure only*: for a given
``(seed, batch_size)`` every kernel's outputs must equal the
pre-refactor monolithic paths bit for bit.  The ``Golden*`` classes pin
SHA-256 digests and campaign counts captured by running the
pre-refactor kernels (commit b5da1d7) with these exact parameters — if
any staged path drifts, these fail first.
"""

import hashlib

import numpy as np
import pytest

from repro import campaigns
from repro.campaigns.runner import shot_engine
from repro.noise.models import AnomalousRegion
from repro.scenarios.model import Scenario, StrikeEvent
from repro.sim.batch import (DetectionShotKernel, EndToEndShotKernel,
                             MemoryShotKernel)
from repro.sim.stages import (ShotPipeline, Stage, StageContext, StageState,
                              _overwrite_anomalous)


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def strike(**event) -> Scenario:
    """The paper's single MBBE as a one-event scenario."""
    return Scenario(events=(StrikeEvent(**event),))


def memory_kernel() -> MemoryShotKernel:
    # AnomalousRegion.centered(5, 2): the 2 x 2 box at node (1, 1).
    return MemoryShotKernel(5, 0.02,
                            strike(onset=0, size=2, row=1, col=1, p_ano=0.5))


def endtoend_kernel(**overrides) -> EndToEndShotKernel:
    params = dict(distance=5, p=0.01,
                  scenario=strike(onset=30, size=2, p_ano=0.5),
                  cycles=70, c_win=20, n_th=3, alpha=0.01)
    params.update(overrides)
    return EndToEndShotKernel(**params)


def detection_kernel(**overrides) -> DetectionShotKernel:
    params = dict(distance=5, p=2e-3,
                  scenario=strike(onset=60, size=2, p_ano=0.5),
                  c_win=30, n_th=3, alpha=0.01, normal_cycles=60,
                  post_cycles=120)
    params.update(overrides)
    return DetectionShotKernel(**params)


# ----------------------------------------------------------------------
# Golden certification: staged kernels == pre-refactor outputs
# ----------------------------------------------------------------------
class TestGoldenKernels:
    """Digests captured from the pre-seam kernels (same seeds/params)."""

    @pytest.mark.parametrize("packing", ["none", "bits"])
    def test_memory_kernel_golden(self, packing):
        kernel = memory_kernel()
        run = (kernel.run_batch if packing == "none"
               else kernel.run_batch_packed)
        out = run(37, np.random.default_rng(123))
        assert digest(out) == "3601b4a71e36a6e5"

    @pytest.mark.parametrize("packing", ["none", "bits"])
    def test_endtoend_kernel_golden(self, packing):
        kernel = endtoend_kernel()
        run = (kernel.run_batch if packing == "none"
               else kernel.run_batch_packed)
        out = run(29, np.random.default_rng(7))
        assert digest(out) == "fc4151090cab8662"

    @pytest.mark.parametrize("packing", ["none", "bits"])
    def test_detection_kernel_golden(self, packing):
        kernel = detection_kernel()
        run = (kernel.run_batch if packing == "none"
               else kernel.run_batch_packed)
        out = run(21, np.random.default_rng(11))
        assert digest(out) == "c85adf7c9bab065f"


def _memory_spec(**overrides) -> campaigns.MemorySpec:
    params = dict(distance=5, p=0.03, samples=1, anomaly_size=2, p_ano=0.4,
                  cycles=6)
    params.update(overrides)
    return campaigns.MemorySpec(**params)


#: Region-spec forms through ``shot_engine``: digests of the kernel's
#: outcomes captured before region specs were lowered to scenarios
#: (commit 8140c16).  ``memory-pano-eq-p`` equals ``memory-none``
#: because an overlay at the base rate draws nothing.
REGION_GOLDENS = [
    ("memory-none", _memory_spec(), "41c601166cba6508"),
    ("memory-centered", _memory_spec(region="centered"),
     "735551def560327c"),
    ("memory-corner", _memory_spec(region=AnomalousRegion(0, 0, 2)),
     "5ea2f63321ee4bf2"),
    ("memory-overhang", _memory_spec(region=AnomalousRegion(3, 3, 3)),
     "174b9b6f487bda45"),
    ("memory-closed-window",
     _memory_spec(region=AnomalousRegion(1, 1, 2, t_lo=1, t_hi=4)),
     "a9d120ab33005ecb"),
    ("memory-pano-eq-p", _memory_spec(region="centered", p_ano=0.03),
     "41c601166cba6508"),
    ("memory-informed-greedy",
     _memory_spec(region=AnomalousRegion(1, 2, 2, t_lo=2), informed=True),
     "7cd2f4a07023e2fb"),
    ("memory-informed-mwpm",
     _memory_spec(region=AnomalousRegion(1, 2, 2, t_lo=2), informed=True,
                  decoder="mwpm"),
     "bbcafb358f25e100"),
    ("endtoend-offdefault",
     campaigns.EndToEndSpec(distance=5, p=0.01, shots=1, p_ano=0.3,
                            anomaly_size=3, onset=25, cycles=60, c_win=20,
                            n_th=3),
     "46f2be12909db481"),
    ("detection-offdefault",
     campaigns.DetectionSpec(distance=5, p=2e-3, p_ano=0.3, anomaly_size=3,
                             c_win=20, n_th=3, normal_cycles=50,
                             post_cycles=70),
     "ae797121f4f37839"),
]

REGION_GOLDEN_SHOTS = {"memory": 70, "endtoend": 24, "detection": 18}


class TestGoldenRegionSpecs:
    """Region specs through ``shot_engine``, packed and unpacked."""

    @pytest.mark.parametrize("packing", ["none", "bits"])
    @pytest.mark.parametrize("name, spec, want", REGION_GOLDENS,
                             ids=[case[0] for case in REGION_GOLDENS])
    def test_region_spec_golden(self, name, spec, want, packing):
        kernel, _, _ = shot_engine(spec)
        run = (kernel.run_batch if packing == "none"
               else kernel.run_batch_packed)
        out = run(REGION_GOLDEN_SHOTS[spec.kind],
                  np.random.default_rng(2024))
        assert digest(out) == want


class TestGoldenCampaigns:
    """Campaign-level counts captured from the pre-seam engine."""

    def test_memory_campaign_golden(self):
        result = campaigns.run(campaigns.MemorySpec(
            distance=5, p=0.02, samples=200, region="centered",
            anomaly_size=2, seed=5))
        assert result.counts["failures"] == 113

    def test_endtoend_campaign_golden(self):
        result = campaigns.run(campaigns.EndToEndSpec(
            distance=5, p=0.01, shots=40, anomaly_size=2, onset=30,
            cycles=70, c_win=20, n_th=3, seed=9))
        assert result.counts["naive_failures"] == 19
        assert result.counts["detected_failures"] == 21
        assert result.counts["oracle_failures"] == 16
        assert result.counts["detections"] == 40

    def test_detection_campaign_golden(self):
        result = campaigns.run(campaigns.DetectionSpec(
            distance=5, p=2e-3, p_ano=0.5, anomaly_size=2, c_win=30,
            n_th=3, trials=24, seed=3))
        assert result.counts["false_positives"] == 4
        assert result.counts["detections"] == 24


# ----------------------------------------------------------------------
# Pipeline structure
# ----------------------------------------------------------------------
class TestPipelineStructure:
    def test_stage_names(self):
        assert memory_kernel().pipeline().names() == \
            ("sample", "extract", "decode", "accumulate")
        assert endtoend_kernel().pipeline().names() == \
            ("sample", "extract", "detect", "decode", "accumulate")
        assert detection_kernel().pipeline().names() == \
            ("sample", "extract", "detect")

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            ShotPipeline(())

    def test_run_until_unknown_stage(self):
        kernel = memory_kernel()
        with pytest.raises(ValueError, match="no stage named"):
            kernel.pipeline().run_until(
                "detect", kernel._context(4, np.random.default_rng(0),
                                          "none"))

    def test_base_stage_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Stage().run(StageContext(shots=1, packing="none"),
                        StageState())

    def test_context_is_frozen(self):
        ctx = StageContext(shots=1, packing="bits")
        with pytest.raises(AttributeError):
            ctx.shots = 2

    def test_fresh_state_is_empty(self):
        state = StageState()
        assert state.v is None and state.outcomes is None


# ----------------------------------------------------------------------
# Stages as independently runnable units
# ----------------------------------------------------------------------
class TestMemoryStagesStepwise:
    def test_stepwise_equals_run_batch(self):
        shots, seed = 23, 42
        kernel = memory_kernel()
        ctx = kernel._context(shots, np.random.default_rng(seed), "none")
        state = StageState()
        sample, extract, decode, accumulate = kernel.pipeline().stages

        sample.run(ctx, state)
        assert state.v.shape == (shots, kernel.cycles, 5, 5)
        assert state.nodes_list is None  # not extracted yet

        extract.run(ctx, state)
        assert len(state.nodes_list) == shots
        assert state.parities.shape == (shots,)

        decode.run(ctx, state)
        assert state.matchings.shape == (shots,)

        accumulate.run(ctx, state)
        np.testing.assert_array_equal(
            state.outcomes, state.parities ^ state.matchings)
        np.testing.assert_array_equal(
            state.outcomes,
            memory_kernel().run_batch(shots, np.random.default_rng(seed)))

    def test_extract_stage_packed_matches_float(self):
        """The extract seam alone reproduces the float path's nodes."""
        shots, seed = 21, 3
        kernel = memory_kernel()
        pipeline = kernel.pipeline()
        states = {}
        for packing in ("none", "bits"):
            states[packing] = pipeline.run_until(
                "extract",
                kernel._context(shots, np.random.default_rng(seed),
                                packing))
        for a, b in zip(states["none"].nodes_list,
                        states["bits"].nodes_list, strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(states["none"].parities,
                                      states["bits"].parities)


class TestEndToEndStagesStepwise:
    def test_detect_stage_produces_decode_inputs(self):
        shots, seed = 9, 17
        kernel = endtoend_kernel()
        state = kernel.pipeline().run_until(
            "detect", kernel._context(shots, np.random.default_rng(seed),
                                      "bits"))
        assert len(state.nodes_list) == shots
        assert len(state.detections) == shots
        assert state.parities.shape == (shots,)
        assert all(len(regions) == 1
                   and isinstance(regions[0], AnomalousRegion)
                   for regions in state.regions)

    def test_chunk_packed_matches_full_run(self):
        shots, seed = 13, 5
        kernel = endtoend_kernel()
        chunk = kernel._chunk_packed(shots, np.random.default_rng(seed))
        out = kernel._assemble(*chunk)
        np.testing.assert_array_equal(
            out,
            endtoend_kernel().run_batch_packed(
                shots, np.random.default_rng(seed)))

    @pytest.mark.parametrize("decode", ["batched", "pershot"])
    def test_decode_modes_agree_through_stages(self, decode):
        shots, seed = 11, 29
        out = endtoend_kernel(decode=decode).run_batch_packed(
            shots, np.random.default_rng(seed))
        ref = endtoend_kernel(decode="batched").run_batch(
            shots, np.random.default_rng(seed))
        np.testing.assert_array_equal(out, ref)


class TestDetectionStagesStepwise:
    @pytest.mark.parametrize("scan", ["batched", "pershot"])
    def test_scan_modes_agree_through_stages(self, scan):
        shots, seed = 12, 8
        out = detection_kernel(scan=scan).run_batch_packed(
            shots, np.random.default_rng(seed))
        ref = detection_kernel(scan="batched").run_batch(
            shots, np.random.default_rng(seed))
        np.testing.assert_array_equal(out, ref)

    def test_extract_stage_activity_shapes(self):
        shots, seed = 7, 2
        kernel = detection_kernel()
        total = kernel.normal_cycles + kernel.post_cycles
        state = kernel.pipeline().run_until(
            "extract", kernel._context(shots, np.random.default_rng(seed),
                                       "none"))
        assert state.activity.shape == (shots, total, 4, 5)


# ----------------------------------------------------------------------
# The re-exported overwrite helper keeps its import surface
# ----------------------------------------------------------------------
def test_overwrite_reexported_from_batch():
    from repro.sim import batch
    assert batch._overwrite_anomalous is _overwrite_anomalous
