"""The unified campaign API: specs, registry, executors, shim equality."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import campaigns
from repro.noise import AnomalousRegion
from repro.scenarios.model import Scenario, StrikeEvent
from repro.sim.batch import (DetectionShotKernel, EndToEndShotKernel,
                             MemoryShotKernel, chunk_plan,
                             default_chunk_shots, wilson_tight)
from repro.sim.detection import run_detection_trials
from repro.sim.endtoend import EndToEndExperiment
from repro.sim.memory import MemoryExperiment


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_memory_spec_accepts_paper_point(self):
        spec = campaigns.MemorySpec(distance=9, p=1e-2, samples=100)
        assert spec.kind == "memory"
        assert spec.resolve_region() is None

    def test_centered_region_resolves_against_distance(self):
        spec = campaigns.MemorySpec(distance=9, p=1e-2, samples=10,
                                    region="centered", anomaly_size=4)
        assert spec.resolve_region() == AnomalousRegion.centered(9, 4)

    @pytest.mark.parametrize("kwargs", [
        dict(distance=2, p=1e-2, samples=10),
        dict(distance=5, p=1.5, samples=10),
        dict(distance=5, p=1e-2, samples=0),
        dict(distance=5, p=1e-2, samples=10, decoder="tensor-network"),
        dict(distance=5, p=1e-2, samples=10, packing="words"),
        dict(distance=5, p=1e-2, samples=10, decode="quantum"),
        dict(distance=5, p=1e-2, samples=10, seed=-1),
        dict(distance=5, p=1e-2, samples=10, seed=2 ** 63),
        dict(distance=5, p=1e-2, samples=10, batch_size=0),
        dict(distance=5, p=1e-2, samples=10, region="somewhere"),
        dict(distance=5, p=1e-2, samples=10, target_rel_width=0.0),
        # An empty window is no strike, yet informed decoding would
        # still weight the box.
        dict(distance=5, p=1e-2, samples=10, informed=True,
             region=AnomalousRegion(1, 1, 2, t_lo=3, t_hi=3)),
        # Integer fields take exact ints: a non-integral value would
        # crash in compute, and a bool or an integral float would hash
        # apart from the int it aliases.
        dict(distance=5.5, p=1e-2, samples=10),
        dict(distance=5, p=1e-2, samples=8.5),
        dict(distance=5.0, p=1e-2, samples=10),
        dict(distance=5, p=1e-2, samples=10, seed=True),
        dict(distance=5, p=1e-2, samples=10, batch_size=2.5),
        dict(distance=5, p=1e-2, samples=10, batch_size=True),
        dict(distance=5, p=True, samples=10),
        dict(distance=5, p=1e-2, samples=10, target_rel_width=float("inf")),
        dict(distance=5, p=1e-2, samples=10, informed="yes"),
    ])
    def test_memory_spec_rejects(self, kwargs):
        with pytest.raises(campaigns.SpecError):
            campaigns.MemorySpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(distance=5, p=1e-2, shots=10, onset=300, cycles=300),
        dict(distance=5, p=1e-2, shots=0),
        dict(distance=5, p=1e-2, shots=10, alpha=0.0),
        dict(distance=5, p=1e-2, shots=10, c_win=0),
        dict(distance=5, p=1e-2, shots=10.5),
        dict(distance=5, p=1e-2, shots=10, onset=True),
        dict(distance=5, p=1e-2, shots=10, cycles=300.0),
        dict(distance=5, p=1e-2, shots=10, batch_size=2.5),
    ])
    def test_endtoend_spec_rejects(self, kwargs):
        with pytest.raises(campaigns.SpecError):
            campaigns.EndToEndSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(distance=5, p=1e-3, p_ano=0.05, anomaly_size=0, c_win=40),
        dict(distance=5, p=1e-3, p_ano=2.0, anomaly_size=2, c_win=40),
        dict(distance=5, p=1e-3, p_ano=0.05, anomaly_size=2, c_win=40,
             normal_cycles=0),
        dict(distance=5, p=1e-3, p_ano=0.05, anomaly_size=2, c_win=40,
             scan="windowed"),
    ])
    def test_detection_spec_rejects(self, kwargs):
        with pytest.raises(campaigns.SpecError):
            campaigns.DetectionSpec(**kwargs)

    def test_scaling_and_throughput_reject(self):
        with pytest.raises(campaigns.SpecError):
            campaigns.ScalingSpec(areas=())
        with pytest.raises(campaigns.SpecError):
            campaigns.ThroughputSpec(architecture="ibm")
        # Planes hosting fewer than two logical qubits cannot pair them.
        for rows, cols in [(3, 3), (1, 11), (2, 3), (11, 1), (3, 2)]:
            with pytest.raises(campaigns.SpecError):
                campaigns.ThroughputSpec(rows=rows, cols=cols)
        campaigns.ThroughputSpec(rows=3, cols=4)   # 2 qubits: accepted

    def test_detection_resolved_cycles_defaults(self):
        spec = campaigns.DetectionSpec(distance=7, p=1e-3, p_ano=0.05,
                                       anomaly_size=2, c_win=40)
        assert spec.resolved_cycles() == (80, 160)


# ----------------------------------------------------------------------
# JSON round trips
# ----------------------------------------------------------------------
def _example_specs():
    return [
        campaigns.MemorySpec(distance=9, p=6e-3, samples=50,
                             region="centered", anomaly_size=4,
                             informed=True, seed=7, batch_size=16,
                             target_rel_width=0.25, packing="none",
                             decode="pershot"),
        campaigns.MemorySpec(
            distance=5, p=2e-2, samples=10,
            region=AnomalousRegion(1, 2, 2, t_lo=3, t_hi=9)),
        campaigns.EndToEndSpec(distance=5, p=1e-2, shots=12, onset=30,
                               cycles=60, c_win=20, n_th=4, seed=11),
        campaigns.DetectionSpec(distance=7, p=2e-3, p_ano=0.05,
                                anomaly_size=2, c_win=40, n_th=3,
                                trials=4, seed=1),
        campaigns.ScalingSpec(areas=(2.0, 8.0), horizon_cycles=500_000),
        campaigns.ThroughputSpec(architecture="q3de", num_instructions=30,
                                 strike_prob_per_slot=1e-4, seed=3),
    ]


#: Arbitrary JSON values (strict JSON: no NaN or infinities).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=12)


@st.composite
def _near_spec_docs(draw):
    """A valid wire dict (one per kind, plus a sweep) with up to three
    entries replaced by arbitrary or plausible JSON values."""
    specs = _example_specs() + [campaigns.Sweep(
        _example_specs()[0], axes={"distance": [5, 7]})]
    doc = campaigns.spec_to_dict(draw(st.sampled_from(specs)))
    values = _JSON | st.integers(-3, 400) | st.floats(0.0, 1.0) \
        | st.sampled_from(["bits", "none", "batched", "centered",
                           "memory", "sweep", "greedy"])
    names = sorted(doc) + ["axes", "junk"]
    for name in draw(st.lists(st.sampled_from(names), max_size=3)):
        doc[name] = draw(values)
    return doc


class TestSpecJson:
    @pytest.mark.parametrize("spec", _example_specs(),
                             ids=lambda s: type(s).__name__)
    def test_round_trip(self, spec):
        text = campaigns.spec_to_json(spec)
        again = campaigns.spec_from_json(text)
        assert again == spec
        assert campaigns.spec_hash(again) == campaigns.spec_hash(spec)

    def test_sweep_round_trip(self):
        sweep = campaigns.Sweep(
            campaigns.MemorySpec(distance=5, p=1e-2, samples=10),
            axes={"distance": [5, 7], "p": [1e-2, 2e-2],
                  "region": [None, "centered",
                             AnomalousRegion(0, 0, 2)]})
        again = campaigns.spec_from_json(campaigns.spec_to_json(sweep))
        assert again == sweep
        assert [o for o, _ in again.points()] == \
            [o for o, _ in sweep.points()]

    def test_wire_dict_shape(self):
        doc = campaigns.spec_to_dict(_example_specs()[1])
        assert doc["kind"] == "memory"
        assert doc["region"] == {"row_lo": 1, "col_lo": 2, "size": 2,
                                 "t_lo": 3, "t_hi": 9}
        # Canonical JSON is pure data: parseable by a strict parser.
        json.loads(campaigns.spec_to_json(_example_specs()[1]))

    @pytest.mark.parametrize("doc", [
        "[]",
        '{"kind": "warp"}',
        '{"kind": "memory"}',                       # missing required
        '{"kind": "memory", "distance": 5, "p": 0.01, "samples": 2,'
        ' "turbo": true}',                          # unknown field
        '{"kind": "memory", "distance": 5, "p": 0.01, "samples": 2,'
        ' "region": 7}',                            # bad region
        "{not json",
        '{"kind": ["memory"]}',                     # unhashable kind
        '{"kind": "sweep", "base": {"kind": "memory", "distance": 5,'
        ' "p": 0.01, "samples": 2}, "axes": {"p": 0.1}}',  # scalar axis
        '{"kind": "sweep", "base": {"kind": "memory", "distance": 5,'
        ' "p": 0.01, "samples": 2}, "axes": {"region": 7}}',
        '{"kind": "memory", "distance": 5, "p": 0.01, "samples": 2,'
        ' "target_rel_width": Infinity}',           # not JSON
        '{"kind": "memory", "distance": 5, "p": NaN, "samples": 2}',
        "[" * 100_000,                              # too deep to parse
        '{"kind": "memory", "distance": 5, "p": 0.01, "samples": 2,'
        ' "region": {"row_lo": 1.5, "col_lo": 0, "size": 2}}',
        '{"kind": "scenario", "distance": 5, "p": 0.01, "shots": 2,'
        ' "scenario": {"events": [{"onset": 5.5, "size": 2, "row": 0,'
        ' "col": 0}]}}',
        '{"kind": "scenario", "distance": 3, "p": 0.01, "shots": 2,'
        ' "scenario": {"drift": [1e999999]}}',        # overflows float
        '{"kind": "scenario", "distance": 3, "p": 0.01, "shots": 2,'
        ' "scenario": {"drift": [' + "9" * 400 + ']}}',
    ])
    def test_bad_documents_rejected(self, doc):
        with pytest.raises(campaigns.SpecError):
            campaigns.spec_from_json(doc)

    @settings(max_examples=25, deadline=None)
    @given(distance=st.integers(3, 21),
           p=st.floats(0.0, 1.0, allow_nan=False),
           samples=st.integers(1, 10_000),
           seed=st.integers(0, 2 ** 63 - 1),
           informed=st.booleans(),
           decoder=st.sampled_from(["greedy", "mwpm"]),
           packing=st.sampled_from(["bits", "none"]),
           batch_size=st.one_of(st.none(), st.integers(1, 4096)),
           region=st.one_of(
               st.none(), st.just("centered"),
               st.builds(AnomalousRegion,
                         row_lo=st.integers(0, 8),
                         col_lo=st.integers(0, 8),
                         size=st.integers(1, 6),
                         t_lo=st.integers(0, 50))))
    def test_memory_round_trip_property(self, **kwargs):
        spec = campaigns.MemorySpec(**kwargs)
        again = campaigns.spec_from_json(campaigns.spec_to_json(spec))
        assert again == spec
        assert campaigns.spec_hash(again) == campaigns.spec_hash(spec)

    @settings(max_examples=400, deadline=None)
    @given(doc=st.one_of(_JSON, _near_spec_docs()))
    def test_any_json_is_a_spec_or_spec_error(self, doc):
        """The fuzzed spec boundary fails closed: any JSON value parses
        to a spec or raises SpecError, and whatever parses hashes and
        round-trips — so the service can always key it."""
        try:
            spec = campaigns.spec_from_json(json.dumps(doc))
        except campaigns.SpecError:
            return
        again = campaigns.spec_from_json(campaigns.spec_to_json(spec))
        assert campaigns.spec_hash(again) == campaigns.spec_hash(spec)

    def test_hash_distinguishes_specs(self):
        a = campaigns.MemorySpec(distance=5, p=1e-2, samples=10)
        b = dataclasses.replace(a, seed=1)
        c = dataclasses.replace(a, batch_size=32)
        assert len({campaigns.spec_hash(s) for s in (a, b, c)}) == 3


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class TestSweep:
    def test_expansion_order_and_seeds(self):
        base = campaigns.MemorySpec(distance=5, p=1e-2, samples=10, seed=9)
        sweep = campaigns.Sweep(base, axes={"distance": [5, 7],
                                            "p": [1e-2, 2e-2]})
        points = list(sweep.points())
        assert [o for o, _ in points] == [
            {"distance": 5, "p": 1e-2}, {"distance": 5, "p": 2e-2},
            {"distance": 7, "p": 1e-2}, {"distance": 7, "p": 2e-2}]
        seeds = [s.seed for _, s in points]
        assert len(set(seeds)) == 4  # independent ...
        assert seeds == [s.seed for _, s in sweep.points()]  # ... stable
        assert len(sweep) == 4

    def test_derive_seeds_off_keeps_base_seed(self):
        base = campaigns.ScalingSpec(areas=(2.0,), seed=5)
        sweep = campaigns.Sweep(base, axes={"use_q3de": [True, False]},
                                derive_seeds=False)
        assert [s.seed for _, s in sweep.points()] == [5, 5]

    def test_bad_axes_rejected(self):
        base = campaigns.MemorySpec(distance=5, p=1e-2, samples=10)
        with pytest.raises(campaigns.SpecError):
            campaigns.Sweep(base, axes={"flux": [1]})
        with pytest.raises(campaigns.SpecError):
            campaigns.Sweep(base, axes={"p": []})
        with pytest.raises(campaigns.SpecError):
            campaigns.Sweep(campaigns.Sweep(base, axes={}), axes={})
        with pytest.raises(campaigns.SpecError):
            campaigns.Sweep(base, axes={"p": 0.1})   # not a list
        with pytest.raises(campaigns.SpecError):
            campaigns.Sweep(base, axes={"decoder": "mwpm"})  # nor a str
        with pytest.raises(campaigns.SpecError):
            campaigns.Sweep(base, derive_seeds="no")

    def test_run_returns_sweep_result(self, tmp_path):
        base = campaigns.MemorySpec(distance=3, p=2e-2, samples=16,
                                    seed=2)
        sweep = campaigns.Sweep(base, axes={"p": [1e-2, 2e-2]})
        result = campaigns.run(sweep, checkpoint=tmp_path)
        assert len(result) == 2
        assert all(r.kind == "memory" for r in result.results)
        # one shard per grid point
        assert len(list(tmp_path.glob("*.jsonl"))) == 2
        doc = result.to_dict()
        assert [p["overrides"] for p in doc["points"]] == [
            {"p": 1e-2}, {"p": 2e-2}]


# ----------------------------------------------------------------------
# Registry and dispatch
# ----------------------------------------------------------------------
class TestRegistry:
    def test_known_kinds(self):
        kinds = campaigns.registered_kinds()
        assert set(kinds) >= {"memory", "endtoend", "detection",
                              "scaling", "throughput"}

    def test_unregistered_type_rejected(self):
        with pytest.raises(TypeError, match="no campaign runner"):
            campaigns.run(object())

    def test_register_campaign_extends(self):
        @dataclasses.dataclass(frozen=True)
        class EchoSpec:
            kind = "echo"
            payload: int = 0
            seed: int = 0

        from repro.campaigns.runner import _RUNNERS

        @campaigns.register_campaign(EchoSpec)
        def _run_echo(spec, executor, store):
            return campaigns.CampaignResult(
                kind=spec.kind, estimates={"payload": spec.payload})

        try:
            result = campaigns.run(EchoSpec(payload=41))
            assert result.estimates["payload"] == 41
        finally:
            _RUNNERS.pop(EchoSpec)


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class TestExecutors:
    def test_default_executor_mapping(self):
        assert isinstance(campaigns.default_executor(0),
                          campaigns.InlineExecutor)
        assert campaigns.default_executor(0).whole_request
        assert not campaigns.default_executor(1).whole_request
        pool = campaigns.default_executor(3)
        assert isinstance(pool, campaigns.ProcessPoolExecutor)
        assert pool.workers == 3

    def test_default_executor_rejects_negative_workers(self):
        # A negative count is a caller error, not a fan-out request.
        with pytest.raises(ValueError, match="workers"):
            campaigns.default_executor(-3)
        with pytest.raises(ValueError, match="workers"):
            MemoryExperiment(5, 2e-2).run(64, workers=-2)

    def test_default_executor_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert isinstance(campaigns.default_executor(),
                          campaigns.ProcessPoolExecutor)
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert campaigns.default_executor().whole_request

    def test_pool_requires_two_workers(self):
        with pytest.raises(ValueError):
            campaigns.ProcessPoolExecutor(1)
        with pytest.raises(ValueError):
            campaigns.ProcessPoolExecutor(4, max_inflight=3)

    def test_pool_submissions_are_windowed(self):
        # An early-stopped campaign must not have submitted the whole
        # plan: the pool pulls lazily, at most max_inflight ahead of
        # what the consumer has taken.
        kernel = MemoryShotKernel(3, 2e-2)
        plan = chunk_plan(96, 8, 3)  # 12 chunks
        pulled = []

        def tasks():
            for task in plan:
                pulled.append(task)
                yield task

        executor = campaigns.ProcessPoolExecutor(2)
        assert executor.max_inflight == 4
        stream = executor.run_chunks(kernel, "bits", tasks())
        next(stream)
        assert len(pulled) <= executor.max_inflight + 1
        stream.close()  # terminates the pool; no further pulls
        assert len(pulled) <= executor.max_inflight + 1

    def test_distributed_is_an_interface(self):
        spec = campaigns.MemorySpec(distance=3, p=1e-2, samples=4)
        with pytest.raises(NotImplementedError):
            campaigns.run(spec, executor=campaigns.DistributedExecutor())

    def test_distributed_reference_transport_runs(self, tmp_path):
        # The loopback stand-in of PR 5 grew into a real transport: the
        # filesystem work queue, here served by two in-process simulated
        # workers that rebuild kernels from spec JSON exactly as
        # ``python -m repro worker`` does.
        from repro.campaigns.faults import WorkerPoolSim

        spec = campaigns.MemorySpec(distance=3, p=2e-2, samples=32,
                                    seed=5, batch_size=8)
        sim = WorkerPoolSim(tmp_path / "q", workers=2)
        remote = campaigns.run(spec, executor=sim.executor())
        local = campaigns.run(spec, executor=campaigns.InlineExecutor())
        assert remote.counts["failures"] == local.counts["failures"]
        assert remote.provenance.supervisor["dispatched"] > 0

    def test_inline_vs_pool_vs_queue_bit_equal(self, tmp_path):
        from repro.campaigns.faults import WorkerPoolSim

        spec = campaigns.EndToEndSpec(distance=5, p=1e-2, shots=12,
                                      onset=30, cycles=60, c_win=20,
                                      n_th=4, seed=13, batch_size=4)
        inline = campaigns.run(spec, executor=campaigns.InlineExecutor())
        pooled = campaigns.run(
            spec, executor=campaigns.ProcessPoolExecutor(2))
        sim = WorkerPoolSim(tmp_path / "q", workers=2)
        queued = campaigns.run(spec, executor=sim.executor())
        assert inline.counts == pooled.counts
        assert inline.counts == queued.counts
        assert inline.estimates == queued.estimates


# ----------------------------------------------------------------------
# Shim equality: legacy entry points == campaign API, bit for bit
# ----------------------------------------------------------------------
def _direct(kernel, shots, batch_size, seed):
    """A hand-built kernel run chunk by chunk on the inline executor."""
    return np.concatenate([
        outcome for outcome, _ in campaigns.InlineExecutor().run_chunks(
            kernel, "bits", chunk_plan(shots, batch_size, seed))])


class TestLegacyShims:
    def test_memory_run_matches_direct_runner(self):
        region = AnomalousRegion.centered(5, 2)
        exp = MemoryExperiment(5, 2e-2, region=region)
        est = exp.run(300, workers=1, seed=11, batch_size=64)
        strike = StrikeEvent(onset=0, size=2, row=region.row_lo,
                             col=region.col_lo, p_ano=0.5)
        kernel = MemoryShotKernel(5, 2e-2, Scenario(events=(strike,)))
        out = _direct(kernel, 300, 64, 11)
        assert (est.failures, est.samples) == \
            (int(np.count_nonzero(out)), len(out))

    def test_memory_early_stop_matches(self):
        exp = MemoryExperiment(5, 3e-2)
        est = exp.run(5000, workers=1, seed=3, batch_size=128,
                      target_rel_width=0.5)
        # Replay the plan chunk by chunk under the same stop predicate.
        stream = campaigns.InlineExecutor().run_chunks(
            MemoryShotKernel(5, 3e-2), "bits", chunk_plan(5000, 128, 3))
        failures = samples = 0
        for outcome, _ in stream:
            failures += int(np.count_nonzero(outcome))
            samples += len(outcome)
            if wilson_tight(failures, samples, 0.5):
                break
        stream.close()
        assert (est.failures, est.samples) == (failures, samples)
        assert est.samples < 5000  # it actually stopped early

    def test_endtoend_run_matches_direct_runner(self):
        e2e = EndToEndExperiment(5, 0.01, onset=30, cycles=60, c_win=20,
                                 n_th=4)
        res = e2e.run(40, seed=5)
        strike = StrikeEvent(onset=30, size=4, p_ano=0.5)
        kernel = EndToEndShotKernel(5, 0.01, Scenario(events=(strike,)),
                                    60, 20, 4, 0.01)
        batch = default_chunk_shots(40, 60 * 4 * 5)
        out = _direct(kernel, 40, batch, 5)
        assert res.naive_failures == int(out[:, 0].sum())
        assert res.detected_failures == int(out[:, 1].sum())
        assert res.oracle_failures == int(out[:, 2].sum())
        assert res.detections == int((out[:, 3] >= 0).sum())

    def test_detection_run_matches_direct_runner(self):
        perf = run_detection_trials(7, 2e-3, 0.05, anomaly_size=2,
                                    c_win=40, n_th=3, trials=6, seed=9)
        strike = StrikeEvent(onset=80, size=2, p_ano=0.05)
        kernel = DetectionShotKernel(7, 2e-3, Scenario(events=(strike,)),
                                     40, 3, 0.01, 80, 160)
        batch = default_chunk_shots(6, 240 * 6 * 7)
        out = _direct(kernel, 6, batch, 9)
        assert perf.false_positives == int(out[:, 0].sum())
        assert perf.detections == int(out[:, 1].sum())

    def test_spec_equals_shim_per_seed_batch(self):
        spec = campaigns.MemorySpec(distance=5, p=2e-2, samples=200,
                                    seed=21, batch_size=64)
        direct = campaigns.run(spec)
        via_shim = MemoryExperiment(5, 2e-2).run(200, workers=1, seed=21,
                                                 batch_size=64)
        assert direct.counts["failures"] == via_shim.failures
        assert direct.detail.per_cycle == via_shim.per_cycle


# ----------------------------------------------------------------------
# Results and provenance
# ----------------------------------------------------------------------
class TestResults:
    def test_provenance_block(self):
        spec = campaigns.MemorySpec(distance=3, p=2e-2, samples=48,
                                    seed=4, batch_size=16)
        result = campaigns.run(spec, executor=campaigns.InlineExecutor())
        prov = result.provenance
        assert prov.spec_hash == campaigns.spec_hash(spec)
        assert prov.kind == "memory"
        assert prov.seed == 4
        assert "backend" not in prov.to_dict()  # NumPy is the only engine
        assert prov.executor == "inline"
        assert prov.packing == "bits"
        assert prov.batch_size == 16
        assert prov.chunks == 3
        assert prov.resumed_chunks == 0
        assert prov.wall_clock_s > 0
        import repro
        assert prov.version == repro.__version__

    def test_memory_batch_size_resolution_per_executor(self):
        # Unset batch_size: whole request (memory-capped) inline,
        # kernel fan-out default otherwise — consistent with the other
        # shot kinds.
        spec = campaigns.MemorySpec(distance=5, p=2e-2, samples=600,
                                    seed=6)
        whole = campaigns.run(spec, executor=campaigns.InlineExecutor())
        chunked = campaigns.run(
            spec, executor=campaigns.InlineExecutor(whole_request=False))
        assert whole.provenance.batch_size == 600
        assert whole.provenance.chunks == 1
        assert chunked.provenance.batch_size == 512
        assert chunked.provenance.chunks == 2

    def test_result_json_parses(self):
        spec = campaigns.ThroughputSpec(num_instructions=20,
                                        strike_prob_per_slot=1e-4,
                                        strike_duration_slots=10)
        doc = json.loads(campaigns.run(spec).to_json())
        assert doc["kind"] == "throughput"
        assert doc["estimates"]["throughput"] > 0
        assert doc["provenance"]["spec_hash"] == campaigns.spec_hash(spec)

    def test_scaling_campaign_matches_model(self):
        spec = campaigns.ScalingSpec(areas=(4.0,), horizon_cycles=200_000)
        result = campaigns.run(spec)
        from repro.scaling.model import ScalingParameters, density_curve
        expected = density_curve(
            ScalingParameters(horizon_cycles=200_000), [4.0], True, seed=0)
        assert result.detail == expected
        assert result.estimates["density_area_4"] == expected[0]

    def test_throughput_campaign_matches_model(self):
        spec = campaigns.ThroughputSpec(architecture="baseline",
                                        num_instructions=50, seed=2)
        result = campaigns.run(spec)
        from repro.arch.throughput import simulate_throughput
        expected = simulate_throughput(
            "baseline", 50, rng=np.random.default_rng(2))
        assert result.estimates["throughput"] == expected.throughput
        assert result.counts["instructions"] == expected.instructions

    def test_throughput_reports_capped_runs(self):
        capped = campaigns.run(campaigns.ThroughputSpec(
            num_instructions=200, max_slots=10, seed=3))
        assert capped.counts["instructions"] < 200
        assert capped.counts["slots"] == 10
        assert capped.counts["capped"] == 1
        done = campaigns.run(campaigns.ThroughputSpec(
            num_instructions=20, seed=3))
        assert done.counts["instructions"] == 20
        assert done.counts["capped"] == 0


# ----------------------------------------------------------------------
# Chunk-plan contract
# ----------------------------------------------------------------------
class TestChunkPlan:
    def test_plan_sizes(self):
        plan = chunk_plan(100, 32, 7)
        assert [size for size, _ in plan] == [32, 32, 32, 4]

    def test_plan_seed_children_are_stable(self):
        a = chunk_plan(64, 16, 5)
        b = chunk_plan(64, 16, 5)
        for (_, ca), (_, cb) in zip(a, b, strict=True):
            assert np.array_equal(ca.generate_state(4), cb.generate_state(4))

    def test_plan_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            chunk_plan(0, 8, 1)
        with pytest.raises(ValueError):
            chunk_plan(8, 0, 1)
