"""Batched shot engine vs the sequential per-shot path.

Times the Fig. 8 workload (the repo's heaviest Monte-Carlo hot path) at
equal sample counts through the sequential engine, the float batch
engine and the bit-packed batch engine, and prints the speedup table.
The acceptance bars: the batch engine pays for itself >= 5x over the
sequential path; the bit-packed sampling + syndrome-extraction stage
delivers >= 3x additional throughput over the float stage with per-shot
sample storage cut ~50x (8 bytes per sampled bit materialized by the
float64 draw vs one bit per bit plus a fixed 64-shot scratch block);
and the cross-shot bucketed decode engine delivers >= 3x decode-stage
throughput over the PR 2 per-shot decode loop on the same grid.

The batched results are also cross-checked for determinism and for the
certification contracts: same ``(seed, batch_size)`` must give
*bit-identical* failure counts through ``packing="bits"`` vs
``packing="none"`` and through ``decode="batched"`` vs
``decode="pershot"`` — speed must not cost reproducibility.

Stage throughputs and speedup ratios accumulate in ``BENCH_batch.json``
(see benchmarks/README.md for the schema) so the perf trajectory stays
machine-readable across PRs.
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro import campaigns
from repro.campaigns import EndToEndSpec, InlineExecutor, MemorySpec
from repro.campaigns.runner import shot_engine
from repro.decoding.graph import SyndromeLattice
from repro.noise import AnomalousRegion
from repro.noise.models import PACKED_SAMPLE_CHUNK, PhenomenologicalNoise
from repro.sim import bitops
from repro.sim.memory import MemoryExperiment

from _common import emit_json, mc_samples, mc_workers, print_table, scale

DISTANCES = [9, 13]
PHYSICAL_RATES = [8e-3, 1.5e-2, 2.5e-2]
ANOMALY_SIZE = 4


def _points():
    """The Fig. 8 rate grid: free / naive / informed per (d, p)."""
    points = []
    for d in DISTANCES:
        region = AnomalousRegion.centered(d, ANOMALY_SIZE)
        for p in PHYSICAL_RATES:
            points.append((f"d={d} p={p} free", d, p, None, False))
            points.append((f"d={d} p={p} naive", d, p, region, False))
            points.append((f"d={d} p={p} rollback", d, p, region, True))
    return points


def _campaign(samples: int, workers: int,
              packing: str = "bits") -> tuple[float, list[int]]:
    start = time.perf_counter()
    failures = []
    for idx, (_, d, p, region, informed) in enumerate(_points()):
        exp = MemoryExperiment(d, p, region=region, informed=informed)
        est = exp.run(samples, np.random.default_rng(idx),
                      workers=workers, seed=idx, packing=packing)
        failures.append(est.failures)
    return time.perf_counter() - start, failures


@pytest.mark.benchmark(group="batch")
def bench_batch_engine_speedup(benchmark):
    """Whole Fig. 8 grid: sequential vs batched (float and bit-packed)."""
    samples = mc_samples()
    workers = max(1, mc_workers())

    def run():
        seq_time, _ = _campaign(samples, workers=0)
        flt_time, flt_failures = _campaign(samples, workers, packing="none")
        bit_time, bit_failures = _campaign(samples, workers, packing="bits")
        rep_time, rep_failures = _campaign(samples, workers, packing="bits")
        return (seq_time, flt_time, bit_time,
                flt_failures, bit_failures, rep_failures)

    (seq_time, flt_time, bit_time, flt_failures, bit_failures,
     rep_failures) = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"Batch engine speedup (Fig. 8 grid, {samples} samples/point, "
        f"workers={workers})",
        ["engine", "wall clock (s)", "speedup"],
        [["sequential (workers=0)", f"{seq_time:.2f}", "1.0x"],
         ["batched float (packing=none)", f"{flt_time:.2f}",
          f"{seq_time / flt_time:.1f}x"],
         ["batched bit-packed (packing=bits)", f"{bit_time:.2f}",
          f"{seq_time / bit_time:.1f}x"]])

    # Reproducibility: the same seeds must give the same counts, and the
    # packed backend must be bit-identical to the float reference.
    assert bit_failures == rep_failures
    assert bit_failures == flt_failures, \
        "packed backend broke the bit-identical certification contract"
    # The acceptance bar: the batch engine pays for itself >= 5x.
    speedup = seq_time / min(flt_time, bit_time)
    emit_json("batch", "campaign", {
        "samples_per_point": samples,
        "workers": workers,
        "wall_clock_s": {"sequential": seq_time, "batched_float": flt_time,
                         "batched_bits": bit_time},
        "speedup_vs_sequential": {
            "batched_float": seq_time / flt_time,
            "batched_bits": seq_time / bit_time},
        "failures_bit_equal": True,
    })
    assert speedup >= 5.0, f"batch speedup {speedup:.2f}x < 5x"


def _float_stage(noise: PhenomenologicalNoise, lattice: SyndromeLattice,
                 shots: int, cycles: int, rng) -> None:
    v, h, m = noise.sample_batch(shots, cycles, rng)
    lattice.detection_events_batch(v, h, m)
    lattice.error_cut_parity(v)


def _packed_stage(noise: PhenomenologicalNoise, lattice: SyndromeLattice,
                  shots: int, cycles: int, rng) -> None:
    v, h, m = noise.sample_batch_packed(shots, cycles, rng)
    lattice.detection_events_packed(v, h, m)
    lattice.error_cut_parity_packed(v)


def _time_and_peak(fn, repeats: int = 3) -> tuple[float, int]:
    fn(0)  # warm-up (allocators, ufunc dispatch)
    start = time.perf_counter()
    for r in range(repeats):
        fn(r)
    elapsed = (time.perf_counter() - start) / repeats
    tracemalloc.start()
    fn(0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak


@pytest.mark.benchmark(group="batch")
def bench_packed_sampling_stage(benchmark):
    """Sampling + syndrome extraction: float vs bit-packed backend.

    This is the stage the bit-packed backend rewrites (the matching
    itself is shared, shot by shot, between both backends), measured at
    a campaign-scale batch on the Fig. 8 grid.  Bars: >= 3x aggregate
    throughput, ~50x smaller per-shot sample storage (reported model:
    8 B float64 draw + 1 B bool stored per sampled bit, against 1 bit
    stored plus the fixed 64-shot scratch block), and the measured
    whole-stage peak (which also carries the active-node coordinate
    arrays both backends hand to the decoder) >= 10x smaller.
    """
    # Batch size of a paper-scale packed campaign, not the MC depth knob.
    # The storage model amortizes the fixed 64-shot scratch block over
    # the batch, so REPRO_SCALE may grow the batch but never shrink it
    # below the regime the ~50x claim (and its assertion) is about.
    shots = max(8192, int(8192 * scale()))
    rows = []
    float_total = packed_total = 0.0
    mem_ratios = []
    storage_ratios = []

    def run():
        nonlocal float_total, packed_total
        for d in DISTANCES:
            p = PHYSICAL_RATES[-1]  # activity, not rate, drives the stage
            noise = PhenomenologicalNoise(
                d, p, 0.5, AnomalousRegion.centered(d, ANOMALY_SIZE))
            lattice = SyndromeLattice(d)
            flt_t, flt_peak = _time_and_peak(
                lambda r, noise=noise, lattice=lattice, d=d:
                    _float_stage(noise, lattice, shots, d,
                                 np.random.default_rng(r)))
            bit_t, bit_peak = _time_and_peak(
                lambda r, noise=noise, lattice=lattice, d=d:
                    _packed_stage(noise, lattice, shots, d,
                                  np.random.default_rng(r)))
            float_total += flt_t
            packed_total += bit_t
            mem_ratios.append(flt_peak / bit_peak)

            # Per-shot sample storage model, from real array sizes.
            bits_per_shot = d * (d * d + (d - 1) ** 2 + (d - 1) * d)
            float_bytes = 9.0 * bits_per_shot  # 8 B draw + 1 B stored
            packed_bytes = (bits_per_shot / 8.0
                            + 9.0 * bits_per_shot
                            * PACKED_SAMPLE_CHUNK / shots)
            storage_ratios.append(float_bytes / packed_bytes)
            rows.append([f"d={d} p={p}",
                         f"{flt_t * 1e3:.0f} / {bit_t * 1e3:.0f}",
                         f"{flt_t / bit_t:.1f}x",
                         f"{flt_peak / 1e6:.0f} / {bit_peak / 1e6:.1f}",
                         f"{flt_peak / bit_peak:.0f}x",
                         f"{float_bytes / 1e3:.0f} / "
                         f"{packed_bytes / 1e3:.2f}",
                         f"{float_bytes / packed_bytes:.0f}x"])

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"Bit-packed sampling + extraction stage ({shots} shots/batch)",
        ["point", "float/bits (ms)", "speedup",
         "peak float/bits (MB)", "peak ratio",
         "sample KB/shot float/bits", "storage ratio"],
        rows)

    throughput = float_total / packed_total
    emit_json("batch", "packed_sampling_stage", {
        "shots_per_batch": shots,
        "throughput_ratio": throughput,
        "storage_ratio_min": min(storage_ratios),
        "measured_peak_ratio_min": min(mem_ratios),
    })
    assert throughput >= 3.0, \
        f"packed stage throughput {throughput:.2f}x < 3x"
    assert min(storage_ratios) >= 40.0, \
        f"sample storage reduction {min(storage_ratios):.0f}x < ~50x"
    assert min(mem_ratios) >= 10.0, \
        f"measured stage peak reduction {min(mem_ratios):.0f}x < 10x"


def _decode_stage_data(d, p, region, informed, shots, seed):
    """Sample + extract one packed chunk and build both kernels."""
    kernels = {}
    for mode in ("pershot", "batched"):
        k, _, _ = shot_engine(MemorySpec(
            distance=d, p=p, samples=shots, region=region,
            informed=informed, decode=mode))
        k.prepare()
        kernels[mode] = k
    noise, lattice, _, _ = kernels["batched"]._state
    v, h, m = noise.sample_batch_packed(shots, d,
                                        np.random.default_rng(seed))
    coords, vals, bounds = lattice.detection_events_packed(v, h, m)
    parity_words = lattice.error_cut_parity_packed(v)
    return kernels, lattice, coords, vals, bounds, parity_words


def _decode_stage_pershot(kernel, lattice, coords, vals, bounds,
                          parity_words, shots):
    """The PR 2 decode loop: per-shot lane unpack + per-shot matching."""
    out = np.empty(shots, dtype=np.int8)
    for s in range(shots):
        nodes = lattice.shot_nodes(coords, vals, bounds, s)
        out[s] = bitops.lane_bit(parity_words, s) ^ kernel._cut_parity(nodes)
    return out


def _decode_stage_batched(kernel, lattice, coords, vals, parity_words,
                          shots):
    """The bucketed engine: bulk node gather + cross-shot decode."""
    nodes, offsets = lattice.shot_nodes_bulk(coords, vals, shots)
    nodes_list = [nodes[offsets[s]:offsets[s + 1]] for s in range(shots)]
    err = bitops.unpack_shots(parity_words, shots).astype(np.int8)
    return err ^ kernel._cut_parities(nodes_list)


@pytest.mark.benchmark(group="batch")
def bench_decode_stage_speedup(benchmark):
    """Decode stage: bucketed batched engine vs the PR 2 per-shot loop.

    Same packed chunk, same models, outputs asserted bit-equal; the
    acceptance bar is >= 3x aggregate decode-stage throughput on the
    Fig. 8 grid (NumPy backend).  Campaign failure counts are also
    asserted bit-equal through ``decode="batched"`` vs ``"pershot"``
    for the same ``(seed, batch_size)``.
    """
    shots = max(1024, int(1024 * scale()))
    repeats = 5
    rows = []
    points = []
    pershot_total = batched_total = 0.0

    def run():
        nonlocal pershot_total, batched_total
        for idx, (label, d, p, region, informed) in enumerate(_points()):
            (kernels, lattice, coords, vals, bounds,
             parity_words) = _decode_stage_data(
                d, p, region, informed, shots, seed=idx)
            best = {}
            for mode in ("pershot", "batched"):
                kern = kernels[mode]
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    if mode == "pershot":
                        out = _decode_stage_pershot(
                            kern, lattice, coords, vals, bounds,
                            parity_words, shots)
                    else:
                        out = _decode_stage_batched(
                            kern, lattice, coords, vals, parity_words,
                            shots)
                    times.append(time.perf_counter() - start)
                # min over repeats: the least-interference estimate on
                # a noisy shared machine, applied to both engines alike
                best[mode] = (min(times), out)
            t_ps, out_ps = best["pershot"]
            t_bt, out_bt = best["batched"]
            assert np.array_equal(out_ps, out_bt), \
                f"batched decode diverged from per-shot on {label}"
            pershot_total += t_ps
            batched_total += t_bt
            points.append({"point": label, "pershot_s": t_ps,
                           "batched_s": t_bt})
            rows.append([label, f"{t_ps * 1e3:.0f}", f"{t_bt * 1e3:.0f}",
                         f"{t_ps / t_bt:.1f}x"])

    benchmark.pedantic(run, rounds=1, iterations=1)

    ratio = pershot_total / batched_total
    print_table(
        f"Decode stage: per-shot loop vs bucketed engine "
        f"({shots} shots/chunk, best of {repeats})",
        ["point", "per-shot (ms)", "batched (ms)", "speedup"],
        rows + [["TOTAL", f"{pershot_total * 1e3:.0f}",
                 f"{batched_total * 1e3:.0f}", f"{ratio:.1f}x"]])

    # Campaign-level certification: same (seed, batch_size), same counts.
    fails = {}
    for mode in ("pershot", "batched"):
        res = campaigns.run(MemorySpec(
            distance=13, p=PHYSICAL_RATES[-1], samples=1024,
            region="centered", anomaly_size=ANOMALY_SIZE, informed=True,
            decode=mode, packing="bits", batch_size=256, seed=71),
            executor=InlineExecutor())
        fails[mode] = res.counts["failures"]
    assert fails["pershot"] == fails["batched"], \
        "batched campaign diverged from the per-shot packed path"

    emit_json("batch", "decode_stage", {
        "shots_per_chunk": shots,
        "repeats_min_of": repeats,
        "pershot_total_s": pershot_total,
        "batched_total_s": batched_total,
        "throughput_ratio": ratio,
        "campaign_failures_bit_equal": True,
        "points": points,
    })
    assert ratio >= 3.0, f"decode-stage throughput {ratio:.2f}x < 3x"


def _e2e_kernels(d, p, mode_list, onset, cycles, c_win):
    """Both decode-mode kernels for one Fig. 8 end-to-end point."""
    kernels = {}
    for mode in mode_list:
        k, _, _ = shot_engine(EndToEndSpec(
            distance=d, p=p, shots=1, p_ano=0.5, anomaly_size=ANOMALY_SIZE,
            onset=onset, cycles=cycles, c_win=c_win, n_th=8, alpha=0.01,
            decode=mode))
        k.prepare()
        kernels[mode] = k
    return kernels


@pytest.mark.benchmark(group="batch")
def bench_e2e_decode_stage_speedup(benchmark):
    """End-to-end decode stage: region-bucketed engine vs per-shot loop.

    The campaign's naive/oracle/detected triple used to decode shot by
    shot because every shot carries its own strike region (true and
    estimated, with per-shot onsets).  The region-aware engine folds
    those boxes into its bucket tensors, so the whole chunk decodes in
    a handful of vectorized passes.  Same chunk, same models, outputs
    asserted bit-equal; the acceptance bar is >= 3x aggregate
    decode-stage throughput on the Fig. 8 end-to-end grid.
    """
    shots = max(128, int(128 * scale()))
    repeats = 3
    onset, c_win = 60, 40
    rows = []
    points = []
    pershot_total = batched_total = 0.0

    def run():
        nonlocal pershot_total, batched_total
        for idx, d in enumerate(DISTANCES):
            for p in PHYSICAL_RATES:
                label = f"d={d} p={p}"
                kernels = _e2e_kernels(d, p, ("pershot", "batched"),
                                       onset, onset + 2 * d, c_win)
                chunk = kernels["batched"]._chunk_packed(
                    shots, np.random.default_rng(idx))
                best = {}
                for mode in ("pershot", "batched"):
                    kern = kernels[mode]
                    times = []
                    for _ in range(repeats):
                        start = time.perf_counter()
                        out = kern._assemble(*chunk)
                        times.append(time.perf_counter() - start)
                    # min over repeats: least-interference estimate,
                    # applied to both engines alike
                    best[mode] = (min(times), out)
                t_ps, out_ps = best["pershot"]
                t_bt, out_bt = best["batched"]
                assert np.array_equal(out_ps, out_bt), \
                    f"region-bucketed decode diverged on {label}"
                pershot_total += t_ps
                batched_total += t_bt
                points.append({"point": label, "pershot_s": t_ps,
                               "batched_s": t_bt})
                rows.append([label, f"{t_ps * 1e3:.0f}",
                             f"{t_bt * 1e3:.0f}",
                             f"{t_ps / t_bt:.1f}x"])

    benchmark.pedantic(run, rounds=1, iterations=1)

    ratio = pershot_total / batched_total
    print_table(
        f"End-to-end decode stage: per-shot loop vs region-bucketed "
        f"engine ({shots} shots/chunk, best of {repeats})",
        ["point", "per-shot (ms)", "batched (ms)", "speedup"],
        rows + [["TOTAL", f"{pershot_total * 1e3:.0f}",
                 f"{batched_total * 1e3:.0f}", f"{ratio:.1f}x"]])

    # Campaign-level certification: same (seed, batch_size), same
    # failure/detection counts and latency estimates.
    camp = {}
    for mode in ("pershot", "batched"):
        res = campaigns.run(EndToEndSpec(
            distance=9, p=PHYSICAL_RATES[0], shots=192, p_ano=0.5,
            anomaly_size=ANOMALY_SIZE, onset=onset, cycles=onset + 18,
            c_win=c_win, n_th=8, alpha=0.01, decode=mode, packing="bits",
            batch_size=64, seed=71), executor=InlineExecutor())
        camp[mode] = [res.counts[k] for k in (
            "shots", "naive_failures", "detected_failures",
            "oracle_failures", "detections")] + [
            res.estimates["mean_latency"]]
    assert np.array_equal(camp["pershot"], camp["batched"],
                          equal_nan=True), \
        "region-bucketed campaign diverged from the per-shot path"

    emit_json("batch", "e2e_decode_stage", {
        "shots_per_chunk": shots,
        "repeats_min_of": repeats,
        "pershot_total_s": pershot_total,
        "batched_total_s": batched_total,
        "throughput_ratio": ratio,
        "campaign_rows_bit_equal": True,
        "points": points,
    })
    assert ratio >= 3.0, \
        f"e2e decode-stage throughput {ratio:.2f}x < 3x"


#: One ``endtoend_pano03``-shaped chunk: every strike-informed decode
#: runs the weighted float tier (p_ano = 0.3, w_ano ~ 0.18).
FLOAT_DECODE_POINT = dict(distance=9, p=0.01, p_ano=0.3, cycles=300,
                          onset=150)


def _float_decode_chunk(shots, seed, **point):
    """Per-shot and batched kernels plus one sampled + detected chunk."""
    kernels = {}
    for mode in ("pershot", "batched"):
        k, _, _ = shot_engine(EndToEndSpec(shots=shots, decode=mode,
                                           **point))
        k.prepare()
        kernels[mode] = k
    chunk = kernels["batched"]._chunk_packed(
        shots, np.random.default_rng(seed))
    return kernels, chunk


@pytest.mark.benchmark(group="batch")
def bench_float_decode_stage(benchmark):
    """Absolute throughput of the weighted (float-tier) decode stage.

    Times the batched decode + accumulate tail of one ``endtoend_pano03``
    -shaped chunk (d=9, p=0.01, p_ano=0.3, 300 cycles, onset 150): the
    naive matching batches in the integer engine, the oracle and
    detected matchings decode shot by shot in the sparse float core.
    Recorded as shots and active nodes per second (best of the
    repeats), with the rows asserted bit-equal to the per-shot loop.
    """
    shots = max(16, int(16 * scale()))
    repeats = 3
    kernels, chunk = _float_decode_chunk(shots, 0, **FLOAT_DECODE_POINT)
    nodes = sum(len(n) for n in chunk[0])

    def run():
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            out = kernels["batched"]._assemble(*chunk)
            times.append(time.perf_counter() - start)
        return min(times), out

    best, out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert np.array_equal(out, kernels["pershot"]._assemble(*chunk)), \
        "batched float decode diverged from the per-shot loop"
    print_table(
        f"Weighted decode stage (d=9 p=0.01 p_ano=0.3, {shots} shots, "
        f"{nodes} nodes, best of {repeats})",
        ["wall clock (ms)", "shots/s", "nodes/s"],
        [[f"{best * 1e3:.0f}", f"{shots / best:.1f}",
          f"{nodes / best:.0f}"]])
    emit_json("batch", "float_decode_stage", {
        "shots_per_chunk": shots,
        "nodes_per_chunk": nodes,
        "repeats_min_of": repeats,
        "throughput_shots_per_sec": shots / best,
        "throughput_nodes_per_sec": nodes / best,
        "pershot_rows_bit_equal": True,
    })


@pytest.mark.benchmark(group="batch")
def bench_batch_single_point_timing(benchmark):
    """Time the heaviest single point (d=13, p=2.5e-2, informed)."""
    samples = mc_samples()
    exp = MemoryExperiment(13, 2.5e-2,
                           region=AnomalousRegion.centered(13, ANOMALY_SIZE),
                           informed=True)
    est = benchmark.pedantic(
        exp.run, args=(samples,),
        kwargs=dict(workers=max(1, mc_workers()), seed=5),
        rounds=1, iterations=1)
    assert est.samples == samples


def smoke() -> None:
    """One tiny grid point per engine path (bench_smoke marker)."""
    exp = MemoryExperiment(5, 2.5e-2,
                           region=AnomalousRegion.centered(5, 2),
                           informed=True)
    bits = exp.run(32, workers=1, seed=3, packing="bits")
    none = exp.run(32, workers=1, seed=3, packing="none")
    assert bits.failures == none.failures
    kernels, lattice, coords, vals, bounds, parity_words = \
        _decode_stage_data(5, 2.5e-2, AnomalousRegion.centered(5, 2),
                           True, 40, seed=1)
    ps = _decode_stage_pershot(kernels["pershot"], lattice, coords, vals,
                               bounds, parity_words, 40)
    bt = _decode_stage_batched(kernels["batched"], lattice, coords, vals,
                               parity_words, 40)
    assert np.array_equal(ps, bt)
    e2e = _e2e_kernels(5, 2.5e-2, ("pershot", "batched"), 20, 36, 12)
    chunk = e2e["batched"]._chunk_packed(24, np.random.default_rng(2))
    assert np.array_equal(e2e["pershot"]._assemble(*chunk),
                          e2e["batched"]._assemble(*chunk))
    flt, chunk = _float_decode_chunk(
        4, 1, **dict(FLOAT_DECODE_POINT, distance=5, cycles=40, onset=20))
    assert np.array_equal(flt["pershot"]._assemble(*chunk),
                          flt["batched"]._assemble(*chunk))
