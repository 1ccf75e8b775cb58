"""Fig. 10: instruction throughput under cosmic rays.

Paper setup: 10^4 meas_ZZ instructions on random pairs of the 25 logical
qubits of an 11x11 block plane; MBBEs strike each block with probability
``d tau_cyc f_ano`` per d-cycle slot and last 100d or 1000d cycles.

Expected shape: MBBE-free ~6 instructions per d cycles; the baseline
(doubled default distance) sits at about half; Q3DE tracks MBBE-free at
realistic ray frequencies (~1e-5) and degrades only as the frequency
approaches 1e-2, with longer bursts hurting more.
"""

import time

import pytest

from repro import campaigns

from _common import emit_json, mc_workers, print_table, scale

FREQUENCIES = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]


def _point_spec(architecture, n_inst, freq=0.0, duration_slots=100,
                seed=7) -> campaigns.ThroughputSpec:
    """One Fig. 10 point as a declarative ``ThroughputSpec``."""
    return campaigns.ThroughputSpec(
        architecture=architecture, num_instructions=n_inst,
        strike_prob_per_slot=freq, strike_duration_slots=duration_slots,
        seed=seed)


def _run_point(spec_json: str) -> tuple[float, bool]:
    """Pool-picklable point runner (specs travel as their JSON).

    Returns the throughput and whether the run stopped at ``max_slots``
    before finishing its instructions.
    """
    spec = campaigns.spec_from_json(spec_json)
    result = campaigns.run(spec)
    return result.estimates["throughput"], bool(result.counts["capped"])


def _run_points(specs) -> list[tuple[float, bool]]:
    """Run point specs inline, or on a pool when REPRO_WORKERS > 1.

    Every point carries its own seed inside its spec, so results are
    identical either way — the legacy ``throughput_sweep(workers=)``
    contract, now spec-shaped.
    """
    payloads = [campaigns.spec_to_json(spec) for spec in specs]
    workers = mc_workers()
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            return pool.map(_run_point, payloads)
    return [_run_point(payload) for payload in payloads]


def _series(n_inst, duration_slots, seed=7):
    """The sweep of ``throughput_sweep``, one spec per point.

    Per-point derived seeds (``seed + idx`` for the q3de curve) mirror
    the legacy helper so the series stay reproducible point by point.
    Returns the throughput series and, per series, which points were
    capped at ``max_slots``.
    """
    q3de = _run_points([
        _point_spec("q3de", n_inst, freq, duration_slots, seed=seed + idx)
        for idx, freq in enumerate(FREQUENCIES)])
    flat = _run_points([_point_spec("mbbe_free", n_inst, seed=seed),
                        _point_spec("baseline", n_inst, seed=seed)])
    points = {
        "q3de": q3de,
        "mbbe_free": [flat[0]] * len(FREQUENCIES),
        "baseline": [flat[1]] * len(FREQUENCIES),
    }
    return ({k: [t for t, _ in v] for k, v in points.items()},
            {k: [c for _, c in v] for k, v in points.items()})


def _cell(value: float, capped: bool):
    """A table cell; capped points are marked, not read as rates."""
    return f"{value:.4g} (capped)" if capped else value


@pytest.mark.benchmark(group="fig10")
def bench_fig10_throughput_sweep(benchmark):
    """Regenerate all four Fig. 10 series."""
    n_inst = max(200, int(1000 * scale()))

    def run():
        start = time.perf_counter()
        short = _series(n_inst, duration_slots=100)
        long = _series(n_inst, duration_slots=1000)
        return short, long, time.perf_counter() - start

    (short, short_capped), (long, long_capped), wall = benchmark.pedantic(
        run, rounds=1, iterations=1)

    emit_json("batch", "fig10_throughput", {
        "instructions": n_inst,
        "wall_clock_s": wall,
        "instructions_per_d_cycles": {
            "mbbe_free": short["mbbe_free"][0],
            "baseline": short["baseline"][0],
            "q3de_realistic_freq": short["q3de"][1],
            "q3de_heavy_freq": short["q3de"][-1],
            "q3de_long_bursts_heavy": long["q3de"][-1]},
    })
    rows = []
    for i, freq in enumerate(FREQUENCIES):
        rows.append([
            freq,
            _cell(short["mbbe_free"][i], short_capped["mbbe_free"][i]),
            _cell(short["baseline"][i], short_capped["baseline"][i]),
            _cell(short["q3de"][i], short_capped["q3de"][i]),
            _cell(long["q3de"][i], long_capped["q3de"][i])])
    print_table(
        "Fig. 10: instructions per d code cycles",
        ["d*tau_cyc*f_ano", "MBBE free", "baseline",
         "Q3DE tau/d=100", "Q3DE tau/d=1000"],
        rows)
    print("(capped): stopped at max_slots before finishing the workload; "
          "a saturation artefact, not a throughput")

    free = short["mbbe_free"][0]
    base = short["baseline"][0]
    # Baseline throughput is about half of MBBE-free.
    assert base == pytest.approx(free / 2, rel=0.25)
    # At realistic frequencies Q3DE matches MBBE-free within a few %.
    assert short["q3de"][1] >= 0.9 * free
    # Longer bursts are never better.
    assert long["q3de"][-1] <= short["q3de"][-1] + 0.5
    # Heavy rays degrade Q3DE below its calm-weather throughput.
    assert short["q3de"][-1] <= short["q3de"][0]


@pytest.mark.benchmark(group="fig10")
def bench_fig10_single_run_timing(benchmark):
    """Time one mid-frequency Q3DE run (the harness's hot path)."""
    spec = campaigns.ThroughputSpec(
        architecture="q3de", num_instructions=300,
        strike_prob_per_slot=1e-4, strike_duration_slots=100, seed=3)
    result = benchmark.pedantic(campaigns.run, args=(spec,),
                                rounds=3, iterations=1)
    assert result.counts["instructions"] == 300


def smoke() -> None:
    """One tiny grid point (bench_smoke marker: import-rot guard)."""
    spec = campaigns.ThroughputSpec(
        architecture="q3de", num_instructions=20,
        strike_prob_per_slot=1e-4, strike_duration_slots=10, seed=3)
    result = campaigns.run(spec)
    assert result.estimates["throughput"] > 0
    assert campaigns.spec_from_json(campaigns.spec_to_json(spec)) == spec
