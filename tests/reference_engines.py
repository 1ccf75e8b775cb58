"""The retired per-cycle reference engines, kept for equivalence tests.

PR 7 removed the ``engine="reference"`` branches from the shipping
simulators (:func:`repro.sim.run_detection_trials`,
:meth:`repro.sim.EndToEndExperiment.run`) — the staged batch kernels are
the only application path.  The original per-cycle loops through
:class:`repro.core.anomaly.AnomalyDetectionUnit` and the per-shot greedy
decode survive here, verbatim, as the certified reference the
equivalence suite scores the batched engines against.  They are test
fixtures: slow, rng-streamed shot by shot, and deliberately untouched by
campaign features.

:func:`reference_route` is the Fig. 10 scheduler's original routing BFS,
which searched every routable block through the generator
``neighbors()``; the component-labelled router must return its exact
path, or ``None`` when it does.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

import numpy as np

from repro.arch.qubit_plane import QubitPlane
from repro.core.anomaly import AnomalyDetectionUnit
from repro.decoding.graph import SyndromeLattice
from repro.decoding.greedy import GreedyDecoder
from repro.decoding.weights import DistanceModel, relative_anomalous_weight
from repro.noise.models import AnomalousRegion, PhenomenologicalNoise
from repro.sim.detection import DetectionPerformance, calibrated_statistics
from repro.sim.endtoend import (EndToEndExperiment, EndToEndResult,
                                estimate_strike_region)


def stream_activity(
    distance: int,
    p: float,
    p_ano: float,
    region: Optional[AnomalousRegion],
    cycles: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-cycle node-activity stream, shape ``(cycles, d-1, d)``."""
    noise = PhenomenologicalNoise(distance, p, p_ano, region)
    lattice = SyndromeLattice(distance)
    v, h, m = noise.sample(cycles, rng)
    return lattice.per_cycle_activity(v, h, m)


def reference_decode_failure(exp: EndToEndExperiment, nodes, v,
                             region) -> int:
    """Per-shot greedy decode + north-cut parity (the original scorer)."""
    if region is None:
        model = DistanceModel(exp.distance)
    else:
        w_ano = relative_anomalous_weight(exp.p, exp.p_ano)
        model = DistanceModel(exp.distance, region, w_ano)
    result = GreedyDecoder(model).decode(nodes)
    return exp.lattice.error_cut_parity(v) ^ result.correction_cut_parity


def reference_run_shot(exp: EndToEndExperiment, rng: np.random.Generator):
    """One strike shot; returns (naive, detected, oracle, latency).

    The shot is scored over Q3DE's *exposure window*: the run stops
    ``d`` cycles after the detection fires (or after a fallback timeout
    on a miss), because from that point the expanded code protects the
    qubit and the re-executed decoder has caught up.
    """
    true_region = AnomalousRegion.random(exp.distance, exp.anomaly_size,
                                         rng, t_lo=exp.onset)
    noise = PhenomenologicalNoise(exp.distance, exp.p, exp.p_ano,
                                  true_region)
    v, h, m = noise.sample(exp.cycles, rng)
    activity = exp.lattice.per_cycle_activity(v, h, m)

    unit = AnomalyDetectionUnit(
        (exp.distance - 1, exp.distance), exp.stats,
        exp.c_win, exp.n_th, exp.alpha)
    event = None
    stop = exp.cycles
    for t in range(exp.cycles):
        evt = unit.observe(activity[t])
        if evt is None:
            continue
        if evt.cycle < exp.onset:
            # A pre-onset false positive is discarded, so the mask it
            # laid down must go with it: otherwise the unit is blind
            # around the flagged position for mask_cycles and the real
            # strike can go undetected.
            unit.clear_masks()
            continue
        event = evt
        stop = min(exp.cycles, evt.cycle + exp.distance)
        break

    estimated: Optional[AnomalousRegion] = None
    latency = None
    if event is not None:
        estimated = estimate_strike_region(
            exp.distance, exp.anomaly_size, event.row, event.col,
            event.onset_estimate)
        latency = event.cycle - exp.onset

    v, h, m = v[:stop], h[:stop], m[:stop]
    nodes = exp.lattice.detection_events(v, h, m)
    naive = reference_decode_failure(exp, nodes, v, None)
    oracle = reference_decode_failure(exp, nodes, v, true_region)
    detected = (reference_decode_failure(exp, nodes, v, estimated)
                if estimated is not None else naive)
    return naive, detected, oracle, latency


def reference_endtoend_run(exp: EndToEndExperiment, shots: int,
                           rng: np.random.Generator) -> EndToEndResult:
    """The original per-cycle end-to-end campaign loop."""
    naive = detected = oracle = found = 0
    latencies: list[int] = []
    for _ in range(shots):
        n, d, o, lat = reference_run_shot(exp, rng)
        naive += n
        detected += d
        oracle += o
        if lat is not None:
            found += 1
            latencies.append(lat)
    return EndToEndResult(
        shots=shots,
        naive_failures=naive,
        detected_failures=detected,
        oracle_failures=oracle,
        detections=found,
        mean_latency=(float(np.mean(latencies)) if latencies
                      else float("nan")),
    )


def reference_detection_trials(
    distance: int,
    p: float,
    p_ano: float,
    anomaly_size: int,
    c_win: int,
    n_th: int = 20,
    alpha: float = 0.01,
    trials: int = 20,
    normal_cycles: Optional[int] = None,
    post_cycles: Optional[int] = None,
    seed: Optional[int] = None,
) -> DetectionPerformance:
    """The original per-cycle detection-trial loop through the unit."""
    rng = np.random.default_rng(seed)
    stats = calibrated_statistics(p)
    normal_cycles = normal_cycles if normal_cycles is not None else 2 * c_win
    post_cycles = post_cycles if post_cycles is not None else 4 * c_win

    false_positives = 0
    detections = 0
    latencies: list[int] = []
    position_errors: list[float] = []
    rows, cols = distance - 1, distance
    for _ in range(trials):
        onset = normal_cycles
        region = AnomalousRegion.random(distance, anomaly_size, rng,
                                        t_lo=onset)
        row_lo, col_lo = region.row_lo, region.col_lo
        total = normal_cycles + post_cycles
        activity = stream_activity(distance, p, p_ano, region, total, rng)
        unit = AnomalyDetectionUnit(
            (rows, cols), stats, c_win, n_th, alpha)
        tripped_early = False
        event = None
        for t in range(total):
            evt = unit.observe(activity[t])
            if evt is None:
                continue
            if t < onset:
                tripped_early = True
                # The false positive is not acted on, so its mask must not
                # stand either -- it could blind the unit to the real MBBE.
                unit.clear_masks()
                continue  # keep streaming; a later flag still counts
            event = evt
            break
        if tripped_early:
            false_positives += 1
        if event is not None:
            detections += 1
            latencies.append(event.cycle - onset)
            centre_r = row_lo + (anomaly_size - 1) / 2.0
            centre_c = col_lo + (anomaly_size - 1) / 2.0
            position_errors.append(math.hypot(
                event.row - centre_r, event.col - centre_c))
    return DetectionPerformance(
        trials=trials,
        false_positives=false_positives,
        detections=detections,
        mean_latency=float(np.mean(latencies)) if latencies else float("nan"),
        mean_position_error=(float(np.mean(position_errors))
                             if position_errors else float("nan")),
    )


def reference_route(plane: QubitPlane, a: tuple[int, int],
                    b: tuple[int, int],
                    slot: int) -> Optional[list[tuple[int, int]]]:
    """BFS over routable vacant blocks from qubit block a to b."""
    start_adj = [n for n in plane.neighbors(*a)
                 if plane.routable(*n, slot)]
    goal_adj = {n for n in plane.neighbors(*b)
                if plane.routable(*n, slot)}
    if not start_adj or not goal_adj:
        return None
    queue = deque(start_adj)
    parents: dict[tuple[int, int], Optional[tuple[int, int]]] = {
        n: None for n in start_adj}
    while queue:
        cell = queue.popleft()
        if cell in goal_adj:
            path = [cell]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])
            return path
        for nxt in plane.neighbors(*cell):
            if nxt in parents or not plane.routable(*nxt, slot):
                continue
            parents[nxt] = cell
            queue.append(nxt)
    return None
