"""Batched shot kernels for Monte-Carlo campaigns.

The paper's headline results are >= 1e5-sample campaigns; running each
shot through per-cycle Python loops caps benches at a few hundred.  This
module holds the production hot path — the three shot kernels and the
chunk-plan contract they run under.  Campaigns drive them through
:func:`repro.campaigns.run`, whose one chunk loop hands each chunk to an
:class:`~repro.campaigns.executors.Executor` (in process, a
``multiprocessing`` pool, or a distributed work queue):

* **Vectorized shot kernels** — noise sampling, syndrome extraction and
  cut parities are computed for a whole batch of shots in a handful of
  NumPy calls (:meth:`PhenomenologicalNoise.sample_batch`,
  :meth:`SyndromeLattice.detection_events_batch`).

* **Staged pipelines** — each kernel's run is a
  :class:`repro.sim.stages.ShotPipeline` over the composable stage seam
  (``sample → extract → detect → decode → accumulate``); the kernels
  own configuration, scan tails and decode strategy, the stages own the
  batch dataflow, and partial runs (``pipeline().run_until(...)``)
  expose any seam for benchmarking or testing.

* **Cross-shot batched decode** — the greedy matchings of a chunk run
  through :mod:`repro.decoding.batched`: shots bucketed by active-node
  count, bucket-wide distance tensors, one flattened candidate sort and
  a vectorized acceptance, certified bit-identical to the per-shot
  pruned fast-greedy core (which ``decode="pershot"`` keeps as the
  in-tree reference; MWPM always decodes per shot).  Scratch buffers
  live in a per-worker :class:`repro.decoding.batched.ScratchArena`
  reused across chunks.

* **Bit-packed layout** — ``packing="bits"`` (the default) samples
  Bernoulli bits straight into uint64 words (64 shots per word, see
  :mod:`repro.sim.bitops`) and runs syndrome differences and boundary
  parities as word-wise XOR; nothing is unpacked until decode, and
  decode materializes only each shot's active-node coordinates.  The
  packed layout consumes the identical uniform stream as the float
  path, so for the same ``(seed, batch_size)`` its outcomes are
  *bit-identical* — ``packing="none"`` remains the certified reference.

* **Matching memoization** — low-``p`` shots repeat the same few-node
  syndromes constantly; :class:`MatchingCache` reuses their cut
  parities across shots (hit counts surface in a campaign's
  ``cache_hits`` count).

* **Reproducibility** — one :class:`numpy.random.SeedSequence` spawns a
  child seed per chunk (:func:`chunk_plan`), so a campaign's outcomes
  depend only on ``(seed, batch_size)`` — never on the executor, the
  worker count or scheduling.

* **Early stop** — :func:`wilson_tight` is the campaign's stop
  predicate: a campaign can stop once the Wilson interval of its
  streamed failures is tight enough instead of burning a fixed shot
  budget.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.statistics import (SyndromeStatistics, detection_threshold,
                                   expected_activity_rate)
from repro.decoding.batched import ScratchArena, batched_cut_parities
from repro.decoding.graph import SyndromeLattice
from repro.decoding.greedy import greedy_cut_parity
from repro.decoding.mwpm import MWPMDecoder
from repro.decoding.weights import (DistanceModel, MultiRegionDistanceModel,
                                    relative_anomalous_weight)
from repro.noise.models import AnomalousRegion, PhenomenologicalNoise
from repro.scenarios.model import Scenario
from repro.sim import bitops
from repro.sim.endtoend import estimate_strike_region
from repro.sim.montecarlo import wilson_interval
from repro.sim.stages import (DetectionExtractStage, DetectionSampleStage,
                              DetectionScoreStage, EndToEndAccumulateStage,
                              EndToEndDecodeStage, EndToEndDetectStage,
                              EndToEndExtractStage, EndToEndSampleStage,
                              MemoryAccumulateStage, MemoryDecodeStage,
                              MemoryExtractStage, MemorySampleStage,
                              ShotPipeline, StageContext, StageState)
# The per-shot anomalous overwrites moved to the stage seam; re-exported
# here because they are part of this module's long-standing test surface.
from repro.sim.stages import _overwrite_anomalous as _overwrite_anomalous
from repro.sim.stages import (
    _overwrite_anomalous_packed as _overwrite_anomalous_packed)

#: Recognized values of the shot-engine ``packing`` knob.
PACKING_MODES = ("bits", "none")

#: Recognized values of the shot-engine ``decode``/``scan`` knobs.
DECODE_MODES = ("batched", "pershot")

#: Largest single chunk an in-process (``workers=0``) campaign decodes
#: at once: the retired sequential entry points batch their whole shot
#: request, and this cap keeps the word arrays of a huge request from
#: dominating memory.
MAX_CHUNK_SHOTS = 4096

#: Activity-tensor element budget per in-process chunk.  The batched
#: windowed scan materializes int32 cumulative sums (plus a windowed
#: copy) of the whole ``(S, T, rows, cols)`` chunk, so the chunk size
#: must shrink with ``cycles * d^2`` — a shots-only cap would OOM the
#: paper-scale Fig. 7 points (d = 21, c_win in the hundreds) that the
#: old sequential path streamed one trial at a time.
MAX_CHUNK_ELEMENTS = 1 << 25


def default_chunk_shots(shots: int, per_shot_elements: int) -> int:
    """Chunk size for a ``workers=0`` whole-request campaign.

    The whole request when it fits, shrunk by the per-shot activity
    footprint (``total_cycles * lattice nodes``) so one chunk's scan
    tensors stay inside :data:`MAX_CHUNK_ELEMENTS`.
    """
    cap = max(1, MAX_CHUNK_ELEMENTS // max(1, per_shot_elements))
    return max(1, min(shots, MAX_CHUNK_SHOTS, cap))


def chunk_plan(shots: int,
               batch_size: int,
               seed: Optional[int]) -> list[tuple[int, np.random.SeedSequence]]:
    """The campaign's chunk decomposition: ``(size, child seed)`` pairs.

    This is *the* reproducibility contract of the shot engine: one
    :class:`numpy.random.SeedSequence` spawns a child per chunk, so a
    campaign's outcomes depend only on ``(seed, batch_size)`` — never on
    the worker count, scheduling, or on which chunks were restored from
    a checkpoint.  The campaign layer (:mod:`repro.campaigns`) — its
    chunk loop, its refinement seeding and its remote workers — builds
    every plan through this one function so they can never drift
    apart.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    sizes = [batch_size] * (shots // batch_size)
    if shots % batch_size:
        sizes.append(shots % batch_size)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return list(zip(sizes, children, strict=True))


def wilson_tight(successes: int, trials: int,
                 target_rel_width: Optional[float]) -> bool:
    """The shot engine's early-stop predicate.

    True once the Wilson interval of the streamed success count is
    narrower than ``target_rel_width`` times its mean (and at least one
    shot has been ingested).  The campaign chunk loop applies it to
    restored and fresh chunks alike, so a resumed campaign stops after
    exactly the same chunk as an uninterrupted one.
    """
    if target_rel_width is None or trials < 1:
        return False
    if successes == 0:
        return False
    lo, hi = wilson_interval(successes, trials)
    mean = successes / trials
    return (hi - lo) <= target_rel_width * mean


# ----------------------------------------------------------------------
# Shared kernel pieces
# ----------------------------------------------------------------------
class MatchingCache:
    """LRU-bounded memoized cut parities for repeated small node sets.

    At low physical error rates most shots light up the same handful of
    syndrome patterns over and over; rather than re-running the matching,
    the kernels key its north-cut parity on the frozen coordinate bytes.
    Only sets of at most ``max_nodes`` nodes are cached (large sets are
    effectively unique, and skipping them bounds key size).  The table
    holds at most ``max_entries`` parities and evicts least-recently
    used (long campaigns previously grew it without bound); ``hits``,
    ``misses`` and ``evictions`` stream into a campaign's
    ``cache_hits`` / ``cache_misses`` / ``cache_evictions`` counts,
    including across pool workers.
    """

    def __init__(self, max_nodes: int = 16, max_entries: int = 1 << 16):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_nodes = max_nodes
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._table: dict[bytes, int] = {}

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: bytes) -> Optional[int]:
        """Cached parity for a key, counting and LRU-refreshing."""
        found = self._table.pop(key, None)
        if found is None:
            self.misses += 1
            return None
        self._table[key] = found  # reinsert: most-recently used
        self.hits += 1
        return found

    def put(self, key: bytes, value: int) -> None:
        """Store a parity, evicting the least-recently-used entry."""
        if key in self._table:
            self._table[key] = value
            return
        if len(self._table) >= self.max_entries:
            self._table.pop(next(iter(self._table)))
            self.evictions += 1
        self._table[key] = value

    def parity(self, nodes: np.ndarray, compute) -> int:
        """``compute(nodes)`` through the cache (pure memoization)."""
        if len(nodes) > self.max_nodes:
            return compute(nodes)
        key = nodes.tobytes()
        found = self.get(key)
        if found is not None:
            return found
        value = compute(nodes)
        self.put(key, value)
        return value

    def stats(self) -> tuple[int, int, int]:
        return self.hits, self.misses, self.evictions


def _windowed_over(activity: np.ndarray, c_win: int,
                   v_th: float) -> tuple[np.ndarray, np.ndarray]:
    """Sliding-window counter state for one shot's activity stream.

    Returns ``(over, n_over)`` where index ``k`` corresponds to cycle
    ``t = k + c_win - 1`` (the unit stays silent until its window
    fills): ``over[k]`` is the above-threshold node map, ``n_over[k]``
    its count.  Exactly the counter update of
    :meth:`AnomalyDetectionUnit.observe` under the fixed discard
    semantics, where masks never touch a scored detection (pre-onset
    flags clear their masks; the first accepted flag ends the shot).
    """
    cum = np.cumsum(activity, axis=0, dtype=np.int32)
    if len(cum) < c_win:
        empty = np.zeros((0,) + activity.shape[1:], dtype=bool)
        return empty, np.zeros(0, dtype=np.int64)
    windowed = cum[c_win - 1:].copy()
    windowed[1:] -= cum[:-c_win]
    over = windowed > v_th
    return over, over.sum(axis=(1, 2))


def _windowed_over_batch(activity: np.ndarray, c_win: int,
                         v_th: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_windowed_over` across a whole ``(S, T, ...)`` batch.

    Integer cumulative sums, so ``over[s]`` / ``n_over[s]`` equal the
    per-shot scan bit for bit; one pass replaces the ``S`` per-shot
    cumsum/window calls of the kernels' detection scans.
    """
    if activity.shape[1] < c_win:
        empty = np.zeros((len(activity), 0) + activity.shape[2:],
                         dtype=bool)
        return empty, np.zeros((len(activity), 0), dtype=np.int64)
    cum = np.cumsum(activity, axis=1, dtype=np.int32)
    windowed = cum[:, c_win - 1:].copy()
    windowed[:, 1:] -= cum[:, :-c_win]
    over = windowed > v_th
    return over, over.sum(axis=(2, 3))


def _event_weights(p: float, events) -> tuple:
    """Relative anomalous edge weight of each event, in order."""
    return tuple(relative_anomalous_weight(p, e.p_ano) for e in events)


def _region_model(distance: int, regions: tuple, weights: tuple):
    """The decoding model that knows ``regions`` (uniform when empty).

    One region is a :class:`DistanceModel`; two or more compose a
    :class:`MultiRegionDistanceModel` with per-event ``weights``.
    """
    if not regions:
        return DistanceModel(distance)
    if len(regions) == 1:
        return DistanceModel(distance, regions[0], weights[0])
    return MultiRegionDistanceModel(distance, regions, weights)


def _base_noise(distance: int, p: float,
                scenario: Scenario) -> PhenomenologicalNoise:
    """The event-free base noise of a scenario with per-shot events.

    The sample stages overwrite each shot's event regions themselves;
    the noise model carries only the (possibly heterogeneous or
    drifting) base rate.
    """
    base = Scenario(rate_field=scenario.rate_field, drift=scenario.drift)
    return PhenomenologicalNoise(distance, p, scenario=base)


# ----------------------------------------------------------------------
# Shot kernels
# ----------------------------------------------------------------------
class MemoryShotKernel:
    """Batched version of :meth:`MemoryExperiment.run_once`.

    ``run_batch(shots, rng)`` returns an ``(shots,)`` int8 array of
    logical-failure indicators, distributionally identical to ``shots``
    sequential ``run_once`` calls (the same error model and the exact
    same matching; only the order in which the uniforms are drawn
    differs).

    The workload is a :class:`~repro.scenarios.model.Scenario` whose
    events all sit at fixed positions (``None``, no events, is the
    MBBE-free memory); the noise model applies the events chunk-wide.
    ``informed=True`` decodes with the events' boxes and weights.
    """

    #: column of ``run_batch`` output that feeds the streamed estimate
    success_column = 0
    default_batch_size = 512

    def __init__(self, distance: int, p: float,
                 scenario: Optional[Scenario] = None,
                 decoder: str = "greedy",
                 informed: bool = False, cycles: Optional[int] = None,
                 cache_matchings: bool = True, decode: str = "batched"):
        if decode not in DECODE_MODES:
            raise ValueError(f"decode must be one of {DECODE_MODES}")
        scenario = scenario if scenario is not None else Scenario()
        if not scenario.fixed:
            raise ValueError(
                "memory-kernel scenarios need fixed event positions")
        self.distance = distance
        self.p = p
        self.scenario = scenario
        self.decoder = decoder
        self.informed = informed
        self.cycles = cycles if cycles is not None else distance
        self.cache_matchings = cache_matchings
        self.decode = decode
        self.cache: Optional[MatchingCache] = None
        self._state = None
        self._arena: Optional[ScratchArena] = None

    def prepare(self) -> None:
        """Build noise/lattice/decoder once (per process, per worker)."""
        if self._state is not None:
            return
        noise = PhenomenologicalNoise(self.distance, self.p,
                                      scenario=self.scenario)
        lattice = SyndromeLattice(self.distance)
        events = self.scenario.events if self.informed else ()
        model = _region_model(
            self.distance, tuple(e.region() for e in events),
            _event_weights(self.p, events))
        mwpm = MWPMDecoder(model) if self.decoder == "mwpm" else None
        self.cache = MatchingCache() if self.cache_matchings else None
        self._arena = ScratchArena()
        self._state = (noise, lattice, model, mwpm)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_state"] = None  # rebuilt lazily inside each worker
        state["cache"] = None
        state["_arena"] = None
        return state

    def _cut_parity(self, nodes: np.ndarray) -> int:
        """Matching north-cut parity for one shot, through the cache."""
        if len(nodes) == 0:
            return 0
        _, _, model, mwpm = self._state
        if mwpm is not None:
            def compute(n):
                return mwpm.decode(n).correction_cut_parity
        else:
            def compute(n):
                return greedy_cut_parity(model, n)
        if self.cache is None:
            return compute(nodes)
        return self.cache.parity(nodes, compute)

    def _cut_parities(self, nodes_list: list) -> np.ndarray:
        """Matching parities for a whole chunk of shots.

        The greedy decoder runs through the bucketed batched engine
        (``decode="pershot"`` keeps the PR 2 per-shot loop as the
        certified reference); MWPM always decodes shot by shot.
        """
        _, _, model, mwpm = self._state
        if mwpm is None and self.decode == "batched":
            return batched_cut_parities(model, nodes_list,
                                        cache=self.cache,
                                        arena=self._arena)
        out = np.empty(len(nodes_list), dtype=np.int8)
        for s, nodes in enumerate(nodes_list):
            out[s] = self._cut_parity(nodes)
        return out

    def pipeline(self) -> ShotPipeline:
        """This kernel's staged pipeline (sample/extract/decode/accumulate)."""
        self.prepare()
        return ShotPipeline((MemorySampleStage(self),
                             MemoryExtractStage(self),
                             MemoryDecodeStage(self),
                             MemoryAccumulateStage(self)))

    def _context(self, shots: int, rng: Optional[np.random.Generator],
                 packing: str) -> StageContext:
        self.prepare()
        return StageContext(shots=shots, packing=packing, rng=rng,
                            arena=self._arena, cache=self.cache)

    def run_batch(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        return self.pipeline().run(self._context(shots, rng, "none"))

    def run_batch_packed(self, shots: int,
                         rng: np.random.Generator) -> np.ndarray:
        """Bit-packed :meth:`run_batch`: identical outputs per seed.

        Sampling, syndrome differences and the boundary parity all stay
        word-wise over uint64 (64 shots per word); active-node
        coordinates for the whole chunk come out of one bulk lane
        unpack, and the matchings run through the bucketed batched
        decode engine.
        """
        return self.pipeline().run(self._context(shots, rng, "bits"))


class EndToEndShotKernel:
    """Batched end-to-end strike shots (detect, estimate, re-decode).

    Output rows are ``(naive, detected, oracle, latency)`` with
    ``latency = -1`` on a missed detection.  The per-cycle detection
    scan is replaced by a windowed-count computation over the whole
    activity stream (exact under the discard-pre-onset semantics: masks
    from discarded events are cleared, and the first accepted event ends
    the shot, so no mask can ever touch a scored detection).

    The strike timeline is a :class:`~repro.scenarios.model.Scenario`
    with at least one event; events without positions are re-drawn per
    shot by the sample stage.  The detection unit scans from the first
    onset and sizes its region estimate after the first event.
    """

    success_column = 1  # detected-strategy failures drive early stopping
    default_batch_size = 64

    def __init__(self, distance: int, p: float, scenario: Scenario,
                 cycles: int, c_win: int, n_th: int, alpha: float,
                 decode: str = "batched", decoder: str = "greedy"):
        if decode not in DECODE_MODES:
            raise ValueError(f"decode must be one of {DECODE_MODES}")
        if decoder not in ("greedy", "mwpm"):
            raise ValueError("decoder must be 'greedy' or 'mwpm'")
        if not scenario.events:
            raise ValueError("end-to-end scenarios need at least one event")
        self.distance = distance
        self.p = p
        self.scenario = scenario
        self.onset = scenario.first_onset
        self.anomaly_size = scenario.events[0].size
        self.cycles = cycles
        self.c_win = c_win
        self.n_th = n_th
        self.alpha = alpha
        self.decode = decode
        self.decoder = decoder
        self._state = None
        self._arena: Optional[ScratchArena] = None

    def prepare(self) -> None:
        if self._state is not None:
            return
        lattice = SyndromeLattice(self.distance)
        stats = SyndromeStatistics.from_activity_rate(
            expected_activity_rate(self.p))
        v_th = detection_threshold(stats, self.c_win, self.alpha)
        base_noise = _base_noise(self.distance, self.p, self.scenario)
        naive_model = DistanceModel(self.distance)
        w_ano = _event_weights(self.p, self.scenario.events)
        self._arena = ScratchArena()
        self._state = (lattice, v_th, base_noise, naive_model, w_ano)

    @property
    def _batched_w_ano(self) -> Optional[float]:
        """The chunk-wide region weight, or ``None`` if not uniform.

        The region-bucketed engine takes one ``w_ano`` for a whole
        chunk; scenarios whose events carry different weights decode
        through the per-shot scoring loop instead.
        """
        w = self._state[4]
        return w[0] if all(x == w[0] for x in w) else None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_state"] = None
        state["_arena"] = None
        return state

    def _naive_parities(self, nodes_list: list) -> np.ndarray:
        """Naive-model matchings for the chunk, bucketed when enabled.

        The naive decode shares one :class:`DistanceModel` across every
        shot, so it batches; the oracle/detected decodes depend on each
        shot's own (true or estimated) region and stay per shot.  MWPM
        always decodes shot by shot.
        """
        _, _, _, naive_model, _ = self._state
        if self.decoder == "mwpm":
            mwpm = MWPMDecoder(naive_model)
            return np.fromiter(
                ((mwpm.decode(nodes).correction_cut_parity if len(nodes)
                  else 0) for nodes in nodes_list),
                dtype=np.int8, count=len(nodes_list))
        if self.decode == "batched":
            return batched_cut_parities(naive_model, nodes_list,
                                        arena=self._arena)
        return np.fromiter(
            (greedy_cut_parity(naive_model, nodes) for nodes in nodes_list),
            dtype=np.int8, count=len(nodes_list))

    def _detect(self, activity: np.ndarray):
        """Windowed-count scan of one shot's activity stream.

        Returns ``(stop, estimated, latency)``: where the exposure
        window closes (``onset + d`` cycles after the flag, or the full
        run on a miss), the control unit's region estimate, and the
        detection latency (-1 on a miss).  The single copy of the scan
        tail keeps every path — float, packed, per-shot, batched —
        scoring identically.
        """
        _, v_th, _, _, _ = self._state
        return self._detect_scan(*_windowed_over(activity, self.c_win,
                                                 v_th))

    def _detect_all(self, activity: np.ndarray) -> list:
        """Detection scans for a whole ``(S, T, rows, cols)`` chunk.

        ``decode="batched"`` runs one batched windowed-count pass;
        ``"pershot"`` keeps the per-shot scans.  Bit-equal either way
        (integer window sums), certified by the equivalence suite.
        """
        _, v_th, _, _, _ = self._state
        if self.decode == "batched":
            over, n_over = _windowed_over_batch(activity, self.c_win,
                                                v_th)
            return [self._detect_scan(over[s], n_over[s])
                    for s in range(len(activity))]
        return [self._detect(activity[s]) for s in range(len(activity))]

    def _detect_scan(self, over: np.ndarray, n_over: np.ndarray):
        """The scan tail shared by the per-shot and batched passes."""
        d, cycles, c_win = self.distance, self.cycles, self.c_win
        start = max(self.onset - (c_win - 1), 0)
        fired = np.flatnonzero(n_over[start:] > self.n_th)
        if not len(fired):
            return cycles, None, -1
        event_cycle = int(fired[0]) + start + c_win - 1
        flag_rows, flag_cols = np.nonzero(over[event_cycle - (c_win - 1)])
        estimated = estimate_strike_region(
            d, self.anomaly_size, int(np.median(flag_rows)),
            int(np.median(flag_cols)), max(0, event_cycle - c_win))
        return (min(cycles, event_cycle + d), estimated,
                event_cycle - self.onset)

    def _decode_model(self, regions: tuple):
        """The informed model for one shot's known region(s).

        ``regions`` is a shot's per-event regions, or the one-tuple of
        the detection unit's estimate (weighted as the first event).
        """
        return _region_model(self.distance, regions, self._state[4])

    def _matching_parity(self, model, nodes: np.ndarray) -> int:
        """One shot's matching cut parity under the spec'd decoder."""
        if self.decoder == "mwpm":
            if len(nodes) == 0:
                return 0
            return int(MWPMDecoder(model).decode(nodes)
                       .correction_cut_parity)
        return greedy_cut_parity(model, nodes)

    def _score(self, nodes: np.ndarray, error_parity: int,
               naive_parity: int, true_region: tuple,
               estimated: Optional[AnomalousRegion]):
        """(naive, detected, oracle) failures for one decoded shot.

        The naive matching is precomputed for the whole chunk (one
        shared model — it batches); the oracle/detected matchings use
        this shot's own regions (possibly several, under a scenario).
        """
        naive = error_parity ^ naive_parity
        oracle = error_parity ^ self._matching_parity(
            self._decode_model(true_region), nodes)
        if estimated is None:
            return naive, naive, oracle
        detected = error_parity ^ self._matching_parity(
            self._decode_model((estimated,)), nodes)
        return naive, detected, oracle

    def pipeline(self) -> ShotPipeline:
        """This kernel's staged pipeline (all five beats)."""
        self.prepare()
        return ShotPipeline((EndToEndSampleStage(self),
                             EndToEndExtractStage(self),
                             EndToEndDetectStage(self),
                             EndToEndDecodeStage(self),
                             EndToEndAccumulateStage(self)))

    def _context(self, shots: int, rng: Optional[np.random.Generator],
                 packing: str) -> StageContext:
        self.prepare()
        return StageContext(shots=shots, packing=packing, rng=rng,
                            arena=self._arena)

    def _assemble(self, nodes_list: list, parities: np.ndarray,
                  regions: list, detections: list) -> np.ndarray:
        """Decode + accumulate over pre-detected chunk inputs.

        The decode-stage seam: feeds a :class:`StageState` holding the
        detect-stage outputs (``nodes_list, parities, regions,
        detections``) through the decode and accumulate stages — the
        decode-stage bench times exactly this tail.
        """
        self.prepare()
        state = StageState()
        state.nodes_list = nodes_list
        state.parities = parities
        state.regions = regions
        state.detections = detections
        ctx = self._context(len(nodes_list), None, "bits")
        EndToEndDecodeStage(self).run(ctx, state)
        EndToEndAccumulateStage(self).run(ctx, state)
        return state.outcomes

    def run_batch(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        return self.pipeline().run(self._context(shots, rng, "none"))

    def run_batch_packed(self, shots: int,
                         rng: np.random.Generator) -> np.ndarray:
        """Bit-packed :meth:`run_batch`: identical outputs per seed.

        The per-shot truncated rerun (``v[:stop]`` …) never happens:
        the difference lattice of a run stopped at ``stop`` is the first
        ``stop`` layers of the live activity stream plus a final layer
        that is exactly ``m[stop - 1]``, and the truncated error parity
        is one bit of the packed running north-cut parity — all of which
        are sliced out of the word arrays already computed for the whole
        batch.
        """
        return self.pipeline().run(self._context(shots, rng, "bits"))

    def _chunk_packed(self, shots: int, rng: np.random.Generator) -> tuple:
        """Sample + detect one packed chunk, stopping short of decode.

        Returns the decode-stage inputs ``(nodes_list, parities,
        regions, detections)`` — the seam the decode-stage bench times
        :meth:`_assemble` across.  A partial pipeline run:
        ``run_until("detect")``.
        """
        state = self.pipeline().run_until(
            "detect", self._context(shots, rng, "bits"))
        return (state.nodes_list, state.parities, state.regions,
                state.detections)

    @staticmethod
    def _shot_nodes_truncated(lattice, coords, vals, bounds, m,
                              shot: int, stop: int) -> np.ndarray:
        """Active nodes of one shot's run truncated after cycle ``stop``.

        Equals ``lattice.detection_events(v[:stop], h[:stop], m[:stop])``
        bit for bit: activity layers ``t < stop`` plus the final perfect
        round's events, which reduce to ``m[stop - 1]``.
        """
        nodes = lattice.shot_nodes(coords, vals, bounds, shot, t_stop=stop)
        w, b = divmod(shot, bitops.WORD_BITS)
        final = np.argwhere(
            (m[w, stop - 1] >> np.uint64(b)) & np.uint64(1) != 0)
        if len(final):
            final = np.hstack([
                np.full((len(final), 1), stop, dtype=final.dtype), final])
            nodes = np.vstack([nodes, final])
        return nodes


class DetectionShotKernel:
    """Batched detection trials (Fig. 7) for the shot engine.

    Output rows are ``(false_positive, detected, latency, position_error)``
    with ``latency = -1`` and ``position_error = nan`` on a miss.  Uses
    the same windowed-count scan as :class:`EndToEndShotKernel`: exact
    under the discard semantics, where pre-onset flags clear their masks
    and the first post-onset flag ends the trial.  ``scan="batched"``
    (the default) runs one windowed-count pass over the whole chunk;
    ``"pershot"`` keeps the per-trial scan as the in-tree reference —
    outputs are bit-equal either way.

    The strike timeline is a :class:`~repro.scenarios.model.Scenario`
    with at least one event; the first event is the one each trial is
    scored against (later ones ride inside the post-strike stream).
    """

    success_column = 1
    default_batch_size = 16

    def __init__(self, distance: int, p: float, scenario: Scenario,
                 c_win: int, n_th: int, alpha: float,
                 normal_cycles: int, post_cycles: int,
                 scan: str = "batched"):
        if scan not in DECODE_MODES:
            raise ValueError(f"scan must be one of {DECODE_MODES}")
        if not scenario.events:
            raise ValueError("detection scenarios need at least one event")
        self.scan = scan
        self.distance = distance
        self.p = p
        self.scenario = scenario
        self.c_win = c_win
        self.n_th = n_th
        self.alpha = alpha
        self.normal_cycles = normal_cycles
        self.post_cycles = post_cycles
        self._state = None

    def prepare(self) -> None:
        if self._state is not None:
            return
        stats = SyndromeStatistics.from_activity_rate(
            expected_activity_rate(self.p))
        v_th = detection_threshold(stats, self.c_win, self.alpha)
        base_noise = _base_noise(self.distance, self.p, self.scenario)
        self._state = (v_th, base_noise, SyndromeLattice(self.distance))

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_state"] = None
        return state

    def _score_trial(self, activity: np.ndarray, regions: tuple) -> tuple:
        """One trial's windowed-count scan and outcome row.

        Returns ``(false_positive, detected, latency, position_error)``;
        the single copy of the scan tail keeps every path — float,
        packed, per-shot, batched — scoring identically.
        """
        v_th, _, _ = self._state
        return self._score_scan(*_windowed_over(activity, self.c_win,
                                                v_th), regions)

    def _score_all(self, activity: np.ndarray,
                   regions: list) -> np.ndarray:
        """Outcome rows for a whole ``(S, T, rows, cols)`` chunk."""
        shots = len(activity)
        out = np.empty((shots, 4), dtype=np.float64)
        if self.scan == "batched":
            v_th, _, _ = self._state
            over, n_over = _windowed_over_batch(activity, self.c_win,
                                                v_th)
            for s in range(shots):
                out[s] = self._score_scan(over[s], n_over[s], regions[s])
        else:
            for s in range(shots):
                out[s] = self._score_trial(activity[s], regions[s])
        return out

    def _score_scan(self, over: np.ndarray, n_over: np.ndarray,
                    regions: tuple) -> tuple:
        """The scan tail shared by the per-shot and batched passes.

        ``regions`` is the trial's per-event regions: the *first* event
        is the one the false-positive window and position error are
        scored against — later back-to-back strikes ride inside the
        post-detection stream, stressing the detector's post-clear
        blindness window.
        """
        region = regions[0]
        c_win, onset = self.c_win, self.normal_cycles
        if not len(n_over):
            return (0.0, 0.0, -1.0, np.nan)
        # Windowed index k corresponds to cycle t = k + c_win - 1.
        pre = max(0, onset - (c_win - 1))
        false_positive = bool(np.any(n_over[:pre] > self.n_th))
        fired = np.flatnonzero(n_over[pre:] > self.n_th)
        if not len(fired):
            return (false_positive, 0.0, -1.0, np.nan)
        cycle = int(fired[0]) + pre + c_win - 1
        flag_r, flag_c = np.nonzero(over[cycle - (c_win - 1)])
        centre_r = region.row_lo + (region.size - 1) / 2.0
        centre_c = region.col_lo + (region.size - 1) / 2.0
        err = math.hypot(int(np.median(flag_r)) - centre_r,
                         int(np.median(flag_c)) - centre_c)
        return (false_positive, 1.0, cycle - onset, err)

    def pipeline(self) -> ShotPipeline:
        """This kernel's staged pipeline (sample/extract/detect)."""
        self.prepare()
        return ShotPipeline((DetectionSampleStage(self),
                             DetectionExtractStage(self),
                             DetectionScoreStage(self)))

    def _context(self, shots: int, rng: Optional[np.random.Generator],
                 packing: str) -> StageContext:
        self.prepare()
        return StageContext(shots=shots, packing=packing, rng=rng)

    def run_batch(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        return self.pipeline().run(self._context(shots, rng, "none"))

    def run_batch_packed(self, shots: int,
                         rng: np.random.Generator) -> np.ndarray:
        """Bit-packed :meth:`run_batch`: identical outputs per seed.

        Sampling and the syndrome-difference stream stay packed (64
        trials per uint64 word); only each trial's own activity lane is
        read back, by the windowed-count scan.
        """
        return self.pipeline().run(self._context(shots, rng, "bits"))
