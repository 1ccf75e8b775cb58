"""The executor seam: where a campaign's chunks actually run.

A campaign is a list of independent chunks ``(index, size, child
SeedSequence)`` — independent because the per-chunk ``SeedSequence``
contract (PR 1) makes every chunk's outcome a pure function of
``(campaign seed, batch_size, chunk index)``, never of where or when it
runs.  An :class:`Executor` maps that list to an in-order stream of
``(outcome array, cache stats)``; the campaign runner does the rest
(checkpointing, streaming estimates, early stop).

Three implementations:

* :class:`InlineExecutor` — this process, one chunk at a time.  With
  ``whole_request=True`` (the default) the chunk size defaults to the
  whole request, memory-capped by
  :func:`repro.sim.batch.default_chunk_shots` — the modern ``workers=0``
  path.
* :class:`ProcessPoolExecutor` — a ``multiprocessing`` fan-out:
  per-worker kernel/decoder reuse, ordered windowed streaming.
* :class:`DistributedExecutor` — the multi-host seam.  Subclasses
  implement :meth:`DistributedExecutor.dispatch` (or override
  ``run_chunks`` wholesale); the placement-independence contract above
  is exactly what makes remote dispatch safe (results merge by chunk
  index, bit-identical to a local run).  The reference transport is
  :class:`repro.campaigns.distributed.WorkQueueExecutor` — a
  fault-tolerant filesystem work queue served by
  ``python -m repro worker``.

Every executor runs a chunk the same way — :func:`_run_chunk` on a
prepared kernel's packing entry point (:func:`_batch_fn`) — and the
pool-worker plumbing (:func:`_pool_init`, :func:`_pool_run`) lives here
too, next to its only user.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
from typing import Iterator, Optional

import numpy as np


def _cache_stats(kernel) -> tuple[int, int, int]:
    cache = getattr(kernel, "cache", None)
    return cache.stats() if cache is not None else (0, 0, 0)


def _batch_fn(kernel, packing: str):
    """The kernel entry point for a packing mode."""
    return kernel.run_batch_packed if packing == "bits" else kernel.run_batch


def _run_chunk(kernel, run, size: int, child: np.random.SeedSequence
               ) -> tuple[np.ndarray, tuple[int, int, int]]:
    """One chunk on a prepared kernel: ``(outcomes, cache-stat delta)``.

    ``run`` is the kernel's :func:`_batch_fn` entry point; the chunk's
    generator is always ``default_rng(child)``, wherever it runs.
    """
    before = _cache_stats(kernel)
    outcome = run(size, np.random.default_rng(child))
    after = _cache_stats(kernel)
    return outcome, tuple(a - b for a, b in zip(after, before, strict=True))


_WORKER_KERNEL = None
_WORKER_RUN = None


def _pool_init(kernel, packing: str) -> None:
    global _WORKER_KERNEL, _WORKER_RUN
    _WORKER_KERNEL = kernel
    _WORKER_KERNEL.prepare()  # decoder built once, reused per chunk
    _WORKER_RUN = _batch_fn(kernel, packing)


def _pool_run(task) -> tuple[np.ndarray, tuple[int, int, int]]:
    size, child = task
    return _run_chunk(_WORKER_KERNEL, _WORKER_RUN, size, child)


class Executor:
    """Maps a kernel over a campaign's chunk plan, preserving order."""

    #: Short name recorded in provenance blocks.
    name = "executor"

    #: Whether an unset spec ``batch_size`` should default to the
    #: whole request (memory-capped) rather than the kernel's small
    #: fan-out default.  True only for the in-process path.
    whole_request = False

    def bind(self, spec, *, batch_size: int, shots: int,
             indices: list) -> None:
        """Hand the executor the campaign context before ``run_chunks``.

        The runner calls this once per campaign, immediately before
        :meth:`run_chunks`: ``spec`` is the campaign spec, ``batch_size``
        the *effective* chunk size, ``shots`` the total request, and
        ``indices`` the plan index of each task that ``run_chunks`` will
        receive (resumed chunks are absent).  In-process executors need
        none of it (the default is a no-op); a transport executor needs
        all of it — a remote worker rebuilds the kernel from the spec
        JSON and re-derives its chunk seed from
        ``(seed, batch_size, index)`` via
        :func:`repro.sim.batch.chunk_plan`.
        """

    def accounting(self) -> Optional[dict]:
        """Supervisor accounting for the most recent ``run_chunks``.

        ``None`` for executors with nothing to report; a transport
        returns its robustness counters (attempts, re-dispatches,
        quarantined chunks, ...) which the runner surfaces through the
        :class:`~repro.campaigns.results.Provenance` block.
        """
        return None

    def run_chunks(self, kernel, packing: str,
                   tasks: list) -> Iterator[tuple[np.ndarray, tuple]]:
        """Yield ``(outcomes, cache_stats)`` per task, in task order.

        ``tasks`` is a sequence of ``(size, numpy.random.SeedSequence)``.
        Implementations may compute lazily — the consumer stops
        iterating when a campaign early-stops, so implementations must
        not eagerly run every task up front — but must preserve order,
        and must derive each chunk's generator as
        ``np.random.default_rng(child)`` so outcomes stay placement
        independent.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class InlineExecutor(Executor):
    """Run every chunk in this process, reusing one prepared kernel.

    ``whole_request`` picks the unset-``batch_size`` default: ``True``
    (default) batches the whole request per chunk (memory-capped — the
    legacy ``workers=0`` behaviour), ``False`` keeps the kernel's small
    fan-out chunk size (the legacy ``workers=1`` behaviour).
    """

    name = "inline"

    def __init__(self, whole_request: bool = True):
        self.whole_request = whole_request

    def run_chunks(self, kernel, packing, tasks):
        kernel.prepare()
        run = _batch_fn(kernel, packing)
        for size, child in tasks:
            yield _run_chunk(kernel, run, size, child)


class ProcessPoolExecutor(Executor):
    """Fan chunks over a ``multiprocessing`` pool of ``workers``.

    Each worker builds its kernel (and decoder, scratch arena, matching
    cache) once and reuses it for every chunk it is handed; results
    stream back in task order.

    Submissions are windowed: at most ``max_inflight`` chunks (default
    ``2 * workers``) are outstanding at any moment, and the next task is
    pulled from ``tasks`` only when a finished chunk is consumed.  An
    early-stopped campaign therefore wastes at most one window of
    compute — the pre-PR-8 ``pool.imap(list(tasks))`` submitted *every*
    chunk up front, so a ``target_rel_width`` campaign that stopped
    after 3 chunks still churned through the whole plan — and closing
    the result stream terminates the pool promptly.
    """

    name = "process-pool"

    def __init__(self, workers: int, max_inflight: Optional[int] = None):
        if workers < 2:
            raise ValueError(
                "ProcessPoolExecutor needs workers >= 2; use "
                "InlineExecutor for the in-process path")
        if max_inflight is not None and max_inflight < workers:
            raise ValueError("max_inflight must be >= workers")
        self.workers = workers
        self.max_inflight = (max_inflight if max_inflight is not None
                             else 2 * workers)

    def describe(self) -> str:
        return f"{self.name}({self.workers})"

    def run_chunks(self, kernel, packing, tasks):
        it = iter(tasks)
        with multiprocessing.Pool(self.workers, initializer=_pool_init,
                                  initargs=(kernel, packing)) as pool:
            inflight = collections.deque(
                pool.apply_async(_pool_run, (task,))
                for task in itertools.islice(it, self.max_inflight))
            while inflight:
                result = inflight.popleft().get()
                for task in itertools.islice(it, 1):
                    inflight.append(pool.apply_async(_pool_run, (task,)))
                yield result
        # `with` tears the pool down via terminate() — on normal
        # exhaustion and on generator close alike, so an early stop
        # never waits for chunks the campaign no longer needs.


class DistributedExecutor(Executor):
    """Multi-host fan-out seam (interface; transport not included).

    The contract a transport must honour is small because the shot
    engine already did the hard part:

    * a chunk is fully described by ``(spec JSON, chunk index, size,
      child SeedSequence state)`` — the kernel is rebuilt on the remote
      host from the spec, exactly as :func:`_pool_init` prepares it in
      a pool worker;
    * outcomes are placement independent (per-chunk ``SeedSequence``,
      PR 1), so any host may run any chunk and results merge by index,
      bit-identical to a local run;
    * the checkpoint shard format (:mod:`repro.campaigns.checkpoint`)
      doubles as the wire format: a remote worker's finished chunk is
      one JSONL record keyed by ``(spec hash, chunk index)``.

    Subclasses implement :meth:`dispatch` (ship one chunk, block for its
    record); :meth:`run_chunks` then behaves like any executor.  The
    reference implementation of the protocol is
    :class:`repro.campaigns.distributed.WorkQueueExecutor`, which
    overrides ``run_chunks`` wholesale to supervise a filesystem work
    queue with lease-expiry re-dispatch, retry with backoff, poison-
    chunk quarantine, and inline drain when the worker pool vanishes.
    """

    name = "distributed"

    def dispatch(self, task_index: int, size: int,
                 child: np.random.SeedSequence) -> tuple[np.ndarray, tuple]:
        """Run one chunk somewhere and return ``(outcomes, cache_stats)``."""
        raise NotImplementedError(
            "DistributedExecutor is an interface: subclass it and "
            "implement dispatch() over your transport")

    def run_chunks(self, kernel, packing, tasks):
        for index, (size, child) in enumerate(tasks):
            yield self.dispatch(index, size, child)


def default_executor(workers: Optional[int] = None) -> Executor:
    """The executor the environment asks for (``REPRO_WORKERS``).

    ``workers`` overrides the environment: ``0`` is the in-process
    whole-request path, ``1`` the in-process fan-out-sized path, and
    anything larger a process pool.  A negative count is an error.
    """
    from repro import config
    if workers is None:
        workers = config.workers()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers > 1:
        return ProcessPoolExecutor(workers)
    return InlineExecutor(whole_request=(workers == 0))
