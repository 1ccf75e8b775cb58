"""In-memory span tracer and the layer wrappers of the traced run.

A span is ``[name, start, end, parent, request]``; its id is its index
in :attr:`Tracer.spans`.  Spans nest through a per-thread stack.  A span
opened on a thread with an empty stack (a service worker or HTTP
handler thread) attaches to the client request waiting on the same spec
hash, registered with :meth:`Tracer.waiting_on`.

The wrappers go around public calls of each layer and are installed
only inside :func:`installed`, which restores the originals on exit, so
untraced runs execute the program exactly as shipped.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import threading
import time
from typing import Any, Callable, Iterator, Optional

from repro import campaigns
from repro.arch import throughput as arch_throughput
from repro.arch.qubit_plane import QubitPlane
from repro.arch.scheduler import GreedyScheduler
from repro.campaigns.checkpoint import ShardFile
from repro.campaigns.executors import Executor, InlineExecutor
from repro.campaigns.store import ResultStore
from repro.service.scheduler import Scheduler
from repro.sim import stages

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Spans, counts and timestamps recorded by the traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        #: ``(event, spec hash) -> perf_counter`` marks (service queue).
        self.marks: dict[tuple[str, str], float] = {}
        #: Per sweep point: ``[commit attempts, commits that succeeded]``.
        self.commits: dict[str, list[int]] = collections.defaultdict(
            lambda: [0, 0])
        self._waiting: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: Optional[str] = None,
              spec_hash: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._waiting.get(spec_hash)
        if request is None:
            request = (self.spans[parent][REQUEST] if parent is not None
                       else getattr(self._local, "request", None))
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               request])
        stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def request(self, request: str) -> Iterator[None]:
        """Root spans opened on this thread carry ``request``."""
        self._local.request = request
        try:
            yield
        finally:
            self._local.request = None

    @contextlib.contextmanager
    def waiting_on(self, spec_hash: str, sid: int) -> Iterator[None]:
        """Server-side spans for ``spec_hash`` belong to span ``sid``."""
        self._waiting[spec_hash] = sid
        try:
            yield
        finally:
            self._waiting.pop(spec_hash, None)

    def current_request(self) -> Optional[str]:
        stack = self._stack()
        return self.spans[stack[-1]][REQUEST] if stack else None

    def write(self, path) -> None:
        """Dump every span as one JSON line (``id`` = line order)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, request) in enumerate(
                    self.spans):
                fh.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "request": request}) + "\n")


def self_times(spans: list[list]) -> tuple[dict[str, float],
                                             dict[str, float], float]:
    """``(self seconds by name, inclusive seconds by name, roots' sum)``.

    Self time is a span's duration minus the union of its children's
    intervals clipped to it; children on other threads may overlap.
    """
    children: dict[int, list[tuple[float, float]]] = \
        collections.defaultdict(list)
    roots = 0.0
    for span in spans:
        if span[PARENT] is None:
            roots += span[END] - span[START]
        else:
            children[span[PARENT]].append((span[START], span[END]))
    own: dict[str, float] = collections.defaultdict(float)
    total: dict[str, float] = collections.defaultdict(float)
    for sid, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[name] += end - start - covered
        total[name] += end - start
    return own, total, roots


# ----------------------------------------------------------------------
# The benchmark-owned executor
# ----------------------------------------------------------------------
class BenchExecutor(Executor):
    """Delegates to an :class:`InlineExecutor` and hashes every outcome.

    With a tracer it also records one ``campaigns.chunk`` span per
    chunk and marks when the campaign was bound (service queue wait).
    """

    def __init__(self, inner: InlineExecutor,
                 tracer: Optional[Tracer] = None):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.whole_request = inner.whole_request
        self.digest = hashlib.sha256()
        self._indices: list[int] = []

    def describe(self) -> str:
        return self.inner.describe()

    def bind(self, spec, *, batch_size, shots, indices) -> None:
        if self.tracer is not None:
            self.tracer.marks[("bind", campaigns.spec_hash(spec))] = \
                time.perf_counter()
        self._indices = list(indices)
        self.inner.bind(spec, batch_size=batch_size, shots=shots,
                        indices=indices)

    def run_chunks(self, kernel, packing, tasks):
        tasks = list(tasks)
        inner = self.inner.run_chunks(kernel, packing, tasks)
        tracer = self.tracer
        try:
            for pos in range(len(tasks)):
                if tracer is None:
                    outcome, stats = next(inner)
                else:
                    request = f"{tracer.current_request()}/chunk" \
                              f"{self._indices[pos]}"
                    sid = tracer.begin("campaigns.chunk", request)
                    try:
                        outcome, stats = next(inner)
                    finally:
                        tracer.end(sid)
                self.digest.update(f"{outcome.dtype}{outcome.shape}"
                                   .encode())
                self.digest.update(outcome.tobytes())
                yield outcome, stats
        finally:
            inner.close()

    def hexdigest(self) -> str:
        return self.digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------
def _timed(tracer: Tracer, name: str, fn: Callable,
           hash_of: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        h = hash_of(*args, **kwargs) if hash_of is not None else None
        sid = tracer.begin(name, spec_hash=h)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)
    return wrapper


def _stage_run(tracer: Tracer, name: str, fn: Callable) -> Callable:
    span_name = f"sim.{name}"

    def run(self, ctx, state):
        if name == "decode":
            tracer.counts["sim.decode.nodes"] += sum(
                len(nodes) for nodes in state.nodes_list)
        sid = tracer.begin(span_name)
        try:
            return fn(self, ctx, state)
        finally:
            tracer.end(sid)
    return run


def _try_commit(tracer: Tracer, fn: Callable) -> Callable:
    def try_commit(self, inst, slot):
        sid = tracer.begin("arch.commit")
        try:
            ok = fn(self, inst, slot)
        finally:
            tracer.end(sid)
        tally = tracer.commits[tracer.spans[sid][REQUEST]]
        tally[0] += 1
        tally[1] += ok
        return ok
    return try_commit


def _simulate(tracer: Tracer, fn: Callable) -> Callable:
    def simulate_throughput(*args, **kwargs):
        rate = kwargs.get("strike_prob_per_slot", 0.0)
        sid = tracer.begin("arch.simulate",
                           f"{tracer.current_request()}/p={rate:g}")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)
    return simulate_throughput


def _scheduler_submit(tracer: Tracer, fn: Callable) -> Callable:
    def submit(self, spec, tenant="public"):
        job, coalesced = fn(self, spec, tenant)
        tracer.marks.setdefault(("enqueue", job.spec_hash),
                                time.perf_counter())
        return job, coalesced
    return submit


def _patches(tracer: Tracer) -> list[tuple[Any, str, Callable]]:
    patches: list[tuple[Any, str, Callable]] = []
    for obj in vars(stages).values():
        if (isinstance(obj, type) and issubclass(obj, stages.Stage)
                and "run" in vars(obj) and obj.name != "stage"):
            patches.append((obj, "run",
                            _stage_run(tracer, obj.name, obj.run)))
    patches += [
        (campaigns, "run",
         _timed(tracer, "campaigns.run", campaigns.run,
                lambda spec, *a, **k: (None if isinstance(spec,
                                                          campaigns.Sweep)
                                       else campaigns.spec_hash(spec)))),
        (ShardFile, "append",
         _timed(tracer, "campaigns.checkpoint_append", ShardFile.append)),
        (ResultStore, "get_hash",
         _timed(tracer, "service.store_get", ResultStore.get_hash,
                lambda self, h: h)),
        (ResultStore, "put",
         _timed(tracer, "service.store_put", ResultStore.put,
                lambda self, spec, result: campaigns.spec_hash(spec))),
        (Scheduler, "submit", _scheduler_submit(tracer, Scheduler.submit)),
        (arch_throughput, "simulate_throughput",
         _simulate(tracer, arch_throughput.simulate_throughput)),
        (GreedyScheduler, "step",
         _timed(tracer, "arch.step", GreedyScheduler.step)),
        (GreedyScheduler, "try_commit",
         _try_commit(tracer, GreedyScheduler.try_commit)),
        (QubitPlane, "expire_anomalies",
         _timed(tracer, "arch.expire", QubitPlane.expire_anomalies)),
    ]
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Install every layer wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, wrapper in _patches(tracer):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
