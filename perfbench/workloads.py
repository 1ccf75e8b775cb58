"""The four benchmark workloads: seeded inputs, timed runs, output checks.

Every input is generated here from the workload seed; the program only
sees the generated specs and HTTP requests.  Each workload offers

* ``control()`` — an untimed output check run before either mode;
* ``measure(seconds)`` — the untraced run: end-to-end metrics;
* ``trace_pass(tracer)`` — one fixed, seed-determined pass, traced or
  not, used by the traced run for per-layer metrics and overhead.

All three return :class:`Outcome`\\ s whose ``problems`` feed ``failed``.
"""

from __future__ import annotations

import collections
import contextlib
import http.client
import json
import math
import resource
import shutil
import threading
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from repro import campaigns
from repro.campaigns.executors import InlineExecutor
from repro.service import ServiceApp, make_server

from hostspeed import slowness
from tracing import BenchExecutor, Tracer, installed

#: ``--seed`` value whose outcome digests and simulated counts are pinned
#: in ``reference.json``.
DEFAULT_SEED = 0
#: Wilson-band width: a correct program fails a band check with
#: probability below 1e-6 per check.
WILSON_Z = 5.0
#: The Fig. 10 strike rates (per block per slot) and their metric labels.
FIG10_RATES = {1e-4: "1e-4", 1e-3: "1e-3", 3e-3: "3e-3", 1e-2: "1e-2"}

REFERENCE = json.loads(
    (Path(__file__).with_name("reference.json")).read_text())


def rng_for(seed: int, workload: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        [seed, zlib.crc32(workload.encode()), *extra]))


def wilson(successes: int, trials: int, z: float = WILSON_Z):
    """Wilson score interval of ``successes / trials``."""
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return centre - half, centre + half


def band_problems(label: str, successes: int, trials: int,
                  reference: float) -> list[str]:
    lo, hi = wilson(successes, trials)
    if lo <= reference <= hi:
        return []
    return [f"{label}: {successes}/{trials} puts reference rate "
            f"{reference:.4f} outside the Wilson band [{lo:.4f}, {hi:.4f}]"]


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest of p90/p99/p99.9 with at least
    ten samples beyond it, or ``(0, 0)`` when there are too few."""
    best = (0.0, 0.0)
    ordered = sorted(values)
    for pct in (90.0, 99.0, 99.9):
        if len(ordered) * (1 - pct / 100) >= 10:
            rank = max(0, math.ceil(len(ordered) * pct / 100) - 1)
            best = (pct, ordered[rank])
    return best


def reset_peak_rss() -> None:
    """Restart the process's peak-RSS high-water mark (Linux 4.0+).

    Where the kernel offers no reset the mark keeps its whole-process
    meaning, which only makes the reading larger.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run (or pass) of a workload produced."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed_ops: int = 0
    wall_s: float = 0.0
    #: per timed operation: ``(seconds, work units)``.
    ops: list[tuple[float, int]] = field(default_factory=list)
    #: host slowness around each timed operation (see ``hostspeed``).
    slowness: list[float] = field(default_factory=list)
    #: peak RSS in MB per timed operation (or per service window).
    peaks: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)
    #: service only: request class -> latencies in seconds.
    latencies: dict = field(
        default_factory=lambda: collections.defaultdict(list))
    counts: collections.Counter = field(default_factory=collections.Counter)

    def fail(self, message: str) -> None:
        self.problems.append(message)
        self.failed_ops += 1


# ----------------------------------------------------------------------
# Campaign workloads: memory_d9, endtoend_pano03, fig10_sweep
# ----------------------------------------------------------------------
class CampaignWorkload:
    """A sequence of seeded ``campaigns.run`` calls, one at a time."""

    name = ""
    lanes = 1
    #: Campaigns in one traced pass.
    trace_ops = 1
    #: The ``hostspeed`` kernel whose work this workload's resembles.
    calibration = "numpy"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self._rng = rng_for(seed, self.name)
        self._seeds: list[int] = []

    def spec_seed(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(int(self._rng.integers(2 ** 31)))
        return self._seeds[i]

    def spec(self, i: int):
        raise NotImplementedError

    def units(self, result) -> int:
        raise NotImplementedError

    def check(self, result, i: int) -> list[str]:
        raise NotImplementedError

    def control_spec(self, seed: Optional[int] = None):
        """The low-noise control campaign of :meth:`control`, if any
        (at ``seed``, or at one drawn from the workload seed)."""
        return None

    def control_check(self, result) -> list[str]:
        raise NotImplementedError

    def control(self) -> Outcome:
        """One untimed control campaign through the same kernel and
        decode tier, at noise where the reference failure rates sit far
        from 1/2.

        The workload's own failure rates are all near 1/2, where a
        decoder returning garbage scores the same as a correct one, so
        its Wilson band cannot fail.  Here a broken decoder drives the
        rates towards 1/2 and out of the band, on every seed.
        """
        out = Outcome()
        spec = self.control_spec()
        if spec is None:
            return out
        out.attempted += 1
        try:
            result = campaigns.run(spec, executor=InlineExecutor())
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            out.fail(f"{self.name} control: {type(exc).__name__}: {exc}")
            return out
        problems = self.control_check(result)
        if problems:
            out.problems += problems
            out.failed_ops += 1
        return out

    def control_seed(self) -> int:
        return int(rng_for(self.seed, self.name, 1).integers(2 ** 31))

    def pinned(self, result, digest: str) -> list[str]:
        """Checks against ``reference.json`` for op 0 of the default seed."""
        want = REFERENCE[self.name]["digest_seed0_op0"]
        if digest != want:
            return [f"{self.name}: seed-{DEFAULT_SEED} outcome digest "
                    f"{digest} != pinned {want}"]
        return []

    def _run_op(self, out: Outcome, i: int, executor,
                timed: bool = True) -> Optional[object]:
        out.attempted += 1
        spec = self.spec(i)
        try:
            reset_peak_rss()
            start = time.perf_counter()
            result = campaigns.run(spec, executor=executor)
            elapsed = time.perf_counter() - start
            peak = peak_rss_mb()
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            out.fail(f"op {i}: {type(exc).__name__}: {exc}")
            return None
        problems = self.check(result, i)
        if isinstance(executor, BenchExecutor) and i == 0 \
                and self.seed == DEFAULT_SEED and not self.smoke:
            problems += self.pinned(result, executor.hexdigest())
        if problems:
            out.problems += problems
            out.failed_ops += 1
        if timed:
            out.ops.append((elapsed, self.units(result)))
            out.peaks.append(peak)
        out.results.append(result)
        return result

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        # Warm-up (untimed): op 0 through the hashing executor, so the
        # default seed's outcome digest is checked on every run.
        self._run_op(out, 0, BenchExecutor(InlineExecutor()), timed=False)
        before = slowness(self.calibration)
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            timed = len(out.ops)
            self._run_op(out, i, InlineExecutor())
            after = slowness(self.calibration)
            if len(out.ops) > timed:
                out.slowness.append((before + after) / 2)
            before = after
            i += 1
        out.wall_s = time.perf_counter() - start
        return out

    def trace_pass(self, tracer: Optional[Tracer]) -> Outcome:
        out = Outcome()
        if tracer is None:
            start = time.perf_counter()
            for i in range(self.trace_ops):
                self._run_op(out, i, InlineExecutor())
            out.wall_s = time.perf_counter() - start
            return out
        with installed(tracer):
            start = time.perf_counter()
            for i in range(self.trace_ops):
                with tracer.request(f"op{i}"):
                    self._run_op(out, i,
                                 BenchExecutor(InlineExecutor(), tracer))
            out.wall_s = time.perf_counter() - start
        return out


class MemoryD9(CampaignWorkload):
    """Integer bucket decode tier at small n, plus the matching cache."""

    name = "memory_d9"
    trace_ops = 3

    def spec(self, i):
        samples = 256 if self.smoke else 4096
        return campaigns.MemorySpec(
            distance=9, p=0.01, samples=samples, region="centered",
            anomaly_size=4, p_ano=0.5, seed=self.spec_seed(i),
            batch_size=samples // 2, packing="bits")

    def units(self, result):
        return int(result.counts["samples"])

    def check(self, result, i):
        c = result.counts
        return band_problems(f"{self.name} op {i} per-run failures",
                             c["failures"], c["samples"],
                             REFERENCE[self.name]["per_run"])

    def control_spec(self, seed=None):
        # No strike: the same uniform-weight integer bucket tier decodes
        # it (the workload's decode ignores its region too).
        samples = 512 if self.smoke else 4096
        return campaigns.MemorySpec(
            distance=9, p=0.01, samples=samples, region=None,
            seed=self.control_seed() if seed is None else seed,
            batch_size=samples // 2, packing="bits")

    def control_check(self, result):
        c = result.counts
        return band_problems(f"{self.name} control per-run failures",
                             c["failures"], c["samples"],
                             REFERENCE[self.name]["control_per_run"])


class EndToEndPano03(CampaignWorkload):
    """Detect → decode at p_ano=0.3: the float decode tier."""

    name = "endtoend_pano03"
    trace_ops = 2
    RATES = ("naive", "detected", "oracle")

    def spec(self, i):
        shots = 2 if self.smoke else 16
        return campaigns.EndToEndSpec(
            distance=9, p=0.01, p_ano=0.3, shots=shots, cycles=300,
            onset=150, seed=self.spec_seed(i), batch_size=shots)

    def units(self, result):
        return int(result.counts["shots"])

    def check(self, result, i):
        return self._bands(result, f"op {i}", "")

    def _bands(self, result, label: str, prefix: str) -> list[str]:
        c = result.counts
        problems = []
        for rate in self.RATES:
            problems += band_problems(
                f"{self.name} {label} {rate} failures",
                c[f"{rate}_failures"], c["shots"],
                REFERENCE[self.name][f"{prefix}{rate}_rate"])
        return problems

    def control_spec(self, seed=None):
        # A one-cell strike at the same p_ano over a quieter base: the
        # oracle and detected decodes still take the weighted float tier.
        shots = 16 if self.smoke else 128
        return campaigns.EndToEndSpec(
            distance=9, p=0.002, p_ano=0.3, anomaly_size=1, shots=shots,
            cycles=300, onset=150,
            seed=self.control_seed() if seed is None else seed,
            batch_size=min(shots, 64))

    def control_check(self, result):
        return self._bands(result, "control", "control_")


class Fig10Sweep(CampaignWorkload):
    """The Fig. 10 instruction-throughput simulator over four strike rates."""

    name = "fig10_sweep"
    calibration = "python"

    def spec(self, i):
        base = campaigns.ThroughputSpec(
            architecture="q3de",
            num_instructions=100 if self.smoke else 1000,
            max_slots=300 if self.smoke else 1500,
            seed=self.spec_seed(i))
        return campaigns.Sweep(base, {"strike_prob_per_slot":
                                      tuple(FIG10_RATES)})

    def units(self, result):
        return sum(int(r.counts["slots"]) for r in result.results)

    def check(self, result, i):
        base = self.spec(i).base
        problems = []
        if len(result) != len(FIG10_RATES):
            problems.append(f"{self.name} op {i}: {len(result)} points")
        for overrides, point in result:
            c = point.counts
            if c["instructions"] != base.num_instructions \
                    and c["slots"] != base.max_slots:
                problems.append(
                    f"{self.name} op {i} {overrides}: neither completed "
                    f"({c['instructions']} instructions) nor capped "
                    f"({c['slots']} slots)")
        return problems

    def capped(self, result, i) -> list[bool]:
        """Per point: did it stop at ``max_slots`` short of the workload?"""
        base = self.spec(i).base
        return [p.counts["instructions"] < base.num_instructions
                for p in result.results]

    def pinned(self, result, digest):
        got = [[r.counts[k] for k in ("instructions", "slots", "strikes")]
               for r in result.results]
        want = REFERENCE[self.name]["counts_seed0_op0"]
        if got != want:
            return [f"{self.name}: seed-{DEFAULT_SEED} simulated counts "
                    f"{got} != pinned {want}"]
        return []


# ----------------------------------------------------------------------
# service_mix: two closed-loop HTTP clients against an in-process server
# ----------------------------------------------------------------------
class _Lane:
    """One closed-loop client: sends its next request when the last ends.

    It repeats the service-smoke sequence of the repository's CI: submit
    a new spec (miss), submit it again (hit), then ask for twice its
    shots (refinement, resuming all of the miss's chunks).
    """

    SESSION = ("miss", "hit", "refine")

    def __init__(self, mix: "ServiceMix", lane: int, port: int,
                 seed_base: int):
        self.mix = mix
        self.lane = lane
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=30)
        #: the last miss that completed: ``(spec, estimates)``.
        self.last: Optional[tuple[object, dict]] = None
        self.next_seed = seed_base * 2 + lane  # lanes never share specs
        self.requests = 0

    def close(self) -> None:
        self.conn.close()

    def next_kind(self) -> str:
        kind = self.SESSION[self.requests % len(self.SESSION)]
        return "miss" if self.last is None else kind

    def _call(self, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def request(self, kind: str, out: Outcome,
                tracer: Optional[Tracer]) -> None:
        out.attempted += 1
        if kind == "miss":
            spec = self.mix.spec(self.next_seed)
            self.next_seed += 2
            want = None
        elif kind == "hit":
            spec, want = self.last
        else:
            base = self.last[0]
            spec = replace(base, samples=2 * base.samples)
            want = None
        h = campaigns.spec_hash(spec)
        body = campaigns.spec_to_json(spec).encode()
        rid = f"lane{self.lane}-r{self.requests}"
        self.requests += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                status, doc = self._exchange(kind, h, body, out)
            else:
                sid = tracer.begin("service.request", rid)
                try:
                    with tracer.waiting_on(h, sid):
                        status, doc = self._exchange(kind, h, body, out)
                finally:
                    tracer.end(sid)
            elapsed = time.perf_counter() - start
        except (OSError, http.client.HTTPException, ValueError) as exc:
            out.fail(f"{rid} {kind}: {type(exc).__name__}: {exc}")
            self.conn.close()
            return
        problem = self._check(kind, spec, want, status, doc, out)
        if problem:
            out.fail(f"{rid} {kind}: {problem}")
            return
        out.latencies[kind].append(elapsed)
        out.counts[kind] += 1

    def _exchange(self, kind: str, h: str, body: bytes, out: Outcome):
        status, doc = self._call("POST", "/campaigns", body)
        out.counts["posts"] += 1
        if status != 202:
            out.counts["post_200"] += status == 200
            return status, doc
        out.counts["coalesced"] += bool(doc.get("coalesced"))
        deadline = time.perf_counter() + ServiceMix.TIMEOUT_S
        while time.perf_counter() < deadline:
            status, doc = self._call("GET", f"/campaigns/{h}")
            if status != 202:
                return status, doc
            time.sleep(ServiceMix.POLL_S)
        return 504, {"error": "timed out waiting for the campaign"}

    def _check(self, kind, spec, want, status, doc, out) -> Optional[str]:
        if status != 200 or doc.get("status") != "complete":
            return f"HTTP {status}: {doc.get('error', doc.get('status'))}"
        result = doc["result"]
        if kind == "hit":
            if doc.get("cache_hit") is not True:
                return "re-POST of a completed spec was not a cache hit"
            if result["estimates"] != want:
                return "cache hit estimates differ from the stored miss"
            return None
        counts, provenance = result["counts"], result["provenance"]
        out.counts["cache_hits"] += counts["cache_hits"]
        out.counts["cache_misses"] += counts["cache_misses"]
        if kind == "refine":
            resumed = self.last[0].samples // spec.batch_size
            if provenance["resumed_chunks"] != resumed:
                return (f"refinement resumed {provenance['resumed_chunks']}"
                        f" chunks, expected {resumed}")
            out.counts["refine_chunks"] += provenance["chunks"]
            out.counts["refine_resumed"] += provenance["resumed_chunks"]
        else:
            self.last = (spec, result["estimates"])
        return None


class ServiceMix:
    """Hits, misses and refinements through ``repro.service`` over HTTP."""

    name = "service_mix"
    lanes = 2
    POLL_S = 0.005
    TIMEOUT_S = 60.0

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        #: requests per lane in one traced pass (whole sessions).
        self.trace_requests = 3 * (3 if smoke else 20)
        self.tracer: Optional[Tracer] = None
        self._passes = 0

    @staticmethod
    def spec(seed: int):
        """The CI service-smoke spec, at a seed of the workload's."""
        return campaigns.MemorySpec(distance=5, p=0.02, samples=64,
                                    seed=seed, batch_size=16)

    def _executor(self):
        inner = InlineExecutor(whole_request=False)  # "inline-chunked"
        if self.tracer is None:
            return inner
        return BenchExecutor(inner, self.tracer)

    def _run(self, tracer: Optional[Tracer], seconds: Optional[float],
             count: Optional[int]) -> Outcome:
        # Every pass starts from an empty store with the same requests,
        # so traced and untraced passes do identical work.
        store = self.workdir / f"store-{self._passes}"
        self._passes += 1
        seed_base = int(rng_for(self.seed, self.name).integers(2 ** 30))
        app = ServiceApp(store, executor_factory=self._executor, threads=1)
        server = make_server(app, "127.0.0.1", 0)
        serving = threading.Thread(target=server.serve_forever,
                                   kwargs={"poll_interval": 0.05})
        serving.start()
        port = server.server_address[1]
        lanes = [_Lane(self, i, port, seed_base)
                 for i in range(self.lanes)]
        outs = [Outcome() for _ in lanes]
        gate = threading.Barrier(self.lanes + 1, timeout=120)
        window: dict[str, float] = {}

        def drive(lane: _Lane, out: Outcome) -> None:
            try:
                warm = Outcome()  # one session; not measured
                for kind in lane.SESSION:
                    lane.request(kind, warm, None)
                out.attempted += warm.attempted
                out.problems += warm.problems
                out.failed_ops += warm.failed_ops
                gate.wait()   # every lane warm
                gate.wait()   # tracing installed, clock started
                done = 0
                while (count is not None and done < count) or (
                        seconds is not None
                        and time.perf_counter() < window["until"]):
                    lane.request(lane.next_kind(), out, self.tracer)
                    done += 1
                window[f"end{lane.lane}"] = time.perf_counter()
            except threading.BrokenBarrierError:
                out.fail(f"lane {lane.lane}: barrier broken")
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                out.fail(f"lane {lane.lane}: {type(exc).__name__}: {exc}")
                gate.abort()

        threads = [threading.Thread(target=drive, args=(lane, out))
                   for lane, out in zip(lanes, outs)]
        for thread in threads:
            thread.start()
        merged = Outcome()
        try:
            gate.wait()
            with (installed(tracer) if tracer is not None
                  else contextlib.nullcontext()):
                self.tracer = tracer
                reset_peak_rss()
                window["start"] = time.perf_counter()
                window["until"] = window["start"] + (seconds or 0.0)
                gate.wait()
                for thread in threads:
                    thread.join()
                merged.peaks.append(peak_rss_mb())
                self.tracer = None
        except threading.BrokenBarrierError:
            merged.fail("service lanes never reached the start line")
        finally:
            for thread in threads:
                thread.join()
            for lane in lanes:
                lane.close()
            server.shutdown()
            server.server_close()
            app.close()
            serving.join()
            shutil.rmtree(store, ignore_errors=True)
        for out in outs:
            merged.attempted += out.attempted
            merged.problems += out.problems
            merged.failed_ops += out.failed_ops
            merged.counts += out.counts
            for kind, values in out.latencies.items():
                merged.latencies[kind] += values
        ends = [v for k, v in window.items() if k.startswith("end")]
        if ends and "start" in window:
            merged.wall_s = max(ends) - window["start"]
        return merged

    def control(self) -> Outcome:
        """No control campaign: every hit is checked against its miss."""
        return Outcome()

    def measure(self, seconds: float) -> Outcome:
        return self._run(None, seconds, None)

    def trace_pass(self, tracer: Optional[Tracer]) -> Outcome:
        return self._run(tracer, None, self.trace_requests)


WORKLOADS = {cls.name: cls for cls in
             (MemoryD9, EndToEndPano03, Fig10Sweep, ServiceMix)}
