"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload memory_d9 --seed 0 --seconds 20 \
        --trace 0

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 5

#: End-to-end metrics: every workload reports all of them (README table).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

_STAGES = ("sample", "extract", "detect", "decode", "accumulate")
#: Per-layer metrics of the traced run: every workload reports all of
#: them, 0 where the workload never enters the layer (README table).
PER_LAYER = {
    **{f"sim.{stage}.self_s": "s" for stage in _STAGES},
    "sim.decode.nodes": "count",
    "sim.decode.nodes_per_s": "1/s",
    "decoding.cache_lookups": "count",
    "decoding.cache_hit_ratio": "ratio",
    "campaigns.runs": "count",
    "campaigns.runner_self_s": "s",
    "campaigns.chunks": "count",
    "campaigns.chunk_compute_s": "s",
    "campaigns.chunk.self_s": "s",
    "campaigns.checkpoint_appends": "count",
    "campaigns.checkpoint_append_s": "s",
    "campaigns.resumed_ratio": "ratio",
    "service.requests": "count",
    "service.hits": "count",
    "service.misses": "count",
    "service.refinements": "count",
    "service.queue_wait_s": "s",
    "service.store_gets": "count",
    "service.store_get_s": "s",
    "service.store_put_s": "s",
    "service.http_self_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.coalesced": "count",
    "service.hit_latency_p50_ms": "ms",
    "service.hit_latency_tail_ms": "ms",
    "service.hit_latency_tail_pct": "%",
    "service.miss_latency_p50_ms": "ms",
    "service.miss_latency_tail_ms": "ms",
    "service.miss_latency_tail_pct": "%",
    "arch.points": "count",
    "arch.sim_self_s": "s",
    "arch.step.self_s": "s",
    "arch.commit.self_s": "s",
    "arch.commit.attempts": "count",
    "arch.commit.success_ratio": "ratio",
    "arch.commit.success_ratio.1e-4": "ratio",
    "arch.commit.success_ratio.1e-3": "ratio",
    "arch.commit.success_ratio.3e-3": "ratio",
    "arch.commit.success_ratio.1e-2": "ratio",
    "arch.expire.self_s": "s",
    "arch.slots": "count",
    "arch.instructions": "count",
    "arch.strikes": "count",
    "arch.capped_points": "count",
    "trace.passes": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.span_self_sum_s": "s",
    "trace.overlap_s": "s",
    "trace.bench_self_s": "s",
}
#: Counts fixed by the seed: a traced run fails if they differ between
#: passes, and a speed-only change must leave them identical.  The other
#: counts (``service.store_gets``, ``trace.passes``) follow timing.
EXACT_COUNTS = {
    name for name, unit in PER_LAYER.items() if unit == "count"
} - {"service.store_gets", "trace.passes"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_setup(workload: str, repeats: int) -> tuple[float, list[str]]:
    """Median seconds of ``repeats`` fresh-process set-ups.

    Not host-speed calibrated: a kernel timed next to a fresh process's
    imports tracks them worse than no calibration at all.
    """
    probe = HERE / "setup_probe.py"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times, problems = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, str(probe), workload],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            problems.append(f"setup probe failed: {proc.stderr.strip()}")
            continue
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return (statistics.median(times) if times else 0.0), problems


def end_to_end(workload, out, setup_s: float,
               calibrate: bool = True) -> dict[str, float]:
    """End-to-end metrics; CPU-bound timings at reference host speed."""
    from workloads import ServiceMix
    if isinstance(workload, ServiceMix):
        requests = sum(len(v) for v in out.latencies.values())
        throughput = _ratio(requests, out.wall_s)
        latency = statistics.median(out.latencies.get("hit") or [0.0])
    elif not out.ops:  # every timed operation failed
        throughput = latency = 0.0
    else:
        ops = [(seconds / (slow if calibrate else 1.0), units)
               for (seconds, units), slow in zip(out.ops, out.slowness)]
        throughput = statistics.median(units / seconds
                                       for seconds, units in ops)
        latency = statistics.median(seconds for seconds, _ in ops)
    return {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "latency_p50_ms": latency * 1e3,
        "peak_rss_mb": statistics.median(out.peaks or [0.0]),
    }


def layer_metrics(workload, tracer, out, untraced_wall: float
                  ) -> dict[str, float]:
    """Per-layer metrics of one traced pass (service latencies aside)."""
    from tracing import NAME, self_times
    from workloads import FIG10_RATES, Fig10Sweep
    own, total, roots = self_times(tracer.spans)
    spans_named = {}
    for span in tracer.spans:
        spans_named[span[NAME]] = spans_named.get(span[NAME], 0) + 1
    m = {name: 0.0 for name in PER_LAYER}
    for stage in _STAGES:
        m[f"sim.{stage}.self_s"] = own.get(f"sim.{stage}", 0.0)
    nodes = tracer.counts["sim.decode.nodes"]
    m["sim.decode.nodes"] = nodes
    m["sim.decode.nodes_per_s"] = _ratio(nodes, own.get("sim.decode", 0.0))

    hits, misses = out.counts["cache_hits"], out.counts["cache_misses"]
    for result in out.results:
        counts = getattr(result, "counts", {})
        hits += counts.get("cache_hits", 0)
        misses += counts.get("cache_misses", 0)
    m["decoding.cache_lookups"] = hits + misses
    m["decoding.cache_hit_ratio"] = _ratio(hits, hits + misses)

    m["campaigns.runs"] = spans_named.get("campaigns.run", 0)
    m["campaigns.runner_self_s"] = own.get("campaigns.run", 0.0)
    m["campaigns.chunks"] = spans_named.get("campaigns.chunk", 0)
    m["campaigns.chunk_compute_s"] = total.get("campaigns.chunk", 0.0)
    m["campaigns.chunk.self_s"] = own.get("campaigns.chunk", 0.0)
    m["campaigns.checkpoint_appends"] = spans_named.get(
        "campaigns.checkpoint_append", 0)
    m["campaigns.checkpoint_append_s"] = own.get(
        "campaigns.checkpoint_append", 0.0)
    m["campaigns.resumed_ratio"] = _ratio(out.counts["refine_resumed"],
                                          out.counts["refine_chunks"])

    m["service.requests"] = spans_named.get("service.request", 0)
    m["service.hits"] = out.counts["hit"]
    m["service.misses"] = out.counts["miss"]
    m["service.refinements"] = out.counts["refine"]
    m["service.queue_wait_s"] = sum(
        at - tracer.marks[("enqueue", h)]
        for (event, h), at in tracer.marks.items()
        if event == "bind" and ("enqueue", h) in tracer.marks)
    m["service.store_gets"] = spans_named.get("service.store_get", 0)
    m["service.store_get_s"] = own.get("service.store_get", 0.0)
    m["service.store_put_s"] = own.get("service.store_put", 0.0)
    m["service.http_self_s"] = own.get("service.request", 0.0)
    m["service.cache_hit_ratio"] = _ratio(out.counts["post_200"],
                                          out.counts["posts"])
    m["service.coalesced"] = out.counts["coalesced"]

    m["arch.sim_self_s"] = own.get("arch.simulate", 0.0)
    m["arch.step.self_s"] = own.get("arch.step", 0.0)
    m["arch.commit.self_s"] = own.get("arch.commit", 0.0)
    m["arch.expire.self_s"] = own.get("arch.expire", 0.0)
    attempts = sum(a for a, _ in tracer.commits.values())
    m["arch.commit.attempts"] = attempts
    m["arch.commit.success_ratio"] = _ratio(
        sum(s for _, s in tracer.commits.values()), attempts)
    for rate, label in FIG10_RATES.items():
        tallies = [t for request, t in tracer.commits.items()
                   if request.endswith(f"/p={rate:g}")]
        m[f"arch.commit.success_ratio.{label}"] = _ratio(
            sum(s for _, s in tallies), sum(a for a, _ in tallies))
    if isinstance(workload, Fig10Sweep):
        for i, sweep in enumerate(out.results):
            m["arch.points"] += len(sweep)
            m["arch.capped_points"] += sum(workload.capped(sweep, i))
            for point in sweep.results:
                m["arch.slots"] += point.counts["slots"]
                m["arch.instructions"] += point.counts["instructions"]
                m["arch.strikes"] += point.counts["strikes"]

    self_sum = sum(own.values())
    m["trace.passes"] = 1
    m["trace.wall_s"] = out.wall_s
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_frac"] = _ratio(out.wall_s, untraced_wall) - 1.0
    m["trace.span_self_sum_s"] = self_sum
    m["trace.overlap_s"] = self_sum - roots
    m["trace.bench_self_s"] = workload.lanes * out.wall_s - roots
    return m


def traced_run(workload, seconds: float) -> tuple[dict[str, float], list,
                                                   int, int]:
    """Alternate untraced and traced passes until ``seconds`` have passed.

    Counts must repeat exactly from pass to pass; times are averaged.
    """
    from tracing import Tracer
    from workloads import ServiceMix, tail_percentile
    start = time.perf_counter()
    per_pass: list[dict[str, float]] = []
    problems: list[str] = []
    attempted = failed = 0
    latencies: dict[str, list] = {"hit": [], "miss": []}
    last = None
    while not per_pass or time.perf_counter() - start < seconds:
        tracer = Tracer()
        order = [None, tracer] if len(per_pass) % 2 == 0 else [tracer, None]
        outs = {}
        for which in order:
            outs[which is None] = out = workload.trace_pass(which)
            attempted += out.attempted
            failed += out.failed_ops
            problems += out.problems
        traced, untraced = outs[False], outs[True]
        per_pass.append(layer_metrics(workload, tracer, traced,
                                      untraced.wall_s))
        latencies["hit"] += traced.latencies.get("hit", [])
        latencies["miss"] += (traced.latencies.get("miss", [])
                              + traced.latencies.get("refine", []))
        last = tracer
    WORKDIR.mkdir(exist_ok=True)
    last.write(WORKDIR / f"trace-{workload.name}.jsonl")

    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        values = [m[name] for m in per_pass]
        if name in EXACT_COUNTS and len(set(values)) > 1:
            problems.append(f"count {name} differs between traced passes: "
                            f"{values}")
            failed += 1
        metrics[name] = statistics.fmean(values)
    metrics["trace.passes"] = len(per_pass)
    metrics["trace.overhead_frac"] = statistics.median(
        m["trace.overhead_frac"] for m in per_pass)
    if isinstance(workload, ServiceMix):
        for kind in ("hit", "miss"):
            values = latencies[kind]
            if values:
                metrics[f"service.{kind}_latency_p50_ms"] = \
                    statistics.median(values) * 1e3
            pct, value = tail_percentile(values)
            metrics[f"service.{kind}_latency_tail_ms"] = value * 1e3
            metrics[f"service.{kind}_latency_tail_pct"] = pct
    return metrics, problems, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the self-test; no pinned "
                             "digests, one set-up")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, ServiceMix
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choices: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    run_dir = WORKDIR / f"run-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    workload = (cls(args.seed, run_dir, smoke=args.smoke)
                if cls is ServiceMix else cls(args.seed, smoke=args.smoke))
    try:
        control = workload.control()
        if args.trace:
            metrics, problems, attempted, failed = traced_run(
                workload, args.seconds)
            units = PER_LAYER
        else:
            setup_s, problems = measure_setup(
                args.workload, 1 if args.smoke else SETUP_REPEATS)
            out = workload.measure(args.seconds)
            problems += out.problems
            attempted, failed = out.attempted, out.failed_ops
            if not (out.ops or out.latencies):
                problems.append("no operation completed in the window")
            metrics = end_to_end(workload, out, setup_s)
            raw = end_to_end(workload, out, setup_s, calibrate=False)
            print("as measured, before host-speed calibration (median "
                  f"slowness {statistics.median(out.slowness or [1.0]):.3f}"
                  "): " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems = control.problems + problems
    attempted += control.attempted
    failed += control.failed_ops

    for problem in problems:
        print(f"check failed: {problem}")
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"{name:<{width}}  {metrics[name]:>14.6g}  {unit}")
    print(f"{'failed_frac':<{width}}  {_ratio(failed, attempted):>14.6g}  "
          f"failed/attempted ({failed}/{attempted})")
    print(f"output checks: {'ok' if not problems else 'FAILED'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
