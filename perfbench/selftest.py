"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size (``--smoke``: tiny inputs, one
set-up) in both modes and checks that

* ``BENCHMARK.json`` and ``run.py`` declare the same metrics and units;
* every name matches ``[A-Za-z0-9_.-]+`` and every unit its charset;
* each workload prints exactly the metrics listed for its mode
  (``end_to_end`` untraced, ``per_layer`` traced), as the last line;
* the output checks passed and the end-to-end values are non-zero;
* every per-layer metric is non-zero on the workloads the README's
  "on" column names (:data:`NONZERO`) and 0 elsewhere, apart from the
  metrics in :data:`EITHER`; a layer wrapper that stops firing shows;
* spans cover the traced wall clock: the benchmark's own time outside
  them is at most :data:`MAX_BENCH_SHARE` of it, and on single-lane
  workloads spans never overlap.

Exits 0 when every check passes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

_ALL = {"campaigns.runs", "campaigns.runner_self_s", "trace.passes",
        "trace.wall_s", "trace.untraced_wall_s", "trace.span_self_sum_s",
        "trace.bench_self_s"}
_SHOTS = {f"sim.{stage}.self_s" for stage in
          ("sample", "extract", "decode", "accumulate")} | {
    "sim.decode.nodes", "sim.decode.nodes_per_s", "campaigns.chunks",
    "campaigns.chunk_compute_s", "campaigns.chunk.self_s"}
#: Per workload, the per-layer metrics that must read non-zero at smoke
#: size.  Every other metric must read 0 there, except those in EITHER.
NONZERO = {
    "memory_d9": _ALL | _SHOTS,
    "endtoend_pano03": _ALL | _SHOTS | {"sim.detect.self_s"},
    "fig10_sweep": _ALL | {
        "arch.points", "arch.sim_self_s", "arch.step.self_s",
        "arch.commit.self_s", "arch.commit.attempts",
        "arch.commit.success_ratio", "arch.commit.success_ratio.1e-4",
        "arch.commit.success_ratio.1e-3", "arch.commit.success_ratio.3e-3",
        "arch.commit.success_ratio.1e-2", "arch.expire.self_s",
        "arch.slots", "arch.instructions", "arch.strikes",
        "arch.capped_points"},
    "service_mix": _ALL | _SHOTS | {
        "decoding.cache_lookups", "campaigns.checkpoint_appends",
        "campaigns.checkpoint_append_s", "campaigns.resumed_ratio",
        "service.requests", "service.hits", "service.misses",
        "service.refinements", "service.queue_wait_s", "service.store_gets",
        "service.store_get_s", "service.store_put_s", "service.http_self_s",
        "service.cache_hit_ratio", "service.hit_latency_p50_ms",
        "service.miss_latency_p50_ms"},
}
#: Metrics that may read 0 or not anywhere: a hit ratio of few lookups,
#: the overhead and overlap of timing, tails that need enough samples.
EITHER = {"decoding.cache_hit_ratio", "trace.overhead_frac",
          "trace.overlap_s", "service.hit_latency_tail_ms",
          "service.hit_latency_tail_pct", "service.miss_latency_tail_ms",
          "service.miss_latency_tail_pct"}
#: Largest share of lanes x traced wall clock spent outside every span.
MAX_BENCH_SHARE = 0.05


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_errors(label: str, workload: str, values: dict,
                 lanes: int) -> list[str]:
    """Zero/non-zero pattern and span coverage of one traced run."""
    nonzero = NONZERO[workload]
    errors = [f"{label}: {name} is {value}, expected non-zero"
              for name, value in values.items()
              if name in nonzero and not value > 0]
    errors += [f"{label}: {name} is {value}, expected 0"
               for name, value in values.items()
               if name not in nonzero | EITHER and value != 0]
    bench = values["trace.bench_self_s"]
    budget = MAX_BENCH_SHARE * lanes * values["trace.wall_s"]
    if not 0 <= bench <= budget:
        errors.append(f"{label}: {bench} s outside every span, more than "
                      f"{budget} s")
    if lanes == 1 and abs(values["trace.overlap_s"]) > 1e-6:
        errors.append(f"{label}: spans overlap by "
                      f"{values['trace.overlap_s']} s")
    return errors


def main() -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from run import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for section, declared in (("end_to_end", END_TO_END),
                              ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[section]}
        if listed != declared:
            errors.append(f"BENCHMARK.json {section} != run.py: "
                          f"{sorted(set(listed.items()) ^ set(declared.items()))}")
        for name, unit in listed.items():
            if not NAME.fullmatch(name) or not UNIT.fullmatch(unit):
                errors.append(f"bad metric name or unit: {name!r} {unit!r}")

    for workload in (w["name"] for w in bench["workloads"]):
        if not NAME.fullmatch(workload):
            errors.append(f"bad workload name {workload!r}")
        for trace, declared in ((0, END_TO_END), (1, PER_LAYER)):
            doc = run(workload, trace)
            label = f"{workload} trace={trace}"
            known = len(errors)
            if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(doc)}")
            if not doc["correct"] or doc["failed"]:
                errors.append(f"{label}: output checks failed")
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            if got != declared:
                errors.append(f"{label}: metrics differ from the list: "
                              f"{sorted(set(got.items()) ^ set(declared.items()))}")
                continue
            values = {name: m["value"] for name, m in doc["metrics"].items()}
            if trace == 0:
                errors += [f"{label}: {name} is {value}"
                           for name, value in values.items() if value <= 0]
            else:
                errors += layer_errors(label, workload, values,
                                       WORKLOADS[workload].lanes)
            if len(errors) == known:
                print(f"ok  {label}")
    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
