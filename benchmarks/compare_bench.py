"""Cross-PR bench trajectory guard: compare two ``BENCH_*.json`` files.

The committed ``BENCH_batch.json`` is the repo's machine-readable perf
trajectory; every bench section records the ratios and wall clocks it
measured plus the env knobs it ran under.  This tool compares a freshly
emitted file against the committed baseline, section by section, and
exits nonzero when a *directional* metric regressed beyond the
tolerance:

* higher-is-better — keys containing ``speedup``, ``throughput`` or
  ``ratio``: regression when ``fresh < base * (1 - tolerance)``;
* lower-is-better — wall clocks (``wall_clock*`` or ``*_s`` keys) and
  latencies (``*_us``/``*_ms`` leaves and percentile-prefixed latency
  keys such as ``p99_round_latency_us``): regression when
  ``fresh > base * (1 + tolerance)``.  These are machine-dependent, so
  they only participate with ``--all-metrics``; the default run judges
  the (machine-robust) ratio metrics.  Rate-style ``*_per_us`` leaves
  (``matches_per_us``) are throughput-shaped domain values, not
  latencies, and are untouched by this class.
* certification booleans (``*_bit_equal`` flags): any flip off the
  baseline's ``true`` is a regression at every setting.

Everything else (domain values: logical error rates, required windows,
instruction throughputs) is reported as *drift* beyond the tolerance —
informational, never fatal, since Monte-Carlo noise moves them at low
sample counts.

Sections whose recorded env (samples/scale/workers) differs
between the two files are skipped (apples to oranges) unless
``--ignore-env`` is given.  See benchmarks/README.md for the CI wiring.

Usage::

    python benchmarks/compare_bench.py FRESH.json BASELINE.json \
        [--tolerance 0.2] [--all-metrics] [--ignore-env]
"""

from __future__ import annotations

import argparse
import json
import re
import sys

#: Env keys that must match for a section comparison to be meaningful.
ENV_KEYS = ("samples", "scale", "workers")

HIGHER_BETTER = ("speedup", "throughput")
#: ``ratio`` counts only as a key-word *ending* a path word (optionally
#: ``_min``/``_max``): ``throughput_ratio`` and ``storage_ratio_min``
#: are engine bars, but a label like fig07's ``pano_over_p_10`` (or any
#: ``ratio_<n>`` style sweep label) is domain data, not a bar.
_RATIO_KEY = re.compile(r"ratio(_min|_max)?($|[.\[])")
LOWER_BETTER = ("wall_clock",)
#: Lower-is-better latency leaves: explicit sub-second unit suffixes
#: (``*_us``/``*_ms``) and percentile-prefixed latency keys
#: (``p50_round_latency_us``).  The ``(?<!per)`` lookbehind keeps
#: rate-style ``*_per_us`` leaves (``matches_per_us`` — a throughput)
#: out; ``*_latency_cycles`` (fig07) has no unit suffix and stays
#: domain drift — detection latency in cycles is seed-determined, not
#: machine-dependent.
_LATENCY_LEAF = re.compile(r"(?<!per)_(us|ms)$|^p\d{1,3}_\w*latency")


def classify(path: str) -> str:
    """Direction of a dotted metric path: ``higher``/``lower``/``drift``.

    The key families are disjoint by construction:
    ``*_ratio``/``speedup_*``/``*throughput*`` are engine bars,
    ``wall_clock_s``/``*_s``/``*_us``/``p99_*latency*`` are timings,
    the rest is domain.
    """
    leaf = path.rsplit(".", 1)[-1]
    if (any(tag in path for tag in LOWER_BETTER) or leaf.endswith("_s")
            or _LATENCY_LEAF.search(leaf)):
        return "lower"
    if any(tag in path for tag in HIGHER_BETTER) \
            or _RATIO_KEY.search(path):
        return "higher"
    return "drift"


def _walk(node, path=""):
    """Yield ``(dotted_path, value)`` for scalar leaves of a section."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "env":
                continue
            yield from _walk(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            label = idx
            if isinstance(value, dict) and "point" in value:
                label = str(value["point"]).replace(" ", "_")
            yield from _walk(value, f"{path}[{label}]")
    elif isinstance(node, (bool, int, float)) and not isinstance(node, str):
        yield path, node


def compare(fresh: dict, base: dict, tolerance: float = 0.2,
            all_metrics: bool = False, ignore_env: bool = False):
    """Compare two bench documents; returns (regressions, drifts, notes).

    ``regressions`` is the fatal list; ``drifts`` informational;
    ``notes`` skipped sections / missing counterparts.
    """
    regressions: list[str] = []
    drifts: list[str] = []
    notes: list[str] = []
    fresh_sections = fresh.get("sections", {})
    base_sections = base.get("sections", {})

    for name in sorted(base_sections):
        if name not in fresh_sections:
            notes.append(f"section '{name}' missing from fresh run")
            continue
        fsec, bsec = fresh_sections[name], base_sections[name]
        fenv, benv = fsec.get("env", {}), bsec.get("env", {})
        if not ignore_env and any(fenv.get(k) != benv.get(k)
                                  for k in ENV_KEYS):
            notes.append(
                f"section '{name}' skipped: env mismatch "
                f"(fresh {fenv} vs baseline {benv})")
            continue
        bleaves = dict(_walk(bsec))
        fleaves = dict(_walk(fsec))
        for path, bval in bleaves.items():
            if path not in fleaves:
                notes.append(f"{name}.{path} missing from fresh run")
                continue
            fval = fleaves[path]
            where = f"{name}.{path}"
            if isinstance(bval, bool) or isinstance(fval, bool):
                if bool(fval) != bool(bval):
                    regressions.append(
                        f"{where}: certification flag flipped "
                        f"{bval} -> {fval}")
                continue
            direction = classify(path)
            if direction == "lower" and not all_metrics:
                continue
            if direction == "higher":
                if fval < bval * (1.0 - tolerance):
                    regressions.append(
                        f"{where}: {fval:.4g} < baseline {bval:.4g} "
                        f"- {tolerance:.0%}")
            elif direction == "lower":
                if fval > bval * (1.0 + tolerance):
                    regressions.append(
                        f"{where}: {fval:.4g} > baseline {bval:.4g} "
                        f"+ {tolerance:.0%}")
            else:
                scale = max(abs(bval), 1e-12)
                if abs(fval - bval) > tolerance * scale:
                    drifts.append(
                        f"{where}: {bval:.4g} -> {fval:.4g}")
    for name in sorted(fresh_sections):
        if name not in base_sections:
            notes.append(f"new section '{name}' (no baseline yet)")
    return regressions, drifts, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare a fresh bench JSON against the committed "
                    "baseline; exit 1 on perf regression.")
    parser.add_argument("fresh", help="freshly emitted BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="relative regression tolerance "
                             "(default 0.2 = 20%%)")
    parser.add_argument("--all-metrics", action="store_true",
                        help="also judge wall-clock metrics "
                             "(machine-dependent; off by default)")
    parser.add_argument("--ignore-env", action="store_true",
                        help="compare sections even when their recorded "
                             "env knobs differ")
    args = parser.parse_args(argv)

    docs = []
    for path in (args.fresh, args.baseline):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2

    regressions, drifts, notes = compare(
        docs[0], docs[1], tolerance=args.tolerance,
        all_metrics=args.all_metrics, ignore_env=args.ignore_env)

    for note in notes:
        print(f"[note]  {note}")
    for drift in drifts:
        print(f"[drift] {drift}")
    for reg in regressions:
        print(f"[REGRESSION] {reg}")
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance")
        return 1
    print(f"\nno regressions beyond {args.tolerance:.0%} tolerance "
          f"({len(drifts)} drift(s), {len(notes)} note(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
