"""Recompute ``reference.json``: reference failure rates and seed-0 pins.

    PYTHONPATH=src python3 perfbench/calibrate.py

The reference rates come from one large campaign per shot workload,
and one per control campaign, at a seed no benchmark run uses; the pins
are op 0 of ``--seed 0``.  Only a change to the physics (noise model,
decoder, detector) should move them; a speed-only change must
reproduce every pinned value bit for bit.
"""

import json
import os
from dataclasses import replace
from pathlib import Path

from repro import campaigns
from repro.campaigns.executors import InlineExecutor

from tracing import BenchExecutor
from workloads import DEFAULT_SEED, EndToEndPano03, Fig10Sweep, MemoryD9

CALIBRATION_SEED = 987654321


def digest(workload) -> str:
    executor = BenchExecutor(InlineExecutor())
    campaigns.run(workload.spec(0), executor=executor)
    return executor.hexdigest()


def main() -> None:
    memory = MemoryD9(DEFAULT_SEED)
    big = campaigns.run(campaigns.MemorySpec(
        distance=9, p=0.01, samples=16 * 4096, region="centered",
        anomaly_size=4, p_ano=0.5, seed=CALIBRATION_SEED, batch_size=2048),
        executor=InlineExecutor())
    endtoend = EndToEndPano03(DEFAULT_SEED)
    e2e = campaigns.run(campaigns.EndToEndSpec(
        distance=9, p=0.01, p_ano=0.3, shots=256, cycles=300, onset=150,
        seed=CALIBRATION_SEED, batch_size=16), executor=InlineExecutor())
    c = e2e.counts
    memory_control = campaigns.run(
        replace(memory.control_spec(CALIBRATION_SEED), samples=16 * 4096),
        executor=InlineExecutor())
    e2e_control = campaigns.run(
        replace(endtoend.control_spec(CALIBRATION_SEED), shots=2048),
        executor=InlineExecutor()).counts
    fig10 = Fig10Sweep(DEFAULT_SEED)
    sweep = campaigns.run(fig10.spec(0), executor=InlineExecutor())
    doc = {
        "memory_d9": {
            "per_run": big.counts["failures"] / big.counts["samples"],
            "calibration_shots": big.counts["samples"],
            "digest_seed0_op0": digest(memory),
            "control_per_run": (memory_control.counts["failures"]
                                / memory_control.counts["samples"]),
            "control_calibration_shots": memory_control.counts["samples"]},
        "endtoend_pano03": {
            **{f"{k}_rate": c[f"{k}_failures"] / c["shots"]
               for k in EndToEndPano03.RATES},
            "calibration_shots": c["shots"],
            "digest_seed0_op0": digest(endtoend),
            **{f"control_{k}_rate": (e2e_control[f"{k}_failures"]
                                     / e2e_control["shots"])
               for k in EndToEndPano03.RATES},
            "control_calibration_shots": e2e_control["shots"]},
        "fig10_sweep": {
            "counts_seed0_op0": [
                [r.counts[k] for k in ("instructions", "slots", "strikes")]
                for r in sweep.results]},
    }
    path = Path(__file__).with_name("reference.json")
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n")
    os.replace(tmp, path)


if __name__ == "__main__":
    main()
