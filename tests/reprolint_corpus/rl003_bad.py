"""RL003 corpus: environment reads outside the knob owner."""

import os
from os import getenv


def sneaky_knobs():
    workers = int(os.environ.get("REPRO_WORKERS", "0"))   # RL003
    samples = os.getenv("REPRO_SAMPLES", "200")           # RL003
    scale = getenv("REPRO_SCALE")                         # RL003 (import)
    return workers, samples, scale
