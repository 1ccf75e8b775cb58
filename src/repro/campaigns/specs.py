"""Frozen, JSON-round-trippable campaign specifications.

A *spec* is the complete, serializable description of one experiment:
what to simulate, how deep, with which engine knobs, from which seed.
Specs are frozen dataclasses validated at construction, so an invalid
campaign fails before any compute is spent, and :func:`spec_hash` gives
every spec a stable identity that keys its checkpoint shards and
provenance block.

Seven kinds cover the paper's evaluations:

* :class:`MemorySpec`     — logical-memory Monte Carlo (Figs. 3/8).
* :class:`EndToEndSpec`   — detect/estimate/re-decode strikes (Fig. 8's
  closed loop).
* :class:`DetectionSpec`  — detection-unit tuning trials (Fig. 7).
* :class:`ScenarioSpec`   — a :class:`repro.scenarios.Scenario` (multi
  strike, heterogeneous/drifting base rate) driven through the memory,
  end-to-end, or detection shot engine.
* :class:`StreamingSpec`  — online round-by-round detection with
  per-round latency SLOs (the paper's real-time operating mode).
* :class:`ScalingSpec`    — required-density curves (Fig. 9; analytic
  event-driven model, no shot engine).
* :class:`ThroughputSpec` — instruction throughput (Fig. 10).

:class:`Sweep` wraps any spec with parameter axes and expands into the
grid of per-point specs, each with a deterministically derived seed.

The JSON wire format is ``{"kind": "<kind>", ...fields}``; regions
serialize as field dicts, and ``"centered"`` is accepted as a
declarative region that resolves against the spec's own ``distance`` at
run time (so a distance sweep keeps one base spec).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

from repro.noise.models import AnomalousRegion
from repro.scenarios.model import Scenario
from repro.sim.batch import DECODE_MODES, PACKING_MODES

#: Largest campaign seed (the engine draws seeds below 2**63).
MAX_SEED = 2 ** 63


class SpecError(ValueError):
    """A campaign spec failed validation or (de)serialization."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _check_types(spec) -> None:
    """Reject a field value of the wrong JSON type before range checks.

    Integer fields take exact ``int`` values only: ``true`` and ``2.0``
    would pass an ``int``-range check yet serialize — and hence hash —
    apart from ``1`` and ``2``, and a non-integral ``5.5`` would pass
    validation only to crash in compute.  Float fields take finite
    non-``bool`` numbers; ``bool`` and ``str`` fields their own type.
    Other annotations (regions, scenarios, area tuples) are checked by
    their spec.
    """
    for name, optional, ok, label in _typed_fields(type(spec)):
        value = getattr(spec, name)
        if not (ok(value) or optional and value is None):
            raise SpecError(f"{name} must be {label}, got {value!r:.80}")


def _is_number(value) -> bool:
    """A finite, non-``bool`` int or float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return not isinstance(value, float) or math.isfinite(value)


#: Field annotation -> (value predicate, what the message calls it).
_FIELD_CHECKS = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (_is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


@functools.cache
def _typed_fields(cls: type) -> tuple:
    """``(name, optional, predicate, label)`` per type-checked field.

    Resolved once per spec class: specs are rebuilt on hot paths (the
    refinement scan parses every sibling shard's spec per request).
    """
    plan = []
    for f in dataclasses.fields(cls):
        annotation = f.type
        optional = annotation.startswith("Optional[")
        if optional:
            annotation = annotation[len("Optional["):-1]
        if annotation in _FIELD_CHECKS:
            plan.append((f.name, optional, *_FIELD_CHECKS[annotation]))
    return tuple(plan)


def _check_common(spec) -> None:
    _check_types(spec)
    _check(0 <= spec.seed < MAX_SEED,
           f"seed must be an int in [0, 2**63), got {spec.seed!r}")
    if getattr(spec, "batch_size", None) is not None:
        _check(spec.batch_size >= 1, "batch_size must be >= 1")
    if hasattr(spec, "packing"):
        _check(spec.packing in PACKING_MODES,
               f"packing must be one of {PACKING_MODES}")
    _check(0.0 <= spec.p <= 1.0, "p must be a probability")
    _check(spec.distance >= 3, "distance must be >= 3")


def _check_region(region, anomaly_size: int) -> None:
    _check(region is None or isinstance(region, AnomalousRegion)
           or region == "centered",
           "region must be None, an AnomalousRegion, or 'centered'")
    # An empty window is no strike event at all, yet an informed
    # decoder would still weight the box: reject it outright.
    _check(not isinstance(region, AnomalousRegion)
           or region.t_hi != region.t_lo,
           "region window must be non-empty (t_hi > t_lo)")
    _check(anomaly_size >= 1, "anomaly_size must be >= 1")


@dataclass(frozen=True)
class MemorySpec:
    """One logical-memory campaign (see :class:`repro.sim.MemoryExperiment`).

    ``region`` may be an :class:`AnomalousRegion`, ``None`` (MBBE free),
    or the string ``"centered"`` — a region of ``anomaly_size`` centered
    on this spec's lattice, resolved at run time so the same base spec
    sweeps cleanly over ``distance``.  An explicit region needs a
    non-empty window (``t_hi > t_lo``, or ``t_hi=None``).
    """

    kind = "memory"

    distance: int
    p: float
    samples: int
    region: Union[AnomalousRegion, str, None] = None
    anomaly_size: int = 4
    p_ano: float = 0.5
    decoder: str = "greedy"
    informed: bool = False
    cycles: Optional[int] = None
    seed: int = 0
    batch_size: Optional[int] = None
    target_rel_width: Optional[float] = None
    packing: str = "bits"
    decode: str = "batched"

    def __post_init__(self) -> None:
        _check_common(self)
        _check(self.samples >= 1, "samples must be >= 1")
        _check(0.0 <= self.p_ano <= 1.0, "p_ano must be a probability")
        _check(self.decoder in ("greedy", "mwpm"),
               "decoder must be 'greedy' or 'mwpm'")
        _check(self.cycles is None or self.cycles >= 1,
               "cycles must be >= 1")
        _check(self.decode in DECODE_MODES,
               f"decode must be one of {DECODE_MODES}")
        _check(self.target_rel_width is None or self.target_rel_width > 0,
               "target_rel_width must be positive")
        _check_region(self.region, self.anomaly_size)

    def resolve_region(self) -> Optional[AnomalousRegion]:
        """The concrete region this campaign simulates."""
        if self.region == "centered":
            return AnomalousRegion.centered(self.distance, self.anomaly_size)
        return self.region


@dataclass(frozen=True)
class EndToEndSpec:
    """One detect/estimate/re-decode campaign
    (see :class:`repro.sim.EndToEndExperiment`)."""

    kind = "endtoend"

    distance: int
    p: float
    shots: int
    p_ano: float = 0.5
    anomaly_size: int = 4
    onset: int = 150
    cycles: int = 300
    c_win: int = 100
    n_th: int = 8
    alpha: float = 0.01
    seed: int = 0
    batch_size: Optional[int] = None
    packing: str = "bits"
    decode: str = "batched"

    def __post_init__(self) -> None:
        _check_common(self)
        _check(self.shots >= 1, "shots must be >= 1")
        _check(0.0 <= self.p_ano <= 1.0, "p_ano must be a probability")
        _check(self.anomaly_size >= 1, "anomaly_size must be >= 1")
        _check(0 <= self.onset < self.cycles,
               "the strike must land inside the run")
        _check(self.c_win >= 1, "c_win must be >= 1")
        _check(self.n_th >= 0, "n_th must be >= 0")
        _check(0.0 < self.alpha < 1.0, "alpha must be in (0, 1)")
        _check(self.decode in DECODE_MODES,
               f"decode must be one of {DECODE_MODES}")


@dataclass(frozen=True)
class DetectionSpec:
    """One detection-unit tuning campaign
    (see :func:`repro.sim.run_detection_trials`)."""

    kind = "detection"

    distance: int
    p: float
    p_ano: float
    anomaly_size: int
    c_win: int
    n_th: int = 20
    alpha: float = 0.01
    trials: int = 20
    normal_cycles: Optional[int] = None
    post_cycles: Optional[int] = None
    seed: int = 0
    batch_size: Optional[int] = None
    packing: str = "bits"
    scan: str = "batched"

    def __post_init__(self) -> None:
        _check_common(self)
        _check(self.trials >= 1, "trials must be >= 1")
        _check(0.0 <= self.p_ano <= 1.0, "p_ano must be a probability")
        _check(self.anomaly_size >= 1, "anomaly_size must be >= 1")
        _check(self.c_win >= 1, "c_win must be >= 1")
        _check(self.n_th >= 0, "n_th must be >= 0")
        _check(0.0 < self.alpha < 1.0, "alpha must be in (0, 1)")
        for name in ("normal_cycles", "post_cycles"):
            value = getattr(self, name)
            _check(value is None or value >= 1, f"{name} must be >= 1")
        _check(self.scan in DECODE_MODES,
               f"scan must be one of {DECODE_MODES}")

    def resolved_cycles(self) -> tuple[int, int]:
        """``(normal_cycles, post_cycles)`` with the legacy defaults."""
        normal = (self.normal_cycles if self.normal_cycles is not None
                  else 2 * self.c_win)
        post = (self.post_cycles if self.post_cycles is not None
                else 4 * self.c_win)
        return normal, post


#: Shot engines a :class:`ScenarioSpec` may drive.
SCENARIO_MODES = ("memory", "endtoend", "detection")


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario campaign: a strike timeline through a shot engine.

    A :class:`repro.scenarios.Scenario` — any number of strike events
    (overlapping or back-to-back), an optional per-qubit base-rate
    field, an optional temporal drift profile — is driven through one of
    the three chunked shot engines selected by ``mode``:

    * ``"memory"``    — logical-error Monte Carlo; events must carry
      fixed positions (the noise model applies them chunk-wide).
    * ``"endtoend"``  — detect/estimate/re-decode; events without
      positions are re-drawn per shot, and ``cycles`` must be given
      explicitly (the timeline, not a single onset, sets the horizon).
    * ``"detection"`` — detection-unit trials; the pre-strike window is
      the first event's onset and the exposure runs ``post_cycles``
      beyond it.

    The region-field specs (memory, end-to-end, detection) lower to
    one-event scenario specs before any kernel is built
    (:func:`repro.campaigns.runner.lower_spec`), so the single-event
    case is bit-identical to them per ``(seed, batch_size)`` by
    construction (see CONTRACTS.md).
    """

    kind = "scenario"

    distance: int
    p: float
    shots: int
    scenario: Scenario = Scenario()
    mode: str = "memory"
    decoder: str = "greedy"
    informed: bool = False
    cycles: Optional[int] = None
    c_win: int = 100
    n_th: int = 8
    alpha: float = 0.01
    post_cycles: Optional[int] = None
    seed: int = 0
    batch_size: Optional[int] = None
    target_rel_width: Optional[float] = None
    packing: str = "bits"
    decode: str = "batched"

    def __post_init__(self) -> None:
        if isinstance(self.scenario, dict):
            try:
                object.__setattr__(self, "scenario",
                                   Scenario.from_dict(self.scenario))
            except (TypeError, ValueError) as exc:
                raise SpecError(f"invalid scenario: {exc}") from exc
        _check(isinstance(self.scenario, Scenario),
               "scenario must be a Scenario (or its wire dict)")
        _check_common(self)
        _check(self.shots >= 1, "shots must be >= 1")
        _check(self.mode in SCENARIO_MODES,
               f"mode must be one of {SCENARIO_MODES}")
        _check(self.decoder in ("greedy", "mwpm"),
               "decoder must be 'greedy' or 'mwpm'")
        _check(self.cycles is None or self.cycles >= 1,
               "cycles must be >= 1")
        _check(self.c_win >= 1, "c_win must be >= 1")
        _check(self.n_th >= 0, "n_th must be >= 0")
        _check(0.0 < self.alpha < 1.0, "alpha must be in (0, 1)")
        _check(self.post_cycles is None or self.post_cycles >= 1,
               "post_cycles must be >= 1")
        _check(self.decode in DECODE_MODES,
               f"decode must be one of {DECODE_MODES}")
        _check(self.target_rel_width is None or self.target_rel_width > 0,
               "target_rel_width must be positive")
        scenario = self.scenario
        if scenario.rate_field is not None:
            _check(scenario.rate_field_distance == self.distance,
                   f"scenario rate_field is for distance "
                   f"{scenario.rate_field_distance}, spec says "
                   f"{self.distance}")
        if self.mode == "memory":
            _check(scenario.fixed,
                   "memory-mode scenarios need fixed event positions")
            _check(self.post_cycles is None,
                   "post_cycles is a detection-mode knob")
        else:
            _check(len(scenario.events) >= 1,
                   f"{self.mode}-mode scenarios need at least one event")
            if self.mode == "endtoend":
                _check(self.cycles is not None,
                       "endtoend mode needs explicit cycles (the "
                       "timeline, not a single onset, sets the horizon)")
                _check(scenario.first_onset < self.cycles,
                       "the first strike must land inside the run")
                _check(self.post_cycles is None,
                       "post_cycles is a detection-mode knob")
            else:
                _check(self.cycles is None,
                       "detection mode derives cycles from the first "
                       "onset and post_cycles")
                _check(scenario.first_onset >= 1,
                       "detection scenarios need a pre-strike window "
                       "(first onset >= 1)")

    def resolved_cycles(self) -> tuple[int, int]:
        """Detection-mode ``(normal_cycles, post_cycles)``.

        The pre-strike window *is* the first event's onset; the post
        window defaults to the legacy ``4 * c_win``.
        """
        post = (self.post_cycles if self.post_cycles is not None
                else 4 * self.c_win)
        return self.scenario.first_onset, post

    def total_cycles(self) -> int:
        """The exposure this campaign simulates, whatever the mode."""
        if self.mode == "memory":
            return self.cycles if self.cycles is not None else self.distance
        if self.mode == "endtoend":
            assert self.cycles is not None  # validated at construction
            return self.cycles
        normal, post = self.resolved_cycles()
        return normal + post


@dataclass(frozen=True)
class StreamingSpec:
    """One online streaming campaign (see :mod:`repro.streaming`).

    The detection geometry mirrors :class:`DetectionSpec` (``onset`` is
    ``normal_cycles``, exposure runs ``normal + post`` rounds), but the
    trials execute round by round through the streaming driver, and the
    campaign's headline result is the per-round latency envelope —
    p50/p99 wall clock and sustained rounds/sec — judged against the
    ``code_cycle_us`` SLO (:class:`repro.hwmodel.pipeline.StreamSLO`).
    No ``batch_size``/``packing`` knobs: the stream is inherently
    one-round-at-a-time, and trials always run inline (wall clocks must
    time the round loop, not a worker pool).
    """

    kind = "streaming"

    distance: int
    p: float
    p_ano: float = 0.5
    anomaly_size: int = 4
    c_win: int = 100
    n_th: int = 8
    alpha: float = 0.01
    trials: int = 20
    normal_cycles: Optional[int] = None
    post_cycles: Optional[int] = None
    code_cycle_us: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_common(self)
        _check(self.trials >= 1, "trials must be >= 1")
        _check(0.0 <= self.p_ano <= 1.0, "p_ano must be a probability")
        _check(self.anomaly_size >= 1, "anomaly_size must be >= 1")
        _check(self.c_win >= 1, "c_win must be >= 1")
        _check(self.n_th >= 0, "n_th must be >= 0")
        _check(0.0 < self.alpha < 1.0, "alpha must be in (0, 1)")
        for name in ("normal_cycles", "post_cycles"):
            value = getattr(self, name)
            _check(value is None or value >= 1, f"{name} must be >= 1")
        _check(self.code_cycle_us > 0, "code_cycle_us must be positive")

    def resolved_cycles(self) -> tuple[int, int]:
        """``(normal_cycles, post_cycles)`` with the legacy defaults."""
        normal = (self.normal_cycles if self.normal_cycles is not None
                  else 2 * self.c_win)
        post = (self.post_cycles if self.post_cycles is not None
                else 4 * self.c_win)
        return normal, post


@dataclass(frozen=True)
class ScalingSpec:
    """One Fig. 9 required-density curve (analytic event-driven model).

    No shot engine behind this one — the curve is the
    :func:`repro.scaling.model.density_curve` evaluation with the given
    parameter overrides — but running it through the same entry point
    gives it the same provenance, sweep, and CLI treatment as the
    Monte-Carlo campaigns.
    """

    kind = "scaling"

    areas: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    use_q3de: bool = True
    anomaly_size: int = 4
    frequency_hz: float = 0.1
    lifetime_s: float = 25e-3
    c_lat: int = 30
    horizon_cycles: int = 100_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_types(self)
        _check(isinstance(self.areas, (list, tuple))
               and all(_is_number(a) for a in self.areas),
               "areas must be a list of finite numbers")
        object.__setattr__(self, "areas", tuple(self.areas))
        _check(len(self.areas) >= 1, "need at least one chip area")
        _check(all(a > 0 for a in self.areas), "areas must be positive")
        _check(self.anomaly_size >= 1, "anomaly_size must be >= 1")
        _check(self.frequency_hz >= 0, "frequency_hz must be >= 0")
        _check(self.lifetime_s > 0, "lifetime_s must be positive")
        _check(self.c_lat >= 1, "c_lat must be >= 1")
        _check(self.horizon_cycles >= 1, "horizon_cycles must be >= 1")
        _check(0 <= self.seed < MAX_SEED, "seed must be in [0, 2**63)")


@dataclass(frozen=True)
class ThroughputSpec:
    """One Fig. 10 instruction-throughput run
    (see :func:`repro.arch.throughput.simulate_throughput`)."""

    kind = "throughput"

    architecture: str = "q3de"
    num_instructions: int = 1000
    strike_prob_per_slot: float = 0.0
    strike_duration_slots: int = 100
    rows: int = 11
    cols: int = 11
    max_slots: int = 100_000
    seed: int = 7

    def __post_init__(self) -> None:
        _check_types(self)
        _check(self.architecture in ("mbbe_free", "baseline", "q3de"),
               f"unknown architecture {self.architecture!r}")
        _check(self.num_instructions >= 1, "num_instructions must be >= 1")
        _check(0.0 <= self.strike_prob_per_slot <= 1.0,
               "strike_prob_per_slot must be a probability")
        _check(self.strike_duration_slots >= 1,
               "strike_duration_slots must be >= 1")
        _check(self.rows >= 1 and self.cols >= 1,
               "plane dimensions must be >= 1")
        _check((self.rows // 2) * (self.cols // 2) >= 2,
               "plane must host >= 2 logical qubits "
               "((rows // 2) * (cols // 2) >= 2) for meas_ZZ pairs")
        _check(self.max_slots >= 1, "max_slots must be >= 1")
        _check(0 <= self.seed < MAX_SEED, "seed must be in [0, 2**63)")


#: Spec kinds by their wire name (Sweep handled separately).
SPEC_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (MemorySpec, EndToEndSpec, DetectionSpec, ScenarioSpec,
                StreamingSpec, ScalingSpec, ThroughputSpec)
}

CampaignSpec = Union[MemorySpec, EndToEndSpec, DetectionSpec, ScenarioSpec,
                     StreamingSpec, ScalingSpec, ThroughputSpec]


@dataclass(frozen=True)
class Sweep:
    """A parameter grid over one base spec.

    ``axes`` maps field names of ``base`` to value sequences; the sweep
    expands to the cartesian product in axis-declaration order (last
    axis fastest).  Unless ``derive_seeds`` is off, every point gets its
    own seed derived deterministically from the base seed and the
    point's overrides, so grid points are statistically independent yet
    fully reproducible from the sweep's JSON alone.
    """

    kind = "sweep"

    base: CampaignSpec
    axes: dict = field(default_factory=dict)
    derive_seeds: bool = True

    def __post_init__(self) -> None:
        _check(not isinstance(self.base, Sweep), "sweeps do not nest")
        _check(type(self.base) in SPEC_KINDS.values(),
               f"base must be a campaign spec, got {type(self.base)!r}")
        _check(isinstance(self.axes, dict), "sweep axes must be an object")
        _check(isinstance(self.derive_seeds, bool),
               "derive_seeds must be a boolean")
        for name, values in self.axes.items():
            _check(isinstance(values, (list, tuple)),
                   f"axis {name!r} must be a list of values, "
                   f"got {values!r}")
        object.__setattr__(
            self, "axes",
            {name: tuple(values) for name, values in self.axes.items()})
        names = {f.name for f in dataclasses.fields(self.base)}
        for name, values in self.axes.items():
            _check(name in names,
                   f"axis {name!r} is not a field of {type(self.base).__name__}")
            _check(len(values) >= 1, f"axis {name!r} is empty")

    def __len__(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def points(self) -> Iterator[tuple[dict, CampaignSpec]]:
        """Yield ``(overrides, spec)`` per grid point, in grid order."""
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            overrides = dict(zip(names, combo, strict=True))
            spec = dataclasses.replace(self.base, **overrides)
            if self.derive_seeds:
                spec = dataclasses.replace(
                    spec, seed=derive_seed(self.base.seed, overrides))
            yield overrides, spec

    def specs(self) -> list[CampaignSpec]:
        return [spec for _, spec in self.points()]


def derive_seed(base_seed: int, overrides: dict) -> int:
    """A stable per-point seed from the base seed and the overrides.

    SHA-256 over the canonical JSON of ``(base_seed, sorted overrides)``
    — deterministic across processes and Python versions (no reliance on
    ``hash()``), so a sweep's points are reproducible from its spec.
    """
    doc = json.dumps([base_seed, _jsonify(overrides)], sort_keys=True,
                     separators=(",", ":"), allow_nan=False)
    digest = hashlib.sha256(doc.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % MAX_SEED


# ----------------------------------------------------------------------
# JSON wire format
# ----------------------------------------------------------------------
def _jsonify(value: Any) -> Any:
    if isinstance(value, AnomalousRegion):
        return {name: getattr(value, name)
                for name in ("row_lo", "col_lo", "size", "t_lo", "t_hi")}
    if isinstance(value, Scenario):
        return value.to_dict()
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def spec_to_dict(spec) -> dict:
    """The spec's wire dict: ``{"kind": ..., ...fields}``."""
    if isinstance(spec, Sweep):
        return {"kind": Sweep.kind,
                "base": spec_to_dict(spec.base),
                "axes": _jsonify(spec.axes),
                "derive_seeds": spec.derive_seeds}
    if type(spec) not in SPEC_KINDS.values():
        raise SpecError(f"not a campaign spec: {type(spec)!r}")
    doc = {"kind": spec.kind}
    for f in dataclasses.fields(spec):
        doc[f.name] = _jsonify(getattr(spec, f.name))
    return doc


def spec_from_dict(doc: dict):
    """Rebuild a spec (or :class:`Sweep`) from its wire dict."""
    if not isinstance(doc, dict):
        raise SpecError(f"spec document must be an object, got {type(doc)!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise SpecError(f"spec kind must be a string, got {kind!r}")
    if kind == Sweep.kind:
        base = spec_from_dict(doc.get("base"))
        axes = doc.get("axes", {})
        if isinstance(axes, dict) and isinstance(axes.get("region"), list):
            axes = dict(axes)
            axes["region"] = [_parse_region(v) for v in axes["region"]]
        return Sweep(base=base, axes=axes,
                     derive_seeds=doc.get("derive_seeds", True))
    cls = SPEC_KINDS.get(kind)
    if cls is None:
        raise SpecError(
            f"unknown spec kind {kind!r} (choices: "
            f"{sorted(SPEC_KINDS) + [Sweep.kind]})")
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for name, value in doc.items():
        if name == "kind":
            continue
        if name not in names:
            raise SpecError(f"{cls.__name__} has no field {name!r}")
        if name == "region":
            value = _parse_region(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:  # missing required fields
        raise SpecError(f"invalid {cls.__name__}: {exc}") from exc


def _parse_region(value):
    if value is None or isinstance(value, (AnomalousRegion, str)):
        return value
    if isinstance(value, dict):
        _check(all(v is None or type(v) is int for v in value.values()),
               f"region fields must be integers, got {value!r:.80}")
        try:
            return AnomalousRegion(**value)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid region {value!r:.80}: {exc}") from exc
    raise SpecError(f"invalid region {value!r:.80}")


def spec_to_json(spec, indent: Optional[int] = None) -> str:
    """Serialize a spec/sweep to its canonical JSON string."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, indent=indent,
                      allow_nan=False)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def spec_from_json(text: str):
    """Parse a spec/sweep from JSON text.

    Fails closed: any text either yields a spec whose :func:`spec_hash`
    is defined, or raises :class:`SpecError` — including the
    non-standard ``NaN``/``Infinity`` literals Python's parser would
    otherwise accept and nesting too deep to parse.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    return spec_from_dict(doc)


def spec_hash(spec) -> str:
    """A 16-hex-digit stable identity for the spec.

    SHA-256 of the canonical (sorted-key, compact) JSON; keys checkpoint
    shard files and appears in every provenance block.  Two specs hash
    equal iff their wire dicts are equal — defaults are serialized
    explicitly, so adding a field with a new default changes the hash
    (by design: results may change too).
    """
    doc = json.dumps(spec_to_dict(spec), sort_keys=True,
                     separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]
