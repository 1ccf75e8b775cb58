"""Declarative multi-event noise scenarios (beyond one cosmic ray).

The paper's evaluation — and PRs 1–9 of this reproduction — exercise a
single workload shape: one :class:`~repro.noise.models.AnomalousRegion`
per shot over a uniform base error rate.  A :class:`Scenario` is the
declarative generalization: a tuple of :class:`StrikeEvent`\\ s (each
with its own onset, duration, size, position and strength, free to
overlap or arrive back-to-back), an optional spatial base-rate field
(per-measurement-node multiplier grid), and an optional temporal drift
profile (per-cycle multiplier).  Events may carry a
:class:`~repro.noise.leakage.BurstSource` tag, routing the reaction
semantics of ``repro.noise.leakage`` into specced campaigns.

Scenarios are frozen and JSON-round-trippable (the campaign spec
discipline, reprolint RL004).  They are the one workload representation
below the spec layer: the memory / end-to-end / detection specs lower
to one-event scenarios (:func:`repro.campaigns.runner.lower_spec`), so
the paper's single region is exactly the degenerate case
(docs/CONTRACTS.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

from repro.noise.models import AnomalousRegion

__all__ = [
    "ScenarioError",
    "StrikeEvent",
    "Scenario",
]

#: Wire values accepted for ``StrikeEvent.source`` (the
#: :class:`repro.noise.leakage.BurstSource` enum values, referenced by
#: string so the scenario layer needs no import of the leakage module
#: at definition time).
BURST_SOURCES = ("cosmic_ray", "atom_loss", "crystal_scramble",
                 "leakage", "calibration_drift")


class ScenarioError(ValueError):
    """A scenario description is malformed or unusable in context."""


@dataclass(frozen=True)
class StrikeEvent:
    """One anomalous burst: a box of qubits hot from ``onset`` on.

    Args:
        onset: first code cycle the event is active (``t_lo``).
        size: box side length in lattice nodes (``d_ano``).
        duration: active cycles; ``None`` means "until the end of the
            sampled window" (the legacy open ``t_hi``).
        row, col: box origin on the node lattice.  Both ``None`` means
            "uniform random position per shot" (the end-to-end kernels'
            sampling convention); both set means a fixed position.
        p_ano: physical error rate inside the box while active.
        source: optional :class:`~repro.noise.leakage.BurstSource` wire
            value (see :data:`BURST_SOURCES`) tagging the physical
            mechanism; routes the recommended reaction policy.
    """

    onset: int
    size: int
    duration: Optional[int] = None
    row: Optional[int] = None
    col: Optional[int] = None
    p_ano: float = 0.5
    source: Optional[str] = None

    def __post_init__(self) -> None:
        if self.onset < 0:
            raise ScenarioError("event onset must be >= 0")
        if self.size < 1:
            raise ScenarioError("event size must be >= 1")
        if self.duration is not None and self.duration < 1:
            raise ScenarioError("event duration must be >= 1 (or None)")
        if (self.row is None) != (self.col is None):
            raise ScenarioError(
                "event position needs both row and col (or neither)")
        if (self.row is not None and self.col is not None
                and (self.row < 0 or self.col < 0)):
            raise ScenarioError("event position must be non-negative")
        if not 0.0 <= self.p_ano <= 1.0:
            raise ScenarioError("event p_ano must be a probability")
        if self.source is not None and self.source not in BURST_SOURCES:
            raise ScenarioError(
                f"unknown burst source {self.source!r} "
                f"(one of {', '.join(BURST_SOURCES)})")

    # ------------------------------------------------------------------
    @property
    def t_hi(self) -> Optional[int]:
        """Exclusive end cycle, or ``None`` for an open window."""
        if self.duration is None:
            return None
        return self.onset + self.duration

    @property
    def fixed(self) -> bool:
        """True iff the event's position is pinned (not per-shot random)."""
        return self.row is not None

    @property
    def burst_source(self) -> Optional[Any]:
        """The event's :class:`~repro.noise.leakage.BurstSource`, if tagged."""
        if self.source is None:
            return None
        from repro.noise.leakage import BurstSource
        return BurstSource(self.source)

    @property
    def recommended_policy(self) -> Optional[Any]:
        """Reaction policy for the tagged source (paper Sec. IX)."""
        src = self.burst_source
        if src is None:
            return None
        from repro.noise.leakage import RECOMMENDED_POLICY
        return RECOMMENDED_POLICY[src]

    # ------------------------------------------------------------------
    def region(self) -> AnomalousRegion:
        """The event as a fixed :class:`AnomalousRegion` (fixed events only)."""
        if self.row is None or self.col is None:
            raise ScenarioError(
                "event has a per-shot random position; use "
                "resolve_region(distance, rng)")
        return AnomalousRegion(self.row, self.col, self.size,
                               t_lo=self.onset, t_hi=self.t_hi)

    def resolve_region(self, distance: int,
                       rng: np.random.Generator) -> AnomalousRegion:
        """The event's region for one shot, drawing position if random.

        Random positions draw through
        :meth:`AnomalousRegion.random` — the single place strike
        positions are sampled — and fixed events draw nothing.
        """
        if self.row is None or self.col is None:
            return AnomalousRegion.random(distance, self.size, rng,
                                          t_lo=self.onset, t_hi=self.t_hi)
        return AnomalousRegion(self.row, self.col, self.size,
                               t_lo=self.onset, t_hi=self.t_hi)

    # ------------------------------------------------------------------
    @classmethod
    def from_burst(cls, event: Any) -> "StrikeEvent":
        """A :class:`repro.noise.leakage.BurstEvent` as a strike event."""
        return cls(onset=int(event.cycle), size=int(event.size),
                   duration=int(event.duration_cycles),
                   row=int(event.row), col=int(event.col),
                   p_ano=float(event.p_ano),
                   source=str(event.source.value))

    def to_dict(self) -> dict:
        return {"onset": self.onset, "size": self.size,
                "duration": self.duration, "row": self.row,
                "col": self.col, "p_ano": self.p_ano,
                "source": self.source}

    @classmethod
    def from_dict(cls, doc: dict) -> "StrikeEvent":
        if not isinstance(doc, dict):
            raise ScenarioError("strike event must be a JSON object")
        known = {"onset", "size", "duration", "row", "col", "p_ano",
                 "source"}
        unknown = set(doc) - known
        if unknown:
            raise ScenarioError(
                f"unknown strike-event fields: {', '.join(sorted(unknown))}")
        # The wire form is strict, like the spec fields around it: a
        # bool or a float cycle/position would hash apart from the int
        # it aliases (or crash in compute when non-integral).
        for name in ("onset", "size", "duration", "row", "col"):
            value = doc.get(name)
            if value is not None and type(value) is not int:
                raise ScenarioError(
                    f"strike-event {name} must be an integer, "
                    f"got {value!r:.80}")
        if isinstance(doc.get("p_ano"), bool):
            raise ScenarioError("strike-event p_ano must be a number")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ScenarioError(f"bad strike event: {exc}") from exc


def _multiplier(x: Any) -> float:
    """One rate multiplier as a finite float (no bools or strings)."""
    try:
        value = float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"multiplier {x!r:.40} is not a number") \
            from exc
    if isinstance(x, (bool, str)) or not math.isfinite(value):
        raise ScenarioError(f"multiplier {x!r:.40} is not a finite number")
    return value


def _as_rate_field(value: Any) -> Optional[tuple]:
    """Validate/freeze a base-rate multiplier grid into nested tuples."""
    if value is None:
        return None
    rows = []
    for row in value:
        rows.append(tuple(_multiplier(x) for x in row))
    if not rows:
        raise ScenarioError("rate_field must have at least one row")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ScenarioError("rate_field rows must have equal length")
    if width != len(rows) + 1:
        raise ScenarioError(
            "rate_field must be a (d-1) x d measurement-node grid "
            f"(got {len(rows)} x {width})")
    if any(x <= 0.0 for r in rows for x in r):
        raise ScenarioError("rate_field multipliers must be positive")
    return tuple(rows)


def _as_drift(value: Any) -> Optional[tuple]:
    """Validate/freeze a per-cycle drift profile into a tuple."""
    if value is None:
        return None
    profile = tuple(_multiplier(x) for x in value)
    if not profile:
        raise ScenarioError("drift profile must have at least one entry")
    if any(x <= 0.0 for x in profile):
        raise ScenarioError("drift multipliers must be positive")
    return profile


@dataclass(frozen=True)
class Scenario:
    """A frozen, JSON-round-trippable noise scenario.

    Args:
        events: the strike timeline, in declaration order.  Overlapping
            boxes are allowed; where boxes overlap in space and time,
            later events overwrite earlier ones (declaration order is
            the precedence order).
        rate_field: optional ``(d-1) x d`` grid of positive base-rate
            multipliers, one per measurement node; the multiplier of a
            data edge is the max over its incident nodes.  ``None``
            means the uniform base rate.
        drift: optional per-cycle multiplier profile; cycle ``t`` uses
            entry ``min(t, len-1)`` (the last value holds).  ``None``
            means no temporal drift.
    """

    events: tuple = ()
    rate_field: Optional[tuple] = None
    drift: Optional[tuple] = None

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, StrikeEvent):
                raise ScenarioError(
                    f"scenario events must be StrikeEvent, got "
                    f"{type(event).__name__}")
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "rate_field",
                           _as_rate_field(self.rate_field))
        object.__setattr__(self, "drift", _as_drift(self.drift))

    # ------------------------------------------------------------------
    @property
    def uniform_base(self) -> bool:
        """True iff the base rate is spatially uniform and drift-free."""
        return self.rate_field is None and self.drift is None

    @property
    def fixed(self) -> bool:
        """True iff every event has a pinned position."""
        return all(event.fixed for event in self.events)

    @property
    def first_onset(self) -> int:
        """Earliest event onset (0 for an event-free scenario)."""
        if not self.events:
            return 0
        return min(event.onset for event in self.events)

    @property
    def rate_field_distance(self) -> Optional[int]:
        """Code distance implied by the rate field's grid, if any."""
        if self.rate_field is None:
            return None
        return len(self.rate_field) + 1

    # ------------------------------------------------------------------
    def resolve_regions(self, distance: int,
                        rng: np.random.Generator) -> tuple:
        """Per-event regions for one shot, in declaration order."""
        return tuple(event.resolve_region(distance, rng)
                     for event in self.events)

    # ------------------------------------------------------------------
    def rate_arrays(self, distance: int, p: float,
                    cycles: int) -> Optional[tuple]:
        """Per-cycle base flip-rate arrays, or ``None`` if uniform.

        Returns ``(thr_v, thr_h, thr_m)`` float arrays of shapes
        ``(cycles, d, d)``, ``(cycles, d-1, d-1)``, ``(cycles, d-1, d)``
        — the per-position probabilities replacing the scalar ``p`` in
        ``rng.random(...) < p``.  Node multipliers expand to edges by
        taking the max over incident nodes; the drift profile scales
        every cycle; everything clips to ``[0, 1]``.
        """
        if self.uniform_base:
            return None
        d = distance
        if self.rate_field is not None:
            implied = self.rate_field_distance
            if implied != d:
                raise ScenarioError(
                    f"rate_field implies distance {implied}, "
                    f"campaign has distance {d}")
            m_mult = np.asarray(self.rate_field, dtype=float)
        else:
            m_mult = np.ones((d - 1, d), dtype=float)
        v_mult = np.zeros((d, d), dtype=float)
        v_mult[:-1] = m_mult            # node (k, j) touches v-edge k
        v_mult[1:] = np.maximum(v_mult[1:], m_mult)  # ... and v-edge k+1
        h_mult = np.maximum(m_mult[:, :-1], m_mult[:, 1:])
        if self.drift is not None:
            profile = np.asarray(self.drift, dtype=float)
            idx = np.minimum(np.arange(cycles), len(profile) - 1)
            drift_t = profile[idx]
        else:
            drift_t = np.ones(cycles, dtype=float)
        out = []
        for mult in (v_mult, h_mult, m_mult):
            thr = p * drift_t[:, None, None] * mult[None, :, :]
            out.append(np.clip(thr, 0.0, 1.0))
        return tuple(out)

    # ------------------------------------------------------------------
    @classmethod
    def from_burst_events(cls, events: Any) -> "Scenario":
        """Leakage-module :class:`BurstEvent` timeline as a scenario."""
        return cls(events=tuple(StrikeEvent.from_burst(e) for e in events))

    def to_dict(self) -> dict:
        return {
            "events": [event.to_dict() for event in self.events],
            "rate_field": (None if self.rate_field is None
                           else [list(row) for row in self.rate_field]),
            "drift": None if self.drift is None else list(self.drift),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Union[dict, "Scenario"]) -> "Scenario":
        if isinstance(doc, Scenario):
            return doc
        if not isinstance(doc, dict):
            raise ScenarioError("scenario must be a JSON object")
        unknown = set(doc) - {"events", "rate_field", "drift"}
        if unknown:
            raise ScenarioError(
                f"unknown scenario fields: {', '.join(sorted(unknown))}")
        events = tuple(StrikeEvent.from_dict(e)
                       for e in doc.get("events", ()))
        return cls(events=events, rate_field=doc.get("rate_field"),
                   drift=doc.get("drift"))

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)
