"""Per-cycle Pauli noise with optional anomalous regions.

An :class:`AnomalousRegion` is an axis-aligned box on the decoding lattice
(rows x cols x time) whose qubits have the elevated physical error rate
``p_ano``.  :class:`PhenomenologicalNoise` samples per-cycle error arrays
for the Z-decoding lattice of a distance-``d`` planar code:

* ``v`` -- vertical data-edge flips, shape ``(T, d, d)``: entry
  ``(t, k, j)`` is the edge between node rows ``k-1`` and ``k`` of lattice
  column ``j`` (``k = 0`` touches the north boundary, ``k = d-1`` the
  south boundary);
* ``h`` -- horizontal data-edge flips, shape ``(T, d-1, d-1)``: entry
  ``(t, i, j)`` is the edge between nodes ``(i, j)`` and ``(i, j+1)``;
* ``m`` -- syndrome-measurement flips, shape ``(T, d-1, d)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenarios.model import Scenario


@dataclass(frozen=True)
class AnomalousRegion:
    """A box of anomalous qubits on the decoding lattice.

    Rows/cols address lattice *nodes*; the box covers nodes with
    ``row_lo <= i < row_lo + size`` and ``col_lo <= j < col_lo + size``
    (plus the data edges incident on them), matching an anomaly of
    ``size = d_ano`` qubits across.  Time bounds are in code cycles;
    ``t_hi = None`` means "until the end of the window".
    """

    row_lo: int
    col_lo: int
    size: int
    t_lo: int = 0
    t_hi: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("anomaly size must be >= 1")
        if self.row_lo < 0 or self.col_lo < 0 or self.t_lo < 0:
            raise ValueError("region origin must be non-negative")
        if self.t_hi is not None and self.t_hi < self.t_lo:
            raise ValueError("t_hi must be >= t_lo")

    @property
    def row_hi(self) -> int:
        return self.row_lo + self.size

    @property
    def col_hi(self) -> int:
        return self.col_lo + self.size

    def active_at(self, t: int) -> bool:
        """True iff the region is anomalous during cycle ``t``."""
        return self.t_lo <= t and (self.t_hi is None or t < self.t_hi)

    def contains_node(self, i: int, j: int) -> bool:
        """True iff lattice node (i, j) lies inside the box."""
        return (self.row_lo <= i < self.row_hi
                and self.col_lo <= j < self.col_hi)

    @classmethod
    def centered(cls, distance: int, size: int,
                 t_lo: int = 0, t_hi: Optional[int] = None) -> "AnomalousRegion":
        """A size x size region centered on a distance-``distance`` lattice."""
        rows, cols = distance - 1, distance
        row_lo = max(0, (rows - size) // 2)
        col_lo = max(0, (cols - size) // 2)
        return cls(row_lo, col_lo, size, t_lo, t_hi)

    @classmethod
    def random(cls, distance: int, size: int, rng,
               t_lo: int = 0, t_hi: Optional[int] = None) -> "AnomalousRegion":
        """A size x size region at a uniform position on the lattice.

        The single place strike positions are drawn (sequential and
        batched experiment paths must sample identically): row origin
        first, then column origin.
        """
        rows, cols = distance - 1, distance
        row_lo = int(rng.integers(0, max(1, rows - size)))
        col_lo = int(rng.integers(0, max(1, cols - size)))
        return cls(row_lo, col_lo, size, t_lo, t_hi)


def build_anomalous_masks(distance: int,
                          region: Optional[AnomalousRegion]):
    """Boolean spatial masks of anomalous edges/measurements.

    Returns ``(v_mask, h_mask, m_mask)`` for the decoding lattice of a
    distance-``distance`` code: the data edges incident on the region's
    nodes and the region's syndrome measurements.  Shared by
    :class:`PhenomenologicalNoise` and the shot kernels' per-shot
    region overwrites (which must not pay a noise-model construction
    per shot just to read the masks).
    """
    d = distance
    v_mask = np.zeros((d, d), dtype=bool)
    h_mask = np.zeros((d - 1, d - 1), dtype=bool)
    m_mask = np.zeros((d - 1, d), dtype=bool)
    if region is None:
        return v_mask, h_mask, m_mask
    for i in range(max(0, region.row_lo), min(d - 1, region.row_hi)):
        for j in range(max(0, region.col_lo), min(d, region.col_hi)):
            m_mask[i, j] = True
            # Edges incident on node (i, j): vertical k=i and k=i+1,
            # horizontal (i, j-1) and (i, j).
            v_mask[i, j] = True
            v_mask[i + 1, j] = True
            if j - 1 >= 0 and j - 1 < d - 1:
                h_mask[i, j - 1] = True
            if j < d - 1:
                h_mask[i, j] = True
    return v_mask, h_mask, m_mask


#: Shots drawn per float scratch block inside ``sample_batch_packed``.
#: Word-aligned (a multiple of 64) so every block fills whole uint64
#: words; one word keeps the float scratch of the largest Fig. 8 point
#: around a megabyte, so the packed batch itself dominates peak memory.
PACKED_SAMPLE_CHUNK = 64


class PhenomenologicalNoise:
    """Samples per-cycle error arrays for the Z-decoding lattice.

    Args:
        distance: the code distance ``d``.
        p: physical error rate per code cycle for normal qubits.  On the
            lattice this is both the data-edge and measurement flip rate
            (X or Y each occur with probability ``p/2``).
        p_ano: physical error rate inside ``region`` (default 0.5, the
            paper's Sec. III / VII setting).
        region: optional anomalous region: shorthand for a single
            overlay at ``p_ano``, the paper's one-event case.
        scenario: optional :class:`repro.scenarios.model.Scenario`:
            any number of (possibly overlapping) fixed-position events
            over an optionally heterogeneous / drifting base rate.
            Mutually exclusive with ``region``.  Either way the model
            samples through one overlay loop, so a ``region`` and the
            one-event scenario it describes draw the same stream
            (docs/CONTRACTS.md).
    """

    def __init__(
        self,
        distance: int,
        p: float,
        p_ano: float = 0.5,
        region: Optional[AnomalousRegion] = None,
        scenario: Optional["Scenario"] = None,
    ):
        if not 0.0 <= p <= 1.0 or not 0.0 <= p_ano <= 1.0:
            raise ValueError("error rates must be probabilities")
        if distance < 2:
            raise ValueError("distance must be >= 2")
        if scenario is not None and region is not None:
            raise ValueError("pass either region or scenario, not both")
        self.distance = distance
        self.p = p
        self.scenario = scenario
        self._thr_cache: dict = {}
        overlays = [] if region is None else [(region, p_ano)]
        if scenario is not None:
            if not scenario.fixed:
                raise ValueError(
                    "noise-level scenarios need fixed event positions; "
                    "per-shot random positions are the shot kernels' job")
            if (scenario.rate_field_distance is not None
                    and scenario.rate_field_distance != distance):
                raise ValueError(
                    f"scenario rate_field implies distance "
                    f"{scenario.rate_field_distance}, noise model has "
                    f"distance {distance}")
            overlays = [(event.region(), event.p_ano)
                        for event in scenario.events]
        self._overlays = tuple(
            (reg, build_anomalous_masks(distance, reg), rate)
            for reg, rate in overlays)

    @property
    def anomalous_masks(self):
        """(v_mask, h_mask, m_mask) boolean arrays of anomalous positions.

        The union over every overlay (all ``False`` without one).
        """
        masks = build_anomalous_masks(self.distance, None)
        for _, overlay, _ in self._overlays:
            for acc, mask in zip(masks, overlay, strict=True):
                acc |= mask
        return masks

    # ------------------------------------------------------------------
    def sample(self, cycles: int, rng: np.random.Generator):
        """Sample error arrays for ``cycles`` code cycles.

        Returns ``(v, h, m)`` boolean arrays of shapes
        ``(T, d, d)``, ``(T, d-1, d-1)``, ``(T, d-1, d)``.
        """
        v, h, m = self.sample_batch(1, cycles, rng)
        return v[0], h[0], m[0]

    def _thresholds(self, cycles: int):
        """Per-cycle base-rate arrays, or ``None`` for a uniform base.

        Cached per ``cycles`` — the expansion is pure in (scenario, p,
        distance, cycles) and every chunk of a campaign asks for the
        same window.
        """
        if self.scenario is not None and not self.scenario.uniform_base:
            if cycles not in self._thr_cache:
                self._thr_cache[cycles] = self.scenario.rate_arrays(
                    self.distance, self.p, cycles)
            return self._thr_cache[cycles]
        return None

    def _active_overlays(self, cycles: int, uniform: bool):
        """``(t_lo, t_hi, masks, p_ano)`` of each overlay that draws.

        An overlay is skipped when its window clips to nothing, or when
        it would redraw a uniform base at the base rate itself (the
        no-op gate: such an overlay consumes no uniforms).
        """
        for region, masks, p_ano in self._overlays:
            if uniform and p_ano == self.p:
                continue
            t_hi = region.t_hi if region.t_hi is not None else cycles
            t_lo, t_hi = max(0, region.t_lo), min(cycles, t_hi)
            if t_hi > t_lo:
                yield t_lo, t_hi, masks, p_ano

    def sample_batch(self, shots: int, cycles: int,
                     rng: np.random.Generator):
        """Sample error arrays for a whole batch of shots at once.

        Returns ``(v, h, m)`` boolean arrays of shapes
        ``(shots, T, d, d)``, ``(shots, T, d-1, d-1)``,
        ``(shots, T, d-1, d)``.  One generator call per array keeps the
        per-shot Python overhead of a Monte-Carlo campaign out of the
        sampling path entirely.

        Draw discipline (the bit-identity contract): the base arrays
        draw in v, h, m order with one generator call each, compared
        against the scalar ``p`` (or the scenario's per-cycle base-rate
        arrays); then overlays overwrite in declaration order, each
        drawing v, h, m blocks over its clipped window and masks.
        """
        if shots < 1:
            raise ValueError("need at least one shot")
        d = self.distance
        thr = self._thresholds(cycles)
        thr_v, thr_h, thr_m = (self.p,) * 3 if thr is None else thr
        v = rng.random((shots, cycles, d, d)) < thr_v
        h = rng.random((shots, cycles, d - 1, d - 1)) < thr_h
        m = rng.random((shots, cycles, d - 1, d)) < thr_m
        for t_lo, t_hi, masks, p_ano in self._active_overlays(
                cycles, thr is None):
            span = t_hi - t_lo
            for arr, mask in zip((v, h, m), masks, strict=True):
                arr[:, t_lo:t_hi][:, :, mask] = (
                    rng.random((shots, span, int(mask.sum()))) < p_ano)
        return v, h, m

    def sample_batch_packed(self, shots: int, cycles: int,
                            rng: np.random.Generator):
        """Bit-packed :meth:`sample_batch`: 64 shots per uint64 word.

        Returns ``(v, h, m)`` uint64 arrays of shapes
        ``(words, T, d, d)``, ``(words, T, d-1, d-1)``,
        ``(words, T, d-1, d)`` with ``words = ceil(shots / 64)``; lane
        ``s % 64`` of word ``s // 64`` holds shot ``s`` (see
        :mod:`repro.sim.bitops`).

        Draws the *identical* uniform stream as :meth:`sample_batch` —
        each array (and each overlay block) is filled in word-aligned
        shot blocks whose concatenation is the same C-ordered sequence
        one big ``rng.random`` call would produce — so for a given
        generator state the packed bits equal the float path's bits
        exactly, while the float scratch never exceeds one
        :data:`PACKED_SAMPLE_CHUNK`-shot block (~1 bit stored per
        sampled bit instead of 8 bytes).
        """
        from repro.sim.bitops import pack_shots, word_count

        if shots < 1:
            raise ValueError("need at least one shot")
        d = self.distance
        words = word_count(shots)
        shapes = ((d, d), (d - 1, d - 1), (d - 1, d))
        thr = self._thresholds(cycles)

        def blocks():
            for start in range(0, shots, PACKED_SAMPLE_CHUNK):
                n = min(PACKED_SAMPLE_CHUNK, shots - start)
                yield start // 64, word_count(n), n

        packed = []
        for idx, shape in enumerate(shapes):
            arr = np.empty((words, cycles) + shape, dtype=np.uint64)
            for w0, nw, n in blocks():
                u = rng.random((n, cycles) + shape)
                arr[w0:w0 + nw] = pack_shots(
                    u < (self.p if thr is None else thr[idx]))
            packed.append(arr)

        for t_lo, t_hi, masks, p_ano in self._active_overlays(
                cycles, thr is None):
            span = t_hi - t_lo
            for arr, mask in zip(packed, masks, strict=True):
                k = int(mask.sum())
                for w0, nw, n in blocks():
                    arr[w0:w0 + nw, t_lo:t_hi][:, :, mask] = pack_shots(
                        rng.random((n, span, k)) < p_ano)
        return tuple(packed)
