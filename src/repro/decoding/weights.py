"""Distance models for matching: uniform and anomaly-aware (Fig. 6c).

On the uniform lattice the matching distance between nodes equals the
Manhattan distance in ``(t, i, j)``, and a node's boundary distance is
``min(i + 1, d - 1 - i)`` (north vs south).  When an anomalous region is
known, edges inside it carry weight ``w_ano = log((1-p_ano)/p_ano) /
log((1-p)/p)`` instead of 1, and the shortest connection may detour
through the region.  As in the paper's greedy decoder, we evaluate a
small set of candidate paths -- direct, and via the anomalous box -- and
take the cheapest; for ``p_ano = 0.5`` (``w_ano = 0``) this is the exact
shortest path on the weighted grid.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.noise.models import AnomalousRegion

#: Boundary identifiers used in matches.
NORTH = -1
SOUTH = -2


def region_signature(region: Optional[AnomalousRegion]) -> tuple:
    """Hashable key of a region's decode-relevant geometry.

    Two shots whose regions share a signature (box origin/size and time
    window — plus the model-level ``w_ano``, which callers key
    separately) see identical matching distances for identical nodes,
    so the region-bucketed decode engine may group them into one
    bucket.  ``None`` (no region) maps to the empty tuple.
    """
    if region is None:
        return ()
    return (region.row_lo, region.col_lo, region.size, region.t_lo,
            -1 if region.t_hi is None else region.t_hi)


def llr_weight(p: float) -> float:
    """The log-likelihood edge weight ``-log(p / (1 - p))`` of a flip rate."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1) for a finite weight")
    return -math.log(p / (1.0 - p))


def relative_anomalous_weight(p: float, p_ano: float) -> float:
    """Weight of an anomalous edge relative to a normal edge (clipped >= 0).

    ``p_ano = 0.5`` gives exactly 0; ``p_ano > 0.5`` is clipped to 0 (a
    negative-weight edge would make matching ill-posed; hyper-depolarized
    qubits carry no information either way).
    """
    if p_ano >= 0.5:
        return 0.0
    return llr_weight(p_ano) / llr_weight(p)


def manhattan(x, y) -> np.ndarray:
    """``|x - y|`` summed over the ``(t, i, j)`` components.

    ``x``/``y`` index by component first (``(3, ...)`` arrays).  The
    fixed order ``(|dt| + |di|) + |dj|`` is shared by every float
    distance build — the dense :meth:`DistanceModel.pairwise` and the
    sparse greedy candidates — so they round identically on any input.
    """
    return (np.abs(x[0] - y[0]) + np.abs(x[1] - y[1])) + np.abs(x[2] - y[2])


def _check_weight(w_ano) -> float:
    """``w_ano`` as a float, rejecting negative or non-finite weights.

    A negative weight makes via distances negative (matching becomes
    ill-posed) and voids the locality bound of the sparse greedy core;
    an infinite one turns ``w * 0`` into NaN distances.
    """
    w = float(w_ano)
    if not 0.0 <= w < math.inf:
        raise ValueError(
            f"w_ano must be a finite non-negative number, got {w_ano!r}")
    return w


class DistanceModel:
    """Node-to-node and node-to-boundary matching distances.

    Args:
        distance: code distance ``d`` (sets the boundary geometry).
        region: optional known anomalous region (time bounds in *difference
            lattice* layers).  ``None`` gives the uniform model.
        w_ano: weight of anomalous edges relative to normal edges.
    """

    def __init__(self, distance: int,
                 region: Optional[AnomalousRegion] = None,
                 w_ano: float = 0.0):
        self.distance = distance
        self.region = region
        self.w_ano = _check_weight(w_ano)

    # ------------------------------------------------------------------
    # Vectorized primitives (nodes as (n, 3) arrays of (t, i, j))
    # ------------------------------------------------------------------
    def _box_bounds(self, t_max: int):
        reg = self.region
        t_hi = reg.t_hi if reg.t_hi is not None else t_max + 1
        lo = np.array([reg.t_lo, reg.row_lo, reg.col_lo], dtype=float)
        hi = np.array([t_hi - 1, reg.row_hi - 1, reg.col_hi - 1], dtype=float)
        # Clip the box to the lattice interior.
        hi[1] = min(hi[1], self.distance - 2)
        hi[2] = min(hi[2], self.distance - 1)
        return lo, hi

    def boxes(self, t_max: int) -> list:
        """The detour boxes as ``(lo, hi, w_ano)`` triples.

        ``lo``/``hi`` are the inclusive float ``(t, i, j)`` corners,
        clipped to the lattice; ``t_max`` (the node set's last layer)
        closes an open time window.  Empty for the uniform model.
        """
        if self.region is None:
            return []
        return [(*self._box_bounds(t_max), self.w_ano)]

    def pairwise(self, nodes: np.ndarray) -> np.ndarray:
        """All-pairs matching distances for an ``(n, 3)`` node array."""
        nodes = np.asarray(nodes, dtype=float)
        cols = nodes.T
        out = manhattan(cols[:, :, None], cols[:, None, :])
        for lo, hi, w in self.boxes(int(nodes[:, 0].max(initial=0))):
            clamped = np.clip(nodes, lo, hi)
            to_box = np.abs(nodes - clamped).sum(axis=1)
            inside = manhattan(clamped.T[:, :, None], clamped.T[:, None, :])
            via = to_box[:, None] + to_box[None, :] + w * inside
            out = np.minimum(out, via)
        return out

    def pairwise_int(self, nodes: np.ndarray) -> Optional[np.ndarray]:
        """All-pairs distances as an ``int16`` matrix, when exact.

        Matching distances are integer-valued whenever the nodes have
        integer coordinates and the model is uniform or has a zero-weight
        region (``p_ano = 0.5``, the paper's MBBE model).  In that regime
        this returns the same values as :meth:`pairwise` using ``int16``
        component outers — a fraction of the memory traffic of the float
        broadcast, which is what the batched shot engine's decode loop
        lives on.  Returns ``None`` when the integer path would not be
        exact (non-integer nodes, or a region with ``w_ano != 0``).
        """
        nodes = np.asarray(nodes)
        if not np.issubdtype(nodes.dtype, np.integer):
            return None
        if self.region is not None and self.w_ano != 0.0:
            return None
        # Worst-case int16 magnitude is 12x the largest coordinate (a
        # via distance sums two 3-component box approaches), so cap all
        # participating values — node coordinates AND box bounds, which
        # can be huge for an explicit far-future t_hi — at 2000.
        limit = 2000
        if nodes.size and int(np.abs(nodes).max()) > limit:
            return None
        if self.region is not None:
            lo, hi = self._box_bounds(int(nodes[:, 0].max(initial=0)))
            if max(float(np.abs(lo).max()), float(np.abs(hi).max())) > limit:
                return None
        pts = nodes.astype(np.int16)
        t, i, j = pts[:, 0], pts[:, 1], pts[:, 2]
        direct = (np.abs(t[:, None] - t[None, :])
                  + np.abs(i[:, None] - i[None, :])
                  + np.abs(j[:, None] - j[None, :]))
        if self.region is None:
            return direct
        clamped = np.clip(pts, lo.astype(np.int16), hi.astype(np.int16))
        to_box = np.abs(pts - clamped).sum(axis=1, dtype=np.int16)
        # Crossing a w_ano = 0 box is free: the via path is just the two
        # box approaches.
        via = to_box[:, None] + to_box[None, :]
        return np.minimum(direct, via)

    def pairwise_fast(self, nodes: np.ndarray) -> np.ndarray:
        """Float-exact fast path for :meth:`pairwise`.

        Uses :meth:`pairwise_int` when the integer path is exact (the
        distances are identical small integers, so converting back to
        float64 preserves every distance-ordered tie-break), otherwise
        falls back to the float broadcast of :meth:`pairwise`.
        """
        dist = self.pairwise_int(nodes)
        if dist is None:
            return self.pairwise(nodes)
        return dist.astype(np.float64)

    def boundary(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance to the nearest boundary and which one.

        Returns ``(dist, side)`` with ``side`` in ``{NORTH, SOUTH}``;
        per boundary, the minimum over the direct approach and the
        detour via each box.
        """
        nodes = np.asarray(nodes, dtype=float)
        north = nodes[:, 1] + 1.0
        south = (self.distance - 1) - nodes[:, 1]
        for lo, hi, w in self.boxes(int(nodes[:, 0].max(initial=0))):
            clamped = np.clip(nodes, lo, hi)
            to_box = np.abs(nodes - clamped).sum(axis=1)
            north_via = (to_box + w * (clamped[:, 1] - lo[1])
                         + (lo[1] + 1.0))
            south_via = (to_box + w * (hi[1] - clamped[:, 1])
                         + (self.distance - 1 - hi[1]))
            north = np.minimum(north, north_via)
            south = np.minimum(south, south_via)
        side = np.where(north <= south, NORTH, SOUTH)
        return np.minimum(north, south), side

    # ------------------------------------------------------------------
    # Scalar conveniences (used by tests and the hardware model)
    # ------------------------------------------------------------------
    def node_distance(self, a, b) -> float:
        """Matching distance between two (t, i, j) nodes."""
        arr = np.array([a, b], dtype=float)
        return float(self.pairwise(arr)[0, 1])

    def boundary_distance(self, a) -> tuple[float, int]:
        """Matching distance from a node to its cheaper boundary."""
        dist, side = self.boundary(np.array([a], dtype=float))
        return float(dist[0]), int(side[0])


class MultiRegionDistanceModel(DistanceModel):
    """Matching distances with several (possibly overlapping) regions.

    The candidate-path family generalizes :class:`DistanceModel`:
    direct Manhattan, or a detour via any *single* anomalous box (each
    with its own weight) — the cheapest wins.  Chained multi-box
    detours are not enumerated, matching the paper's candidate-path
    greedy construction; for disjoint strike windows (the catalog's
    back-to-back case) the single-box set is exhaustive.

    Only :meth:`boxes` differs from the single-box model, so
    ``pairwise`` / ``boundary`` and both decoder families (greedy and
    :class:`repro.decoding.mwpm.MWPMDecoder`) compose as-is.
    ``region`` is ``None`` and ``pairwise_int`` declines on purpose:
    the single-box zero-clique prematch is invalid under overlapping
    boxes (zero distance is not transitive across disjoint boxes), so
    the generic sparse float path — which is exact — must be taken.
    The batched engine's eligibility guards key on the ``regions``
    attribute (:mod:`repro.decoding.batched`).

    Args:
        distance: code distance ``d``.
        regions: the anomalous boxes, one per strike event.
        w_ano: one weight for all boxes, or one weight per box.
    """

    def __init__(self, distance: int, regions,
                 w_ano=0.0):
        self.distance = distance
        self.regions = tuple(regions)
        if not self.regions:
            raise ValueError("need at least one region (else use "
                             "DistanceModel)")
        if np.ndim(w_ano) == 0:
            w_anos = (_check_weight(w_ano),) * len(self.regions)
        else:
            w_anos = tuple(_check_weight(w) for w in w_ano)
        if len(w_anos) != len(self.regions):
            raise ValueError("need one w_ano per region (or a scalar)")
        self.w_anos = w_anos
        #: The integer engine's single-box zero-clique prematch must not
        #: engage — see the class docstring.
        self.region = None
        self.w_ano = max(w_anos)
        self._models = tuple(
            DistanceModel(distance, reg, w)
            for reg, w in zip(self.regions, w_anos, strict=True))

    def boxes(self, t_max: int) -> list:
        return [box for sub in self._models for box in sub.boxes(t_max)]

    def pairwise_int(self, nodes: np.ndarray) -> Optional[np.ndarray]:
        """Always ``None``: the integer specialization's zero-clique
        prematch assumes one box, so multi-region decodes take the
        generic float path."""
        return None
