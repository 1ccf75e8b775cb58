"""Greedy radius-growing decoder (QECOOL / NISQ+ family).

The paper's hardware evaluation targets the greedy decoder of
Ueno et al. (QECOOL) / Holmes et al. (NISQ+): grow a search radius
``i = 1 .. d`` and, at each radius, greedily match active nodes that can
be connected by a path no longer than ``i`` (to another active node or to
a boundary).  Because lattice distance equals Manhattan distance, path
length checks are O(1); with a known anomalous region the distance
evaluation simply considers the extra via-region candidate paths of
Fig. 6(c) -- the Q3DE modification.

Processing candidate pairs in globally sorted distance order is
equivalent to radius growth with a deterministic tie-break and is how we
implement it.
"""

from __future__ import annotations

import numpy as np

from repro.decoding.decoder_base import DecodeResult, Match
from repro.decoding.weights import NORTH, DistanceModel, manhattan

_UPPER_MASK = np.zeros((0, 0), dtype=bool)


def _upper_mask(n: int) -> np.ndarray:
    """Cached strict upper-triangle predicate ``i < j`` as an (n, n) view.

    ANDing this into a keep matrix selects the same entries as
    ``np.triu(keep, k=1)`` without materializing a second full matrix —
    the index predicate is built once (grow-on-demand) and reused, so
    the candidate build touches half the memory per decode.
    """
    global _UPPER_MASK
    if _UPPER_MASK.shape[0] < n:
        size = max(n, 2 * _UPPER_MASK.shape[0])
        idx = np.arange(size)
        _UPPER_MASK = idx[:, None] < idx[None, :]
    return _UPPER_MASK[:n, :n]


def _spans(starts: np.ndarray, stops: np.ndarray):
    """``(row, k)`` for every ``k`` in ``range(starts[row], stops[row])``."""
    counts = stops - starts
    rows = np.repeat(np.arange(len(starts)), counts)
    offset = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts,
                                              counts)
    return rows, starts[rows] + offset


def _vias(model: DistanceModel, pts: np.ndarray) -> list:
    """``(clamped.T, to_box, w)`` per detour box of ``model``."""
    vias = []
    for lo, hi, w in model.boxes(int(pts[:, 0].max(initial=0))):
        clamped = np.clip(pts, lo, hi)
        to_box = np.abs(pts - clamped).sum(axis=1)
        vias.append((np.ascontiguousarray(clamped.T), to_box, w))
    return vias


#: Relative slack on each node's reach budget (see :func:`_reach`).
_REACH_SLACK = 1e-9


def _reach(t: np.ndarray, bdist: np.ndarray, vias: list) -> np.ndarray:
    """Per-node time reach ``R``: every kept pair has ``|dt| <= min(R_i,
    R_j)``.

    ``vias`` is :func:`_vias` of the same nodes.  A kept pair has
    ``dist <= min(b_i, b_j)`` (``b`` = ``bdist``).  Its direct path
    costs at least ``|dt|``, so ``|dt| <= b_i``.  A detour via box
    ``k`` costs ``to_i + to_j + w * inside >= to_i`` and spans
    ``|dt| <= to_i + to_j + inside``: with ``w >= 1`` that is again
    ``<= b_i``, and with ``0 < w < 1`` it is ``<= to_i + (b_i - to_i) /
    w`` once ``to_i <= b_i``.  A ``w = 0`` box bounds nothing: its
    near nodes (``to_i <= b_i``) get an infinite reach.

    The bound runs on a padded budget ``b_i + slack``
    (:data:`_REACH_SLACK` times ``b_i + 1 + max|t|``).  A float via sum
    that passes the keep rule may exceed ``b_i`` in exact arithmetic by
    a few ulps of ``b_i`` — a tiny ``w * inside`` can vanish into
    ``to_i + to_j`` entirely — and dividing by ``w`` amplifies that, so
    the slack enters before the division; its ``|t|`` part covers the
    rounding of the window ends ``t + R``.  Over-inclusion is harmless:
    the exact keep rule drops those pairs.
    """
    scale = 1.0 + np.abs(t).max(initial=0.0)
    budget = bdist + _REACH_SLACK * (bdist + scale)
    reach = budget.copy()
    for _, to_box, w in vias:
        near = to_box <= budget
        if w == 0.0:
            reach[near] = np.inf
        elif w < 1.0:
            to_near = to_box[near]
            reach[near] = np.maximum(
                reach[near], to_near + (budget[near] - to_near) / w)
    return reach


def _sparse_pairs(model: DistanceModel, nodes: np.ndarray,
                  bdist: np.ndarray):
    """Kept node-node candidates ``(iu, ju, dist)`` of the float path.

    Equal to ``np.nonzero`` of the dense keep rule ``pairwise(nodes) <=
    min(bdist_i, bdist_j)`` over ``i < j`` (row-major), with the same
    distances, without the O(n^2) matrix.  Every kept pair satisfies
    ``|dt| <= min(R_i, R_j)`` for the per-node reach :func:`_reach`
    (``R_i = b_i``, raised by each ``0 < w < 1`` box the node is near
    to ``to_box + (b_i - to_box) / w``, on a budget ``b_i`` padded
    against rounding).  One pass over the time-sorted nodes generates
    each pair once, from its earlier node's forward window ``t_j - t_i
    <= R_i``, and keeps it only if also ``t_j - t_i <= R_j``.  Near a ``w = 0`` box the
    reach is infinite: those nodes take the largest finite reach as
    their window, and the pairs among them that the window pass leaves
    out are added by an all-pairs pass, so no pair is produced twice.
    Over-included pairs fail the exact keep rule, evaluated with
    :meth:`DistanceModel.pairwise`'s float expressions (the shared
    :func:`manhattan` sum, then ``min(direct, (to_box_i + to_box_j) +
    w * inside)`` over boxes), so the kept set — and hence every match,
    weight and parity — is identical to the dense build.
    """
    pts = np.asarray(nodes, dtype=float)
    n = len(pts)
    vias = _vias(model, pts)
    order = np.argsort(pts[:, 0], kind="stable")
    ts = pts[order, 0]
    reach = _reach(pts[:, 0], bdist, vias)[order]
    unbounded = np.isinf(reach)
    reach[unbounded] = reach[~unbounded].max(initial=0.0)
    end = np.maximum(np.searchsorted(ts, ts + reach, side="right"),
                     np.arange(1, n + 1))
    rows, cols = _spans(np.arange(1, n + 1), end)  # sorted positions
    sel = ts[cols] - ts[rows] <= reach[cols]
    a, b = order[rows[sel]], order[cols[sel]]
    if unbounded.any():  # the pairs among them the window pass left out
        near = np.flatnonzero(unbounded)
        m = len(near)
        rows, cols = _spans(np.arange(1, m + 1), np.full(m, m))
        rows, cols = near[rows], near[cols]
        sel = (cols >= end[rows]) | (ts[cols] - ts[rows] > reach[cols])
        a = np.concatenate([a, order[rows[sel]]])
        b = np.concatenate([b, order[cols[sel]]])
    # Every term below is symmetric in (a, b) bit for bit, so the pairs
    # are put in i < j order only once the keep rule has thinned them.
    cols = np.ascontiguousarray(pts.T)
    dist = manhattan(cols.take(a, axis=1), cols.take(b, axis=1))
    for clamped, to_box, w in vias:
        inside = manhattan(clamped.take(a, axis=1), clamped.take(b, axis=1))
        dist = np.minimum(dist, to_box[a] + to_box[b] + w * inside)
    keep = np.flatnonzero(dist <= np.minimum(bdist[a], bdist[b]))
    a, b = a[keep], b[keep]
    key = np.minimum(a, b) * n + np.maximum(a, b)
    srt = np.argsort(key, kind="stable")
    key = key[srt]
    return key // n, key % n, dist[keep[srt]]


def _greedy_fast_core(model: DistanceModel, nodes: np.ndarray,
                      collect_matches: bool):
    """Shared pruned acceptance loop; returns (matches, north, weight).

    ``matches`` is ``None`` unless ``collect_matches`` — the batched shot
    engine only needs the north-cut parity, and skipping the ``Match``
    construction and re-scan saves a meaningful slice of each decode.

    Integer-exact models (uniform, or a ``w_ano = 0`` box) build the
    ``int16`` :meth:`DistanceModel.pairwise_int` matrix; everything else
    (a weighted box, several boxes, non-integer coordinates) takes the
    sparse candidate generator :func:`_sparse_pairs`, which evaluates
    only the pairs within both ends' time reach instead of the O(n^2)
    float broadcast.  The reach of a node is its boundary distance
    ``b``, stretched to ``to_box + (b - to_box) / w`` by each ``0 < w <
    1`` box it can reach within ``b`` (a cheap detour spans more time),
    and padded by a slack that dominates float rounding; nodes near a
    ``w = 0`` box, which bounds nothing, are paired all against all.
    It is exact, not a heuristic: with ``w_ano >= 0`` no pair beyond
    either end's reach can pass the keep rule (see :func:`_reach`), and
    it emits the kept pairs in the dense build's row-major order with
    bit-equal distances, so the stable sort and the acceptance loop
    below see the same candidate list.
    """
    n = len(nodes)
    dist = model.pairwise_int(nodes)
    bdist, bside = model.boundary(nodes)
    integral = dist is not None

    # Zero-distance pairs (nodes inside a w_ano = 0 box, or coordinate
    # duplicates) sort before every other candidate — boundary distances
    # are always >= 1 — and form disjoint cliques, because "distance
    # zero" is transitive here.  The stable distance order therefore
    # pairs each clique's members consecutively by index; building those
    # matches directly removes the O(|clique|^2) zero candidates from
    # the sort and the loop.
    matched = np.zeros(n, dtype=bool)
    zero_pairs: list[tuple[int, int]] = []
    if integral and model.region is not None:
        zero = dist == 0
        if int(np.count_nonzero(zero)) > n:  # any off-diagonal zeros
            rep = np.argmax(zero, axis=1)  # first zero column = clique rep
            grouped = np.argsort(rep, kind="stable")
            reps_sorted = rep[grouped]
            starts = np.flatnonzero(
                np.r_[True, reps_sorted[1:] != reps_sorted[:-1]])
            ends = np.r_[starts[1:], len(grouped)]
            for lo_idx, hi_idx in zip(starts.tolist(), ends.tolist(), strict=True):
                members = grouped[lo_idx:hi_idx]
                for k in range(0, len(members) - 1, 2):
                    a, b = int(members[k]), int(members[k + 1])
                    zero_pairs.append((a, b))
                    matched[a] = matched[b] = True
            zero_pairs.sort()  # legacy acceptance order: ascending in a

    free = ~matched
    if integral:
        thr = bdist.astype(np.int16)
        keep = dist <= np.minimum(thr[:, None], thr[None, :])
        if zero_pairs:
            keep &= free[:, None] & free[None, :]
        keep &= _upper_mask(n)
        iu, ju = np.nonzero(keep)
        pair_d = dist[iu, ju]
    else:
        iu, ju, pair_d = _sparse_pairs(model, nodes, bdist)
    bfree = np.flatnonzero(free)

    cand_d = np.concatenate([pair_d.astype(np.float64), bdist[bfree]])
    cand_a = np.concatenate([iu, bfree])
    cand_b = np.concatenate([ju, bside[bfree]]).astype(np.int64)
    if integral:  # radix-sortable integer keys; same order as float sort
        order = np.argsort(cand_d.astype(np.int64), kind="stable")
    else:
        order = np.argsort(cand_d, kind="stable")
    a_s = cand_a[order].tolist()
    b_s = cand_b[order].tolist()
    w_s = cand_d[order].tolist()

    taken = bytearray(matched.tobytes())
    accepted: list[tuple[int, int]] = list(zero_pairs)
    north = 0
    weight = 0.0
    remaining = n - 2 * len(zero_pairs)
    for a, b, w in zip(a_s, b_s, w_s, strict=True):
        if taken[a]:
            continue
        if b >= 0:  # node-node candidate
            if taken[b]:
                continue
            taken[a] = taken[b] = True
            remaining -= 2
        else:  # boundary candidate
            taken[a] = True
            remaining -= 1
            if b == NORTH:
                north += 1
        accepted.append((a, b))
        weight += w
        if remaining == 0:
            break
    if not collect_matches:
        return None, north, weight
    return [Match(a, b) for a, b in accepted], north, weight


def greedy_decode_fast(model: DistanceModel, nodes: np.ndarray) -> DecodeResult:
    """Greedy matching with candidate pruning; exactly equals
    :meth:`GreedyDecoder.decode` on every input.

    A pair candidate ``(i, j)`` with ``dist[i, j] > bdist[i]`` can never
    be accepted by the distance-ordered loop: node ``i``'s boundary
    candidate sorts strictly earlier (ties sort pairs first, so only
    *strictly* cheaper boundaries prune), and a boundary candidate always
    leaves its node matched.  Dropping those pairs — usually the vast
    majority of the O(n^2) candidate list — shrinks the sort and the
    Python acceptance loop without changing a single accepted match,
    which is what lets the batched shot engine decode at campaign scale.
    """
    nodes = np.asarray(nodes)
    if len(nodes) == 0:
        return DecodeResult.from_matches([], 0.0)
    matches, _, weight = _greedy_fast_core(model, nodes, True)
    return DecodeResult.from_matches(matches, weight)


def greedy_cut_parity(model: DistanceModel, nodes: np.ndarray) -> int:
    """North-cut parity of the fast greedy matching, without building it.

    Equals ``greedy_decode_fast(model, nodes).correction_cut_parity``;
    the Monte-Carlo hot path only ever consumes this bit.
    """
    nodes = np.asarray(nodes)
    if len(nodes) == 0:
        return 0
    _, north, _ = _greedy_fast_core(model, nodes, False)
    return north & 1


class FastGreedyDecoder:
    """Drop-in :class:`GreedyDecoder` running the pruned fast path."""

    def __init__(self, model: DistanceModel):
        self.model = model

    def decode(self, nodes: np.ndarray) -> DecodeResult:
        return greedy_decode_fast(self.model, nodes)


class GreedyDecoder:
    """Greedy distance-ordered matching over a :class:`DistanceModel`."""

    def __init__(self, model: DistanceModel):
        self.model = model

    def decode(self, nodes: np.ndarray) -> DecodeResult:
        nodes = np.asarray(nodes)
        n = len(nodes)
        if n == 0:
            return DecodeResult.from_matches([], 0.0)
        dist = self.model.pairwise(nodes)
        bdist, bside = self.model.boundary(nodes)

        # Candidate list: all unordered pairs plus each node's boundary.
        iu, ju = np.triu_indices(n, k=1)
        pair_d = dist[iu, ju]
        cand_d = np.concatenate([pair_d, bdist])
        cand_a = np.concatenate([iu, np.arange(n)])
        cand_b = np.concatenate([ju, bside]).astype(np.int64)
        order = np.argsort(cand_d, kind="stable")

        matched = np.zeros(n, dtype=bool)
        matches: list[Match] = []
        weight = 0.0
        remaining = n
        for idx in order:
            if remaining == 0:
                break
            a = int(cand_a[idx])
            if matched[a]:
                continue
            b = int(cand_b[idx])
            if b >= 0:  # node-node candidate
                if matched[b]:
                    continue
                matched[a] = matched[b] = True
                remaining -= 2
            else:  # boundary candidate
                matched[a] = True
                remaining -= 1
            matches.append(Match(a, b))
            weight += float(cand_d[idx])
        return DecodeResult.from_matches(matches, weight)
