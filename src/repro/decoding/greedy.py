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


def _window_ends(t: np.ndarray, bound: float) -> np.ndarray:
    """Exclusive end of each row's ``t[q] - t[p] <= bound`` window.

    ``t`` is sorted, so the float difference is monotone in ``q`` and
    each window is ``(p, end[p])``.  ``searchsorted`` compares against
    the separately rounded ``t[p] + bound``; the loops nudge the rows it
    misplaces until every end is exact for the difference itself.
    """
    n = len(t)
    rows = np.arange(n)
    end = np.maximum(np.searchsorted(t, t + bound, side="right"), rows + 1)
    while True:  # over-shot rows: t[end - 1] lies outside the window
        idx = np.flatnonzero(end > rows + 1)
        idx = idx[t[end[idx] - 1] - t[idx] > bound]
        if not len(idx):
            break
        end[idx] -= 1
    while True:  # under-shot rows: t[end] still lies inside
        idx = np.flatnonzero(end < n)
        idx = idx[t[end[idx]] - t[idx] <= bound]
        if not len(idx):
            break
        end[idx] += 1
    return end


def _spans(starts: np.ndarray, stops: np.ndarray):
    """``(row, k)`` for every ``k`` in ``range(starts[row], stops[row])``."""
    counts = stops - starts
    rows = np.repeat(np.arange(len(starts)), counts)
    offset = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts,
                                              counts)
    return rows, starts[rows] + offset


def _sparse_pairs(model: DistanceModel, nodes: np.ndarray,
                  bdist: np.ndarray):
    """Kept node-node candidates ``(iu, ju, dist)`` of the float path.

    Equal to ``np.nonzero`` of the dense keep rule ``pairwise(nodes) <=
    min(bdist_i, bdist_j)`` over ``i < j`` (row-major), with the same
    distances, without the O(n^2) matrix.  With ``B = max(bdist)`` a
    kept pair has ``dist <= B``, so either its direct path or its detour
    via some box ``k`` costs at most ``B``.  Float addition of
    non-negatives is monotone under IEEE rounding and ``w_ano >= 0``, so
    ``direct >= |dt|`` and ``via_k >= to_box_k`` of either end: every
    kept pair lies in (a) the time-sorted window ``|dt| <= B`` or (b)
    the pairs of nodes within ``B`` of one box, taken here with
    ``|dt| > B`` so the passes are disjoint.  Over-included pairs fail
    the exact keep rule, evaluated with :meth:`DistanceModel.pairwise`'s
    float expressions (the shared :func:`manhattan` sum, then
    ``min(direct, (to_box_i + to_box_j) + w * inside)`` over boxes), so
    the kept set — and hence every match, weight and parity — is
    identical to the dense build.
    """
    pts = np.asarray(nodes, dtype=float)
    n = len(pts)
    bound = bdist.max()
    order = np.argsort(pts[:, 0], kind="stable")
    rows, cols = _spans(np.arange(1, n + 1),
                        _window_ends(pts[order, 0], bound))
    a_parts, b_parts = [order[rows]], [order[cols]]
    vias = []
    for lo, hi, w in model.boxes(int(pts[:, 0].max(initial=0))):
        clamped = np.clip(pts, lo, hi)
        to_box = np.abs(pts - clamped).sum(axis=1)
        vias.append((np.ascontiguousarray(clamped.T), to_box, w))
        near = order[to_box[order] <= bound]  # time-sorted
        rows, cols = _spans(_window_ends(pts[near, 0], bound),
                            np.full(len(near), len(near)))
        a_parts.append(near[rows])
        b_parts.append(near[cols])
    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)
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
    key, keep = key[srt], keep[srt]
    if len(vias) > 1:  # overlapping boxes can yield a pair twice
        first = np.diff(key, prepend=-1) != 0
        key, keep = key[first], keep[first]
    return key // n, key % n, dist[keep]


def _greedy_fast_core(model: DistanceModel, nodes: np.ndarray,
                      collect_matches: bool):
    """Shared pruned acceptance loop; returns (matches, north, weight).

    ``matches`` is ``None`` unless ``collect_matches`` — the batched shot
    engine only needs the north-cut parity, and skipping the ``Match``
    construction and re-scan saves a meaningful slice of each decode.

    Integer-exact models (uniform, or a ``w_ano = 0`` box) build the
    ``int16`` :meth:`DistanceModel.pairwise_int` matrix; everything else
    (a weighted box, several boxes, non-integer coordinates) takes the
    sparse candidate generator :func:`_sparse_pairs`, which does
    O(n * window) work instead of the O(n^2) float broadcast.  It is
    exact, not a heuristic: with ``w_ano >= 0`` no pair outside its
    locality windows can pass the keep rule, and it emits the kept pairs
    in the dense build's row-major order with bit-equal distances, so
    the stable sort and the acceptance loop below see the same
    candidate list.
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
