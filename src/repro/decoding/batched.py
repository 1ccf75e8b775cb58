"""Cross-shot batched greedy decoding: buckets, arenas, flattened sorts.

PR 2 made sampling and syndrome extraction word-wise; the per-shot
decode loop — rebuild an ``(n, n)`` distance matrix, sort candidates,
run a Python acceptance scan, for every shot — became the Monte-Carlo
bottleneck.  This module decodes a whole chunk of shots at once and is
certified *bit-identical* to :func:`repro.decoding.greedy
.greedy_cut_parity` / :func:`greedy_decode_fast` on every input it
accepts.  Anything else — a weighted box, several boxes, coordinates
outside the integer envelope — decodes shot by shot through those
functions' sparse, locality-bounded float core, which needs no
batching: it evaluates only the pairs within both nodes' time reach
(boundary distance, stretched by a cheap box's weight), not O(n^2)
tensors.

* **Bucketed distance builds** — shots are grouped by active-node count
  ``n`` and stacked into ``(S, n, 3)`` tensors; pairwise and boundary
  distances for the whole bucket come out of a handful of broadcast
  ufunc passes (the ``int16`` fast path of
  :meth:`DistanceModel.pairwise_int` generalized to the batch axis,
  dropping to ``int8`` when the coordinate spans allow).

* **Chunk-global candidate generation** — every bucket appends its
  surviving pair/boundary candidates (node ids offset per shot) to flat
  arrays; one stable distance sort orders the whole chunk.  Candidates
  of different shots never interact, so only the *within-shot* order
  matters, which the flattened sort preserves exactly.

* **Vectorized acceptance** — the sequential distance-ordered scan is
  replaced by its round-based fixpoint: per distance level, accept every
  candidate that is the earliest remaining candidate of *all* its
  endpoints, drop candidates touching matched nodes, repeat.  Each
  round's "earliest incident candidate" map is one reversed scatter;
  the result is provably the sequential greedy matching (the earliest
  remaining candidate always wins in both formulations), with zero
  per-shot NumPy calls and no Python acceptance loop.

* **Scratch arenas** — every bucket-shaped temporary (stacked nodes,
  distance/threshold/keep tensors, the endpoint maps) comes from a
  grow-only :class:`ScratchArena` keyed on buffer role, so steady-state
  chunks allocate nothing.

* **Zero-clique prematching** — with a ``w_ano = 0`` region, the
  zero-distance cliques of the per-shot core are exactly the nodes
  *inside* the box (``to_box == 0``): the O(n^2) zero-matrix pass of the
  per-shot path collapses to an O(n) mask and a parity trick.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.decoding.decoder_base import DecodeResult, Match
from repro.decoding.greedy import (_greedy_fast_core, _upper_mask,
                                   greedy_decode_fast)
from repro.decoding.weights import (NORTH, SOUTH, DistanceModel,
                                    MultiRegionDistanceModel,
                                    region_signature)

#: Coordinate bound of the integer fast path (shared with
#: :meth:`DistanceModel.pairwise_int`).
INT_LIMIT = 2000

#: Per-bucket element budget for the ``(S, n, n)`` tensors: buckets are
#: split so the distance/keep scratch stays cache-resident.
BUCKET_ELEMENT_BUDGET = 1 << 21

#: Below this many surviving candidates a distance level finishes on a
#: sequential set-scan instead of more vectorized rounds: tie chains
#: shrink slowly under rounds, and at this size the plain scan wins.
_SCAN_TAIL = 3 << 12


class ScratchArena:
    """Grow-only scratch buffers, reused across chunks.

    Buffers are keyed by ``(role, dtype)`` and handed out as 1-D views
    of the requested size; a request larger than the current buffer
    reallocates (doubling), anything smaller is a free slice.  One arena
    per worker removes every steady-state allocation of the bucketed
    decode loop.
    """

    def __init__(self):
        self._bufs: dict = {}

    def take(self, role: str, size: int, dtype) -> np.ndarray:
        """A 1-D scratch view of ``size`` elements (contents arbitrary)."""
        key = (role, np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None or buf.size < size:
            cap = max(size, 0 if buf is None else 2 * buf.size, 1)
            buf = np.empty(cap, dtype=dtype)
            self._bufs[key] = buf
        return buf[:size]

    @property
    def nbytes(self) -> int:
        """Total bytes currently held (observability/tests)."""
        return sum(b.nbytes for b in self._bufs.values())

    def __len__(self) -> int:
        return len(self._bufs)


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
def _coords_eligible(distance: int, allc: np.ndarray) -> bool:
    """Whether a chunk's concatenated coordinates fit the integer engine.

    Integer nodes, nonnegative coordinates bounded by ``INT_LIMIT``,
    rows on the lattice (``i <= d - 2``, which keeps every boundary
    distance >= 1 — the invariant the zero-clique and level logic lean
    on), and a moderate code distance.
    """
    if distance > INT_LIMIT:
        return False
    if not np.issubdtype(allc.dtype, np.integer):
        return False
    if not len(allc):
        return True
    if int(allc.min()) < 0 or int(allc.max()) > INT_LIMIT:
        return False
    if int(allc[:, 1].max()) > distance - 2:
        return False
    return True


def _region_ok(distance: int, region) -> bool:
    """Whether one region's geometry fits the integer engine."""
    return region.row_lo <= distance and region.t_lo <= INT_LIMIT


def _chunk_eligible(model: DistanceModel, allc: np.ndarray) -> bool:
    """Whether the integer bucketed engine covers this model + node set.

    Mirrors (and slightly extends) the :meth:`pairwise_int` envelope:
    :func:`_coords_eligible` coordinates plus a region (only with zero
    weight) whose row origin sits on the lattice.  Anything outside
    decodes through the per-shot sparse core instead.

    Multi-region models (``model.regions``, e.g.
    :class:`~repro.decoding.weights.MultiRegionDistanceModel`) always
    decline: their ``region`` is ``None`` by design, and routing them
    into the uniform integer engine would silently drop every box.
    They take the certified per-shot sparse core.
    """
    if getattr(model, "regions", None):
        return False
    reg = model.region
    if reg is not None:
        if model.w_ano != 0.0:
            return False
        if not _region_ok(model.distance, reg):
            return False
    return _coords_eligible(model.distance, allc)


# ----------------------------------------------------------------------
# The bucketed engine
# ----------------------------------------------------------------------
def _region_bounds(reg, d: int, cmax: int) -> tuple:
    """One region's integer clip bounds, folded into the data range.

    ``min(max(t, lo), hi)`` never exceeds ``max(cmax, lo)``, so capping
    ``hi`` there is inert, and a lower bound above the capped upper
    bound clips to it — both reductions are value-exact and keep the
    bounds (and every to-box distance) inside the engine dtype even for
    explicit far-future ``t_hi`` boxes.  Returns ``(lo1, hi1, rlo, hi2,
    clo, tlo, thi, open_window)``; with an open window the box top is
    each *shot's* own t_max (matters when t_lo exceeds it — the box
    collapses onto the shot's last layer), applied per bucket.
    """
    lo1 = reg.row_lo
    hi1 = min(reg.row_hi - 1, d - 2)
    hi2 = min(reg.col_hi - 1, d - 1)
    if reg.t_hi is not None:
        thi = min(reg.t_hi - 1, max(cmax, reg.t_lo))
        tlo = min(reg.t_lo, thi)
        open_window = False
    else:
        thi = 0  # unused: the shot's own t_max is the box top
        tlo = min(reg.t_lo, cmax + 1)
        open_window = True
    return (lo1, hi1, min(lo1, hi1), hi2, min(reg.col_lo, hi2), tlo, thi,
            open_window)


def _decode_engine(model: DistanceModel, nodes_list: list, arena: ScratchArena,
                   collect: bool, allc: np.ndarray, regions=None):
    """Bucketed decode of pre-screened (eligible, nonempty) shots.

    ``regions`` optionally carries one region (or ``None``) per shot —
    the region-aware path of the end-to-end kernels, where every shot's
    strike landed somewhere else.  When omitted, every shot shares
    ``model.region`` exactly as before.  Shots are bucketed by
    (has-region, active-node count) and all region geometry — box
    clips, via folds, boundary detours, zero cliques — is evaluated
    from per-shot bound vectors broadcast over the bucket tensors, so
    mixed-region chunks batch as well as shared-region ones.

    Returns ``(parities, accepted)`` where ``parities`` is the ``(S,)``
    int8 north-cut parities and ``accepted`` (collect mode only) the
    per-shot ``[(a, b, w), ...]`` acceptance lists in the exact order of
    the per-shot reference core.
    """
    S_all = len(nodes_list)
    parities = np.zeros(S_all, dtype=np.int8)
    ns = np.fromiter((len(x) for x in nodes_list), dtype=np.int64,
                     count=S_all)
    nmax = int(ns.max(initial=0))
    pre_pairs: list = [[] for _ in range(S_all)] if collect else None
    if nmax == 0:
        return parities, pre_pairs

    d = model.distance
    cmax = int(allc.max(initial=0))  # allc: callers' eligibility concat

    # Per-shot region bounds (int64 staging; cast to the engine dtype
    # per bucket).  The shared-region path broadcasts one bounds tuple;
    # the Python attribute walk only runs when regions truly differ.
    has = np.zeros(S_all, dtype=bool)
    bounds = np.zeros((7, S_all), dtype=np.int64)
    lo1, hi1, rlo, hi2, clo, tlo, thi = bounds
    open_w = np.zeros(S_all, dtype=bool)
    if regions is None:
        if model.region is not None:
            has[:] = True
            *vals, opn = _region_bounds(model.region, d, cmax)
            bounds[:] = np.array(vals)[:, None]
            open_w[:] = opn
    else:
        for s, reg in enumerate(regions):
            if reg is None:
                continue
            has[s] = True
            *vals, opn = _region_bounds(reg, d, cmax)
            bounds[:, s] = vals
            open_w[s] = opn

    # Per-shot t_max over the *full* node set (open-window box tops must
    # not move when zero-clique compaction drops in-box nodes below).
    tmax_shot = None
    offs = None
    if has.any():
        offs = np.empty(S_all + 1, dtype=np.int64)
        offs[0] = 0
        np.cumsum(ns, out=offs[1:])
        if open_w.any():
            tmax_shot = np.maximum.reduceat(
                allc[:, 0].astype(np.int64), offs[:-1])
            tmax_shot[ns == 0] = 0  # reduceat reads across empty shots

    if not collect and has.any():
        # Zero-clique compaction: with w_ano = 0 the in-box nodes pair
        # off at distance zero — weight 0, node-node, no boundary — so
        # the north-cut parity never sees them.  Parity mode drops the
        # paired nodes *before* the dense builds (each bucket tensor
        # shrinks quadratically in the survivors) instead of
        # prematching them inside it; collect mode keeps the in-tensor
        # prematch, which preserves the reference acceptance lists.
        shot_of = np.repeat(np.arange(S_all), ns)
        t_f = allc[:, 0].astype(np.int64)
        i_f = allc[:, 1].astype(np.int64)
        j_f = allc[:, 2].astype(np.int64)
        thi_f = (np.where(open_w, tmax_shot, thi)
                 if tmax_shot is not None else thi)[shot_of]
        to_box = (np.abs(t_f - np.minimum(np.maximum(t_f, tlo[shot_of]),
                                          thi_f))
                  + np.abs(i_f - np.minimum(np.maximum(i_f, rlo[shot_of]),
                                            hi1[shot_of]))
                  + np.abs(j_f - np.minimum(np.maximum(j_f, clo[shot_of]),
                                            hi2[shot_of])))
        inbox = (to_box == 0) & has[shot_of]
        if inbox.any():
            cnt_in = np.add.reduceat(inbox.astype(np.int64), offs[:-1])
            cnt_in[ns == 0] = 0
            keep = ~inbox
            odd = np.flatnonzero(cnt_in & 1)
            if len(odd):
                # An odd shot's last in-box node stays free, exactly as
                # the in-tensor prematch leaves it.
                idx = np.where(inbox, np.arange(len(inbox)), -1)
                last = np.maximum.reduceat(idx, offs[:-1])
                keep[last[odd]] = True
            new_ns = ns - cnt_in + (cnt_in & 1)
            changed = np.flatnonzero(new_ns != ns)
            if len(changed):
                nodes_list = list(nodes_list)
                for s in changed.tolist():
                    nodes_list[s] = np.asarray(
                        nodes_list[s])[keep[offs[s]:offs[s + 1]]]
                ns = new_ns
                nmax = int(ns.max(initial=0))
                if nmax == 0:
                    return parities, pre_pairs

    mag = max(cmax, d)
    if has.any():
        mag = max(mag, int(lo1.max()), int(tlo.max()), int(thi.max()))

    # Every value the engine materializes — direct distances, via sums,
    # boundary vias — is bounded by 6 * mag + a small constant; pick
    # the narrowest integer dtype that holds them.
    dd = np.int8 if 6 * mag + 8 <= 126 else np.int16

    # has-region shots sort after region-free ones, so every bucket is
    # homogeneous in "carries a box" and the region math never touches
    # a direct-distance shot.
    order = np.lexsort((ns, has))
    matched = arena.take("matched", S_all * nmax, bool)
    matched[:] = False

    # Candidates accumulate pre-split by distance level (boundary
    # distances are bounded by ~d/2, so levels are few and the bucket
    # -local splits run on cache-hot arrays); models with a wide
    # distance range collect flat and sort once in :func:`_accept`.
    split_levels = d <= 64
    by_level: dict = {}
    p_ga, p_gb, p_d = [], [], []
    b_ga, b_d, b_north = [], [], []

    def _level(lv):
        got = by_level.get(lv)
        if got is None:
            got = ([], [], [], [])  # pair ga, pair gb, bnd ga, bnd north
            by_level[lv] = got
        return got

    k = 0
    while k < S_all:
        n = int(ns[order[k]])
        boxed = bool(has[order[k]])
        k2 = k
        while (k2 < S_all and ns[order[k2]] == n
               and has[order[k2]] == boxed):
            k2 += 1
        if n == 0:
            k = k2
            continue
        smax = max(1, BUCKET_ELEMENT_BUDGET // (n * n))
        for blo in range(k, k2, smax):
            ids = order[blo:min(k2, blo + smax)]
            S = len(ids)
            nn = n * n
            sz = S * nn
            stacked = arena.take("stacked", S * n * 3, dd).reshape(S, n, 3)
            for q, s in enumerate(ids):
                stacked[q] = nodes_list[s]
            # Contiguous (3, S, n) coordinate planes: broadcasting from
            # the stride-3 column views runs ~3x slower than from
            # contiguous rows, and every dense pass reads these.
            planes = arena.take("planes", 3 * S * n, dd).reshape(3, S, n)
            np.copyto(planes, stacked.transpose(2, 0, 1))
            t = planes[0]
            i = planes[1]
            j = planes[2]

            dist = arena.take("dist", sz, dd).reshape(S, n, n)
            tmp = arena.take("tmp", sz, dd).reshape(S, n, n)
            np.subtract(t[:, :, None], t[:, None, :], out=dist)
            np.abs(dist, out=dist)
            np.subtract(i[:, :, None], i[:, None, :], out=tmp)
            np.abs(tmp, out=tmp)
            dist += tmp
            np.subtract(j[:, :, None], j[:, None, :], out=tmp)
            np.abs(tmp, out=tmp)
            dist += tmp

            base = ids.astype(np.int32) * np.int32(nmax)
            pre = None
            north = i + dd(1)
            south = dd(d - 1) - i
            if boxed:
                # Per-shot bound columns, broadcast over the bucket.
                # ``min(max(x, lo), hi)`` is exactly np.clip's order, so
                # a lower bound above its capped upper bound clips to
                # the cap — shot for shot, as in the scalar-region path.
                tlo_b = tlo[ids].astype(dd)[:, None]
                rlo_b = rlo[ids].astype(dd)[:, None]
                rhi_b = hi1[ids].astype(dd)[:, None]
                clo_b = clo[ids].astype(dd)[:, None]
                chi_b = hi2[ids].astype(dd)[:, None]
                lo1_b = lo1[ids].astype(dd)[:, None]
                opn = open_w[ids]
                if opn.all():
                    thi_b = tmax_shot[ids].astype(dd)[:, None]
                elif opn.any():
                    thi_b = np.where(opn[:, None],
                                     tmax_shot[ids].astype(dd)[:, None],
                                     thi[ids].astype(dd)[:, None])
                else:
                    thi_b = thi[ids].astype(dd)[:, None]
                ct = np.minimum(np.maximum(t, tlo_b), thi_b)
                to_box = (np.abs(t - ct)
                          + np.abs(i - np.minimum(np.maximum(i, rlo_b),
                                                  rhi_b))
                          + np.abs(j - np.minimum(np.maximum(j, clo_b),
                                                  chi_b)))
                np.add(to_box[:, :, None], to_box[:, None, :], out=tmp)
                np.minimum(dist, tmp, out=dist)
                np.minimum(north, to_box + (lo1_b + dd(1)), out=north)
                np.minimum(south, to_box + (dd(d - 1) - rhi_b), out=south)
                # Zero-clique prematch: with w_ano = 0 the distance-zero
                # cliques are exactly the in-box nodes; pair them off in
                # index order (the per-shot core's clique pairing) and
                # leave an odd shot's last in-box node free.
                inbox = to_box == 0
                cnt = inbox.sum(axis=1)
                if cnt.max(initial=0) > 1:
                    pre = inbox
                    odd = np.flatnonzero(cnt % 2 == 1)
                    if len(odd):
                        last = n - 1 - np.argmax(inbox[odd, ::-1], axis=1)
                        pre[odd, last] = False
                    matched[(base[:, None]
                             + np.arange(n, dtype=np.int32))[pre]] = True
                    if collect:
                        for q in np.flatnonzero(pre.any(axis=1)):
                            members = np.flatnonzero(pre[q]).tolist()
                            pre_pairs[ids[q]] = [
                                (members[c], members[c + 1], 0.0)
                                for c in range(0, len(members), 2)]
            bdist = np.minimum(north, south)
            northf = north <= south
            if pre is not None:
                # Prematched nodes take threshold -1: every incident
                # pair fails ``dist <= min(thr)`` — the free-mask of the
                # per-shot core without two O(S n^2) AND passes.
                thr = np.where(pre, dd(-1), bdist)
            else:
                thr = bdist

            sz8 = -8 * (-sz // 8)
            keep_flat = arena.take("keep", sz8, bool)
            keep_flat[sz:] = False
            keep = keep_flat[:sz].reshape(S, n, n)
            np.minimum(thr[:, :, None], thr[:, None, :], out=tmp)
            np.less_equal(dist, tmp, out=keep)
            keep &= _upper_mask(n)
            # Two-stage sparse scan: find nonzero 8-byte words first,
            # then bits inside them — the index-extraction pass visits
            # a few-percent-dense mask at word granularity.
            words = np.flatnonzero(keep_flat.view(np.int64))
            if len(words):
                block = keep_flat.reshape(-1, 8)[words]
                sub = np.flatnonzero(block.ravel())
                flat = (words[sub >> 3].astype(np.int32) * np.int32(8)
                        + (sub & 7).astype(np.int32))
            else:
                flat = np.zeros(0, dtype=np.int32)
            q = flat // np.int32(nn)
            rem = flat - q * np.int32(nn)
            pi = rem // np.int32(n)
            pj = rem - pi * np.int32(n)
            gbase = base[q]
            pga = gbase + pi
            pgb = gbase + pj
            pdv = dist.ravel()[flat]
            if pre is not None:
                bs, ba = np.nonzero(~pre)
                bga = base[bs] + ba.astype(np.int32)
                bdv = bdist[bs, ba]
                bnf = northf[bs, ba]
            else:
                bga = (base[:, None]
                       + np.arange(n, dtype=np.int32)).ravel()
                bdv = bdist.ravel()
                bnf = northf.ravel()
            if split_levels:
                lmax_b = int(bdv.max(initial=0))
                for lv in range(lmax_b + 1):
                    slot = None
                    sel = np.flatnonzero(pdv == lv)
                    if len(sel):
                        slot = _level(lv)
                        slot[0].append(pga[sel])
                        slot[1].append(pgb[sel])
                    bsel = np.flatnonzero(bdv == lv)
                    if len(bsel):
                        slot = _level(lv) if slot is None else slot
                        slot[2].append(bga[bsel])
                        slot[3].append(bnf[bsel])
            else:
                p_ga.append(pga)
                p_gb.append(pgb)
                p_d.append(pdv)
                b_ga.append(bga)
                b_d.append(bdv)
                b_north.append(bnf)
        k = k2

    cat = np.concatenate
    z32 = np.zeros(0, np.int32)
    zb = np.zeros(0, bool)
    if split_levels:
        levels = []
        for lv in sorted(by_level):
            pl_a, pl_b, bl_a, bl_n = by_level[lv]
            levels.append((lv,
                           cat(pl_a) if pl_a else z32,
                           cat(pl_b) if pl_b else z32,
                           cat(bl_a) if bl_a else z32,
                           cat(bl_n) if bl_n else zb))
    else:  # wide distance range: one stable sort, then level slices
        p_ga = cat(p_ga) if p_ga else z32
        p_gb = cat(p_gb) if p_gb else z32
        p_d = cat(p_d) if p_d else np.zeros(0, dd)
        b_ga = cat(b_ga) if b_ga else z32
        b_d = cat(b_d) if b_d else np.zeros(0, dd)
        b_north = cat(b_north) if b_north else zb
        p_order = np.argsort(p_d, kind="stable")
        b_order = np.argsort(b_d, kind="stable")
        pd_sorted = p_d[p_order]
        bd_sorted = b_d[b_order]
        levels = []
        for lv in np.union1d(pd_sorted, bd_sorted).tolist():
            plo, phi = np.searchsorted(pd_sorted, [lv, lv + 1])
            blo, bhi = np.searchsorted(bd_sorted, [lv, lv + 1])
            psel = p_order[plo:phi]
            bsel = b_order[blo:bhi]
            levels.append((int(lv), p_ga[psel], p_gb[psel],
                           b_ga[bsel], b_north[bsel]))

    accepted = _accept(levels, matched, S_all, nmax, parities, arena,
                       collect)
    if not collect:
        return parities, None

    # Assemble per-shot acceptance lists: prematched zero pairs first,
    # then accepted candidates by (level, within-level position) — the
    # per-shot core's exact ordering.
    acc_ga, acc_b, acc_lvl, acc_idx = accepted
    shot = acc_ga // np.int32(nmax)
    local = acc_ga - shot * np.int32(nmax)
    order = np.lexsort((acc_idx, acc_lvl, shot))
    shot_l = shot[order].tolist()
    a_l = local[order].tolist()
    b_l = acc_b[order].tolist()
    w_l = acc_lvl[order].tolist()
    out_lists = pre_pairs
    for s, a, b, w in zip(shot_l, a_l, b_l, w_l, strict=True):
        out_lists[s].append((a, b, float(w)))
    return parities, out_lists


def _accept(levels, matched, S_all, nmax, parities, arena, collect):
    """Level-wise round-based acceptance over flattened candidates.

    ``levels`` holds ``(lv, pair_ga, pair_gb, bnd_ga, bnd_north)``
    tuples ascending in distance; within a level pairs precede
    boundaries and both keep generation (row-major) order — exactly the
    stable distance sort of the per-shot core.
    Writes north-cut parities into ``parities``; in collect mode also
    returns the accepted candidates as flat arrays
    ``(gid_a, b_code, level, idx)`` with ``b_code`` the partner node's
    local index or the boundary side constant.
    """
    first = arena.take("first", S_all * nmax, np.int32)
    first[:] = -1
    stamp = 0  # monotone position base: stale scatters never re-match
    north_gids: list = []
    acc_out = ([], [], [], []) if collect else None

    for lv, ga_p, gb_p, ga_b, nof_b in levels:
        npair, nbnd = len(ga_p), len(ga_b)
        if not npair + nbnd:
            continue
        # Entry filter before the concat: candidates whose endpoints
        # matched at an earlier level are dead on arrival (the bulk, at
        # high levels) and never enter the round arrays.
        alive_p = ~matched[ga_p]
        alive_p &= ~matched[gb_p]
        alive_b = ~matched[ga_b]
        if collect:
            idx0 = np.concatenate([
                np.arange(npair, dtype=np.int64)[alive_p],
                (npair + np.arange(nbnd, dtype=np.int64))[alive_b]])
            bcode = np.concatenate([
                (gb_p[alive_p] % np.int32(nmax)).astype(np.int64),
                np.where(nof_b[alive_b], NORTH, SOUTH).astype(np.int64)])
        ga_p, gb_p = ga_p[alive_p], gb_p[alive_p]
        ga_b = ga_b[alive_b]
        ga = np.concatenate([ga_p, ga_b])
        # Boundary candidates are self-loops: the acceptance test
        # ``first[ga] == pos == first[gb]`` then degenerates to "no
        # earlier remaining candidate touches this node".
        gb = np.concatenate([gb_p, ga_b])
        nof = np.concatenate([np.zeros(len(ga_p), dtype=bool),
                              nof_b[alive_b]])
        while len(ga) > _SCAN_TAIL:
            m = len(ga)
            if stamp > 2**31 - 2 - 2 * m:  # stamp wrap: hard reset
                first[:] = -1
                stamp = 0
            pos = np.arange(stamp, stamp + m, dtype=np.int32)
            stamp += m
            e_all = np.empty(2 * m, dtype=np.int32)
            e_all[0::2] = ga
            e_all[1::2] = gb
            pp = np.empty(2 * m, dtype=np.int32)
            pp[0::2] = pos
            pp[1::2] = pos
            # Reversed scatter: the earliest position wins; stamps from
            # earlier rounds are strictly smaller than this round's
            # range, so no reset pass is needed.
            first[e_all[::-1]] = pp[::-1]
            acc = (first[ga] == pos) & (first[gb] == pos)
            matched[ga[acc]] = True
            matched[gb[acc]] = True
            accn = acc & nof
            if accn.any():
                north_gids.append(ga[accn])
            if collect and acc.any():
                acc_out[0].append(ga[acc])
                acc_out[1].append(bcode[acc])
                acc_out[2].append(np.full(int(acc.sum()), lv,
                                          dtype=np.int64))
                acc_out[3].append(idx0[acc])
            alive = ~matched[ga]
            alive &= ~matched[gb]
            ga, gb, nof = ga[alive], gb[alive], nof[alive]
            if collect:
                bcode, idx0 = bcode[alive], idx0[alive]
        if len(ga):
            # Sequential finish for the tie-chain tail: every surviving
            # endpoint is unmatched and shots never share nodes, so one
            # in-array-order scan equals the per-shot greedy acceptance
            # exactly (only within-shot relative order matters).
            taken: set = set()
            add = taken.add
            acc_list = []
            for k, (a, b) in enumerate(zip(ga.tolist(), gb.tolist(), strict=True)):
                if a in taken or b in taken:
                    continue
                add(a)
                add(b)
                acc_list.append(k)
            if acc_list:
                acc_idx = np.array(acc_list, dtype=np.int64)
                matched[ga[acc_idx]] = True
                matched[gb[acc_idx]] = True
                accn = acc_idx[nof[acc_idx]]
                if len(accn):
                    north_gids.append(ga[accn])
                if collect:
                    acc_out[0].append(ga[acc_idx])
                    acc_out[1].append(bcode[acc_idx])
                    acc_out[2].append(np.full(len(acc_idx), lv,
                                              dtype=np.int64))
                    acc_out[3].append(idx0[acc_idx])

    if north_gids:
        gn = np.concatenate(north_gids)
        cnt = np.bincount((gn // np.int32(nmax)).astype(np.int64),
                          minlength=S_all)
        parities[:] = (cnt & 1).astype(np.int8)
    if not collect:
        return None
    z64 = np.zeros(0, np.int64)
    return (np.concatenate(acc_out[0]) if acc_out[0] else
            np.zeros(0, np.int32),
            np.concatenate(acc_out[1]) if acc_out[1] else z64,
            np.concatenate(acc_out[2]) if acc_out[2] else z64,
            np.concatenate(acc_out[3]) if acc_out[3] else z64)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def batched_cut_parities(model: DistanceModel, nodes_list: list,
                         cache=None,
                         arena: Optional[ScratchArena] = None) -> np.ndarray:
    """North-cut parities of the greedy matching for a chunk of shots.

    Equals ``[greedy_cut_parity(model, nodes) for nodes in nodes_list]``
    bit for bit; shots outside the integer engine's envelope (weighted
    or multiple boxes, negative/huge coordinates) run through the
    per-shot sparse core.  ``cache`` is an optional
    :class:`repro.sim.batch.MatchingCache`: lookups and stores use the
    same keys and hit accounting as the per-shot path (below the LRU
    capacity; at saturation the bulk stores can evict in a different
    order, which shifts later stats but never outcomes — the cache is
    pure memoization), and duplicate node sets inside the chunk decode
    once.
    """
    S = len(nodes_list)
    out = np.zeros(S, dtype=np.int8)
    if S == 0:
        return out
    if arena is None:
        arena = ScratchArena()

    sub_nodes: list = []
    sub_slots: list = []
    sub_keys: list = []
    if cache is None:
        for s, nodes in enumerate(nodes_list):
            if len(nodes):
                sub_nodes.append(nodes)
                sub_slots.append([s])
                sub_keys.append(None)
    else:
        by_key: dict = {}
        for s, nodes in enumerate(nodes_list):
            if not len(nodes):
                continue
            if len(nodes) > cache.max_nodes:
                sub_nodes.append(nodes)
                sub_slots.append([s])
                sub_keys.append(None)
                continue
            key = nodes.tobytes()
            pos = by_key.get(key)
            if pos is not None:
                # A repeat inside the chunk: the sequential path would
                # have stored the first occurrence already, so this is a
                # hit there too.
                cache.hits += 1
                sub_slots[pos].append(s)
                continue
            val = cache.get(key)
            if val is not None:
                out[s] = val
                continue
            by_key[key] = len(sub_nodes)
            sub_nodes.append(nodes)
            sub_slots.append([s])
            sub_keys.append(key)

    if not sub_nodes:
        return out

    allc = np.concatenate(sub_nodes)
    if (_chunk_eligible(model, allc)
            and len(sub_nodes) * max(map(len, sub_nodes)) < 2**31):
        parities, _ = _decode_engine(model, sub_nodes, arena, False, allc)
    else:
        parities = np.fromiter(
            ((_greedy_fast_core(model, nodes, False)[1] & 1)
             for nodes in sub_nodes), dtype=np.int8, count=len(sub_nodes))

    for p, slots, key in zip(parities.tolist(), sub_slots, sub_keys, strict=True):
        for s in slots:
            out[s] = p
        if key is not None:
            cache.put(key, p)
    return out


def batched_region_cut_parities(distance: int, regions: list,
                                nodes_list: list, w_ano: float = 0.0,
                                arena: Optional[ScratchArena] = None
                                ) -> np.ndarray:
    """North-cut parities for a chunk where every shot has its own region.

    The end-to-end campaign's oracle and detected decodes hand each
    shot a different :class:`AnomalousRegion` (the true strike, or the
    detection unit's estimate — whose onset varies shot to shot).
    Equals, bit for bit,

    ``[greedy_cut_parity(DistanceModel(distance, reg, w_ano), nodes)
    for reg, nodes in zip(regions, nodes_list)]``

    (with the uniform model for ``reg is None`` shots).  With
    ``w_ano == 0`` and in-envelope coordinates the whole chunk runs
    through the integer engine, which folds the per-shot region boxes
    into its bucket tensors — no per-region grouping needed.  Outside
    that envelope shots group by :func:`region_signature` and each
    group decodes through :func:`batched_cut_parities` (integer engine
    or per-shot sparse core — whatever its model admits).

    A shot's entry in ``regions`` may also be a *sequence* of regions
    (a multi-event scenario shot).  An empty sequence is the uniform
    model and a length-1 sequence is exactly its single region (both
    bit-identical to the legacy entry forms); two or more regions
    decode through the certified per-shot sparse core under a
    :class:`~repro.decoding.weights.MultiRegionDistanceModel`.
    """
    S = len(nodes_list)
    if len(regions) != S:
        raise ValueError("need exactly one region (or None) per shot")
    out = np.zeros(S, dtype=np.int8)
    if S == 0:
        return out
    if arena is None:
        arena = ScratchArena()

    sub_nodes: list = []
    sub_regs: list = []
    sub_idx: list = []
    multi: list = []
    for s, nodes in enumerate(nodes_list):
        nodes = np.asarray(nodes)
        if not len(nodes):
            continue
        reg = regions[s]
        if isinstance(reg, (list, tuple)):
            if len(reg) == 0:
                reg = None
            elif len(reg) == 1:
                reg = reg[0]
            else:
                multi.append((s, tuple(reg), nodes))
                continue
        sub_nodes.append(nodes)
        sub_regs.append(reg)
        sub_idx.append(s)

    for s, regs, nodes in multi:
        model = MultiRegionDistanceModel(distance, regs, w_ano)
        out[s] = _greedy_fast_core(model, nodes, False)[1] & 1

    if not sub_nodes:
        return out

    allc = np.concatenate(sub_nodes)
    if (w_ano == 0.0 and _coords_eligible(distance, allc)
            and all(r is None or _region_ok(distance, r)
                    for r in sub_regs)
            and len(sub_nodes) * max(map(len, sub_nodes)) < 2**31):
        parities, _ = _decode_engine(DistanceModel(distance), sub_nodes,
                                     arena, False, allc, regions=sub_regs)
        out[sub_idx] = parities
        return out

    groups: dict = {}
    for pos, reg in enumerate(sub_regs):
        groups.setdefault(region_signature(reg), []).append(pos)
    for positions in groups.values():
        reg = sub_regs[positions[0]]
        model = (DistanceModel(distance, reg, w_ano) if reg is not None
                 else DistanceModel(distance))
        par = batched_cut_parities(model, [sub_nodes[p] for p in positions],
                                   arena=arena)
        for p, v in zip(positions, par.tolist(), strict=True):
            out[sub_idx[p]] = v
    return out


def streaming_cut_parity(distance: int, region, nodes: np.ndarray,
                         w_ano: float = 0.0,
                         arena: Optional[ScratchArena] = None) -> int:
    """North-cut parity of one streamed shot under an optional region.

    The online driver's decode entry point
    (:mod:`repro.streaming.driver`): a single-shot call into the
    region-bucketed engine, so the streaming path and the batched
    campaign path share one decode implementation — and, via ``arena``,
    one reusable scratch allocation across a trial sequence.
    """
    return int(batched_region_cut_parities(distance, [region], [nodes],
                                           w_ano, arena=arena)[0])


def batched_decode(model: DistanceModel, nodes_list: list,
                   arena: Optional[ScratchArena] = None
                   ) -> list[DecodeResult]:
    """Full :class:`DecodeResult` per shot, batched.

    Certified equal — match lists, order and weights — to
    ``[greedy_decode_fast(model, nodes) for nodes in nodes_list]``.
    Used by the equivalence suite; campaigns consume
    :func:`batched_cut_parities` instead.
    """
    S = len(nodes_list)
    if arena is None:
        arena = ScratchArena()
    results: list = [None] * S
    sub_nodes, sub_idx = [], []
    for s, nodes in enumerate(nodes_list):
        nodes = np.asarray(nodes)
        if len(nodes) == 0:
            results[s] = DecodeResult.from_matches([], 0.0)
        else:
            sub_nodes.append(nodes)
            sub_idx.append(s)
    if not sub_nodes:
        return results

    allc = np.concatenate(sub_nodes)
    eligible = (_chunk_eligible(model, allc)
                and len(sub_nodes) * max(map(len, sub_nodes)) < 2**31)
    if eligible and model.region is not None:
        # Match-list order around duplicate coordinates inside a region
        # follows the per-shot core's clique grouping; parities agree
        # either way, but exact list equality keeps those shots on the
        # reference core.
        for nodes in sub_nodes:
            if len(np.unique(nodes, axis=0)) != len(nodes):
                eligible = False
                break
    if not eligible:
        for s, nodes in zip(sub_idx, sub_nodes, strict=True):
            results[s] = greedy_decode_fast(model, nodes)
        return results

    _, accepted = _decode_engine(model, sub_nodes, arena, True, allc)
    for s, acc in zip(sub_idx, accepted, strict=True):
        matches = [Match(int(a), int(b)) for a, b, _ in acc]
        weight = 0.0
        for _, _, w in acc:
            weight += w
        results[s] = DecodeResult.from_matches(matches, weight)
    return results
