"""Syndrome-difference lattice: from sampled errors to active nodes.

For a distance-``d`` planar code's Z-lattice, syndrome nodes live on a
``(d-1) x d`` grid.  ``T`` noisy measurement rounds plus one final perfect
round give ``T + 1`` difference layers; a node ``(t, i, j)`` is *active*
when consecutive syndrome values differ (paper Fig. 2).

All extraction methods operate on the trailing ``(T, rows, cols)`` axes,
so a whole batch of shots can be processed in one call by passing
``(shots, T, rows, cols)`` arrays (the batched shot engine's layout);
time is always axis ``-3``.

The ``*_packed`` variants take the bit-packed layout of
:mod:`repro.sim.bitops` instead — ``(words, T, rows, cols)`` uint64
arrays holding 64 shots per word — and replace every cumulative-sum /
uint8-XOR pass with one word-wise XOR over 64 shots at a time.  They
produce bit-identical syndromes to the unpacked methods applied to the
same sampled bits; nothing is unpacked until a consumer asks for one
shot's active-node coordinates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


#: Shots per packed word — must equal :data:`repro.sim.bitops.WORD_BITS`
#: (kept as a local constant: importing ``repro.sim`` from here would
#: close a package cycle through the experiment modules).
_WORD_BITS = 64


class SyndromeLattice:
    """Computes syndrome layers and active nodes from error arrays.

    Args:
        distance: the code distance ``d``; node grid is ``(d-1) x d``.
    """

    def __init__(self, distance: int):
        if distance < 2:
            raise ValueError("distance must be >= 2")
        self.distance = distance
        self.node_rows = distance - 1
        self.node_cols = distance

    # ------------------------------------------------------------------
    def true_syndromes(self, v: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Noiseless cumulative syndromes, shape ``(..., T, d-1, d)``.

        ``v``/``h`` are per-cycle data-edge flip arrays as produced by
        :class:`repro.noise.PhenomenologicalNoise.sample` (optionally with
        leading batch axes).  Entry ``t`` is the syndrome after the errors
        of cycles ``0..t``.
        """
        cum_v = np.cumsum(v, axis=-3) & 1
        cum_h = np.cumsum(h, axis=-3) & 1
        synd = (cum_v[..., :-1, :] ^ cum_v[..., 1:, :]).astype(np.uint8)
        synd[..., :-1] ^= cum_h.astype(np.uint8)
        synd[..., 1:] ^= cum_h.astype(np.uint8)
        return synd

    def measured_layers(self, v: np.ndarray, h: np.ndarray,
                        m: np.ndarray) -> np.ndarray:
        """Measured syndrome layers: T noisy rounds + 1 final perfect round.

        Shape ``(..., T + 1, d-1, d)``.
        """
        true = self.true_syndromes(v, h)
        cycles = v.shape[-3]
        shape = v.shape[:-3] + (cycles + 1, self.node_rows, self.node_cols)
        layers = np.empty(shape, dtype=np.uint8)
        layers[..., :cycles, :, :] = true ^ m.astype(np.uint8)
        layers[..., cycles, :, :] = true[..., cycles - 1, :, :]
        return layers

    def difference_lattice(self, layers: np.ndarray) -> np.ndarray:
        """Element-wise XOR of consecutive layers (first layer vs zero)."""
        diff = layers.copy()
        diff[..., 1:, :, :] ^= layers[..., :-1, :, :]
        return diff

    def active_nodes(self, diff: np.ndarray) -> np.ndarray:
        """Coordinates ``(t, i, j)`` of active nodes, shape ``(n, 3)``."""
        return np.argwhere(diff.astype(bool))

    def detection_events(self, v: np.ndarray, h: np.ndarray,
                         m: np.ndarray) -> np.ndarray:
        """Convenience: error arrays straight to active-node coordinates."""
        layers = self.measured_layers(v, h, m)
        return self.active_nodes(self.difference_lattice(layers))

    def detection_events_batch(self, v: np.ndarray, h: np.ndarray,
                               m: np.ndarray) -> list[np.ndarray]:
        """Per-shot active-node arrays for a ``(shots, T, ...)`` batch.

        Returns a list of ``(n_s, 3)`` coordinate arrays, one per shot,
        extracted with a single pass over the whole batch.
        """
        layers = self.measured_layers(v, h, m)
        coords = np.argwhere(self.difference_lattice(layers).astype(bool))
        shots = v.shape[0]
        # ``argwhere`` output is sorted by the leading (shot) axis, so one
        # searchsorted recovers the per-shot slices without a Python scan.
        bounds = np.searchsorted(coords[:, 0], np.arange(shots + 1))
        return [coords[bounds[s]:bounds[s + 1], 1:] for s in range(shots)]

    # ------------------------------------------------------------------
    # Bit-packed variants: (words, T, rows, cols) uint64, 64 shots/word.
    # ------------------------------------------------------------------
    def true_syndromes_packed(self, v: np.ndarray,
                              h: np.ndarray) -> np.ndarray:
        """Packed :meth:`true_syndromes`: XOR-scan instead of cumsum.

        The mod-2 cumulative sum along time becomes a single
        word-wise XOR scan over uint64 words, 64 shots per element.
        """
        cum_v = np.bitwise_xor.accumulate(v, axis=-3)
        cum_h = np.bitwise_xor.accumulate(h, axis=-3)
        synd = cum_v[..., :-1, :] ^ cum_v[..., 1:, :]
        synd[..., :-1] ^= cum_h
        synd[..., 1:] ^= cum_h
        return synd

    def measured_layers_packed(self, v: np.ndarray, h: np.ndarray,
                               m: np.ndarray) -> np.ndarray:
        """Packed :meth:`measured_layers`; shape ``(words, T+1, d-1, d)``."""
        true = self.true_syndromes_packed(v, h)
        cycles = v.shape[-3]
        shape = v.shape[:-3] + (cycles + 1, self.node_rows, self.node_cols)
        layers = np.empty(shape, dtype=np.uint64)
        layers[..., :cycles, :, :] = true ^ m
        layers[..., cycles, :, :] = true[..., cycles - 1, :, :]
        return layers

    def per_cycle_activity_packed(self, v: np.ndarray, h: np.ndarray,
                                  m: np.ndarray) -> np.ndarray:
        """Packed :meth:`per_cycle_activity`; shape ``(words, T, d-1, d)``."""
        noisy = self.true_syndromes_packed(v, h) ^ m
        diff = noisy.copy()
        diff[..., 1:, :, :] ^= noisy[..., :-1, :, :]
        return diff

    def detection_events_packed(self, v: np.ndarray, h: np.ndarray,
                                m: np.ndarray):
        """Packed :meth:`detection_events_batch`: active nodes, still packed.

        Returns ``(coords, vals, bounds)`` as produced by
        :meth:`packed_active_nodes` on the difference lattice; feed them
        to :meth:`shot_nodes` to materialize one shot's coordinates.
        """
        diff = self.difference_lattice(self.measured_layers_packed(v, h, m))
        return self.packed_active_nodes(diff)

    @staticmethod
    def packed_active_nodes(diff: np.ndarray):
        """Index the nonzero words of a packed difference lattice.

        Returns ``(coords, vals, bounds)``: ``coords`` is the
        ``(n, 4)`` array of ``(word, t, i, j)`` positions where *any* of
        the 64 shots is active (lexicographically sorted, so each word's
        rows keep the unpacked ``argwhere`` order), ``vals`` the uint64
        word at each position, and ``bounds`` the per-word slice offsets
        into both.  This is the whole batch's syndrome in one sweep; no
        per-shot arrays exist yet.
        """
        coords = np.argwhere(diff != 0)
        vals = diff[tuple(coords.T)] if len(coords) else \
            np.zeros(0, dtype=np.uint64)
        bounds = np.searchsorted(coords[:, 0], np.arange(diff.shape[0] + 1))
        return coords, vals, bounds

    @staticmethod
    def shot_nodes(coords: np.ndarray, vals: np.ndarray, bounds: np.ndarray,
                   shot: int, t_stop: Optional[int] = None) -> np.ndarray:
        """One shot's active-node coordinates from packed nonzero words.

        Selects the rows of ``coords`` whose word holds ``shot``'s lane
        bit (optionally restricted to layers ``t < t_stop``); the result
        is exactly what :meth:`detection_events` returns for that shot's
        bits, in the same ``(t, i, j)`` order.
        """
        w, b = divmod(shot, _WORD_BITS)
        lo, hi = int(bounds[w]), int(bounds[w + 1])
        sel = ((vals[lo:hi] >> np.uint64(b)) & np.uint64(1)).astype(bool)
        if t_stop is not None:
            sel &= coords[lo:hi, 1] < t_stop
        return coords[lo:hi, 1:][sel]

    @staticmethod
    def shot_nodes_bulk(coords: np.ndarray, vals: np.ndarray,
                        shots: int) -> tuple[np.ndarray, np.ndarray]:
        """Every shot's active nodes in one vectorized lane unpack.

        Returns ``(nodes, offsets)``: ``nodes`` is the ``(N, 3)``
        concatenation of all shots' ``(t, i, j)`` coordinates and
        ``offsets`` the ``(shots + 1,)`` slice bounds, so that
        ``nodes[offsets[s]:offsets[s + 1]]`` equals
        :meth:`shot_nodes` for shot ``s`` bit for bit.  This replaces
        ``shots`` per-shot lane extractions with one ``unpackbits`` +
        one stable counting sort — the batched decode engine's entry
        point.
        """
        offsets = np.zeros(shots + 1, dtype=np.int64)
        if not len(coords):
            return np.zeros((0, 3), dtype=coords.dtype), offsets
        as_bytes = np.ascontiguousarray(
            vals.astype("<u8", copy=False)[:, None]).view(np.uint8)
        lanes = np.unpackbits(as_bytes, axis=-1, bitorder="little")
        rows, lane_idx = np.nonzero(lanes)
        shot_ids = (coords[rows, 0] * _WORD_BITS
                    + lane_idx).astype(np.int32)
        keep = shot_ids < shots  # zero-filled tail lanes never fire
        rows, shot_ids = rows[keep], shot_ids[keep]
        order = np.argsort(shot_ids, kind="stable")
        nodes = coords[rows[order], 1:]
        offsets = np.searchsorted(shot_ids[order], np.arange(shots + 1))
        return nodes, offsets

    @staticmethod
    def error_cut_parity_packed(v: np.ndarray) -> np.ndarray:
        """Packed :meth:`error_cut_parity`: one parity word per 64 shots.

        Bit ``s % 64`` of word ``s // 64`` is shot ``s``'s north-cut
        error parity — the mod-2 flip count collapses to an XOR
        reduction over the ``k = 0`` vertical edges.
        """
        north = v[:, :, 0, :]
        return np.bitwise_xor.reduce(
            north.reshape(north.shape[0], -1), axis=1)

    @staticmethod
    def north_cut_prefix_packed(v: np.ndarray) -> np.ndarray:
        """Running north-cut parities, packed: shape ``(words, T)``.

        Bit ``s % 64`` of ``[s // 64, t]`` is the error cut parity of
        shot ``s`` truncated after cycle ``t`` (i.e. of ``v[:t + 1]``),
        which is what the end-to-end kernel scores shots against when a
        detection stops the run early.
        """
        per_cycle = np.bitwise_xor.reduce(v[:, :, 0, :], axis=-1)
        return np.bitwise_xor.accumulate(per_cycle, axis=1)

    # ------------------------------------------------------------------
    @staticmethod
    def error_cut_parity(v: np.ndarray):
        """Parity of error flips crossing the north-boundary cut.

        The residual operator is a logical X iff error XOR correction
        crosses the north cut an odd number of times; the error part of
        that parity is the total number of flips of the ``k = 0`` vertical
        edges over all cycles, mod 2.  For a single shot (3D input)
        returns an ``int``; for batched input returns an integer array
        over the leading axes.
        """
        parity = v[..., 0, :].sum(axis=(-2, -1)).astype(np.int64) & 1
        if v.ndim == 3:
            return int(parity)
        return parity

    def per_cycle_activity(self, v: np.ndarray, h: np.ndarray,
                           m: np.ndarray) -> np.ndarray:
        """Per-cycle node activity stream for the anomaly detection unit.

        Returns the difference lattice restricted to the noisy rounds
        (shape ``(..., T, d-1, d)``): what the `anomaly detection unit`
        sees as cycles stream in (the final perfect round is an analysis
        artifact, not part of the live stream).
        """
        true = self.true_syndromes(v, h)
        noisy = true ^ m.astype(np.uint8)
        diff = noisy.copy()
        diff[..., 1:, :, :] ^= noisy[..., :-1, :, :]
        return diff
