"""Bit-packed shot storage: 64 Monte-Carlo shots per uint64 word.

The batched shot engine's float sampling path materializes 8 bytes per
sampled Bernoulli bit, so memory — not CPU — caps campaign size.  This
module is the Stim-style answer: shots live along a packed leading axis
(word ``w``, lane ``b`` holds shot ``64 * w + b``, LSB first), so a
boolean batch of shape ``(shots, T, rows, cols)`` becomes a uint64 array
of shape ``(ceil(shots / 64), T, rows, cols)`` and every element-wise
XOR over the batch turns into one word-wise XOR over 64 shots.

Conventions:

* the packed axis is always axis 0;
* lanes are LSB-first: lane ``b`` of a word is ``(word >> b) & 1``;
* tail lanes of the final word (shots not divisible by 64) are
  zero-filled on packing and must never be read back as shots.
"""

from __future__ import annotations

import numpy as np

#: Shots per packed word.
WORD_BITS = 64


def word_count(shots: int) -> int:
    """Number of uint64 words needed to hold ``shots`` lanes."""
    if shots < 1:
        raise ValueError("need at least one shot")
    return -(-shots // WORD_BITS)


def pack_shots(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(shots, ...)`` array into ``(words, ...)`` uint64.

    Lane ``s % 64`` of word ``s // 64`` holds shot ``s``; tail lanes of
    the final word are zero.
    """
    # Thresholding up front keeps any-nonzero-is-1 packbits semantics
    # at every alignment.
    bits = np.asarray(bits).astype(bool, copy=False)
    shots = bits.shape[0]
    words = word_count(shots)
    if shots != words * WORD_BITS:
        pad = np.zeros((words * WORD_BITS - shots,) + bits.shape[1:],
                       dtype=bool)
        bits = np.concatenate([bits, pad], axis=0)
    lanes_first = bits.reshape((words, WORD_BITS) + bits.shape[1:])
    # (words, 64, ...) -> (words, ..., 64): lanes must be the fastest
    # axis so the 8 packed bytes of each word are memory-adjacent.
    # Materializing the transpose before packbits matters: packbits on a
    # strided view falls back to a buffered per-element walk that is
    # several times slower than transpose-copy + contiguous packing.
    lanes_last = np.ascontiguousarray(np.moveaxis(lanes_first, 1, -1))
    packed = np.packbits(lanes_last, axis=-1, bitorder="little")
    return packed.view("<u8")[..., 0]


def unpack_shots(words: np.ndarray, shots: int) -> np.ndarray:
    """Invert :func:`pack_shots`: ``(words, ...)`` uint64 to bool shots."""
    words = np.asarray(words, dtype="<u8")
    n_words = words.shape[0]
    if shots > n_words * WORD_BITS:
        raise ValueError("more shots requested than lanes stored")
    as_bytes = np.ascontiguousarray(words[..., None]).view(np.uint8)
    lanes_last = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    bits = np.moveaxis(lanes_last, -1, 1).reshape(
        (n_words * WORD_BITS,) + words.shape[1:])
    return bits[:shots].astype(bool)


def lane(words: np.ndarray, shot: int) -> np.ndarray:
    """Extract one shot's bits as a uint8 0/1 array (packed axis dropped).

    This is the only per-shot unpacking the packed kernels perform: one
    lane of the already-extracted syndrome stream, never the raw batch.
    """
    w, b = divmod(shot, WORD_BITS)
    return ((words[w] >> np.uint64(b)) & np.uint64(1)).astype(np.uint8)


def lane_bit(words: np.ndarray, shot: int) -> int:
    """One shot's bit of a ``(words,)`` array of packed parity words."""
    w, b = divmod(shot, WORD_BITS)
    return (int(words[w]) >> b) & 1


def _popcount_generic(words: np.ndarray) -> np.ndarray:
    """SWAR popcount in word-wise ops (the NumPy < 2.0 fallback)."""
    v = np.asarray(words, dtype=np.uint64).copy()
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h = np.uint64(0x0101010101010101)
    v -= (v >> np.uint64(1)) & m1
    v = (v & m2) + ((v >> np.uint64(2)) & m2)
    v = (v + (v >> np.uint64(4))) & m4
    return ((v * h) >> np.uint64(56)).astype(np.int64)


if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts (number of active shots per word)."""
        return np.bitwise_count(words)
else:  # pragma: no cover - exercised only on NumPy < 2.0
    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts (number of active shots per word)."""
        return _popcount_generic(words)
