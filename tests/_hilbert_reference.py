"""Reference Hilbert transform: the original per-bit Skilling loop.

This is the straightforward transcription of Skilling's transpose
algorithm that ``repro.spatialsort.hilbert`` used to run, kept here
unchanged as the oracle for the array-speed transform: the library's
codes must equal these bitwise for every ``d >= 2`` and every ``bits``.
:func:`reference_hilbert_codes` mirrors ``hilbert_codes``'s
quantization so whole point sets can be compared, and
:func:`reference_thresholds` / :func:`reference_owners` re-derive a
``HilbertPartitioner``'s cut and owners from reference codes.
"""

from __future__ import annotations

import numpy as np


def reference_transpose_to_hilbert_int(x: np.ndarray, bits: int) -> np.ndarray:
    """Skilling's TransposetoAxes inverse: Gray-code a transposed
    coordinate matrix into Hilbert indices.

    ``x`` is (n, d) uint64 coordinates quantized to ``bits`` bits.
    Returns (n,) uint64 Hilbert indices.
    """
    x = x.copy()
    n, d = x.shape
    m = np.uint64(1) << np.uint64(bits - 1)

    # inverse undo excess work
    q = m
    while q > np.uint64(1):
        p = q - np.uint64(1)
        for i in range(d):
            flip = (x[:, i] & q) != 0
            # invert low bits of x[0]
            x[flip, 0] ^= p
            # exchange low bits of x[i] and x[0]
            t = (x[:, 0] ^ x[:, i]) & p
            t = np.where(flip, np.uint64(0), t)
            x[:, 0] ^= t
            x[:, i] ^= t
        q >>= np.uint64(1)

    # Gray encode
    for i in range(1, d):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = m
    while q > np.uint64(1):
        has = (x[:, d - 1] & q) != 0
        t ^= np.where(has, q - np.uint64(1), np.uint64(0))
        q >>= np.uint64(1)
    for i in range(d):
        x[:, i] ^= t

    # interleave the transposed bits into one index
    codes = np.zeros(n, dtype=np.uint64)
    for b in range(bits):
        for i in range(d):
            bit = (x[:, i] >> np.uint64(bits - 1 - b)) & np.uint64(1)
            codes = (codes << np.uint64(1)) | bit
    return codes


def reference_hilbert_codes(points, bits: int, bounds) -> np.ndarray:
    """``hilbert_codes(points, bits, bounds)`` through the reference loop."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        return np.empty(0, dtype=np.uint64)
    lo = np.asarray(bounds[0], dtype=np.float64)
    hi = np.asarray(bounds[1], dtype=np.float64)
    span = np.where(hi > lo, hi - lo, 1.0)
    scale = (1 << bits) - 1
    q = np.clip((pts - lo) / span * scale, 0, scale).astype(np.uint64)
    return reference_transpose_to_hilbert_int(q, bits)


def reference_thresholds(sorted_codes: np.ndarray, n_shards: int) -> np.ndarray:
    """The balanced cut ``HilbertPartitioner`` takes over sorted codes."""
    sc = sorted_codes
    n = len(sc)
    cuts: list[int] = []
    prev = np.uint64(0)
    for j in range(1, n_shards):
        pos = (j * n) // n_shards
        while 0 < pos < n and sc[pos] == sc[pos - 1]:
            pos += 1
        if pos <= 0 or pos >= n:
            cuts.append(int(prev))
            continue
        prev = max(prev, sc[pos - 1])
        cuts.append(int(prev))
    return np.array(cuts, dtype=np.uint64)


def reference_owners(codes: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Shard ``i`` owns codes in ``(thresholds[i-1], thresholds[i]]``."""
    return np.searchsorted(thresholds, codes, side="left").astype(np.int64)
