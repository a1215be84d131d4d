"""Hilbert-curve spatial ordering (any dimension >= 2).

The Hilbert curve preserves locality strictly better than the Z-order
curve (no long diagonal jumps), at the cost of a more expensive index
computation.  Implemented with the classical bitwise transpose
algorithm (Skilling's method), vectorized over numpy arrays for large
inputs and over the 64-bit fields of Python ints for small ones.  The
transpose algorithm is dimension-generic, so codes are available for
any ``d >= 2`` as long as the interleaved index fits 63 bits
(``bits * d <= 63``).
"""

from __future__ import annotations

import numpy as np

from ..core.points import as_array
from ..parlay.sort import argsort_parallel
from ..parlay.workdepth import charge

__all__ = ["hilbert_codes", "hilbert_argsort", "hilbert_sort"]


#: Points per interleave block.  The unpacked-bit scratch arrays take one
#: byte per bit (under 130 + 15 * d bytes per point), so blocks keep them
#: near 10 MB whatever the input size.
_BLOCK = 1 << 16


#: Below this many points the transform runs on Python ints (SWAR, see
#: :func:`_swar_undo_and_gray`); from here up, on numpy columns.  Both
#: take about 9 * bits * d operations, so the crossover hardly moves
#: with d: measured between 512 and 768 points at d = 2, 3 and 7.
_SWAR_BELOW = 512


def _transpose_to_hilbert_int(x: np.ndarray, bits: int) -> np.ndarray:
    """Skilling's TransposetoAxes inverse: Gray-code a transposed
    coordinate matrix into Hilbert indices.

    ``x`` is (n, d) uint64 coordinates quantized to ``bits`` bits.
    Returns (n,) uint64 Hilbert indices.

    Small inputs (fewer than :data:`_SWAR_BELOW` points, e.g. a routed
    query or an 8-point update) run the undo and Gray steps on one
    Python int per dimension; larger ones on numpy columns.  Both then
    share one interleave.
    """
    n = len(x)
    if n < _SWAR_BELOW:
        cols = _swar_undo_and_gray(x, bits)
    else:
        cols = _array_undo_and_gray(x, bits)
    return _interleave(cols, bits)


def _swar_undo_and_gray(x: np.ndarray, bits: int) -> np.ndarray:
    """The undo and Gray steps, SIMD within a register.

    Each dimension becomes one Python int holding every point's
    coordinate in its own 64-bit field, so one big-int operation
    updates all points: about ``9 * bits * d`` of them, whatever n is.
    Fields never carry into each other: xor and and are bitwise, the
    masks multiply a 0/1 field by ``p < 2**bits``, and every right
    shift is masked back to ``bits`` bits per field (``bits <= 31``
    when ``d >= 2``, so bits shifted in from the next field land above
    them).  Returns the (d, n) uint64 transposed columns.
    """
    n, d = x.shape
    nbytes = 8 * n
    xs = [int.from_bytes(c.tobytes(), "little") for c in np.ascontiguousarray(x.T, dtype="<u8")]
    ones = int.from_bytes(np.ones(n, dtype="<u8").tobytes(), "little")

    # inverse undo excess work, as in _array_undo_and_gray: with f = bit
    # b of x_i, invert the low bits of x_0 where f is set, exchange the
    # low bits of x_0 and x_i where it is clear
    x0 = xs[0]
    for b in range(bits - 1, 0, -1):
        p = (1 << b) - 1
        pp = ones * p
        x0 ^= ((x0 >> b) & ones) * p
        for i in range(1, d):
            xi = xs[i]
            inv = ((xi >> b) & ones) * p
            x0 ^= inv
            t = (x0 ^ xi) & (pp ^ inv)
            x0 ^= t
            xs[i] = xi ^ t
    xs[0] = x0

    # Gray encode
    for i in range(1, d):
        xs[i] ^= xs[i - 1]
    keep = ones * ((1 << bits) - 1)
    s = xs[d - 1]
    step = 1
    while step < bits:
        s ^= (s >> step) & keep
        step <<= 1
    s = (s >> 1) & keep
    raw = b"".join((v ^ s).to_bytes(nbytes, "little") for v in xs)
    return np.frombuffer(raw, dtype="<u8").reshape(d, n).astype(np.uint64)


def _array_undo_and_gray(x: np.ndarray, bits: int) -> np.ndarray:
    """The undo and Gray steps on numpy columns.

    About ``9 * bits * d`` numpy calls, whatever n is: the undo step
    runs on contiguous per-dimension columns with branch-free masks and
    in-place ufuncs, and the Gray step is a prefix xor of at most six
    shifts.  Returns the (d, n) uint64 transposed columns.
    """
    n, d = x.shape
    cols = np.array(x.T, dtype=np.uint64, order="C")  # a copy: updated in place
    xs = list(cols)
    x0 = xs[0]
    f = np.empty(n, dtype=np.uint64)
    fs = f.view(np.int64)
    t = np.empty(n, dtype=np.uint64)
    shl, shr = np.left_shift, np.right_shift
    band, bxor = np.bitwise_and, np.bitwise_xor
    sign = np.int64(63)

    # inverse undo excess work.  With f = bit b of x_i, the mask -f & p
    # inverts the low bits of x_0 where the bit is set; (f - 1) & p,
    # its complement within p, exchanges the low bits of x_0 and x_i
    # where it is clear.  -f is the bit shifted to the top and
    # sign-extended.
    for b in range(bits - 1, 0, -1):
        up = np.uint64(63 - b)
        p = np.uint64((1 << b) - 1)
        for i, xi in enumerate(xs):
            shl(xi, up, out=f)
            shr(fs, sign, out=fs)  # -f
            band(f, p, out=f)
            bxor(x0, f, out=x0)
            if i:  # the exchange is a no-op for x_0 itself
                bxor(f, p, out=f)  # (f - 1) & p
                bxor(x0, xi, out=t)
                band(t, f, out=t)
                bxor(x0, t, out=x0)
                bxor(xi, t, out=xi)

    # Gray encode: prefix xor across the dimensions, then xor every
    # column with t, where bit j of t is the parity of x_{d-1}'s bits
    # above j (a prefix xor from the top, shifted down one)
    for i in range(1, d):
        bxor(xs[i], xs[i - 1], out=xs[i])
    s = xs[d - 1].copy()
    step = 1
    while step < bits:
        shr(s, np.uint64(step), out=t)
        bxor(s, t, out=s)
        step <<= 1
    shr(s, np.uint64(1), out=s)
    bxor(cols, s, out=cols)
    return cols


def _interleave(cols: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert indices from (d, n) transposed columns: bit b of x_i is
    bit b * d + (d - 1 - i) of the index.  One unpackbits/packbits
    round trip per block of :data:`_BLOCK` points."""
    d, n = cols.shape
    codes = np.empty(n, dtype=np.uint64)
    nbytes = (bits + 7) // 8
    for lo in range(0, n, _BLOCK):
        blk = cols[:, lo : min(lo + _BLOCK, n)]
        m = blk.shape[1]
        raw = blk.astype("<u8").view(np.uint8).reshape(d, m, 8)[:, :, :nbytes]
        ub = np.unpackbits(raw, axis=2, bitorder="little")
        full = np.zeros((m, 64), dtype=np.uint8)
        for i in range(d):
            full[:, d - 1 - i : bits * d : d] = ub[i, :, :bits]
        packed = np.packbits(full, axis=1, bitorder="little")
        codes[lo : lo + m] = packed.view("<u8").ravel()
    return codes


def hilbert_codes(points, bits: int | None = None, bounds=None) -> np.ndarray:
    """Hilbert index of each point (uint64), for any ``d >= 2``.

    ``bits`` is the per-dimension resolution (default fills 62 bits:
    ``62 // d``); ``bits * d`` must stay ``<= 63``.

    ``bounds`` optionally fixes the quantization box as ``(lo, hi)``
    arrays of shape (d,).  By default the box is the data's bounding
    box, which makes codes a function of the *point set*; passing
    explicit bounds makes the code of each point independent of its
    companions — what a sharded index needs so that points inserted
    later route to the same Hilbert range as the build did.  Points
    outside the box clamp onto its surface.
    """
    pts = as_array(points)
    n, d = pts.shape
    if d < 2:
        raise ValueError("hilbert_codes needs at least 2 dimensions")
    if bits is None:
        bits = max(1, 62 // d)
    if bits < 1 or bits * d > 63:
        raise ValueError("bits must be >= 1 with bits * dim <= 63")
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if bounds is None:
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
    else:
        lo = np.asarray(bounds[0], dtype=np.float64)
        hi = np.asarray(bounds[1], dtype=np.float64)
        if lo.shape != (d,) or hi.shape != (d,):
            raise ValueError(f"bounds must be (lo, hi) arrays of shape ({d},)")
    span = np.where(hi > lo, hi - lo, 1.0)
    scale = (1 << bits) - 1
    # clamp in float space *before* the unsigned cast so out-of-box
    # points (insert routing) land on the near face, not wrap around
    q = np.clip((pts - lo) / span * scale, 0, scale).astype(np.uint64)
    charge(n * bits * d)
    return _transpose_to_hilbert_int(q, bits)


def hilbert_argsort(points, bits: int | None = None, seed: int = 0) -> np.ndarray:
    """Permutation ordering points along the Hilbert curve."""
    return argsort_parallel(hilbert_codes(points, bits), seed=seed)


def hilbert_sort(points, bits: int | None = None) -> np.ndarray:
    """Points reordered along the Hilbert curve."""
    pts = as_array(points)
    return pts[hilbert_argsort(pts, bits)]
