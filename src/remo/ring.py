"""Exact fixed-point matrices over the ring Z_2^64.

All outsourced linear algebra in this package runs on these matrices.
Addition, subtraction and matrix products are exact modular integer
arithmetic, so additive masking distributes over products with zero
error: (E + M)W - MW == EW element-for-element, no tolerance.

Representation: elements are ``uint64`` values, and arithmetic is done
in native uint64, which wraps mod 2^64, so it is exact ring arithmetic.
The ring width is the constant `RING_BITS`.

Fixed-point encoding: a ring element v encodes the real x = s(v) / 2^f
where s(v) is its two's-complement (int64) value.  A product of two
scale-f values lives at scale 2f; `rescale` shifts it back down with
round-half-even.

`ring_matmul` picks one of three kernels from the shape and the right
operand b, never from the values of the left operand a: numpy's uint64
`a @ b` below 8192 multiply-adds, uint64 einsum above, and exact float64
BLAS for products of at least 8 rows and 2^18 multiply-adds whose b has
small two's-complement values, (2^16 - 1) * max|b| * inner < 2^53.  The
last splits a into 16-bit limbs, so every float64 partial sum is an
integer below 2^53 and exact.  The provider's fixed-point weights meet
the bound; uniform ring elements (mask apply, recover) do not and stay
on einsum.  All three give the same bits.

Layout: a matrix keeps row-major (C) or column-major (F) data and copies
anything else to C; products are C.  A matrix that is only ever a right
operand (a weight, a public base, a pool) is made column-major once, where
it is born (`column_major`).  Values, equality, hashes and the wire form
do not depend on the layout.

Linear systems over the ring are solved by one odd-pivot eliminator,
`ring_solve` (`ring_kernel` is its homogeneous case): odd elements are
the units of Z_2^64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadDims, BadParams, DecodeError, LengthMismatch, RangeOverflow, ShapeMismatch

RING_BITS = 64
MATRIX_MAGIC = b"RMX1"
_MATRIX_HEADER = struct.Struct("<IIBB")  # rows, cols, k (always RING_BITS), f


@dataclass(frozen=True)
class QuantParams:
    """Fraction bits f of the fixed-point encoding over Z_2^64.

    Requires 1 <= f < 64.  The representable real range is
    |x| < 2^(63-f); quantize rejects anything outside it.
    """

    f: int = 16

    def __post_init__(self) -> None:
        if not isinstance(self.f, int):
            raise BadParams("f must be an int")
        if not (1 <= self.f < RING_BITS):
            raise BadParams(f"need 1 <= f < {RING_BITS}, got f={self.f}")

    @property
    def scale(self) -> float:
        return float(1 << self.f)

    @property
    def max_abs(self) -> float:
        """Strict upper bound on |x| accepted by quantize."""
        return float(1 << (RING_BITS - self.f - 1))


def _as_canonical(data: np.ndarray) -> np.ndarray:
    arr = np.asarray(data, dtype=np.uint64)
    arr = arr if arr.flags.forc else np.ascontiguousarray(arr)  # C or F kept, anything else C
    if arr.ndim != 2:
        raise ShapeMismatch(f"matrix must be 2-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class RingMatrix:
    """Immutable rows x cols matrix of Z_2^64 elements."""

    data: np.ndarray
    params: QuantParams

    def __post_init__(self) -> None:
        arr = _as_canonical(self.data)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @classmethod
    def from_ints(cls, values, params: QuantParams) -> "RingMatrix":
        """Build from arbitrary Python integers, reduced mod 2^64."""
        arr = np.array(values, dtype=object)
        if arr.ndim != 2:
            raise ShapeMismatch(f"matrix must be 2-D, got shape {arr.shape}")
        reduced = np.vectorize(lambda v: int(v) % (1 << RING_BITS), otypes=[object])(arr)
        return cls(reduced.astype(np.uint64), params)

    def to_ints(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self.data]

    def signed(self) -> np.ndarray:
        """Two's-complement interpretation (an int64 view)."""
        return self.data.view(np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.data, other.data)

    def __hash__(self) -> int:
        return hash((self.params, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"RingMatrix({self.rows}x{self.cols}, f={self.params.f})"


def zeros(rows: int, cols: int, params: QuantParams) -> RingMatrix:
    return RingMatrix(np.zeros((rows, cols), dtype=np.uint64), params)


def column_major(a: RingMatrix) -> RingMatrix:
    """`a` stored column-major, as fixed right operands are; column-major data is not copied."""
    return RingMatrix(np.asfortranarray(a.data), a.params)


def _check_pair(a: RingMatrix, b: RingMatrix, *, same_shape: bool) -> None:
    if a.params != b.params:
        raise ShapeMismatch(f"quantization params differ: {a.params} vs {b.params}")
    if same_shape and a.shape != b.shape:
        raise ShapeMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def quantize(x, params: QuantParams) -> RingMatrix:
    """Encode a real matrix at scale 2^f, round-half-even, mod 2^64.

    Raises RangeOverflow when any |x_ij| >= 2^(63-f).
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"matrix must be 2-D, got shape {arr.shape}")
    if arr.size and not np.abs(arr).max() < params.max_abs:  # NaN fails the < too
        raise RangeOverflow(f"value outside representable range |x| < {params.max_abs}")
    scaled = np.rint(arr * params.scale)
    # float64 has no values in (2^63 - 0.5, 2^63), so this cast is always exact.
    return RingMatrix(scaled.astype(np.int64).view(np.uint64), params)


def dequantize(a: RingMatrix) -> np.ndarray:
    """Two's-complement value divided by 2^f, as float64.

    Exact whenever |signed value| <= 2^53; ring elements produced by the
    model pipeline stay far below that.
    """
    return a.signed().astype(np.float64) / a.params.scale


def ring_add(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Element-wise (a + b) mod 2^64."""
    _check_pair(a, b, same_shape=True)
    return RingMatrix(a.data + b.data, a.params)


def ring_sub(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Element-wise (a - b) mod 2^64; exact inverse of ring_add."""
    _check_pair(a, b, same_shape=True)
    return RingMatrix(a.data - b.data, a.params)


# ring_matmul has three kernels, chosen by shape and by b, never by the
# values of a.  Timings are from a 2-core x86 VM, numpy 2.4 with OpenBLAS.
#
# `a @ b` and einsum: integers have no BLAS, so numpy's uint64 `a @ b` is a
# naive loop whose inner loop walks a column of b, one stride of b.cols
# elements per step; einsum reads b contiguously.  1x512@512x1024 takes
# 1642 us with `a @ b` and 393 us with einsum, 128x256@256x1024 91 ms and
# 26 ms.  Below _EINSUM_MIN_MACS multiply-adds (rows * inner * cols)
# einsum's fixed cost loses: 4x32@32x32 (4096) 5.9 vs 8.9 us, 4x32@32x64
# (8192) 12.5 vs 10.9 us.  Both accumulate in uint64, and a wrapped sum is
# the same mod 2^64 in any order.
#
# Layout: a row-major b makes einsum add a[i, t] * b[t] into output row i
# once per t, a column-major b makes each output element one contiguous dot
# product.  C -> F b, best of 7, two runs: 1x512@512x1024 446-490 -> 351-358
# us, 1x1024@1024x256 222-251 -> 172-200 us, 16x512@512x1024 6.2-6.9 ->
# 5.0-5.4 ms; `a @ b` ignores it.  einsum lays its output out like a: the
# copy to C is free for a C a, and order="C" would slow a C b eightfold.
#
# Float64 BLAS: when every signed(b) value is small, a splits into 16-bit
# limbs, each limb is multiplied by signed(b) in float64, and the int64
# products are shifted into place and added mod 2^64.  Every limb product
# term is at most (2^16 - 1) * max|b|, so if (2^16 - 1) * max|b| * inner <
# 2^53 every partial sum is an integer below 2^53 and exact in float64,
# whatever BLAS's summation order or FMA use.  The provider's weights are
# fixed-point values of at most 13 signed bits, far inside the bound; a
# uniform b (mask apply, recover) fails it on its first row and stays on
# einsum.  The limbs of a chunk of rows go to BLAS as one stacked GEMM:
# each BLAS call is a sync point of OpenBLAS's threads, and on a 2-core VM
# a call whose worker thread shared a core with the caller waited 8-16 ms,
# mostly in a process's first second of BLAS use, until the scheduler moved
# one of them.  Against einsum (medians of three runs): 128x256@256x1024
# 23 vs 4.9 ms, 512x1024@1024x256 115 vs 18 ms, 16x256@256x768 2.0 vs
# 0.7 ms.  Converting and checking b costs about 0.3 ms at 256x1024, so
# one-row products lose (1x256@256x768: 0.13 vs 0.34 ms); at the wide
# shapes BLAS wins from about 6 rows, and _BLAS_MIN_ROWS keeps a margin.
# With small inner and cols the passes over a and the products dominate:
# 32x32@32x96 (98304 MACs) gains 20% and 128x32@32x32 (131072) nothing,
# too little to risk a stall, hence the MAC floor.  At the toy model
# (d=32) it keeps the pools and every prompt shorter than 86 tokens on the
# integer kernels.
_EINSUM_MIN_MACS = 8192
_BLAS_MIN_ROWS = 8
_BLAS_MIN_MACS = 1 << 18
_LIMB_BITS = 16
_BLAS_ROW_CHUNK = 32  # rows of a per GEMM, times the limb count; bounds the buffers


def _blas_operand(b: RingMatrix) -> np.ndarray | None:
    """signed(b) as float64 if (2^16 - 1) * max|b| * b.rows < 2^53, else None.

    One row is checked first, so a uniform b is turned away without a
    scan of the whole matrix.
    """
    limit = ((1 << 53) - 1) // (((1 << _LIMB_BITS) - 1) * b.rows)
    s = b.signed()
    for part in (s[:1], s):
        if part.max() > limit or part.min() < -limit:
            return None
    return s.astype(np.float64)


def _limb_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod 2^64 for uint64 a and the exact float64 operand b.

    Each chunk of rows stacks its four limbs into one float64 GEMM, so
    BLAS is entered once per chunk, not once per limb.
    """
    (rows, inner), cols = a.shape, b.shape[1]
    nl = RING_BITS // _LIMB_BITS
    # little-endian uint16 lanes of each element: lane i holds bits 16i..16i+15
    lanes = np.ascontiguousarray(a, dtype="<u8").view("<u2").reshape(rows, inner, nl)
    out = np.empty((rows, cols), dtype=np.uint64)
    chunk = min(rows, _BLAS_ROW_CHUNK)
    # GEMM rows are (row, limb) pairs, so a short last chunk is a prefix
    limbs = np.empty((chunk, nl, inner), dtype=np.float64)
    prods = np.empty((chunk, nl, cols), dtype=np.float64)
    part = np.empty((chunk, cols), dtype=np.int64)
    for r in range(0, rows, chunk):
        n = min(chunk, rows - r)
        acc, p = out[r : r + n], part[:n].view(np.uint64)
        limbs[:n] = lanes[r : r + n].transpose(0, 2, 1)
        np.matmul(limbs[:n].reshape(n * nl, inner), b, out=prods[:n].reshape(n * nl, cols))
        for i in range(nl):
            part[:n] = prods[:n, i]  # exact: an integer below 2^53
            if i == 0:
                acc[...] = p
            else:
                np.left_shift(p, np.uint64(i * _LIMB_BITS), out=p)
                acc += p
    return out


def ring_matmul(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Exact integer matrix product mod 2^64.

    Every kernel gives the same bits, so distributivity over ring_add
    holds bit-exactly.  The result of scale-f operands lives at scale 2f.
    """
    _check_pair(a, b, same_shape=False)
    if a.cols != b.rows:
        raise ShapeMismatch(f"inner dims differ: {a.shape} @ {b.shape}")
    macs = a.rows * a.cols * b.cols
    exact = None
    if a.rows >= _BLAS_MIN_ROWS and macs >= _BLAS_MIN_MACS:
        exact = _blas_operand(b)
    if exact is not None:
        out = _limb_matmul(a.data, exact)
    elif macs >= _EINSUM_MIN_MACS:
        out = np.ascontiguousarray(np.einsum("ik,kj->ij", a.data, b.data))
    else:
        out = a.data @ b.data
    return RingMatrix(out, a.params)


def ring_solve(a: RingMatrix, b: RingMatrix) -> tuple[RingMatrix, RingMatrix] | None:
    """All X with a @ X == b over Z_2^64, as (X0, N): X = X0 + N @ Z.

    Gauss-Jordan elimination of [a | b] with odd (unit) pivots.  A column
    with no odd entry among the rows not yet used as pivots stays free.
    N is d x (free columns) with a @ N == 0 and the identity at the free
    rows; X0 is zero there.  Row operations wrap mod 2^64.  Returns
    None when the system is inconsistent.  Raises BadDims when a row of a
    is left non-zero: such a matrix needs an even pivot, which this
    eliminator does not use.
    """
    _check_pair(a, b, same_shape=False)
    if a.rows != b.rows:
        raise ShapeMismatch(f"row counts differ: {a.shape} vs {b.shape}")
    d = a.cols
    aug = np.ascontiguousarray(np.hstack([a.data, b.data]))  # row operations read rows
    pivots: list[int] = []
    for c in range(d):
        r = len(pivots)
        odd = np.flatnonzero(aug[r:, c] & np.uint64(1))
        if odd.size == 0:
            continue
        p = r + int(odd[0])
        aug[[r, p]] = aug[[p, r]]
        aug[r] *= np.uint64(pow(int(aug[r, c]), -1, 1 << 64))
        factor = aug[:, c].copy()
        factor[r] = 0
        aug -= np.outer(factor, aug[r])
        pivots.append(c)
    r = len(pivots)
    if np.any(aug[r:, :d]):
        raise BadDims(f"{a.rows}x{d} matrix does not reduce with odd pivots mod 2^{RING_BITS}")
    if np.any(aug[r:, d:]):
        return None
    free = [c for c in range(d) if c not in pivots]
    x0 = np.zeros((d, b.cols), dtype=np.uint64)
    x0[pivots] = aug[:r, d:]
    n = np.zeros((d, len(free)), dtype=np.uint64)
    n[free, np.arange(len(free))] = 1
    n[pivots] = np.uint64(0) - aug[:r, free]
    return RingMatrix(x0, a.params), RingMatrix(n, a.params)


def ring_kernel(m: RingMatrix) -> tuple[int, RingMatrix]:
    """Rank of m over Z_2^64 and the basis N of its right kernel from ring_solve.

    Every kernel vector is N @ z for one z.  Raises BadDims when m does
    not reduce with odd pivots.
    """
    _, n = ring_solve(m, zeros(m.rows, 0, m.params))
    return m.cols - n.cols, n


def rescale(a: RingMatrix) -> RingMatrix:
    """Drop f fraction bits from a scale-2f value, round-half-even.

    Equivalent to round_half_even(s(v) / 2^f) on the two's-complement
    value s(v), re-encoded mod 2^64.  With q = s(v) >> f (the floor) and
    r the low f bits, round-half-even adds one exactly when
    r + (q & 1) > 2^(f-1): above the half step always, at it only for
    odd q.  Deterministic pure integer arithmetic.
    """
    p = a.params
    s = a.signed()
    q = s >> p.f
    half = 1 << (p.f - 1)
    # r > half - (q & 1), not r + (q & 1) > half: at f = 63 that sum wraps int64
    inc = (s & ((1 << p.f) - 1)) > half - (q & 1)
    return RingMatrix((q + inc).view(np.uint64), p)


def encode_matrix(a: RingMatrix) -> bytes:
    """RMX1 wire form: magic, rows u32 LE, cols u32 LE, k u8, f u8, elements u64 LE."""
    header = MATRIX_MAGIC + _MATRIX_HEADER.pack(a.rows, a.cols, RING_BITS, a.params.f)
    return header + a.data.astype("<u8").tobytes()


def decode_matrix(buf: bytes, offset: int = 0) -> tuple[RingMatrix, int]:
    """Parse one encoded matrix starting at offset; returns (matrix, next offset)."""
    head_len = len(MATRIX_MAGIC) + _MATRIX_HEADER.size
    if len(buf) - offset < head_len:
        raise LengthMismatch("truncated matrix header")
    if buf[offset : offset + 4] != MATRIX_MAGIC:
        raise DecodeError("bad matrix magic")
    rows, cols, k, f = _MATRIX_HEADER.unpack_from(buf, offset + 4)
    if k != RING_BITS:
        raise DecodeError(f"ring width k={k}, only {RING_BITS} is supported")
    try:
        params = QuantParams(f=f)
    except BadParams as exc:
        raise DecodeError(str(exc)) from exc
    body = rows * cols * 8
    start = offset + head_len
    if len(buf) - start < body:
        raise LengthMismatch("truncated matrix body")
    flat = np.frombuffer(buf, dtype="<u8", count=rows * cols, offset=start)
    return RingMatrix(flat.astype(np.uint64).reshape(rows, cols), params), start + body
