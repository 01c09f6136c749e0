"""Hybrid masking: fixed public base per weight matrix, fresh private mixing per step.

Setup releases a single random m x d public base per weight matrix
(m < d, so the provider-side product reveals only an underdetermined
sketch of the weights) and keeps it, with the restoration pool the
provider returns for it, as one immutable MaskBase.  The provider
refuses a second base for an op; the issuer here only draws bases.  At
every decoding step the enclave draws a fresh private n x m mixing
matrix (one row per input row, so a prefilled prompt block is masked in
one draw), applies the additive mask E + M_pvt @ M_pub, and later removes
the provider's contribution exactly via O_hat - M_pvt @ R_pub.

The full mask M_pvt @ M_pub exists only transiently inside
mask_embedding; the private mixing matrix never crosses the wire.

Limit: the mask spans only the m-dimensional row space of M_pub, and the
provider receives M_pub at setup.  For the ring kernel N of M_pub
(`ring.ring_kernel`, d x (d - m), M_pub @ N == 0 mod 2^64) every masked
row satisfies masked @ N == E @ N exactly, so d - m directions of each
input reach the provider unmasked.  No choice of m closes this with one
provider and exact recovery: the enclave must learn M @ W for every mask
direction M it uses, so every input direction hidden from the provider
is a direction of W exposed to the enclave.  The enclave also chooses
M_pub itself, and the provider checks only its shape and params, so a
base of m identity rows reads m rows of W outright, with no lattice
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDims, ShapeMismatch
from .prg import PrgKey
from .ring import QuantParams, RingMatrix, ring_add, ring_matmul, ring_sub


@dataclass(frozen=True)
class MaskBase:
    """One weighted op's m x d public base and its m x d_out restoration pool.

    `Enclave.setup` builds one only after the pool has arrived and fits
    the base (m rows, the base's params), so every base in use has one.
    The pool holds the raw ring product of the base with the weight
    matrix, i.e. at fixed-point scale 2f: recovery must subtract it from
    the equally raw masked product before any rescaling.  Both are only
    right operands (mask apply, recover), so `Enclave.setup` stores them
    column-major (`ring.column_major`); the wire keeps the drawn base.
    """

    public_base: RingMatrix
    pool: RingMatrix

    @property
    def m(self) -> int:
        return self.public_base.rows

    @property
    def d(self) -> int:
        return self.public_base.cols


def _gf2_row_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bit-packed ints."""
    basis: dict[int, int] = {}  # leading bit -> the one basis row with it
    for value in rows:
        while value:
            lead = value.bit_length()
            if lead not in basis:
                basis[lead] = value
                break
            value ^= basis[lead]
    return len(basis)


def _full_row_rank(matrix: RingMatrix) -> bool:
    # full rank of the low bits over GF(2) implies full row rank over the
    # rationals (some m x m minor has odd determinant) and over the ring.
    # Each row's low bits become one int, first column most significant;
    # packbits pads a row to whole bytes with zero low bits, which shifts
    # every row alike and so keeps the rank.
    packed = np.packbits((matrix.data & np.uint64(1)).astype(np.uint8), axis=1)
    rows = [int.from_bytes(row.tobytes(), "big") for row in packed]
    return _gf2_row_rank(rows) == matrix.rows


@dataclass(frozen=True)
class MaskIssuer:
    """Draws full-row-rank public bases, deterministic per op id."""

    prg: PrgKey
    params: QuantParams

    def gen_public_base(self, op_id: str, m: int, d: int) -> RingMatrix:
        if m >= d:
            raise BadDims(f"sketch rows m={m} must be < input dim d={d}")
        if m < 1:
            raise BadDims("need m >= 1")
        attempt = 0
        while True:
            base = self.prg.ring_matrix(m, d, self.params, "public-base", op_id, attempt)
            if _full_row_rank(base):
                return base
            attempt += 1  # rank deficiency has probability ~2^-(d-m); retry deterministically


def derive_step_mask(
    prg: PrgKey, step: int, op_id: str, n: int, m: int, params: QuantParams
) -> RingMatrix:
    """Fresh n x m private mixing matrix for one decoding step or block.

    Uniform on Z_2^64, bound to the (step, op) labels so no two steps and
    no two ops in one step ever share a stream.  For a block of n rows
    (a prefilled prompt), `step` is the block's first position; later
    steps start after the block, so (step, op) still never repeats.
    """
    if n < 1:
        raise BadDims("need n >= 1")
    return prg.ring_matrix(n, m, params, "private-mix", step, op_id)


def mask_embedding(e: RingMatrix, m_pvt: RingMatrix, m_pub: RingMatrix) -> RingMatrix:
    """E + M_pvt @ M_pub; the combined mask never escapes this frame."""
    if e.cols != m_pub.cols or m_pvt.cols != m_pub.rows or e.rows != m_pvt.rows:
        raise ShapeMismatch(
            f"mask shapes incompatible: E {e.shape}, M_pvt {m_pvt.shape}, M_pub {m_pub.shape}"
        )
    return ring_add(e, ring_matmul(m_pvt, m_pub))


def recover(o_hat: RingMatrix, m_pvt: RingMatrix, r_pub: RingMatrix) -> RingMatrix:
    """O_hat - M_pvt @ R_pub: exact plaintext product by ring distributivity.

    Both operands must still be at the raw product scale (2f); rescaling
    happens after the subtraction, otherwise rounding would break
    exactness.
    """
    if m_pvt.cols != r_pub.rows or o_hat.cols != r_pub.cols or o_hat.rows != m_pvt.rows:
        raise ShapeMismatch(
            f"recover shapes incompatible: O_hat {o_hat.shape}, M_pvt {m_pvt.shape}, R_pub {r_pub.shape}"
        )
    return ring_sub(o_hat, ring_matmul(m_pvt, r_pub))
