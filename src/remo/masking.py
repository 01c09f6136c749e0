"""Hybrid masking: fixed systematic public base per weight matrix, fresh private mixing per step.

Setup releases one public base per weight matrix in systematic form
M_pub = [I_m | R], R uniform m x (d - m) with m < d, so the provider's
product is an underdetermined sketch of the weights.  R stands for the
base everywhere: the wire carries R, the provider returns the pool
W[:m] + R @ W[m:], and a MaskBase keeps R with that pool.  The provider
refuses a second base for an op.  At every decoding step the enclave
draws a fresh private n x m mixing matrix (one row per input row, so a
prompt block is masked in one draw), sends
E + M_pvt @ M_pub = [E_1 + M_pvt | E_2 + M_pvt @ R], and removes the
provider's contribution exactly via O_hat - M_pvt @ pool.  The full mask
exists only inside mask_embedding; M_pvt never crosses the wire.

Why systematic: a base of full row rank has a unit m x m minor, so it is
A @ [I_m | R'] @ Pi for a unit A and a column permutation Pi.  M_pvt @ A
is uniform when M_pvt is, so the masked rows, and the pool up to the
secret-free factor A, are those of [I_m | R'] @ Pi.  A uniform R thus
shows the provider what a rank-checked uniform base shows it, with no
rank check and half the draws and pool multiply-adds.

Limit: the mask spans only the row space of M_pub, which the provider
knows.  Its ring kernel is N = [-R; I_{d-m}] (`ring.ring_kernel`), and
masked @ N == E @ N exactly, so d - m directions of each input reach the
provider unmasked.  No m closes this with one provider and exact
recovery: every input direction hidden from the provider is a direction
of W the enclave learns.

Trust model: weight privacy against the client assumes an attested
enclave.  A client that writes its own messages reads W directly: R = 0
returns W[:m], and unit-row requests return rows of W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDims, ShapeMismatch
from .prg import PrgKey
from .ring import QuantParams, RingMatrix, ring_matmul, ring_sub


@dataclass(frozen=True)
class MaskBase:
    """One weighted op's R, of the base [I_m | R], and its m x d_out restoration pool.

    `Enclave.setup` builds one only after the pool has arrived and fits R
    (m rows, R's params).  The pool is the raw ring product
    W[:m] + R @ W[m:], at scale 2f, so recovery subtracts it before any
    rescaling.  Both are only right operands, so `Enclave.setup` stores
    them column-major (`ring.column_major`).
    """

    r: RingMatrix
    pool: RingMatrix

    @property
    def m(self) -> int:
        return self.r.rows

    @property
    def d(self) -> int:
        return self.r.rows + self.r.cols

    @property
    def public_base(self) -> RingMatrix:
        """[I_m | R], built per call for the sketch analyses; sessions never need it."""
        eye = np.eye(self.m, dtype=np.uint64)
        return RingMatrix(np.hstack([eye, self.r.data]), self.r.params)


@dataclass(frozen=True)
class MaskIssuer:
    """Draws the R block of each op's systematic public base, deterministic per op id."""

    prg: PrgKey
    params: QuantParams

    def gen_public_base(self, op_id: str, m: int, d: int) -> RingMatrix:
        """R, uniform m x (d - m), of the base [I_m | R]; full row rank by construction."""
        if not 1 <= m < d:
            raise BadDims(f"sketch rows m={m} must be >= 1 and < input dim d={d}")
        return self.prg.ring_matrix(m, d - m, self.params, "public-base", op_id)


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


def mask_embedding(e: RingMatrix, m_pvt: RingMatrix, r: RingMatrix) -> RingMatrix:
    """E + M_pvt @ [I_m | R] = [E_1 + M_pvt | E_2 + M_pvt @ R], E split after column m,
    written into one output; the combined mask never escapes this frame."""
    m = r.rows
    if e.cols != m + r.cols or m_pvt.cols != m or e.rows != m_pvt.rows or e.params != m_pvt.params:
        raise ShapeMismatch(f"mask operands incompatible: E {e!r}, M_pvt {m_pvt!r}, R {r!r}")
    mixed = ring_matmul(m_pvt, r)  # checks the params of M_pvt and R
    out = np.empty(e.shape, dtype=np.uint64)
    np.add(e.data[:, :m], m_pvt.data, out=out[:, :m])
    np.add(e.data[:, m:], mixed.data, out=out[:, m:])
    return RingMatrix(out, e.params)


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
