"""Micro-benchmarks of ring_matmul and rescale.

ring_matmul runs at the toy and the wide decode shapes with uniform
operands, which pins the integer kernels, the wide one also with b stored
column-major as the enclave stores its bases and pools.  Against real
(column-major) weights it runs at the wide set-up pool and prefill shapes,
which take the float64 kernel, and at the one-row decode shape of
`l0.wdown`, which takes einsum.  rescale runs on the toy fused QKV product.

Rounds are fixed (pedantic mode) so each bench adds well under a second
to the suite.  Compare runs with pytest-benchmark's own options, e.g.
`pytest tests/test_ring_bench.py --benchmark-autosave` and
`--benchmark-compare`.
"""

from fractions import Fraction

import numpy as np
import pytest

from remo.model import ModelConfig, init_weights
from remo.ring import RING_BITS, QuantParams, RingMatrix, _blas_operand, column_major, rescale, ring_matmul

P64 = QuantParams()
WIDE = ModelConfig(vocab=256, d=256, layers=1, heads=8, d_ff=1024)


@pytest.mark.parametrize(
    "n,inner,cols,rounds,layout",
    [(1, 32, 64, 200, "C"), (1, 512, 1024, 20, "C"), (1, 512, 1024, 20, "F")],
    ids=["1x32@32x64", "1x512@512x1024", "1x512@512x1024-F"],
)
def test_bench_ring_matmul(benchmark, n, inner, cols, rounds, layout):
    rng = np.random.default_rng(inner)
    a = RingMatrix(rng.integers(0, 2**64, (n, inner), dtype=np.uint64), P64)
    b = RingMatrix(rng.integers(0, 2**64, (inner, cols), dtype=np.uint64), P64)
    if layout == "F":
        b = column_major(b)
    out = benchmark.pedantic(ring_matmul, args=(a, b), rounds=rounds, warmup_rounds=2)
    assert np.array_equal(out.data, a.data @ b.data)


@pytest.mark.parametrize(
    "n,op_id,rounds",
    [(128, "l0.wup", 20), (16, "l0.wqkv", 50), (1, "l0.wdown", 50)],
    ids=["pool-128x256@256x1024", "prefill-16x256@256x768", "decode-1x1024@1024x256"],
)
def test_bench_ring_matmul_weights(benchmark, n, op_id, rounds):
    w = init_weights(WIDE, seed=1234).ops[op_id]
    assert _blas_operand(w) is not None
    rng = np.random.default_rng(n)
    a = RingMatrix(rng.integers(0, 2**64, (n, w.rows), dtype=np.uint64), P64)
    out = benchmark.pedantic(ring_matmul, args=(a, w), rounds=rounds, warmup_rounds=2)
    assert np.array_equal(out.data, np.einsum("ik,kj->ij", a.data, w.data))


def test_bench_rescale_1x96(benchmark):
    rng = np.random.default_rng(96)
    a = RingMatrix(rng.integers(0, 2**64, (1, 96), dtype=np.uint64), P64)
    out = benchmark.pedantic(rescale, args=(a,), rounds=200, warmup_rounds=2)
    k, f = RING_BITS, P64.f
    signed = [int(v) - (1 << k) * (int(v) >> (k - 1)) for v in a.data[0]]
    want = [round(Fraction(s, 1 << f)) % (1 << k) for s in signed]  # round half to even
    assert out.data[0].tolist() == want
