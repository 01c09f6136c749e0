"""Micro-benchmarks of ring_matmul at the toy and the wide decode shapes,
and of rescale on the toy fused QKV product.

Rounds are fixed (pedantic mode) so each bench adds well under a second
to the suite.  Compare runs with pytest-benchmark's own options, e.g.
`pytest tests/test_ring_bench.py --benchmark-autosave` and
`--benchmark-compare`.
"""

from fractions import Fraction

import numpy as np
import pytest

from remo.ring import QuantParams, RingMatrix, rescale, ring_matmul

P64 = QuantParams()


@pytest.mark.parametrize(
    "n,inner,cols,rounds",
    [(1, 32, 64, 200), (1, 512, 1024, 20)],
    ids=["1x32@32x64", "1x512@512x1024"],
)
def test_bench_ring_matmul(benchmark, n, inner, cols, rounds):
    rng = np.random.default_rng(inner)
    a = RingMatrix(rng.integers(0, 2**64, (n, inner), dtype=np.uint64), P64)
    b = RingMatrix(rng.integers(0, 2**64, (inner, cols), dtype=np.uint64), P64)
    out = benchmark.pedantic(ring_matmul, args=(a, b), rounds=rounds, warmup_rounds=2)
    assert np.array_equal(out.data, a.data @ b.data)


def test_bench_rescale_1x96(benchmark):
    rng = np.random.default_rng(96)
    a = RingMatrix(rng.integers(0, 2**64, (1, 96), dtype=np.uint64), P64)
    out = benchmark.pedantic(rescale, args=(a,), rounds=200, warmup_rounds=2)
    k, f = P64.k, P64.f
    signed = [int(v) - (1 << k) * (int(v) >> (k - 1)) for v in a.data[0]]
    want = [round(Fraction(s, 1 << f)) % (1 << k) for s in signed]  # round half to even
    assert out.data[0].tolist() == want
