"""Micro-benchmarks of one toy decode op's per-request enclave work: the
private mask draw and the codec of a 1 x 32 MatMulRequest.

Rounds are fixed (pedantic mode), as in test_ring_bench.py.
"""

import numpy as np

from remo.masking import derive_step_mask
from remo.prg import PrgKey
from remo.protocol import MatMulRequest, decode_message, encode_message
from remo.ring import QuantParams, RingMatrix

P64 = QuantParams()
ROUNDS = 200


def test_bench_derive_step_mask_1x16(benchmark):
    prg = PrgKey.from_int(7).child("session", 1)
    args = (prg, 5, "l0.wqkv", 1, 16, P64)
    out = benchmark.pedantic(derive_step_mask, args=args, rounds=ROUNDS, warmup_rounds=2)
    assert out.shape == (1, 16)
    assert out == derive_step_mask(*args)
    assert out != derive_step_mask(prg, 6, "l0.wqkv", 1, 16, P64)


def _request() -> MatMulRequest:
    rng = np.random.default_rng(32)
    masked = RingMatrix(rng.integers(0, 2**64, (1, 32), dtype=np.uint64), P64)
    return MatMulRequest(3, 41, "l0.wqkv", masked)


def test_bench_encode_message_1x32(benchmark):
    msg = _request()
    frame = benchmark.pedantic(encode_message, args=(msg,), rounds=ROUNDS, warmup_rounds=2)
    assert len(frame) == 4 + 1 + 12 + 2 + len("l0.wqkv") + 14 + 8 * 32
    assert decode_message(frame) == msg


def test_bench_decode_message_1x32(benchmark):
    msg = _request()
    frame = encode_message(msg)
    out = benchmark.pedantic(decode_message, args=(frame,), rounds=ROUNDS, warmup_rounds=2)
    assert out == msg
