"""Micro-benchmark of a 48-token toy prompt through the masked in-process
pipeline: one `prefill` block against the serial `decode_step` loop.

Each round runs on a fresh engine and session.  Rounds are fixed
(pedantic mode), as in test_ring_bench.py.
"""

import itertools

import pytest

from remo.model import DecoderEngine, reference_generate
from remo.prg import PrgKey
from remo.protocol import Enclave, InProcTransport, ProviderState, _MaskedWeightedOps

PROMPT = [(7 * i + 3) % 64 for i in range(48)]
ROUNDS = 10


def _serial(engine: DecoderEngine) -> int:
    for t in PROMPT:
        nxt = engine.decode_step(t)
    return nxt


@pytest.mark.parametrize(
    "feed", [lambda engine: engine.prefill(PROMPT), _serial], ids=["prefill", "serial"]
)
def test_bench_prompt_48_inproc(benchmark, toy_weights, feed):
    transport = InProcTransport(ProviderState(toy_weights.provider_view(), toy_weights.config.params))
    enclave = Enclave(toy_weights.enclave_view(), master_seed=11)
    enclave.setup(transport)
    sessions = itertools.count(1)

    def fresh_engine():
        sid = next(sessions)
        ops = _MaskedWeightedOps(enclave.bases, transport, sid, PrgKey.from_int(sid))
        return (DecoderEngine(enclave.params, ops),), {}

    token = benchmark.pedantic(feed, setup=fresh_engine, rounds=ROUNDS, warmup_rounds=1)
    assert token == reference_generate(toy_weights, PROMPT, 1)[0]
