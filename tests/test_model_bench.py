"""Micro-benchmarks of the toy model through the masked in-process
pipeline: a 48-token prompt as one `prefill` block against the serial
`decode_step` loop, and one decoded token after a short prompt.

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
DECODE_ROUNDS = 50


def _engine_factory(weights):
    """A callable that returns a fresh masked engine, one session each, over
    one enclave set up against an in-process provider."""
    transport = InProcTransport(ProviderState(weights.provider_view(), weights.config.params))
    enclave = Enclave(weights.enclave_view(), master_seed=11)
    enclave.setup(transport)
    sessions = itertools.count(1)

    def fresh_engine() -> DecoderEngine:
        sid = next(sessions)
        ops = _MaskedWeightedOps(enclave.bases, transport, sid, PrgKey.from_int(sid))
        return DecoderEngine(enclave.params, ops)

    return fresh_engine


def _serial(engine: DecoderEngine) -> int:
    for t in PROMPT:
        nxt = engine.decode_step(t)
    return nxt


@pytest.mark.parametrize(
    "feed", [lambda engine: engine.prefill(PROMPT), _serial], ids=["prefill", "serial"]
)
def test_bench_prompt_48_inproc(benchmark, toy_weights, feed):
    fresh_engine = _engine_factory(toy_weights)
    token = benchmark.pedantic(
        feed, setup=lambda: ((fresh_engine(),), {}), rounds=ROUNDS, warmup_rounds=1
    )
    assert token == reference_generate(toy_weights, PROMPT, 1)[0]


def test_bench_decode_step_inproc(benchmark, toy_weights):
    """One decoded token, the per-token CPU of the enclave and provider."""
    prompt = PROMPT[:4]
    want = reference_generate(toy_weights, prompt, 2)
    assert len(want) == 2  # the first token is not EOS, so a second one is decoded
    fresh_engine = _engine_factory(toy_weights)

    def after_prompt():
        engine = fresh_engine()
        return (engine, engine.prefill(prompt)), {}

    token = benchmark.pedantic(
        lambda engine, token: engine.decode_step(token),
        setup=after_prompt, rounds=DECODE_ROUNDS, warmup_rounds=1,
    )
    assert token == want[1]
