"""Structural ops, the decoder engine, and how the weights are held."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remo.errors import (
    BadDims,
    BadParams,
    CacheInconsistent,
    EmptyInput,
    SessionExhausted,
    TokenOutOfRange,
    UnknownOp,
)
from remo.model import (
    KVCache,
    LocalWeightedOps,
    ModelConfig,
    argmax_token,
    attention_structural,
    embed,
    init_weights,
    reference_generate,
    rms_norm,
    silu,
)
from remo.ring import QuantParams, RingMatrix, dequantize, encode_matrix, quantize

P = QuantParams()
CFG = ModelConfig()


def make_engine(weights):
    from remo.model import DecoderEngine

    return DecoderEngine(weights.enclave_view(), LocalWeightedOps(weights.provider_view()))


# --- embed ------------------------------------------------------------------


def test_embed_single_lookup(toy_weights):
    e = embed([0], toy_weights.embedding)
    assert e.rows == 1
    assert np.array_equal(e.data[0], toy_weights.embedding.data[0])


def test_embed_empty_rejected(toy_weights):
    with pytest.raises(EmptyInput):
        embed([], toy_weights.embedding)


def test_embed_out_of_range(toy_weights):
    with pytest.raises(TokenOutOfRange):
        embed([CFG.vocab], toy_weights.embedding)


def test_embed_matches_dequantized_table(toy_weights):
    table = dequantize(toy_weights.embedding)
    for tok in (0, 5, CFG.vocab - 1):
        got = dequantize(embed([tok], toy_weights.embedding))[0]
        assert np.max(np.abs(got - table[tok])) <= 2.0**-P.f


# --- rms_norm ------------------------------------------------------------------


def test_rms_norm_zero_row():
    x = quantize(np.zeros((1, 8)), P)
    out = rms_norm(x, np.ones(8))
    assert np.all(out.data == 0)


@pytest.mark.parametrize("v", [2.0, -3.5, 0.25])
def test_rms_norm_constant_row_is_sign(v):
    x = quantize(np.full((1, 16), v), P)
    out = dequantize(rms_norm(x, np.ones(16)))
    assert np.max(np.abs(out - np.sign(v))) <= 2.0**-P.f + 1e-4


def test_rms_norm_matches_reference_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 12))
    gain = rng.uniform(0.5, 1.5, size=12)
    q = quantize(x, P)
    got = dequantize(rms_norm(q, gain))
    xd = dequantize(q)
    want = xd / np.sqrt(np.mean(xd**2, axis=1, keepdims=True) + 1e-6) * gain
    assert np.max(np.abs(got - want)) <= 2.0 ** (-P.f + 1)


def rms_norm_mean_oracle(x: RingMatrix, gain: np.ndarray) -> RingMatrix:
    """rms_norm written with np.mean, as it was before it called np.add.reduce."""
    xd = dequantize(x)
    rms = np.sqrt(np.mean(xd * xd, axis=1, keepdims=True) + 1e-6)
    return quantize(xd / rms * np.asarray(gain)[None, :], x.params)


def silu_two_where_oracle(x: RingMatrix) -> RingMatrix:
    """silu with its two float expressions in two np.where calls, as it was."""
    xd = dequantize(x)
    pos = xd >= 0
    z = np.exp(np.where(pos, -xd, xd))
    sig = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))
    return quantize(xd * sig, x.params)


# At f = 48 the outputs keep the last few bits of the float results, so a
# kernel whose float arithmetic differs from its oracle's by one ulp shows.
BIT_PARAMS = (P, QuantParams(f=48))


def random_rows(seed: int, rows: int, cols: int, spread: float, params: QuantParams) -> RingMatrix:
    x = np.random.default_rng(seed).normal(scale=spread, size=(rows, cols))
    return quantize(x, params)


@given(
    rows=st.integers(1, 4),
    cols=st.sampled_from([1, 2, 3, 32, 64, 95, 256, 1024]),
    spread=st.sampled_from([1e-4, 0.1, 1.0, 30.0, 1000.0]),
    params=st.sampled_from(BIT_PARAMS),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_rms_norm_and_silu_match_their_old_forms_bit_for_bit(rows, cols, spread, params, seed):
    x = random_rows(seed, rows, cols, spread, params)
    gain = np.random.default_rng(seed + 1).uniform(0.5, 1.5, size=cols)
    assert rms_norm(x, gain).data.tobytes() == rms_norm_mean_oracle(x, gain).data.tobytes()
    assert silu(x).data.tobytes() == silu_two_where_oracle(x).data.tobytes()


# --- attention -------------------------------------------------------------------


def test_attention_single_position_returns_v_row():
    rng = np.random.default_rng(1)
    q = quantize(rng.normal(size=(1, 8)), P)
    k = quantize(rng.normal(size=(1, 8)), P)
    v = quantize(rng.normal(size=(1, 8)), P)
    out = quantize(attention_structural(*map(dequantize, (q, k, v)), heads=2, position=0), P)
    assert out == v  # softmax over one logit is exactly 1


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(2)
    qr = rng.normal(size=(1, 8))
    kr = rng.normal(size=(1, 8))
    vr = rng.normal(size=(2, 8))
    q = quantize(qr, P)
    k = quantize(np.vstack([kr, kr]), P)
    v = quantize(vr, P)
    out = dequantize(
        quantize(attention_structural(*map(dequantize, (q, k, v)), heads=2, position=1), P)
    )
    want = dequantize(v).mean(axis=0)
    assert np.max(np.abs(out[0] - want)) <= 2.0 ** (-P.f + 1)


def test_attention_cache_inconsistent():
    rng = np.random.default_rng(3)
    q = dequantize(quantize(rng.normal(size=(1, 8)), P))
    kv = dequantize(quantize(rng.normal(size=(2, 8)), P))
    with pytest.raises(CacheInconsistent):
        attention_structural(q, kv, kv, heads=2, position=0)
    block = dequantize(quantize(rng.normal(size=(2, 8)), P))
    with pytest.raises(CacheInconsistent):  # a 2-row block at position 1 needs 3 rows
        attention_structural(block, kv, kv, heads=2, position=1)


def attention_per_head_oracle(
    q: np.ndarray, keys: np.ndarray, values: np.ndarray, heads: int, position: int
) -> np.ndarray:
    """attention_structural as a loop over rows and then heads, as it was
    before the heads of a row were batched."""
    n, d = q.shape
    d_head = d // heads
    qd = q.reshape(n, heads, d_head)
    kd = keys.reshape(-1, heads, d_head)
    vd = values.reshape(-1, heads, d_head)
    out = np.empty((n, d))
    for r in range(n):
        end = position + r + 1
        for h in range(heads):
            scores = kd[:end, h, :] @ qd[r, h] / np.sqrt(d_head)
            scores -= scores.max()
            w = np.exp(scores)
            w /= w.sum()
            out[r, h * d_head : (h + 1) * d_head] = w @ vd[:end, h, :]
    return out


@given(
    heads=st.sampled_from([1, 2, 4, 8]),
    d_head=st.sampled_from([1, 2, 3, 5, 8, 32]),
    rows=st.integers(1, 4),
    position=st.integers(0, 120),
    spread=st.sampled_from([0.1, 1.0, 4.0]),
    params=st.sampled_from(BIT_PARAMS),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_attention_matches_per_head_loop_bit_for_bit(
    heads, d_head, rows, position, spread, params, seed
):
    d, end = heads * d_head, position + rows
    q, keys, values = (
        dequantize(random_rows(seed + i, n, d, spread, params))
        for i, n in enumerate((rows, end, end))
    )
    got = quantize(attention_structural(q, keys, values, heads, position), params)
    want = quantize(attention_per_head_oracle(q, keys, values, heads, position), params)
    assert got.data.tobytes() == want.data.tobytes()


def test_causality_prefix_outputs_stable(toy_weights):
    # appending future tokens never changes the tokens decoded before them
    prompt = [7, 3, 11, 2, 19]
    eng_short = make_engine(toy_weights)
    short_outs = [eng_short.decode_step(t) for t in prompt[:3]]
    eng_long = make_engine(toy_weights)
    long_outs = [eng_long.decode_step(t) for t in prompt]
    assert short_outs == long_outs[:3]


# --- silu / argmax ------------------------------------------------------------------


def test_silu_matches_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(scale=3.0, size=(2, 6))
    got = dequantize(silu(quantize(x, P)))
    xd = dequantize(quantize(x, P))
    want = xd / (1.0 + np.exp(-xd))
    assert np.max(np.abs(got - want)) <= 2.0 ** (-P.f + 1)


def test_argmax_tie_break_lowest_id():
    logits = quantize(np.array([[1.5, 1.5, 0.5]]), P)
    assert argmax_token(logits) == 0
    logits = quantize(np.array([[-1.0, 2.0, 2.0]]), P)
    assert argmax_token(logits) == 1


# --- KV cache ------------------------------------------------------------------------


def test_kv_cache_append_and_view(toy_weights):
    cache = KVCache(CFG)
    row = quantize(np.ones((1, CFG.d)), P)
    cache.append(0, dequantize(row), dequantize(row))
    assert len(cache.view(0)[0]) == 1
    k, v = cache.view(0)
    assert k.dtype == v.dtype == np.float64
    assert quantize(k, P) == row and quantize(v, P) == row
    assert len(cache.view(1)[0]) == 0


def test_kv_cache_view_is_read_only_and_kept_by_later_appends():
    cache = KVCache(CFG)
    first, second = quantize(np.ones((1, CFG.d)), P), quantize(-np.ones((2, CFG.d)), P)
    cache.append(0, dequantize(first), dequantize(first))
    k, v = cache.view(0)
    with pytest.raises(ValueError, match="read-only"):
        k[0, 0] = 7
    cache.append(0, dequantize(second), dequantize(second))
    assert quantize(k, P) == first and quantize(v, P) == first
    k3, _ = cache.view(0)
    assert len(k3) == 3 and quantize(k3[1:], P) == second
    assert np.shares_memory(k, k3)  # views of the cache, not copies


# --- engine / generate ----------------------------------------------------------------


def test_decode_step_deterministic(toy_weights):
    first = make_engine(toy_weights).decode_step(5)
    for _ in range(100):
        assert make_engine(toy_weights).decode_step(5) == first


def test_generate_max_new_zero(toy_weights):
    assert make_engine(toy_weights).generate([1, 2, 3], max_new=0) == []


def test_generate_negative_max_new(toy_weights):
    with pytest.raises(BadDims):
        reference_generate(toy_weights, [3, 4, 5], -1)


@pytest.mark.parametrize("max_new", [2.5, True, False, "3", None])
def test_generate_non_int_max_new(toy_weights, max_new):
    with pytest.raises(BadDims):
        reference_generate(toy_weights, [3, 4, 5], max_new)


def test_generate_empty_prompt(toy_weights):
    with pytest.raises(EmptyInput):
        make_engine(toy_weights).generate([], max_new=4)


def test_generate_full_prompt_exhausts(toy_weights):
    prompt = [1] * CFG.max_seq
    with pytest.raises(SessionExhausted):
        make_engine(toy_weights).generate(prompt, max_new=4)


def test_generate_eos_terminates_immediately():
    # zero head: every logit ties at 0, the tie-break picks token 0 == eos
    weights = init_weights(CFG, seed=5)
    zero_head = RingMatrix(np.zeros((CFG.d, CFG.vocab), dtype=np.uint64), P)
    weights.ops["head"] = zero_head
    out = reference_generate(weights, [4, 9, 12], max_new=8)
    assert out == [CFG.eos_id]


def test_generate_stops_at_eos_mid_stream(toy_weights):
    out = reference_generate(toy_weights, [3, 1, 4], max_new=30)
    if CFG.eos_id in out:
        assert out.index(CFG.eos_id) == len(out) - 1
    assert 1 <= len(out) <= 30


def test_weight_permutation_changes_outputs(toy_weights):
    # sanity anti-test: swapping two projections (Wq and Wk) must not go unnoticed
    fused = toy_weights.ops["l0.wqkv"]
    wq, wk, wv = np.split(fused.data, 3, axis=1)
    mutated = dataclasses.replace(
        toy_weights, ops={**toy_weights.ops, "l0.wqkv": RingMatrix(np.hstack([wk, wq, wv]), P)}
    )
    prompts = [[3, 1, 4, 1, 5], [9, 2, 6, 5, 3], [2, 7, 1, 8, 2]]
    diffs = [
        reference_generate(toy_weights, p, 8) != reference_generate(mutated, p, 8)
        for p in prompts
    ]
    assert any(diffs)


def _weights_digest(cfg: ModelConfig) -> str:
    """SHA-256 of every op matrix, the embedding and the gains, whatever their memory layout."""
    weights = init_weights(cfg, seed=1234)
    ops, enclave = weights.provider_view(), weights.enclave_view()
    h = hashlib.sha256()
    for op in cfg.op_ids():
        h.update(op.encode() + encode_matrix(ops[op]))
    h.update(encode_matrix(enclave.embedding))
    for gain in [*enclave.attn_gains, *enclave.mlp_gains, enclave.final_gain]:
        h.update(np.asarray(gain, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "cfg,want",
    [
        (CFG, "837450cfffa7a7c9a288ea907135f4c7aafc86f98e913dc715bf0df849334925"),
        (
            ModelConfig(vocab=256, d=256, layers=2, heads=8, d_ff=1024),
            "9dfc9a0f7299f7a1db3f434cdc4e9454b9aa5ff1a03932ea3aa5812c8afaede9",
        ),
    ],
    ids=["toy", "wide"],
)
def test_init_weights_digest_pinned(cfg, want):
    # any change to the draw order, the QKV fusion or the gains moves these digests
    assert _weights_digest(cfg) == want


def test_weights_are_held_once_as_applied(toy_weights):
    assert CFG.op_dims("l0.wqkv") == (CFG.d, 3 * CFG.d)
    assert list(toy_weights.ops) == CFG.op_ids()
    first, second = toy_weights.provider_view(), toy_weights.provider_view()
    for op_id, w in toy_weights.ops.items():
        assert first[op_id] is w and second[op_id] is w, op_id
        assert w.shape == CFG.op_dims(op_id) and w.params == P
    enclave = toy_weights.enclave_view()
    assert enclave.embedding is toy_weights.embedding
    for gain in [*enclave.attn_gains, *enclave.mlp_gains, enclave.final_gain]:
        assert gain.dtype == np.float64 and gain.shape == (CFG.d,)
        assert not gain.flags.writeable


class _RecordingOps(LocalWeightedOps):
    def __init__(self, ops):
        super().__init__(ops)
        self.inputs: list[tuple[int, str, bytes]] = []

    def __call__(self, op_id, x, step):
        self.inputs.append((step, op_id, x.data.tobytes()))
        return super().__call__(op_id, x, step)


def test_no_plaintext_row_outsourced_twice_in_a_step(toy_weights):
    # Several masked copies of one row under independent bases let the
    # provider solve for the row, so each step sends each distinct input once.
    from remo.model import DecoderEngine

    ops = _RecordingOps(toy_weights.provider_view())
    engine = DecoderEngine(toy_weights.enclave_view(), ops)
    engine.generate([3, 1, 4, 1, 5, 9], max_new=8)
    by_step: dict[int, list[bytes]] = {}
    for step, _, raw in ops.inputs:
        by_step.setdefault(step, []).append(raw)
    assert len(by_step) >= 6
    for step, rows in by_step.items():
        assert len(rows) == len(CFG.op_ids())
        assert len(set(rows)) == len(rows), f"step {step} sends one input to several ops"


# --- batched prefill ---------------------------------------------------------------------

# toy, the d=256 model of WIDE_GOLDEN, and one with an odd head width and three layers
PREFILL_CFGS = {
    "toy": CFG,
    "wide": ModelConfig(vocab=256, d=256, layers=2, heads=8, d_ff=1024),
    "d36": ModelConfig(vocab=64, d=36, layers=3, heads=6, d_ff=72),
}


@pytest.fixture(scope="module")
def prefill_weights():
    return {name: init_weights(cfg, seed=21) for name, cfg in PREFILL_CFGS.items()}


@settings(max_examples=24, deadline=None)
@given(data=st.data())
def test_prefill_matches_serial_decoding_bit_for_bit(prefill_weights, data):
    name = data.draw(st.sampled_from(sorted(PREFILL_CFGS)), label="config")
    cfg = PREFILL_CFGS[name]
    n = data.draw(st.integers(1, cfg.max_seq - 1), label="prompt_len")
    prompt = data.draw(st.lists(st.integers(0, cfg.vocab - 1), min_size=n, max_size=n))
    serial, batched = make_engine(prefill_weights[name]), make_engine(prefill_weights[name])
    for t in prompt:
        want = serial.decode_step(t)
    assert batched.prefill(prompt) == want
    assert batched.pos == serial.pos == n
    for layer in range(cfg.layers):
        assert len(batched.cache.view(layer)[0]) == n
        for a, b in zip(batched.cache.view(layer), serial.cache.view(layer)):
            assert a.data.tobytes() == b.data.tobytes()
    for _ in range(min(3, cfg.max_seq - n)):
        nxt = serial.decode_step(want)
        assert batched.decode_step(want) == nxt
        want = nxt


def test_prefill_sends_each_op_once_at_the_block_start(toy_weights):
    from remo.model import DecoderEngine

    ops = _RecordingOps(toy_weights.provider_view())
    engine = DecoderEngine(toy_weights.enclave_view(), ops)
    engine.decode_step(5)
    engine.prefill([3, 1, 4, 1])
    rows = {op: len(raw) // (8 * CFG.op_dims(op)[0]) for _, op, raw in ops.inputs[9:]}
    assert [(step, op) for step, op, _ in ops.inputs[9:]] == [(1, op) for op in CFG.op_ids()]
    assert rows == {op: 1 if op == "head" else 4 for op in CFG.op_ids()}
    assert engine.pos == 5


def test_prefill_overflow_is_refused_before_any_product(toy_weights):
    from remo.model import DecoderEngine

    ops = _RecordingOps(toy_weights.provider_view())
    engine = DecoderEngine(toy_weights.enclave_view(), ops)
    engine.decode_step(5)
    with pytest.raises(SessionExhausted):
        engine.prefill([1] * CFG.max_seq)
    assert len(ops.inputs) == len(CFG.op_ids()) and engine.pos == 1


def test_model_config_validation():
    with pytest.raises(BadParams):
        ModelConfig(vocab=1)
    with pytest.raises(BadParams):
        ModelConfig(d=30, heads=4)
    with pytest.raises(BadParams):
        ModelConfig(eos_id=64)
    for op_id in ("nope", "l2.wqkv", "l0.wq"):
        with pytest.raises(UnknownOp, match=op_id):
            CFG.op_dims(op_id)
