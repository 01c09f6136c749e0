"""Toy decoder-only transformer split into weighted and structural halves.

Linear projections are "weighted" ops: they multiply by provider-held
weight matrices and are the only computations that leave the enclave.
Each layer has four (the fused QKV projection by the d x 3d matrix
[Wq|Wk|Wv], since Q, K and V read the same normed row; the attention
output; MLP up and down), and the output head is one more.  Everything
else (RMSNorm, attention scores/softmax, SiLU, residuals, greedy
sampling) is "structural": computed on dequantized reals inside the
enclave and re-quantized at the boundary.  The KV cache holds the reals
attention reads: K and V are converted once, when they are appended.
`ModelWeights` holds each op matrix once, as the provider applies it
(QKV fused in `init_weights`), next to the embedding and norm gains the
enclave applies.

A prompt is fed as one block (one n-row product per op, and one
attention call in which each row reads its causal cache prefix), and
each later token as a block of one.  Attention batches the heads of a
row into stacked products whose per-head parts keep the shapes of a
row fed alone, so every float reduction still matches feeding the
tokens one at a time: a prompt fed as one block or token by token
gives bit-identical caches and tokens.  The same DecoderEngine drives
both the partitioned pipeline and the single-party reference pipeline;
they differ only in the callable that evaluates weighted ops, so any
divergence between them is a protocol bug, not a modelling artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .errors import (
    BadDims,
    BadParams,
    CacheInconsistent,
    EmptyInput,
    SessionExhausted,
    ShapeMismatch,
    TokenOutOfRange,
    UnknownOp,
)
from .ring import (
    QuantParams,
    RingMatrix,
    column_major,
    dequantize,
    quantize,
    rescale,
    ring_add,
    ring_matmul,
)

RMS_EPS = 1e-6

_LAYER_OPS = ("wqkv", "wo", "wup", "wdown")
HEAD_OP = "head"


@dataclass(frozen=True)
class ModelConfig:
    vocab: int = 64
    d: int = 32
    layers: int = 2
    heads: int = 4
    d_ff: int = 64
    max_seq: int = 128
    eos_id: int = 0
    params: QuantParams = field(default_factory=QuantParams)

    def __post_init__(self) -> None:
        if self.vocab < 2:
            raise BadParams(f"vocab must be >= 2, got {self.vocab}")
        if min(self.d, self.layers, self.heads, self.d_ff, self.max_seq) < 1:
            raise BadParams("all dims must be >= 1")
        if self.d % self.heads != 0:
            raise BadParams(f"d={self.d} must be divisible by heads={self.heads}")
        if not (0 <= self.eos_id < self.vocab):
            raise BadParams(f"eos_id {self.eos_id} is not a token id of vocab {self.vocab}")

    @property
    def d_head(self) -> int:
        return self.d // self.heads

    def op_ids(self) -> list[str]:
        ids = [f"l{i}.{name}" for i in range(self.layers) for name in _LAYER_OPS]
        ids.append(HEAD_OP)
        return ids

    def op_dims(self, op_id: str) -> tuple[int, int]:
        """(input dim, output dim) of a weighted op; UnknownOp for an id not in `op_ids`."""
        if op_id not in self.op_ids():
            raise UnknownOp(f"no weighted op {op_id!r}; the model has {self.op_ids()}")
        if op_id == HEAD_OP:
            return self.d, self.vocab
        name = op_id.split(".", 1)[-1]
        if name == "wqkv":
            return self.d, 3 * self.d
        if name == "wup":
            return self.d, self.d_ff
        if name == "wdown":
            return self.d_ff, self.d
        return self.d, self.d


@dataclass
class ModelWeights:
    """The model in the two forms it is used in: `ops` maps each op id, in
    `config.op_ids()` order, to the column-major matrix the provider
    applies (`l{i}.wqkv` fused once, in `init_weights`); the row-major
    embedding and the read-only float64 norm gains are what the enclave
    applies."""

    config: ModelConfig
    embedding: RingMatrix  # vocab x d
    ops: dict[str, RingMatrix]
    attn_gains: list[np.ndarray]  # per layer, d
    mlp_gains: list[np.ndarray]  # per layer, d
    final_gain: np.ndarray  # d

    def provider_view(self) -> dict[str, RingMatrix]:
        """The very matrices in `ops`, which the provider applies to masked inputs."""
        return dict(self.ops)

    def enclave_view(self) -> "EnclaveParams":
        """Structural parameters: embedding table and norm gains."""
        return EnclaveParams(
            self.config, self.embedding, self.attn_gains, self.mlp_gains, self.final_gain
        )


@dataclass
class EnclaveParams:
    config: ModelConfig
    embedding: RingMatrix
    attn_gains: list[np.ndarray]
    mlp_gains: list[np.ndarray]
    final_gain: np.ndarray


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Seeded uniform init: projections in +-1/sqrt(d_in), embeddings in +-1.

    Draws the embedding, then per layer Wq, Wk, Wv (stacked into the one
    d x 3d matrix [Wq|Wk|Wv]), Wo, Wup and Wdown, then the head.  Op
    matrices, only ever right operands, are stored column-major
    (`ring.column_major`); the embedding stays row-major."""
    rng = default_rng(seed)
    p, d, d_ff = config.params, config.d, config.d_ff
    b_d, b_ff = 1.0 / np.sqrt(d), 1.0 / np.sqrt(d_ff)

    def draw(rows: int, cols: int, bound: float) -> np.ndarray:
        return rng.uniform(-bound, bound, size=(rows, cols))

    def op(x: np.ndarray) -> RingMatrix:
        return column_major(quantize(x, p))

    embedding = quantize(draw(config.vocab, d, 1.0), p)
    ops = {}
    for i in range(config.layers):
        ops[f"l{i}.wqkv"] = op(np.hstack([draw(d, d, b_d) for _ in range(3)]))
        ops[f"l{i}.wo"] = op(draw(d, d, b_d))
        ops[f"l{i}.wup"] = op(draw(d, d_ff, b_d))
        ops[f"l{i}.wdown"] = op(draw(d_ff, d, b_ff))
    ops[HEAD_OP] = op(draw(d, config.vocab, b_d))
    gain = dequantize(quantize(np.ones((1, d)), p))[0]
    gain.setflags(write=False)
    return ModelWeights(
        config, embedding, ops, [gain] * config.layers, [gain] * config.layers, gain
    )


# --- structural (weight-free) ops -------------------------------------------


def embed(tokens, table: RingMatrix) -> RingMatrix:
    """Row lookup of quantized token embeddings."""
    ids = list(tokens)
    if not ids:
        raise EmptyInput("cannot embed an empty token sequence")
    for t in ids:
        if not (0 <= int(t) < table.rows):
            raise TokenOutOfRange(f"token {t} outside vocab of {table.rows}")
    return RingMatrix(table.data[np.asarray(ids, dtype=np.int64)], table.params)


def rms_norm(x: RingMatrix, gain: np.ndarray) -> RingMatrix:
    """Per-row x / sqrt(mean(x^2) + eps) * gain, re-quantized."""
    if x.rows == 0:
        raise EmptyInput("rms_norm needs at least one row")
    xd = dequantize(x)
    rms = np.sqrt(np.add.reduce(xd * xd, axis=1, keepdims=True) / x.cols + RMS_EPS)
    return quantize(xd / rms * np.asarray(gain)[None, :], x.params)


def silu(x: RingMatrix) -> RingMatrix:
    xd = dequantize(x)
    # numerically stable logistic: 1 / (1 + z) for x >= 0, z / (1 + z) below
    z = np.exp(-np.abs(xd))
    sig = np.where(xd >= 0, 1.0, z) / (1.0 + z)
    return quantize(xd * sig, x.params)


class KVCache:
    """Per-layer append-only key/value rows, confined to the enclave, held
    as the float64 reals attention reads (converted once, on append)."""

    def __init__(self, config: ModelConfig):
        self._k = [np.zeros((config.max_seq, config.d)) for _ in range(config.layers)]
        self._v = [np.zeros((config.max_seq, config.d)) for _ in range(config.layers)]
        self._len = [0] * config.layers

    def append(self, layer: int, k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        n = self._len[layer]
        end = n + len(k_rows)
        if end > len(self._k[layer]):
            raise SessionExhausted("KV cache full")
        self._k[layer][n:end] = k_rows
        self._v[layer][n:end] = v_rows
        self._len[layer] = end

    def view(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the filled key and value rows; later appends
        write past them, so a view never changes."""
        n = self._len[layer]
        keys, values = self._k[layer][:n], self._v[layer][:n]
        keys.setflags(write=False)
        values.setflags(write=False)
        return keys, values


def attention_structural(
    q: np.ndarray, keys: np.ndarray, values: np.ndarray, heads: int, position: int
) -> np.ndarray:
    """Causal scaled dot-product attention for a block of real query rows.

    Row r of `q` sits at `position + r` and attends to the key/value
    prefix [0, position + r], so keys/values must hold exactly
    `position + len(q)` rows.  Each row's scores and softmax run over its
    own prefix, as if it were fed alone; the caller quantizes the
    returned context rows.
    """
    if len(keys) != len(values):
        raise ShapeMismatch("key/value cache lengths differ")
    if len(keys) != position + len(q):
        raise CacheInconsistent(
            f"cache has {len(keys)} rows but the block is {len(q)} rows at position {position}"
        )
    n, d = q.shape
    d_head = d // heads
    qd = q.reshape(n, heads, d_head, 1)
    kd = keys.reshape(-1, heads, d_head).transpose(1, 0, 2)
    vd = values.reshape(-1, heads, d_head).transpose(1, 0, 2)
    out = np.empty((n, heads, 1, d_head))
    for r in range(n):
        end = position + r + 1
        # per head, the same BLAS matrix-vector calls as a loop over heads
        scores = np.matmul(kd[:, :end], qd[r]).reshape(heads, 1, end) / np.sqrt(d_head)
        scores -= scores.max(axis=2, keepdims=True)
        w = np.exp(scores)
        w /= w.sum(axis=2, keepdims=True)
        np.matmul(w, vd[:, :end], out=out[r])
    return out.reshape(n, d)


def argmax_token(logits: RingMatrix) -> int:
    """Greedy sample from a 1 x vocab logits row; ties go to the lowest id."""
    return int(np.argmax(logits.signed()[0]))


# --- the shared decoding pipeline -------------------------------------------


def block_rows(op_id: str, n: int) -> slice:
    """Rows of an n-token block that `op_id` is sent: all of them for a
    layer op, the last one for `head`, whose logits pick the next token."""
    return slice(n - 1, n) if op_id == HEAD_OP else slice(0, n)


class DecoderEngine:
    """Decoder over blocks of consecutive positions.

    `weighted(op_id, x, step)` supplies every weight-matrix product at raw
    scale 2f and is the single point where the partitioned and reference
    pipelines differ.  `prefill` feeds a block of tokens with one call per
    op at step = the block's first position, on the rows `block_rows`
    picks; `decode_step` is a block of one token.
    """

    def __init__(self, params: EnclaveParams, weighted):
        self.p = params
        self.cfg = params.config
        self.weighted = weighted
        self.cache = KVCache(self.cfg)
        self.pos = 0

    def _project(self, op_id: str, x: RingMatrix) -> RingMatrix:
        return rescale(self.weighted(op_id, x, self.pos))

    def decode_step(self, token: int) -> int:
        """Feed one token at the next position, return the greedy next token."""
        return self.prefill([token])

    def prefill(self, tokens) -> int:
        """Feed a block of tokens at the next positions, return the greedy next token.

        Each op is one weighted call at step = the block's first
        position, on the rows `block_rows` picks.  One attention call
        covers the block, each row over the cache prefix up to its own
        position, so every float reduction matches feeding the tokens one
        at a time, bit for bit.  `pos` advances only after the block, so
        it is the step of every call.
        """
        tokens = list(tokens)
        start, n = self.pos, len(tokens)
        if start + n > self.cfg.max_seq:
            raise SessionExhausted(
                f"{n} tokens at position {start} overflow max_seq={self.cfg.max_seq}"
            )
        h = embed(tokens, self.p.embedding)
        for i in range(self.cfg.layers):
            xn = rms_norm(h, self.p.attn_gains[i])
            q, k, v = np.split(dequantize(self._project(f"l{i}.wqkv", xn)), 3, axis=1)
            self.cache.append(i, k, v)
            keys, values = self.cache.view(i)
            attn = quantize(attention_structural(q, keys, values, self.cfg.heads, start), h.params)
            h = ring_add(h, self._project(f"l{i}.wo", attn))
            xn = rms_norm(h, self.p.mlp_gains[i])
            up = silu(self._project(f"l{i}.wup", xn))
            h = ring_add(h, self._project(f"l{i}.wdown", up))
        last = RingMatrix(h.data[block_rows(HEAD_OP, n)], h.params)
        logits = self._project(HEAD_OP, rms_norm(last, self.p.final_gain))
        self.pos += n
        return argmax_token(logits)

    def generate(self, prompt, max_new: int) -> list[int]:
        """Prefill the prompt as one block, then decode until EOS or max_new tokens.

        Returns only the response (EOS included when it terminates
        generation).  Every produced token except the last is fed back,
        so the prompt must leave at least one free position.
        """
        prompt = [int(t) for t in prompt]
        if not prompt:
            raise EmptyInput("prompt must be nonempty")
        if isinstance(max_new, bool) or not isinstance(max_new, (int, np.integer)):
            raise BadDims(f"max_new must be an int, got {max_new!r}")
        if max_new < 0:
            raise BadDims(f"max_new must be >= 0, got {max_new}")
        if max_new == 0:
            return []
        if len(prompt) >= self.cfg.max_seq:
            raise SessionExhausted(
                f"prompt of {len(prompt)} tokens leaves no room to decode (max_seq={self.cfg.max_seq})"
            )
        out = [self.prefill(prompt)]
        while len(out) < max_new and out[-1] != self.cfg.eos_id:
            out.append(self.decode_step(out[-1]))
        return out


class LocalWeightedOps:
    """Single-party baseline: the identical ring products, no masking."""

    def __init__(self, ops: dict[str, RingMatrix]):
        self.ops = ops

    def __call__(self, op_id: str, x: RingMatrix, step: int) -> RingMatrix:
        return ring_matmul(x, self.ops[op_id])


def reference_generate(weights: ModelWeights, prompt, max_new: int) -> list[int]:
    """Unpartitioned pipeline: same ring arithmetic, same sampler, one party."""
    engine = DecoderEngine(weights.enclave_view(), LocalWeightedOps(weights.provider_view()))
    return engine.generate(prompt, max_new)
