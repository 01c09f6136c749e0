"""PRG determinism/uniformity and the hybrid masking contracts."""

import dataclasses
import hashlib

import numpy as np
import pytest
from conftest import full_base
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from remo import Enclave, InProcTransport, ModelConfig, ProviderState, init_weights
from remo.errors import BadDims, ShapeMismatch
from remo.masking import (
    MaskBase,
    MaskIssuer,
    derive_step_mask,
    mask_embedding,
    recover,
)
from remo.prg import PrgKey
from remo.protocol import ErrorReply, MatMulReply, MatMulRequest, PoolReply, SetupBase
from remo.ring import QuantParams, RingMatrix, ring_kernel, ring_matmul, zeros

P = QuantParams()


# --- PRG --------------------------------------------------------------------


def test_prg_identical_labels_identical_stream():
    key = PrgKey.from_int(7)
    assert key.bytes_for(64, "a", 1) == key.bytes_for(64, "a", 1)


def test_prg_distinct_labels_distinct_streams():
    key = PrgKey.from_int(7)
    assert key.bytes_for(64, "a", 1) != key.bytes_for(64, "a", 2)
    assert key.bytes_for(64, "a") != key.bytes_for(64, "b")
    # label boundaries must not be forgeable by concatenation
    assert key.bytes_for(64, "ab") != key.bytes_for(64, "a", "b")


def test_prg_child_independent():
    key = PrgKey.from_int(7)
    assert key.child("x").bytes_for(32) != key.child("y").bytes_for(32)
    assert key.child("x").seed != key.seed


def test_prg_low_byte_uniformity_chi_square():
    # 10^5 samples of the low 8 bits at alpha=0.01
    key = PrgKey.from_int(2024)
    vals = key.ring_elements(100_000, "uniformity-test")
    counts = np.bincount((vals & np.uint64(0xFF)).astype(np.int64), minlength=256)
    expected = len(vals) / 256
    stat = float(np.sum((counts - expected) ** 2) / expected)
    assert stat <= chi2.ppf(0.99, 255)


# --- public base issue --------------------------------------------------------


def test_gen_public_base_deterministic_and_full_rank():
    issuer = MaskIssuer(PrgKey.from_int(11), P)
    r = issuer.gen_public_base("q0", m=2, d=4)
    again = MaskIssuer(PrgKey.from_int(11), P).gen_public_base("q0", m=2, d=4)
    assert r == again and r.shape == (2, 2)
    assert r != issuer.gen_public_base("q1", m=2, d=4)
    assert ring_kernel(full_base(r))[0] == 2


def test_gen_public_base_bad_dims():
    issuer = MaskIssuer(PrgKey.from_int(11), P)
    with pytest.raises(BadDims):
        issuer.gen_public_base("q1", m=4, d=4)


# sha256 of every op's R and of every pool, in op order.  Both changed
# when bases became systematic: R is drawn under ("public-base", op id)
# with no rank-check retry, and the pool is W[:m] + R @ W[m:].
_PINNED_SETUP = {
    "toy": (ModelConfig(), 1234, 99, (
        "06d75a76e4b2e3f39c96418731bc568b8558ae032db14e02dfd59985a771c355",
        "6647488fbd8a2dee739de294adc003bb0544b48d103fd33187e22a51821475ff",
    )),
    "odd-width": (ModelConfig(vocab=40, d=36, heads=4, d_ff=44), 7, 5, (
        "3057b3faa1a8187f91953a523fe8f91f6da9c30bceb85aeb469267375e6cee1c",
        "a989bd6476c7fd1be25c1e6721853dcc689c989b6588f0e9d53af1f489754873",
    )),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SETUP))
def test_setup_bases_and_pools_pinned(name):
    cfg, weight_seed, enclave_seed, pinned = _PINNED_SETUP[name]
    weights = init_weights(cfg, seed=weight_seed)
    enclave = Enclave(weights.enclave_view(), master_seed=enclave_seed)
    enclave.setup(InProcTransport(ProviderState(weights.provider_view(), cfg.params)))
    bases, pools = hashlib.sha256(), hashlib.sha256()
    for op_id in cfg.op_ids():
        bases.update(enclave.bases[op_id].r.data.tobytes())
        pools.update(enclave.bases[op_id].pool.data.tobytes())
    assert (bases.hexdigest(), pools.hexdigest()) == pinned


def test_wqkv_pool_is_the_column_concatenation(toy_weights):
    # the provider's fused pool is base@Wq | base@Wk | base@Wv
    enclave = Enclave(toy_weights.enclave_view(), master_seed=3)
    enclave.setup(InProcTransport(ProviderState(toy_weights.provider_view(), P)))
    for i in range(toy_weights.config.layers):
        base = enclave.bases[f"l{i}.wqkv"]
        blocks = np.split(toy_weights.ops[f"l{i}.wqkv"].data, 3, axis=1)
        parts = [ring_matmul(base.public_base, RingMatrix(w, P)).data for w in blocks]
        assert np.array_equal(base.pool.data, np.concatenate(parts, axis=1))


# --- a base is born with its pool ---------------------------------------------


def test_mask_base_is_frozen_with_dims_from_its_base():
    r = MaskIssuer(PrgKey.from_int(12), P).gen_public_base("w", m=2, d=4)
    base = MaskBase(r, zeros(2, 3, P))
    assert (base.m, base.d) == (2, 4)
    assert base.public_base == full_base(r)
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.pool = zeros(2, 3, P)


class _BadPool:
    """Transport that answers one op's setup with a pool that does not fit its base."""

    def __init__(self, inner, op_id: str, fault: str):
        self.inner, self.op_id, self.fault = inner, op_id, fault

    def request(self, msg):
        reply = self.inner.request(msg)
        if isinstance(reply, PoolReply) and reply.op_id == self.op_id:
            data = reply.pool.data
            pool = RingMatrix(data[1:], P) if self.fault == "rows" else RingMatrix(data, QuantParams(f=8))
            return PoolReply(reply.op_id, pool)
        return reply


@pytest.mark.parametrize("fault", ["rows", "params"])
def test_setup_refuses_a_pool_that_does_not_fit_its_base(toy_weights, fault):
    enclave = Enclave(toy_weights.enclave_view(), master_seed=3)
    provider = ProviderState(toy_weights.provider_view(), P)
    with pytest.raises(ShapeMismatch, match="l0.wo"):
        enclave.setup(_BadPool(InProcTransport(provider), "l0.wo", fault))
    assert list(enclave.bases) == ["l0.wqkv"]  # the ops before it keep their pools


# --- per-step private mixing ------------------------------------------------------


def test_step_mask_deterministic():
    key = PrgKey.from_int(21)
    a = derive_step_mask(key, 3, "q0", 2, 4, P)
    b = derive_step_mask(key, 3, "q0", 2, 4, P)
    assert a == b


def test_step_mask_steps_differ():
    key = PrgKey.from_int(21)
    a = derive_step_mask(key, 3, "q0", 2, 4, P)
    b = derive_step_mask(key, 4, "q0", 2, 4, P)
    assert a != b


def test_step_mask_ops_differ_within_step():
    key = PrgKey.from_int(21)
    assert derive_step_mask(key, 3, "q0", 2, 4, P) != derive_step_mask(key, 3, "k0", 2, 4, P)


def test_step_mask_no_collisions_1000_pairs():
    key = PrgKey.from_int(22)
    seen = set()
    for step in range(1000):
        m = derive_step_mask(key, step, "q0", 1, 8, P)
        blob = m.data.tobytes()
        assert blob not in seen
        seen.add(blob)


def test_step_mask_uniformity():
    key = PrgKey.from_int(23)
    vals = np.concatenate(
        [derive_step_mask(key, s, "q0", 1, 100, P).data.ravel() for s in range(1000)]
    )
    counts = np.bincount((vals & np.uint64(0xFF)).astype(np.int64), minlength=256)
    expected = len(vals) / 256
    stat = float(np.sum((counts - expected) ** 2) / expected)
    assert stat <= chi2.ppf(0.99, 255)


# --- mask / recover ------------------------------------------------------------------


def test_mask_with_zero_mixing_is_identity():
    e = RingMatrix.from_ints([[10, 20, 30]], P)
    r = RingMatrix.from_ints([[1], [2]], P)
    assert mask_embedding(e, zeros(1, 2, P), r) == e


def test_mask_hand_example():
    # integer semantics: E=[[1,2]], M_pvt=[[5]], M_pub=[[1,1]] (R=[[1]]) -> E_hat=[[6,7]]
    e = RingMatrix.from_ints([[1, 2]], P)
    m_pvt = RingMatrix.from_ints([[5]], P)
    r = RingMatrix.from_ints([[1]], P)
    assert mask_embedding(e, m_pvt, r).to_ints() == [[6, 7]]


def test_recover_with_zero_mixing_is_identity():
    o_hat = RingMatrix.from_ints([[42, 7]], P)
    r_pub = RingMatrix.from_ints([[1, 1], [2, 2]], P)
    assert recover(o_hat, zeros(1, 2, P), r_pub) == o_hat


def test_recover_hand_example():
    # E=[[1,2]], W=[[3],[4]], M_pvt=[[5]], M_pub=[[1,1]] (R=[[1]]):
    # E_hat=[[6,7]], O_hat=[[46]], R_pub=[[7]], O = 46 - 5*7 = [[11]] = EW
    e = RingMatrix.from_ints([[1, 2]], P)
    w = RingMatrix.from_ints([[3], [4]], P)
    m_pvt = RingMatrix.from_ints([[5]], P)
    m_pub = RingMatrix.from_ints([[1, 1]], P)
    e_hat = mask_embedding(e, m_pvt, RingMatrix.from_ints([[1]], P))
    assert e_hat.to_ints() == [[6, 7]]
    o_hat = ring_matmul(e_hat, w)
    assert o_hat.to_ints() == [[46]]
    r_pub = ring_matmul(m_pub, w)
    assert r_pub.to_ints() == [[7]]
    got = recover(o_hat, m_pvt, r_pub)
    assert got.to_ints() == [[11]]
    assert got == ring_matmul(e, w)


def test_mask_then_recover_property_1000_trials():
    rng = np.random.default_rng(9)
    key = PrgKey.from_int(31)
    for trial in range(1000):
        n, m, rest, dout = (int(v) for v in rng.integers(1, 7, 4))
        d = m + rest
        e = RingMatrix.from_ints(rng.integers(0, 2**63, (n, d)).tolist(), P)
        w = RingMatrix.from_ints(rng.integers(0, 2**63, (d, dout)).tolist(), P)
        r = key.ring_matrix(m, rest, P, "pub", trial)
        m_pub = full_base(r)
        m_pvt = derive_step_mask(key, trial, "op", n, m, P)
        e_hat = mask_embedding(e, m_pvt, r)
        o_hat = ring_matmul(e_hat, w)
        r_pub = ring_matmul(m_pub, w)
        assert recover(o_hat, m_pvt, r_pub) == ring_matmul(e, w)


def test_mask_shape_errors():
    e = RingMatrix.from_ints([[1, 2]], P)
    with pytest.raises(ShapeMismatch):
        mask_embedding(e, zeros(1, 2, P), zeros(3, 2, P))
    with pytest.raises(ShapeMismatch):
        recover(e, zeros(1, 2, P), zeros(3, 2, P))


# --- the systematic form [I_m | R], property by property -------------------------------

_SHAPES = st.integers(2, 12).flatmap(
    lambda d: st.tuples(st.integers(1, d - 1), st.just(d), st.integers(1, 4), st.integers(1, 4))
)


def _draw(seed: int, rows: int, cols: int) -> RingMatrix:
    return RingMatrix(np.random.default_rng(seed).integers(0, 2**64, (rows, cols), dtype=np.uint64), P)


@given(_SHAPES, st.integers(0, 2**32))
@example((1, 2, 1, 1), 0)
@example((1, 12, 4, 4), 1)
@example((11, 12, 3, 2), 2)
@settings(max_examples=200, deadline=None)
def test_systematic_mask_is_the_full_base_product(shape, seed):
    m, d, n, _ = shape
    e, m_pvt, r = _draw(seed, n, d), _draw(seed + 1, n, m), _draw(seed + 2, m, d - m)
    old = RingMatrix(e.data + ring_matmul(m_pvt, full_base(r)).data, P)
    assert mask_embedding(e, m_pvt, r) == old


@given(_SHAPES, st.integers(0, 2**32))
@example((1, 2, 1, 1), 0)
@example((11, 12, 4, 3), 1)
@settings(max_examples=100, deadline=None)
def test_recover_of_the_providers_reply_is_the_plain_product(shape, seed):
    m, d, n, d_out = shape
    w, e, r = _draw(seed, d, d_out), _draw(seed + 1, n, d), _draw(seed + 2, m, d - m)
    provider = ProviderState({"op": w}, P)
    pool = provider.handle(SetupBase("op", r))
    assert isinstance(pool, PoolReply) and pool.pool == ring_matmul(full_base(r), w)
    m_pvt = _draw(seed + 3, n, m)
    reply = provider.handle(MatMulRequest(1, 0, "op", mask_embedding(e, m_pvt, r)))
    assert isinstance(reply, MatMulReply)
    assert recover(reply.product, m_pvt, pool.pool) == ring_matmul(e, w)


@given(_SHAPES, st.integers(0, 2**32))
@example((1, 2, 1, 1), 0)
@example((11, 12, 1, 1), 1)
@settings(max_examples=100, deadline=None)
def test_kernel_of_the_systematic_base_is_minus_r_over_identity(shape, seed):
    m, d, _, _ = shape
    r = _draw(seed, m, d - m)
    rank, kernel = ring_kernel(full_base(r))
    minus_r = np.uint64(0) - r.data
    assert rank == m
    assert kernel == RingMatrix(np.vstack([minus_r, np.eye(d - m, dtype=np.uint64)]), P)


@given(st.integers(1, 12), st.integers(0, 13), st.integers(0, 13), st.booleans())
@example(4, 4, 0, False)
@example(4, 0, 4, False)
@example(4, 2, 2, True)
@settings(max_examples=200, deadline=None)
def test_provider_refuses_a_malformed_r(d, rows, cols, other_f):
    if rows >= 1 and cols >= 1 and rows + cols == d and not other_f:
        return  # well formed
    provider = ProviderState({"op": _draw(0, d, 2)}, P)
    r = RingMatrix(np.ones((rows, cols), dtype=np.uint64), QuantParams(f=8) if other_f else P)
    reply = provider.handle(SetupBase("op", r))
    assert isinstance(reply, ErrorReply) and reply.code in ("ShapeMismatch", "BadDims")
    assert provider.issued == set()
