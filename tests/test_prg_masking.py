"""PRG determinism/uniformity and the hybrid masking contracts."""

import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from remo import Enclave, InProcTransport, ModelConfig, ProviderState, init_weights
from remo.errors import BadDims, RemoError, ShapeMismatch
from remo.masking import (
    MaskBase,
    MaskIssuer,
    _full_row_rank,
    _gf2_row_rank,
    derive_step_mask,
    mask_embedding,
    recover,
)
from remo.prg import PrgKey
from remo.protocol import PoolReply
from remo.ring import QuantParams, RingMatrix, ring_kernel, ring_matmul, zeros

P = QuantParams()


def rational_row_rank(matrix: RingMatrix) -> int:
    """Independent oracle: exact row reduction on dequantized rationals."""
    rows = [
        [Fraction(int(v), 1 << matrix.params.f) for v in row] for row in matrix.signed()
    ]
    rank = 0
    n_cols = len(rows[0])
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
    return rank


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
    base = issuer.gen_public_base("q0", m=2, d=4)
    again = MaskIssuer(PrgKey.from_int(11), P).gen_public_base("q0", m=2, d=4)
    assert base == again
    assert rational_row_rank(base) == 2


def test_gen_public_base_bad_dims():
    issuer = MaskIssuer(PrgKey.from_int(11), P)
    with pytest.raises(BadDims):
        issuer.gen_public_base("q1", m=4, d=4)


def test_gen_public_base_rank_at_larger_shapes():
    issuer = MaskIssuer(PrgKey.from_int(5), P)
    for op, (m, d) in {"a": (16, 32), "b": (32, 64)}.items():
        base = issuer.gen_public_base(op, m=m, d=d)
        assert rational_row_rank(base) == m


def bitwise_full_row_rank(matrix: RingMatrix) -> bool:
    """The rank check with rows packed one element at a time."""
    rows = []
    for r in matrix.data:
        bits = 0
        for v in r:
            bits = (bits << 1) | (int(v) & 1)
        rows.append(bits)
    return _gf2_row_rank(rows) == matrix.rows


def test_full_row_rank_matches_bitwise_packing():
    rng = np.random.default_rng(8)
    verdicts = []
    for _ in range(300):
        d = int(rng.integers(1, 40))
        m = max(1, d + int(rng.integers(-2, 2)))
        matrix = RingMatrix(rng.integers(0, 2**64, (m, d), dtype=np.uint64), P)
        verdicts.append(_full_row_rank(matrix))
        assert verdicts[-1] == bitwise_full_row_rank(matrix)
        try:
            ring_full = ring_kernel(matrix)[0] == m
        except RemoError:  # left a non-zero row: needs an even pivot
            ring_full = False
        assert ring_full == verdicts[-1]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("d", [7, 8, 36, 1024])
def test_full_row_rank_rejects_deficient_rows(d):
    rng = np.random.default_rng(d)
    data = rng.integers(0, 2**64, (max(2, d // 2), d), dtype=np.uint64)
    assert _full_row_rank(RingMatrix(data, P)) == bitwise_full_row_rank(RingMatrix(data, P))
    repeated = data.copy()
    repeated[-1] = repeated[0]
    all_even = data.copy()
    all_even[1] &= np.uint64(2**64 - 2)
    for matrix in (RingMatrix(repeated, P), RingMatrix(all_even, P)):
        assert not _full_row_rank(matrix)
        assert not bitwise_full_row_rank(matrix)


# sha256 of the public bases and of the pools, in op order, of two op
# groups.  Bases are drawn under their op id, so the ops that kept their id
# when Q/K/V were fused (wo, wup, wdown, head) keep the digests the
# one-element-at-a-time rank packing issued them; only the fused wqkv
# group is pinned from the fused model.
_KEPT_OPS = ("wo", "wup", "wdown", "head")
_PINNED_SETUP = {
    "toy": (
        ModelConfig(), 1234, 99,
        {
            "kept": (
                "8e6c444039f27b387028daa8f79a3dd99c55fe019ec0c0c90a861f59de184ffe",
                "84626925795f4ef017d5daec9d79dd088ce4716fb45982566d3d4133d63b0456",
            ),
            "wqkv": (
                "537a8187e619abe9e5c65347964ec5ee4512689e52a56c50b17b2d3eb7a9543e",
                "0f3c296cb5137b76871ee912bebbcbb9fcce358850b053112297f8cdb6353af8",
            ),
        },
    ),
    "odd-width": (
        ModelConfig(vocab=40, d=36, heads=4, d_ff=44), 7, 5,
        {
            "kept": (
                "ca7331b17b2978eb351e426210d210fbbce2e311757e6dfeff03fba0698771d7",
                "bf9d657573c592a497a69983a0417117121b0d50004d45cb2534dca2fb68f3c3",
            ),
            "wqkv": (
                "b3e52a4d2647d6a968de9b4f14d7c27d1d08c2990ceeb4e884729e13c38cd89e",
                "fab51b8627dae7265a6c67905097d9f56459eb97a410c7d03fa3e1a9601cf463",
            ),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SETUP))
def test_setup_bases_and_pools_pinned(name):
    cfg, weight_seed, enclave_seed, pinned = _PINNED_SETUP[name]
    weights = init_weights(cfg, seed=weight_seed)
    enclave = Enclave(weights.enclave_view(), master_seed=enclave_seed)
    enclave.setup(InProcTransport(ProviderState(weights.provider_view(), cfg.params)))
    groups = {
        "kept": [op for op in cfg.op_ids() if op.split(".")[-1] in _KEPT_OPS],
        "wqkv": [op for op in cfg.op_ids() if op.endswith(".wqkv")],
    }
    assert sorted(groups["kept"] + groups["wqkv"]) == sorted(cfg.op_ids())
    for group, ops in groups.items():
        bases, pools = hashlib.sha256(), hashlib.sha256()
        for op_id in ops:
            bases.update(enclave.bases[op_id].public_base.data.tobytes())
            pools.update(enclave.bases[op_id].pool.data.tobytes())
        assert (bases.hexdigest(), pools.hexdigest()) == pinned[group], group


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
    public_base = MaskIssuer(PrgKey.from_int(12), P).gen_public_base("w", m=2, d=4)
    base = MaskBase(public_base, zeros(2, 3, P))
    assert (base.m, base.d) == (2, 4)
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
    m_pub = RingMatrix.from_ints([[1, 1, 1], [2, 2, 2]], P)
    assert mask_embedding(e, zeros(1, 2, P), m_pub) == e


def test_mask_hand_example():
    # integer semantics: E=[[1,2]], M_pvt=[[5]], M_pub=[[1,1]] -> E_hat=[[6,7]]
    e = RingMatrix.from_ints([[1, 2]], P)
    m_pvt = RingMatrix.from_ints([[5]], P)
    m_pub = RingMatrix.from_ints([[1, 1]], P)
    assert mask_embedding(e, m_pvt, m_pub).to_ints() == [[6, 7]]


def test_recover_with_zero_mixing_is_identity():
    o_hat = RingMatrix.from_ints([[42, 7]], P)
    r_pub = RingMatrix.from_ints([[1, 1], [2, 2]], P)
    assert recover(o_hat, zeros(1, 2, P), r_pub) == o_hat


def test_recover_hand_example():
    # E=[[1,2]], W=[[3],[4]], M_pvt=[[5]], M_pub=[[1,1]]:
    # E_hat=[[6,7]], O_hat=[[46]], R_pub=[[7]], O = 46 - 5*7 = [[11]] = EW
    e = RingMatrix.from_ints([[1, 2]], P)
    w = RingMatrix.from_ints([[3], [4]], P)
    m_pvt = RingMatrix.from_ints([[5]], P)
    m_pub = RingMatrix.from_ints([[1, 1]], P)
    e_hat = mask_embedding(e, m_pvt, m_pub)
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
        n, m, d, dout = (int(v) for v in rng.integers(1, 7, 4))
        e = RingMatrix.from_ints(rng.integers(0, 2**63, (n, d)).tolist(), P)
        w = RingMatrix.from_ints(rng.integers(0, 2**63, (d, dout)).tolist(), P)
        m_pub = key.ring_matrix(m, d, P, "pub", trial)
        m_pvt = derive_step_mask(key, trial, "op", n, m, P)
        e_hat = mask_embedding(e, m_pvt, m_pub)
        o_hat = ring_matmul(e_hat, w)
        r_pub = ring_matmul(m_pub, w)
        assert recover(o_hat, m_pvt, r_pub) == ring_matmul(e, w)


def test_mask_shape_errors():
    e = RingMatrix.from_ints([[1, 2]], P)
    with pytest.raises(ShapeMismatch):
        mask_embedding(e, zeros(1, 2, P), zeros(3, 2, P))
    with pytest.raises(ShapeMismatch):
        recover(e, zeros(1, 2, P), zeros(3, 2, P))
