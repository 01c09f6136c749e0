"""Distinguishing-game bounds, exact TV geometry, kernel and stacking analyses."""

import numpy as np
import pytest
from conftest import full_base, slow_matmul

from remo.attack import make_corpus
from remo.errors import BadParams, DimTooLarge, ShapeMismatch, TrivialKernel
from remo.masking import MaskIssuer
from remo.model import DecoderEngine, LocalWeightedOps
from remo.prg import PrgKey
from remo.privacy import (
    GameConfig,
    enumerate_consistent_weights,
    forge_sketch,
    residual_inf,
    run_distinguishing_game,
    stacking_attack_demo,
    tv_bound,
    tv_box_closed_form,
    tv_exact_small,
)
from remo.protocol import (
    Enclave,
    ErrorReply,
    InProcTransport,
    MatMulReply,
    MatMulRequest,
    PoolReply,
    ProviderState,
    RecordingTransport,
    SetupBase,
    Transcript,
)
from remo.ring import QuantParams, RingMatrix, quantize, ring_kernel, ring_matmul, ring_solve

P = QuantParams()


# --- analytic bound ---------------------------------------------------------


def test_tv_bound_equal_inputs():
    assert tv_bound([1.0, 2.0], [1.0, 2.0], 5.0) == 0.5


def test_tv_bound_saturates():
    assert tv_bound([0.0], [10.0], 10.0) == 1.0
    assert tv_bound([0.0], [25.0], 10.0) == 1.0


def test_tv_bound_scalar_formula():
    assert tv_bound([0.0], [1.0], 10.0) == pytest.approx(0.55)


# --- closed form and grid integration -----------------------------------------


def test_tv_closed_form_zero_delta():
    assert tv_box_closed_form([0.0, 0.0], 1.0) == 0.0


def test_tv_closed_form_half_lambda_scalar():
    assert tv_box_closed_form([0.5], 1.0) == pytest.approx(0.5)


def test_tv_closed_form_two_dim_product():
    # 1 - (1/2)(1/2) = 0.75, strictly below the l1 bound min(1, 1) = 1
    got = tv_box_closed_form([0.5, 0.5], 1.0)
    assert got == pytest.approx(0.75)
    assert got <= min(1.0, 1.0)


def test_tv_grid_matches_closed_form():
    for delta in ([0.0], [0.5], [0.9], [1.5]):
        grid = tv_exact_small([0.0] * len(delta), delta, 1.0, grid=801)
        assert grid == pytest.approx(tv_box_closed_form(delta, 1.0), abs=0.01)
    grid2 = tv_exact_small([0.0, 0.0], [0.5, 0.5], 1.0, grid=401)
    assert grid2 == pytest.approx(0.75, abs=0.01)


def test_tv_grid_dim_cap():
    with pytest.raises(DimTooLarge):
        tv_exact_small([0.0] * 4, [1.0] * 4, 1.0)


# --- the game itself --------------------------------------------------------------


def test_game_indistinguishable_when_equal():
    rep = run_distinguishing_game(GameConfig(e1=[2.0], e2=[2.0], lam=4.0, trials=200_000, seed=1))
    assert abs(rep.empirical - 0.5) <= 3 * rep.stderr
    assert rep.passed


def test_game_disjoint_supports_always_win():
    rep = run_distinguishing_game(GameConfig(e1=[0.0], e2=[3.0], lam=2.0, trials=50_000, seed=2))
    assert rep.empirical == pytest.approx(1.0)
    assert rep.bound == 1.0 and rep.passed


def test_game_scalar_tenth_ratio_hits_055():
    rep = run_distinguishing_game(GameConfig(e1=[0.0], e2=[1.0], lam=10.0, trials=200_000, seed=3))
    sigma = np.sqrt(0.55 * 0.45 / rep.trials)
    assert abs(rep.empirical - 0.55) <= 3 * sigma
    assert rep.passed


def test_game_one_dim_equality_of_bound():
    # in 1-D the bound is tight: empirical - 1/2 ~ |delta| / (2 lam)
    for delta, lam in ((0.5, 2.0), (1.0, 4.0), (3.0, 5.0)):
        rep = run_distinguishing_game(
            GameConfig(e1=[0.0], e2=[delta], lam=lam, trials=200_000, seed=int(delta * 10))
        )
        want = 0.5 + 0.5 * delta / lam
        assert abs(rep.empirical - want) <= 4 * rep.stderr


def test_game_multidim_stays_under_l1_bound():
    # exact TV 0.75 < l1 bound 1.0: the bound has real slack in 2-D
    rep = run_distinguishing_game(
        GameConfig(e1=[0.0, 0.0], e2=[0.5, 0.5], lam=1.0, trials=200_000, seed=5)
    )
    want = 0.5 + 0.5 * rep.exact_tv
    assert abs(rep.empirical - want) <= 4 * rep.stderr
    assert rep.empirical <= rep.bound  # bound = 1.0 here
    assert rep.exact_tv == pytest.approx(0.75)


def test_game_validation():
    with pytest.raises(BadParams):
        GameConfig(e1=[0.0], e2=[1.0], lam=0.0)
    with pytest.raises(ShapeMismatch):
        GameConfig(e1=[0.0], e2=[1.0, 2.0], lam=1.0)


# --- kernel analysis ------------------------------------------------------------------


def unit(rows) -> RingMatrix:
    return RingMatrix.from_ints(rows, P)


def test_kernel_canonical_rows():
    rank, kernel = ring_kernel(unit([[1, 0, 0], [0, 1, 0]]))
    assert rank == 2
    assert kernel.cols == 1
    assert kernel.to_ints() == [[0], [0], [1]]


def test_kernel_zero_matrix():
    rank, kernel = ring_kernel(RingMatrix(np.zeros((2, 5), dtype=np.uint64), P))
    assert rank == 0 and kernel.cols == 5
    assert kernel == unit(np.eye(5, dtype=int))


def test_kernel_random_full_row_rank():
    issuer = MaskIssuer(PrgKey.from_int(77), P)
    base = full_base(issuer.gen_public_base("op", m=6, d=11))
    rank, kernel = ring_kernel(base)
    assert rank == 6
    assert kernel.cols == 11 - 6
    # independent checks: an identity minor gives rank 6 over any ring, the
    # basis annihilates in Python ints, and its rows at the free columns
    # are the identity
    assert [row[:6] for row in base.to_ints()] == np.eye(6, dtype=int).tolist()
    n = kernel.to_ints()
    assert slow_matmul(base.to_ints(), n) == [[0] * 5 for _ in range(6)]
    free = [i for i, row in enumerate(n) if sorted(row) == [0, 0, 0, 0, 1]]
    assert [n[i] for i in free] == np.eye(5, dtype=int).tolist()


# --- consistent weight enumeration -----------------------------------------------------


def test_consistent_weights_canonical_identity():
    m_pub = unit([[1, 0, 0], [0, 1, 0]])
    w = unit(np.eye(3, dtype=int))
    r_pub = ring_matmul(m_pub, w)
    candidates = enumerate_consistent_weights(m_pub, r_pub, count=5)
    w0, _ = ring_solve(m_pub, r_pub)
    assert len(set(candidates)) == 5
    for cand in candidates:
        assert residual_inf(m_pub, cand, r_pub) == 0.0
        # kernel is span(e3): candidates may differ from W0 only in row 3
        assert np.array_equal(cand.data[:2], w0.data[:2])
        assert not np.array_equal(cand.data[2], w0.data[2])


def test_consistent_weights_random_distinct():
    issuer = MaskIssuer(PrgKey.from_int(78), P)
    base = full_base(issuer.gen_public_base("op", m=4, d=8))
    rng = np.random.default_rng(0)
    w = RingMatrix.from_ints(rng.integers(0, 2**63, (8, 3)).tolist(), P)
    r_pub = ring_matmul(base, w)
    candidates = enumerate_consistent_weights(base, r_pub, count=10)
    assert len(candidates) == 10
    assert len(set(candidates)) == 10
    assert ring_solve(base, r_pub)[0] not in candidates  # zero perturbation is rejected
    for cand in candidates:
        assert residual_inf(base, cand, r_pub) == 0.0
        assert slow_matmul(base.to_ints(), cand.to_ints()) == r_pub.to_ints()


def test_consistent_weights_trivial_kernel():
    m_pub = unit(np.eye(3, dtype=int))
    r_pub = ring_matmul(m_pub, unit(np.eye(3, dtype=int)))
    with pytest.raises(TrivialKernel):
        enumerate_consistent_weights(m_pub, r_pub, count=1)


# --- the subspace leak (masking docstring, "Limit") ------------------------------------


def test_kernel_projection_of_masked_rows_is_the_raw_projection(toy_weights):
    """masked @ N == raw @ N for the ring kernel N of every issued base, and at
    layer 0 one projection already identifies the fed token."""
    transcript = Transcript()
    provider = ProviderState(toy_weights.provider_view(), P)
    transport = RecordingTransport(InProcTransport(provider), transcript)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=3, mask_ratio=0.5)
    local = LocalWeightedOps(toy_weights.provider_view())
    requests, raw, fed = [], {}, {}
    for pi, prompt in enumerate(make_corpus(10, 8, 64, seed=13)):
        start = len(transcript.entries)
        response = enclave.run_session(transport, prompt, 4)
        requests += [
            (pi, e.message) for e in transcript.entries[start:] if isinstance(e.message, MatMulRequest)
        ]

        def recording(op, x, step, pi=pi):
            raw[pi, step, op] = x
            return local(op, x, step)

        assert DecoderEngine(toy_weights.enclave_view(), recording).generate(prompt, 4) == response
        fed.update({(pi, step): t for step, t in enumerate(list(prompt) + response[:-1])})
    kernels = {
        e.message.op_id: ring_kernel(full_base(e.message.r))[1]
        for e in transcript.entries
        if isinstance(e.message, SetupBase)
    }
    assert set(kernels) == set(toy_weights.config.op_ids())
    pairs = set()
    rows: dict[str, int] = {}
    for pi, msg in requests:
        n = kernels[msg.op_id]
        assert n.cols == msg.masked.cols // 2
        projected = ring_matmul(msg.masked, n)
        assert projected == ring_matmul(raw[pi, msg.step, msg.op_id], n)
        rows[msg.op_id] = rows.get(msg.op_id, 0) + msg.masked.rows
        if msg.op_id == "l0.wqkv":
            pairs.update(
                (fed[pi, msg.step + r], int(v)) for r, v in enumerate(projected.data[:, 0])
            )
    # per prompt: one 8-row prefill request per op (1 row for head), then 3 decode steps
    assert len(requests) == 40 * len(kernels)
    assert rows == {op: 40 if op == "head" else 110 for op in kernels}
    tokens = {t for t, _ in pairs}
    assert len(tokens) == len({v for _, v in pairs}) == len(pairs) > 40


def test_enclave_chosen_base_reads_weight_rows(toy_weights):
    """The enclave chooses R and the provider checks only its shape and
    params, so R = 0, the base [I_m | 0], reads the first m rows of W, bit
    for bit.  The one-base-per-op rule limits how many sketches an op
    releases, not what one sketch reveals."""
    provider = ProviderState(toy_weights.provider_view(), P)
    w = toy_weights.ops["l0.wqkv"]
    d = w.rows
    reply = provider.handle(SetupBase("l0.wqkv", RingMatrix(np.zeros((d - 1, 1), dtype=np.uint64), P)))
    assert isinstance(reply, PoolReply)
    assert reply.pool == RingMatrix(w.data[: d - 1], P)
    second = provider.handle(SetupBase("l0.wqkv", RingMatrix(np.ones((d - 1, 1), dtype=np.uint64), P)))
    assert isinstance(second, ErrorReply) and second.code == "SketchReissue"


def test_unit_row_requests_read_every_weight_matrix(toy_weights):
    """Weight privacy against the client assumes an attested enclave: one
    MatMulRequest of the d_in unit rows per op returns that op's W, bit for
    bit, with no SetupBase or OpenSession first and nothing issued."""
    provider = ProviderState(toy_weights.provider_view(), P)
    for op_id, w in toy_weights.ops.items():
        eye = RingMatrix(np.eye(w.rows, dtype=np.uint64), P)
        reply = provider.handle(MatMulRequest(99, 0, op_id, eye))
        assert isinstance(reply, MatMulReply) and reply.product == w, op_id
    assert len(toy_weights.ops) == 9
    assert provider.issued == set()


# --- sketch stacking ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stacking_setup():
    rng = np.random.default_rng(1)
    w = RingMatrix.from_ints(rng.integers(0, 2**63, (8, 8)).tolist(), P)
    base, pool = forge_sketch(100, "w", w, m=4, params=P)
    return w, base, pool


def test_stacking_single_sketch_fails(stacking_setup):
    w, base, pool = stacking_setup
    rep = stacking_attack_demo([(base, pool)], w)
    assert not rep.recovered and rep.max_abs_err is None


def test_stacking_duplicate_sketch_fails(stacking_setup):
    w, base, pool = stacking_setup
    rep = stacking_attack_demo([(base, pool), (base, pool)], w)
    assert not rep.recovered


def test_stacking_independent_sketches_recover(stacking_setup):
    w, base, pool = stacking_setup
    recovered = None
    for attempt in range(32):  # ~29% of stacked systems are unit-invertible; retry fresh sketches
        extra = forge_sketch(200 + attempt, "w", w, m=4, params=P)
        rep = stacking_attack_demo([(base, pool), extra], w)
        if rep.recovered:
            recovered = rep
            break
    assert recovered is not None
    assert recovered.max_abs_err == 0.0
    assert recovered.stacked_rows == 8


def test_stacking_quantized_real_weights():
    # same story on a weight matrix that encodes small reals
    rng = np.random.default_rng(2)
    w = quantize(rng.uniform(-1, 1, (6, 6)), P)
    base, pool = forge_sketch(300, "w", w, m=3, params=P)
    assert not stacking_attack_demo([(base, pool)], w).recovered
    for attempt in range(32):
        extra = forge_sketch(400 + attempt, "w", w, m=3, params=P)
        rep = stacking_attack_demo([(base, pool), extra], w)
        if rep.recovered:
            assert rep.max_abs_err == 0.0
            return
    pytest.fail("no pair of independent sketches recovered the weights in 32 tries")
