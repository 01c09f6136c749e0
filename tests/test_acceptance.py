"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import threading
import time

import numpy as np
import pytest
from conftest import full_base, random_message, zero_step_mask

import remo.protocol
from remo import attack as atk
from remo import privacy as pv
from remo.cli import RunConfig
from remo.masking import derive_step_mask, mask_embedding, recover
from remo.model import RMS_EPS, ModelConfig, attention_structural, init_weights, reference_generate
from remo.prg import PrgKey
from remo.privacy import GameConfig
from remo.protocol import (
    Enclave,
    InProcTransport,
    MatMulRequest,
    ProviderServer,
    ProviderState,
    RecordingTransport,
    TcpTransport,
    Transcript,
    audit_transcript,
    decode_message,
    encode_message,
)
from remo.ring import QuantParams, RingMatrix, ring_kernel, ring_matmul

P = QuantParams()


@pytest.fixture(scope="module")
def acfg():
    return RunConfig()


@pytest.fixture(scope="module")
def aweights(acfg):
    return init_weights(acfg.model_config(), acfg.seed_for("model"))


def report(criterion: str, ok: bool, detail: str, elapsed: float) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_output_invariance(acfg, aweights):
    """100 seeded prompts: partitioned == reference token-for-token, TRA exactly 1.0."""
    t0 = time.time()
    provider = ProviderState(aweights.provider_view(), P)
    enclave = Enclave(aweights.enclave_view(), acfg.seed_for("session"))
    transport = InProcTransport(provider)
    prompts = atk.make_corpus(100, acfg.prompt_len, acfg.vocab, acfg.seed_for("corpus"))
    matches = 0
    for prompt in prompts:
        got = enclave.run_session(transport, prompt, acfg.max_new)
        want = reference_generate(aweights, prompt, acfg.max_new)
        matches += got == want
    tra_value = matches / len(prompts)
    report(
        "criterion 1 (output invariance)",
        tra_value == 1.0,
        f"TRA={tra_value} over {len(prompts)} prompts, zero tolerance",
        time.time() - t0,
    )


def float_generate(cfg: ModelConfig, seed: int, prompt, max_new: int) -> list[int]:
    """Greedy tokens of the float64 model that `init_weights` quantizes.

    Replays its draws in order (embedding; per layer Wq, Wk, Wv, Wo, Wup,
    Wdown; head) and runs the structural formulas of `remo.model` with no
    rounding; the norm gains are exactly 1.  Each step recomputes the whole
    sequence, attending from position 0.
    """
    rng = np.random.default_rng(seed)
    d, d_ff = cfg.d, cfg.d_ff
    b_d, b_ff = 1.0 / np.sqrt(d), 1.0 / np.sqrt(d_ff)

    def draw(rows, cols, bound):
        return rng.uniform(-bound, bound, size=(rows, cols))

    embedding = draw(cfg.vocab, d, 1.0)
    layers = [(np.hstack([draw(d, d, b_d) for _ in range(3)]), draw(d, d, b_d),
               draw(d, d_ff, b_d), draw(d_ff, d, b_ff)) for _ in range(cfg.layers)]
    head = draw(d, cfg.vocab, b_d)

    def norm(x):
        return x / np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True) / d + RMS_EPS)

    tokens, out = [int(t) for t in prompt], []
    while len(out) < max_new and (not out or out[-1] != cfg.eos_id):
        h = embedding[tokens]
        for wqkv, wo, wup, wdown in layers:
            q, k, v = np.split(norm(h) @ wqkv, 3, axis=1)
            h = h + attention_structural(q, k, v, cfg.heads, 0) @ wo
            u = norm(h) @ wup
            h = h + u / (1.0 + np.exp(-u)) @ wdown
        out.append(int(np.argmax(norm(h[-1:]) @ head)))
        tokens.append(out[-1])
    return out


def test_partitioned_tokens_equal_the_float_model(toy_weights):
    """At the default f, 100 toy prompts (corpus seed 99, 8 tokens, 16 new)
    give the float64 model's greedy tokens through the masked pipeline."""
    t0 = time.time()
    cfg = toy_weights.config
    enclave = Enclave(toy_weights.enclave_view(), master_seed=7)
    transport = InProcTransport(ProviderState(toy_weights.provider_view(), cfg.params))
    prompts = atk.make_corpus(100, 8, cfg.vocab, seed=99)
    diverged = []
    for i, prompt in enumerate(prompts):
        got = enclave.run_session(transport, prompt, 16)
        want = float_generate(cfg, 1234, prompt, 16)
        if got != want:
            at = next((j for j, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            diverged.append(f"prompt {i} at token {at}: {got[at:at + 3]} vs float {want[at:at + 3]}")
    report(
        "float model (lossless at the default f)",
        not diverged,
        f"{len(prompts) - len(diverged)}/{len(prompts)} prompts match"
        + (f"; first divergence: {diverged[0]}" if diverged else ""),
        time.time() - t0,
    )


def test_criterion_2_exact_recovery():
    """10^4 random (E, W, M_pvt, R) tuples up to 8x8, M_pub = [I_m | R]: zero element error."""
    t0 = time.time()
    rng = np.random.default_rng(20_000)
    key = PrgKey.from_int(20_001)
    failures = 0
    for trial in range(10_000):
        n, dout, d = (int(v) for v in rng.integers((1, 1, 2), 9))
        m = int(rng.integers(1, d))
        e = RingMatrix.from_ints(rng.integers(0, 2**64, (n, d), dtype=np.uint64).tolist(), P)
        w = RingMatrix.from_ints(rng.integers(0, 2**64, (d, dout), dtype=np.uint64).tolist(), P)
        r = key.ring_matrix(m, d - m, P, "base", trial)
        m_pvt = derive_step_mask(key, trial, "op", n, m, P)
        o_hat = ring_matmul(mask_embedding(e, m_pvt, r), w)
        r_pub = ring_matmul(full_base(r), w)
        if recover(o_hat, m_pvt, r_pub) != ring_matmul(e, w):
            failures += 1
    report(
        "criterion 2 (exact recovery)",
        failures == 0,
        f"{failures} failures in 10000 randomized tuples (shapes <= 8x8)",
        time.time() - t0,
    )


def test_criterion_3_attack_degradation(acfg, aweights):
    """Unmasked TRA >= 0.90; masked TRA inside the 99% CI of 1/64 over >= 10^4
    attacked positions; unmasked/masked ratio >= 20."""
    t0 = time.time()
    provider = ProviderState(aweights.provider_view(), P)
    enclave = Enclave(aweights.enclave_view(), acfg.seed_for("session"))
    prompts = atk.make_corpus(
        acfg.attack_prompts, acfg.attack_prompt_len, acfg.vocab, acfg.seed_for("corpus")
    )
    views = atk.collect_views(
        aweights, enclave, InProcTransport(provider), prompts, acfg.attack_op, acfg.attack_max_new
    )
    eval_report = atk.run_attack_eval(views, aweights.embedding, acfg.vocab, seed=acfg.seed_for("corpus"))
    masked_tra, n_masked = eval_report.pooled[True]
    unmasked_tra, _ = eval_report.pooled[False]
    chance = 1.0 / acfg.vocab
    lo, hi = atk.chance_ci(chance, n_masked)
    ok = (
        n_masked >= 10_000
        and unmasked_tra >= 0.90
        and lo <= masked_tra <= hi
        and unmasked_tra >= 20.0 * max(masked_tra, 1e-12)
    )
    report(
        "criterion 3 (attack degradation)",
        ok,
        f"unmasked={unmasked_tra:.4f}, masked={masked_tra:.4f} on n={n_masked} "
        f"(chance={chance:.4f}, 99% CI=[{lo:.4f},{hi:.4f}], ratio="
        f"{unmasked_tra / max(masked_tra, 1e-12):.1f})",
        time.time() - t0,
    )


def test_criterion_4_distinguishing_bound(acfg):
    """Grid ||delta||_1/lambda in {0, .1, .5, 1, 2}, 10^6 trials each: empirical
    <= bound + 3 stderr; scalar ratio 0.1 within 3 sigma of 0.55."""
    t0 = time.time()
    trial_seed = acfg.seed_for("trial")
    all_ok = True
    details = []
    for i, ratio in enumerate((0.0, 0.1, 0.5, 1.0, 2.0)):
        rep = pv.run_distinguishing_game(
            GameConfig(e1=[0.0], e2=[ratio], lam=1.0, trials=1_000_000, seed=trial_seed + i)
        )
        all_ok &= rep.passed
        details.append(f"{ratio}:{rep.empirical:.4f}<={rep.bound:.4f}+3se")
        if ratio == 0.1:
            sigma = float(np.sqrt(0.55 * 0.45 / rep.trials))
            all_ok &= abs(rep.empirical - 0.55) <= 3 * sigma
            details.append(f"|{rep.empirical:.5f}-0.55|<=3x{sigma:.5f}")
    report(
        "criterion 4 (distinguishing bound)",
        all_ok,
        "; ".join(details),
        time.time() - t0,
    )


def test_criterion_5_non_identifiability(acfg, aweights):
    """Kernel dim = d - m for every weight matrix; 10 distinct consistent W'
    with residual <= 1e-9; stacking two independent sketches recovers W to 1e-6."""
    t0 = time.time()
    provider = ProviderState(aweights.provider_view(), P)
    enclave = Enclave(aweights.enclave_view(), acfg.seed_for("session"))
    enclave.setup(InProcTransport(provider))
    kernels_ok = True
    for op_id in acfg.model_config().op_ids():
        base = enclave.bases[op_id]
        rank, kernel = ring_kernel(base.public_base)
        kernels_ok &= kernel.cols == base.d - base.m and rank == base.m

    base = enclave.bases[acfg.attack_op]
    candidates = pv.enumerate_consistent_weights(base.public_base, base.pool, 10)
    residuals = [pv.residual_inf(base.public_base, w, base.pool) for w in candidates]
    distinct = len(set(candidates)) == 10
    consistent_ok = max(residuals) <= 1e-9 and distinct

    true_w = aweights.ops[acfg.attack_op]
    single = pv.stacking_attack_demo([(base.public_base, base.pool)], true_w)
    stacked = None
    for attempt in range(acfg.stacking_attempts):
        extra = pv.forge_sketch(attempt, acfg.attack_op, true_w, base.m, P)
        stacked = pv.stacking_attack_demo([(base.public_base, base.pool), extra], true_w)
        if stacked.recovered:
            break
    stacking_ok = (
        not single.recovered
        and stacked is not None
        and stacked.recovered
        and stacked.max_abs_err <= 1e-6
        and stacked.sketches == 2
    )
    report(
        "criterion 5 (non-identifiability)",
        kernels_ok and consistent_ok and stacking_ok,
        f"kernel dims d-m for all {len(acfg.model_config().op_ids())} ops={kernels_ok}, "
        f"10 consistent W' max residual={max(residuals):.1e} distinct={distinct}, "
        f"single-sketch recovery={single.recovered}, "
        f"two-sketch recovery={stacked.recovered} err={stacked.max_abs_err}",
        time.time() - t0,
    )


def test_criterion_6_protocol_integrity(acfg, aweights, monkeypatch):
    """10^4 message round-trips lossless; TCP == in-proc bitwise; audit passes
    honest runs and fails the no-masking and duplicated-payload controls."""
    t0 = time.time()
    rng = np.random.default_rng(60_000)
    codec_ok = all(
        decode_message(encode_message(m)) == m for m in (random_message(rng) for _ in range(10_000))
    )

    prompt = [11, 22, 33, 44, 55, 6]
    tr_a = Transcript()
    provider_a = ProviderState(aweights.provider_view(), P)
    enclave_a = Enclave(aweights.enclave_view(), acfg.seed_for("session"))
    out_a = enclave_a.run_session(RecordingTransport(InProcTransport(provider_a), tr_a), prompt, 8)

    tr_b = Transcript()
    server = ProviderServer(ProviderState(aweights.provider_view(), P), port=0)
    try:
        transport = RecordingTransport(TcpTransport(*server.address), tr_b)
        enclave_b = Enclave(aweights.enclave_view(), acfg.seed_for("session"))
        out_b = enclave_b.run_session(transport, prompt, 8)
        transport.close()
    finally:
        server.shutdown()
    transport_ok = out_a == out_b and tr_a.frames() == tr_b.frames()

    honest = audit_transcript(tr_a).passed

    monkeypatch.setattr(remo.protocol, "derive_step_mask", zero_step_mask)
    tr_neg = Transcript()
    provider_neg = ProviderState(aweights.provider_view(), P)
    enclave_neg = Enclave(aweights.enclave_view(), acfg.seed_for("session"))
    for p in atk.make_corpus(16, 6, acfg.vocab, 123):
        enclave_neg.run_session(RecordingTransport(InProcTransport(provider_neg), tr_neg), p, 4)
    no_mask_fails = not audit_transcript(tr_neg).clauses["uniformity"].ok

    src = next(e.message for e in tr_a.entries if isinstance(e.message, MatMulRequest))
    tr_a.append(0, MatMulRequest(src.session, src.step + 999, src.op_id, src.masked))
    dup_fails = not audit_transcript(tr_a).clauses["freshness"].ok

    ok = codec_ok and transport_ok and honest and no_mask_fails and dup_fails
    report(
        "criterion 6 (protocol integrity)",
        ok,
        f"codec 1e4 round-trips={codec_ok}, tcp==inproc (outputs+transcript)={transport_ok}, "
        f"honest audit={honest}, no-mask control fails={no_mask_fails}, "
        f"duplicate control fails={dup_fails}",
        time.time() - t0,
    )


class _FirstTokenClock:
    """Transport wrapper: the first response token exists when the first
    MatMulRequest of a step >= len(prompt) is sent.

    bench/run.py's TokenClock applies the same rule; keep the two in step.
    """

    def __init__(self, inner, prompt_len: int):
        self.inner = inner
        self.prompt_len = prompt_len
        self.first_token: float | None = None

    def request(self, msg):
        if (self.first_token is None and isinstance(msg, MatMulRequest)
                and msg.step >= self.prompt_len):
            self.first_token = time.monotonic()
        return self.inner.request(msg)


def test_criterion_7_efficiency_sanity(acfg, aweights):
    """Concurrent TCP clients {1,2,4,8}, 2 prompts of 8 tokens each, 16 new
    tokens: outputs match the reference and TTFT <= end-to-end latency on
    every request."""
    t0 = time.time()
    server = ProviderServer(ProviderState(aweights.provider_view(), P), port=0)
    enclave = Enclave(aweights.enclave_view(), acfg.seed_for("session"))
    rows = []
    failures: list[Exception] = []
    try:
        boot = TcpTransport(*server.address)
        enclave.setup(boot)
        boot.close()
        for clients in (1, 2, 4, 8):

            def client_main(idx: int, clients: int = clients) -> None:
                try:
                    transport = TcpTransport(*server.address)
                    try:
                        prompts = atk.make_corpus(
                            2, 8, acfg.vocab, acfg.seed_for("corpus") + 1000 * clients + idx
                        )
                        for prompt in prompts:
                            clock = _FirstTokenClock(transport, len(prompt))
                            start = time.monotonic()
                            got = enclave.run_session(clock, prompt, 16)
                            end = time.monotonic()
                            ttft = (clock.first_token or end) - start
                            rows.append((clients, got == reference_generate(aweights, prompt, 16),
                                         ttft <= end - start))
                    finally:
                        transport.close()
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            threads = [threading.Thread(target=client_main, args=(i,)) for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            failures.extend(TimeoutError("client hung") for t in threads if t.is_alive())
    finally:
        server.shutdown()
    per_request_ok = all(match and ttft_ok for _, match, ttft_ok in rows)
    counts = {r[0] for r in rows}
    ok = not failures and per_request_ok and counts == {1, 2, 4, 8} and len(rows) == 2 * 15
    report(
        "criterion 7 (efficiency sanity)",
        ok,
        f"errors={failures[:1]}, {len(rows)} requests across clients {sorted(counts)}, "
        f"all match reference and TTFT<=e2e: {per_request_ok}",
        time.time() - t0,
    )
