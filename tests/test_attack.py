"""Centroid token-reconstruction attack and its metrics."""

import numpy as np
import pytest

from remo.attack import (
    AttackDataset,
    CentroidModel,
    chance_ci,
    collect_views,
    cosine_proxy,
    make_corpus,
    predict,
    run_attack_eval,
    split_views,
    tra,
    train_centroids,
    train_mask,
)
from remo.cli import _write_attack_csv
from remo.errors import BadParams, EmptyClass, LengthMismatch, ProtocolError, UnknownOp
from remo.model import ModelConfig, init_weights, reference_generate, rms_norm
from remo.protocol import (
    Enclave,
    InProcTransport,
    MatMulRequest,
    ProviderState,
    RecordingTransport,
    Transcript,
)
from remo.ring import QuantParams, dequantize, quantize

P = QuantParams()


# --- corpus -----------------------------------------------------------------


def test_corpus_deterministic():
    assert make_corpus(5, 7, 64, seed=3) == make_corpus(5, 7, 64, seed=3)
    assert make_corpus(5, 7, 64, seed=3) != make_corpus(5, 7, 64, seed=4)


def test_corpus_shapes_and_range():
    prompts = make_corpus(10, 12, 64, seed=1)
    assert len(prompts) == 10
    assert all(len(p) == 12 for p in prompts)
    assert all(0 <= t < 64 for p in prompts for t in p)


def test_corpus_zipf_skews_low_ids():
    flat = [t for p in make_corpus(200, 20, 64, seed=2, kind="zipf") for t in p]
    counts = np.bincount(flat, minlength=64)
    assert counts[0] > counts[32] and counts[0] > counts[63]


def test_corpus_unknown_kind():
    with pytest.raises(BadParams):
        make_corpus(1, 1, 64, seed=0, kind="gaussian")


# --- collection --------------------------------------------------------------


def test_collect_views_labels_and_taps(toy_weights):
    transcript_provider = ProviderState(toy_weights.provider_view(), P)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=5)
    transport = InProcTransport(transcript_provider)
    prompts = make_corpus(4, 6, 64, seed=9)
    views = collect_views(toy_weights, enclave, transport, prompts, "l0.wqkv", max_new=3)
    assert views.raw_rows.shape == views.masked_rows.shape
    assert len(views) == len(views.labels) == len(views.is_prompt)
    # every prompt contributes its prompt positions plus the fed-back response
    assert int(np.sum(views.is_prompt)) == sum(len(p) for p in prompts)
    # raw rows are the enclave-side pre-mask inputs: recompute for step 0
    first = views.raw_rows[0]
    from remo.model import embed

    x0 = rms_norm(
        embed([prompts[0][0]], toy_weights.embedding), toy_weights.enclave_view().attn_gains[0]
    )
    assert np.array_equal(first, dequantize(x0)[0])


def test_collect_views_labels_each_row_with_its_position(toy_weights):
    # l0.wqkv sees every fed position; head sees the prompt's last row, then each decode step
    provider = ProviderState(toy_weights.provider_view(), P)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=5)
    prompts = make_corpus(2, 5, 64, seed=11)
    responses = [reference_generate(toy_weights, p, 3) for p in prompts]
    for op_id, fed, in_prompt in (
        ("l0.wqkv", lambda p, r: p + r[:-1], [True] * 5 + [False] * 2),
        ("head", lambda p, r: p[-1:] + r[:-1], [True, False, False]),
    ):
        views = collect_views(
            toy_weights, enclave, InProcTransport(provider), prompts, op_id, max_new=3
        )
        assert views.labels.tolist() == [t for p, r in zip(prompts, responses) for t in fed(p, r)]
        assert views.is_prompt.tolist() == in_prompt * 2


def test_collect_views_masked_rows_match_wire(toy_weights):
    # an outer recorder, between collect_views and the provider, sees what the provider receives
    transcript = Transcript()
    provider = ProviderState(toy_weights.provider_view(), P)
    wire = RecordingTransport(InProcTransport(provider), transcript)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=5)
    prompts = make_corpus(2, 5, 64, seed=10)
    views = collect_views(toy_weights, enclave, wire, prompts, "l0.wqkv", max_new=2)
    wire_rows = [
        row
        for e in transcript.entries
        if isinstance(e.message, MatMulRequest) and e.message.op_id == "l0.wqkv"
        for row in dequantize(e.message.masked)
    ]
    assert len(wire_rows) == len(views) == 2 * (5 + 1)
    for got, want in zip(views.masked_rows, wire_rows):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("op_id", ["l0.wq", "l9.wqkv", "nope"])
def test_collect_views_unknown_op_fails_before_any_session(toy_weights, op_id):
    transcript = Transcript()
    provider = ProviderState(toy_weights.provider_view(), P)
    wire = RecordingTransport(InProcTransport(provider), transcript)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=5)
    with pytest.raises(UnknownOp, match=op_id):
        collect_views(toy_weights, enclave, wire, [[1, 2, 3]], op_id, max_new=2)
    assert not any(isinstance(e.message, MatMulRequest) for e in transcript.entries)


def test_collect_views_refuses_misaligned_rows(toy_weights):
    # the provider holds other weights, so responses differ from the reference
    other = init_weights(ModelConfig(), seed=4321)
    provider = ProviderState(other.provider_view(), P)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=5)
    views = None
    with pytest.raises(ProtocolError, match="differs from reference"):
        views = collect_views(
            toy_weights, enclave, InProcTransport(provider), make_corpus(3, 6, 64, seed=12),
            "l0.wqkv", max_new=3,
        )
    assert views is None


# --- centroids -----------------------------------------------------------------


def test_centroid_single_example_is_the_example():
    rows = np.array([[1.0, 2.0], [5.0, 6.0]])
    model = train_centroids(AttackDataset(rows, np.array([3, 7])))
    assert np.array_equal(model.class_ids, [3, 7])
    assert np.array_equal(model.centroids, rows)


def test_centroid_duplicates_do_not_move():
    rows = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 6.0]])
    model = train_centroids(AttackDataset(rows, np.array([3, 3, 7])))
    assert np.array_equal(model.centroids[0], [1.0, 2.0])


def test_centroid_empty_rejected():
    with pytest.raises(EmptyClass):
        train_centroids(AttackDataset(np.empty((0, 2)), np.empty(0, dtype=int)))


def test_predict_exact_centroid_and_tie():
    model = CentroidModel(np.array([2, 9]), np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert predict(model, np.array([[0.0, 0.0]]))[0] == 2
    assert predict(model, np.array([[2.0, 0.0]]))[0] == 9
    # equidistant between both centroids: lower id wins
    assert predict(model, np.array([[1.0, 0.0]]))[0] == 2


def test_predict_matches_brute_force_scan():
    rng = np.random.default_rng(4)
    model = CentroidModel(np.arange(10), rng.normal(size=(10, 6)))
    rows = rng.normal(size=(50, 6))
    got = predict(model, rows)
    for i, row in enumerate(rows):
        dists = [float(np.linalg.norm(row - c)) for c in model.centroids]
        assert got[i] == model.class_ids[int(np.argmin(dists))]


# --- metrics -----------------------------------------------------------------------


def test_tra_trivials():
    assert tra([1, 2, 3], [1, 2, 3]) == 1.0
    assert tra([1, 2, 3], [1, 9, 3]) == pytest.approx(2 / 3)
    with pytest.raises(LengthMismatch):
        tra([1, 2], [1, 2, 3])


def test_tra_symmetric_under_joint_permutation():
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 10, 40)
    guess = rng.integers(0, 10, 40)
    perm = rng.permutation(40)
    assert tra(truth, guess) == tra(truth[perm], guess[perm])
    assert 0.0 <= tra(truth, guess) <= 1.0


def test_tra_random_guessing_near_chance():
    # Monte-Carlo oracle: 10^4 uniform guesses over vocab 64
    rng = np.random.default_rng(6)
    n, vocab = 10_000, 64
    truth = rng.integers(0, vocab, n)
    guess = rng.integers(0, vocab, n)
    got = tra(truth, guess)
    sigma = np.sqrt((1 / vocab) * (1 - 1 / vocab) / n)
    assert abs(got - 1 / vocab) <= 3 * sigma


def test_cosine_proxy_identical_and_orthogonal():
    table = quantize(np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 0.0]]), P)
    assert cosine_proxy([0, 1, 2], [0, 1, 2], table) == pytest.approx(1.0, abs=1e-12)
    assert cosine_proxy([0, 1], [1, 0], table) == pytest.approx(0.0, abs=1e-12)
    assert cosine_proxy([0], [2], table) == pytest.approx(1.0, abs=1e-12)  # parallel rows


def test_cosine_proxy_random_near_table_mean(toy_weights):
    rng = np.random.default_rng(7)
    emb = dequantize(toy_weights.embedding)
    norm = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    gram = norm @ norm.T
    table_mean = float(np.mean(gram))  # includes the diagonal, like random collisions do
    truth = rng.integers(0, 64, 20_000)
    guess = rng.integers(0, 64, 20_000)
    got = cosine_proxy(truth, guess, toy_weights.embedding)
    assert abs(got - table_mean) < 0.02


def test_chance_ci_contains_chance():
    lo, hi = chance_ci(1 / 64, 10_000)
    assert lo < 1 / 64 < hi


# --- end-to-end evaluation ----------------------------------------------------------


@pytest.fixture(scope="module")
def small_views(toy_weights):
    provider = ProviderState(toy_weights.provider_view(), P)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=21)
    prompts = make_corpus(60, 10, 64, seed=11)
    return collect_views(toy_weights, enclave, InProcTransport(provider), prompts, "l0.wqkv", max_new=4)


def test_splits_disjoint_and_sized(small_views):
    train, attack = split_views(small_views, train_mask(small_views, seed=0), masked=False)
    assert len(train.rows) + len(attack.rows) == len(small_views)
    assert len(attack.rows) > 0 and len(train.rows) > 3 * len(attack.rows)


def test_unmasked_training_self_accuracy(small_views):
    train, _ = split_views(small_views, train_mask(small_views, seed=0), masked=False)
    model = train_centroids(train)
    self_acc = tra(train.labels, predict(model, train.rows))
    assert self_acc >= 0.9  # the clustering premise holds on raw rows


def test_attack_eval_contrast(small_views, toy_weights):
    report = run_attack_eval(small_views, toy_weights.embedding, 64, seed=0)
    assert len(report.rows) == 4
    by_key = {(r.tap, r.masked): r for r in report.rows}
    for (tap, masked), row in by_key.items():
        assert row.chance_level == pytest.approx(1 / 64)
        assert row.ci_low < row.chance_level < row.ci_high
    raw_tra, _ = report.pooled[False]
    masked_tra, _ = report.pooled[True]
    assert raw_tra >= 0.9
    assert masked_tra <= 0.2
    # rows differ only in the masked flag metadata, not in bookkeeping
    taps = {r.tap for r in report.rows}
    assert taps == {"l0.wqkv/prompt", "l0.wqkv/response"}


def test_attack_report_csv(tmp_path, small_views, toy_weights):
    report = run_attack_eval(small_views, toy_weights.embedding, 64, seed=0)
    path = tmp_path / "attack.csv"
    _write_attack_csv(path, report)
    data = path.read_bytes()
    assert b"\r" not in data  # LF line endings, like every other report.csv
    lines = data.decode().strip().splitlines()
    assert lines[0] == "tap,masked,positions,tra,cosine_proxy,chance_level,ci_low,ci_high"
    assert len(lines) == 5
