"""Token-reconstruction attack on provider-visible tensors, plus the TRA metric.

The attacker premise: intermediate rows cluster by the token that
produced them, so a nearest-centroid classifier trained on an 80% share
of traffic should recover tokens from the remaining 20%.  Against raw
rows this works almost perfectly at toy scale; against masked rows it
must collapse to chance (1/vocab), which is exactly what the masking is
supposed to buy.

`cosine_proxy` is a semantic-similarity stand-in computed from the
model's own embedding table (reports label it cosine-proxy, it is not a
sentence-encoder score).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, EmptyClass, EmptyRun, LengthMismatch, ProtocolError
from .model import DecoderEngine, LocalWeightedOps, ModelWeights, block_rows
from .protocol import MatMulRequest, RecordingTransport, Transcript
from .ring import RingMatrix, dequantize

TRAIN_FRAC = 0.8  # share of prompts the attacker trains on
CI_Z = 2.576  # two-sided 99% normal quantile


def make_corpus(
    n_prompts: int, length: int, vocab: int, seed: int, kind: str = "uniform"
) -> list[list[int]]:
    """Seeded synthetic prompts; uniform or Zipf(1.1) token frequencies."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        draw = lambda: rng.integers(0, vocab, size=length)
    elif kind == "zipf":
        weights = 1.0 / np.arange(1, vocab + 1) ** 1.1
        weights /= weights.sum()
        draw = lambda: rng.choice(vocab, size=length, p=weights)
    else:
        raise BadParams(f"unknown corpus kind {kind!r}; use 'uniform' or 'zipf'")
    return [[int(t) for t in draw()] for _ in range(n_prompts)]


@dataclass
class CollectedViews:
    """Per-position raw and masked rows with their true token labels."""

    op_id: str
    raw_rows: np.ndarray  # float64, positions x d
    masked_rows: np.ndarray
    labels: np.ndarray  # int token ids
    is_prompt: np.ndarray  # bool per position
    prompt_index: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def collect_views(
    weights: ModelWeights, enclave, transport, prompts: list[list[int]], op_id: str, max_new: int
) -> CollectedViews:
    """Run every prompt through the protocol and keep what crosses the wire for one op.

    Masked rows are the `MatMulRequest`s of `op_id` that the provider
    receives.  Raw rows, the unprotected deployment's view, are the
    inputs of `op_id` on a reference `DecoderEngine` over `weights`.  A
    request carries `block_rows` of one block, which runs from its step
    to the next request's step (the last one to the engine's final
    position), and each row is labelled with the token fed at its
    position.  Raises ProtocolError when a partitioned response, or the
    steps and row counts of the op's requests, differ from the
    reference, because its rows could not be aligned.
    """
    enclave.cfg.op_dims(op_id)  # UnknownOp before any session
    params = weights.enclave_view()
    local = LocalWeightedOps(weights.provider_view())
    raw, masked, labels, is_prompt, prompt_idx = [], [], [], [], []
    for pi, prompt in enumerate(prompts):
        transcript = Transcript()
        response = enclave.run_session(RecordingTransport(transport, transcript), prompt, max_new)
        sent = [
            (e.message.step, e.message.masked)
            for e in transcript.entries
            if isinstance(e.message, MatMulRequest) and e.message.op_id == op_id
        ]
        inputs: list[tuple[int, RingMatrix]] = []

        def recording(op: str, x: RingMatrix, step: int) -> RingMatrix:
            if op == op_id:
                inputs.append((step, x))
            return local(op, x, step)

        engine = DecoderEngine(params, recording)
        reference = engine.generate(prompt, max_new)
        if response != reference or [(s, m.rows) for s, m in sent] != [(s, x.rows) for s, x in inputs]:
            raise ProtocolError(
                f"prompt {pi}: partitioned response {response} differs from reference {reference}"
            )
        fed = list(prompt) + response[:-1]
        ends = [s for s, _ in inputs[1:]] + [engine.pos]
        for (step, raw_m), (_, masked_m), end in zip(inputs, sent, ends):
            positions = range(step, end)[block_rows(op_id, end - step)]
            raw.extend(dequantize(raw_m))
            masked.extend(dequantize(masked_m))
            labels.extend(fed[s] for s in positions)
            is_prompt.extend(s < len(prompt) for s in positions)
            prompt_idx.extend(pi for _ in positions)
    return CollectedViews(
        op_id=op_id,
        raw_rows=np.asarray(raw),
        masked_rows=np.asarray(masked),
        labels=np.asarray(labels, dtype=np.int64),
        is_prompt=np.asarray(is_prompt, dtype=bool),
        prompt_index=np.asarray(prompt_idx, dtype=np.int64),
    )


@dataclass
class AttackDataset:
    rows: np.ndarray
    labels: np.ndarray


def train_prompt_count(n_prompts: int) -> int:
    """Prompts in the training share; EmptyRun if the train or attack share is empty."""
    cut = int(round(TRAIN_FRAC * n_prompts))
    if not 0 < cut < n_prompts:
        raise EmptyRun(f"attack_prompts={n_prompts} leaves an empty train or attack split; need >= 3")
    return cut


def train_mask(views: CollectedViews, seed: int = 0) -> np.ndarray:
    """Boolean per-position mask selecting the training share, split at the prompt level."""
    n_prompts = int(views.prompt_index.max()) + 1 if len(views) else 0
    cut = train_prompt_count(n_prompts)
    order = np.random.default_rng(seed).permutation(n_prompts)
    train_set = set(order[:cut].tolist())
    return np.array([pi in train_set for pi in views.prompt_index])


def split_views(
    views: CollectedViews, in_train: np.ndarray, masked: bool
) -> tuple[AttackDataset, AttackDataset]:
    """Disjoint train/attack datasets of the raw or masked rows; `in_train` is a `train_mask`."""
    rows = views.masked_rows if masked else views.raw_rows
    return (
        AttackDataset(rows[in_train], views.labels[in_train]),
        AttackDataset(rows[~in_train], views.labels[~in_train]),
    )


@dataclass
class CentroidModel:
    """Per-token mean vectors; defined only for token ids seen in training."""

    class_ids: np.ndarray  # sorted ascending
    centroids: np.ndarray  # len(class_ids) x d


def train_centroids(train: AttackDataset) -> CentroidModel:
    if len(train.labels) == 0:
        raise EmptyClass("training dataset is empty")
    class_ids = np.unique(train.labels)
    centroids = np.stack([train.rows[train.labels == c].mean(axis=0) for c in class_ids])
    return CentroidModel(class_ids=class_ids, centroids=centroids)


def predict(model: CentroidModel, rows: np.ndarray) -> np.ndarray:
    """Nearest centroid by Euclidean distance; ties resolve to the lowest id."""
    rows = np.atleast_2d(rows)
    # argmin over squared distances; class_ids ascending makes first-hit = lowest id
    d2 = (
        np.sum(rows * rows, axis=1, keepdims=True)
        - 2.0 * rows @ model.centroids.T
        + np.sum(model.centroids * model.centroids, axis=1)[None, :]
    )
    return model.class_ids[np.argmin(d2, axis=1)]


def tra(truth, guess) -> float:
    """Token reconstruction accuracy: fraction of exact positional matches."""
    t = np.asarray(truth)
    g = np.asarray(guess)
    if t.shape != g.shape:
        raise LengthMismatch(f"sequence lengths differ: {t.shape} vs {g.shape}")
    if t.size == 0:
        raise LengthMismatch("cannot score empty sequences")
    return float(np.mean(t == g))


def cosine_proxy(truth, guess, table: RingMatrix) -> float:
    """Mean per-position cosine between embedding rows of true and guessed tokens."""
    t = np.asarray(truth, dtype=np.int64)
    g = np.asarray(guess, dtype=np.int64)
    if t.shape != g.shape:
        raise LengthMismatch(f"sequence lengths differ: {t.shape} vs {g.shape}")
    emb = dequantize(table)
    tv = emb[t]
    gv = emb[g]
    num = np.sum(tv * gv, axis=1)
    den = np.linalg.norm(tv, axis=1) * np.linalg.norm(gv, axis=1)
    sims = np.where(den > 0, num / np.maximum(den, 1e-30), 0.0)
    return float(np.mean(sims))


@dataclass
class AttackReportRow:
    tap: str
    masked: bool
    positions: int
    tra: float
    cosine_proxy: float
    chance_level: float
    ci_low: float
    ci_high: float


@dataclass
class AttackReport:
    op_id: str
    rows: list[AttackReportRow] = field(default_factory=list)
    pooled: dict = field(default_factory=dict)  # masked flag -> (tra, positions)


def chance_ci(chance: float, n: int) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    half = CI_Z * np.sqrt(chance * (1.0 - chance) / n)
    return float(chance - half), float(chance + half)


def run_attack_eval(
    views: CollectedViews,
    embedding: RingMatrix,
    vocab: int,
    seed: int = 0,
) -> AttackReport:
    """Centroid attack on raw and masked views, scored per position class.

    Attacked tokens whose id never occurred in training count as misses;
    the classifier only knows classes it has seen.
    """
    chance = 1.0 / vocab
    report = AttackReport(op_id=views.op_id)
    in_train = train_mask(views, seed)
    is_prompt = views.is_prompt[~in_train]
    for masked in (False, True):
        train, attack = split_views(views, in_train, masked)
        model = train_centroids(train)
        guesses = predict(model, attack.rows)
        for cls_name, sel in (("prompt", is_prompt), ("response", ~is_prompt)):
            n = int(np.sum(sel))
            if n == 0:
                continue
            lo, hi = chance_ci(chance, n)
            report.rows.append(
                AttackReportRow(
                    tap=f"{views.op_id}/{cls_name}",
                    masked=masked,
                    positions=n,
                    tra=tra(attack.labels[sel], guesses[sel]),
                    cosine_proxy=cosine_proxy(attack.labels[sel], guesses[sel], embedding),
                    chance_level=chance,
                    ci_low=lo,
                    ci_high=hi,
                )
            )
        report.pooled[masked] = (tra(attack.labels, guesses), len(attack.labels))
    return report
