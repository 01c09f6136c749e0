"""Executable checks of the masking privacy bounds and weight non-identifiability.

Three independent verifications:

* Distinguishing game: a Bayes-optimal adversary sees one uniformly
  masked vector and guesses which of two candidate inputs produced it.
  Its empirical success rate must stay under the analytic bound
  1/2 + 1/2 * min(||e1 - e2||_1 / lambda, 1).

* Exact total-variation distances for uniform box masks: closed-form
  per-coordinate overlap (with its multi-dimensional product form) plus
  a grid-integration cross-check in up to 3 dimensions.

* Sketch algebra over Z_2^64, the ring the provider's replies live in:
  with the rank and right kernel [-R; I] of a public base [I_m | R]
  (`ring.ring_kernel`; kernel dimension d - m makes the weights
  non-identifiable from one sketch), explicit enumeration of distinct
  ring weights W0 + N @ Z that reproduce the pool exactly, and a
  rule-violating stacking demo showing that independent extra sketches
  collapse the kernel and surrender the weights.

Trust model: weight privacy against the client assumes an attested
enclave; these results describe what an honest enclave's state reveals.

Bound experiments run on real-valued uniform masks, matching the
analysis they verify.  Sketch algebra is exact integer arithmetic mod
2^64: pools are ring values, so wraparound is part of the observable,
and a consistent candidate's residual is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDims, BadParams, DimTooLarge, ProtocolError, ShapeMismatch, TrivialKernel
from .prg import PrgKey
from .ring import (
    QuantParams,
    RingMatrix,
    ring_add,
    ring_matmul,
    ring_solve,
    ring_sub,
)

GAME_CHUNK = 200_000  # trials drawn per batch of the distinguishing game
STACKING_TOL = 1e-6  # dequantized weight error below which stacking counts as recovery


# --- theorem bound and exact TV ------------------------------------------------


def tv_bound(e1, e2, lam: float) -> float:
    """Upper bound on optimal distinguishing success: 1/2 + 1/2 min(||d||_1/lam, 1)."""
    if lam <= 0:
        raise BadParams(f"lambda must be positive, got {lam}")
    l1 = float(np.sum(np.abs(np.asarray(e1, dtype=np.float64) - np.asarray(e2, dtype=np.float64))))
    return 0.5 + 0.5 * min(l1 / lam, 1.0)


def tv_box_closed_form(delta, lam: float) -> float:
    """Exact TV of two width-lam uniform boxes shifted by delta:
    1 - prod_i max(1 - |delta_i|/lam, 0)."""
    if lam <= 0:
        raise BadParams(f"lambda must be positive, got {lam}")
    a = np.abs(np.asarray(delta, dtype=np.float64)) / lam
    return float(1.0 - np.prod(np.maximum(1.0 - a, 0.0)))


def tv_exact_small(e1, e2, lam: float, grid: int = 201) -> float:
    """Grid integration of (1/2) * integral |p1 - p2| in up to 3 dimensions."""
    e1 = np.asarray(e1, dtype=np.float64).ravel()
    e2 = np.asarray(e2, dtype=np.float64).ravel()
    n = e1.size
    if n > 3:
        raise DimTooLarge(f"grid integration supports dim <= 3, got {n}")
    axes = []
    for i in range(n):
        lo = min(e1[i], e2[i]) - lam / 2
        hi = max(e1[i], e2[i]) + lam / 2
        # midpoint rule: cell centres, uniform width
        edges = np.linspace(lo, hi, grid + 1)
        axes.append(((edges[:-1] + edges[1:]) / 2, (hi - lo) / grid))
    mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    cell = float(np.prod([a[1] for a in axes]))
    dens1 = np.ones_like(mesh[0])
    dens2 = np.ones_like(mesh[0])
    for i in range(n):
        dens1 = dens1 * (np.abs(mesh[i] - e1[i]) <= lam / 2)
        dens2 = dens2 * (np.abs(mesh[i] - e2[i]) <= lam / 2)
    dens1 = dens1 / lam**n
    dens2 = dens2 / lam**n
    return float(0.5 * np.sum(np.abs(dens1 - dens2)) * cell)


# --- the distinguishing game ----------------------------------------------------


@dataclass(frozen=True)
class GameConfig:
    e1: np.ndarray
    e2: np.ndarray
    lam: float
    trials: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "e1", np.asarray(self.e1, dtype=np.float64).ravel())
        object.__setattr__(self, "e2", np.asarray(self.e2, dtype=np.float64).ravel())
        if self.lam <= 0:
            raise BadParams(f"lambda must be positive, got {self.lam}")
        if self.trials < 1:
            raise BadParams(f"need at least one trial, got {self.trials}")
        if self.e1.shape != self.e2.shape:
            raise ShapeMismatch(f"candidate inputs differ in shape: {self.e1.shape} vs {self.e2.shape}")


@dataclass(frozen=True)
class BoundReport:
    norm_ratio: float
    bound: float
    empirical: float
    stderr: float
    trials: int
    exact_tv: float

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.stderr


def run_distinguishing_game(cfg: GameConfig) -> BoundReport:
    """Monte-Carlo success rate of the Bayes-optimal box adversary.

    Each trial: flip a fair bit b, mask e_b with iid Unif[-lam/2, lam/2]
    coordinates, reveal the sum.  The optimal rule picks the candidate
    whose shifted box contains the observation; when both do, the
    likelihoods are equal and it flips a fair coin.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.e1.size
    half = cfg.lam / 2
    eps = 1e-12 * max(1.0, abs(half))
    wins = 0
    left = cfg.trials
    while left > 0:
        t = min(GAME_CHUNK, left)
        b = rng.integers(0, 2, size=t)
        masks = rng.uniform(-half, half, size=(t, n))
        ehat = np.where(b[:, None] == 0, cfg.e1[None, :], cfg.e2[None, :]) + masks
        in1 = np.all(np.abs(ehat - cfg.e1[None, :]) <= half + eps, axis=1)
        in2 = np.all(np.abs(ehat - cfg.e2[None, :]) <= half + eps, axis=1)
        coin = rng.integers(0, 2, size=t)
        guess = np.where(in1 & ~in2, 0, np.where(in2 & ~in1, 1, coin))
        wins += int(np.sum(guess == b))
        left -= t
    empirical = wins / cfg.trials
    stderr = float(np.sqrt(max(empirical * (1.0 - empirical), 1e-12) / cfg.trials))
    l1 = float(np.sum(np.abs(cfg.e1 - cfg.e2)))
    return BoundReport(
        norm_ratio=l1 / cfg.lam,
        bound=tv_bound(cfg.e1, cfg.e2, cfg.lam),
        empirical=empirical,
        stderr=stderr,
        trials=cfg.trials,
        exact_tv=tv_box_closed_form(cfg.e1 - cfg.e2, cfg.lam),
    )


# --- sketch algebra over the ring -------------------------------------------------


def enumerate_consistent_weights(m_pub: RingMatrix, r_pub: RingMatrix, count: int) -> list[RingMatrix]:
    """`count` pairwise-distinct ring solutions of M_pub W' == R_pub, none equal to W0.

    The pool is the raw ring product M_pub @ W, so every W0 + N @ Z solves
    it exactly.  Candidate i adds (1 + i // (nb * d_out)) times kernel
    column i % nb to column (i // nb) % d_out of W0; they are distinct
    while that multiplier stays below 2^64.
    """
    solved = ring_solve(m_pub, r_pub)
    if solved is None:
        raise ProtocolError("pool is not M_pub @ W for any W")
    particular, kernel = solved
    nb, d_out = kernel.cols, r_pub.cols
    if nb == 0:
        raise TrivialKernel("public base has full column rank; no free directions")
    candidates = []
    for i in range(count):
        z = np.zeros((nb, d_out), dtype=np.uint64)
        z[i % nb, (i // nb) % d_out] = 1 + i // (nb * d_out)
        candidates.append(ring_add(particular, ring_matmul(kernel, RingMatrix(z, r_pub.params))))
    return candidates


def residual_inf(m_pub: RingMatrix, w: RingMatrix, r_pub: RingMatrix) -> float:
    """max |M_pub @ W - R_pub| in the ring, dequantized at the pool's scale 2f."""
    diff = ring_sub(ring_matmul(m_pub, w), r_pub).signed().astype(np.float64)
    return float(np.max(np.abs(diff), initial=0.0)) / r_pub.params.scale**2


# --- sketch stacking (why re-issue is refused) -----------------------------------


def forge_sketch(
    seed: int, tag, weight: RingMatrix, m: int, params: QuantParams
) -> tuple[RingMatrix, RingMatrix]:
    """Rule-violating bypass: mint an extra (base, pool) pair straight from W.

    Only tests and the privacy demo may call this; the protocol path
    refuses a second base per op precisely because of what
    stacking_attack_demo shows.
    """
    base = PrgKey.from_int(seed).ring_matrix(m, weight.rows, params, "forged-sketch", tag)
    return base, ring_matmul(base, weight)


@dataclass(frozen=True)
class StackingReport:
    recovered: bool
    sketches: int
    stacked_rows: int
    max_abs_err: float | None  # dequantized weight-scale error when solvable


def stacking_attack_demo(
    sketches: list[tuple[RingMatrix, RingMatrix]], true_w: RingMatrix
) -> StackingReport:
    """Stack (base, pool) pairs for one weight matrix and try to solve for it.

    A single m < d sketch is underdetermined and never recovers the
    weights; enough independent sketches make the stacked system full
    rank and hand them over exactly.  The solve runs in the ring because
    pools are ring values.
    """
    params = true_w.params
    base = RingMatrix(np.vstack([b.data for b, _ in sketches]), params)
    pool = RingMatrix(np.vstack([p.data for _, p in sketches]), params)
    try:
        solved = ring_solve(base, pool)
    except BadDims:  # some column needs an even pivot
        solved = None
    if solved is None or solved[1].cols:
        return StackingReport(False, len(sketches), base.rows, None)
    diff = solved[0].signed().astype(np.float64) - true_w.signed().astype(np.float64)
    err = float(np.max(np.abs(diff))) / params.scale
    return StackingReport(err <= STACKING_TOL, len(sketches), base.rows, err)
