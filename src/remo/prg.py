"""Keyed deterministic byte streams with explicit domain separation.

Masks and public bases are expanded from a 256-bit secret seed through
SHAKE-256.  Every draw names its full label tuple (purpose, session,
step, op id, ...), so distinct label tuples give independent streams and
identical (seed, labels) always reproduce the identical bytes, on any
platform.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import BadParams
from .ring import QuantParams, RingMatrix

SEED_BYTES = 32  # kappa = 256


def _label_bytes(label) -> bytes:
    if isinstance(label, bytes):
        b = label
    elif isinstance(label, str):
        b = label.encode("utf-8")
    elif isinstance(label, int):
        b = label.to_bytes(16, "little", signed=True)
    else:
        raise BadParams(f"unsupported label type {type(label)!r}")
    # length-prefixed so label tuples cannot collide by concatenation
    return len(b).to_bytes(4, "little") + b


@dataclass(frozen=True)
class PrgKey:
    """256-bit seed; each draw is bound to the labels it names."""

    seed: bytes

    def __post_init__(self) -> None:
        if len(self.seed) != SEED_BYTES:
            raise BadParams(f"seed must be {SEED_BYTES} bytes, got {len(self.seed)}")

    @classmethod
    def from_int(cls, seed: int) -> "PrgKey":
        raw = hashlib.sha256(b"remo-seed" + seed.to_bytes(16, "little", signed=True)).digest()
        return cls(raw)

    def child(self, *labels) -> "PrgKey":
        """Derive an independent key for a sub-domain."""
        h = hashlib.shake_256()
        h.update(b"remo-child" + self.seed)
        for part in labels:
            h.update(_label_bytes(part))
        return PrgKey(h.digest(SEED_BYTES))

    def bytes_for(self, nbytes: int, *labels) -> bytes:
        h = hashlib.shake_256()
        h.update(b"remo-stream" + self.seed)
        for part in labels:
            h.update(_label_bytes(part))
        return h.digest(nbytes)

    def ring_elements(self, count: int, *labels) -> np.ndarray:
        """count uniform elements of Z_2^64 as uint64."""
        raw = self.bytes_for(8 * count, *labels)
        return np.frombuffer(raw, dtype="<u8").astype(np.uint64)

    def ring_matrix(self, rows: int, cols: int, params: QuantParams, *labels) -> RingMatrix:
        vals = self.ring_elements(rows * cols, *labels)
        return RingMatrix(vals.reshape(rows, cols), params)
