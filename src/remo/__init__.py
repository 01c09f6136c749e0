"""Confidential partitioned inference with reversible masked outsourcing.

A toy decoder-only transformer whose weight-matrix products are
outsourced to an untrusted provider under additive hybrid masking, with
exact (bit-for-bit) recovery, plus harnesses that verify the privacy
bounds, weight non-identifiability, attack resistance and output
invariance empirically.
"""

from .errors import RemoError
from .masking import MaskBase, MaskIssuer, derive_step_mask, mask_embedding, recover
from .model import (
    DecoderEngine,
    EnclaveParams,
    KVCache,
    ModelConfig,
    ModelWeights,
    init_weights,
    reference_generate,
)
from .prg import PrgKey
from .protocol import (
    Enclave,
    InProcTransport,
    ProviderServer,
    ProviderState,
    RecordingTransport,
    TcpTransport,
    Transcript,
    audit_transcript,
    decode_message,
    encode_message,
)
from .ring import (
    QuantParams,
    RingMatrix,
    decode_matrix,
    dequantize,
    encode_matrix,
    quantize,
    rescale,
    ring_add,
    ring_matmul,
    ring_sub,
)

__version__ = "0.1.0"

__all__ = [
    "DecoderEngine",
    "Enclave",
    "EnclaveParams",
    "InProcTransport",
    "KVCache",
    "MaskBase",
    "MaskIssuer",
    "ModelConfig",
    "ModelWeights",
    "PrgKey",
    "ProviderServer",
    "ProviderState",
    "QuantParams",
    "RecordingTransport",
    "RemoError",
    "RingMatrix",
    "TcpTransport",
    "Transcript",
    "audit_transcript",
    "decode_matrix",
    "decode_message",
    "dequantize",
    "derive_step_mask",
    "encode_matrix",
    "encode_message",
    "init_weights",
    "mask_embedding",
    "quantize",
    "recover",
    "reference_generate",
    "rescale",
    "ring_add",
    "ring_matmul",
    "ring_sub",
]
