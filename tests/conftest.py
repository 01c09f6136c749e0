import numpy as np
import pytest

from remo import (
    Enclave,
    InProcTransport,
    ModelConfig,
    ProviderState,
    RecordingTransport,
    Transcript,
    init_weights,
)
from remo.protocol import (
    CloseSession,
    ErrorReply,
    MatMulReply,
    MatMulRequest,
    OpenSession,
    PoolReply,
    SetupBase,
)
from remo.ring import QuantParams, RingMatrix, zeros


def random_message(rng: np.random.Generator):
    """One random well-formed protocol message (all seven kinds)."""
    params = QuantParams()

    def mat() -> RingMatrix:
        rows, cols = (int(v) for v in rng.integers(1, 5, 2))
        return RingMatrix.from_ints(rng.integers(0, 2**63, (rows, cols)).tolist(), params)

    op = f"l{int(rng.integers(0, 4))}.w{int(rng.integers(0, 100))}"
    sid = int(rng.integers(0, 2**63))
    step = int(rng.integers(0, 2**31))
    kind = int(rng.integers(0, 7))
    if kind == 0:
        return SetupBase(op, mat())
    if kind == 1:
        return PoolReply(op, mat())
    if kind == 2:
        return MatMulRequest(sid, step, op, mat())
    if kind == 3:
        return MatMulReply(sid, step, op, mat())
    if kind == 4:
        return OpenSession(sid)
    if kind == 5:
        return CloseSession(sid)
    return ErrorReply("ShapeMismatch", "x" * int(rng.integers(0, 40)))


def slow_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Schoolbook integer matmul reduced mod 2^64, pure Python ints."""
    mod = 1 << 64
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) % mod for j in range(cols)]
        for i in range(rows)
    ]


def full_base(r: RingMatrix) -> RingMatrix:
    """The systematic public base [I_m | R] of an m x (d - m) block R."""
    return RingMatrix(np.hstack([np.eye(r.rows, dtype=np.uint64), r.data]), r.params)


def zero_step_mask(prg, step, op_id, n, m, params) -> RingMatrix:
    """Stand-in for `derive_step_mask` in negative controls: an all-zero
    private mixing matrix, so the raw embeddings go on the wire."""
    return zeros(n, m, params)


@pytest.fixture(scope="session")
def default_params():
    return QuantParams()


@pytest.fixture(scope="session")
def toy_weights():
    return init_weights(ModelConfig(), seed=1234)


@pytest.fixture()
def toy_world(toy_weights):
    """Fresh provider/enclave pair over the shared toy weights; the
    transport records every message into the returned transcript."""
    transcript = Transcript()
    provider = ProviderState(toy_weights.provider_view(), toy_weights.config.params)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=99)
    transport = RecordingTransport(InProcTransport(provider), transcript)
    return toy_weights, provider, enclave, transport, transcript
