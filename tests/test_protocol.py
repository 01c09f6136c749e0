"""Wire codec, provider state machine, transports, and the transcript audit."""

import contextlib
import socket
import struct
import threading
import time

import numpy as np
import pytest
from conftest import full_base, random_message, zero_step_mask
from hypothesis import given, settings
from hypothesis import strategies as st

import remo.protocol
from remo.errors import LengthMismatch as LengthMismatchError
from remo.errors import ProtocolError, ShapeMismatch, SketchReissue, TransportClosed
from remo.model import ModelConfig, init_weights, reference_generate
from remo.prg import PrgKey
from remo.protocol import (
    CloseSession,
    Enclave,
    ErrorReply,
    InProcTransport,
    MatMulReply,
    MatMulRequest,
    OpenSession,
    PoolReply,
    ProviderServer,
    ProviderState,
    RecordingTransport,
    SetupBase,
    TcpTransport,
    Transcript,
    audit_transcript,
    decode_message,
    encode_message,
)
from remo.ring import QuantParams, RingMatrix, ring_matmul

import remo.errors as errors

P = QuantParams()


# --- codec ---------------------------------------------------------------------


def test_close_session_round_trip():
    msg = CloseSession(12345)
    assert decode_message(encode_message(msg)) == msg


def test_codec_round_trip_all_kinds():
    rng = np.random.default_rng(0)
    for _ in range(500):
        msg = random_message(rng)
        assert decode_message(encode_message(msg)) == msg


def test_truncated_frame():
    raw = encode_message(OpenSession(7))
    with pytest.raises(LengthMismatchError):
        decode_message(raw[:-2])


def test_unknown_tag():
    raw = bytearray(encode_message(OpenSession(7)))
    raw[4] = 99
    with pytest.raises(errors.DecodeError):
        decode_message(bytes(raw))


def test_trailing_bytes_rejected():
    raw = encode_message(OpenSession(7)) + b"zz"
    with pytest.raises(LengthMismatchError):
        decode_message(raw)


def _one_frame_per_kind() -> list[bytes]:
    kinds = (SetupBase, PoolReply, MatMulRequest, MatMulReply, OpenSession, CloseSession, ErrorReply)
    rng = np.random.default_rng(11)
    frames: dict[type, bytes] = {}
    while len(frames) < len(kinds):
        msg = random_message(rng)
        frames.setdefault(type(msg), encode_message(msg))
    return [frames[kind] for kind in kinds]


_VALID_FRAMES = _one_frame_per_kind()


def _decode_or_remo_error(frame: bytes) -> None:
    try:
        decode_message(frame)
    except errors.RemoError:
        pass  # anything else escapes and fails the test


@given(st.binary(max_size=96))
@settings(max_examples=300, deadline=None)
def test_decode_arbitrary_bytes_raises_only_remo_errors(raw):
    _decode_or_remo_error(raw)


@given(data=st.data())
@settings(max_examples=600, deadline=None)
def test_decode_edited_frames_raise_only_remo_errors(data):
    frame = bytearray(data.draw(st.sampled_from(_VALID_FRAMES), label="frame"))
    spots = st.tuples(st.integers(0, len(frame) - 1), st.integers(0, 255))
    for i, value in data.draw(st.lists(spots, max_size=4), label="edits"):
        frame[i] = value
    frame = frame[: data.draw(st.integers(0, len(frame)), label="cut")]
    if data.draw(st.booleans(), label="consistent length") and len(frame) >= 4:
        frame[:4] = struct.pack("<I", len(frame) - 4)
    _decode_or_remo_error(bytes(frame))


# --- provider state machine --------------------------------------------------------


def test_setup_reply_shape_and_oracle(toy_world):
    weights, provider, enclave, transport, _ = toy_world
    r = enclave._issuer.gen_public_base("l0.wqkv", 16, 32)
    reply = provider.handle(SetupBase("l0.wqkv", r))
    assert isinstance(reply, PoolReply)
    assert reply.pool.shape == (16, 96)
    # local oracle recomputation on the provider's own weight matrix
    assert reply.pool == ring_matmul(full_base(r), weights.ops["l0.wqkv"])


def test_setup_reissue_refused(toy_world):
    _, provider, enclave, _, _ = toy_world
    base = enclave._issuer.gen_public_base("l0.wqkv", 16, 32)
    provider.handle(SetupBase("l0.wqkv", base))
    second = provider.handle(SetupBase("l0.wqkv", base))
    assert isinstance(second, ErrorReply) and second.code == "SketchReissue"


def test_square_and_tall_bases_refused(toy_world):
    # a pool of d independent rows would let the enclave solve for the weights.
    # A square base [I_32] is an R with no columns; a tall one has no
    # systematic form, and an R as wide as d_in names a 16 x 48 base.
    _, provider, enclave, transport, _ = toy_world
    key = PrgKey.from_int(5)
    for (rows, cols), code in {(32, 0): "BadDims", (0, 32): "BadDims",
                               (16, 32): "ShapeMismatch"}.items():
        reply = provider.handle(SetupBase("l0.wqkv", key.ring_matrix(rows, cols, P, "base", rows)))
        assert isinstance(reply, ErrorReply) and reply.code == code
    assert provider.issued == set()
    enclave.setup(transport)
    assert provider.issued == set(enclave.cfg.op_ids())


class _SlowSetup:
    """Transport wrapper that holds each SetupBase back for 20 ms."""

    def __init__(self, inner):
        self.inner = inner

    def request(self, msg):
        if isinstance(msg, SetupBase):
            time.sleep(0.02)
        return self.inner.request(msg)

    def close(self) -> None:
        self.inner.close()


def test_concurrent_first_sessions_release_each_base_once(toy_weights):
    provider = ProviderState(toy_weights.provider_view(), P)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=7)
    prompts = ([1, 2, 3, 4], [5, 6, 7, 8])
    start = threading.Barrier(2)
    responses, failures = {}, []

    def client(i: int) -> None:
        start.wait()
        try:
            responses[i] = enclave.run_session(_SlowSetup(InProcTransport(provider)), prompts[i], 4)
        except errors.RemoError as exc:
            failures.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not failures
    assert responses == {i: reference_generate(toy_weights, p, 4) for i, p in enumerate(prompts)}


def test_restarted_provider_reissues_the_sketch(toy_weights):
    # Pins the restart hole: `issued` lives in memory, so a provider restarted
    # over the same weights answers a SetupBase that its earlier instance
    # already answered, instead of refusing it with SketchReissue.
    base = Enclave(toy_weights.enclave_view(), master_seed=99)._issuer.gen_public_base(
        "l0.wqkv", 16, 32
    )
    first = ProviderState(toy_weights.provider_view(), P).handle(SetupBase("l0.wqkv", base))
    restarted = ProviderState(toy_weights.provider_view(), P)
    second = restarted.handle(SetupBase("l0.wqkv", base))
    assert isinstance(first, PoolReply)
    assert second == first


def test_matmul_matches_local_oracle(toy_world):
    weights, provider, _, _, _ = toy_world
    rng = np.random.default_rng(1)
    x = RingMatrix.from_ints(rng.integers(0, 2**63, (1, 32)).tolist(), P)
    reply = provider.handle(MatMulRequest(1, 0, "l0.wqkv", x))
    assert isinstance(reply, MatMulReply)
    assert (reply.session, reply.step, reply.op_id) == (1, 0, "l0.wqkv")
    assert reply.product == ring_matmul(x, weights.ops["l0.wqkv"])


def test_matmul_unknown_op(toy_world):
    _, provider, _, _, _ = toy_world
    x = RingMatrix.from_ints([[1] * 32], P)
    reply = provider.handle(MatMulRequest(1, 0, "nope", x))
    assert isinstance(reply, ErrorReply) and reply.code == "UnknownOp"


def test_matmul_bad_shape(toy_world):
    _, provider, _, _, _ = toy_world
    x = RingMatrix.from_ints([[1, 2, 3]], P)
    reply = provider.handle(MatMulRequest(1, 0, "l0.wqkv", x))
    assert isinstance(reply, ErrorReply) and reply.code == "ShapeMismatch"


def test_open_close_acks(toy_world):
    _, provider, _, _, _ = toy_world
    assert provider.handle(OpenSession(9)) == OpenSession(9)
    assert provider.handle(CloseSession(9)) == CloseSession(9)


# --- enclave sessions ----------------------------------------------------------------


def test_session_matches_reference(toy_world):
    weights, _, enclave, transport, _ = toy_world
    prompt = [3, 1, 4, 1, 5, 9]
    assert enclave.run_session(transport, prompt, 8) == reference_generate(weights, prompt, 8)


class _BadAck:
    """Transport that answers OpenSession with `ack(session)` instead of the echo."""

    def __init__(self, inner, ack):
        self.inner, self.ack, self.sent = inner, ack, []

    def request(self, msg):
        self.sent.append(msg)
        if isinstance(msg, OpenSession):
            return self.ack(msg.session)
        return self.inner.request(msg)


@pytest.mark.parametrize(
    "ack",
    [lambda sid: CloseSession(sid), lambda sid: OpenSession(sid + 1)],
    ids=["wrong-type", "wrong-session"],
)
def test_bad_open_session_ack_fails_before_any_request(toy_world, ack):
    _, _, enclave, transport, _ = toy_world
    wire = _BadAck(transport, ack)
    with pytest.raises(ProtocolError, match="OpenSession"):
        enclave.run_session(wire, [1, 2, 3], 4)
    assert not any(isinstance(m, MatMulRequest) for m in wire.sent)


def test_session_reuses_pools_for_second_prompt(toy_world):
    weights, _, enclave, transport, _ = toy_world
    a = enclave.run_session(transport, [1, 2, 3], 4)
    b = enclave.run_session(transport, [4, 5, 6], 4)
    assert a == reference_generate(weights, [1, 2, 3], 4)
    assert b == reference_generate(weights, [4, 5, 6], 4)


def test_prompt_is_one_request_per_op_before_the_first_token(toy_world):
    weights, _, enclave, transport, transcript = toy_world
    cfg = weights.config
    prompt = [3, 1, 4, 1, 5, 9, 2]
    enclave.run_session(transport, prompt, 5)
    requests = [e.message for e in transcript.entries if isinstance(e.message, MatMulRequest)]
    prefill = [(m.step, m.op_id, m.masked.rows) for m in requests if m.step < len(prompt)]
    assert len(prefill) == 4 * cfg.layers + 1
    assert prefill == [(0, op, 1 if op == "head" else len(prompt)) for op in cfg.op_ids()]
    decode_steps = sorted({m.step for m in requests if m.step >= len(prompt)})
    assert decode_steps == list(range(len(prompt), len(prompt) + 4))


def test_step_and_op_never_repeat_in_a_session(toy_world):
    _, _, enclave, transport, transcript = toy_world
    for prompt in ([5], [1, 2, 3], list(range(20))):
        enclave.run_session(transport, prompt, 6)
    keys = [
        (e.message.session, e.message.step, e.message.op_id)
        for e in transcript.entries
        if isinstance(e.message, MatMulRequest)
    ]
    assert len(keys) > 3 * 9 and len(set(keys)) == len(keys)


def test_longest_prompt_decodes_and_a_full_one_sends_nothing(toy_world):
    weights, _, enclave, transport, transcript = toy_world
    max_seq = weights.config.max_seq
    longest = [int(t) for t in np.random.default_rng(8).integers(0, 64, max_seq - 1)]
    # one free position: the prefill token is fed back once
    assert enclave.run_session(transport, longest, 2) == reference_generate(weights, longest, 2)
    start = len(transcript.entries)
    with pytest.raises(errors.SessionExhausted):
        enclave.run_session(transport, longest + [1], 4)
    assert not any(isinstance(e.message, MatMulRequest) for e in transcript.entries[start:])


def test_session_negative_max_new_sends_no_matmul(toy_world):
    _, _, enclave, transport, transcript = toy_world
    with pytest.raises(errors.BadDims):
        enclave.run_session(transport, [3, 4, 5], -1)
    assert not any(isinstance(e.message, MatMulRequest) for e in transcript.entries)


@pytest.mark.parametrize("max_new", [2.5, True])
def test_session_non_int_max_new_sends_no_matmul(toy_world, max_new):
    _, _, enclave, transport, transcript = toy_world
    with pytest.raises(errors.BadDims):
        enclave.run_session(transport, [3, 4, 5], max_new)
    assert not any(isinstance(e.message, MatMulRequest) for e in transcript.entries)


# reference_generate tokens of a d=256 model, computed when every ring
# product went through numpy's `a @ b`.  Comparing a session against
# reference_generate alone cannot catch a ring_matmul fault, since both
# run their products through ring_matmul.
WIDE_CFG = ModelConfig(vocab=256, d=256, layers=2, heads=8, d_ff=1024)
WIDE_PROMPT = list(range(1, 17))
WIDE_GOLDEN = [186, 110, 83, 94, 161, 158, 62, 141]


def test_wide_model_golden_tokens():
    weights = init_weights(WIDE_CFG, seed=1234)
    assert reference_generate(weights, WIDE_PROMPT, 8) == WIDE_GOLDEN
    provider = ProviderState(weights.provider_view(), WIDE_CFG.params)
    enclave = Enclave(weights.enclave_view(), master_seed=7)
    assert enclave.run_session(InProcTransport(provider), WIDE_PROMPT, 8) == WIDE_GOLDEN


def test_fixed_right_operands_are_held_once_column_major():
    weights = init_weights(WIDE_CFG, seed=1234)
    for op_id, w in weights.ops.items():
        assert w.data.flags.f_contiguous and not w.data.flags.c_contiguous, op_id
    assert weights.embedding.data.flags.c_contiguous
    view = weights.provider_view()
    provider = ProviderState(view, WIDE_CFG.params)
    for op_id, w in view.items():
        assert provider.ops[op_id].data.flags.f_contiguous, op_id
        assert np.shares_memory(provider.ops[op_id].data, w.data), op_id

    transcript = Transcript()
    enclave = Enclave(weights.enclave_view(), master_seed=7)
    enclave.setup(RecordingTransport(InProcTransport(provider), transcript))
    sent = {e.message.op_id: e.message.r for e in transcript.entries if isinstance(e.message, SetupBase)}
    pools = {e.message.op_id: e.message.pool for e in transcript.entries if isinstance(e.message, PoolReply)}
    assert set(sent) == set(pools) == set(enclave.bases) == set(WIDE_CFG.op_ids())
    for op_id, base in enclave.bases.items():
        assert base.r.data.flags.f_contiguous and base.pool.data.flags.f_contiguous
        assert sent[op_id].data.flags.c_contiguous  # the wire form is unchanged
        assert base.r == sent[op_id] and base.pool == pools[op_id], op_id

    # row-major weights handed to the provider are converted once
    rows = {op_id: RingMatrix(np.ascontiguousarray(w.data), P)
            for op_id, w in init_weights(ModelConfig(), seed=1234).provider_view().items()}
    assert all(w.data.flags.c_contiguous for w in rows.values())
    converted = ProviderState(rows, P).ops
    assert all(converted[op_id].data.flags.f_contiguous and converted[op_id] == w
               for op_id, w in rows.items())


def test_second_enclave_against_same_provider_refused(toy_weights, toy_world):
    _, provider, _, transport, _ = toy_world
    enclave1 = Enclave(toy_weights.enclave_view(), master_seed=99)
    enclave1.setup(transport)
    enclave2 = Enclave(toy_weights.enclave_view(), master_seed=100)
    with pytest.raises(SketchReissue):
        enclave2.setup(transport)
    # same seed, byte-identical bases: still refused, since its sessions would
    # reuse enclave1's private masks
    with pytest.raises(SketchReissue):
        Enclave(toy_weights.enclave_view(), master_seed=99).setup(transport)


def test_same_op_twice_in_one_step_refused(toy_world):
    from remo.protocol import _MaskedWeightedOps
    from remo.prg import PrgKey

    _, _, enclave, transport, _ = toy_world
    enclave.setup(transport)
    weighted = _MaskedWeightedOps(enclave.bases, transport, 1, PrgKey.from_int(1))
    x = RingMatrix.from_ints([[1] * 32], P)
    weighted("l0.wqkv", x, 0)
    weighted("l0.wo", x, 0)
    with pytest.raises(ProtocolError, match="twice in step 0"):
        weighted("l0.wqkv", x, 0)
    weighted("l0.wqkv", x, 1)  # a new step starts a fresh set


def test_wrong_shape_reply_aborts_session(toy_weights):
    class WrongShapeProvider(ProviderState):
        def _matmul(self, msg):
            good = super()._matmul(msg)
            wide = np.concatenate([good.product.data, good.product.data], axis=1)
            return MatMulReply(msg.session, msg.step, msg.op_id, RingMatrix(wide, self.params))

    provider = WrongShapeProvider(toy_weights.provider_view(), P)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=1)
    with pytest.raises(ShapeMismatch):
        enclave.run_session(InProcTransport(provider), [1, 2, 3], 4)


# --- TCP ----------------------------------------------------------------------------


def test_tcp_matches_inproc_bitwise(toy_weights):
    prompt = [8, 6, 7, 5, 3, 0, 9]
    tr_inproc = Transcript()
    provider = ProviderState(toy_weights.provider_view(), P)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=7)
    out_inproc = enclave.run_session(RecordingTransport(InProcTransport(provider), tr_inproc), prompt, 6)

    tr_tcp = Transcript()
    state = ProviderState(toy_weights.provider_view(), P)
    server = ProviderServer(state, port=0)
    try:
        transport = RecordingTransport(TcpTransport(*server.address), tr_tcp)
        enclave2 = Enclave(toy_weights.enclave_view(), master_seed=7)
        out_tcp = enclave2.run_session(transport, prompt, 6)
        transport.close()
    finally:
        server.shutdown()
    assert out_tcp == out_inproc
    # transcripts agree bitwise: requests as sent, replies as decoded
    assert tr_tcp.frames() == tr_inproc.frames()


def test_tcp_concurrent_sessions_match_reference(toy_weights):
    state = ProviderState(toy_weights.provider_view(), P)
    server = ProviderServer(state, port=0)
    enclave = Enclave(toy_weights.enclave_view(), master_seed=13)
    boot = TcpTransport(*server.address)
    enclave.setup(boot)
    boot.close()
    prompts = [[1, 2, 3, 4], [9, 8, 7, 6], [5, 5, 5, 5]]
    results: dict[int, list[int]] = {}
    failures: list[Exception] = []

    def run(i: int) -> None:
        try:
            t = TcpTransport(*server.address)
            results[i] = enclave.run_session(t, prompts[i], 5)
            t.close()
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(prompts))]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        server.shutdown()
    assert not failures
    for i, prompt in enumerate(prompts):
        assert results[i] == reference_generate(toy_weights, prompt, 5)


def test_tcp_connect_close_clean(toy_weights):
    state = ProviderState(toy_weights.provider_view(), P)
    server = ProviderServer(state, port=0)
    try:
        t = TcpTransport(*server.address)
        t.close()
    finally:
        server.shutdown()


def test_tcp_malformed_first_frame_gets_error_reply(toy_weights):
    state = ProviderState(toy_weights.provider_view(), P)
    server = ProviderServer(state, port=0)
    try:
        sock = socket.create_connection(server.address, timeout=5.0)
        sock.sendall(struct.pack("<I", 3) + b"\x63ab")  # unknown tag 0x63
        header = sock.recv(4)
        (length,) = struct.unpack("<I", header)
        body = sock.recv(length)
        reply = decode_message(header + body)
        assert isinstance(reply, ErrorReply)
        assert sock.recv(1) == b""  # provider closed after the error
        sock.close()
    finally:
        server.shutdown()


def _with_ring_width(frame: bytes, k: int) -> bytes:
    """`frame` with the k byte of its one RMX1 header set to `k`."""
    at = frame.index(b"RMX1") + 12  # after magic, rows u32 and cols u32
    return frame[:at] + bytes([k]) + frame[at + 1 :]


def test_frame_with_ring_width_other_than_64_is_refused(toy_weights):
    frame = encode_message(SetupBase("l0.wqkv", RingMatrix.from_ints([[1, 2], [3, 4]], P)))
    assert decode_message(_with_ring_width(frame, 64)) == decode_message(frame)
    server = ProviderServer(ProviderState(toy_weights.provider_view(), P), port=0)
    try:
        for k in (0, 8, 32, 63, 65, 255):
            bad = _with_ring_width(frame, k)
            with pytest.raises(errors.DecodeError):
                decode_message(bad)
            with socket.create_connection(server.address, timeout=5.0) as sock:
                sock.sendall(bad)
                header = sock.recv(4)
                (length,) = struct.unpack("<I", header)
                reply = decode_message(header + sock.recv(length))
                assert isinstance(reply, ErrorReply) and reply.code == "DecodeError", (k, reply)
    finally:
        server.shutdown()


def test_tcp_unreachable_host():
    with pytest.raises(TransportClosed):
        TcpTransport("127.0.0.1", 1, timeout=0.5)


def test_tcp_timeout_closes_instead_of_desyncing():
    # a server that answers each request late, echoing its session id
    listener = socket.create_server(("127.0.0.1", 0))

    def slow_server() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5.0)
            try:
                while True:
                    msg = decode_message(remo.protocol.read_frame(conn))
                    time.sleep(0.5)
                    conn.sendall(encode_message(OpenSession(msg.session)))
            except (TransportClosed, OSError):  # the client hung up
                pass

    server = threading.Thread(target=slow_server, daemon=True)
    server.start()
    try:
        transport = TcpTransport(*listener.getsockname(), timeout=0.2)
        with pytest.raises(TransportClosed):
            transport.request(OpenSession(111))
        time.sleep(0.6)  # the late reply to 111 has arrived by now
        with pytest.raises(TransportClosed):
            transport.request(OpenSession(222))
        transport.close()
    finally:
        listener.close()
        server.join(timeout=5.0)
    assert not server.is_alive()


def test_server_prunes_finished_connection_threads(toy_weights):
    server = ProviderServer(ProviderState(toy_weights.provider_view(), P), port=0)
    try:
        for _ in range(50):
            TcpTransport(*server.address).close()
        time.sleep(0.3)
        TcpTransport(*server.address).close()
        time.sleep(0.3)
        assert len(server._threads) <= 5
    finally:
        server.shutdown()


def test_shutdown_does_not_wait_out_idle_connections(toy_weights):
    server = ProviderServer(ProviderState(toy_weights.provider_view(), P), port=0)
    clients = [TcpTransport(*server.address) for _ in range(3)]
    try:
        deadline = time.monotonic() + 5.0
        while sum(t.is_alive() for t in server._threads) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        threads = list(server._threads)
        assert sum(t.is_alive() for t in threads) == 3
        started = time.monotonic()
        server.shutdown()
        took = time.monotonic() - started
    finally:
        for c in clients:
            c.close()
    assert took < 1.0, took
    assert not any(t.is_alive() for t in threads)


def _toy_frames() -> list[bytes]:
    """Well-formed requests the toy provider answers with a product or a pool."""
    rng = np.random.default_rng(5)
    base = RingMatrix.from_ints(rng.integers(0, 2**63, (16, 16)).tolist(), P)  # R of [I | R]
    row = RingMatrix.from_ints(rng.integers(0, 2**63, (2, 32)).tolist(), P)
    return [
        encode_message(SetupBase("l0.wo", base)),
        encode_message(MatMulRequest(3, 0, "l0.wqkv", row)),
    ]


_SERVER_FRAMES = _VALID_FRAMES + _toy_frames()
FUZZ_IDLE_TIMEOUT_S = 0.1


def _fuzzed_frame(data) -> bytes:
    frame = bytearray(data.draw(st.sampled_from(_SERVER_FRAMES), label="frame"))
    spots = st.tuples(st.integers(0, len(frame) - 1), st.integers(0, 255))
    for i, value in data.draw(st.lists(spots, max_size=3), label="edits"):
        frame[i] = value
    return bytes(frame[: data.draw(st.integers(1, len(frame)), label="cut")])


def _read_replies(sock: socket.socket) -> list:
    """Every reply until the server closes the connection, decoded."""
    replies = []
    while True:
        try:
            frame = remo.protocol.read_frame(sock)
        except TransportClosed:
            return replies
        replies.append(decode_message(frame))


def test_provider_server_survives_fuzzed_frames(toy_weights):
    server = ProviderServer(
        ProviderState(toy_weights.provider_view(), P), port=0, idle_timeout=FUZZ_IDLE_TIMEOUT_S
    )
    seen = set()
    try:

        @given(data=st.data())
        @settings(max_examples=80, deadline=None)
        def one_connection(data):
            frames = [_fuzzed_frame(data) for _ in range(data.draw(st.integers(1, 3)))]
            with socket.create_connection(server.address, timeout=5.0) as sock:
                sock.sendall(b"".join(frames))
                if data.draw(st.booleans(), label="half-close"):
                    # else the server's idle timeout ends the connection; the
                    # server may have reset it already, after an error reply
                    with contextlib.suppress(OSError):
                        sock.shutdown(socket.SHUT_WR)
                replies = _read_replies(sock)
            for reply in replies:
                seen.add(type(reply))
                if isinstance(reply, ErrorReply):  # names a RemoError the client can rebuild
                    assert type(errors.from_code(reply.code)).__name__ == reply.code

        one_connection()
        for t in list(server._threads):
            t.join(timeout=2.0)
            assert not t.is_alive()
    finally:
        started = time.monotonic()
        server.shutdown()
        took = time.monotonic() - started
    assert took < 2.0 and not server._accept_thread.is_alive()
    assert ErrorReply in seen


# --- transcript + audit ----------------------------------------------------------------


def test_honest_transcript_passes_audit(toy_world):
    weights, provider, enclave, transport, transcript = toy_world
    for prompt in ([1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]):
        enclave.run_session(transport, prompt, 8)
    report = audit_transcript(transcript)
    assert report.passed, {k: v.detail for k, v in report.clauses.items()}


def test_uniformity_critical_value_is_chi2_ppf(toy_world):
    # the clause compares each byte with chi2.ppf(1 - alpha, 255), shown to 0.1
    from scipy.stats import chi2

    assert remo.protocol.UNIFORMITY_CRITICAL == chi2.ppf(0.99, 255)
    _, _, enclave, transport, transcript = toy_world
    for prompt in ([1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]):
        enclave.run_session(transport, prompt, 8)
    honest = audit_transcript(transcript).clauses["uniformity"]
    assert honest.ok and "vs critical 310.5 at alpha=0.01" in honest.detail


def test_no_masking_fails_uniformity(toy_world, monkeypatch):
    _, provider, enclave, transport, transcript = toy_world
    monkeypatch.setattr(remo.protocol, "derive_step_mask", zero_step_mask)
    rng = np.random.default_rng(3)
    for _ in range(16):
        enclave.run_session(transport, rng.integers(0, 64, 5).tolist(), 4)
    report = audit_transcript(transcript)
    assert not report.clauses["uniformity"].ok


def test_one_raw_copy_per_step_fails_uniformity(toy_world, monkeypatch):
    # the low byte of an unmasked fixed-point row looks uniform; its top
    # byte does not, so one raw op in each step is enough to fail
    _, provider, enclave, transport, transcript = toy_world
    real = remo.protocol.derive_step_mask

    def head_unmasked(prg, step, op_id, n, m, params):
        if op_id == "head":
            return zero_step_mask(prg, step, op_id, n, m, params)
        return real(prg, step, op_id, n, m, params)

    monkeypatch.setattr(remo.protocol, "derive_step_mask", head_unmasked)
    rng = np.random.default_rng(3)
    for _ in range(16):
        enclave.run_session(transport, rng.integers(0, 64, 5).tolist(), 4)
    clause = audit_transcript(transcript).clauses["uniformity"]
    assert not clause.ok
    assert "low byte" in clause.detail and "top byte" in clause.detail


def test_duplicated_payload_fails_freshness(toy_world):
    _, provider, enclave, transport, transcript = toy_world
    enclave.run_session(transport, [1, 2, 3, 4, 5, 6, 7, 8], 8)
    dup_src = next(
        e.message for e in transcript.entries if isinstance(e.message, MatMulRequest)
    )
    forged = MatMulRequest(dup_src.session, dup_src.step + 1000, dup_src.op_id, dup_src.masked)
    transcript.append(0, forged)
    report = audit_transcript(transcript)
    assert not report.clauses["freshness"].ok


def test_role_separation_is_structural(toy_world):
    # provider state carries weights and bookkeeping only; the enclave side
    # never holds anything equal to a weight matrix
    weights, provider, enclave, transport, _ = toy_world
    assert set(vars(provider)) == {"ops", "params", "issued", "_lock"}
    enclave.run_session(transport, [1, 2, 3], 2)
    all_w = list(weights.provider_view().values())
    for base in enclave.bases.values():
        assert all(base.pool != w for w in all_w)
        assert all(base.r != w and base.public_base != w for w in all_w)
    assert not hasattr(enclave, "ops")


def test_per_session_reply_ordering(toy_world):
    _, provider, enclave, transport, transcript = toy_world
    enclave.run_session(transport, [1, 2, 3], 4)
    req_keys = [
        (e.message.step, e.message.op_id)
        for e in transcript.entries
        if isinstance(e.message, MatMulRequest)
    ]
    rep_keys = [
        (e.message.step, e.message.op_id)
        for e in transcript.entries
        if isinstance(e.message, MatMulReply)
    ]
    assert req_keys == rep_keys
