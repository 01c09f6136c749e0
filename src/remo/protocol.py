"""Two-party wire protocol: setup, masked matmul service, transcripts, audit.

Frame format: u32 LE length of (tag + payload), then a 1-byte tag and
the payload.  Matrix payloads reuse the RMX1 encoding.  The provider is
a stateless-by-plaintext request/reply machine: it holds weight
matrices and per-op issue flags, never embeddings, tokens or KV data.

Two interchangeable transports run the identical message flow: direct
in-process calls and framed TCP (default port 7431).  The wire is
observed at the transport, never inside the provider: a
RecordingTransport wraps either one and appends every request it sends
and every reply it gets to a Transcript, which can be audited for
schema, masking uniformity and per-step freshness.  The enclave checks
every reply it acts on in one place, `_expect`.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .errors import (
    BadDims,
    BadParams,
    BindFailure,
    DecodeError,
    LengthMismatch,
    ProtocolError,
    ShapeMismatch,
    SketchReissue,
    TransportClosed,
    UnknownOp,
)
from .masking import MaskBase, MaskIssuer, derive_step_mask, mask_embedding, recover
from .model import DecoderEngine, EnclaveParams, ModelConfig
from .prg import PrgKey
from .ring import QuantParams, RingMatrix, column_major, decode_matrix, encode_matrix, ring_matmul

DEFAULT_PORT = 7431
MAX_FRAME = 1 << 28  # desk-scale sanity cap


# --- message schema -----------------------------------------------------------


@dataclass(frozen=True)
class SetupBase:
    op_id: str
    r: RingMatrix  # R, m x (d - m), of the op's public base [I_m | R]


@dataclass(frozen=True)
class PoolReply:
    op_id: str
    pool: RingMatrix


@dataclass(frozen=True)
class MatMulRequest:
    session: int
    step: int
    op_id: str
    masked: RingMatrix


@dataclass(frozen=True)
class MatMulReply:
    session: int
    step: int
    op_id: str
    product: RingMatrix


@dataclass(frozen=True)
class OpenSession:
    session: int


@dataclass(frozen=True)
class CloseSession:
    session: int


@dataclass(frozen=True)
class ErrorReply:
    code: str
    detail: str


Message = SetupBase | PoolReply | MatMulRequest | MatMulReply | OpenSession | CloseSession | ErrorReply

_TAGS = {
    SetupBase: 1,
    PoolReply: 2,
    MatMulRequest: 3,
    MatMulReply: 4,
    OpenSession: 5,
    CloseSession: 6,
    ErrorReply: 7,
}
_BY_TAG = {v: k for k, v in _TAGS.items()}


def _pack_str(s: str, width: int = 2) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) >= 1 << (8 * width):
        raise ProtocolError("string field too long")
    return len(raw).to_bytes(width, "little") + raw


def _unpack_str(buf: bytes, offset: int, width: int = 2) -> tuple[str, int]:
    if len(buf) - offset < width:
        raise LengthMismatch("truncated string length")
    n = int.from_bytes(buf[offset : offset + width], "little")
    offset += width
    if len(buf) - offset < n:
        raise LengthMismatch("truncated string body")
    try:
        return buf[offset : offset + n].decode("utf-8"), offset + n
    except UnicodeDecodeError as exc:
        raise DecodeError("invalid utf-8 in string field") from exc


def _encode_payload(msg: Message) -> bytes:
    if isinstance(msg, SetupBase):
        return _pack_str(msg.op_id) + encode_matrix(msg.r)
    if isinstance(msg, PoolReply):
        return _pack_str(msg.op_id) + encode_matrix(msg.pool)
    if isinstance(msg, (MatMulRequest, MatMulReply)):
        mat = msg.masked if isinstance(msg, MatMulRequest) else msg.product
        return (
            struct.pack("<QI", msg.session, msg.step)
            + _pack_str(msg.op_id)
            + encode_matrix(mat)
        )
    if isinstance(msg, (OpenSession, CloseSession)):
        return struct.pack("<Q", msg.session)
    if isinstance(msg, ErrorReply):
        return _pack_str(msg.code) + _pack_str(msg.detail, width=4)
    raise ProtocolError(f"unsupported message {type(msg).__name__}")


def encode_message(msg: Message) -> bytes:
    """Full frame: length prefix, tag byte, payload."""
    body = bytes([_TAGS[type(msg)]]) + _encode_payload(msg)
    return struct.pack("<I", len(body)) + body


def decode_message(frame: bytes) -> Message:
    """Inverse of encode_message for exactly one frame."""
    if len(frame) < 5:
        raise LengthMismatch("frame shorter than header")
    (length,) = struct.unpack_from("<I", frame, 0)
    if length != len(frame) - 4:
        raise LengthMismatch(f"frame length field {length} != body {len(frame) - 4}")
    tag = frame[4]
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise DecodeError(f"unknown message tag {tag}")
    buf, offset = frame, 5

    def done(msg: Message, end: int) -> Message:
        if end != len(buf):
            raise DecodeError("trailing bytes in frame")
        return msg

    if cls in (SetupBase, PoolReply):
        op_id, offset = _unpack_str(buf, offset)
        mat, offset = decode_matrix(buf, offset)
        return done(cls(op_id, mat), offset)
    if cls in (MatMulRequest, MatMulReply):
        if len(buf) - offset < 12:
            raise LengthMismatch("truncated matmul header")
        session, step = struct.unpack_from("<QI", buf, offset)
        offset += 12
        op_id, offset = _unpack_str(buf, offset)
        mat, offset = decode_matrix(buf, offset)
        return done(cls(session, step, op_id, mat), offset)
    if cls in (OpenSession, CloseSession):
        if len(buf) - offset < 8:
            raise LengthMismatch("truncated session id")
        (session,) = struct.unpack_from("<Q", buf, offset)
        return done(cls(session), offset + 8)
    code, offset = _unpack_str(buf, offset)
    detail, offset = _unpack_str(buf, offset, width=4)
    return done(ErrorReply(code, detail), offset)


# --- transcript ---------------------------------------------------------------

TO_PROVIDER = 0
FROM_PROVIDER = 1


@dataclass(frozen=True)
class TranscriptEntry:
    direction: int
    message: Message


@dataclass
class Transcript:
    """Append-only log of everything the provider sees."""

    entries: list[TranscriptEntry] = field(default_factory=list)

    def append(self, direction: int, message: Message) -> None:
        self.entries.append(TranscriptEntry(direction, message))

    def frames(self) -> list[tuple[int, bytes]]:
        """(direction, frame bytes) of every entry, in order."""
        return [(e.direction, encode_message(e.message)) for e in self.entries]


class RecordingTransport:
    """Transport wrapper appending each request, then its reply, to `transcript`.

    The request is logged before it is sent, so one whose reply never
    comes is logged too.  Like the transports it wraps, it serves one
    caller at a time.
    """

    def __init__(self, inner, transcript: Transcript):
        self.inner = inner
        self.transcript = transcript

    def request(self, msg: Message) -> Message:
        self.transcript.append(TO_PROVIDER, msg)
        reply = self.inner.request(msg)
        self.transcript.append(FROM_PROVIDER, reply)
        return reply

    def close(self) -> None:
        self.inner.close()


# --- provider -----------------------------------------------------------------


def _error_reply(exc: errors.RemoError) -> ErrorReply:
    return ErrorReply(errors.error_code(exc), str(exc))


class ProviderState:
    """Weight holder; answers setup and masked-matmul requests.

    Holds only weight matrices and per-op issue flags: no embeddings,
    tokens or KV values are constructible from the messages it accepts.
    Sessions are not tracked; OpenSession and CloseSession are
    acknowledged by echo.  Weights are only ever right operands, so they
    are held column-major (`ring.column_major`), converted here if need be.

    Trust model: weight privacy against the client assumes an attested
    enclave.  Any MatMulRequest of the d_in unit rows reads an op's W with
    no setup, and R = 0 reads W[:m]; one base per op bounds how many
    sketches an op releases, not what one reveals.
    """

    def __init__(self, ops: dict[str, RingMatrix], params: QuantParams):
        self.ops = {op_id: column_major(w) for op_id, w in ops.items()}
        self.params = params
        self.issued: set[str] = set()
        self._lock = threading.Lock()  # guards `issued`

    def handle(self, msg: Message) -> Message:
        try:
            return self._dispatch(msg)
        except errors.RemoError as exc:
            return _error_reply(exc)

    def _dispatch(self, msg: Message) -> Message:
        if isinstance(msg, SetupBase):
            return self._setup(msg)
        if isinstance(msg, MatMulRequest):
            return self._matmul(msg)
        if isinstance(msg, (OpenSession, CloseSession)):
            return type(msg)(msg.session)
        raise ProtocolError(f"provider cannot handle {type(msg).__name__}")

    def _weights_for(self, op_id: str, x: RingMatrix, cols: int, what: str) -> RingMatrix:
        """The weights `x` (the request's `what`, `cols` wide) is multiplied by, once it fits them."""
        w = self.ops.get(op_id)
        if w is None:
            raise UnknownOp(f"no weight matrix registered for {op_id!r}")
        if cols != w.rows:
            raise ShapeMismatch(f"{what} for {op_id!r} has {cols} cols, weights expect {w.rows}")
        if x.params != self.params:
            raise ShapeMismatch(f"{what} params differ from provider params")
        return w

    def _setup(self, msg: SetupBase) -> PoolReply:
        r, m = msg.r, msg.r.rows
        if m < 1 or r.cols < 1:  # R.cols >= 1 keeps m < d: d independent rows would solve for W
            raise BadDims(f"R for {msg.op_id!r} is {r.rows}x{r.cols}, needs >= 1 row and >= 1 col")
        w = self._weights_for(msg.op_id, r, m + r.cols, "base [I | R]")
        with self._lock:
            if msg.op_id in self.issued:
                raise SketchReissue(f"base for {msg.op_id!r} already issued")
            self.issued.add(msg.op_id)
        # [I | R] @ W as a raw product, scale 2f: the enclave subtracts before rescaling
        tail = ring_matmul(r, RingMatrix(w.data[m:], w.params))
        return PoolReply(msg.op_id, RingMatrix(w.data[:m] + tail.data, w.params))

    def _matmul(self, msg: MatMulRequest) -> MatMulReply:
        w = self._weights_for(msg.op_id, msg.masked, msg.masked.cols, "input")
        return MatMulReply(msg.session, msg.step, msg.op_id, ring_matmul(msg.masked, w))


# --- transports ---------------------------------------------------------------


class InProcTransport:
    """Direct call into a ProviderState; same message flow as TCP."""

    def __init__(self, provider: ProviderState):
        self.provider = provider

    def request(self, msg: Message) -> Message:
        return self.provider.handle(msg)

    def close(self) -> None:
        pass


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(n - got)
        except socket.timeout as exc:
            raise TransportClosed("socket timeout") from exc
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc
        if not chunk:
            raise TransportClosed("peer closed connection")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes:
    header = _recv_exact(sock, 4)
    (length,) = struct.unpack("<I", header)
    if length > MAX_FRAME:
        raise DecodeError(f"frame of {length} bytes exceeds cap")
    return header + _recv_exact(sock, length)


class TcpTransport:
    """Framed request/reply client over a TCP connection."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportClosed(f"cannot connect to {host}:{port}: {exc}") from exc
        self.sock.settimeout(timeout)

    def request(self, msg: Message) -> Message:
        frame = encode_message(msg)
        try:
            self.sock.sendall(frame)
            reply = read_frame(self.sock)
        except OSError as exc:
            self.close()
            raise TransportClosed(str(exc)) from exc
        except errors.RemoError:
            self.close()  # a late or partial reply would answer the next request
            raise
        return decode_message(reply)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ProviderServer:
    """One session per connection; concurrent connections share the state."""

    def __init__(self, state: ProviderState, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 idle_timeout: float = 30.0):
        self.state = state
        self.idle_timeout = idle_timeout
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            raise BindFailure(f"cannot bind {host}:{port}: {exc}") from exc
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()  # open connections, for shutdown
        self._conns_lock = threading.Lock()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._conns_lock:
                self._conns.add(conn)
            t = threading.Thread(target=self._serve_conn, args=(conn,), daemon=True)
            t.start()
            self._threads = [old for old in self._threads if old.is_alive()] + [t]

    def _serve_conn(self, conn: socket.socket) -> None:
        conn.settimeout(self.idle_timeout)
        try:
            while not self._stop.is_set():
                try:
                    msg = decode_message(read_frame(conn))
                except TransportClosed:
                    return
                except (DecodeError, LengthMismatch) as exc:
                    self._send(conn, _error_reply(exc))
                    return
                if not self._send(conn, self.state.handle(msg)):
                    return
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            conn.close()

    @staticmethod
    def _send(conn: socket.socket, msg: Message) -> bool:
        try:
            conn.sendall(encode_message(msg))
            return True
        except OSError:
            return False

    def shutdown(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=2.0)
        with self._conns_lock:  # wake each thread blocked in recv on an idle connection
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for t in self._threads:
            t.join(timeout=2.0)


# --- enclave ------------------------------------------------------------------


def _expect(reply: Message, cls: type, **echo):
    """`reply` if it is a `cls` whose fields equal `echo`.

    An ErrorReply is re-raised as the typed error it carries; any other
    reply raises ProtocolError.
    """
    if isinstance(reply, ErrorReply):
        raise errors.from_code(reply.code, reply.detail)
    if type(reply) is not cls or any(getattr(reply, k) != v for k, v in echo.items()):
        raise ProtocolError(f"expected {cls.__name__} echoing {echo}, got {reply!r}")
    return reply


class Enclave:
    """Client-trusted party: holds prompts, masks, KV cache and tokens.

    Never constructs or receives a weight matrix; all it learns from the
    provider are restoration pools (underdetermined sketches) and masked
    products.
    """

    def __init__(self, params: EnclaveParams, master_seed: int, mask_ratio: float = 0.5):
        if not (0.0 < mask_ratio < 1.0):
            raise BadParams(f"mask_ratio must be in (0, 1), got {mask_ratio}")
        self.params = params
        self.cfg: ModelConfig = params.config
        self.mask_ratio = mask_ratio
        self._master = PrgKey.from_int(master_seed)
        self._issuer = MaskIssuer(self._master.child("setup"), self.cfg.params)
        self.bases: dict[str, MaskBase] = {}
        self._session_counter = 0
        self._lock = threading.Lock()

    def mask_rows(self, d_in: int) -> int:
        return max(1, int(d_in * self.mask_ratio))

    def setup(self, transport) -> None:
        """Phase 1: release one public base per weighted op, keep it with its pool.

        Idempotent per enclave: an op already in `bases` is skipped, and
        the provider refuses a second base for an op.  The loop holds the
        enclave's lock, so concurrent first sessions release each base
        once.  A pool whose shape or params do not fit its base raises
        ShapeMismatch and leaves the op out of `bases`.
        """
        with self._lock:
            for op_id in self.cfg.op_ids():
                if op_id in self.bases:
                    continue
                d_in, d_out = self.cfg.op_dims(op_id)
                r = self._issuer.gen_public_base(op_id, self.mask_rows(d_in), d_in)
                reply = transport.request(SetupBase(op_id, r))
                pool = _expect(reply, PoolReply, op_id=op_id).pool
                want = (r.rows, d_out)
                if pool.shape != want or pool.params != r.params:
                    raise ShapeMismatch(
                        f"pool for {op_id!r} is {pool!r}, expected {want[0]}x{want[1]} "
                        f"with the base's {r.params}"
                    )
                self.bases[op_id] = MaskBase(column_major(r), column_major(pool))

    def run_session(self, transport, prompt, max_new: int) -> list[int]:
        """Setup if needed, then prefill and decode one prompt.

        Opens a provider session, prefills the prompt with one request
        per weighted op (step 0, one row per prompt token; `head` gets the
        last row only), decodes up to `max_new` tokens with one request
        per op per step, every product masked, outsourced and recovered,
        and closes the session even when decoding fails.
        """
        self.setup(transport)
        with self._lock:
            self._session_counter += 1
            sid = self._session_counter
        _expect(transport.request(OpenSession(sid)), OpenSession, session=sid)
        weighted = _MaskedWeightedOps(self.bases, transport, sid, self._master.child("session", sid))
        try:
            return DecoderEngine(self.params, weighted).generate(prompt, max_new)
        finally:
            try:
                transport.request(CloseSession(sid))  # its reply is not checked: this runs on failure too
            except TransportClosed:
                pass


class _MaskedWeightedOps:
    """One session's weighted-op evaluator: masks, outsources and recovers."""

    def __init__(self, bases: dict[str, MaskBase], transport, session_id: int, prg: PrgKey):
        self.bases = bases
        self.transport = transport
        self.session_id = session_id
        self.prg = prg
        self.step = -1
        self.sent: set[str] = set()  # ops outsourced in self.step

    def __call__(self, op_id: str, x: RingMatrix, step: int) -> RingMatrix:
        base = self.bases[op_id]
        if step != self.step:
            self.step, self.sent = step, set()
        if op_id in self.sent:
            raise ProtocolError(f"{op_id!r} outsourced twice in step {step}")
        self.sent.add(op_id)
        m_pvt = derive_step_mask(self.prg, step, op_id, x.rows, base.m, x.params)
        masked = mask_embedding(x, m_pvt, base.r)
        reply = self.transport.request(MatMulRequest(self.session_id, step, op_id, masked))
        reply = _expect(reply, MatMulReply, session=self.session_id, step=step, op_id=op_id)
        return recover(reply.product, m_pvt, base.pool)  # raises ShapeMismatch on a bad product


# --- transcript audit ----------------------------------------------------------

_TO_PROVIDER_TYPES = (OpenSession, SetupBase, MatMulRequest, CloseSession)
_FROM_PROVIDER_TYPES = (OpenSession, CloseSession, PoolReply, MatMulReply, ErrorReply)
_UNIFORMITY_MIN_SAMPLES = 2560  # 10 expected counts per 8-bit bin
UNIFORMITY_CRITICAL = 310.45738821990585  # chi2.ppf(0.99, 255): 256 bins at alpha = 0.01


@dataclass
class ClauseResult:
    ok: bool
    detail: str


@dataclass
class AuditReport:
    clauses: dict[str, ClauseResult]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.clauses.values())


def _chi_square(values: np.ndarray, bins: int) -> float:
    """Pearson statistic of values in [0, bins) against the uniform law."""
    counts = np.bincount(values.astype(np.int64), minlength=bins)
    expected = values.size / bins
    return float(np.sum((counts - expected) ** 2) / expected)


def audit_transcript(transcript: Transcript) -> AuditReport:
    """Check a provider-view log: schema, directions, mask uniformity, freshness."""
    clauses: dict[str, ClauseResult] = {}

    unknown = [
        e for e in transcript.entries if not isinstance(e.message, tuple(_TAGS.keys()))
    ]
    clauses["schema"] = ClauseResult(
        not unknown, f"{len(unknown)} message(s) outside the schema" if unknown else "all messages in schema"
    )

    bad_dir = [
        e
        for e in transcript.entries
        if (e.direction == TO_PROVIDER and not isinstance(e.message, _TO_PROVIDER_TYPES))
        or (e.direction == FROM_PROVIDER and not isinstance(e.message, _FROM_PROVIDER_TYPES))
    ]
    clauses["direction"] = ClauseResult(
        not bad_dir,
        f"{len(bad_dir)} message(s) flowing the wrong way" if bad_dir
        else "all enclave-bound matrices ride setup or matmul requests",
    )

    requests = [
        e.message
        for e in transcript.entries
        if e.direction == TO_PROVIDER and isinstance(e.message, MatMulRequest)
    ]

    n_samples = sum(m.masked.data.size for m in requests)
    if n_samples < _UNIFORMITY_MIN_SAMPLES:
        clauses["uniformity"] = ClauseResult(
            True, f"skipped: only {n_samples} samples (< {_UNIFORMITY_MIN_SAMPLES})"
        )
    else:
        # Low byte and top byte of each element.  Fixed-point values at
        # scale f have a near-uniform low byte even unmasked; their top byte
        # is almost always all zeros or all ones.
        data = np.concatenate([m.masked.data.ravel() for m in requests])
        low, top = data & np.uint64(0xFF), data >> np.uint64(56)
        stat_low, stat_top = (_chi_square(v, 256) for v in (low, top))
        clauses["uniformity"] = ClauseResult(
            max(stat_low, stat_top) <= UNIFORMITY_CRITICAL,
            f"chi-square low byte {stat_low:.1f}, top byte {stat_top:.1f} "
            f"vs critical {UNIFORMITY_CRITICAL:.1f} at alpha=0.01",
        )

    seen: dict[bytes, int] = {}
    dup = None
    for m in requests:
        key = m.masked.data.tobytes()
        prev = seen.get(key)
        if prev is not None and prev != m.step:
            dup = (prev, m.step)
            break
        seen.setdefault(key, m.step)
    clauses["freshness"] = ClauseResult(
        dup is None,
        f"identical payload at steps {dup[0]} and {dup[1]}" if dup else "no payload reused across steps",
    )

    return AuditReport(clauses)
