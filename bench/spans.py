"""Span recorder that times remo's layers from outside the package.

`install(tracer)` rebinds the names that `remo.protocol` and `remo.model`
imported (for example `remo.protocol.ring_matmul`) and wraps a few
methods, so every call records a span: id, parent (from a thread-local
stack), name, start, end, thread, session id and an optional count.
Spans stay in memory until `dump`; `restore` puts the original
functions back.  Nothing in `src/` is edited.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

import remo.masking
import remo.model
import remo.protocol

# span tuple fields
ID, PARENT, NAME, START, END, THREAD, SESSION, COUNT = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, session=None, count=None):
        """`fn` with every call recorded as a span called `name`.

        `session(args, result)` and `count(args, result)`, when given, set the
        span's session id and count once the call has returned.
        """
        local, ids, spans, clock = self._local, self._ids, self.spans, time.monotonic_ns

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = [0]
                local.thread = threading.get_ident()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((
                sid, parent, name, start, end, local.thread,
                session(args, result) if session is not None else None,
                count(args, result) if count is not None else 0,
            ))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


def _msg_session(args, result):
    return getattr(args[-1], "session", None)


def _reply_session(args, result):
    return getattr(result, "session", None)


def _frame_bytes(args, result):
    return len(args[0])


def _macs(args, result):
    a, b = args
    return a.rows * a.cols * b.cols


def install(tracer: Tracer):
    """Wrap remo's layer boundaries; returns a function that undoes it."""
    P, M, K = remo.protocol, remo.model, remo.masking
    w = tracer.wrap
    targets = [
        # protocol: the codec, on whichever side of the wire this process is
        (P, "encode_message", w("protocol.encode", P.encode_message,
                                _msg_session, lambda a, r: len(r))),
        (P, "decode_message", w("protocol.decode", P.decode_message,
                                _reply_session, _frame_bytes)),
        # provider: request dispatch and the GEMM it runs for setup and requests
        (P.ProviderState, "handle", w("provider.handle", P.ProviderState.handle,
                                      _msg_session)),
        (P, "ring_matmul", w("provider.gemm", P.ring_matmul, count=_macs)),
        # prg and masking, as the enclave calls them
        (P, "derive_step_mask", w("prg.derive", P.derive_step_mask,
                                  count=lambda a, r: r.data.nbytes)),
        (P, "mask_embedding", w("masking.mask_apply", P.mask_embedding)),
        (P, "recover", w("masking.recover", P.recover)),
        (K.MaskIssuer, "gen_public_base", w("masking.public_base",
                                            K.MaskIssuer.gen_public_base)),
        # ring and model: the structural half of DecoderEngine
        (M, "rescale", w("ring.rescale", M.rescale)),
        (M, "embed", w("model.embed", M.embed)),
        (M, "rms_norm", w("model.rms_norm", M.rms_norm)),
        (M, "silu", w("model.silu", M.silu)),
        (M, "attention_structural", w("model.attention", M.attention_structural)),
        (M, "argmax_token", w("model.argmax", M.argmax_token)),
        (M.KVCache, "view", w("model.kv_view", M.KVCache.view,
                              count=lambda a, r: r[0].data.nbytes + r[1].data.nbytes)),
        (M.KVCache, "append", w("model.kv_append", M.KVCache.append)),
        (M.DecoderEngine, "decode_step", w("model.decode_step", M.DecoderEngine.decode_step)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    for owner, attr, fn in targets:
        setattr(owner, attr, fn)

    def restore() -> None:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)

    return restore


class Spans:
    """Index over one process's spans: sessions resolved through parents, self times."""

    def __init__(self, spans: list[tuple]):
        by_id = {s[ID]: s for s in spans}
        child_ns: dict[int, int] = defaultdict(int)
        for s in spans:
            child_ns[s[PARENT]] += s[END] - s[START]
        self.self_ns = {s[ID]: s[END] - s[START] - child_ns[s[ID]] for s in spans}
        session: dict[int, object] = {0: None}

        def resolve(sid: int):
            chain = []
            while sid not in session:
                span = by_id.get(sid)
                if span is None:
                    session[sid] = None
                    break
                if span[SESSION] is not None:
                    session[sid] = span[SESSION]
                    break
                chain.append(sid)
                sid = span[PARENT]
            for c in chain:
                session[c] = session[sid]
            return session[sid]

        self.session = {s[ID]: resolve(s[ID]) for s in spans}
        self.by_id = by_id
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for s in spans:
            self.by_name[s[NAME]].append(s)

    def select(self, name: str, in_session: bool = True, parent: str | None = None):
        """Spans called `name`, inside sessions or outside them, optionally under `parent`."""
        return [
            s for s in self.by_name.get(name, ())
            if (self.session[s[ID]] is not None) == in_session
            and (parent is None or self.parent_name(s) == parent)
        ]

    def parent_name(self, span) -> str | None:
        p = self.by_id.get(span[PARENT])
        return None if p is None else p[NAME]

    @staticmethod
    def total_ms(spans) -> float:
        return sum(s[END] - s[START] for s in spans) / 1e6

    def self_ms(self, spans) -> float:
        return sum(self.self_ns[s[ID]] for s in spans) / 1e6

    @staticmethod
    def count(spans) -> int:
        return sum(s[COUNT] for s in spans)
