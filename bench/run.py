"""remo benchmark: time to first token, inter-token latency and set-up time.

    python3 bench/run.py --workload decode_tcp_2c --seed 1 --seconds 40 --trace 0

Run from the repository root; remo is imported from `src/` next to this
directory.  `--workload all` runs every workload in turn.

Load comes from closed-loop client threads in this process, one
connection each.  The TCP workloads run the provider in its own process
(`provider.py`).  Every generated sequence is checked against
`reference_generate` after the timed region; a mismatch or an error
counts as a failed session, and any failed session makes the exit code 1.

With `--trace 0` the run measures the end-to-end metrics with nothing
wrapped.  With `--trace 1` it measures half of `--seconds` untraced and
half traced, and reports the per-layer metrics from the spans of
`spans.py`, plus the tracing overhead.  Every output line but the last
is for people; the last is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A report with the machine, the tail percentiles
and the predictions of `workloads.py` goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "remo" / "__init__.py").is_file():
    raise SystemExit(f"error: remo sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import remo  # noqa: E402
from remo.attack import make_corpus  # noqa: E402
from remo.errors import RemoError, TransportClosed  # noqa: E402
from remo.protocol import CloseSession, MatMulRequest, OpenSession  # noqa: E402

if Path(remo.__file__).resolve().parent != SRC / "remo":
    raise SystemExit(f"error: imported remo from {remo.__file__}, not from {SRC}")

import spans  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, ENCLAVE_SEED, HOLDOUT_SEED, PREDICTIONS, WEIGHT_SEED, WORKLOADS, Workload,
)

SETUP_REPS = 3  # set-ups per run; setup_s is their median
SOCKET_TIMEOUT_S = 20.0
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
# Printed and written to the report, but left out of the result line: on a
# shared 2-core machine the inter-token tail of decode_tcp_2c moved by 40% of
# its median between seeds, more than any bound the benchmark can hold.
UNBOUNDED = ("itl_ms.tail",)
PROMPT_CHUNK = 64


class BenchError(Exception):
    """The run cannot produce trustworthy numbers."""


# --- the provider process --------------------------------------------------------


class ProviderProcess:
    """Provider child of a TCP workload.  Every wait on it is bounded and
    `close` always reaps it."""

    def __init__(self, model: dict, spans_path: Path | None = None,
                 ready_timeout: float = READY_TIMEOUT_S):
        cmd = [sys.executable, str(BENCH_DIR / "provider.py"), json.dumps(model), str(WEIGHT_SEED)]
        if spans_path is not None:
            cmd.append(str(spans_path))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], ready_timeout)
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise BenchError(f"provider not ready within {ready_timeout} s "
                                 f"(exit code {self.proc.poll()})")
            info = json.loads(line)
            self.port: int = info["port"]
            self.setup_s: float = info["setup_s"]
        except BaseException:
            self.close()
            raise

    def close(self) -> int:
        """Close stdin, wait for the exit, kill after a timeout."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=EXIT_TIMEOUT_S)
        self.proc.stdout.close()
        return self.proc.returncode


@dataclass
class World:
    """One set-up: a provider and an enclave whose bases it has issued."""

    enclave: remo.Enclave
    connect: object  # () -> transport
    provider_s: float
    enclave_s: float
    provider: ProviderProcess | None = None

    def close(self) -> None:
        if self.provider is not None:
            self.provider.close()


def set_up(workload: Workload, enclave_params, tracer=None, spans_path=None) -> World:
    """Start a provider and run `Enclave.setup` against it, timing both."""
    config = remo.ModelConfig(**workload.model)
    provider = None
    if workload.transport == "tcp":
        provider = ProviderProcess(workload.model, spans_path)
        provider_s = provider.setup_s

        def connect():
            return remo.TcpTransport("127.0.0.1", provider.port, timeout=SOCKET_TIMEOUT_S)
    else:
        t0 = time.monotonic()
        weights = remo.init_weights(config, WEIGHT_SEED)
        state = remo.ProviderState(weights.provider_view(), config.params)
        provider_s = time.monotonic() - t0

        def connect():
            return remo.InProcTransport(state)
    try:
        enclave = remo.Enclave(enclave_params, ENCLAVE_SEED)
        transport = connect()
        try:
            t0 = time.monotonic()
            (enclave.setup if tracer is None else tracer.wrap("setup", enclave.setup))(transport)
            enclave_s = time.monotonic() - t0
        finally:
            transport.close()
    except BaseException:
        if provider is not None:
            provider.close()
        raise
    return World(enclave, connect, provider_s, enclave_s, provider)


# --- token clock and closed-loop clients -----------------------------------------


class TokenClock:
    """Transport wrapper that timestamps token boundaries from the requests it forwards.

    Token 1 exists when the first MatMulRequest of step len(prompt) is sent,
    token j when the first request of step len(prompt)+j-1 is sent, and the
    last token when CloseSession is sent.
    """

    def __init__(self, inner, tracer=None):
        self.inner = inner
        self._matmul = self._control = inner.request
        if tracer is not None:
            self._matmul = tracer.wrap("protocol.matmul_request", inner.request, count=_rows)
            self._control = tracer.wrap("protocol.control_request", inner.request)
        self.begin(0)

    def begin(self, prompt_len: int) -> None:
        self.prompt_len = prompt_len
        self.session = None
        self.decode_steps: list[int] = []
        self.marks: list[float] = []
        self.before_first = 0
        self.closed_at: float | None = None

    def request(self, msg):
        now = time.monotonic()
        if isinstance(msg, MatMulRequest):
            if msg.step < self.prompt_len:
                self.before_first += 1
            elif not self.decode_steps or self.decode_steps[-1] != msg.step:
                self.decode_steps.append(msg.step)
                self.marks.append(now)
            return self._matmul(msg)
        if isinstance(msg, OpenSession):
            self.session = msg.session
        elif isinstance(msg, CloseSession):
            self.closed_at = now
        return self._control(msg)

    def close(self) -> None:
        self.inner.close()

    def token_times(self, n_tokens: int, returned_at: float) -> list[float]:
        """The time each generated token existed; enforces the token-boundary rule."""
        want = list(range(self.prompt_len, self.prompt_len + n_tokens - 1))
        if self.decode_steps != want:
            raise BenchError(
                f"session {self.session}: decode steps {self.decode_steps[:3]}... "
                f"({len(self.decode_steps)}) do not match {n_tokens} tokens - 1"
            )
        last = self.closed_at if self.closed_at is not None else returned_at
        return self.marks + [last]


def _rows(args, result) -> int:
    return args[0].masked.rows


@dataclass
class Session:
    client: int
    prompt: list[int]
    response: list[int] | None = None
    error: str | None = None
    e2e_s: float = 0.0
    ttft_s: float = 0.0
    gaps_s: list[float] = field(default_factory=list)
    before_first: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def prompt_stream(workload: Workload, seed: int, client: int):
    """Fresh prompts for one client, reproducible from the workload seed."""
    for chunk in itertools.count():
        yield from make_corpus(PROMPT_CHUNK, workload.prompt_len, workload.model["vocab"],
                               seed=[seed, client, chunk])


def measure(world: World, workload: Workload, seed: int, seconds: float, tracer=None,
            max_sessions: int | None = None, wrap=None) -> tuple[list[Session], float]:
    """Closed loop: each client starts its next session when the previous one ends.

    Clients stop starting sessions after `seconds`, or after `max_sessions`
    each.  Returns the sessions and the wall time of the timed region.
    """
    sessions: list[Session] = []
    crashed: list[BaseException] = []
    abort = threading.Event()
    start = time.monotonic()
    stop_at = start + seconds

    def client(idx: int) -> None:
        try:
            transport = world.connect()
        except RemoError as exc:
            crashed.append(exc)
            abort.set()
            return
        clock = TokenClock(wrap(transport) if wrap is not None else transport, tracer)
        run_session = world.enclave.run_session
        if tracer is not None:
            run_session = tracer.wrap("session", run_session, session=lambda a, r: clock.session)
        try:
            for i, prompt in enumerate(prompt_stream(workload, seed, idx)):
                if (abort.is_set() or time.monotonic() >= stop_at
                        or (max_sessions is not None and i >= max_sessions)):
                    break
                s = Session(idx, prompt)
                clock.begin(len(prompt))
                t0 = time.monotonic()
                try:
                    response = run_session(clock, prompt, workload.max_new)
                except RemoError as exc:
                    s.error = f"{type(exc).__name__}: {exc}"
                    sessions.append(s)
                    if isinstance(exc, TransportClosed):
                        abort.set()  # the provider crashed or hung: end the run now
                    continue
                t1 = time.monotonic()
                times = clock.token_times(len(response), t1)
                s.response = response
                s.e2e_s = t1 - t0
                s.ttft_s = times[0] - t0
                s.gaps_s = [b - a for a, b in zip(times, times[1:])]
                s.before_first = clock.before_first
                sessions.append(s)
        except BaseException as exc:  # re-raised by the main thread
            crashed.append(exc)
            abort.set()
        finally:
            clock.close()

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(workload.clients)]
    for t in threads:
        t.start()
    join_by = stop_at + 2 * SOCKET_TIMEOUT_S + 60.0
    for t in threads:
        t.join(timeout=max(0.0, join_by - time.monotonic()))
        if t.is_alive():
            raise BenchError("a client thread did not finish")
    wall = time.monotonic() - start
    for exc in crashed:
        if not isinstance(exc, RemoError):
            raise exc
    if crashed:
        sessions.append(Session(-1, [], error=f"connect failed: {crashed[0]}"))
    return sessions, wall


def check(sessions: list[Session], weights, max_new: int) -> None:
    """Compare every completed session with reference_generate (untimed)."""
    for s in sessions:
        if s.ok and s.response != remo.reference_generate(weights, s.prompt, max_new):
            s.error = "output differs from reference_generate"


# --- statistics --------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest nearest-rank percentile
    with TAIL_BEYOND samples beyond it."""
    v = sorted(values)
    n = len(v)
    k = max(0, n - TAIL_BEYOND - 1)
    return v[k], 100.0 * (k + 1) / n, n


def e2e_metrics(sessions: list[Session], wall: float, setups: list[tuple[float, float]],
                rss_kb: int) -> tuple[dict, dict]:
    """End-to-end metrics, and notes (sample counts, tail percentiles) for people."""
    ok = [s for s in sessions if s.ok]
    ttft = [s.ttft_s * 1e3 for s in ok]
    gaps = [g * 1e3 for s in ok for g in s.gaps_s]
    tokens = sum(len(s.response) for s in ok)
    metrics, notes = {}, {}
    metrics["setup_s"] = (statistics.median(p + e for p, e in setups), "s")
    notes["setup_s"] = f"median of {len(setups)} set-ups"
    if ttft:
        metrics["ttft_ms.p50"] = (statistics.median(ttft), "ms")
        value, pct, n = tail(ttft)
        metrics["ttft_ms.tail"] = (value, "ms")
        notes["ttft_ms.p50"] = f"n={n}"
        notes["ttft_ms.tail"] = f"p{pct:.1f}, n={n}"
    if gaps:
        metrics["itl_ms.p50"] = (statistics.median(gaps), "ms")
        value, pct, n = tail(gaps)
        metrics["itl_ms.tail"] = (value, "ms")
        notes["itl_ms.p50"] = f"n={n}"
        notes["itl_ms.tail"] = f"p{pct:.1f}, n={n}; not bounded"
    if ok:
        metrics["e2e_ms.p50"] = (statistics.median(s.e2e_s * 1e3 for s in ok), "ms")
        notes["e2e_ms.p50"] = f"n={len(ok)}"
    metrics["tokens_per_s"] = (tokens / wall, "1/s")
    notes["tokens_per_s"] = f"{tokens} tokens in {wall:.2f} s"
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    notes["peak_rss_mb"] = "load process + provider children"
    return metrics, notes


def layer_metrics(client: spans.Spans, provider: spans.Spans | None, sessions: list[Session],
                  setups: list[tuple[float, float]], untraced: list[Session]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, per session unless noted."""
    inproc = provider is None
    provider = provider or client
    ok = [s for s in sessions if s.ok]
    n = len(ok)
    tokens = sum(len(s.response) for s in ok)
    per = lambda x: x / n  # noqa: E731
    S = spans.Spans

    matmul = client.select("protocol.matmul_request")
    round_trips = matmul + client.select("protocol.control_request")
    encode, decode = client.select("protocol.encode"), client.select("protocol.decode")
    client_codec_ms = S.total_ms(encode) + S.total_ms(decode)
    provider_codec_ms = 0.0 if inproc else (S.total_ms(provider.select("protocol.encode"))
                                            + S.total_ms(provider.select("protocol.decode")))
    handles = provider.select("provider.handle")
    gemm = provider.select("provider.gemm")
    masking = client.select("masking.mask_apply") + client.select("masking.recover")
    session_ms = statistics.fmean(s.e2e_s for s in ok) * 1e3
    untraced_p50 = statistics.median(s.e2e_s for s in untraced if s.ok)
    traced_p50 = statistics.median(s.e2e_s for s in ok)

    m = {
        "protocol.requests": (per(len(matmul)), "count"),
        "protocol.requests_before_first_token": (per(sum(s.before_first for s in ok)), "count"),
        "protocol.rows_per_request": (S.count(matmul) / len(matmul), "rows"),
        "protocol.bytes_out_per_token": (S.count(encode) / tokens, "B/token"),
        "protocol.bytes_in_per_token": (S.count(decode) / tokens, "B/token"),
        "protocol.codec_ms": (per(client_codec_ms + provider_codec_ms), "ms"),
        "protocol.round_trip_ms": (per(S.total_ms(round_trips)), "ms"),
        "protocol.wire_wait_ms": (per(S.total_ms(round_trips) - S.total_ms(handles)
                                      - client_codec_ms), "ms"),
        "protocol.provider_start_s": (statistics.median(p for p, e in setups), "s"),
        "provider.handle_ms": (per(S.total_ms(handles)), "ms"),
        "provider.gemm_ms": (per(S.total_ms(gemm)), "ms"),
        "provider.gemm_macs": (per(S.count(gemm)), "count"),
        "provider.setup_gemm_ms": (S.total_ms(provider.select(
            "provider.gemm", in_session=False, parent="provider.handle")), "ms"),
        "masking.public_base_ms": (S.total_ms(client.select("masking.public_base",
                                                            in_session=False)), "ms"),
        "masking.mask_apply_ms": (per(S.total_ms(client.select("masking.mask_apply"))), "ms"),
        "masking.recover_ms": (per(S.total_ms(client.select("masking.recover"))), "ms"),
        "prg.derive_ms": (per(S.total_ms(client.select("prg.derive"))), "ms"),
        "prg.bytes": (per(S.count(client.select("prg.derive"))), "B"),
        "ring.rescale_ms": (per(S.total_ms(client.select("ring.rescale"))), "ms"),
    }
    for op in ("rms_norm", "attention", "silu", "embed", "argmax", "kv_view", "kv_append"):
        m[f"model.{op}_ms"] = (per(S.total_ms(client.select(f"model.{op}"))), "ms")
    m["model.kv_bytes_copied"] = (per(S.count(client.select("model.kv_view"))), "B")
    m["model.decode_step.self_ms"] = (per(client.self_ms(client.select("model.decode_step"))),
                                      "ms")
    m["session_ms"] = (session_ms, "ms")
    m["trace_overhead_share"] = ((traced_p50 - untraced_p50) / untraced_p50, "ratio")
    share = (S.total_ms(gemm) + client.self_ms(masking)) / n / session_ms
    notes = {
        "provider.setup_gemm_ms": "one traced set-up",
        "masking.public_base_ms": "one traced set-up",
        "protocol.provider_start_s": f"median of {len(setups)} set-ups",
        "session_ms": f"mean of {n} traced sessions; provider.gemm + masking self time "
                      f"is {share:.1%} of it",
        "trace_overhead_share": f"traced e2e p50 {traced_p50 * 1e3:.2f} ms vs untraced "
                                f"{untraced_p50 * 1e3:.2f} ms",
    }
    return m, notes


# --- one workload ----------------------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 max_sessions: int | None = None, wrap=None) -> dict:
    """Set up, measure, check; returns the result with metrics and notes."""
    OUT_DIR.mkdir(exist_ok=True)
    weights = remo.init_weights(remo.ModelConfig(**workload.model), WEIGHT_SEED)
    enclave_params = weights.enclave_view()
    phase = seconds / 2 if trace else seconds
    setups: list[tuple[float, float]] = []  # (provider_s, enclave_s) of each set-up
    world = None
    try:
        for _ in range(SETUP_REPS):
            if world is not None:
                world.close()
                world = None  # free it before the next set-up, so peak RSS holds one
            world = set_up(workload, enclave_params)
            setups.append((world.provider_s, world.enclave_s))
        untraced, wall = measure(world, workload, seed, phase, None, max_sessions, wrap)
    finally:
        if world is not None:
            world.close()
    world = None
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if not trace:
        check(untraced, weights, workload.max_new)
        metrics, notes = e2e_metrics(untraced, wall, setups, rss_kb)
        return _result(workload, seed, seconds, trace, untraced, metrics, notes)

    tracer = spans.Tracer()
    provider_path = None
    if workload.transport == "tcp":
        provider_path = OUT_DIR / f"{workload.name}-spans-provider.jsonl"
        provider_path.unlink(missing_ok=True)
    restore = spans.install(tracer)
    try:
        world = set_up(workload, enclave_params, tracer, provider_path)
        try:
            traced, _ = measure(world, workload, seed, phase, tracer, max_sessions, wrap)
        finally:
            world.close()
    finally:
        restore()
    tracer.dump(OUT_DIR / f"{workload.name}-spans-client.jsonl")
    check(untraced + traced, weights, workload.max_new)
    metrics, notes = {}, {}
    if any(s.ok for s in traced) and any(s.ok for s in untraced):
        provider_spans = None
        if provider_path is not None:
            if not provider_path.is_file():
                raise BenchError("the traced provider wrote no spans")
            provider_spans = spans.Spans(spans.load(provider_path))
        metrics, notes = layer_metrics(spans.Spans(tracer.spans), provider_spans, traced,
                                       setups, untraced)
    return _result(workload, seed, seconds, trace, untraced + traced, metrics, notes)


def _result(workload, seed, seconds, trace, sessions, metrics, notes) -> dict:
    failed = [s for s in sessions if not s.ok]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not failed,
        "attempted": len(sessions),
        "failed": len(failed),
        "errors": sorted({s.error for s in failed}),
        "metrics": metrics,
        "notes": notes,
    }


def report(result: dict, workload: Workload, machine: dict) -> None:
    """Print the metrics for people and write the full report to OUT_DIR."""
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {workload.name}: seed {result['seed']}, {result['seconds']} s, {mode} ==")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"{name:40s} {value:14.4f} {unit:8s}" + (f"  ({note})" if note else ""))
    ok = result["attempted"] - result["failed"]
    print(f"{'failed_share':40s} {result['failed'] / max(1, result['attempted']):14.4f} "
          f"{'ratio':8s}  (attempted {result['attempted']}, succeeded {ok}, "
          f"failed {result['failed']})")
    for err in result["errors"]:
        print(f"error: {err}")
    doc = dict(result, machine=machine, why=workload.why, predictions=PREDICTIONS,
               default_seed=DEFAULT_SEED, holdout_seed=HOLDOUT_SEED,
               metrics={k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()})
    path = OUT_DIR / f"{workload.name}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    machine = machine_info()
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(result, WORKLOADS[name], machine)
        results.append(result)
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": u}
            for r in results for k, (v, u) in r["metrics"].items() if k not in UNBOUNDED
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
