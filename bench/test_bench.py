"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench

They check that the benchmark catches wrong outputs, keeps to the
token-boundary rule, survives a dying provider and counts the same work
the same way twice.
"""

import ast
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import TOY_MODEL, WORKLOADS, Workload  # noqa: E402

from remo.model import reference_generate  # noqa: E402
from remo.protocol import MatMulReply, MatMulRequest, OpenSession  # noqa: E402
from remo.ring import RingMatrix  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TOY_INPROC = Workload("toy_inproc", TOY_MODEL, "inproc", clients=1, prompt_len=6, max_new=4,
                      why="small and fast")
TOY_TCP = Workload("toy_tcp", TOY_MODEL, "tcp", clients=1, prompt_len=4, max_new=32,
                   why="small, over TCP")


class FlipHeadBit:
    """Transport wrapper that flips one bit of the first token's head reply.

    It picks a high bit that is set in the masked product, so the flip
    subtracts at least 2^50 from the recovered logit of `token` and that
    token can no longer win the greedy argmax.
    """

    def __init__(self, inner, step: int, token: int):
        self.inner, self.step, self.token = inner, step, token
        self.flipped = 0

    def request(self, msg):
        reply = self.inner.request(msg)
        if (self.flipped == 0 and isinstance(reply, MatMulReply) and reply.op_id == "head"
                and reply.step == self.step):
            data = reply.product.data.copy()
            value = int(data[0, self.token])
            bit = next(b for b in range(62, 49, -1) if value >> b & 1)
            data[0, self.token] ^= np.uint64(1 << bit)
            reply = MatMulReply(reply.session, reply.step, reply.op_id,
                                RingMatrix(data, reply.product.params))
            self.flipped += 1
        return reply

    def close(self):
        self.inner.close()


def _weights(workload):
    return run.remo.init_weights(run.remo.ModelConfig(**workload.model), run.WEIGHT_SEED)


def test_flipped_reply_bit_counts_as_failed_session(capsys):
    seed = 5
    prompt = next(run.prompt_stream(TOY_INPROC, seed, 0))
    first = reference_generate(_weights(TOY_INPROC), prompt, TOY_INPROC.max_new)[0]
    flips = []

    def wrap(transport):
        flips.append(FlipHeadBit(transport, TOY_INPROC.prompt_len - 1, first))
        return flips[-1]

    result = run.run_workload(TOY_INPROC, seed, 60, trace=False, max_sessions=3, wrap=wrap)
    assert flips[0].flipped == 1
    assert result["attempted"] == 3
    assert result["failed"] == 1
    assert not result["correct"]
    run.report(result, TOY_INPROC, {})
    out = capsys.readouterr().out
    share = next(line for line in out.splitlines() if line.startswith("failed_share"))
    assert float(share.split()[1]) > 0


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_unflipped_run_reports_every_end_to_end_metric():
    result = run.run_workload(TOY_INPROC, 5, 60, trace=False, max_sessions=3)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 3, 0)
    reported = {k: u for k, (v, u) in result["metrics"].items() if k not in run.UNBOUNDED}
    assert reported == _declared("end_to_end")
    assert all(v > 0 for v, u in result["metrics"].values())


def test_declared_workloads_are_the_harness_workloads():
    for declared in BENCHMARK["workloads"]:
        assert WORKLOADS[declared["name"]].why == declared["why"]


class _Echo:
    def request(self, msg):
        return msg

    def close(self):
        pass


def _matmul(step):
    return MatMulRequest(1, step, "l0.wq", RingMatrix(np.zeros((1, 2), np.uint64),
                                                      run.remo.QuantParams()))


def test_token_times_follow_decode_steps():
    clock = run.TokenClock(_Echo())
    clock.begin(2)
    clock.request(OpenSession(1))
    for step in (0, 0, 1, 2, 2, 3):
        clock.request(_matmul(step))
    times = clock.token_times(3, returned_at=1e9)
    assert clock.before_first == 3
    assert len(times) == 3 and times == sorted(times)


@pytest.mark.parametrize("steps, tokens", [((0, 1), 3), ((0, 1, 2, 4), 3), ((0, 2), 2)])
def test_token_boundary_rule_fails_loudly(steps, tokens):
    clock = run.TokenClock(_Echo())
    clock.begin(1)
    for step in steps:
        clock.request(_matmul(step))
    with pytest.raises(run.BenchError):
        clock.token_times(tokens, returned_at=1e9)


def _names_in(path: Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names)


def test_benchmark_uses_no_private_hooks_and_not_the_cli(monkeypatch):
    bench = Path(__file__).resolve().parent
    for path in bench.glob("*.py"):
        if path.name.startswith("test_"):
            continue
        names = set(_names_in(path))
        assert not names & {"_first_token_mark", "_disable_masking"}, path
        assert not any(n == "remo.cli" or n.startswith("remo.cli.") for n in names), path

    calls = []
    real = run.remo.Enclave.run_session

    def spy(self, *args, **kwargs):
        calls.append(kwargs)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(run.remo.Enclave, "run_session", spy)
    result = run.run_workload(TOY_INPROC, 3, 60, trace=True, max_sessions=2)
    assert result["correct"]
    assert {k: u for k, (v, u) in result["metrics"].items()} == _declared("per_layer")
    assert calls and all(kw == {} for kw in calls)
    assert "remo.cli" not in sys.modules


def test_killed_provider_fails_the_run_and_is_reaped(monkeypatch):
    providers = []

    class Recorded(run.ProviderProcess):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            providers.append(self)

    class KillAfter:
        def __init__(self, inner, n):
            self.inner, self.left = inner, n

        def request(self, msg):
            self.left -= 1
            if self.left == 0:
                providers[-1].proc.kill()
            return self.inner.request(msg)

        def close(self):
            self.inner.close()

    monkeypatch.setattr(run, "ProviderProcess", Recorded)
    done = {}
    worker = threading.Thread(target=lambda: done.setdefault("result", run.run_workload(
        TOY_TCP, 1, 60, trace=False, max_sessions=20, wrap=lambda t: KillAfter(t, 100))))
    worker.start()
    worker.join(timeout=90)
    assert not worker.is_alive()
    result = done["result"]
    assert not result["correct"] and result["failed"] >= 1
    assert any("TransportClosed" in e for e in result["errors"])
    assert providers and all(p.proc.returncode is not None for p in providers)


def test_provider_that_is_not_ready_in_time_is_reaped(monkeypatch):
    procs = []
    real_popen = run.subprocess.Popen

    def recording_popen(*args, **kwargs):
        procs.append(real_popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(run.subprocess, "Popen", recording_popen)
    with pytest.raises(run.BenchError):
        run.ProviderProcess(TOY_MODEL, ready_timeout=0.001)
    assert len(procs) == 1 and procs[0].returncode is not None


COUNTED = ("protocol.requests", "protocol.requests_before_first_token",
           "protocol.rows_per_request", "protocol.bytes_out_per_token",
           "protocol.bytes_in_per_token", "provider.gemm_macs", "prg.bytes",
           "model.kv_bytes_copied")


def test_counted_layer_metrics_repeat_exactly():
    workload = WORKLOADS["prefill_tcp"]
    view = run.remo.model.KVCache.__dict__["view"]
    runs = [run.run_workload(workload, 11, 120, trace=True, max_sessions=2) for _ in range(2)]
    for r in runs:
        assert r["correct"] and r["attempted"] == 4
    a, b = ({k: r["metrics"][k][0] for k in COUNTED} for r in runs)
    assert a == b
    assert a["protocol.requests_before_first_token"] == 13 * workload.prompt_len
    assert all(v > 0 for v in a.values())
    # the wrappers are gone once the run ends
    assert run.remo.protocol.ring_matmul is run.remo.ring.ring_matmul
    assert run.remo.model.KVCache.__dict__["view"] is view


def test_self_time_subtracts_children():
    s = spans.Spans([
        (2, 1, "child", 10, 30, 0, None, 0),
        (1, 0, "parent", 0, 100, 0, 7, 0),
    ])
    assert s.self_ns == {1: 80, 2: 20}
    assert s.session == {1: 7, 2: 7}
