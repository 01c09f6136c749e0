"""Config parsing, command orchestration, exit-code discipline."""

import dataclasses
import json

import numpy as np
import pytest

import remo.cli as cli
from remo.cli import RunConfig, load_config, main
from remo.errors import ParseError
from remo.protocol import MatMulReply, ProviderServer, ProviderState
from remo.ring import RingMatrix


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


# --- config ------------------------------------------------------------------


def test_empty_config_is_defaults(tmp_path):
    assert load_config(write(tmp_path, "")) == RunConfig()


def test_comments_and_blanks_ignored(tmp_path):
    cfg = load_config(write(tmp_path, "# a comment\n\nseed = 9  # trailing\n"))
    assert cfg.seed == 9


def test_unknown_key_named_in_error(tmp_path):
    with pytest.raises(ParseError, match="swizzle"):
        load_config(write(tmp_path, "swizzle = 3\n"))


def test_bad_value_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_config(write(tmp_path, "seed = banana\n"))


def test_unreadable_config_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="absent.cfg"):
        load_config(tmp_path / "absent.cfg")


def test_missing_equals_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_config(write(tmp_path, "just some words\n"))


def test_tuple_fields_parse(tmp_path):
    cfg = load_config(write(tmp_path, "lambda_ratios = 0, 0.25, 1\n"))
    assert cfg.lambda_ratios == (0.0, 0.25, 1.0)


def test_messy_config_loads_to_its_values(tmp_path):
    messy = "max_new=3\nseed =  5\n# note\nmask_ratio = 0.25\n"
    cfg = load_config(write(tmp_path, messy))
    assert cfg == dataclasses.replace(RunConfig(), max_new=3, seed=5, mask_ratio=0.25)


# --- demo ----------------------------------------------------------------------


def small_args(tmp_path, *extra):
    return [
        "--out-dir", str(tmp_path / "out"),
        "--prompts", "4",
        "--prompt-len", "4",
        "--max-new", "3",
        *extra,
    ]


def test_demo_exit_zero_and_report(tmp_path, capsys):
    code = main(["demo", *small_args(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["reference_match"] is True
    assert report["audit_passed"] is True
    audit = report["audit"]
    assert sorted(audit) == ["direction", "freshness", "schema", "uniformity"]
    assert all(clause["ok"] is True and clause["detail"] for clause in audit.values())
    assert (tmp_path / "out" / "meta.json").exists()
    assert "response tokens" in capsys.readouterr().out


def test_demo_over_tcp_reports_what_the_inproc_demo_does(tmp_path):
    # the transcript is kept at the transport, so a TCP run is counted and audited too
    cfg = RunConfig()
    weights = cli.init_weights(cfg.model_config(), cfg.seed_for("model"))
    server = ProviderServer(ProviderState(weights.provider_view(), cfg.model_config().params), port=0)
    try:
        host, port = server.address
        tcp = main(["demo", "--out-dir", str(tmp_path / "tcp"), "--transport", f"tcp:{host}:{port}"])
    finally:
        server.shutdown()
    assert main(["demo", "--out-dir", str(tmp_path / "inproc")]) == tcp == 0
    report = (tmp_path / "tcp" / "report.json").read_bytes()
    assert json.loads(report)["audit_passed"] is True
    assert report == (tmp_path / "inproc" / "report.json").read_bytes()


def test_demo_unreachable_tcp(tmp_path, capsys):
    code = main(["demo", *small_args(tmp_path), "--transport", "tcp:127.0.0.1:1"])
    assert code == 2
    assert "TransportClosed" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_bench_is_not_a_command():
    # latency is measured by bench/run.py; the CLI has no second benchmark
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2


def test_env_seed_overrides(tmp_path):
    # `seed` is set by the config file or by --seed; there is no environment variable
    main(["demo", *small_args(tmp_path)])
    first = json.loads((tmp_path / "out" / "report.json").read_text())["prompt"]
    main(["demo", *small_args(tmp_path), "--seed", "777"])
    second = json.loads((tmp_path / "out" / "report.json").read_text())["prompt"]
    assert first != second


@pytest.mark.parametrize(
    "command, config, flags, error",
    [
        ("demo", "mask_ratio = 1.5", [], "BadParams"),
        ("demo", "k = 64", [], "ParseError"),
        ("demo", "vocab = 1", [], "BadParams"),
        ("demo", "heads = 5", [], "BadParams"),
        ("demo", "corpus_kind = text", [], "BadParams"),
        ("demo", "", ["--transport", "tcp:localhost"], "ParseError"),
        ("demo", "", ["--transport", "tcp:127.0.0.1:notaport"], "ParseError"),
        ("privacy", "", ["--game-trials", "0"], "BadParams"),
        ("privacy", "attack_op = nope", [], "UnknownOp"),
        ("privacy", "stacking_attempts = 0", ["--game-trials", "2000"], "BadParams"),
        ("privacy", "consistent_count = 0", ["--game-trials", "2000"], "BadParams"),
        ("privacy", "lambda_ratios =", ["--game-trials", "2000"], "EmptyRun"),
        ("invariance", "", ["--max-new", "0"], "EmptyRun"),
        ("attack", "", ["--attack-prompts", "0"], "EmptyRun"),
        ("attack", "", ["--attack-prompts", "1"], "EmptyRun"),
        ("attack", "", ["--attack-prompts", "2"], "EmptyRun"),
    ],
    ids=[
        "mask_ratio", "ring-width", "vocab", "heads", "corpus_kind", "transport-no-port",
        "transport-bad-port", "game_trials", "attack_op", "stacking_attempts",
        "consistent_count", "lambda_ratios-empty", "max_new",
        "attack_prompts-0", "attack_prompts-1", "attack_prompts-2",
    ],
)
def test_bad_input_exits_2_naming_the_error(tmp_path, capsys, command, config, flags, error):
    # exit 1 means "a check failed"; a bad input must not read as one
    args = [command, "--config", str(write(tmp_path, config + "\n")), "--out-dir", str(tmp_path / "out")]
    assert main([*args, *flags]) == 2
    err = capsys.readouterr().err
    assert f"error: {error}: " in err
    if command == "attack":  # the message names the setting, and nothing was reported
        assert "attack_prompts" in err and not (tmp_path / "out" / "report.json").exists()


def test_reports_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["demo", "--out-dir", str(out1), "--prompts", "2", "--prompt-len", "4", "--max-new", "3"])
    main(["demo", "--out-dir", str(out2), "--prompts", "2", "--prompt-len", "4", "--max-new", "3"])
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# --- invariance -------------------------------------------------------------------


def test_invariance_all_match(tmp_path):
    code = main(["invariance", *small_args(tmp_path)])
    assert code == 0
    lines = (tmp_path / "out" / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "prompt,response_len,tra,diverged_at"
    assert len(lines) == 5
    assert all(line.endswith(",-1") for line in lines[1:])


def test_invariance_zero_prompts_is_empty_run(tmp_path, capsys):
    code = main(["invariance", "--out-dir", str(tmp_path / "out"), "--prompts", "0"])
    assert code == 2
    assert "EmptyRun" in capsys.readouterr().err


class CorruptingProvider(ProviderState):
    """Scrambles exactly one head product whose sampled token is consumed."""

    corrupted = False

    def _matmul(self, msg):
        reply = super()._matmul(msg)
        if msg.op_id == "head" and msg.step >= 3 and not type(self).corrupted:
            type(self).corrupted = True
            # index-increasing offsets dominate every logit: argmax moves to the top id
            ramp = (np.arange(1, reply.product.cols + 1, dtype=np.uint64)) << np.uint64(50)
            data = reply.product.data + ramp[None, :]
            return MatMulReply(msg.session, msg.step, msg.op_id, RingMatrix(data, self.params))
        return reply


def test_invariance_detects_corrupted_product(tmp_path, monkeypatch, capsys):
    CorruptingProvider.corrupted = False
    monkeypatch.setattr(cli, "ProviderState", CorruptingProvider)
    code = main(["invariance", *small_args(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "DIVERGED at position" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["all_match"] is False


# --- attack --------------------------------------------------------------------------


def test_attack_small_run(tmp_path):
    code = main([
        "attack", "--out-dir", str(tmp_path / "out"), "--attack-prompts", "100",
    ])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pooled_unmasked_tra"] >= 0.9
    assert report["pooled_masked_tra"] <= 3.0 / 64
    csv_lines = (tmp_path / "out" / "report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 5  # header + 2 taps x 2 position classes


# --- privacy ----------------------------------------------------------------------------

SMALL_PRIVACY = "\n".join([
    "vocab = 8", "d = 8", "layers = 1", "heads = 2", "d_ff = 8", "max_seq = 32",
    "game_trials = 20000", "consistent_count = 4",
    "attack_op = l0.wqkv",
])


def test_privacy_small_model(tmp_path):
    cfg_path = write(tmp_path, SMALL_PRIVACY)
    code = main(["privacy", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["all_pass"] is True
    assert all(k["kernel_dim"] == k["d"] - k["m"] for k in report["kernel"])
    assert report["stacking"]["single_recovered"] is False
    assert report["stacking"]["stacked_recovered"] is True
    grid = (tmp_path / "out" / "report.csv").read_text().strip().splitlines()
    assert grid[0] == "norm_ratio,bound,empirical,stderr,pass"
    assert len(grid) == 6


def test_privacy_unreachable_tcp(tmp_path, capsys):
    # the kernel, consistent-weight and stacking rows describe the provider named
    cfg_path = write(tmp_path, SMALL_PRIVACY)
    args = ["privacy", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]
    assert main([*args, "--transport", "tcp:127.0.0.1:1"]) == 2
    assert "TransportClosed" in capsys.readouterr().err


def test_privacy_over_tcp_reports_what_the_inproc_run_does(tmp_path):
    cfg_path = write(tmp_path, SMALL_PRIVACY)
    cfg = load_config(cfg_path)
    weights = cli.init_weights(cfg.model_config(), cfg.seed_for("model"))
    server = ProviderServer(ProviderState(weights.provider_view(), cfg.model_config().params), port=0)
    try:
        host, port = server.address
        tcp = main(["privacy", "--config", str(cfg_path), "--out-dir", str(tmp_path / "tcp"),
                    "--transport", f"tcp:{host}:{port}"])
        assert server.state.issued == set(cfg.model_config().op_ids())
    finally:
        server.shutdown()
    inproc = main(["privacy", "--config", str(cfg_path), "--out-dir", str(tmp_path / "inproc")])
    assert tcp == inproc == 0
    report = (tmp_path / "tcp" / "report.json").read_bytes()
    assert report == (tmp_path / "inproc" / "report.json").read_bytes()


def test_privacy_negative_control_square_base(tmp_path):
    # m = d would kill the kernel clause; the enclave itself refuses to build it
    from remo.errors import BadDims
    from remo.masking import MaskIssuer
    from remo.prg import PrgKey
    from remo.ring import QuantParams

    issuer = MaskIssuer(PrgKey.from_int(1), QuantParams())
    with pytest.raises(BadDims):
        issuer.gen_public_base("x", m=8, d=8)
    # and a hand-built square full-rank base has a zero-dimensional kernel
    from remo.ring import RingMatrix, ring_kernel

    _, kernel = ring_kernel(RingMatrix.from_ints(np.eye(8, dtype=int), QuantParams()))
    assert kernel.cols == 0  # the privacy clause would fail here


# --- latency -----------------------------------------------------------------------------


def test_latency_grows_with_output_length(tmp_path):
    # 2 vs 16 generated tokens is an ~3x step count gap, far above timing noise
    import time

    from remo.model import init_weights
    from remo.protocol import Enclave, ProviderServer, TcpTransport

    cfg = RunConfig()
    weights = init_weights(cfg.model_config(), cfg.seed_for("model"))
    server = ProviderServer(ProviderState(weights.provider_view(), cfg.model_config().params), port=0)
    enclave = Enclave(weights.enclave_view(), cfg.seed_for("session"))
    try:
        transport = TcpTransport(*server.address)
        prompt = [5, 6, 7, 8]

        def timed(max_new: int) -> float:
            best = float("inf")
            for _ in range(3):
                t0 = time.monotonic()
                enclave.run_session(transport, prompt, max_new)
                best = min(best, time.monotonic() - t0)
            return best

        short = timed(2)
        long = timed(16)
        transport.close()
    finally:
        server.shutdown()
    assert long > short
