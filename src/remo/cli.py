"""Batch experiment entry point: demo, invariance, attack, privacy, serve.

Configuration is flat `key = value` text with `#` comments; every knob
has a documented default and unknown keys are rejected.  Every command
but `serve` writes its reports under `out_dir`, split into deterministic
data files (report.csv / report.json) and a meta.json carrying
timestamps and host info, so two runs with the same config produce
byte-identical data files.  Latency and throughput are measured by
`bench/run.py`, not here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import attack as atk
from . import privacy as pv
from .errors import BadParams, EmptyRun, ParseError, RemoError
from .model import ModelConfig, init_weights, reference_generate
from .privacy import GameConfig
from .protocol import (
    DEFAULT_PORT,
    FROM_PROVIDER,
    TO_PROVIDER,
    Enclave,
    InProcTransport,
    ProviderServer,
    ProviderState,
    RecordingTransport,
    TcpTransport,
    Transcript,
    audit_transcript,
)
from .ring import QuantParams, ring_kernel


@dataclass
class RunConfig:
    # model shape
    vocab: int = ModelConfig.vocab
    d: int = ModelConfig.d
    layers: int = ModelConfig.layers
    heads: int = ModelConfig.heads
    d_ff: int = ModelConfig.d_ff
    max_seq: int = ModelConfig.max_seq
    eos_id: int = ModelConfig.eos_id
    # fixed-point fraction bits over Z_2^64
    f: int = QuantParams.f
    # masking
    mask_ratio: float = 0.5
    # master seed; model, session, corpus and trial seeds derive from it
    seed: int = 1
    # transport: "inproc" or "tcp:HOST:PORT"
    transport: str = "inproc"
    timeout_s: float = 30.0
    out_dir: str = "out"
    # demo / invariance corpus
    prompts: int = 100
    prompt_len: int = 8
    max_new: int = 8
    corpus_kind: str = "uniform"
    # attack corpus (sized so the 20% attack split clears 10^4 positions)
    attack_prompts: int = 1000
    attack_prompt_len: int = 48
    attack_max_new: int = 8
    attack_op: str = "l0.wqkv"
    # privacy experiments
    lambda_ratios: tuple = (0.0, 0.1, 0.5, 1.0, 2.0)
    game_trials: int = 1_000_000
    consistent_count: int = 10
    stacking_attempts: int = 64
    # serve
    serve_host: str = "127.0.0.1"
    serve_port: int = DEFAULT_PORT

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            vocab=self.vocab, d=self.d, layers=self.layers, heads=self.heads,
            d_ff=self.d_ff, max_seq=self.max_seq, eos_id=self.eos_id,
            params=QuantParams(f=self.f),
        )

    def seed_for(self, purpose: str) -> int:
        digest = hashlib.sha256(f"remo:{self.seed}:{purpose}".encode()).digest()
        return int.from_bytes(digest[:8], "little") >> 1


def _parse_value(name: str, raw: str, kind):
    try:
        if kind is tuple:  # lambda_ratios, the one tuple field
            return tuple(float(p) for p in raw.split(",") if p.strip())
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ParseError(f"bad value for {name!r}: {raw!r}") from exc


def load_config(path) -> RunConfig:
    """Parse flat key=value config; unknown keys are an error."""
    cfg = RunConfig()
    by_name = {f.name: f for f in fields(RunConfig)}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc.strerror}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        f = by_name.get(key)
        if f is None:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, raw, type(f.default)))
    return cfg


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(out) + "\n")


def _write_attack_csv(path: Path, report: atk.AttackReport) -> None:
    _write_csv(
        path,
        ["tap", "masked", "positions", "tra", "cosine_proxy", "chance_level", "ci_low", "ci_high"],
        [[r.tap, str(r.masked).lower(), r.positions, r.tra, r.cosine_proxy, r.chance_level,
          r.ci_low, r.ci_high] for r in report.rows],
    )


def _build_world(cfg: RunConfig):
    """Weights, in-proc provider and enclave from one config."""
    weights = init_weights(cfg.model_config(), cfg.seed_for("model"))
    provider = ProviderState(weights.provider_view(), cfg.model_config().params)
    enclave = Enclave(weights.enclave_view(), cfg.seed_for("session"), mask_ratio=cfg.mask_ratio)
    return weights, provider, enclave


def _open_transport(cfg: RunConfig, provider: ProviderState):
    if cfg.transport == "inproc":
        return InProcTransport(provider)
    if cfg.transport.startswith("tcp:"):
        host, _, port = cfg.transport[4:].rpartition(":")
        if not (host and port.isdigit() and int(port) < 1 << 16):
            raise ParseError(f"transport {cfg.transport!r} is not tcp:HOST:PORT")
        return TcpTransport(host, int(port), timeout=cfg.timeout_s)
    raise ParseError(f"unknown transport {cfg.transport!r}")


def cmd_demo(cfg: RunConfig, out_dir: Path) -> int:
    weights, provider, enclave = _build_world(cfg)
    prompt = atk.make_corpus(1, cfg.prompt_len, cfg.vocab, cfg.seed_for("corpus"), cfg.corpus_kind)[0]
    transcript = Transcript()
    transport = RecordingTransport(_open_transport(cfg, provider), transcript)
    try:
        response = enclave.run_session(transport, prompt, cfg.max_new)
    finally:
        transport.close()
    reference = reference_generate(weights, prompt, cfg.max_new)
    match = response == reference
    audit = audit_transcript(transcript)
    frames = transcript.frames()
    requests = sum(d == TO_PROVIDER for d, _ in frames)
    bytes_out = sum(len(f) for d, f in frames if d == TO_PROVIDER)
    bytes_in = sum(len(f) for d, f in frames if d == FROM_PROVIDER)
    print(f"prompt tokens:   {prompt}")
    print(f"response tokens: {response}")
    print(f"reference match: {match}")
    print(f"wire traffic:    {requests} requests, {bytes_out} B out, {bytes_in} B in")
    print(f"transcript audit: {'pass' if audit.passed else 'FAIL'}")
    _write_json(out_dir / "report.json", {
        "prompt": prompt,
        "response": response,
        "reference": reference,
        "reference_match": match,
        "requests": requests,
        "bytes_out": bytes_out,
        "bytes_in": bytes_in,
        "audit_passed": audit.passed,
        "audit": {name: {"ok": c.ok, "detail": c.detail} for name, c in audit.clauses.items()},
    })
    return 0 if match and audit.passed else 1


def cmd_invariance(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.prompts < 1:
        raise EmptyRun("invariance needs at least one prompt")
    if cfg.max_new < 1:
        raise EmptyRun("invariance needs at least one new token per prompt")
    weights, provider, enclave = _build_world(cfg)
    prompts = atk.make_corpus(cfg.prompts, cfg.prompt_len, cfg.vocab, cfg.seed_for("corpus"), cfg.corpus_kind)
    transport = _open_transport(cfg, provider)
    rows = []
    all_match = True
    try:
        for i, prompt in enumerate(prompts):
            got = enclave.run_session(transport, prompt, cfg.max_new)
            want = reference_generate(weights, prompt, cfg.max_new)
            diverged_at = next(
                (j for j, (a, b) in enumerate(zip(got, want)) if a != b),
                -1 if len(got) == len(want) else min(len(got), len(want)),
            )
            pair_tra = 0.0
            if len(got) == len(want) and got:
                pair_tra = atk.tra(want, got)
            ok = diverged_at == -1
            all_match &= ok
            rows.append([i, len(want), pair_tra, diverged_at])
            if not ok:
                print(f"prompt {i}: DIVERGED at position {diverged_at}: "
                      f"got {got[:diverged_at+1]}, want {want[:diverged_at+1]}")
    finally:
        transport.close()
    overall = float(np.mean([r[2] for r in rows]))
    print(f"invariance over {cfg.prompts} prompts: TRA={overall} "
          f"({'all identical' if all_match else 'divergence detected'})")
    _write_csv(out_dir / "report.csv", ["prompt", "response_len", "tra", "diverged_at"], rows)
    _write_json(out_dir / "report.json", {
        "prompts": cfg.prompts, "tra": overall, "all_match": all_match,
    })
    return 0 if all_match else 1


def cmd_attack(cfg: RunConfig, out_dir: Path) -> int:
    atk.train_prompt_count(cfg.attack_prompts)  # EmptyRun before any session
    weights, provider, enclave = _build_world(cfg)
    prompts = atk.make_corpus(
        cfg.attack_prompts, cfg.attack_prompt_len, cfg.vocab, cfg.seed_for("corpus"), cfg.corpus_kind
    )
    transport = _open_transport(cfg, provider)
    try:
        views = atk.collect_views(
            weights, enclave, transport, prompts, cfg.attack_op, cfg.attack_max_new
        )
    finally:
        transport.close()
    report = atk.run_attack_eval(views, weights.embedding, cfg.vocab, seed=cfg.seed_for("corpus"))
    _write_attack_csv(out_dir / "report.csv", report)
    chance = 1.0 / cfg.vocab
    clauses = {}
    for r in report.rows:
        if r.masked:
            clauses[f"{r.tap} masked<=3x chance"] = r.tra <= 3.0 * chance
        else:
            clauses[f"{r.tap} unmasked>=0.90"] = r.tra >= 0.90
    pooled_masked, n_masked = report.pooled[True]
    pooled_raw, _ = report.pooled[False]
    lo, hi = atk.chance_ci(chance, n_masked)
    clauses["pooled masked within 99% CI of chance"] = lo <= pooled_masked <= hi
    clauses["unmasked/masked ratio >= 20"] = pooled_raw >= 20.0 * max(pooled_masked, 1e-12)
    for name, ok in clauses.items():
        print(f"[{'pass' if ok else 'FAIL'}] {name}")
    print(f"pooled: unmasked TRA={pooled_raw:.4f}, masked TRA={pooled_masked:.4f} "
          f"(chance={chance:.4f}, attacked positions={n_masked})")
    _write_json(out_dir / "report.json", {
        "op_id": report.op_id,
        "pooled_unmasked_tra": pooled_raw,
        "pooled_masked_tra": pooled_masked,
        "attacked_positions": n_masked,
        "chance": chance,
        "clauses": clauses,
    })
    return 0 if all(clauses.values()) else 1


def cmd_privacy(cfg: RunConfig, out_dir: Path) -> int:
    # bad input is refused before any work runs
    cfg.model_config().op_dims(cfg.attack_op)  # UnknownOp
    for name in ("stacking_attempts", "consistent_count"):
        if getattr(cfg, name) < 1:
            raise BadParams(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if not cfg.lambda_ratios:
        raise EmptyRun("privacy needs at least one lambda ratio")
    trial_seed = cfg.seed_for("trial")
    game_rows = []
    game_pass = True
    for i, ratio in enumerate(cfg.lambda_ratios):
        rep = pv.run_distinguishing_game(
            GameConfig(e1=[0.0], e2=[ratio], lam=1.0, trials=cfg.game_trials, seed=trial_seed + i)
        )
        game_pass &= rep.passed
        game_rows.append([rep.norm_ratio, rep.bound, rep.empirical, rep.stderr, str(rep.passed).lower()])
        print(f"game ratio={ratio}: empirical={rep.empirical:.5f} bound={rep.bound:.5f} "
              f"stderr={rep.stderr:.5f} [{'pass' if rep.passed else 'FAIL'}]")
    # multi-dimensional cross-check: product-form TV vs grid integration
    delta = np.array([0.5, 0.5])
    closed = pv.tv_box_closed_form(delta, 1.0)
    grid = pv.tv_exact_small([0.0, 0.0], delta, 1.0, grid=401)
    tv_ok = abs(closed - grid) < 0.02 and closed <= min(float(np.sum(np.abs(delta))), 1.0)
    print(f"2-dim TV: closed-form={closed:.4f} grid={grid:.4f} l1-bound dominates: {tv_ok}")

    weights, provider, enclave = _build_world(cfg)
    transport = _open_transport(cfg, provider)
    try:
        enclave.setup(transport)
    finally:
        transport.close()
    kernel_rows = []
    kernel_pass = True
    for op_id in cfg.model_config().op_ids():
        base = enclave.bases[op_id]
        rank, kernel = ring_kernel(base.public_base)
        want = base.d - base.m
        ok = kernel.cols == want and rank == base.m
        kernel_pass &= ok
        kernel_rows.append([op_id, base.m, base.d, rank, kernel.cols, str(ok).lower()])
        print(f"kernel {op_id}: rank={rank} dim={kernel.cols} (d-m={want}) "
              f"[{'pass' if ok else 'FAIL'}]")

    base = enclave.bases[cfg.attack_op]
    candidates = pv.enumerate_consistent_weights(base.public_base, base.pool, cfg.consistent_count)
    residuals = [pv.residual_inf(base.public_base, w, base.pool) for w in candidates]
    distinct = len(set(candidates)) == len(candidates)
    consistent_ok = all(r <= 1e-9 for r in residuals) and distinct
    print(f"consistent weights: {len(candidates)} candidates, max residual={max(residuals):.2e}, "
          f"distinct={distinct} [{'pass' if consistent_ok else 'FAIL'}]")

    true_w = weights.ops[cfg.attack_op]
    m = base.m
    single = pv.stacking_attack_demo([(base.public_base, base.pool)], true_w)
    stack_rep = None
    attempts = 0
    for attempt in range(cfg.stacking_attempts):
        extra = pv.forge_sketch(trial_seed + attempt, cfg.attack_op, true_w, m, true_w.params)
        stack_rep = pv.stacking_attack_demo([(base.public_base, base.pool), extra], true_w)
        attempts = attempt + 1
        if stack_rep.recovered:
            break
    stacking_ok = (not single.recovered) and stack_rep is not None and stack_rep.recovered
    print(f"stacking: single sketch recovered={single.recovered}, "
          f"two independent sketches recovered={stack_rep.recovered} "
          f"(err={stack_rep.max_abs_err}, attempts={attempts}) [{'pass' if stacking_ok else 'FAIL'}]")

    all_ok = game_pass and tv_ok and kernel_pass and consistent_ok and stacking_ok
    _write_csv(out_dir / "report.csv", ["norm_ratio", "bound", "empirical", "stderr", "pass"], game_rows)
    _write_json(out_dir / "report.json", {
        "game_pass": game_pass,
        "tv_cross_check": {"closed": closed, "grid": grid, "ok": tv_ok},
        "kernel": [
            {"op": r[0], "m": r[1], "d": r[2], "rank": r[3], "kernel_dim": r[4], "ok": r[5] == "true"}
            for r in kernel_rows
        ],
        "consistent": {"count": len(candidates), "max_residual": max(residuals), "distinct": distinct},
        "stacking": {
            "single_recovered": single.recovered,
            "stacked_recovered": stack_rep.recovered,
            "attempts": attempts,
            "max_abs_err": stack_rep.max_abs_err,
        },
        "all_pass": all_ok,
    })
    return 0 if all_ok else 1


def cmd_serve(cfg: RunConfig) -> int:
    weights = init_weights(cfg.model_config(), cfg.seed_for("model"))
    state = ProviderState(weights.provider_view(), cfg.model_config().params)
    server = ProviderServer(state, host=cfg.serve_host, port=cfg.serve_port,
                            idle_timeout=cfg.timeout_s)
    host, port = server.address
    print(f"provider listening on {host}:{port} (Ctrl-C to stop)")
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="remo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    overrides = [
        ("--out-dir", "out_dir", str),
        ("--seed", "seed", int),
        ("--transport", "transport", str),
        ("--prompts", "prompts", int),
        ("--prompt-len", "prompt_len", int),
        ("--max-new", "max_new", int),
        ("--attack-prompts", "attack_prompts", int),
        ("--game-trials", "game_trials", int),
        ("--port", "serve_port", int),
    ]
    for name in ("demo", "invariance", "attack", "privacy", "serve"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="flat key=value config file")
        for flag, dest, typ in overrides:
            p.add_argument(flag, dest=dest, type=typ, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        for f in fields(RunConfig):
            override = getattr(args, f.name, None)
            if override is not None:
                setattr(cfg, f.name, override)
        if args.command == "serve":
            return cmd_serve(cfg)
        handler = {
            "demo": cmd_demo,
            "invariance": cmd_invariance,
            "attack": cmd_attack,
            "privacy": cmd_privacy,
        }[args.command]
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.time()
        code = handler(cfg, out_dir)
        _write_json(out_dir / "meta.json", {
            "command": args.command,
            "started_unix": started,
            "finished_unix": time.time(),
            "host": platform.node(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        })
        return code
    except RemoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
