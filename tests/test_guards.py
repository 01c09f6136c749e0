"""Structural guards: the wire-error registry, the shape of the public API and what `import remo` loads."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import remo
from remo import errors
from remo.cli import RunConfig
from remo.errors import BadParams, ProtocolError, RemoError
import remo.masking
import remo.model
import remo.protocol
from remo.protocol import Enclave
from remo.ring import QuantParams

MODULES = [
    importlib.import_module(f"remo.{info.name}") for info in pkgutil.iter_modules(remo.__path__)
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("cls", sorted(set(_subclasses(RemoError)), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_crosses_the_wire(cls):
    rebuilt = errors.from_code(errors.error_code(cls("detail")), "detail")
    assert type(rebuilt) is cls
    assert str(rebuilt) == "detail"


def test_unknown_error_code_is_protocol_error():
    assert type(errors.from_code("NoSuchError", "x")) is ProtocolError


def test_bad_ring_params_are_remo_errors():
    for f in (0, 64):
        with pytest.raises(BadParams):
            QuantParams(f=f)


def test_ring_width_is_a_constant_not_a_parameter():
    # the ring is Z_2^64; only the fraction bits of the encoding vary
    assert tuple(f.name for f in dataclasses.fields(QuantParams)) == ("f",)
    width_knob = re.compile(r"params\.k\b|\.mask\b|\.modulus\b")
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(Path(remo.__file__).parent.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if width_knob.search(line)
    ]
    assert not offenders


def test_run_config_knobs_are_pinned():
    # a new knob is a visible edit here, not a silent addition to RunConfig
    assert tuple(f.name for f in dataclasses.fields(RunConfig)) == (
        "vocab", "d", "layers", "heads", "d_ff", "max_seq", "eos_id",
        "f",
        "mask_ratio",
        "seed",
        "transport", "timeout_s", "out_dir",
        "prompts", "prompt_len", "max_new", "corpus_kind",
        "attack_prompts", "attack_prompt_len", "attack_max_new", "attack_op",
        "lambda_ratios", "game_trials", "consistent_count", "stacking_attempts",
        "serve_host", "serve_port",
    )


def test_every_raise_names_a_remo_error():
    # the CLI exits 2 on a RemoError; any other exception escapes as a traceback
    remo_errors = {cls.__name__ for cls in _subclasses(RemoError)} | {"RemoError"}
    offenders = []
    for path in sorted(Path(remo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id not in remo_errors
            ):
                offenders.append(f"{path.name}:{node.lineno} raises {node.exc.func.id}")
    assert not offenders


def _public_callables():
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                    if inspect.isfunction(fn):
                        yield f"{mod.__name__}.{name}.{attr}", fn


def test_no_public_callable_takes_a_private_parameter():
    offenders = [
        f"{qualname}({param})"
        for qualname, fn in _public_callables()
        for param in inspect.signature(fn).parameters
        if param.startswith("_")
    ]
    assert not offenders


def test_every_exported_name_resolves():
    missing = [name for name in remo.__all__ if not hasattr(remo, name)]
    assert not missing


def test_enclave_has_no_plaintext_hook():
    # attack views come from the wire and a reference engine, not from the enclave
    assert list(inspect.signature(Enclave.__init__).parameters) == [
        "self", "params", "master_seed", "mask_ratio",
    ]
    assert list(inspect.signature(Enclave.run_session).parameters) == [
        "self", "transport", "prompt", "max_new",
    ]


FRESH_IMPORT = """
import sys
import numpy as np
import remo, remo.cli, remo.attack, remo.privacy
from remo.protocol import TO_PROVIDER, MatMulRequest
from remo.ring import QuantParams, RingMatrix

assert remo.__file__ == sys.argv[1], remo.__file__
assert "numpy.random" in sys.modules

data = np.random.default_rng(1).integers(0, 2**64, size=(4, 1024), dtype=np.uint64)
transcript = remo.Transcript()
transcript.append(TO_PROVIDER, MatMulRequest(1, 0, "head", RingMatrix(data, QuantParams())))
clause = remo.audit_transcript(transcript).clauses["uniformity"]
assert clause.ok and "vs critical 310.5" in clause.detail, clause.detail
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not scipy, scipy
"""


def test_remo_never_imports_scipy():
    # remo runs on numpy and the standard library; scipy.stats alone costs
    # about 1 s and 65 MB per process.  pytest's own process has scipy
    # loaded: check a fresh one, through an audit too.
    src = str(Path(remo.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", FRESH_IMPORT, remo.__file__],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr


def test_bench_span_hooks_rebind_names_that_exist():
    # bench/spans.py times remo by rebinding names in `src/`; tier-1 does not
    # run bench/, so a rename there would break `bench/run.py --trace 1` silently.
    # `install` reads each target from its owner's __dict__: a missing one raises.
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("remo_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    owners = [remo.protocol, remo.model, remo.masking, remo.protocol.ProviderState,
              remo.masking.MaskIssuer, remo.model.KVCache, remo.model.DecoderEngine]

    def bindings():
        return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}

    before = bindings()
    restore = spans.install(spans.Tracer())
    try:
        during = bindings()
    finally:
        restore()
    rebound = {key for key, value in during.items() if value is not before[key]}
    assert ("MaskIssuer", "gen_public_base") in rebound and ("remo.protocol", "ring_matmul") in rebound
    assert all(value is before[key] for key, value in bindings().items())
    assert bindings().keys() == before.keys()
