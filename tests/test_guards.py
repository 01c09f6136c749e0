"""Structural guards: the wire-error registry and the shape of the public API."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import remo
from remo import errors
from remo.errors import ProtocolError, RemoError
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
    with pytest.raises(RemoError):
        QuantParams(k=65)


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
