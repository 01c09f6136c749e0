"""Exception hierarchy shared by all remo modules.

Every error that can cross the wire has a stable string code (the class
name) so provider replies can carry it and the enclave can re-raise the
matching type.
"""

from __future__ import annotations


class RemoError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(RemoError):
    pass


class RangeOverflow(RemoError):
    pass


class SketchReissue(RemoError):
    pass


class BadDims(RemoError):
    pass


class TokenOutOfRange(RemoError):
    pass


class EmptyInput(RemoError):
    pass


class CacheInconsistent(RemoError):
    pass


class SessionExhausted(RemoError):
    pass


class DecodeError(RemoError):
    pass


class LengthMismatch(RemoError):
    pass


class UnknownOp(RemoError):
    pass


class TransportClosed(RemoError):
    pass


class BindFailure(RemoError):
    pass


class EmptyClass(RemoError):
    pass


class DimTooLarge(RemoError):
    pass


class TrivialKernel(RemoError):
    pass


class ParseError(RemoError):
    pass


class EmptyRun(RemoError):
    pass


class ProtocolError(RemoError):
    """Malformed or unexpected peer behaviour not covered by a finer type."""


class BadParams(RemoError):
    pass


# every direct subclass crosses the wire under its class name
_WIRE_CODES = {cls.__name__: cls for cls in RemoError.__subclasses__()}


def error_code(exc: RemoError) -> str:
    return type(exc).__name__


def from_code(code: str, detail: str = "") -> RemoError:
    """Rebuild the typed exception a wire error message stands for."""
    cls = _WIRE_CODES.get(code, ProtocolError)
    return cls(detail or code)
