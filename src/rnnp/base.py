"""Estimator plumbing and shared exceptions.

The estimator classes in this package follow the scikit-learn protocol
(``fit`` returns ``self``, constructor arguments are stored verbatim,
fitted state lives in trailing-underscore attributes, ``get_params`` /
``set_params`` round-trip).  The mixin below provides the protocol without
pulling in scikit-learn itself; estimators built on it still compose with
tools that duck-type against the protocol.
"""

from __future__ import annotations

import inspect
import math
import os
from contextlib import contextmanager
from datetime import datetime
from typing import Any, Iterable


class RnnpError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(RnnpError):
    """Invalid configuration (bad key, bad value, inconsistent options)."""


class DataValidationError(RnnpError):
    """Input data violates a structural contract (gaps, duplicates, signs)."""


class NumericError(RnnpError):
    """A numeric computation produced a non-finite or out-of-range value."""


class NotFittedError(RnnpError):
    """An estimator method that requires ``fit`` was called before ``fit``."""


class BaseEstimator:
    """Minimal scikit-learn-style parameter handling.

    Constructor arguments are discovered by introspection, so subclasses
    must store every ``__init__`` argument under the same attribute name
    and do no other work in ``__init__``.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ConfigError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_fitted(estimator: Any, attributes: Iterable[str]) -> None:
    """Raise :class:`NotFittedError` unless all fitted attributes exist."""
    missing = [a for a in attributes if not hasattr(estimator, a)]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet "
            f"(missing {', '.join(missing)}); call fit() first"
        )


# A JSON number: a bool is never one.
NUMBER = (int, float)


def check_kind(value: Any, kind: Any, name: str, error: type, source: str) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` has the JSON ``kind``.

    ``kind`` is a type, a tuple of types, [kind] for a list of kind, or a
    dict of kinds for an object with some of those keys and no others.  A
    bool never matches a number kind, and a number must convert to a finite
    float: an integer too large for one (``10**400``) is rejected here, not
    left to overflow in its reader.  ``source`` ("config", "checkpoint")
    opens every message.
    """
    if isinstance(kind, dict):
        where = name or "root"
        if not isinstance(value, dict):
            raise error(f"{source} {where} must be a JSON object")
        unknown = set(value) - set(kind)
        if unknown:
            raise error(f"unknown keys in {source} {where}: {sorted(unknown)}")
        for key, item in value.items():
            check_kind(item, kind[key], f"{name}.{key}" if name else key, error, source)
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise error(f"{source} value {name} must be a JSON list")
        for item in value:
            check_kind(item, kind[0], name, error, source)
    elif isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{source} value {name} has the wrong type: {value!r}")
    elif isinstance(value, float) and not math.isfinite(value):
        raise error(f"{source} value {name} is not finite: {value!r}")
    elif kind == NUMBER and not _fits_float(value):
        raise error(f"{source} value {name} is too large for a float")


def _fits_float(value: int | float) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def checkpoint_field(record: Any, *keys: str, kind: Any = None) -> Any:
    """``record[keys[0]][keys[1]]...`` of a loaded checkpoint.

    A missing key, or a value without the JSON ``kind`` (see
    ``check_kind``) when one is given, raises :class:`DataValidationError`
    naming its path, so a truncated, foreign or edited checkpoint is
    reported as bad data.
    """
    for depth, key in enumerate(keys):
        if not isinstance(record, dict) or key not in record:
            path = ".".join(keys[: depth + 1])
            raise DataValidationError(f"checkpoint has no {path!r} entry")
        record = record[key]
    if kind is not None:
        check_kind(record, kind, ".".join(keys), DataValidationError, "checkpoint")
    return record


def naive_timestamp(text: str) -> datetime:
    """``datetime.fromisoformat(text)`` for a naive timestamp, a local civil
    hour.  A timestamp with a UTC offset raises ``ValueError``: it cannot
    be compared with the naive hours of a series."""
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is not None:
        raise ValueError(
            f"timestamp {text!r} has a UTC offset; timestamps are naive local hours"
        )
    return ts


@contextmanager
def open_utf8(path: str):
    """``path`` opened for reading as utf-8 text (``newline=""``); bytes
    that are not utf-8 raise ``DataValidationError`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            yield f
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path} is not utf-8 text ({exc.reason})") from None


@contextmanager
def atomic_write(path: str):
    """A utf-8 text file (``newline=""``) that replaces ``path`` only once
    the block completes; if it raises, ``path`` is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        f = open(tmp, "w", encoding="utf-8", newline="")
    except OSError as exc:  # name the destination, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
