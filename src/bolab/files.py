"""The config schema and the artifact writers that every layer shares, below
them all: ``merge_config`` merges a JSON config over its defaults, which also
serve as its schema, every artifact is written atomically and every CSV by
``write_csv``."""

from __future__ import annotations

import json
import math
import os

from .errors import AcceptanceFailure, ConfigError


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in the file ``path``; a file that is missing or
    unreadable, or holds no JSON or another JSON value, raises ConfigError
    naming ``what``."""
    if not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, not JSON or an integer too long to parse
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return data


def is_number(value) -> bool:
    """An integer or float that converts to a finite float (a bool is neither)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the largest float
        return False


def _kind(default, value) -> tuple[bool, str, str]:
    """Whether ``value`` is of the kind of ``default``, and that kind's name
    and description."""
    if isinstance(default, dict):
        return isinstance(value, dict), "dict", "an object"
    if isinstance(default, list):
        ok = isinstance(value, list) and bool(value) and all(map(is_number, value))
        return ok, "list", "a non-empty list of numbers"
    if isinstance(default, bool):
        return isinstance(value, bool), "bool", "true or false"
    if isinstance(default, str):
        return isinstance(value, str), "str", "a string"
    if isinstance(default, int):
        return is_number(value) and isinstance(value, int), "int", "an integer"
    if default is None:
        return value is None or is_number(value), "float | None", "null or a number"
    return is_number(value), "float", "a number"


def merge_config(defaults: dict, config: dict, where: str = "") -> dict:
    """``config`` merged over ``defaults``, which also serve as the schema:
    an unknown key, or a value not of its default's kind (object, non-empty
    list of numbers, bool, string, integer, finite number, or for a null
    default null or a finite number), raises ConfigError."""
    out = json.loads(json.dumps(defaults))
    for key, value in config.items():
        name = where + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        ok, kind, description = _kind(defaults[key], value)
        if not ok:
            raise ConfigError(f"{name} must be {description}, got {value!r} "
                              f"({name} must be of kind {kind})")
        if isinstance(defaults[key], dict):
            value = merge_config(defaults[key], value, name + ".")
        out[key] = value
    return out


def check_distinct(name: str, values: list) -> None:
    """Raise ConfigError when two of the numbers ``values`` of the list ``name``
    are equal."""
    if len(set(values)) < len(values):
        raise ConfigError(f"{name} must be distinct, got {values!r}")


def check_distinct_integers(name: str, values: list) -> None:
    """Raise ConfigError unless the numbers ``values`` of the list ``name`` are
    integers (2.0 is one) and no two are equal."""
    if not all(float(v).is_integer() for v in values) or len(set(values)) < len(values):
        raise ConfigError(f"{name} must be distinct integers, got {values!r}")


def atomic_write_text(path: str, text: str | bytes) -> None:
    """Write text (or bytes) to a temp file beside ``path``, then rename it
    over ``path``: every artifact is either its old or its new content.  The
    file gets the permissions ``open`` would give it (0666 less the umask).
    A path that cannot be written raises ConfigError naming it, and leaves no
    temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".bolab-tmp-{os.getpid()}-{os.urandom(6).hex()}")
    try:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc


def write_csv(path: str, header: str, rows) -> None:
    """Write the line ``header``, then one line per row of ``rows``, each
    value as itself if it is a string and as its ``repr`` otherwise, as the
    CSV ``path``: the one writer of every CSV artifact (LF line ends, written
    atomically)."""
    lines = [header, *(",".join(v if isinstance(v, str) else repr(v) for v in row)
                       for row in rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def json_text(data) -> str:
    """``data`` as indented, key-sorted JSON; a NaN or infinity raises AcceptanceFailure."""
    try:
        return json.dumps(data, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise AcceptanceFailure(f"non-finite value in a JSON artifact: {exc}") from exc
