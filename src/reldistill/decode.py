"""The one reader of each input format: whole-file JSON, JSON objects
decoded into typed dataclasses, JSONL lines, TSV rows and the numbers in
their fields. Each raises its caller's error class naming the file, the
key path or the line, so a malformed input exits 1."""

from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

_KINDS = {  # (one, a list of them)
    int: ("an integer", "integers"),
    float: ("a finite number", "finite numbers"),
    bool: ("a boolean", "booleans"),
    str: ("a string", "strings"),
    type(None): ("null", "nulls"),
}
_OBJECT = ("an object", "objects")  # a dataclass or a dict

# a dataclass's field hints, resolved once a process: each model relation, stage
# record and schema relation decodes its class again, and resolving the hints of
# one class costs 35-190 microseconds
_hints = cache(get_type_hints)


def required(f) -> bool:
    return f.default is MISSING and f.default_factory is MISSING


def _describe(hint, plural: bool = False) -> str:
    if get_origin(hint) in (list, frozenset):
        return f"a list of {_describe(get_args(hint)[0], plural=True)}"
    if get_origin(hint) is dict:
        return _OBJECT[plural]
    return " or ".join(_KINDS.get(k, _OBJECT)[plural] for k in get_args(hint) or (hint,))


def _fits(value, hint) -> bool:
    """Whether the JSON scalar or object `value` can be decoded as `hint`."""
    kinds = get_args(hint) or (hint,)
    if isinstance(value, dict):
        return any(map(is_dataclass, kinds))
    if isinstance(value, bool):
        return bool in kinds  # JSON true/false are not numbers
    if isinstance(value, float):
        # json reads NaN and Infinity, which no field accepts
        return float in kinds and math.isfinite(value)
    if isinstance(value, int) and float in kinds:  # an integer no float can hold is refused
        return abs(value) <= sys.float_info.max
    return isinstance(value, kinds)


def _value(hint, value, key: str, error, label: str):
    if is_dataclass(hint):
        return decode(hint, value, error, label, key)
    origin = get_origin(hint)
    if origin is dict:
        if isinstance(value, dict):
            item = get_args(hint)[1]
            return {k: _value(item, v, f"{key}.{k}", error, label) for k, v in value.items()}
    elif origin in (list, frozenset):
        item = get_args(hint)[0]
        if isinstance(value, list) and all(_fits(v, item) for v in value):
            return origin(
                _value(item, v, f"{key}[{i}]", error, label) for i, v in enumerate(value)
            )
    elif _fits(value, hint):
        if isinstance(value, dict):  # the object of an optional dataclass
            return decode(next(filter(is_dataclass, get_args(hint))), value, error, label, key)
        return value
    raise error(f"{label}: {key!r} must be {_describe(hint)}, got {reprlib.repr(value)}")


def decode(cls, obj, error, label: str, key: str = ""):
    """The dataclass `cls` built from the JSON value `obj` at path `key`:
    each value must fit its field's type hint (a dataclass, or a list, a
    dict or an optional of them, is decoded in turn), fields without a
    default are required, `init=False` fields are not read and unknown
    keys are refused; a section's own range check raises `error`."""
    if not isinstance(obj, dict):
        if not key:
            raise error(f"{label} must be a JSON object, got a {type(obj).__name__}")
        raise error(f"{label}: {key!r} must be a JSON object, got {reprlib.repr(obj)}")
    prefix = f"{key}." if key else ""
    init = [f for f in fields(cls) if f.init]
    unknown = sorted(set(obj) - {f.name for f in init})
    if unknown:
        raise error(f"{label}: unknown key {prefix + unknown[0]!r}")
    hints = _hints(cls)
    values = {}
    for f in init:
        if f.name in obj:
            values[f.name] = _value(hints[f.name], obj[f.name], prefix + f.name, error, label)
        elif required(f):
            raise error(f"{label}: missing required key {prefix + f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:  # a section's range check
        if not key:  # the top-level class names its input itself
            raise
        raise error(f"{label}: {key!r}: {exc}") from None


def json_file(path: str, error, label: str):
    """The JSON value of the whole file at `path`; a directory, text that
    is not UTF-8 or is not JSON raises `error` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except IsADirectoryError:
        raise error(f"{label} {path!r} is a directory, not a JSON file") from None
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise error(f"{label} {path!r}: invalid JSON ({exc})") from exc


def jsonl_lines(path: str, error):
    """Yield (line number, decoded value) for each non-blank line of a
    JSONL file; a line that is not JSON raises `error` naming it."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    yield line_no, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise error(f"line {line_no}: invalid JSON ({exc})") from exc


def tsv_rows(path: str, n_fields: int, error):
    """Yield (line number, fields) for each non-blank line of a TSV file;
    a line without exactly `n_fields` tab-separated fields raises `error`
    naming it."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                row = line.rstrip("\n").split("\t")
                if len(row) != n_fields:
                    raise error(f"{path}: line {line_no}: expected {n_fields} tab-separated fields")
                yield line_no, row


def finite(text: str, path: str, line_no: int, error) -> float:
    """The finite number `text`, a field of line `line_no` of the file at
    `path`; anything else raises `error` naming the file and the line."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise error(f"{path}: line {line_no}: expected a finite number, got {text!r}")
