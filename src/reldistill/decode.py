"""The one reader of each input format: whole-file JSON, JSON objects
decoded into typed dataclasses, JSONL lines, TSV rows and the numbers in
their fields. A malformed input raises `InputError`, which names the
file, the key path or the line, and exits 1. `lines` is the one loop
over a line file: it alone numbers the lines and puts `path: line N: `
in front of a per-line parser's `InputError`."""

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


class InputError(ValueError):
    """A malformed input: a file, a line or a value that its reader refuses."""


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


def _value(hint, value, key: str, label: str):
    if is_dataclass(hint):
        return decode(hint, value, label, key)
    origin = get_origin(hint)
    if origin is dict:
        if isinstance(value, dict):
            item = get_args(hint)[1]
            return {k: _value(item, v, f"{key}.{k}", label) for k, v in value.items()}
    elif origin in (list, frozenset):
        item = get_args(hint)[0]
        if isinstance(value, list) and all(_fits(v, item) for v in value):
            return origin(
                _value(item, v, f"{key}[{i}]", label) for i, v in enumerate(value)
            )
    elif _fits(value, hint):
        if isinstance(value, dict):  # the object of an optional dataclass
            return decode(next(filter(is_dataclass, get_args(hint))), value, label, key)
        return value
    raise InputError(f"{label}: {key!r} must be {_describe(hint)}, got {reprlib.repr(value)}")


def decode(cls, obj, label: str, key: str = ""):
    """The dataclass `cls` built from the JSON value `obj` at path `key`:
    each value must fit its field's type hint (a dataclass, or a list, a
    dict or an optional of them, is decoded in turn), fields without a
    default are required, `init=False` fields are not read and unknown
    keys are refused; a section's own range check raises `InputError`."""
    if not isinstance(obj, dict):
        if not key:
            raise InputError(f"{label} must be a JSON object, got a {type(obj).__name__}")
        raise InputError(f"{label}: {key!r} must be a JSON object, got {reprlib.repr(obj)}")
    prefix = f"{key}." if key else ""
    init = [f for f in fields(cls) if f.init]
    unknown = sorted(set(obj) - {f.name for f in init})
    if unknown:
        raise InputError(f"{label}: unknown key {prefix + unknown[0]!r}")
    hints = _hints(cls)
    values = {}
    for f in init:
        if f.name in obj:
            values[f.name] = _value(hints[f.name], obj[f.name], prefix + f.name, label)
        elif required(f):
            raise InputError(f"{label}: missing required key {prefix + f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:  # a section's range check
        if not key:  # the top-level class names its input itself
            raise
        raise InputError(f"{label}: {key!r}: {exc}") from None


def json_file(path: str, label: str):
    """The JSON value of the whole file at `path`; a directory, text that
    is not UTF-8 or is not JSON raises `InputError` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except IsADirectoryError:
        raise InputError(f"{label} {path!r} is a directory, not a JSON file") from None
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise InputError(f"{label} {path!r}: invalid JSON ({exc})") from exc


def lines(path: str, parse) -> list:
    """`parse(line)` of each non-blank line of the text file at `path`, in
    order. Blank lines are skipped but counted, and an `InputError` from
    line N is raised again as `path: line N: ` and its message; any other
    exception passes through as it is. Text that is not UTF-8 raises
    `InputError` naming the file only: the file is decoded in blocks, so
    the line of the bad byte is not known."""
    line_no = 0
    try:
        with open(path, encoding="utf-8") as fh:
            out = []
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    out.append(parse(line))
            return out
    except InputError as exc:
        raise InputError(f"{path}: line {line_no}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def jsonl(path: str, parse) -> list:
    """`parse(value)` of the JSON value of each non-blank line of a JSONL
    file, through `lines`; a line that is not JSON is refused."""

    def line(text: str):
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON ({exc})") from None
        return parse(value)

    return lines(path, line)


def tsv(path: str, n_fields: int, parse) -> list:
    """`parse(*fields)` of each non-blank line of a TSV file, through
    `lines`; a line without exactly `n_fields` tab-separated fields is
    refused."""

    def line(text: str):
        row = text.rstrip("\n").split("\t")
        if len(row) != n_fields:
            raise InputError(f"expected {n_fields} tab-separated fields")
        return parse(*row)

    return lines(path, line)


def finite(text: str) -> float:
    """The finite number `text`; anything else raises `InputError`."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise InputError(f"expected a finite number, got {text!r}")
