"""Exception types shared across the package, and the checks of JSON input."""

import json
import sys


class BotmeterError(Exception):
    """Base class for all botmeter errors."""


class PcapFormatError(BotmeterError):
    """Raised for capture files that are not classic pcap."""


class CsvFormatError(BotmeterError):
    """Raised for malformed CSV inputs (missing columns, ragged rows, bad cells)."""


class ValidationError(BotmeterError):
    """Raised when an operation is called with arguments outside its contract."""


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file ``path``, a ``what`` (config, blueprint,
    model), less any UTF-8 byte-order mark.  Text that is not UTF-8 JSON,
    or not an object, is a ValidationError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"{path}: not a JSON {what}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    return doc


def check_keys(where, obj: dict, allowed, required=()) -> None:
    """Refuse a JSON object that lacks a key of ``required`` or holds one
    outside ``allowed``, with a ValidationError naming ``where`` and each
    such key."""
    missing = [key for key in required if key not in obj]
    unknown = sorted(key for key in obj if key not in allowed)
    wrong = [f"{what} key(s) {', '.join(map(repr, keys))}"
             for what, keys in (("missing", missing), ("unknown", unknown)) if keys]
    if wrong:
        raise ValidationError(f"{where}: {'; '.join(wrong)}")


def json_number(name: str, value, integer: bool = False):
    """``value`` as an int (``integer``) or a finite float.  Anything else,
    booleans, ``6.0`` for an int and NaN or an infinity for a real
    included, is a ValidationError naming ``name``."""
    if not isinstance(value, bool):
        if integer and isinstance(value, int):
            return value
        # The bound also rejects nan, inf and ints beyond the float range.
        if (not integer and isinstance(value, (int, float))
                and abs(value) <= sys.float_info.max):
            return float(value)
    what = "an integer" if integer else "a finite number"
    raise ValidationError(f"{name} must be {what}, got {value!r}")
