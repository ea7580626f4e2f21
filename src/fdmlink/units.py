"""Parsing and formatting of physical quantities with unit suffixes.

Config files state every physical value with an explicit unit (``20MHz``,
``4.7uH``, ``8pF``, ``2kohm``); a bare number where a physical quantity is
expected is rejected.  Values span roughly twelve orders of magnitude in this
domain, so silent unit mistakes are the main input risk.

Every input file is read through ``read_config`` and ``KeyReader``; what
is wrong with it raises a ``ConfigError``, which the CLI reports as bad input.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any

__all__ = ["ConfigError", "KeyReader", "UnitError", "parse_quantity", "format_quantity", "read_config"]

_PREFIXES = {
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "µ": 1e-6,  # micro sign
    "m": 1e-3,
    "": 1.0,
    "k": 1e3,
    "M": 1e6,
    "G": 1e9,
}

# Longest unit names first so "Hz" wins over "H".
_UNITS = ("Hz", "H", "F", "ohm", "Ohm", "V", "s", "dB", "A", "W")

_CANONICAL = {"Ohm": "ohm"}
FORMAT_DIGITS = 4  # the decimals format_quantity keeps

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_PATTERN = re.compile(
    rf"^\s*({_NUMBER})\s*([pnuµmkMG]?)({'|'.join(_UNITS)})\s*$"
)
_BARE = re.compile(rf"^\s*({_NUMBER})\s*$")


class ConfigError(ValueError):
    """An input file, or a value in it, that fdmlink cannot use."""


class UnitError(ConfigError):
    """A quantity string is malformed, unitless, or has the wrong dimension."""


def parse_quantity(text: str | float, unit: str) -> float:
    """Parse ``text`` into SI base units, requiring dimension ``unit``.

    ``unit`` is one of ``Hz H F ohm V s dB`` or ``""`` for dimensionless
    fields (which accept bare numbers).  Numeric input is accepted only for
    dimensionless fields, and is returned as is; a bool is not a number,
    and a string must give a finite value.
    """
    if isinstance(text, bool) or not isinstance(text, (str, int, float)):
        raise UnitError(f"expected a {'number' if unit == '' else 'quantity in ' + unit}, got {text!r}")
    if unit == "":
        if isinstance(text, (int, float)):
            try:
                return float(text)
            except OverflowError:  # an int beyond the float range
                return math.inf if text > 0 else -math.inf
        m = _BARE.match(str(text))
        if not m:
            raise UnitError(f"expected a dimensionless number, got {text!r}")
        return _finite(float(m.group(1)), text)

    if isinstance(text, (int, float)):
        raise UnitError(
            f"bare number {text!r} where a quantity in {unit} is required; "
            f"write an explicit unit such as '10{unit}'"
        )
    m = _PATTERN.match(text)
    if m is None:
        if _BARE.match(text):
            raise UnitError(
                f"unitless value {text.strip()!r}; a suffix in {unit} is required"
            )
        raise UnitError(f"cannot parse quantity {text!r}")
    mantissa, prefix, got = m.groups()
    got = _CANONICAL.get(got, got)
    if got != unit:
        raise UnitError(f"expected a value in {unit}, got {text.strip()!r}")
    if unit == "dB" and prefix:
        raise UnitError(f"dB values take no SI prefix: {text.strip()!r}")
    return _finite(float(mantissa) * _PREFIXES[prefix], text)


def _finite(value: float, text: str) -> float:
    if not math.isfinite(value):
        raise UnitError(f"{text!r} is not a finite value")
    return value


_REQUIRED: Any = object()


def read_config(path: str | Path, decode: Callable, build: Callable, errors: tuple = ()) -> Any:
    """``build(decode(text))`` of the file at ``path``; any failure is a ``ConfigError`` naming it.

    An ``OSError`` and an error of ``decode`` (a ``ValueError`` or one of
    ``errors``) become ``ConfigError``; ``build``'s ``ConfigError`` keeps its class.
    """
    try:
        data = decode(Path(path).read_text())
    except (OSError, ValueError, *errors) as exc:
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    try:
        return build(data)
    except ConfigError as exc:
        raise type(exc)(f"{path}: {exc}") from None


class KeyReader:
    """The keys of one mapping of an input file, each checked where it is read.

    Reading a key marks it; ``done`` rejects the keys that nothing read.  A
    missing required key, a value of the wrong kind and a ``ConfigError``
    from a parser raise ``error`` (or the parser's ``ConfigError`` subclass)
    with a message that starts with the key path.
    """

    def __init__(self, data: object, path: str = "", error: type[ConfigError] = ConfigError):
        self.data, self.path, self.error, self._read = data, path, error, set()
        if not isinstance(data, Mapping):
            raise error(f"{path}: must be a mapping, got {data!r}" if path else
                        f"must be a mapping, got {data!r}")

    def where(self, key: object) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def build(self, cls: Callable, **kwargs: Any) -> Any:
        """``cls(**kwargs)``; its ``ConfigError`` comes back behind this mapping's path."""
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            raise type(exc)(f"{self.path}: {exc}" if self.path else str(exc)) from None

    def get(self, key: object, parse: Callable | type = object, default: Any = _REQUIRED) -> Any:
        """``parse(value)`` of ``key``, or the value if ``parse`` is its type; ``default`` when absent."""
        self._read.add(key)
        if key not in self.data:
            if default is _REQUIRED:
                raise self.error(f"{self.where(key)}: required key is missing")
            return default
        value = self.data[key]
        try:
            if not isinstance(parse, type):
                return parse(value)
            return _check(value, isinstance(value, parse), f"a {parse.__name__}")
        except ConfigError as exc:
            kind = self.error if type(exc) is ConfigError else type(exc)
            raise kind(f"{self.where(key)}: {exc}") from None

    def done(self) -> None:
        for key in self.data:
            if key not in self._read:
                raise self.error(f"{self.where(key)}: unknown key")

    def child(self, key: str, default: Any = _REQUIRED) -> KeyReader:
        """A reader of the mapping at ``key`` (of ``default`` when absent)."""
        return KeyReader(self.get(key, default=default), self.where(key), self.error)

    def children(self, key: str) -> list[KeyReader]:
        """A reader of each mapping in the list at ``key``."""
        items = self.get(key, list)
        return [KeyReader(item, f"{self.where(key)}[{i}]", self.error) for i, item in enumerate(items)]

    def quantity(self, key: str, unit: str, default: Any = _REQUIRED, zero_ok: bool = False) -> float:
        """A finite quantity in ``unit`` (``""``: a number) above 0, or at least 0 with ``zero_ok``."""
        what = f"finite and {'>= 0' if zero_ok else 'above 0'}"

        def parse(value: object) -> float:
            x = parse_quantity(value, unit)
            _check(value, 0.0 < x < math.inf or zero_ok and x == 0.0, what)
            return x

        return self.get(key, parse, default)

    def integer(self, key: object, default: Any = _REQUIRED, low: int = 0, high: float = math.inf) -> int:
        """An integer from ``low`` to ``high``."""
        what = f"an integer >= {low}" if high == math.inf else f"an integer from {low} to {high}"
        return self.get(key, lambda v: _check(v, isinstance(v, int) and low <= v <= high, what), default)

    def choice(self, key: str, options: tuple, default: Any = _REQUIRED) -> Any:
        """One of ``options`` (a tuple, so that an unhashable value compares unequal)."""
        what = f"one of {', '.join(map(str, options))}"
        return self.get(key, lambda v: _check(v, v in options, what), default)


def _check(value: Any, ok: bool, what: str) -> Any:
    """``value`` when ``ok`` and it is not a bool (True == 1), else ``ConfigError``."""
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"must be {what}, got {value!r}")
    return value


def format_quantity(value: float, unit: str) -> str:
    """Format ``value`` with an engineering prefix and ``FORMAT_DIGITS`` decimals, e.g. ``1.33uH``."""
    if unit == "" or unit == "dB" or value == 0.0 or not math.isfinite(value):
        return f"{round(value, FORMAT_DIGITS):g}{unit}"
    exp3 = min(3, max(-4, math.floor(math.log10(abs(value)) / 3)))
    for pfx, scale in _PREFIXES.items():
        if pfx != "µ" and scale == 10.0 ** (3 * exp3):
            return f"{round(value / scale, FORMAT_DIGITS):g}{pfx}{unit}"
    return f"{round(value, FORMAT_DIGITS):g}{unit}"
