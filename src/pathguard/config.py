"""Runtime configuration: machine word width, gas schedule, administrator, λ."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

SUPPORTED_WIDTHS = (8, 16, 32, 64)

# Contract code may not exceed this many bytes when deployed.
MAX_CODE_BYTES = 24576

# Hard limits of the machine.
OPERAND_STACK_LIMIT = 1024
CALL_DEPTH_LIMIT = 64
INTERNAL_DEPTH_LIMIT = 64


class ConfigError(ValueError):
    """A config names an unknown key or holds a value the machine cannot use."""


@dataclass(frozen=True)
class GasSchedule:
    """Per-operation gas charges.

    ``sstore_set`` applies to a zero slot receiving a nonzero value,
    ``sstore_update`` to every other store. There are no refunds.
    Transient storage (``tload``, ``tstore``) has flat prices, as in
    EIP-1153.
    """

    base_op: int = 3
    jumpi: int = 10
    sload: int = 200
    sstore_set: int = 20000
    sstore_update: int = 5000
    tload: int = 100
    tstore: int = 100
    call_base: int = 700
    code_deposit_per_byte: int = 200
    memory_op: int = 3

    def sstore_cost(self, prev: int, new: int) -> int:
        if prev == 0 and new != 0:
            return self.sstore_set
        return self.sstore_update


@dataclass(frozen=True)
class Config:
    """What a user may set; the guard's protocol words are fixed in its code."""

    width: int = 64
    gas: GasSchedule = field(default_factory=GasSchedule)
    admin: int = 0xAD
    mpht_lambda: int = 4

    def __post_init__(self) -> None:
        if self.width not in SUPPORTED_WIDTHS:
            raise ConfigError(f"word_width: unsupported width {self.width}")
        if self.mpht_lambda < 1:
            raise ConfigError(f"lambda: {self.mpht_lambda} keys per bucket; at least 1")

    @property
    def word_bytes(self) -> int:
        return self.width // 8

    @cached_property
    def mask(self) -> int:
        """All ones at the word width; computed once per Config."""
        return (1 << self.width) - 1


def load_config(path: str | Path | None) -> Config:
    """The Config of an optional JSON file; no file gives the defaults."""
    return config_from_json(read_json(path, ConfigError) if path is not None else {})


def config_from_json(raw: dict) -> Config:
    """Build a Config from a JSON config dict.

    Recognized JSON keys: ``word_width``, ``gas`` (schedule field overrides),
    ``lambda`` and ``admin``. Any other key, a section that is not a JSON
    object, or a value that is not a word (an integer or an integer string;
    not a float or a bool), raises ``ConfigError`` naming its section and key.
    """
    _require_object(raw, "config")
    unknown = sorted(set(raw) - {"word_width", "gas", "lambda", "admin"})
    if unknown:
        raise ConfigError(f"config: unknown key {unknown[0]!r}")
    gas = raw.get("gas", {})
    _require_object(gas, "gas")
    unknown = sorted(set(gas) - {f.name for f in fields(GasSchedule)})
    if unknown:
        raise ConfigError(f"gas: unknown key {unknown[0]!r}")
    return Config(
        width=read_word(raw.get("word_width", 64), "word_width"),
        gas=GasSchedule(**{key: read_word(val, f"gas.{key}") for key, val in gas.items()}),
        admin=read_word(raw.get("admin", Config.admin), "admin"),
        mpht_lambda=read_word(raw.get("lambda", Config.mpht_lambda), "lambda"),
    )


def _require_object(value, where: str) -> None:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: not a JSON object: {value!r}")


def config_to_json(config: Config) -> dict:
    """The JSON config dict that ``config_from_json`` reads back to ``config``."""
    return {
        "word_width": config.width,
        "gas": asdict(config.gas),
        "lambda": config.mpht_lambda,
        "admin": config.admin,
    }


def read_word(
    value, where: str, error: type[Exception] = ConfigError, mask: int | None = None
) -> int:
    """A word read from JSON: an int, or a string of one in decimal or
    ``0x`` hex, and in [0, mask] when ``mask`` is given. Anything else (a
    float, a bool, a word out of range) raises ``error``, the reading
    format's own error type, naming ``where``."""
    word = None
    # bool is an int subclass, and int() would truncate a float in silence
    if isinstance(value, int) and not isinstance(value, bool):
        word = value
    elif isinstance(value, str):
        try:
            word = int(value, 16) if value.lower().startswith("0x") else int(value)
        except ValueError:
            pass
    if word is None:
        raise error(f"{where}: not a word: {value!r}")
    if mask is not None and not 0 <= word <= mask:
        raise error(f"{where}: {value!r} is not a word in [0, {mask:#x}]")
    return word


_REQUIRED = object()
_KIND_NAMES = {dict: "JSON object", list: "list", str: "string", int: "integer"}


def read_field(raw, key: str, kind: type, where: str, error: type[Exception], default=_REQUIRED):
    """``raw[key]``, which must be a ``kind`` (an int is not a bool); a
    missing or null key gives ``default`` when there is one. ``raw`` that is
    not a JSON object, a missing key without a default or a value of another
    type raises ``error``, the reading format's own error type, naming
    ``where`` and ``key``."""
    if not isinstance(raw, dict):
        raise error(f"{where}: not a JSON object: {raw!r}")
    value = raw.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in raw:
        raise error(f"{where}: no {key!r} field")
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise error(f"{where}: field {key!r} is not a {_KIND_NAMES[kind]}: {value!r}")
    return value


def read_text(path: str | Path, error: type[Exception] = ConfigError) -> str:
    """The text of file ``path``; a file that cannot be read raises
    ``error``, the reading format's own error type, naming the file."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read: {exc}") from None


def read_json(path: str | Path, error: type[Exception] = ConfigError, lines: bool = False):
    """The JSON document in file ``path``, or with ``lines`` the list of its
    JSON-lines records (blank lines and ``#`` comments skipped). A file that
    cannot be read or does not parse raises ``error``, the reading format's
    own error type, naming the file and line."""
    text = read_text(path, error)
    if not lines:
        return _parse_json(text, path, None, error)
    return [
        _parse_json(line, path, number, error)
        for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#")
    ]


def _parse_json(text: str, path, line: int | None, error: type[Exception]):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{line or exc.lineno}: not JSON: {exc.msg}") from None


DEFAULT_CONFIG = Config()
