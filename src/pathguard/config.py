"""Runtime configuration: machine word width, gas schedule, guard constants."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
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
class GuardParams:
    """Constants shared by the instrumenter, the trace oracle and the harness.

    All word-sized values are taken modulo 2**width at use sites, so the
    defaults stay valid for every supported width.
    """

    mpht_lambda: int = 4
    alarm_buffer_cap: int = 8
    # Calldata / return-data marker for calls between protected contracts.
    call_marker: int = 0xC0DE_CA11_C0DE_CA11
    # First word of guard-revert payloads.
    guard_marker: int = 0xA1A7_A1A7_A1A7_A1A7
    # XOR tag mixed into dynamic-mapping storage slots.
    mapping_tag: int = 0x5AFE_5E75_5AFE_5E75
    # Salt for the per-function slice of the mapping slot space.
    mapping_salt: int = 0x00F5_EED0_00F5_EED0


@dataclass(frozen=True)
class Config:
    width: int = 64
    gas: GasSchedule = field(default_factory=GasSchedule)
    guard: GuardParams = field(default_factory=GuardParams)
    admin: int = 0xAD

    def __post_init__(self) -> None:
        if self.width not in SUPPORTED_WIDTHS:
            raise ConfigError(f"word_width: unsupported width {self.width}")

    @property
    def word_bytes(self) -> int:
        return self.width // 8

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def slot_poison(self) -> int:
        """Ctx-slot value marking "anomaly seen in a reentrant frame"."""
        return self.mask


def load_config(path: str | Path | None, **overrides) -> Config:
    """Build a Config from an optional JSON file plus keyword overrides."""
    raw = read_json(path, ConfigError) if path is not None else {}
    return config_from_json(raw, **overrides)


def config_from_json(raw: dict, **overrides) -> Config:
    """Build a Config from a JSON config dict plus keyword overrides.

    Recognized JSON keys: ``word_width``, ``gas`` (schedule field overrides),
    ``lambda``, ``admin``, ``reserved`` (guard constant overrides). Any other
    key, a section that is not a JSON object, or a value that is not a word
    (an integer or an integer string; not a float or a bool), raises
    ``ConfigError`` naming its section and key.
    """
    _require_object(raw, "config")
    unknown = sorted(set(raw) - {"word_width", "gas", "lambda", "admin", "reserved"})
    if unknown:
        raise ConfigError(f"config: unknown key {unknown[0]!r}")
    width = read_word(raw.get("word_width", 64), "word_width")
    gas_kwargs = _words(raw, "gas")
    guard_kwargs = {"mpht_lambda": read_word(raw["lambda"], "lambda")} if "lambda" in raw else {}
    guard_kwargs.update(_words(raw, "reserved"))
    admin = read_word(raw["admin"], "admin") if "admin" in raw else Config.admin
    width = overrides.pop("width", width)
    admin = overrides.pop("admin", admin)
    gas_kwargs.update(overrides.pop("gas", {}))
    guard_kwargs.update(overrides.pop("guard", {}))
    if overrides:
        raise ConfigError(f"unknown config overrides: {sorted(overrides)}")
    return Config(
        width=width,
        gas=_section(GasSchedule, "gas", gas_kwargs),
        guard=_section(GuardParams, "reserved", guard_kwargs),
        admin=admin,
    )


def _require_object(value, where: str) -> None:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: not a JSON object: {value!r}")


def _words(raw: dict, section: str) -> dict:
    values = raw.get(section, {})
    _require_object(values, section)
    return {key: read_word(val, f"{section}.{key}") for key, val in values.items()}


def _section(cls, section: str, kwargs: dict):
    """``cls(**kwargs)``, rejecting a key that is not one of its fields."""
    unknown = sorted(set(kwargs) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{section}: unknown key {unknown[0]!r}")
    return cls(**kwargs)


def config_to_json(config: Config) -> dict:
    """The JSON config dict that ``config_from_json`` reads back to ``config``."""
    guard = asdict(config.guard)
    return {
        "word_width": config.width,
        "gas": asdict(config.gas),
        "lambda": guard.pop("mpht_lambda"),
        "admin": config.admin,
        "reserved": guard,
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
