"""Runtime configuration: machine word width, gas schedule, guard constants."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

SUPPORTED_WIDTHS = (8, 16, 32, 64)

# Contract code may not exceed this many bytes when deployed.
MAX_CODE_BYTES = 24576

# Hard limits of the machine.
OPERAND_STACK_LIMIT = 1024
CALL_DEPTH_LIMIT = 64
INTERNAL_DEPTH_LIMIT = 64


@dataclass(frozen=True)
class GasSchedule:
    """Per-operation gas charges.

    ``sstore_set`` applies to a zero slot receiving a nonzero value,
    ``sstore_update`` to every other store. There are no refunds.
    """

    base_op: int = 3
    jumpi: int = 10
    sload: int = 200
    sstore_set: int = 20000
    sstore_update: int = 5000
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
    mpht_max_seed_tries: int = 16
    alarm_buffer_cap: int = 8
    # Calldata / return-data marker for calls between protected contracts.
    call_marker: int = 0xC0DE_CA11_C0DE_CA11
    # First word of guard-revert payloads.
    guard_marker: int = 0xA1A7_A1A7_A1A7_A1A7
    # XOR tag mixed into dynamic-mapping storage slots.
    mapping_tag: int = 0x5AFE_5E75_5AFE_5E75
    # Salt for the per-function slice of the mapping slot space.
    mapping_salt: int = 0x00F5_EED0_00F5_EED0
    # Storage slot that persists ctx across calls to unprotected contracts.
    ctx_slot_offset: int = 1  # slot index counted down from 2**W - 1


@dataclass(frozen=True)
class Config:
    width: int = 64
    gas: GasSchedule = field(default_factory=GasSchedule)
    guard: GuardParams = field(default_factory=GuardParams)
    admin: int = 0xAD

    def __post_init__(self) -> None:
        if self.width not in SUPPORTED_WIDTHS:
            raise ValueError(f"unsupported word width {self.width}")

    @property
    def word_bytes(self) -> int:
        return self.width // 8

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def ctx_storage_slot(self) -> int:
        return self.mask - self.guard.ctx_slot_offset + 1

    @property
    def slot_poison(self) -> int:
        """Ctx-slot value marking "anomaly seen in a reentrant frame"."""
        return self.mask


def load_config(path: str | Path | None, **overrides) -> Config:
    """Build a Config from an optional JSON file plus keyword overrides."""
    raw = json.loads(Path(path).read_text()) if path is not None else {}
    return config_from_json(raw, **overrides)


def config_from_json(raw: dict, **overrides) -> Config:
    """Build a Config from a JSON config dict plus keyword overrides.

    Recognized JSON keys: ``word_width``, ``gas`` (schedule field overrides),
    ``lambda``, ``admin``, ``reserved`` (guard constant overrides).
    """
    width = raw.get("word_width", 64)
    gas_kwargs: dict = dict(raw.get("gas", {}))
    guard_kwargs: dict = {}
    if "lambda" in raw:
        guard_kwargs["mpht_lambda"] = raw["lambda"]
    for key, val in raw.get("reserved", {}).items():
        guard_kwargs[key] = _parse_word(val)
    admin = _parse_word(raw["admin"]) if "admin" in raw else Config.admin
    width = overrides.pop("width", width)
    admin = overrides.pop("admin", admin)
    gas_kwargs.update(overrides.pop("gas", {}))
    guard_kwargs.update(overrides.pop("guard", {}))
    if overrides:
        raise ValueError(f"unknown config overrides: {sorted(overrides)}")
    return Config(
        width=width,
        gas=GasSchedule(**gas_kwargs),
        guard=GuardParams(**guard_kwargs),
        admin=admin,
    )


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


def _parse_word(value) -> int:
    if isinstance(value, str):
        return int(value, 16) if value.lower().startswith("0x") else int(value)
    return int(value)


DEFAULT_CONFIG = Config()
