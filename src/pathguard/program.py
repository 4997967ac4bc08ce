"""Contract container: function table, selector map, constant pool, call annotations."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .config import MAX_CODE_BYTES, Config, read_field, read_word
from .isa import JUMPS, TERMINATORS, Instruction, Op, block_leaders

HEADER_BYTES = 32
FUNCTION_ENTRY_BYTES = 8
# Every embedded path-set blob is a 14-byte header plus 8 bytes per entry.
BLOB_HEADER_BYTES = 14
BLOB_ENTRY_BYTES = 8


class Visibility(str, Enum):
    EXTERNAL = "external"
    INTERNAL = "internal"


class ValidationError(Exception):
    """Raised for structurally invalid programs or assembly sources."""


@dataclass
class CallsiteInfo:
    """Static annotation on a CALL/DELEGATECALL instruction.

    ``target`` names a protected contract when the callee is inside the
    protection boundary; ``callee_fn`` names the called function, or None
    when the selector is forwarded dynamically (fan-out to every external
    function of the target).
    """

    target: str | None = None
    callee_fn: str | None = None

    def to_json(self) -> dict:
        return {"target": self.target, "fn": self.callee_fn}

    @classmethod
    def from_json(cls, raw: dict) -> "CallsiteInfo":
        return cls(target=raw.get("target"), callee_fn=raw.get("fn"))


@dataclass
class FunctionDef:
    id: int
    name: str
    visibility: Visibility
    body: list[Instruction]

    @cached_property
    def leaders(self) -> frozenset[int]:
        """Basic-block leader offsets; the body is not changed after construction."""
        return frozenset(block_leaders(self.body))

    # The VM's decoded blocks by start offset, for the one engine key they
    # were decoded under; ``blocks`` starts a new cache when the key changes.
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _blocks_key: object = field(default=None, init=False, repr=False, compare=False)

    def blocks(self, key) -> dict:
        if self._blocks_key is not key:
            self._blocks_key, self._blocks = key, {}
        return self._blocks

    def size_bytes(self, word_bytes: int) -> int:
        return sum(i.size(word_bytes) for i in self.body)


@dataclass
class ContractProgram:
    name: str
    functions: list[FunctionDef]
    selector_table: dict[int, int]  # selector word -> external function id
    fallback_id: int | None = None
    # Constant pool words, readable via CODELOAD. Entries are at most 2**64.
    data_pool: list[int] = field(default_factory=list)
    # Byte sizes of embedded path-set blobs backed by the pool (instrumented
    # programs only); they count toward byte_size.
    blob_bytes: int = 0
    # (function id, offset) -> CallsiteInfo for annotated external calls.
    callsites: dict[tuple[int, int], CallsiteInfo] = field(default_factory=dict)

    @property
    def byte_size(self) -> int:
        # word width is fixed per program at assembly; stored below
        return self._byte_size

    _byte_size: int = 0

    def compute_byte_size(self, word_bytes: int) -> int:
        code = sum(f.size_bytes(word_bytes) for f in self.functions)
        self._byte_size = (
            HEADER_BYTES + FUNCTION_ENTRY_BYTES * len(self.functions) + code + self.blob_bytes
        )
        return self._byte_size

    def function_by_name(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"{self.name}: no function {name!r}")

    def external_functions(self) -> list[FunctionDef]:
        return [f for f in self.functions if f.visibility is Visibility.EXTERNAL]

    def selector_of(self, name: str) -> int | None:
        fid = self.function_by_name(name).id
        for sel, f in self.selector_table.items():
            if f == fid:
                return sel
        return None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "functions": [
                {
                    "id": f.id,
                    "name": f.name,
                    "visibility": f.visibility.value,
                    "body": [[i.op.value, i.imm] for i in f.body],
                }
                for f in self.functions
            ],
            "selector_table": {hex(sel): fid for sel, fid in self.selector_table.items()},
            "fallback_id": self.fallback_id,
            "data_pool": [hex(w) for w in self.data_pool],
            "blob_bytes": self.blob_bytes,
            "callsites": {
                f"{fid}:{off}": info.to_json() for (fid, off), info in self.callsites.items()
            },
            "byte_size": self._byte_size,
        }

    @classmethod
    def from_json(cls, raw: dict, where: str = "program") -> "ContractProgram":
        """The program ``to_json`` wrote. A field that is missing or of the
        wrong type, an unknown op or visibility, or a selector or callsite
        key that does not parse raises ValidationError naming ``where`` and
        the field."""

        def get(obj, key: str, kind: type, at: str, *default):
            return read_field(obj, key, kind, at, ValidationError, *default)

        name = get(raw, "name", str, where)
        where = f"{where} {name}"
        functions = []
        for i, f in enumerate(get(raw, "functions", list, where)):
            at = f"{where} functions[{i}]"
            fid, fn_name = get(f, "id", int, at), get(f, "name", str, at)
            visibility = get(f, "visibility", str, at)
            try:
                visibility = Visibility(visibility)
            except ValueError:
                raise ValidationError(f"{at}: unknown visibility {visibility!r}") from None
            body = [
                _instruction(item, f"{at} body[{off}]")
                for off, item in enumerate(get(f, "body", list, at))
            ]
            functions.append(FunctionDef(fid, fn_name, visibility, body))
        selector_table = {}
        for key in get(raw, "selector_table", dict, where):
            try:
                selector = int(key, 16)
            except ValueError:
                raise ValidationError(f"{where}: selector_table key is not hex: {key!r}") from None
            selector_table[selector] = get(
                raw["selector_table"], key, int, f"{where} selector_table"
            )
        callsites = {}
        for key in get(raw, "callsites", dict, where, {}):
            parts = key.split(":")
            if len(parts) != 2 or not all(part.isdigit() for part in parts):
                raise ValidationError(f"{where}: callsites key is not 'fid:offset': {key!r}")
            callsites[(int(parts[0]), int(parts[1]))] = CallsiteInfo.from_json(
                get(raw["callsites"], key, dict, f"{where} callsites")
            )
        prog = cls(
            name=name,
            functions=functions,
            selector_table=selector_table,
            fallback_id=get(raw, "fallback_id", int, where, None),
            data_pool=[
                read_word(w, f"{name}: data_pool[{i}]", ValidationError)
                for i, w in enumerate(get(raw, "data_pool", list, where, []))
            ],
            blob_bytes=get(raw, "blob_bytes", int, where, 0),
            callsites=callsites,
        )
        prog._byte_size = get(raw, "byte_size", int, where, 0)
        return prog


def _instruction(item, where: str) -> Instruction:
    """One ``[op, imm]`` body entry of a serialized function."""
    if not isinstance(item, list) or len(item) != 2:
        raise ValidationError(f"{where}: not an [op, immediate] pair: {item!r}")
    op, imm = item
    try:
        # an unknown op or a misplaced immediate; validate_program checks
        # the immediate's value
        return Instruction(Op(op), imm)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def derive_selector(name: str, width: int) -> int:
    """Deterministic nonzero selector for a function lacking an explicit one.

    Selectors are 4-byte values truncated to the word width; zero is reserved
    for the fallback.
    """
    bits = min(32, width)
    digest = hashlib.sha256(name.encode()).digest()
    sel = int.from_bytes(digest[:4], "big") & ((1 << bits) - 1)
    return sel or 1


def validate_program(prog: ContractProgram, config: Config) -> None:
    """Structural validation; raises ValidationError on the first violation."""
    mask = config.mask
    names = set()
    for f in prog.functions:
        if f.id != prog.functions.index(f):
            raise ValidationError(f"{prog.name}.{f.name}: function id out of order")
        if f.name in names:
            raise ValidationError(f"{prog.name}: duplicate function {f.name!r}")
        names.add(f.name)
        if not f.body:
            raise ValidationError(f"{prog.name}.{f.name}: empty body")
        last = f.body[-1]
        if last.op not in TERMINATORS and last.op is not Op.JUMP:
            raise ValidationError(
                f"{prog.name}.{f.name}: body must end with a terminator or jump"
            )
        for off, instr in enumerate(f.body):
            if instr.imm is not None and type(instr.imm) is not int:  # bool is not a word
                raise ValidationError(
                    f"{prog.name}.{f.name}@{off}: immediate {instr.imm!r} is not an int"
                )
            if instr.imm is not None and not (0 <= instr.imm <= mask):
                if instr.op in JUMPS or instr.op is Op.ICALL:
                    pass  # range-checked below with better messages
                else:
                    raise ValidationError(
                        f"{prog.name}.{f.name}@{off}: immediate {instr.imm} "
                        f"exceeds word width {config.width}"
                    )
            if instr.op in JUMPS:
                tgt = instr.imm
                if not (0 <= tgt < len(f.body)):
                    raise ValidationError(
                        f"{prog.name}.{f.name}@{off}: invalid jump target {tgt}"
                    )
                if f.body[tgt].op is not Op.JUMPDEST:
                    raise ValidationError(
                        f"{prog.name}.{f.name}@{off}: invalid jump target "
                        f"{tgt} (not a JUMPDEST)"
                    )
            if instr.op is Op.ICALL and not (0 <= instr.imm < len(prog.functions)):
                raise ValidationError(
                    f"{prog.name}.{f.name}@{off}: ICALL to unknown function {instr.imm}"
                )
    for i, word in enumerate(prog.data_pool):
        if type(word) is not int or not 0 <= word <= mask:
            raise ValidationError(
                f"{prog.name}: data_pool[{i}] = {word!r} is not a word in [0, {mask:#x}]"
            )
    for sel, fid in prog.selector_table.items():
        fn = prog.functions[fid]
        if fn.visibility is not Visibility.EXTERNAL:
            raise ValidationError(f"{prog.name}: selector maps to internal {fn.name!r}")
        if sel == 0:
            raise ValidationError(f"{prog.name}: selector 0 is reserved for the fallback")
    if prog.fallback_id is not None:
        fb = prog.functions[prog.fallback_id]
        if fb.visibility is not Visibility.EXTERNAL:
            raise ValidationError(f"{prog.name}: fallback must be external")
    prog.compute_byte_size(config.word_bytes)


class SizeLimitExceeded(Exception):
    def __init__(self, name: str, size: int):
        super().__init__(f"{name}: {size} bytes exceeds the {MAX_CODE_BYTES}-byte limit")
        self.size = size
