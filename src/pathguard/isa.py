"""Instruction set of the stack machine.

Every instruction is one opcode byte plus, when the opcode takes an operand,
one immediate of ``width // 8`` bytes. Jump targets are immediate instruction
indices resolved by the assembler, which keeps control flow fully static.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Op(Enum):
    """Opcodes, listed in dispatch order.

    Each member's ``code`` is its index in this list. The VM dispatches on
    these dense ints, split into ranges by ``<`` tests: stack ops, binary
    then unary ALU ops, jumps and memory, one-operand environment reads,
    zero-operand environment reads, then storage writes, calls and exits.
    """

    PUSH = "PUSH"
    POP = "POP"
    DUP = "DUP"
    SWAP = "SWAP"
    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    DIV = "DIV"
    LT = "LT"
    GT = "GT"
    EQ = "EQ"
    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    ISZERO = "ISZERO"
    NOT = "NOT"
    JUMPDEST = "JUMPDEST"
    JUMP = "JUMP"
    JUMPI = "JUMPI"
    MLOAD = "MLOAD"
    MSTORE = "MSTORE"
    SLOAD = "SLOAD"
    TLOAD = "TLOAD"  # transient storage (EIP-1153): cleared every transaction
    CODELOAD = "CODELOAD"  # read a word from the contract's constant pool
    CALLDATALOAD = "CALLDATALOAD"
    BALANCE = "BALANCE"
    RETURNDATALOAD = "RETURNDATALOAD"
    CALLDATASIZE = "CALLDATASIZE"
    CALLER = "CALLER"
    ORIGIN = "ORIGIN"
    ADDRESS = "ADDRESS"
    CALLVALUE = "CALLVALUE"
    RETURNDATASIZE = "RETURNDATASIZE"
    SSTORE = "SSTORE"
    TSTORE = "TSTORE"
    ICALL = "ICALL"
    IRET = "IRET"
    CALL = "CALL"
    DELEGATECALL = "DELEGATECALL"
    RETURN = "RETURN"
    STOP = "STOP"
    REVERT = "REVERT"


for _code, _op in enumerate(Op):
    _op.code = _code
del _code, _op


# Opcodes that carry an immediate operand.
IMMEDIATE_OPS = frozenset({Op.PUSH, Op.DUP, Op.SWAP, Op.JUMP, Op.JUMPI, Op.ICALL})

# Opcodes that end a basic block by transferring or terminating control.
TERMINATORS = frozenset({Op.RETURN, Op.REVERT, Op.STOP, Op.IRET})
JUMPS = frozenset({Op.JUMP, Op.JUMPI})
CALLS = frozenset({Op.CALL, Op.DELEGATECALL, Op.ICALL})
EXTERNAL_CALLS = frozenset({Op.CALL, Op.DELEGATECALL})

# Arithmetic whose wraparound is profiled with a virtual branch.
CHECKED_ARITH = frozenset({Op.ADD, Op.SUB, Op.MUL})


@dataclass(frozen=True)
class Instruction:
    op: Op
    imm: int | None = None

    def __post_init__(self) -> None:
        if (self.imm is not None) != (self.op in IMMEDIATE_OPS):
            raise ValueError(f"{self.op.value}: immediate mismatch")

    def size(self, word_bytes: int) -> int:
        return 1 + (word_bytes if self.imm is not None else 0)

    def __repr__(self) -> str:  # compact, used in plan listings
        if self.imm is None:
            return self.op.value
        return f"{self.op.value} {self.imm}"


def block_leaders(body: list[Instruction]) -> list[int]:
    """Offsets where basic blocks begin, in ascending order.

    A leader is the entry offset, any JUMPDEST, any jump target, and the
    instruction after a jump, call or terminator.
    """
    leaders = {0}
    for off, instr in enumerate(body):
        if instr.op is Op.JUMPDEST:
            leaders.add(off)
        if instr.op in JUMPS:
            leaders.add(instr.imm)
        if instr.op in JUMPS or instr.op in CALLS or instr.op in TERMINATORS:
            if off + 1 < len(body):
                leaders.add(off + 1)
    return sorted(o for o in leaders if o < len(body))
