"""Seeded generator of path-heavy contract pairs for the ``wide`` workloads.

Each generated bundle holds two protected contracts. ``front.run`` has a row
of sequential branches on the bits of its first argument, a bounded loop
whose trip count comes from the second argument, an internal function
called from several sites, a checked addition that wraps for large third
arguments, and a conditional protected call into ``back.step``, which has a
few branches of its own. Every function reads only its calldata for control
flow, so a transaction's path depends on its inputs alone.

Training covers every combination of a small input pool; detection repeats
trained inputs and draws a fixed seeded share from the whole input space, so
those transactions may walk paths that training never saw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FRONT_RUN = 0x10
BACK_STEP = 0x20
USERS = (0x1, 0x2, 0x3)
# share of detection inputs drawn from the whole input space
NOVEL_SHARE = 0.1


@dataclass
class WideShape:
    """Knobs of one generated bundle."""

    branches: int  # sequential branches in front.run
    arith_branches: tuple[int, ...]  # branches whose taken arm adds
    icall_sites: tuple[int, ...]  # branches after which front.run calls mix
    call_bit: int  # bit of x that guards the protected call into back
    back_branches: int
    pool: tuple[int, ...]  # training values of x
    back_pool: tuple[int, ...]  # training values of the back argument


def make_shape(shape_seed: int) -> WideShape:
    rng = random.Random(shape_seed)
    branches = rng.randint(7, 9)
    sites = tuple(sorted(rng.sample(range(branches), 3)))
    arith = tuple(sorted(rng.sample(range(branches), 2)))
    pool = tuple(rng.sample(range(1 << branches), 12))
    back_branches = rng.randint(3, 4)
    back_pool = tuple(rng.sample(range(1 << back_branches), 3))
    return WideShape(
        branches, arith, sites, rng.randrange(branches), back_branches, pool, back_pool
    )


def front_source(shape: WideShape, tag: str) -> str:
    lines = [f"contract front{tag} {{", f"  fn run external selector={FRONT_RUN:#x} {{"]
    emit = lines.append
    # memory: 0 accumulator, 1 loop counter
    for i in range(shape.branches):
        emit("    PUSH 0")
        emit("    CALLDATALOAD")
        emit(f"    PUSH {1 << i:#x}")
        emit("    AND")
        emit(f"    JUMPI t{i}")
        emit(f"    PUSH {i + 1}")
        emit("    PUSH 0")
        emit("    MLOAD")
        emit("    OR")
        emit("    PUSH 0")
        emit("    MSTORE")
        emit(f"    JUMP j{i}")
        emit(f"  t{i}: JUMPDEST")
        if i in shape.arith_branches:
            # checked addition: wraps only for large third arguments
            emit("    PUSH 2")
            emit("    CALLDATALOAD")
            emit("    PUSH 0")
            emit("    MLOAD")
            emit("    ADD")
        else:
            emit(f"    PUSH {(i + 1) << 8:#x}")
            emit("    PUSH 0")
            emit("    MLOAD")
            emit("    OR")
        emit("    PUSH 0")
        emit("    MSTORE")
        emit(f"  j{i}: JUMPDEST")
        if i in shape.icall_sites:
            emit("    PUSH 0")
            emit("    MLOAD")
            emit("    ICALL mix")
            emit("    PUSH 0")
            emit("    MSTORE")
    # bounded loop: the low three bits of the second argument
    emit("    PUSH 1")
    emit("    CALLDATALOAD")
    emit("    PUSH 7")
    emit("    AND")
    emit("    PUSH 1")
    emit("    MSTORE")
    emit("  loop: JUMPDEST")
    emit("    PUSH 1")
    emit("    MLOAD")
    emit("    ISZERO")
    emit("    JUMPI done")
    emit("    PUSH 1")
    emit("    MLOAD")
    emit("    PUSH 1")
    emit("    AND")
    emit("    JUMPI odd")
    emit("    PUSH 0")
    emit("    MLOAD")
    emit("    ICALL mix")
    emit("    PUSH 0")
    emit("    MSTORE")
    emit("  odd: JUMPDEST")
    emit("    PUSH 1")
    emit("    MLOAD")
    emit("    PUSH 1")
    emit("    SUB")
    emit("    PUSH 1")
    emit("    MSTORE")
    emit("    JUMP loop")
    emit("  done: JUMPDEST")
    # protected call into back, taken when the call bit of x is set
    emit("    PUSH 0")
    emit("    CALLDATALOAD")
    emit(f"    PUSH {1 << shape.call_bit:#x}")
    emit("    AND")
    emit("    ISZERO")
    emit("    JUMPI skip")
    emit("    PUSH 4")
    emit("    CALLDATALOAD")
    emit("    PUSH 1")
    emit(f"    PUSH {BACK_STEP:#x}")
    emit("    PUSH 0")
    emit("    PUSH 3")
    emit("    CALLDATALOAD")
    emit(f"    CALL target=back{tag} fn=step")
    emit("    POP")
    emit("  skip: JUMPDEST")
    emit("    PUSH 0")
    emit("    MLOAD")
    emit("    CALLER")
    emit("    SSTORE")
    emit("    STOP")
    emit("  }")
    # internal function: one branch on the low bit of its argument
    emit("  fn mix internal {")
    emit("    DUP 1")
    emit("    PUSH 1")
    emit("    AND")
    emit("    JUMPI hi")
    emit("    PUSH 0x10000")
    emit("    OR")
    emit("    IRET")
    emit("  hi: JUMPDEST")
    emit("    PUSH 0x20000")
    emit("    OR")
    emit("    IRET")
    emit("  }")
    emit("}")
    return "\n".join(lines) + "\n"


def back_source(shape: WideShape, tag: str) -> str:
    lines = [f"contract back{tag} {{", f"  fn step external selector={BACK_STEP:#x} {{"]
    emit = lines.append
    for i in range(shape.back_branches):
        emit("    PUSH 0")
        emit("    CALLDATALOAD")
        emit(f"    PUSH {1 << i:#x}")
        emit("    AND")
        emit(f"    JUMPI t{i}")
        emit(f"    PUSH {i + 1}")
        emit("    PUSH 0")
        emit("    MLOAD")
        emit("    OR")
        emit("    PUSH 0")
        emit("    MSTORE")
        emit(f"  t{i}: JUMPDEST")
    emit("    PUSH 0")
    emit("    MLOAD")
    emit("    PUSH 0")
    emit("    CALLDATALOAD")
    emit("    SSTORE")
    emit("    STOP")
    emit("  }")
    emit("}")
    return "\n".join(lines) + "\n"


def bundle_json(shape: WideShape, tag: str) -> dict:
    front, back = f"front{tag}", f"back{tag}"
    return {
        "contracts": [
            {"source": front_source(shape, tag)},
            {"source": back_source(shape, tag)},
        ],
        "boundary": [front, back],
        "deploy": [front, back],
        "accounts": [{"address": hex(u), "balance": 1000} for u in USERS],
        "setup": [],
    }


def _front_tx(tag, x, n, y, b, origin):
    return {
        "origin": origin,
        "to": f"front{tag}",
        "fn": "run",
        "calldata": [x, n, y, f"@back{tag}", b],
        "value": 0,
    }


def _back_tx(tag, b, origin):
    return {"origin": origin, "to": f"back{tag}", "fn": "step", "calldata": [b], "value": 0}


def _trained_inputs(shape: WideShape) -> list[tuple]:
    """Every (x, loop count, back argument) combination training covers."""
    combos = []
    for x in shape.pool:
        backs = shape.back_pool if x >> shape.call_bit & 1 else shape.back_pool[:1]
        combos += [(x, n, b) for n in range(4) for b in backs]
    return combos


def training_stream(rng: random.Random, shape: WideShape, tag: str) -> list[dict]:
    """Each trained combination once, plus direct calls into back, shuffled.

    Covering the whole pool makes the safe sets, and so the MPHT and
    rewriting work, the same for every seed; only order and values that do
    not steer control flow vary.
    """
    records = [
        _front_tx(tag, x, n, rng.randint(0, 1000), b, rng.choice(USERS))
        for x, n, b in _trained_inputs(shape)
    ]
    records += [_back_tx(tag, b, rng.choice(USERS)) for b in shape.back_pool]
    rng.shuffle(records)
    return records


def detect_stream(rng: random.Random, shape: WideShape, tag: str, length: int) -> list[dict]:
    """``length`` inputs, of which a seeded ``NOVEL_SHARE`` are novel draws.

    The rest repeat trained combinations. Novel draws take any bits of x,
    loops up to seven trips and, for some, an addend that wraps. Their trip
    counts, call bits and wrapping addends follow a fixed spread, shuffled,
    rather than independent draws, so every seed gives the same mix of cheap
    and costly transactions.
    """
    trained = _trained_inputs(shape)
    count = round(NOVEL_SHARE * length)
    strata = [(k % 8, k // 8 % 2, k // 16 % 2) for k in range(count)]
    rng.shuffle(strata)
    novel = dict(zip(sorted(rng.sample(range(length), count)), strata))
    records = []
    for i in range(length):
        origin = rng.choice(USERS)
        if i in novel:
            n, call, wrap = novel[i]
            x = rng.randrange(1 << shape.branches) & ~(1 << shape.call_bit) | call << shape.call_bit
            y = (1 << 64) - rng.randint(1, 1000) if wrap else rng.randint(0, 1000)
            b = rng.randrange(1 << shape.back_branches)
            records.append(_front_tx(tag, x, n, y, b, origin))
        elif rng.random() < 0.05:
            records.append(_back_tx(tag, rng.choice(shape.back_pool), origin))
        else:
            x, n, b = rng.choice(trained)
            records.append(_front_tx(tag, x, n, rng.randint(0, 1000), b, origin))
    return records
