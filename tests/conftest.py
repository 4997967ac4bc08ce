import pytest

from pathguard.asm import assemble

# Two nested loops; backedges 3->1 (outer) and 4->3 (inner). With
# calldata [8] the inner body runs three times, driving the canonical
# decomposition into five acyclic paths.
LOOPY_SRC = """
contract loopy {
  fn run external selector=0x10 {
    b1: JUMPDEST
        PUSH 0
        CALLDATALOAD
        PUSH 11
        MSTORE          ; mem[11] = iteration seed
        PUSH 10
        MLOAD
        JUMPI b5        ; second visit leaves
        PUSH 1
        PUSH 10
        MSTORE          ; b2: mark visited
    b3: JUMPDEST
        PUSH 11
        MLOAD
        PUSH 2
        DIV
        DUP 1
        PUSH 11
        MSTORE
        ISZERO
        JUMPI b1        ; backedge 3->1
        JUMP b3         ; b4, backedge 4->3
    b5: JUMPDEST
        STOP
  }
}
"""

DIAMOND_SRC = """
contract diamond {
  fn pick external selector=0x20 {
        PUSH 0
        CALLDATALOAD
        JUMPI other
        PUSH 1
        PUSH 0
        MSTORE
        JUMP done
  other: JUMPDEST
        PUSH 2
        PUSH 0
        MSTORE
  done: JUMPDEST
        STOP
  }
}
"""

# Call-graph shape: A calls C twice, B calls C and itself.
FIG_CG_SRC = """
contract figcg {
  fn A external selector=0x0a {
    ICALL C
    ICALL C
    STOP
  }
  fn B external selector=0x0b {
    ICALL C
    ICALL B
    STOP
  }
  fn C internal {
    IRET
  }
}
"""


def branches_fn(name: str, selector: int, branches: int) -> str:
    """An external function of ``branches`` two-way branches in sequence,
    each with a real op on its fall-through, so 2**branches paths; calldata
    word i picks the arm of branch i. Wrap it in ``contract <name> { ... }``."""
    arms = "".join(
        f"    PUSH {i}\n    CALLDATALOAD\n    JUMPI j{i}\n    PUSH {i}\n    POP\n  j{i}: JUMPDEST\n"
        for i in range(branches)
    )
    return f"  fn {name} external selector={selector:#x} {{\n{arms}    STOP\n  }}\n"


@pytest.fixture
def loopy():
    return assemble(LOOPY_SRC)


@pytest.fixture
def diamond():
    return assemble(DIAMOND_SRC)


@pytest.fixture
def figcg():
    return assemble(FIG_CG_SRC)
