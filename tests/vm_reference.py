"""Per-instruction reference interpreter for differential tests of the VM.

``ReferenceVM._run_frame`` is the interpreter loop the block engine in
``pathguard.vm`` replaced: it charges gas, checks stack bounds and adds
mirrored per-point gas one instruction at a time. Everything else (calls,
the world, receipts) is the real ``VM``'s, so the two differ only in how a
frame runs. It is kept here as the oracle the block engine is compared
against, not as a second engine.
"""

from __future__ import annotations

from pathguard.config import INTERNAL_DEPTH_LIMIT, OPERAND_STACK_LIMIT
from pathguard.isa import Op
from pathguard.program import ContractProgram
from pathguard.vm import (
    TRACE_CHECKS,
    TRACE_FULL,
    VM,
    _FrameFailure,
    _OutOfGas,
    _parse_guard_payload,
)

_OPS = tuple(Op)
_PUSH, _DUP, _SWAP = Op.PUSH.code, Op.DUP.code, Op.SWAP.code
_ADD, _SUB, _DIV, _LT, _GT = Op.ADD.code, Op.SUB.code, Op.DIV.code, Op.LT.code, Op.GT.code
_EQ, _AND, _OR, _XOR = Op.EQ.code, Op.AND.code, Op.OR.code, Op.XOR.code
_ISZERO = Op.ISZERO.code
_JUMPDEST, _JUMP, _JUMPI = Op.JUMPDEST.code, Op.JUMP.code, Op.JUMPI.code
_MLOAD, _MSTORE = Op.MLOAD.code, Op.MSTORE.code
_SLOAD, _CODELOAD, _CALLDATALOAD = Op.SLOAD.code, Op.CODELOAD.code, Op.CALLDATALOAD.code
_TLOAD, _BALANCE = Op.TLOAD.code, Op.BALANCE.code
_CALLDATASIZE, _CALLER, _ORIGIN = Op.CALLDATASIZE.code, Op.CALLER.code, Op.ORIGIN.code
_ADDRESS, _CALLVALUE = Op.ADDRESS.code, Op.CALLVALUE.code
_SSTORE, _TSTORE = Op.SSTORE.code, Op.TSTORE.code
_ICALL, _IRET = Op.ICALL.code, Op.IRET.code
_CALL, _DELEGATECALL = Op.CALL.code, Op.DELEGATECALL.code
_RETURN, _STOP, _REVERT = Op.RETURN.code, Op.STOP.code, Op.REVERT.code


def _decoded(fn) -> tuple[list[int], list[int | None]]:
    return [i.op.code for i in fn.body], [i.imm for i in fn.body]


class ReferenceVM(VM):
    """The ``VM`` with the per-instruction frame loop."""

    def _run_frame(
        self,
        code: ContractProgram,
        self_addr: int,
        caller: int,
        origin: int,
        value: int,
        calldata: list[int],
        fid: int,
        depth: int,
    ) -> tuple[bool, list[int]]:
        world = self.world
        config = self.config
        mask = config.mask
        token = world.snapshot()
        gas = config.gas
        prices = self.prices
        gas_limit = self.gas_limit
        gas_used = self.gas_used
        limit = OPERAND_STACK_LIMIT
        full = self.trace_level >= TRACE_FULL
        check_log = self.check_log_addr if self.trace_level >= TRACE_CHECKS else None
        emit = self._emit
        name = code.name
        pool = code.data_pool

        stack: list[int] = []
        memory: dict[int, int] = {}
        last_ret: list[int] = []
        ifid = fid
        fn = code.functions[ifid]
        ops, imms = _decoded(fn)
        n = len(ops)
        istack: list[tuple[int, int]] = []
        pc = 0

        if full:
            emit("BlockEnter", self_addr, ifid, 0, {"code": name})

        points = self.gas_points.get(name) if self.gas_points else None
        acc = own = owners = None
        if points is not None:
            owners, acc = points
            own = owners[ifid]
        gas_before = gas_used
        try:
            while True:
                if pc >= n:
                    raise _FrameFailure("fell off function body")
                op = ops[pc]
                next_pc = pc + 1
                gas_used += prices[op]
                if gas_used > gas_limit:
                    self.gas_used = gas_used
                    raise _OutOfGas()

                if op < _ADD:  # PUSH POP DUP SWAP
                    if op == _PUSH:
                        if len(stack) >= limit:
                            raise _FrameFailure("stack overflow")
                        stack.append(imms[pc] & mask)
                    elif op == _DUP:
                        i = imms[pc]
                        if i < 1 or i > len(stack):
                            raise _FrameFailure("stack underflow")
                        if len(stack) >= limit:
                            raise _FrameFailure("stack overflow")
                        stack.append(stack[-i])
                    elif op == _SWAP:
                        i = imms[pc]
                        if i < 1 or i >= len(stack):
                            raise _FrameFailure("stack underflow")
                        stack[-1], stack[-1 - i] = stack[-1 - i], stack[-1]
                    else:
                        if not stack:
                            raise _FrameFailure("stack underflow")
                        stack.pop()
                elif op < _ISZERO:  # binary ALU: result replaces x
                    if len(stack) < 2:
                        raise _FrameFailure("stack underflow")
                    y = stack.pop()
                    x = stack[-1]
                    if op < _DIV:
                        if op == _ADD:
                            exact = x + y
                            overflow = exact > mask
                        elif op == _SUB:
                            exact = x - y
                            overflow = x < y
                        else:
                            exact = x * y
                            overflow = exact > mask
                        stack[-1] = exact & mask
                        if full:
                            emit(
                                "ArithChecked",
                                self_addr,
                                ifid,
                                pc,
                                {"op": _OPS[op].value, "overflow": overflow},
                            )
                    elif op == _EQ:
                        stack[-1] = 1 if x == y else 0
                    elif op == _XOR:
                        stack[-1] = x ^ y
                    elif op == _AND:
                        stack[-1] = x & y
                    elif op == _LT:
                        stack[-1] = 1 if x < y else 0
                    elif op == _GT:
                        stack[-1] = 1 if x > y else 0
                    elif op == _OR:
                        stack[-1] = x | y
                    else:
                        stack[-1] = x // y if y else 0
                elif op < _JUMPDEST:  # ISZERO NOT
                    if not stack:
                        raise _FrameFailure("stack underflow")
                    if op == _ISZERO:
                        stack[-1] = 1 if stack[-1] == 0 else 0
                    else:
                        stack[-1] ^= mask
                elif op < _SLOAD:  # JUMPDEST JUMP JUMPI MLOAD MSTORE
                    if op == _JUMPI:
                        if not stack:
                            raise _FrameFailure("stack underflow")
                        if stack.pop():
                            next_pc = imms[pc]
                    elif op == _MLOAD:
                        if not stack:
                            raise _FrameFailure("stack underflow")
                        stack[-1] = memory.get(stack[-1], 0)
                    elif op == _MSTORE:
                        if len(stack) < 2:
                            raise _FrameFailure("stack underflow")
                        addr = stack.pop()
                        val = stack.pop()
                        memory[addr] = val
                        if addr == check_log:
                            emit(
                                "PathChecked",
                                self_addr,
                                ifid,
                                pc,
                                {"combined": val, "code": name},
                            )
                    elif op == _JUMP:
                        next_pc = imms[pc]
                elif op < _CALLDATASIZE:  # one-operand reads
                    if not stack:
                        raise _FrameFailure("stack underflow")
                    i = stack[-1]
                    if op == _SLOAD:
                        stack[-1] = world.sload(self_addr, i)
                    elif op == _CODELOAD:
                        stack[-1] = (pool[i] if i < len(pool) else 0) & mask
                    elif op == _CALLDATALOAD:
                        stack[-1] = calldata[i] if i < len(calldata) else 0
                    elif op == _BALANCE:
                        stack[-1] = world.balance_of(i)
                    elif op == _TLOAD:
                        stack[-1] = world.tload(self_addr, i)
                    else:
                        stack[-1] = last_ret[i] if i < len(last_ret) else 0
                elif op < _SSTORE:  # zero-operand reads
                    if len(stack) >= limit:
                        raise _FrameFailure("stack overflow")
                    if op == _CALLDATASIZE:
                        stack.append(len(calldata))
                    elif op == _CALLER:
                        stack.append(caller & mask)
                    elif op == _ORIGIN:
                        stack.append(origin & mask)
                    elif op == _ADDRESS:
                        stack.append(self_addr & mask)
                    elif op == _CALLVALUE:
                        stack.append(value & mask)
                    else:
                        stack.append(len(last_ret))
                elif op == _SSTORE:
                    if len(stack) < 2:
                        raise _FrameFailure("stack underflow")
                    slot = stack.pop()
                    val = stack.pop()
                    prev = world.sload(self_addr, slot)
                    gas_used += gas.sstore_cost(prev, val)
                    if gas_used > gas_limit:
                        self.gas_used = gas_used
                        raise _OutOfGas()
                    world.sstore(self_addr, slot, val)
                elif op == _ICALL:
                    if len(istack) >= INTERNAL_DEPTH_LIMIT:
                        raise _FrameFailure("internal call depth exceeded")
                    callee = imms[pc]
                    if full:
                        emit("CallEnter", self_addr, ifid, pc, {"callee": callee})
                    istack.append((ifid, pc + 1))
                    ifid = callee
                    fn = code.functions[ifid]
                    ops, imms = _decoded(fn)
                    n = len(ops)
                    next_pc = 0
                elif op == _IRET:
                    if not istack:
                        raise _FrameFailure("IRET outside internal call")
                    if full:
                        emit("CallReturn", self_addr, ifid, pc, None)
                    ifid, next_pc = istack.pop()
                    fn = code.functions[ifid]
                    ops, imms = _decoded(fn)
                    n = len(ops)
                elif op == _CALL or op == _DELEGATECALL:
                    is_delegate = op == _DELEGATECALL
                    if len(stack) < (3 if is_delegate else 4):
                        raise _FrameFailure("stack underflow")
                    target = stack.pop()
                    call_value = 0 if is_delegate else stack.pop()
                    sel = stack.pop()
                    nargs = stack.pop()
                    if nargs > len(stack):
                        raise _FrameFailure("stack underflow")
                    args = [stack.pop() for _ in range(nargs)]
                    self.gas_used = gas_used
                    ok, last_ret = self._message_call(
                        kind="delegatecall" if is_delegate else "call",
                        caller_self=self_addr,
                        caller_caller=caller,
                        caller_value=value,
                        origin=origin,
                        site=(ifid, pc),
                        target=target,
                        selector=sel if sel != 0 else None,
                        call_value=call_value,
                        calldata=args,
                        depth=depth,
                    )
                    gas_used = self.gas_used
                    gas_before = gas_used - prices[op]
                    stack.append(1 if ok else 0)
                elif op == _TSTORE:
                    if len(stack) < 2:
                        raise _FrameFailure("stack underflow")
                    slot = stack.pop()
                    world.tstore(self_addr, slot, stack.pop())
                elif op == _STOP or op == _RETURN or op == _REVERT:
                    data = []
                    if op != _STOP:
                        if not stack:
                            raise _FrameFailure("stack underflow")
                        i = stack.pop()
                        if i > len(stack):
                            raise _FrameFailure("stack underflow")
                        data = [stack.pop() for _ in range(i)]
                    if acc is not None and own[pc] >= 0:
                        acc[own[pc]] += prices[op]
                    if op == _REVERT:
                        raise _FrameFailure("revert", data)
                    self.gas_used = gas_used
                    return True, data
                else:  # pragma: no cover - exhaustive over Op
                    raise _FrameFailure(f"unimplemented opcode {_OPS[op]}")

                if acc is not None:
                    pid = own[pc]
                    if pid >= 0:
                        acc[pid] += gas_used - gas_before
                    gas_before = gas_used
                    own = owners[ifid]
                if full and (next_pc != pc + 1 or next_pc in fn.leaders) and next_pc < n:
                    emit("BlockEnter", self_addr, ifid, next_pc, {"code": name})
                pc = next_pc
        except _FrameFailure as failure:
            self.gas_used = gas_used
            world.rollback(token)
            if self.trace_level >= TRACE_CHECKS:
                detail: dict = {"reason": failure.reason}
                if failure.data and failure.data[0] == (
                    config.guard.guard_marker & mask
                ):
                    detail["guard"] = True
                    detail["alarms"] = _parse_guard_payload(failure.data)
                self._emit("Revert", self_addr, ifid, pc, detail)
            return False, failure.data
