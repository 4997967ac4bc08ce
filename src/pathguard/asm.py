"""Assembler and disassembler for the contract container text format.

Grammar::

    contract <name> {
      fn <name> [external|internal] [selector=<hex4>] {
        [<label>:] <MNEMONIC> [<imm>|<label>] [target=<Name>] [fn=<name>]
        ...
      }
    }

Comments run from ';' or '#' to end of line. JUMP/JUMPI take a label (or a
numeric instruction index); ICALL takes a function name or id. A function
named ``fallback`` becomes the contract's fallback entry.
"""

from __future__ import annotations

import re

from .config import Config, DEFAULT_CONFIG
from .isa import EXTERNAL_CALLS, IMMEDIATE_OPS, JUMPS, Instruction, Op
from .program import (
    CallsiteInfo,
    ContractProgram,
    FunctionDef,
    ValidationError,
    Visibility,
    derive_selector,
    validate_program,
)

_TOKEN = re.compile(r"[A-Za-z_@][\w.@]*|0x[0-9a-fA-F]+|-?\d+|[{}:=]")


class AsmError(ValidationError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _tokenize(source: str):
    for lineno, line in enumerate(source.splitlines(), start=1):
        line = re.split(r"[;#]", line, maxsplit=1)[0]
        for tok in _TOKEN.findall(line):
            yield lineno, tok


class _Stream:
    def __init__(self, source: str):
        self.toks = list(_tokenize(source))
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos][1] if self.pos < len(self.toks) else None

    def peek2(self) -> str | None:
        return self.toks[self.pos + 1][1] if self.pos + 1 < len(self.toks) else None

    @property
    def line(self) -> int:
        if self.pos < len(self.toks):
            return self.toks[self.pos][0]
        return self.toks[-1][0] if self.toks else 0

    def next(self) -> str:
        if self.pos >= len(self.toks):
            raise AsmError(self.line, "unexpected end of input")
        tok = self.toks[self.pos][1]
        self.pos += 1
        return tok

    def expect(self, want: str) -> None:
        line = self.line
        got = self.next()
        if got != want:
            raise AsmError(line, f"expected {want!r}, got {got!r}")


def _parse_int(tok: str, line: int) -> int:
    try:
        return int(tok, 16) if tok.lower().startswith("0x") else int(tok)
    except ValueError:
        raise AsmError(line, f"bad integer {tok!r}") from None


def assemble(source: str, config: Config = DEFAULT_CONFIG) -> ContractProgram:
    """Parse, resolve labels and selectors, and validate a contract."""
    st = _Stream(source)
    st.expect("contract")
    name = st.next()
    st.expect("{")

    functions: list[FunctionDef] = []
    raw_fns: list[dict] = []
    while st.peek() == "fn":
        raw_fns.append(_parse_fn(st))
    st.expect("}")
    if st.peek() is not None:
        raise AsmError(st.line, f"trailing input {st.peek()!r}")
    if not raw_fns:
        raise AsmError(st.line, "contract has no functions")

    fn_ids: dict[str, int] = {}
    for fid, raw in enumerate(raw_fns):
        if fn_ids.setdefault(raw["name"], fid) != fid:
            raise AsmError(raw["line"], f"duplicate function name {raw['name']!r}")

    selector_table: dict[int, int] = {}
    fallback_id = None
    callsites: dict[tuple[int, int], CallsiteInfo] = {}
    for fid, raw in enumerate(raw_fns):
        body: list[Instruction] = []
        labels = raw["labels"]
        for off, (line, op, operand, annot) in enumerate(raw["instrs"]):
            # _parse_fn reads an operand exactly for the ops that take one
            imm = None
            if op in IMMEDIATE_OPS:
                if op in JUMPS and operand in labels:
                    imm = labels[operand]
                elif op is Op.ICALL and operand in fn_ids:
                    imm = fn_ids[operand]
                elif re.fullmatch(r"0x[0-9a-fA-F]+|-?\d+", operand):
                    imm = _parse_int(operand, line)
                    if imm < 0:
                        imm &= config.mask
                elif op in JUMPS:
                    raise AsmError(line, f"undefined label {operand!r}")
                else:
                    raise AsmError(line, f"bad operand {operand!r} for {op.value}")
            body.append(Instruction(op, imm))
            if annot and op in EXTERNAL_CALLS:
                callsites[(fid, off)] = annot
            elif annot:
                raise AsmError(line, "annotations only allowed on CALL/DELEGATECALL")
        fn = FunctionDef(
            id=fid,
            name=raw["name"],
            visibility=raw["visibility"],
            body=body,
        )
        functions.append(fn)
        if raw["name"] == "fallback":
            if raw["visibility"] is not Visibility.EXTERNAL:
                raise AsmError(raw["line"], "fallback must be external")
            fallback_id = fid
        elif raw["visibility"] is Visibility.EXTERNAL:
            sel = raw["selector"]
            if sel is None:
                sel = derive_selector(raw["name"], config.width)
            if sel in selector_table:
                raise AsmError(raw["line"], f"selector collision on {sel:#x}")
            selector_table[sel] = fid

    prog = ContractProgram(
        name=name,
        functions=functions,
        selector_table=selector_table,
        fallback_id=fallback_id,
        callsites=callsites,
    )
    validate_program(prog, config)
    return prog


def _parse_fn(st: _Stream) -> dict:
    line = st.line
    st.expect("fn")
    name = st.next()
    visibility = Visibility.EXTERNAL
    selector = None
    while st.peek() != "{":
        tok_line = st.line
        tok = st.next()
        if tok in ("external", "internal"):
            visibility = Visibility(tok)
        elif tok == "selector":
            st.expect("=")
            selector = _parse_int(st.next(), tok_line)
        else:
            raise AsmError(tok_line, f"unexpected token {tok!r} in fn header")
    st.expect("{")

    instrs: list[tuple[int, Op, str | None, CallsiteInfo | None]] = []
    labels: dict[str, int] = {}
    while st.peek() != "}":
        tok_line = st.line
        tok = st.next()
        if st.peek() == ":":
            st.next()
            if tok in labels:
                raise AsmError(tok_line, f"duplicate label {tok!r}")
            labels[tok] = len(instrs)
            continue
        try:
            op = Op(tok.upper())
        except ValueError:
            raise AsmError(tok_line, f"unknown mnemonic {tok!r}") from None
        operand = None
        if op in IMMEDIATE_OPS:
            operand = st.next()
        annot = None
        while st.peek() in ("target", "fn") and st.peek2() == "=":
            key = st.next()
            st.expect("=")
            val = st.next()
            annot = annot or CallsiteInfo()
            if key == "target":
                annot.target = val
            else:
                annot.callee_fn = None if val == "*" else val
        instrs.append((tok_line, op, operand, annot))
    st.expect("}")
    return {
        "line": line,
        "name": name,
        "visibility": visibility,
        "selector": selector,
        "instrs": instrs,
        "labels": labels,
    }


def disassemble(prog: ContractProgram) -> str:
    """Render a program back to assembly text; inverse of assemble up to labels."""
    out = [f"contract {prog.name} {{"]
    for f in prog.functions:
        header = f"  fn {f.name} {f.visibility.value}"
        sel = prog.selector_of(f.name) if f.visibility is Visibility.EXTERNAL else None
        if sel is not None and f.id != prog.fallback_id:
            header += f" selector={sel:#x}"
        out.append(header + " {")
        targets = sorted(
            {i.imm for i in f.body if i.op in JUMPS}
        )
        label_at = {off: f"L{off}" for off in targets}
        for off, instr in enumerate(f.body):
            if off in label_at:
                out.append(f"  {label_at[off]}:")
            text = f"    {instr.op.value}"
            if instr.imm is not None:
                if instr.op in JUMPS:
                    text += f" {label_at[instr.imm]}"
                elif instr.op is Op.ICALL:
                    text += f" {prog.functions[instr.imm].name}"
                else:
                    text += f" {instr.imm:#x}"
            info = prog.callsites.get((f.id, off))
            if info is not None:
                if info.target:
                    text += f" target={info.target}"
                if info.callee_fn:
                    text += f" fn={info.callee_fn}"
            out.append(text)
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
