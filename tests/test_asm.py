"""Assembler/disassembler: round trips, validation errors, sizes."""

import copy

import pytest

from pathguard.asm import AsmError, assemble, disassemble
from pathguard.config import Config
from pathguard.program import (
    ContractProgram,
    ValidationError,
    derive_selector,
    validate_program,
)
from pathguard.workflow import Bundle


def test_minimal_contract_byte_size():
    prog = assemble("contract one { fn f external { STOP } }")
    # 32-byte header + one 8-byte function entry + one opcode byte
    assert prog.byte_size == 32 + 8 + 1
    assert len(prog.functions) == 1


def test_invalid_jump_target_rejected():
    with pytest.raises(ValidationError, match="invalid jump target"):
        assemble(
            """
            contract t { fn f external {
              there: PUSH 1
                     POP
                     JUMP there   ; target is not a JUMPDEST
            } }
            """
        )


def test_undefined_label():
    with pytest.raises(AsmError, match="undefined label"):
        assemble("contract t { fn f external { JUMP nowhere STOP } }")


def test_selector_collision():
    with pytest.raises(AsmError, match="selector collision"):
        assemble(
            "contract t { fn a external selector=0x7 { STOP } "
            "fn b external selector=0x7 { STOP } }"
        )


def test_syntax_error_carries_line():
    src = "contract t {\n fn f external {\n   BOGUS\n } }"
    with pytest.raises(AsmError, match="line 3"):
        assemble(src)


@pytest.mark.parametrize(
    "source, line, message",
    [
        ("contract t {\n fn f external { STOP }\n}\nextra", 4, "trailing input 'extra'"),
        ("contract t {\n}", 2, "contract has no functions"),
        (
            "contract t {\n fn f external { STOP }\n fn f internal { IRET }\n}",
            3, "duplicate function name 'f'",
        ),
        ("contract t {\n fn f external { STOP", 2, "unexpected end of input"),
        ("contract t\n fn f external { STOP } }", 2, "expected '{', got 'fn'"),
        ("contract t {\n fn f external selector=zz\n { STOP } }", 2, "bad integer 'zz'"),
        ("contract t {\n fn fallback internal { IRET }\n}", 2, "fallback must be external"),
        (
            "contract t {\n fn f public\n { STOP } }",
            2, "unexpected token 'public' in fn header",
        ),
        ("contract t {\n fn f external {\n a: JUMPDEST\n a: STOP } }", 4, "duplicate label 'a'"),
        (
            "contract t {\n fn f external {\n STOP target=t\n } }",
            3, "annotations only allowed on CALL/DELEGATECALL",
        ),
        ("contract t {\n fn f external {\n PUSH here STOP } }", 3, "bad operand 'here' for PUSH"),
        (
            "contract t {\n fn f external {\n ICALL nothing STOP } }",
            3, "bad operand 'nothing' for ICALL",
        ),
    ],
    ids=[
        "trailing-input", "no-functions", "duplicate-function", "unexpected-end",
        "expected-token", "bad-integer", "internal-fallback", "header-token",
        "duplicate-label", "annotated-non-call", "bad-push-operand", "bad-icall-operand",
    ],
)
def test_assembler_errors_name_their_line(source, line, message):
    """Each AsmError the parser raises names the line of the token at
    fault: the one it met, or the header of the function at fault."""
    with pytest.raises(AsmError) as err:
        assemble(source)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_immediate_must_fit_word():
    with pytest.raises(ValidationError, match="exceeds word width"):
        assemble("contract t { fn f external { PUSH 0x1ff POP STOP } }", Config(width=8))


def test_round_trip_fixtures(loopy, diamond, figcg):
    for prog in (loopy, diamond, figcg):
        again = assemble(disassemble(prog))
        assert again.to_json() == prog.to_json()


ANNOTATED_SRC = """
contract a { fn f external {
  PUSH 0
  PUSH 0x22
  PUSH 0
  PUSH 0x101
  CALL target=b fn=g
  POP
  STOP
} }
"""


def test_round_trip_annotations():
    prog = assemble(ANNOTATED_SRC)
    again = assemble(disassemble(prog))
    assert again.to_json() == prog.to_json()
    assert again.callsites[(0, 4)].target == "b"
    assert again.callsites[(0, 4)].callee_fn == "g"


@pytest.mark.parametrize(
    "key, info, needle",
    [
        ("0:4", {"target": 7}, r"callsites\[0:4\]: field 'target' is not a string: 7"),
        ("0:4", {"target": "b", "fn": ["g"]}, r"callsites\[0:4\]: field 'fn' is not a string"),
        ("0:3", {"target": "b"}, "callsite 0:3 annotates no CALL or DELEGATECALL"),
        ("0:9", {"target": "b"}, "callsite 0:9 annotates no CALL or DELEGATECALL"),
        ("1:4", {"target": "b"}, "callsite 1:4 annotates no CALL or DELEGATECALL"),
    ],
    ids=["target-not-a-string", "fn-not-a-string", "not-a-call", "past-the-body", "no-function"],
)
def test_serialized_callsites_must_annotate_a_call(key, info, needle):
    """A serialized program's call-site annotation holds a string or null
    ``target`` and ``fn``, and its key names a CALL or DELEGATECALL of the
    program."""
    raw = assemble(ANNOTATED_SRC).to_json()
    raw["callsites"] = {key: info}
    with pytest.raises(ValidationError, match=needle):
        validate_program(ContractProgram.from_json(raw), Config())


def test_fallback_only_contract():
    prog = assemble("contract t { fn fallback external { STOP } }")
    assert prog.fallback_id == 0
    assert prog.selector_table == {}
    text = disassemble(prog)
    assert text.count("fn ") == 1


def test_derived_selectors_deterministic_and_nonzero():
    a = derive_selector("withdraw", 64)
    assert a == derive_selector("withdraw", 64)
    assert a != 0
    assert derive_selector("deposit", 8) < 256


def test_body_must_terminate():
    with pytest.raises(ValidationError, match="terminator"):
        assemble("contract t { fn f external { PUSH 1 POP } }")


_SERIALIZED = assemble(
    "contract p { fn f external selector=0x1 { PUSH 1 JUMPI end end: JUMPDEST STOP }"
    " fn g internal { IRET } }"
).to_json()


def _set(path: tuple, value):
    """An edit of the serialized program that sets the field at ``path``."""

    def edit(raw: dict) -> None:
        for key in path[:-1]:
            raw = raw[key]
        raw[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, needle",
    [
        (_set(("functions", 1, "visibility"), "public"),
         "bundle contracts[0] p functions[1]: unknown visibility 'public'"),
        (_set(("selector_table",), {"zz": 0}),
         "bundle contracts[0] p: selector_table key is not hex: 'zz'"),
        (_set(("callsites",), {"0-1": {}}),
         "bundle contracts[0] p: callsites key is not 'fid:offset': '0-1'"),
        (_set(("functions", 0, "body", 0), ["PUSH"]),
         "bundle contracts[0] p functions[0] body[0]: not an [op, immediate] pair: ['PUSH']"),
        (_set(("functions", 0, "body", 0), ["FOO", None]),
         "bundle contracts[0] p functions[0] body[0]: 'FOO' is not a valid Op"),
        (_set(("functions", 0, "body", 3), ["STOP", 5]),
         "bundle contracts[0] p functions[0] body[3]: STOP: immediate mismatch"),
        (_set(("functions", 1, "id"), 0), "p.g: function id out of order"),
        (_set(("functions", 1, "name"), "f"), "p: duplicate function 'f'"),
        (_set(("functions", 1, "body"), []), "p.g: empty body"),
        (_set(("functions", 0, "body", 1), ["JUMPI", 99]), "p.f@1: invalid jump target 99"),
        (_set(("selector_table",), {"0x2": 1}), "p: selector maps to internal 'g'"),
        (_set(("selector_table",), {"0x0": 0}), "p: selector 0 is reserved for the fallback"),
        (_set(("fallback_id",), 1), "p: fallback must be external"),
    ],
    ids=[
        "unknown-visibility", "selector-key-not-hex", "callsite-key-not-fid-offset",
        "body-entry-not-a-pair", "unknown-op", "misplaced-immediate", "id-out-of-order",
        "duplicate-function", "empty-body", "jump-target-past-the-body",
        "selector-to-internal", "selector-zero", "internal-fallback",
    ],
)
def test_a_serialized_program_is_refused_naming_its_field(edit, needle):
    """Each ValidationError of the program loader and of ``validate_program``,
    reached through a bundle's ``program`` entry: the message names the
    field, the function or the offset at fault."""
    Bundle.from_json({"contracts": [{"program": copy.deepcopy(_SERIALIZED)}]})
    raw = copy.deepcopy(_SERIALIZED)
    edit(raw)
    with pytest.raises(ValidationError) as info:
        Bundle.from_json({"contracts": [{"program": raw}]})
    assert type(info.value) is ValidationError
    assert str(info.value) == needle


@pytest.mark.parametrize("width", [64, 8])
@pytest.mark.parametrize("key", ["-0x5", "0x400000000000000000", "0x100"])
def test_a_selector_table_key_must_be_a_word(width, key):
    """A selector is a word, as a CALL sends it: a serialized key below 0 or
    above the bundle's mask is refused naming the key, where a key in range
    loads. (``0x100`` is a word at width 64 only.)"""
    config = Config(width=width)
    raw = copy.deepcopy(_SERIALIZED)
    raw["selector_table"] = {key: 0}
    mask = config.mask
    if 0 <= int(key, 16) <= mask:
        bundle = Bundle.from_json({"contracts": [{"program": raw}]}, config)
        assert bundle.programs["p"].selector_table == {int(key, 16): 0}
        return
    with pytest.raises(ValidationError) as info:
        Bundle.from_json({"contracts": [{"program": raw}]}, config)
    assert str(info.value) == f"p: selector_table key {key} is not a word in [1, {mask:#x}]"
