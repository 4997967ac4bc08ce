"""Cross-validation: emitted guard sequences against their Python twins."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathguard.config import Config
from pathguard.guardcode import (
    ALARM_BUFFER_CAP,
    CALL_MARKER,
    GUARD_MARKER,
    SLOT_POISON,
    MODE_BOUNDARY,
    MODE_MARKER,
    MODE_REENTRANT,
    ALARM_CNT_SLOT,
    ALARM_ENTRY_SLOT,
    CTX_SLOT,
    Asm,
    Layout,
    RawAlarm,
    check_gas,
    checker_pool,
    decode_guard_revert,
    flatten,
    seq_arith_check,
    seq_checker,
    seq_exit_routine,
    seq_external_epilogue,
    seq_miss,
)
from pathguard.isa import Op
from pathguard.pathset import (
    STRATEGY_LIST,
    STRATEGY_MPHT,
    ConstructionFailed,
    build_list,
    build_mpht,
    list_lookup,
    mapping_fn_seed,
    mapping_slot,
    mapping_value,
    mix,
    mpht_lookup,
    mpht_position,
)
from pathguard.program import ContractProgram, FunctionDef, Visibility, validate_program
from pathguard.vm import Transaction, VM, WorldState, deploy


def _execute(
    items, calldata, width=64, pool=None, extra_fns=None, storage=None, selectors=None,
    points=None,
):
    """Run one tx into a probe function made of ``items``; ``extra_fns`` take
    function ids 1, 2, ... and ``selectors`` maps selectors to the external
    ones; ``points`` are the VM's gas points of the contract. Returns the
    receipt, the world and the address."""
    config = Config(width=width)
    fns = [FunctionDef(0, "probe", Visibility.EXTERNAL, flatten(items, base=0))]
    if extra_fns:
        fns += extra_fns
    prog = ContractProgram("t", fns, {0x7: 0, **(selectors or {})}, None, data_pool=pool or [])
    validate_program(prog, config)
    world = WorldState(config)
    addr = deploy(world, prog, 0xD0)
    for slot, val in (storage or {}).items():
        world.sstore(addr, slot, val)
    world.commit(0)
    vm = VM(world, gas_points=points and {"t": points})
    receipt = vm.execute_transaction(Transaction(1, addr, 0x7, calldata))
    return receipt, world, addr


def _run_unary(items, x, width=64, pool=None, extra_fns=None, storage=None):
    """Execute a sequence over one calldata word; returns the top-of-stack."""
    probe = Asm().push(0).emit(Op.CALLDATALOAD)
    probe.items += items
    probe.push(1).emit(Op.RETURN)
    receipt, _world, _addr = _execute(probe.items, [x], width, pool, extra_fns, storage)
    assert receipt.status == "Accepted", receipt
    return receipt.return_data[0], receipt.gas_used


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_xor_macro_matches_python(width):
    """The native XOR opcode gives x ^ y at every width for 3 gas, and
    a frame failure, charged before the pop, on a one-word stack."""
    rng = random.Random(width)
    for _ in range(20):
        x, y = rng.getrandbits(width), rng.getrandbits(width)
        got, gas = _run_unary(Asm().push(y).emit(Op.XOR).items, x, width)
        assert got == x ^ y
        assert gas == 6 * 3  # PUSH CALLDATALOAD PUSH XOR PUSH RETURN
    receipt, _world, _addr = _execute(Asm().push(1).emit(Op.XOR).emit(Op.STOP).items, [], width)
    assert receipt.status == "Reverted"
    assert receipt.gas_used == 2 * 3
    assert receipt.trace[-1].detail == {"reason": "stack underflow", "code": "t", "data": []}


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_mix_sequence_matches_python(width):
    rng = random.Random(100 + width)
    for _ in range(20):
        x = rng.getrandbits(width)
        a = Asm().mix_top(width)
        got, _ = _run_unary(a.items, x, width)
        assert got == mix(x, width)


@pytest.mark.parametrize("modulus", [1, 2, 3, 7, 16, 100, 65536, 12345])
def test_mod_const(modulus):
    rng = random.Random(modulus)
    for _ in range(10):
        x = rng.getrandbits(64)
        a = Asm().mod_const(modulus)
        got, _ = _run_unary(a.items, x)
        assert got == x % modulus


CODE_ID = 3
CHK_FID, MISS_FID = 1, 2  # the test entry ICALLs the checker, which ICALLs the miss routine
SENTINEL = 0xBEEF  # left below the routine's operands: it must survive the call


def _checker_fns(spec, fid, config):
    """The checker under test plus the contract's shared miss routine."""
    chk = seq_checker(spec, fid, MISS_FID, 0, config)
    return [
        FunctionDef(CHK_FID, "chk", Visibility.INTERNAL, flatten(chk.items, base=0)),
        _miss_fn(config, MISS_FID),
    ]


def _call_checker(spec, key, width=64, storage=None, fid=0):
    """One check of ``key``; returns (member, gas) with membership read back
    as ISZERO(flag), since a miss that the mapping does not accept flags."""
    config = Config(width=width)
    a = Asm().push(SENTINEL & config.mask).push(key).emit(Op.ICALL, CHK_FID)
    a.mload(Layout(width).flag).emit(Op.ISZERO).push(2).emit(Op.RETURN)
    receipt, _, _ = _execute(
        a.items,
        [],
        width,
        pool=checker_pool(spec, width),
        extra_fns=_checker_fns(spec, fid, config),
        storage=storage,
    )
    assert receipt.status == "Accepted", receipt
    member, sentinel = receipt.return_data
    assert sentinel == SENTINEL & config.mask
    return member, receipt.gas_used


def test_list_checker_in_vm():
    spec = build_list([1, 4, 9, 16, 25])
    for k in (1, 4, 9, 16, 25):
        assert _call_checker(spec, k)[0] == 1
    for k in (0, 2, 10, 24, 26, 2**40):
        assert _call_checker(spec, k)[0] == 0


def test_empty_list_checker_rejects_everything():
    spec = build_list([])
    for k in (0, 1, 7):
        assert _call_checker(spec, k)[0] == 0


@pytest.mark.parametrize("n", [1, 6, 40])
def test_mpht_checker_in_vm(n):
    rng = random.Random(n)
    keys = rng.sample(range(1 << 32), n)
    spec = build_mpht(keys)
    for k in keys:
        assert mpht_lookup(spec, k)
        assert _call_checker(spec, k)[0] == 1
    for _ in range(20):
        k = rng.getrandbits(33)
        if k not in keys:
            expected = 1 if mpht_lookup(spec, k) else 0
            assert expected == 0
            assert _call_checker(spec, k)[0] == 0


def test_mpht_checker_constant_gas_across_sizes():
    gases = []
    for n in (10, 100, 1000):
        keys = list(range(100000, 100000 + n))
        spec = build_mpht(keys)
        _, gas = _call_checker(spec, keys[n // 2])
        gases.append(gas)
    assert len(set(gases)) == 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="seq_miss accepts a pair when SLOAD(slot) == combined + 1; for combined "
    "= 2**width - 1 the sum wraps to 0, the value of an absent slot, so the all-ones "
    "word passes an empty mapping without an alarm",
)
def test_all_ones_combined_alarms_on_an_empty_mapping():
    """Known defect (README, "Known limitations"): combined = 2**width - 1,
    never approved, goes through an empty list's checker into the miss
    routine and must alarm at every width."""
    accepted = [
        width
        for width in (8, 16, 32, 64)
        if _call_checker(build_list([]), (1 << width) - 1, width)[0]
    ]
    assert accepted == []


@pytest.mark.parametrize(
    "strategy,keys",
    [(STRATEGY_LIST, [5, 9, 14]), (STRATEGY_LIST, []), (STRATEGY_MPHT, [5, 9, 14, 20, 33, 47])],
)
def test_checker_falls_back_to_mapping_probe(strategy, keys):
    """An embedded miss is accepted when the pair sits in the dynamic mapping;
    an empty list goes to the mapping straight away."""
    config = Config()
    fid, appended = 3, 12345
    spec = build_list(keys) if strategy == STRATEGY_LIST else build_mpht(keys)
    storage = {mapping_slot(fid, appended, config): mapping_value(appended, config.width)}
    for key, member in ((appended, 1), (appended + 1, 0), *((k, 1) for k in keys)):
        got, _ = _call_checker(spec, key, storage=storage, fid=fid)
        assert got == member, key


# Transient slots the recording miss stub writes: [combined, fid, fn_seed]
# and a mark that it ran (zero words are absent from the transient map).
STUB_COMBINED, STUB_FID, STUB_SEED, STUB_RAN = 10, 11, 12, 13


def _recording_miss():
    """A miss routine that records the words the checker hands it."""
    a = Asm().push(STUB_SEED).emit(Op.TSTORE).push(STUB_FID).emit(Op.TSTORE)
    a.push(STUB_COMBINED).emit(Op.TSTORE).push(1).push(STUB_RAN).emit(Op.TSTORE)
    return a.emit(Op.IRET)


def _probe_checker(spec, key, width, fid, pool_base):
    """One check of ``key`` by a checker whose pool sits at ``pool_base``,
    missing into the recording stub. Returns (the miss stub's transient
    words or None on a hit, the checker's own gas)."""
    config = Config(width=width)
    sentinel = 0x5A  # below the checker's operand: it must survive the call
    probe = Asm().push(sentinel).push(key).emit(Op.ICALL, CHK_FID).push(1).emit(Op.RETURN)
    chk = flatten(seq_checker(spec, fid, MISS_FID, pool_base, config).items, base=0)
    fns = [
        FunctionDef(CHK_FID, "chk", Visibility.INTERNAL, chk),
        FunctionDef(MISS_FID, "miss", Visibility.INTERNAL, flatten(_recording_miss().items, 0)),
    ]
    pool = [w & config.mask for w in range(7, 7 + pool_base)] + checker_pool(spec, width)
    # one gas point: every offset of the checker
    owners = [[-1] * len(probe.items), [0] * len(chk), [-1] * len(fns[1].body)]
    acc = [0]
    receipt, world, addr = _execute(probe.items, [], width, pool, fns, points=(owners, acc))
    assert (receipt.status, receipt.return_data) == ("Accepted", [sentinel]), receipt
    slots = _transient(world, addr)
    if not slots:
        return None, acc[0]
    return tuple(slots.get(s, 0) for s in (STUB_COMBINED, STUB_FID, STUB_SEED, STUB_RAN)), acc[0]


@st.composite
def _checker_cases(draw):
    """A width, a key set that builds (a list of 1-5 keys or a table of
    6-12), probes, a fid and a pool offset. Keys and probes lean to the
    ends of the word, where key+1 wraps."""
    width = draw(st.sampled_from([8, 16, 32, 64]))
    mask = (1 << width) - 1
    word = st.one_of(st.integers(0, mask), st.integers(mask - 3, mask), st.integers(0, 3))
    table = draw(st.booleans())
    n = draw(st.integers(6, 12) if table else st.integers(1, 5))
    keys = sorted(draw(st.lists(word, min_size=n, max_size=n, unique=True)))
    if table:
        try:
            spec = build_mpht(keys, Config().mpht_lambda, width=width)
        except ConstructionFailed:
            assume(False)
    else:
        spec = build_list(keys)
    probes = draw(st.lists(word, min_size=1, max_size=3))
    return width, spec, probes, draw(st.integers(0, 6)), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(case=_checker_cases())
def test_checker_hits_members_and_hands_misses_the_original_word(case):
    """Every member hits, at every rank of a list, and pays check_gas less
    22 gas per list entry after its own; a table pays check_gas flat. A
    non-member reaches the miss routine with [combined, fid, fn_seed],
    combined being the probed word itself, key+1 wrap or not."""
    width, spec, probes, fid, pool_base = case
    config = Config(width=width)
    strategy = spec.strategy
    for rank, key in enumerate(spec.keys, start=1):
        missed, gas = _probe_checker(spec, key, width, fid, pool_base)
        assert missed is None, (key, missed)
        steps = spec.n - rank if strategy == STRATEGY_LIST else 0
        assert gas == check_gas(strategy, spec.n, config) - 22 * steps
    for key in probes + [0, config.mask - 1, config.mask]:
        if key in spec.keys:
            continue
        missed, _gas = _probe_checker(spec, key, width, fid, pool_base)
        assert missed == (key, fid, mapping_fn_seed(fid, config), 1), key


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_table_slot_of_the_all_ones_word_never_reads_zero(width):
    """combined = 2**width - 1 probes its slot for key+1 = 0, the word of
    an empty slot. When that slot is empty, the pool fills it with a word
    no combined landing there can match, so the check misses."""
    rng = random.Random(width)
    mask = (1 << width) - 1
    while True:
        spec = build_mpht({rng.getrandbits(width - 1) for _ in range(8)}, width=width)
        top = mpht_position(spec, mask, width)
        if spec.slots[top] is None:
            break
    assert checker_pool(spec, width)[spec.m + top] != 0
    missed, _gas = _probe_checker(spec, mask, width, 1, 0)
    assert missed == (mask, 1, mapping_fn_seed(1, Config(width=width)), 1)


def _run_arith(op, a, b, width):
    """Run ``a op b`` between seq_arith_check's fragments; returns (the
    words left on the stack, whether the virtual branch fired)."""
    lay = Layout(width)
    pre, post = seq_arith_check(op, 1, lay)
    body = Asm().mstore_const(lay.depth, 0).push(0x5A).push(a).push(b)
    body.extend(pre).emit(op).extend(post)
    body.epp_addr(lay).emit(Op.MLOAD).push(3).emit(Op.RETURN)
    receipt, _world, _addr = _execute(body.items, [], width)
    assert receipt.status == "Accepted", receipt
    sentinel, r, fired = receipt.return_data[::-1]
    assert sentinel == 0x5A
    return r, fired


@settings(max_examples=200, deadline=None)
@given(
    op=st.sampled_from([Op.ADD, Op.SUB, Op.MUL]),
    width=st.sampled_from([8, 16, 32, 64]),
    data=st.data(),
)
def test_arith_check_fires_exactly_on_wraparound(op, width, data):
    """The wraparound virtual branch fires exactly when the op wraps, and
    the fragments leave only the result on the stack."""
    mask = (1 << width) - 1
    word = st.one_of(st.integers(0, mask), st.integers(0, 3), st.integers(mask - 3, mask))
    a, b = data.draw(word), data.draw(word)
    exact = {Op.ADD: a + b, Op.SUB: a - b, Op.MUL: a * b}[op]
    r, fired = _run_arith(op, a, b, width)
    assert r == exact & mask
    assert fired == (not 0 <= exact <= mask)


# -- shared slow paths -----------------------------------------------------------

SLOW_FID = 1  # the routine under test, ICALLed from the probe


def _slow_fn(seq):
    return [FunctionDef(SLOW_FID, "slow", Visibility.INTERNAL, flatten(seq.items, base=0))]


def _with_alarms(entries):
    """Probe prefix filling the transient alarm buffer with (code id, fid,
    combined) entries, as earlier frames of the tx leave it."""
    a = Asm()
    for j, entry in enumerate(entries):
        for word, value in enumerate(entry):
            a.push(value).push(ALARM_ENTRY_SLOT + 3 * j + word).emit(Op.TSTORE)
    return a.push(len(entries)).push(ALARM_CNT_SLOT).emit(Op.TSTORE)


def _buffer_slots(entries):
    """Transient map of a buffer holding ``entries`` (zero words are absent)."""
    slots = {ALARM_CNT_SLOT: len(entries)}
    for j, entry in enumerate(entries):
        for word, value in enumerate(entry):
            slots[ALARM_ENTRY_SLOT + 3 * j + word] = value
    return {slot: value for slot, value in slots.items() if value}


def _transient(world, addr):
    """Transient slots the last tx left behind in ``addr``'s map."""
    return dict(world.transient.get(addr, {}))


def _miss_fn(config, fid=SLOW_FID, code_id=CODE_ID):
    """The shared miss routine as internal function ``fid``."""
    miss = seq_miss(code_id, config)
    return FunctionDef(fid, "miss", Visibility.INTERNAL, flatten(miss.items, base=0))


def _run_miss(prefill, combined, fid, seed, storage=None):
    """ICALL the shared miss routine over [combined, fid, seed] with the
    alarm buffer prefilled; returns (flag, transient map)."""
    config = Config()
    a = _with_alarms(prefill).push(SENTINEL)
    a.push(combined).push(fid).push(seed).emit(Op.ICALL, SLOW_FID)
    a.mload(Layout(64).flag).push(2).emit(Op.RETURN)
    receipt, world, addr = _execute(a.items, [], extra_fns=[_miss_fn(config)], storage=storage)
    assert receipt.status == "Accepted", receipt
    flag, sentinel = receipt.return_data
    assert sentinel == SENTINEL
    return flag, _transient(world, addr)


def test_mapping_probe_in_vm():
    """The miss routine accepts an appended (fid, key) pair and raises the
    alarm on another key or on another function's seed."""
    config = Config()
    fid, key = 3, 12345
    storage = {mapping_slot(fid, key, config): mapping_value(key, config.width)}
    for combined, seed_fid, member in ((key, fid, 1), (key + 1, fid, 0), (key, fid + 1, 0)):
        seed = mapping_fn_seed(seed_fid, config)
        flag, slots = _run_miss([], combined, fid, seed, storage)
        alarmed = [] if member else [(CODE_ID, fid, combined)]
        assert flag == 1 - member, (combined, seed_fid)
        assert slots == _buffer_slots(alarmed), (combined, seed_fid)


def test_alarm_append_below_and_at_cap():
    """A miss outside the mapping appends (code id, fid, combined) to the
    transient buffer while it holds fewer than ``ALARM_BUFFER_CAP`` (8)
    entries; at the cap it only sets the flag and writes nothing. Either way
    it consumes [combined, fid, fn_seed]."""
    cap = ALARM_BUFFER_CAP
    assert cap == 8
    held = [(CODE_ID, 4, 0x111 + i) for i in range(cap - 1)]
    seed = mapping_fn_seed(6, Config())
    for prefill in (held, held + [(CODE_ID, 5, 0x222)]):
        flag, slots = _run_miss(prefill, 0x333, 6, seed)
        assert flag == 1
        assert slots == _buffer_slots((prefill + [(CODE_ID, 6, 0x333)])[:cap])


EXIT_FN = 5  # the external function whose exit the stub closes
ACCEPT_FID = 2  # a checker that accepts every pair


def _run_exit(mode, flag, entries):
    """Close a frame entered in ``mode`` with ``flag`` through an external
    exit stub over the values [0xA1, 0xA2] (n = 2), the transient alarm
    buffer holding ``entries``; the stub reaches the exit routine as
    function SLOW_FID. Returns (receipt, world, addr); the VM traces at
    TRACE_FULL, so the trace shows every ICALL."""
    config = Config()
    lay = Layout(64)
    a = _with_alarms(entries).mstore_const(lay.mode, mode).mstore_const(lay.flag, flag)
    a.push(0xA1).push(0xA2).push(2)
    a.extend(seq_external_epilogue(EXIT_FN, ACCEPT_FID, SLOW_FID, 1, lay))
    accept = Asm().emit(Op.POP).emit(Op.IRET)
    fns = _slow_fn(seq_exit_routine(CODE_ID, config)) + [
        FunctionDef(ACCEPT_FID, "accept", Visibility.INTERNAL, flatten(accept.items, base=0))
    ]
    return _execute(a.items, [], extra_fns=fns)


def _routine_calls(receipt):
    return [ev for ev in receipt.trace if ev.kind == "CallEnter" and ev.get("callee") == SLOW_FID]


@pytest.mark.parametrize(
    "mode,flag,prefix,poisoned",
    [
        (MODE_BOUNDARY, 0, [], False),
        (MODE_MARKER, 0, [0], False),
        (MODE_MARKER, 1, [1], False),
        (MODE_REENTRANT, 0, [], False),
        (MODE_REENTRANT, 1, [], True),
    ],
    ids=["boundary", "marker", "marker-flagged", "reentrant", "reentrant-flagged"],
)
def test_exit_returns_by_mode_and_flag(mode, flag, prefix, poisoned):
    """Every exit that does not guard-revert returns the frame's values: a
    marker entry under [MARKER, flag], any other entry as they are. Only a
    flagged reentrant entry poisons the ctx slot, so the outer frame of the
    same contract reverts the whole transaction. The alarm buffer stays as
    the misses left it, for a frame of the same account. Only a clean
    boundary exit returns from the stub without calling the exit routine."""
    config = Config()
    entries = [(2, 8, 0x99), (1, 2, 0x10)]
    receipt, world, addr = _run_exit(mode, flag, entries)
    assert receipt.status == "Accepted", receipt
    marker = [CALL_MARKER & config.mask] if mode == MODE_MARKER else []
    assert receipt.return_data == marker + prefix + [0xA2, 0xA1]
    poison = {CTX_SLOT: SLOT_POISON & config.mask} if poisoned else {}
    assert _transient(world, addr) == {**_buffer_slots(entries), **poison}
    assert world.dump()[hex(addr)]["storage"] == {}
    assert len(_routine_calls(receipt)) == (mode != MODE_BOUNDARY)


def test_guard_revert_payload_lists_buffer_in_append_order():
    """A flagged boundary entry reverts with every buffered entry, in append
    order."""
    config = Config()
    gm = GUARD_MARKER & config.mask
    entries = [(1, 8, 0x99), (CODE_ID, 2, 0x10), (CODE_ID, 7, 0x20)]
    receipt, world, addr = _run_exit(MODE_BOUNDARY, 1, entries)
    assert receipt.status == "Reverted"
    assert receipt.return_data == [gm, 3] + [
        w for entry in entries for w in (addr, *entry)
    ]
    alarms = decode_guard_revert(receipt.return_data, config.width)
    assert [(r.code_id, r.fn, r.combined) for r in alarms] == entries
    assert len(_routine_calls(receipt)) == 1


def test_guard_revert_decoder_reads_only_the_entries_present():
    """The one payload decoder reads whole entries only, never trusts the
    count past the data (any code can revert with the marker and a huge
    count), and reads data without the guard marker as no payload."""
    gm = GUARD_MARKER & Config().mask
    entry = [0x100, 1, 2, 3]
    assert decode_guard_revert([gm, (1 << 64) - 1, *entry, 9, 9], 64) == [RawAlarm(*entry)]
    assert decode_guard_revert([gm, 0, *entry], 64) == []
    assert decode_guard_revert([gm], 64) == []
    assert decode_guard_revert([], 64) is None
    assert decode_guard_revert([gm ^ 1, 1, *entry], 64) is None
    assert decode_guard_revert([GUARD_MARKER & 0xFF, 1, *entry], 8) == [RawAlarm(*entry)]


def test_guard_revert_without_entries_reports_sentinel():
    """A flag with an empty buffer (a protected callee reached by CALL
    flagged) reverts with the all-ones sentinel pair of the flagged
    function."""
    config = Config()
    receipt, _, addr = _run_exit(MODE_BOUNDARY, 1, [])
    assert receipt.status == "Reverted"
    gm = GUARD_MARKER & config.mask
    assert receipt.return_data == [gm, 1, addr, CODE_ID, EXIT_FN, config.mask]


def test_inner_guard_revert_rolls_back_only_its_own_appends():
    """A frame that misses, then calls its own account, whose inner boundary
    frame misses and guard-reverts: the inner payload lists the whole buffer,
    and the revert journal drops only the inner append, so the outer frame's
    entry and count survive with no copy."""
    config = Config()
    exit_fid, miss_fid, inner_fid = 1, 2, 3
    outer = Asm().push(0x111).push(4).push(mapping_fn_seed(4, config)).emit(Op.ICALL, miss_fid)
    outer.push(0).push(0x8).push(0).emit(Op.ADDRESS).emit(Op.CALL)  # [ok]
    words = range(ALARM_CNT_SLOT, ALARM_ENTRY_SLOT + 6)  # count and two entries
    for slot in reversed(words):
        outer.push(slot).emit(Op.TLOAD)
    outer.push(len(words) + 1).emit(Op.RETURN)
    inner = Asm().push(0x222).push(5).push(mapping_fn_seed(5, config)).emit(Op.ICALL, miss_fid)
    inner.push(0).push(5).emit(Op.ICALL, exit_fid)
    inner.push(0).emit(Op.RETURN)  # never reached
    fns = _slow_fn(seq_exit_routine(CODE_ID, config)) + [
        _miss_fn(config, miss_fid),
        FunctionDef(inner_fid, "inner", Visibility.EXTERNAL, flatten(inner.items, base=0)),
    ]
    receipt, world, addr = _execute(outer.items, [], extra_fns=fns, selectors={0x8: inner_fid})
    assert receipt.status == "Accepted", receipt
    assert receipt.return_data == [1, CODE_ID, 4, 0x111, 0, 0, 0, 0]  # ..., call failed
    assert _transient(world, addr) == _buffer_slots([(CODE_ID, 4, 0x111)])
    (revert,) = [ev for ev in receipt.trace if ev.kind == "Revert"]
    alarms = decode_guard_revert(revert.get("data"), config.width)
    assert [(a.code_id, a.fn, a.combined) for a in alarms] == [
        (CODE_ID, 4, 0x111),
        (CODE_ID, 5, 0x222),
    ]


@pytest.mark.parametrize("op", [Op.DELEGATECALL, Op.CALL])
def test_callee_entries_land_in_executing_account_buffer(op):
    """A protected callee reached by DELEGATECALL runs its miss routine in
    the caller's account, so its entry, under its own code id, lands in the
    caller's buffer and the caller's guard revert reports it. Reached by
    CALL, the entry stays in the callee's account and the caller reports
    the sentinel."""
    config = Config()
    lib_id, lib_fid = CODE_ID + 1, 6
    world = WorldState(config)
    body = Asm().push(0x333).push(lib_fid).push(mapping_fn_seed(lib_fid, config))
    body.emit(Op.ICALL, 1).emit(Op.STOP)
    lib = ContractProgram(
        "lib",
        [
            FunctionDef(0, "f", Visibility.EXTERNAL, flatten(body.items, base=0)),
            _miss_fn(config, 1, lib_id),
        ],
        {0x9: 0},
        None,
    )
    validate_program(lib, config)
    lib_addr = deploy(world, lib, 0xD0)
    host = Asm().push(0).push(0x9)
    if op is Op.CALL:
        host.push(0)  # value
    host.push(lib_addr).emit(op).emit(Op.POP)
    host.push(0).push(5).emit(Op.ICALL, SLOW_FID)
    host.push(0).emit(Op.RETURN)  # never reached
    prog = ContractProgram(
        "host",
        [FunctionDef(0, "probe", Visibility.EXTERNAL, flatten(host.items, base=0))]
        + _slow_fn(seq_exit_routine(CODE_ID, config)),
        {0x7: 0},
        None,
    )
    validate_program(prog, config)
    addr = deploy(world, prog, 0xD0)
    receipt = VM(world).execute_transaction(Transaction(1, addr, 0x7, []))
    assert receipt.status == "Reverted", receipt
    expected = (lib_id, lib_fid, 0x333) if op is Op.DELEGATECALL else (CODE_ID, 5, config.mask)
    alarms = decode_guard_revert(receipt.return_data, config.width)
    assert [(a.contract, a.code_id, a.fn, a.combined) for a in alarms] == [
        (addr, *expected)
    ]
