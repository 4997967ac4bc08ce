"""Cross-validation: emitted guard sequences against their Python twins."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathguard.config import INTERNAL_DEPTH_LIMIT, Config
from pathguard.guardcode import (
    ALARM_BUFFER_CAP,
    CALL_MARKER,
    CALLEE_ALARM,
    MARKER_WORDS,
    GUARD_MARKER,
    SLOT_POISON,
    ALARM_CNT_SLOT,
    ALARM_ENTRY_SLOT,
    CTX_SLOT,
    Asm,
    Layout,
    RawAlarm,
    SiteTable,
    _guard_revert,
    admin_calldata,
    band_split,
    check_gas,
    checker_pool,
    combined_word,
    decode_guard_revert,
    entry_ctx,
    flatten,
    icall_ctx,
    iret_ctx,
    marker_ctx,
    seq_admin_body,
    seq_arith_check,
    seq_check_fragment,
    seq_checker,
    seq_enter_routine,
    seq_entry,
    seq_exit_routine,
    seq_external_epilogue,
    seq_icall_post,
    seq_icall_pre,
    seq_miss,
    seq_protected_call_pre,
    seq_unprotected_call_pre,
    slot_encode,
)
from pathguard.isa import Op
from pathguard.pathset import (
    STRATEGY_LIST,
    STRATEGY_MPHT,
    ConstructionFailed,
    DirectSpec,
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


PROBE_SELECTOR = 0x7


def _execute(
    items, calldata, width=64, pool=None, extra_fns=None, storage=None, selectors=None,
    points=None, origin=1, balance=0, fallback=None,
):
    """Run one tx from ``origin`` into a probe function made of ``items``,
    selector ``PROBE_SELECTOR``; ``extra_fns`` take function ids 1, 2, ...
    and ``selectors`` maps selectors to the external ones, ``fallback``
    being one of them or None; ``points`` are the VM's gas points of the
    contract, which holds ``balance``. Returns the receipt, the world and
    the address."""
    config = Config(width=width)
    fns = [FunctionDef(0, "probe", Visibility.EXTERNAL, flatten(items, base=0))]
    if extra_fns:
        fns += extra_fns
    table = {PROBE_SELECTOR: 0, **(selectors or {})}
    prog = ContractProgram("t", fns, table, fallback, data_pool=pool or [])
    validate_program(prog, config)
    world = WorldState(config)
    addr = deploy(world, prog)
    for slot, val in (storage or {}).items():
        world.sstore(addr, slot, val)
    if balance:
        world.set_balance(addr, balance)
    world.commit(0)
    vm = VM(world, gas_points=points and {"t": points})
    receipt = vm.execute_transaction(Transaction(origin, addr, PROBE_SELECTOR, calldata))
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


def test_all_ones_combined_alarms_on_an_empty_mapping():
    """combined = 2**width - 1, never approved, goes through an empty list's
    checker into the miss routine and alarms at every width: its key + 1
    wraps to 0, the word of an empty slot, and the routine accepts only a
    nonzero stored word."""
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


def _probe_checker(spec, key, width, fid, pool_base, pool=None):
    """One check of ``key`` by a checker whose pool sits at ``pool_base``,
    missing into the recording stub. ``pool`` is the contract's whole pool,
    by default filler words, then the checker's at ``pool_base``. Returns
    (the miss stub's transient words or None on a hit, the checker's own
    gas)."""
    config = Config(width=width)
    sentinel = 0x5A  # below the checker's operand: it must survive the call
    probe = Asm().push(sentinel).push(key).emit(Op.ICALL, CHK_FID).push(1).emit(Op.RETURN)
    chk = flatten(seq_checker(spec, fid, MISS_FID, pool_base, config).items, base=0)
    fns = [
        FunctionDef(CHK_FID, "chk", Visibility.INTERNAL, chk),
        FunctionDef(MISS_FID, "miss", Visibility.INTERNAL, flatten(_recording_miss().items, 0)),
    ]
    if pool is None:
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


WIDTHS = st.sampled_from([8, 16, 32, 64])


def _word(width):
    """A word of ``width`` bits, leaning to the ends, where sums wrap."""
    mask = (1 << width) - 1
    return st.one_of(st.integers(0, mask), st.integers(mask - 3, mask), st.integers(0, 3))


@st.composite
def _checker_cases(draw):
    """A width, a key set that builds (a list of 1-5 keys or a table of
    6-12), probes, a fid and a pool offset. Keys and probes lean to the
    ends of the word, where key+1 wraps."""
    width = draw(WIDTHS)
    word = _word(width)
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
        assert gas == check_gas(spec, config) - 22 * steps
    for key in probes + [0, config.mask - 1, config.mask]:
        if key in spec.keys:
            continue
        missed, _gas = _probe_checker(spec, key, width, fid, pool_base)
        assert missed == (key, fid, mapping_fn_seed(fid, config), 1), key


@st.composite
def _direct_cases(draw):
    """A width, a direct table over [0, r) with 1 to r safe ids, probes, a
    fid and a pool base."""
    width = draw(WIDTHS)
    r = draw(st.integers(1, 64))
    keys = sorted(draw(st.sets(st.integers(0, r - 1), min_size=1)))
    probes = draw(st.lists(_word(width), min_size=1, max_size=3))
    return width, DirectSpec(keys, r), probes, draw(st.integers(0, 6)), draw(st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(case=_direct_cases())
def test_direct_checker_matches_membership(case):
    """A direct checker hits exactly its safe ids, each at check_gas, and
    hands every other word to the miss routine unchanged. Every pool word
    outside the table holds c + 1 for the c whose base + c lands on it, so
    r, the all-ones word and 2**width - base, where base + c wraps to word
    0, hit without the bounds test."""
    width, spec, probes, fid, base = case
    config = Config(width=width)
    extra = 4  # neighbour words past the table
    pool = [(i - base + 1) & config.mask for i in range(base + spec.r + extra)]
    pool[base : base + spec.r] = checker_pool(spec, width)
    edges = [spec.r - 1, spec.r, spec.r + extra - 1, config.mask]
    if base:
        edges.append((1 << width) - base)
    for key in sorted(set(spec.keys + probes + edges)):
        missed, gas = _probe_checker(spec, key, width, fid, base, pool)
        if key in spec.keys:
            assert (missed, gas) == (None, check_gas(spec, config)), key
        else:
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


def _run_exit(kind, flag, entries, width=64):
    """Close a frame entered as ``kind`` ("boundary", "marker" or
    "reentrant", each setting the entry routine's word for it) with ``flag``
    through an external exit stub over the values [0xA1, 0xA2] (n = 2), the
    transient alarm buffer holding ``entries``; the stub reaches the exit
    routine as function SLOW_FID. Returns (receipt, world, addr); the VM
    traces at TRACE_FULL, so the trace shows every ICALL."""
    config = Config(width=width)
    lay = Layout(width)
    a = _with_alarms(entries).mstore_const(lay.flag, flag)
    if kind == "marker":
        a.mstore_const(lay.cdoff, MARKER_WORDS)
    elif kind == "reentrant":
        a.mstore_const(lay.reentrant, 1)
    a.push(0xA1).push(0xA2).push(2)
    a.extend(seq_external_epilogue(EXIT_FN, ACCEPT_FID, SLOW_FID, 1, lay))
    accept = Asm().emit(Op.POP).emit(Op.IRET)
    fns = _slow_fn(seq_exit_routine(CODE_ID, config)) + [
        FunctionDef(ACCEPT_FID, "accept", Visibility.INTERNAL, flatten(accept.items, base=0))
    ]
    return _execute(a.items, [], width, extra_fns=fns)


def _routine_calls(receipt):
    return [ev for ev in receipt.trace if ev.kind == "CallEnter" and ev.get("callee") == SLOW_FID]


@pytest.mark.parametrize(
    "kind,flag",
    [("boundary", 0), ("marker", 0), ("marker", 1), ("reentrant", 0), ("reentrant", 1)],
    ids=["boundary", "marker", "marker-flagged", "reentrant", "reentrant-flagged"],
)
def test_exit_returns_by_mode_and_flag(kind, flag):
    """Every exit that does not guard-revert returns the frame's values: a
    marker entry under [MARKER, flag], any other entry as they are. Only a
    flagged reentrant entry poisons the ctx slot, so the outer frame of the
    same contract reverts the whole transaction. The alarm buffer stays as
    the misses left it, for a frame of the same account. Only a marker exit
    or a flagged one calls the exit routine: a clean boundary or reentrant
    exit returns from the stub."""
    config = Config()
    entries = [(2, 8, 0x99), (1, 2, 0x10)]
    receipt, world, addr = _run_exit(kind, flag, entries)
    assert receipt.status == "Accepted", receipt
    marker = [CALL_MARKER & config.mask, flag] if kind == "marker" else []
    assert receipt.return_data == marker + [0xA2, 0xA1]
    poisoned = kind == "reentrant" and flag
    poison = {CTX_SLOT: SLOT_POISON & config.mask} if poisoned else {}
    assert _transient(world, addr) == {**_buffer_slots(entries), **poison}
    assert world.dump()[hex(addr)]["storage"] == {}
    assert len(_routine_calls(receipt)) == (kind == "marker" or flag == 1)


def test_guard_revert_payload_lists_buffer_in_append_order():
    """A flagged boundary entry reverts with every buffered entry, in append
    order."""
    config = Config()
    gm = GUARD_MARKER & config.mask
    entries = [(1, 8, 0x99), (CODE_ID, 2, 0x10), (CODE_ID, 7, 0x20)]
    receipt, world, addr = _run_exit("boundary", 1, entries)
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
    receipt, _, addr = _run_exit("boundary", 1, [])
    assert receipt.status == "Reverted"
    gm = GUARD_MARKER & config.mask
    assert receipt.return_data == [gm, 1, addr, CODE_ID, EXIT_FN, CALLEE_ALARM & config.mask]


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
    lib_addr = deploy(world, lib)
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
    addr = deploy(world, prog)
    receipt = VM(world).execute_transaction(Transaction(1, addr, 0x7, []))
    assert receipt.status == "Reverted", receipt
    sentinel = (CODE_ID, 5, CALLEE_ALARM & config.mask)
    expected = (lib_id, lib_fid, 0x333) if op is Op.DELEGATECALL else sentinel
    alarms = decode_guard_revert(receipt.return_data, config.width)
    assert [(a.contract, a.code_id, a.fn, a.combined) for a in alarms] == [
        (addr, *expected)
    ]


# -- sequences that keep their working words on the stack -----------------------


@settings(max_examples=40, deadline=None)
@given(data=st.data(), width=WIDTHS)
def test_guard_revert_payload_decodes_to_the_buffer(data, width):
    """A flagged boundary exit reverts with the whole alarm buffer, 0 to
    ``ALARM_BUFFER_CAP`` entries, and the payload decodes to it in append
    order; an empty buffer reports the sentinel pair of the exiting
    function."""
    config = Config(width=width)
    word = _word(width)
    entries = data.draw(st.lists(st.tuples(word, word, word), max_size=ALARM_BUFFER_CAP))
    receipt, _world, addr = _run_exit("boundary", 1, entries, width)
    assert receipt.status == "Reverted", receipt
    reported = entries or [(CODE_ID, EXIT_FN, CALLEE_ALARM & config.mask)]
    assert receipt.return_data == [GUARD_MARKER & config.mask, len(reported)] + [
        w for entry in reported for w in (addr, *entry)
    ]
    alarms = decode_guard_revert(receipt.return_data, width)
    assert alarms == [RawAlarm(addr, *entry) for entry in reported]


RECORDER_FID = 1  # the protected call's callee, also the fallback


@settings(max_examples=60, deadline=None)
@given(data=st.data(), width=WIDTHS, op=st.sampled_from([Op.CALL, Op.DELEGATECALL]))
def test_protected_call_prefix_reaches_the_callee(data, width, op):
    """Through seq_protected_call_pre, the callee is reached by the call's
    own selector and value and reads [MARKER, ctx, *args] as its calldata,
    ctx being ``marker_ctx`` of the caller's ctx through the site table's
    row for that selector: a case's, or the default's for 0 and for a
    selector with no case. The table has 0-3 cases, surrogate rows among
    them. The stack below the call is untouched."""
    config = Config(width=width)
    lay = Layout(width)
    word = _word(width)
    row = st.tuples(word, st.booleans())
    sels = st.integers(1, min(config.mask, 200)).filter(lambda s: s != PROBE_SELECTOR)
    table = SiteTable(data.draw(row), data.draw(st.dictionaries(sels, row, max_size=3)))
    selector = data.draw(
        st.sampled_from([*table.cases, 0]) | sels.filter(lambda s: s not in table.cases)
    )
    args = data.draw(st.lists(word, max_size=4))
    ctx = data.draw(word)
    value = data.draw(st.integers(0, 50)) if op is Op.CALL else 0
    seen = len(args) + MARKER_WORDS  # calldata words the recorder returns
    recorder = Asm()
    for i in reversed(range(seen)):
        recorder.push(i).emit(Op.CALLDATALOAD)
    recorder.emit(Op.CALLVALUE).emit(Op.CALLDATASIZE).push(seen + 2).emit(Op.RETURN)
    a = Asm().mstore_const(lay.ctx, ctx).push(SENTINEL & config.mask)
    for arg in reversed(args):
        a.push(arg)
    a.push(len(args)).push(selector)
    if op is Op.CALL:
        a.push(value)
    a.emit(Op.ADDRESS).extend(seq_protected_call_pre(op, table, config)).emit(op)
    for i in reversed(range(seen + 2)):
        a.push(i).emit(Op.RETURNDATALOAD)
    a.push(seen + 4).emit(Op.RETURN)
    fns = [FunctionDef(RECORDER_FID, "rec", Visibility.EXTERNAL, flatten(recorder.items, 0))]
    receipt, _world, _addr = _execute(
        a.items, [], width, extra_fns=fns, selectors=dict.fromkeys(table.cases, RECORDER_FID),
        balance=value, fallback=RECORDER_FID,
    )
    assert receipt.status == "Accepted", receipt
    sent = marker_ctx(ctx, selector, table, width)
    assert receipt.return_data == [
        seen, value, CALL_MARKER & config.mask, sent, *args, 1, SENTINEL & config.mask
    ]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), width=WIDTHS)
def test_admin_body_stores_exactly_the_admin_pairs(data, width):
    """The administration entry stores each (slot, value) of
    ``admin_calldata``, a later pair winning a shared slot, and nothing
    else; any caller but the admin reverts and stores nothing."""
    config = Config(width=width)
    word = _word(width)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 40), word), max_size=5))
    want = {}
    for fid, key in pairs:
        want[mapping_slot(fid, key, config)] = mapping_value(key, width)
    items = seq_admin_body(config).items
    calldata = admin_calldata(pairs, config)
    for origin in (config.admin, data.draw(word.filter(lambda w: w != config.admin))):
        receipt, world, addr = _execute(items, calldata, width, origin=origin)
        storage = world.accounts[addr].storage
        if origin == config.admin:
            assert receipt.status == "Accepted", receipt
            assert storage == {slot: v for slot, v in want.items() if v}
        else:
            assert receipt.status == "Reverted", receipt
            assert storage == {}


def _memory_ops(items: list[tuple]) -> list[tuple[Op, int | None]]:
    """(MLOAD | MSTORE, the constant address pushed just before it, or None)."""
    ops = []
    for pos, item in enumerate(items):
        if item[0] == "i" and item[1].op in (Op.MLOAD, Op.MSTORE):
            prev = items[pos - 1][1] if pos else None
            addr = prev.imm if prev is not None and prev.op is Op.PUSH else None
            ops.append((item[1].op, addr))
    return ops


@pytest.mark.parametrize("width", [8, 64])
def test_call_prefix_admin_and_guard_revert_keep_no_scratch_memory(width):
    """The protected-call prefix, the administration loop and the guard
    revert keep their working words on the stack: the prefix reads the ctx
    word in each arm of its table that adds to it, and nothing else of
    memory; the other two touch no memory."""
    config = Config(width=width)
    lay = Layout(width)
    tables = [
        SiteTable((3, False), {}),
        SiteTable((3, True), {}),
        SiteTable((3, True), {0x9: (2, True)}),
        SiteTable((3, False), {0x9: (0, False), 0xA: (2, True)}),
    ]
    for table in tables:
        adds = sum(not surrogate for _val, surrogate in (table.default, *table.cases.values()))
        for op in (Op.CALL, Op.DELEGATECALL):
            items = seq_protected_call_pre(op, table, config).items
            assert _memory_ops(items) == [(Op.MLOAD, lay.ctx)] * adds
    assert _memory_ops(seq_admin_body(config).items) == []
    assert _memory_ops(_guard_revert(CODE_ID, config).items) == []


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_layout_reserves_seven_words_and_two_depth_arrays(width):
    """The guard reserves 8 + 2 * INTERNAL_DEPTH_LIMIT (136) words at the top
    of memory: seven fixed words, the path accumulators of depths 0 to
    INTERNAL_DEPTH_LIMIT and the saved contexts of depths 0 to
    INTERNAL_DEPTH_LIMIT - 1, none shared."""
    lay = Layout(width)
    top = 1 << width
    fixed = [lay.ctx, lay.flag, lay.cdoff, lay.reentrant, lay.depth, lay.retoff, lay.tmp_slot]
    epp = [lay.epp_base + d for d in range(INTERNAL_DEPTH_LIMIT + 1)]
    ctxsave = [lay.ctxsave_base + d for d in range(INTERNAL_DEPTH_LIMIT)]
    words = fixed + epp + ctxsave
    assert len(set(words)) == len(words) == 8 + 2 * INTERNAL_DEPTH_LIMIT == 136
    assert lay.reserved_range == (min(words), top) == (top - 136, top)
    assert max(words) == top - 1


# -- context words: each Python mirror against its emitted sequence ---------------

def _returned(items, width, extra_fns=None, selectors=None, calldata=()):
    """Run ``items`` as the probe function; the return data of the tx."""
    receipt, _world, _addr = _execute(
        items, list(calldata), width, extra_fns=extra_fns, selectors=selectors
    )
    assert receipt.status == "Accepted", receipt
    return receipt.return_data


@settings(max_examples=60, deadline=None)
@given(data=st.data(), width=WIDTHS)
def test_combined_word_matches_check_fragment(data, width):
    """seq_check_fragment hands the checker ``combined_word`` of the frame's
    ctx and path register, wrapping at the width."""
    lay = Layout(width)
    ctx, epp = data.draw(_word(width)), data.draw(_word(width))
    num_paths = data.draw(st.integers(1, (1 << width) - 1))
    a = Asm().mstore_const(lay.ctx, ctx).epp_set(lay, epp)
    a.extend(seq_check_fragment(CHK_FID, lay, num_paths)).emit(Op.STOP)
    returns = Asm().push(1).emit(Op.RETURN)  # the checker returns its operand
    chk = FunctionDef(CHK_FID, "chk", Visibility.INTERNAL, flatten(returns.items, base=0))
    assert _returned(a.items, width, [chk]) == [combined_word(ctx, num_paths, epp, width)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), width=WIDTHS, surrogate=st.booleans())
def test_icall_mirrors_match_icall_sequences(data, width, surrogate):
    """seq_icall_pre sets ``icall_ctx`` and one more depth; seq_icall_post,
    from any ctx the call left, sets ``iret_ctx`` and the depth back."""
    config = Config(width=width)
    lay = Layout(width)
    ctx, val, left = (data.draw(_word(width)) for _ in range(3))
    depth = data.draw(st.integers(0, INTERNAL_DEPTH_LIMIT - 1))
    a = Asm().mstore_const(lay.ctx, ctx).mstore_const(lay.depth, depth)
    a.extend(seq_icall_pre(val, surrogate, config))
    a.mload(lay.ctx).mload(lay.depth)
    a.mstore_const(lay.ctx, left)  # what the callee's frame left in ctx
    a.extend(seq_icall_post(val, surrogate, config))
    a.mload(lay.ctx).mload(lay.depth).push(4).emit(Op.RETURN)
    assert _returned(a.items, width) == [
        depth,
        iret_ctx(left, ctx, val, surrogate, width),
        depth + 1,
        icall_ctx(ctx, val, surrogate, width),
    ]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), width=WIDTHS)
def test_slot_encode_matches_unprotected_call_pre(data, width):
    """seq_unprotected_call_pre stores ``slot_encode`` of ctx in the ctx
    slot and keeps the slot's previous word."""
    lay = Layout(width)
    ctx, prev = data.draw(_word(width)), data.draw(_word(width))
    a = Asm().push(prev).push(CTX_SLOT).emit(Op.TSTORE).mstore_const(lay.ctx, ctx)
    a.extend(seq_unprotected_call_pre(lay))
    a.mload(lay.tmp_slot).push(CTX_SLOT).emit(Op.TLOAD).push(2).emit(Op.RETURN)
    assert _returned(a.items, width) == [slot_encode(ctx, width), prev]


ENTRY_FID, ENTRY_SELECTOR = 1, 0x8  # the function whose entry is under test
ENTER_FID = 2  # the shared entry routine it calls

# How the probe reaches the entry function, and with what calldata:
# (op, prefix, slot set). A CALL makes CALLER the probe's own address; a
# DELEGATECALL keeps the tx's CALLER, the origin; an ICALL enters below
# depth 0. The prefix is None for a markerless entry, "short" for a marker
# word without the full prefix and "marker" for [MARKER, ctx].
ENTRY_CASES = {
    "direct": (Op.DELEGATECALL, None, False),
    "foreign": (Op.CALL, None, False),
    "reentrant": (Op.CALL, None, True),
    "reentrant-direct": (Op.DELEGATECALL, None, True),
    "short-marker": (Op.CALL, "short", False),
    "marker": (Op.CALL, "marker", True),
    "icall-below-depth-0": (Op.ICALL, "marker", True),
}


@pytest.mark.parametrize("kind", list(ENTRY_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), width=WIDTHS)
def test_entry_ctx_matches_prologue(kind, data, width):
    """seq_entry, calling seq_enter_routine, sets ``entry_ctx`` for each
    entry kind: direct, foreign, reentrant (the slot beats the CALLER test)
    and marker (the prefix beats the slot; the ctx word is taken as it
    arrives). It sets the calldata offset of a marker entry and the reentry
    bit of a reentrant one, and the path register to the entry value, and
    leaves the stack as it found it.
    An ICALL target entered below depth 0 keeps the ctx the ICALL set,
    whatever the calldata and the slot."""
    op, prefix_kind, slot_set = ENTRY_CASES[kind]
    config = Config(width=width)
    lay = Layout(width)
    mask = config.mask
    num_ccs = data.draw(st.integers(1, 1 << (width - 1)))
    entry_epp = data.draw(_word(width))
    icall_target = op is Op.ICALL or data.draw(st.booleans())
    slot = data.draw(st.integers(1, mask)) if slot_set else 0
    marker = CALL_MARKER & mask
    sent = data.draw(_word(width))  # the ctx word of a full prefix
    calldata = {None: [], "short": [marker], "marker": [marker, sent]}[prefix_kind]
    calldata = calldata + data.draw(st.lists(_word(width), max_size=2))

    below = data.draw(_word(width))  # the word under the entry's stack
    entry = Asm().push(below)
    entry.extend(seq_entry(num_ccs, entry_epp, ENTER_FID, config, icall_target))
    entry.epp_addr(lay).emit(Op.MLOAD)
    entry.mload(lay.reentrant).mload(lay.cdoff).mload(lay.ctx).push(5).emit(Op.RETURN)
    fns = [
        FunctionDef(ENTRY_FID, "entry", Visibility.EXTERNAL, flatten(entry.items, base=0)),
        FunctionDef(
            ENTER_FID, "enter", Visibility.INTERNAL,
            flatten(seq_enter_routine(config).items, base=0),
        ),
    ]
    a = Asm()
    if slot:
        a.push(slot).push(CTX_SLOT).emit(Op.TSTORE)
    if op is Op.ICALL:
        outer, val = data.draw(_word(width)), data.draw(_word(width))
        surrogate = data.draw(st.booleans())
        a.mstore_const(lay.ctx, outer).extend(seq_icall_pre(val, surrogate, config))
        a.emit(Op.ICALL, ENTRY_FID).emit(Op.STOP)  # the entry's RETURN ends the tx
        want = [icall_ctx(outer, val, surrogate, width), 0, 0, entry_epp, below]
    else:
        for word in reversed(calldata):
            a.push(word)
        a.push(len(calldata)).push(ENTRY_SELECTOR)
        if op is Op.CALL:
            a.push(0)  # value
        a.emit(Op.ADDRESS).emit(op)
        for i in reversed(range(5)):
            a.push(i).emit(Op.RETURNDATALOAD)
        a.push(5).emit(Op.RETURN)
        marked = len(calldata) >= MARKER_WORDS and calldata[0] == marker
        prefix = calldata[1] if marked else None
        ctx = entry_ctx(num_ccs, width, prefix, slot, op is Op.DELEGATECALL)
        reentrant = int(not marked and bool(slot))
        want = [ctx, MARKER_WORDS if marked else 0, reentrant, entry_epp, below]
    # the tx's own calldata only reaches the entry through the ICALL
    assert _returned(a.items, width, fns, {ENTRY_SELECTOR: ENTRY_FID}, calldata) == want


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=WIDTHS, direct=st.booleans())
def test_band_split_inverts_the_entry_bands(data, width, direct):
    """band_split reads back what entry_ctx banded: a markerless entry from
    the origin is context 0, one from a contract the foreign band's 0, and
    a reentry one level deeper than the outer frame whose ctx the slot
    carries, with the outer frame's band and context."""
    num_ccs = data.draw(st.integers(1, 1 << (width - 4)))
    depth = data.draw(st.integers(0, 3))
    foreign, base = data.draw(st.booleans()), data.draw(st.integers(0, num_ccs - 1))
    outer = (depth * 2 + foreign) * num_ccs + base
    assert band_split(outer, num_ccs) == (depth, foreign, base)
    assert band_split(entry_ctx(num_ccs, width, None, 0, direct), num_ccs) == (
        0, not direct, 0
    )
    reentry = entry_ctx(num_ccs, width, None, slot_encode(outer, width), direct)
    assert band_split(reentry, num_ccs) == (depth + 1, foreign, base)
