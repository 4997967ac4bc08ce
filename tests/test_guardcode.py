"""Cross-validation: emitted guard sequences against their Python twins."""

import random

import pytest

from pathguard.config import Config
from pathguard.guardcode import (
    MODE_BOUNDARY,
    MODE_MARKER,
    MODE_REENTRANT,
    CTX_SLOT,
    RELAY_CNT_SLOT,
    RELAY_ENTRY_SLOT,
    Asm,
    Layout,
    checker_pool,
    flatten,
    seq_checker,
    seq_flagged_exit,
    seq_miss,
)
from pathguard.isa import Op
from pathguard.pathset import (
    STRATEGY_LIST,
    STRATEGY_MPHT,
    build_list,
    build_mpht,
    list_lookup,
    mapping_fn_seed,
    mapping_slot,
    mapping_value,
    mix,
    mpht_lookup,
)
from pathguard.program import ContractProgram, FunctionDef, Visibility, validate_program
from pathguard.vm import Transaction, VM, WorldState, deploy


def _execute(items, calldata, width=64, pool=None, extra_fns=None, storage=None):
    """Run one tx into a probe function made of ``items``; ``extra_fns`` take
    function ids 1, 2, ... Returns the receipt, the world and the address."""
    config = Config(width=width)
    fns = [FunctionDef(0, "probe", Visibility.EXTERNAL, flatten(items, base=0))]
    if extra_fns:
        fns += extra_fns
    prog = ContractProgram("t", fns, {0x7: 0}, None, data_pool=pool or [])
    validate_program(prog, config)
    world = WorldState(config)
    addr = deploy(world, prog, 0xD0)
    for slot, val in (storage or {}).items():
        world.sstore(addr, slot, val)
    world.commit(0)
    receipt = VM(world).execute_transaction(Transaction(1, addr, 0x7, calldata))
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
    """Asm.xor is the native XOR opcode: x ^ y at every width for 3 gas, and
    a frame failure, charged before the pop, on a one-word stack."""
    rng = random.Random(width)
    for _ in range(20):
        x, y = rng.getrandbits(width), rng.getrandbits(width)
        got, gas = _run_unary(Asm().push(y).xor().items, x, width)
        assert got == x ^ y
        assert gas == 6 * 3  # PUSH CALLDATALOAD PUSH XOR PUSH RETURN
    receipt, _world, _addr = _execute(Asm().push(1).xor().emit(Op.STOP).items, [], width)
    assert receipt.status == "Reverted"
    assert receipt.gas_used == 2 * 3
    assert receipt.trace[-1].detail == {"reason": "stack underflow"}


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


def _checker_fns(strategy, spec, fid, config):
    """The checker under test plus the contract's shared miss routine."""
    chk = seq_checker(strategy, spec, fid, MISS_FID, 0, config)
    miss = seq_miss(CODE_ID, config.guard.mapping_tag, Layout(config.width), config)
    return [
        FunctionDef(CHK_FID, "chk", Visibility.INTERNAL, flatten(chk.items, base=0)),
        FunctionDef(MISS_FID, "miss", Visibility.INTERNAL, flatten(miss.items, base=0)),
    ]


def _call_checker(strategy, spec, key, width=64, storage=None, fid=0):
    """One check of ``key``; returns (member, gas) with membership read back
    as ISZERO(flag), since a miss that the mapping does not accept flags."""
    config = Config(width=width)
    a = Asm().push(SENTINEL).push(key).emit(Op.ICALL, CHK_FID)
    a.mload(Layout(width).flag).emit(Op.ISZERO).push(2).emit(Op.RETURN)
    receipt, _, _ = _execute(
        a.items,
        [],
        width,
        pool=checker_pool(strategy, spec),
        extra_fns=_checker_fns(strategy, spec, fid, config),
        storage=storage,
    )
    assert receipt.status == "Accepted", receipt
    member, sentinel = receipt.return_data
    assert sentinel == SENTINEL
    return member, receipt.gas_used


def test_list_checker_in_vm():
    spec = build_list([1, 4, 9, 16, 25])
    for k in (1, 4, 9, 16, 25):
        assert _call_checker(STRATEGY_LIST, spec, k)[0] == 1
    for k in (0, 2, 10, 24, 26, 2**40):
        assert _call_checker(STRATEGY_LIST, spec, k)[0] == 0


def test_empty_list_checker_rejects_everything():
    spec = build_list([])
    for k in (0, 1, 7):
        assert _call_checker(STRATEGY_LIST, spec, k)[0] == 0


@pytest.mark.parametrize("n", [1, 6, 40])
def test_mpht_checker_in_vm(n):
    rng = random.Random(n)
    keys = rng.sample(range(1 << 32), n)
    spec = build_mpht(keys)
    for k in keys:
        assert mpht_lookup(spec, k)
        assert _call_checker(STRATEGY_MPHT, spec, k)[0] == 1
    for _ in range(20):
        k = rng.getrandbits(33)
        if k not in keys:
            expected = 1 if mpht_lookup(spec, k) else 0
            assert expected == 0
            assert _call_checker(STRATEGY_MPHT, spec, k)[0] == 0


def test_mpht_checker_constant_gas_across_sizes():
    gases = []
    for n in (10, 100, 1000):
        keys = list(range(100000, 100000 + n))
        spec = build_mpht(keys)
        _, gas = _call_checker(STRATEGY_MPHT, spec, keys[n // 2])
        gases.append(gas)
    assert len(set(gases)) == 1


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
        got, _ = _call_checker(strategy, spec, key, storage=storage, fid=fid)
        assert got == member, key


# -- shared slow paths -----------------------------------------------------------

SLOW_FID = 1  # the routine under test, ICALLed from the probe


def _slow_fn(seq):
    return [FunctionDef(SLOW_FID, "slow", Visibility.INTERNAL, flatten(seq.items, base=0))]


def _with_local_alarms(lay, entries):
    """Probe prefix filling the local alarm buffer with (code id, fid, combined)."""
    a = Asm()
    for i, entry in enumerate(entries):
        for word, value in enumerate(entry):
            a.mstore_const(lay.abuf + 3 * i + word, value)
    return a.mstore_const(lay.acnt, len(entries))


def _run_miss(lay, prefill, combined, fid, seed, storage=None):
    """ICALL the shared miss routine over [combined, fid, seed] with the
    alarm buffer prefilled; returns (flag, acnt, buffer words)."""
    config = Config()
    a = _with_local_alarms(lay, prefill).push(SENTINEL)
    a.push(combined).push(fid).push(seed).emit(Op.ICALL, SLOW_FID)
    words = [lay.flag, lay.acnt] + [lay.abuf + i for i in range(3 * lay.alarm_cap)]
    for addr in reversed(words):
        a.mload(addr)
    a.push(len(words) + 1).emit(Op.RETURN)
    miss = seq_miss(CODE_ID, config.guard.mapping_tag, lay, config)
    receipt, _, _ = _execute(a.items, [], extra_fns=_slow_fn(miss), storage=storage)
    assert receipt.status == "Accepted", receipt
    flag, acnt, *buf, sentinel = receipt.return_data
    assert sentinel == SENTINEL
    return flag, acnt, buf


def test_mapping_probe_in_vm():
    """The miss routine accepts an appended (fid, key) pair and raises the
    alarm on another key or on another function's seed."""
    config = Config()
    lay = Layout(64)
    fid, key = 3, 12345
    storage = {mapping_slot(fid, key, config): mapping_value(key, config.width)}
    for combined, seed_fid, member in ((key, fid, 1), (key + 1, fid, 0), (key, fid + 1, 0)):
        seed = mapping_fn_seed(seed_fid, config)
        flag, acnt, buf = _run_miss(lay, [], combined, fid, seed, storage)
        alarmed = [] if member else [CODE_ID, fid, combined]
        assert (flag, acnt) == (1 - member, 1 - member), (combined, seed_fid)
        assert buf == alarmed + [0] * (len(buf) - len(alarmed)), (combined, seed_fid)


def test_alarm_append_below_and_at_cap():
    """A miss outside the mapping appends (code id, fid, combined) while the
    buffer has room; at the cap it only sets the flag. Either way it
    consumes [combined, fid, fn_seed]."""
    lay = Layout(64, alarm_cap=2)
    held = [(CODE_ID, 4, 0x111)]
    seed = mapping_fn_seed(6, Config())
    for prefill in (held, held + [(CODE_ID, 5, 0x222)]):
        flag, acnt, buf = _run_miss(lay, prefill, 0x333, 6, seed)
        entries = (prefill + [(CODE_ID, 6, 0x333)])[: lay.alarm_cap]
        assert (flag, acnt) == (1, len(entries))
        assert buf == [w for entry in entries for w in entry] + [0] * (len(buf) - 3 * len(entries))


def _run_flagged_exit(lay, mode, local, relayed=(), fid=5):
    """Run the shared flagged exit in ``mode`` over [0xA1, 0xA2, 2, fid] with
    the local alarm buffer holding ``local`` and the transient relay holding
    ``relayed``, as earlier inner frames of the tx leave it; returns
    (receipt, world, addr)."""
    config = Config()
    a = _with_local_alarms(lay, local).mstore_const(lay.mode, mode)
    for j, entry in enumerate(relayed):
        for word, value in enumerate(entry):
            a.push(value).push(RELAY_ENTRY_SLOT + 3 * j + word).emit(Op.TSTORE)
    a.push(len(relayed)).push(RELAY_CNT_SLOT).emit(Op.TSTORE)
    a.push(0xA1).push(0xA2).push(2).push(fid).emit(Op.ICALL, SLOW_FID)
    a.push(0).emit(Op.RETURN)  # never reached
    seq = seq_flagged_exit(CODE_ID, lay, config)
    return _execute(a.items, [], extra_fns=_slow_fn(seq))


def _relayed(world, addr, count):
    """Relayed entries in the transient storage the last tx left behind."""
    return [
        tuple(world.tload(addr, RELAY_ENTRY_SLOT + 3 * j + w) for w in range(3))
        for j in range(count)
    ]


def test_flagged_exit_marker_relays_and_returns_flag():
    """A marker entry appends its local entries after those already relayed,
    up to the buffer cap, then returns its values under [1, MARKER]."""
    config = Config()
    lay = Layout(64, alarm_cap=3)
    local = [(1, 2, 0x10), (1, 7, 0x20), (1, 9, 0x30)]
    earlier = (2, 8, 0x99)  # relayed by an earlier frame
    receipt, world, addr = _run_flagged_exit(lay, MODE_MARKER, local, [earlier])
    assert receipt.status == "Accepted", receipt
    assert receipt.return_data == [config.guard.call_marker & config.mask, 1, 0xA2, 0xA1]
    assert world.tload(addr, RELAY_CNT_SLOT) == lay.alarm_cap
    assert _relayed(world, addr, lay.alarm_cap + 1) == [earlier] + local[:2] + [(0, 0, 0)]
    assert world.tload(addr, CTX_SLOT) == 0
    assert world.dump()[hex(addr)]["storage"] == {}


def test_flagged_exit_reentrant_relays_then_poisons_slot():
    """A reentrant entry relays its entries, poisons the ctx slot so the outer
    frame reverts, and returns its values unchanged."""
    config = Config()
    lay = Layout(64)
    local = [(1, 2, 0x10), (1, 7, 0x20)]
    receipt, world, addr = _run_flagged_exit(lay, MODE_REENTRANT, local)
    assert receipt.status == "Accepted", receipt
    assert receipt.return_data == [0xA2, 0xA1]
    assert world.tload(addr, RELAY_CNT_SLOT) == len(local)
    assert _relayed(world, addr, len(local)) == local
    assert world.tload(addr, CTX_SLOT) == config.slot_poison
    assert world.dump()[hex(addr)]["storage"] == {}


def test_guard_revert_payload_merges_local_and_relayed_entries():
    """A boundary entry reverts with the relayed plus local entries."""
    config = Config()
    lay = Layout(64)
    gm = config.guard.guard_marker & config.mask
    local = [(CODE_ID, 2, 0x10), (CODE_ID, 7, 0x20)]
    relayed = [(1, 8, 0x99)]
    receipt, world, addr = _run_flagged_exit(lay, MODE_BOUNDARY, local, relayed)
    assert receipt.status == "GuardReverted"
    assert receipt.return_data == [gm, 3] + [
        w for entry in relayed + local for w in (addr, *entry)
    ]
    assert [(r.code_id, r.fn, r.combined) for r in receipt.alarms] == relayed + local


def test_guard_revert_without_entries_reports_sentinel():
    """A flag with no entries (an unreadable inner region) reverts with the
    all-ones sentinel pair of the flagged function."""
    config = Config()
    receipt, _, addr = _run_flagged_exit(Layout(64), MODE_BOUNDARY, [])
    assert receipt.status == "GuardReverted"
    gm = config.guard.guard_marker & config.mask
    assert receipt.return_data == [gm, 1, addr, CODE_ID, 5, config.mask]
