"""Cross-validation: emitted guard sequences against their Python twins."""

import random

import pytest

from pathguard.config import Config
from pathguard.guardcode import Asm, Layout, checker_pool, flatten, seq_checker
from pathguard.isa import Instruction, Op
from pathguard.pathset import (
    STRATEGY_LIST,
    STRATEGY_MPHT,
    build_list,
    build_mpht,
    list_lookup,
    mapping_slot,
    mapping_value,
    mix,
    mpht_lookup,
)
from pathguard.program import ContractProgram, FunctionDef, Visibility, validate_program
from pathguard.vm import Transaction, VM, WorldState, deploy


def _run_unary(items, x, width=64, pool=None, extra_fns=None, storage=None):
    """Execute a sequence over one calldata word; returns the top-of-stack."""
    config = Config(width=width)
    body = [Instruction(Op.PUSH, 0), Instruction(Op.CALLDATALOAD)]
    body += flatten(items, base=2)
    body += [Instruction(Op.PUSH, 1), Instruction(Op.RETURN)]
    fns = [FunctionDef(0, "probe", Visibility.EXTERNAL, body)]
    if extra_fns:
        fns += extra_fns
    prog = ContractProgram("t", fns, {0x7: 0}, None, data_pool=pool or [])
    validate_program(prog, config)
    world = WorldState(config)
    addr = deploy(world, prog, 0xD0)
    for slot, val in (storage or {}).items():
        world.sstore(addr, slot, val)
    world.commit(0)
    receipt = VM(world).execute_transaction(Transaction(1, addr, 0x7, [x]))
    assert receipt.status == "Accepted", receipt
    return receipt.return_data[0], receipt.gas_used


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_xor_macro_matches_python(width):
    rng = random.Random(width)
    mask = (1 << width) - 1
    for _ in range(20):
        x, y = rng.getrandbits(width), rng.getrandbits(width)
        a = Asm().push(y)
        a.xor()
        got, _ = _run_unary(a.items, x, width)
        assert got == (x ^ y) & mask


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


def _checker_fn(strategy, spec, fn_seed, tag, config):
    body = flatten(
        seq_checker(strategy, spec, fn_seed, tag, 0, config).items, base=0
    )
    return FunctionDef(1, "chk", Visibility.INTERNAL, body)


def _call_checker(strategy, spec, key, width=64, storage=None, fn_seed=0, tag=0):
    config = Config(width=width)
    pool = checker_pool(strategy, spec)
    a = Asm().emit(Op.ICALL, 1)
    return _run_unary(
        a.items,
        key,
        width,
        pool=pool,
        extra_fns=[_checker_fn(strategy, spec, fn_seed, tag, config)],
        storage=storage,
    )


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


def test_mapping_probe_in_vm():
    config = Config()
    fid = 3
    fn_seed = mix((fid ^ config.guard.mapping_salt) & config.mask, config.width)
    key = 12345
    slot = mapping_slot(fid, key, config)
    spec = build_list([])
    hit, _ = _call_checker(
        STRATEGY_LIST,
        spec,
        key,
        storage={slot: mapping_value(key, config.width)},
        fn_seed=fn_seed,
        tag=config.guard.mapping_tag,
    )
    assert hit == 1
    miss, _ = _call_checker(
        STRATEGY_LIST,
        spec,
        key + 1,
        storage={slot: mapping_value(key, config.width)},
        fn_seed=fn_seed,
        tag=config.guard.mapping_tag,
    )
    assert miss == 0
