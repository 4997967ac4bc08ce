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
    MPHT_MAX_KEYS,
    ConstructionFailed,
    ListSpec,
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
    table_size,
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
    """Every key has its own slot in a table of the smallest prime size."""
    keys = random.Random(9).sample(range(1 << 50), 2000)
    spec = build_mpht(keys)
    assert spec.keys == sorted(keys)
    assert spec.size == table_size(2000) == 2003
    assert len(spec.displacements) == spec.m
    assert all(0 <= d0 < 1 << 16 and 0 <= d1 < 1 << 16 for d0, d1 in spec.displacements)


# Safe-path key sets of the generated wide pair (perfbench widegen, shape
# seed 0).
WIDE_KEY_SETS = [
    [1, 8, 15, 17, 24, 31],
    [336, 338, 342, 420, 422, 426, 476, 478, 480, 987, 989, 991, 1484, 1486, 1488, 1596,
     1598, 1602, 2912, 2914, 2916, 3059, 3061, 3065, 3108, 3110, 3114, 3605, 3607, 3609,
     3899, 3901, 3905, 3990, 3992, 3994, 4032, 4034, 4036, 4038],
    [0, 1, 2, 3, 5, 6, 7],
]


def test_mpht_output_pinned():
    """Seeds, displacements and slots stay byte-identical across rewrites of
    the placement search. The digest moves only with the hash or the table
    layout; it was computed with the one-round multiply-shift hash and
    prime table sizes."""
    sets = [(64, random.Random(n).sample(range(1 << 48), n)) for n in (1, 6, 7, 40, 500, 4096)]
    sets += [(16, random.Random(n).sample(range(1 << 16), n)) for n in range(1, 13)]
    sets += [(64, keys) for keys in WIDE_KEY_SETS]
    digest = hashlib.sha256()
    for width, keys in sets:
        digest.update(json.dumps(build_mpht(keys, width=width).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "cded2f8cb9d4915282f7c3b2221d2d992b29a659eae36502d0d044251d4b5399"
    )
    # the seed chain stays covered: the 6- and 7-key sets need a reseed
    assert build_mpht(sets[1][1]).seed != DEFAULT_SEED
    assert build_mpht(sets[2][1]).seed != DEFAULT_SEED


def test_mpht_seed_exhaustion():
    """At width 8, f1 and f2 are two bits wide: under every seed of the
    chain, 16 keys in 4 buckets put two keys of one bucket on the same
    (f1, f2), which no displacement separates."""
    with pytest.raises(ConstructionFailed, match=r"^no seed found after 16 tries \(n=16\)$"):
        build_mpht(range(16), width=8)


@pytest.mark.xfail(
    strict=True,
    raises=ConstructionFailed,
    reason="hash_fields leaves the bucket field g only width - 2 * field_bits(width) "
    "bits (6 at width 16, 4 at width 8), so at most 64 (16) buckets are used "
    "whatever m is, and the crowded buckets fit under no seed of the chain",
)
@pytest.mark.parametrize("n, width", [(277, 16), (100, 8)])
def test_mpht_builds_consecutive_keys_at_narrow_width(n, width):
    """Known defect (README, "Known limitations"): these key sets fail all
    16 seeds, so production falls back to a list plus a mapping preseed."""
    build_mpht(range(n), width=width)


def test_mpht_table_size_is_the_next_prime():
    """A prime size keeps every d0*(f2 - f2') step generating all slots, and
    the deploy estimate counts those slots; the largest size still packs d0
    and d1 into 16 bits each."""
    assert [table_size(n) for n in range(1, 13)] == [1, 2, 3, 5, 5, 7, 7, 11, 11, 11, 11, 13]
    for n in (6, 8, 12, 40):
        spec = build_mpht(range(n), CONFIG.mpht_lambda)
        deploy = spec.blob_bytes * CONFIG.gas.code_deposit_per_byte
        assert estimate_gas(STRATEGY_MPHT, n, CONFIG).deploy_gas == deploy
    assert table_size(MPHT_MAX_KEYS) == MPHT_MAX_KEYS < 1 << 16
    with pytest.raises(ConstructionFailed, match="exceed"):
        build_mpht(range(MPHT_MAX_KEYS + 1))


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
    assert spec.keys == sorted(keys)
    assert all(d0 < spec.size and d1 < spec.size for d0, d1 in spec.displacements)
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


def test_mapping_slot_stability_and_value():
    slot = mapping_slot(3, 12345, CONFIG)
    assert slot == mapping_slot(3, 12345, CONFIG)
    assert slot != mapping_slot(4, 12345, CONFIG)
    assert slot != mapping_slot(3, 12346, CONFIG)
    assert mapping_value(12345, 64) == 12346
    assert mapping_value((1 << 64) - 1, 64) == 0


def test_mix_avalanche_and_width():
    """mix is a bijection of the word at every width (an odd multiply, then
    an xorshift), so distinct keys keep distinct hashes."""
    for width in (8, 16):
        assert len({mix(x, width) for x in range(1 << width)}) == 1 << width
    assert len({mix(x) for x in range(256)}) == 256


def _measured_check_gas(strategy, n, config=CONFIG):
    """VM-measured gas of one member check, of the greatest key (a list's
    last entry): the checker (fid 1) plus the shared miss routine (fid 2)
    when the check reaches it."""
    from pathguard.guardcode import Asm, Layout, checker_pool, flatten, seq_checker, seq_miss
    from pathguard.isa import Instruction, Op
    from pathguard.program import ContractProgram, FunctionDef, Visibility, validate_program
    from pathguard.vm import Transaction, VM, WorldState, deploy

    member = 1000 + max(n, 1) - 1
    if strategy == STRATEGY_LIST:
        spec = build_list(range(1000, 1000 + n))
    elif strategy == STRATEGY_MPHT:
        spec = build_mpht(range(1000, 1000 + n), config.mpht_lambda)
    else:
        spec = ListSpec([])  # no embedded set
    body = [Instruction(Op.PUSH, 0), Instruction(Op.CALLDATALOAD)]
    lay = Layout(config.width)
    # the check raises no alarm on a member: the flag reads back zero
    check = Asm().emit(Op.ICALL, 1).mload(lay.flag).emit(Op.ISZERO)
    body += flatten(check.items, base=2)
    body += [Instruction(Op.PUSH, 1), Instruction(Op.RETURN)]
    chk = seq_checker(spec, 0, 2, 0, config)
    miss = seq_miss(0, config)
    prog = ContractProgram(
        "t",
        [
            FunctionDef(0, "probe", Visibility.EXTERNAL, body),
            FunctionDef(1, "chk", Visibility.INTERNAL, flatten(chk.items, base=0)),
            FunctionDef(2, "miss", Visibility.INTERNAL, flatten(miss.items, base=0)),
        ],
        {0x7: 0},
        None,
        data_pool=checker_pool(spec, config.width),
    )
    validate_program(prog, config)
    world = WorldState(config)
    addr = deploy(world, prog)
    world.sstore(addr, mapping_slot(0, member, config), mapping_value(member, config.width))
    world.commit(0)
    # one gas point: every offset of the checker and the miss routine
    owners = [[-1 if fn.id == 0 else 0] * len(fn.body) for fn in prog.functions]
    acc = [0]
    receipt = VM(world, gas_points={"t": (owners, acc)}).execute_transaction(
        Transaction(1, addr, 0x7, [member])
    )
    assert receipt.status == "Accepted"
    assert receipt.return_data == [1]
    return acc[0]


@pytest.mark.parametrize(
    "strategy,n",
    [(STRATEGY_LIST, 1), (STRATEGY_LIST, 5), (STRATEGY_MPHT, 6), (STRATEGY_MPHT, 8),
     (STRATEGY_MPHT, 10), (STRATEGY_MPHT, 12), (STRATEGY_MPHT, 100), (STRATEGY_MPHT, 1000),
     (STRATEGY_MAPPING, 7)],
)
def test_cost_model_honesty_within_5_percent(strategy, n):
    """Analytic per-check gas tracks the VM-measured member check."""
    est = estimate_gas(strategy, n, CONFIG).per_check_gas
    measured = _measured_check_gas(strategy, n)
    assert abs(est - measured) / measured <= 0.05, (est, measured)


def test_check_gas_crossover_measured():
    """A list check stops at its first hit, so a member on entry i pays i
    entry steps of 22 gas (DUP, PUSH, CODELOAD, EQ, JUMPI); a list's worst
    member is its last. The table check is flat: it hashes with one
    multiply, one xorshift and native XORs. Measured on the last entry, the
    crossover sits at n=7 under the default schedule, above the n=6
    strategy boundary (LIST_MAX): a six-key set pays 163 gas in a table
    where its worst list member would pay 147, and a list of five still
    deploys fewer bytes; recorded as a fidelity note."""
    list_gas = {n: _measured_check_gas(STRATEGY_LIST, n) for n in range(1, 11)}
    mpht_gas = {n: _measured_check_gas(STRATEGY_MPHT, n) for n in range(1, 11)}
    for n in range(2, 11):
        assert list_gas[n] == list_gas[n - 1] + 22  # 5 instructions per entry
    assert max(mpht_gas.values()) - min(mpht_gas.values()) <= 60  # modulus shape only
    crossover = next(n for n in range(1, 11) if mpht_gas[n] <= list_gas[n])
    assert crossover == 7
    assert (list_gas[6], mpht_gas[6]) == (147, 163)


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
        "1ecacbc4990d7359e3b6e9f68ef9e0f06aab6296f8829a4d1f37471243f2bc9c"
    )
