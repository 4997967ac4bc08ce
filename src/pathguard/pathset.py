"""Safe path set storage: embedded list, perfect hash table, mapping.

All hashing is a width-parameterized multiply-shift hash (Dietzfelbinger et
al. 1997): one odd multiply, then one xorshift that folds the well-mixed
high bits down into the low ones. The builder here and the generated
in-contract checker compute bit-identical values. The perfect hash is the
two-level bucket/displacement construction (Belazzougui et al., ESA 2009):
keys group into m buckets; each bucket gets the lexicographically smallest
displacement pair landing all its keys in free slots of an r-slot table,
with r the smallest prime >= n. A key's position (f1 + d0*f2 + d1) mod r
repeats with period r in d0, so d0 runs over [0, r) only; for each d0, d1
is the lowest offset free for every key of the bucket, read off a bitmask
of free slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .config import Config, DEFAULT_CONFIG

STRATEGY_LIST = "List"
STRATEGY_MPHT = "Mpht"
STRATEGY_MAPPING = "Mapping"

# Strategy boundary: an embedded list wins below six entries, where it
# deploys fewer bytes. A list check stops at its first hit; from seven
# entries a table check costs no more gas than a hit on a list's last entry
# (test_check_gas_crossover_measured).
LIST_MAX = 6

# Largest prime below 2**16: d0 and d1 stay below the table size and pack
# into 16 bits each.
MPHT_MAX_KEYS = 65521

# Every embedded path-set blob is a 14-byte header plus 8 bytes per pool word.
BLOB_HEADER_BYTES = 14
BLOB_ENTRY_BYTES = 8

_MIX_MULT = 0xBF58476D1CE4E5B9
# First seed of a table build, and how many seeds of its chain are tried.
DEFAULT_SEED = 0x9E3779B97F4A7C15
MPHT_SEED_TRIES = 16


class ConstructionFailed(Exception):
    pass


def mix_constant(width: int) -> int:
    """Odd multiplier of the hash at a word width."""
    return (_MIX_MULT & ((1 << width) - 1)) | 1


def field_bits(width: int) -> int:
    """Width of the f1 and f2 hash fields, and the hash's xorshift."""
    return max(2, width // 3)


def disp_bits(width: int) -> int:
    """Width of each displacement in a packed pool word, d0 above d1. Every
    table must fit: a table of r slots needs r <= 2**disp_bits."""
    return min(16, width // 2)


def mix(x: int, width: int = 64) -> int:
    """Multiply-shift hash modulo 2**width: odd multiply, then xorshift."""
    mask = (1 << width) - 1
    z = (x * mix_constant(width)) & mask
    return z ^ (z >> field_bits(width))


def hash_fields(key: int, seed: int, width: int = 64) -> tuple[int, int, int]:
    """Split mix(key XOR seed) into (g, f1, f2) for bucket and position."""
    h = mix((key ^ seed) & ((1 << width) - 1), width)
    t = field_bits(width)
    tmask = (1 << t) - 1
    return h >> (2 * t), (h >> t) & tmask, h & tmask


def mapping_value(key: int, width: int) -> int:
    """Stored marker for an appended key; nonzero for every legal key."""
    return (key + 1) & ((1 << width) - 1)


# Dynamic-mapping slots: the salt picks each function's slice of the slot
# space, and the tag is XORed into every slot. Both are masked to the word.
MAPPING_SALT = 0x00F5_EED0_00F5_EED0
MAPPING_TAG = 0x5AFE_5E75_5AFE_5E75


def mapping_fn_seed(fid: int, config: Config) -> int:
    """Per-function term of a mapping slot: a compile-time constant."""
    return mix((fid ^ MAPPING_SALT) & config.mask, config.width)


def mapping_slot(fid: int, key: int, config: Config) -> int:
    """Storage slot of the dynamic-mapping entry for (function, key).

    tag ^ ((fn_seed ^ key) * odd) needs no avalanche: for a fixed function
    it is injective in the key, and the probe evaluates one multiply.
    """
    spread = (mapping_fn_seed(fid, config) ^ key) * mix_constant(config.width)
    return (spread ^ MAPPING_TAG) & config.mask


def choose_strategy(n: int) -> str:
    return STRATEGY_LIST if n < LIST_MAX else STRATEGY_MPHT


@dataclass
class ListSpec:
    """An embedded sorted list; empty, it is the "no embedded set" form."""

    strategy: ClassVar[str] = STRATEGY_LIST
    keys: list[int]  # sorted

    @property
    def n(self) -> int:
        return len(self.keys)

    @property
    def blob_bytes(self) -> int:
        return blob_size(len(self.keys))


@dataclass
class MphtSpec:
    strategy: ClassVar[str] = STRATEGY_MPHT
    seed: int
    n: int  # keys
    m: int  # buckets
    displacements: list[tuple[int, int]]
    slots: list[int | None]  # table_size(n) slots; None is an empty slot

    @property
    def size(self) -> int:
        return len(self.slots)

    @property
    def keys(self) -> list[int]:
        return sorted(k for k in self.slots if k is not None)

    @property
    def blob_bytes(self) -> int:
        # one pool word per displacement pair plus one per slot
        return blob_size(self.m + self.size)

    def to_json(self) -> dict:
        return {
            "seed": hex(self.seed),
            "n": self.n,
            "m": self.m,
            "displacements": [list(d) for d in self.displacements],
            "slots": [None if s is None else hex(s) for s in self.slots],
        }


def blob_size(pool_words: int) -> int:
    """Deployed bytes of a blob of ``pool_words`` constant-pool words."""
    return BLOB_HEADER_BYTES + BLOB_ENTRY_BYTES * pool_words


def build_list(keys) -> ListSpec:
    entries = sorted(set(keys))
    return ListSpec(entries)


def list_lookup(spec: ListSpec, key: int) -> bool:
    return key in spec.keys


def table_size(n: int) -> int:
    """Slots of an n-key table: the smallest prime >= n (1 for one key).

    Two keys of a bucket move apart by d0*(f2 - f2') as d0 varies. Modulo a
    prime that difference reaches every offset; modulo n it reaches only
    multiples of gcd(f2 - f2', n), so n-slot tables fail at small even n.
    """
    r = n
    while r > 1 and any(r % p == 0 for p in range(2, math.isqrt(r) + 1)):
        r += 1
    return r


def build_mpht(keys, lam: int = Config.mpht_lambda, width: int = 64) -> MphtSpec:
    """Perfect hash over the key set; deterministic for fixed inputs.

    Buckets are processed largest first. d0 runs over [0, r), because
    positions repeat with period r in d0; a bucket that fits for no d0 there
    fits for none, and the next seed of the chain is tried. For a fixed d0
    the in-bucket positions translate together as d1 varies, so
    intra-bucket collisions are checked once per d0 and d1 is the lowest
    offset that is free for every key of the bucket at once.
    """
    keys = sorted(set(keys))
    n = len(keys)
    if n == 0:
        raise ConstructionFailed("empty key set")
    if n > MPHT_MAX_KEYS:
        raise ConstructionFailed(f"{n} keys exceed the {MPHT_MAX_KEYS} slot limit")
    m = max(1, math.ceil(n / lam))
    r = table_size(n)
    cur_seed = DEFAULT_SEED & ((1 << width) - 1)
    for _attempt in range(MPHT_SEED_TRIES):
        spec = _try_build(keys, r, m, cur_seed, width)
        if spec is not None:
            break
        cur_seed = mix(cur_seed, width)
    else:
        raise ConstructionFailed(f"no seed found after {MPHT_SEED_TRIES} tries (n={n})")
    if r > 1 << disp_bits(width):
        raise ConstructionFailed(
            f"{r} slots: displacements do not pack into a {width}-bit pool word"
        )
    return spec


def _try_build(keys, r, m, seed, width):
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for key in keys:
        g, f1, f2 = hash_fields(key, seed, width)
        buckets.setdefault(g % m, []).append((key, f1 % r, f2 % r))

    table: list[int | None] = [None] * r
    free = (1 << r) - 1  # bit p set while slot p is empty
    disp = [(0, 0)] * m
    for bucket_id, items in sorted(buckets.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        placed = _place_bucket(items, r, free)
        if placed is None:
            return None
        d0, d1 = disp[bucket_id] = placed
        for key, f1, f2 in items:
            p = (f1 + d0 * f2 + d1) % r
            table[p] = key
            free &= ~(1 << p)
    return MphtSpec(seed=seed, n=len(keys), m=m, displacements=disp, slots=table)


def _place_bucket(items, r, free):
    """Smallest (d0, d1) landing every key of the bucket in a free slot.

    Bit d1 of ``twice >> b`` is set exactly when slot (b + d1) mod r is
    free, so the lowest set bit of the AND over the bases is that d1.
    """
    full = (1 << r) - 1
    twice = free | free << r
    for d0 in range(r):
        bases = [(f1 + d0 * f2) % r for _, f1, f2 in items]
        if len(set(bases)) != len(bases):
            continue  # d1 cannot separate them; translation is rigid
        fits = full
        for b in bases:
            fits &= twice >> b
        if fits:
            return d0, (fits & -fits).bit_length() - 1
    return None


def mpht_position(spec: MphtSpec, key: int, width: int = 64) -> int:
    """The one slot a key can occupy."""
    g, f1, f2 = hash_fields(key, spec.seed, width)
    d0, d1 = spec.displacements[g % spec.m]
    r = spec.size
    return (f1 % r + d0 * (f2 % r) + d1) % r


def mpht_lookup(spec: MphtSpec, key: int, width: int = 64) -> bool:
    """Single-probe membership: position then slot comparison."""
    return spec.slots[mpht_position(spec, key, width)] == key


@dataclass
class GasEstimate:
    deploy_gas: int
    per_check_gas: int


def estimate_gas(strategy: str, n: int, config: Config = DEFAULT_CONFIG) -> GasEstimate:
    """Analytic deploy/check gas for a path set of size n under a strategy:
    the blob and the checker of the set built over the keys 0 .. n-1 (a
    table over one key at least). The mapping embeds an empty list and
    deploys one new storage slot per key."""
    from .guardcode import check_gas  # codegen owns the exact check sequences

    if strategy == STRATEGY_LIST:
        spec = build_list(range(n))
    elif strategy == STRATEGY_MPHT:
        spec = build_mpht(range(max(1, n)), config.mpht_lambda, width=config.width)
    elif strategy == STRATEGY_MAPPING:
        check = check_gas(build_list([]), config)
        return GasEstimate(deploy_gas=config.gas.sstore_set * n, per_check_gas=check)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    deploy = config.gas.code_deposit_per_byte * spec.blob_bytes
    return GasEstimate(deploy_gas=deploy, per_check_gas=check_gas(spec, config))
