"""Safe path set storage: embedded list, minimal perfect hash table, mapping.

All hashing is a width-parameterized xorshift-multiply finalizer so the
builder here and the generated in-contract checker compute bit-identical
values. The perfect hash is the two-level bucket/displacement construction:
keys group into m buckets; each bucket gets the lexicographically smallest
displacement pair landing all its keys in free slots of an n-slot table.
A key's position (f1 + d0*f2 + d1) mod n repeats with period n in d0, so d0
runs over [0, n) only; for each d0, d1 is the lowest offset free for every
key of the bucket, read off a bitmask of free slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import Config, DEFAULT_CONFIG
from .program import BLOB_ENTRY_BYTES, BLOB_HEADER_BYTES

STRATEGY_LIST = "List"
STRATEGY_MPHT = "Mpht"
STRATEGY_MAPPING = "Mapping"

# Strategy boundary: an embedded list wins below six entries.
LIST_MAX = 6

DISP_LIMIT = 1 << 16
MPHT_MAX_KEYS = 1 << 16

_MIX_MULT1 = 0xBF58476D1CE4E5B9
_MIX_MULT2 = 0x94D049BB133111EB
_MIX_SHIFTS = (30, 27, 31)
DEFAULT_SEED = 0x9E3779B97F4A7C15


class ConstructionFailed(Exception):
    pass


def mix_shifts(width: int) -> tuple[int, int, int]:
    return tuple(max(1, width * s // 64) for s in _MIX_SHIFTS)


def mix_constants(width: int) -> tuple[int, int]:
    mask = (1 << width) - 1
    return (_MIX_MULT1 & mask) | 1, (_MIX_MULT2 & mask) | 1


def mix(x: int, width: int = 64) -> int:
    """Keyed avalanche finalizer, xorshift-multiply rounds modulo 2**width."""
    mask = (1 << width) - 1
    s1, s2, s3 = mix_shifts(width)
    c1, c2 = mix_constants(width)
    z = x & mask
    z = ((z ^ (z >> s1)) * c1) & mask
    z = ((z ^ (z >> s2)) * c2) & mask
    return z ^ (z >> s3)


def hash_fields(key: int, seed: int, width: int = 64) -> tuple[int, int, int]:
    """Split mix(key XOR seed) into (g, f1, f2) thirds for bucket/position."""
    h = mix((key ^ seed) & ((1 << width) - 1), width)
    t = max(2, width // 3)
    tmask = (1 << t) - 1
    return h >> (2 * t), (h >> t) & tmask, h & tmask


def mapping_value(key: int, width: int) -> int:
    """Stored marker for an appended key; nonzero for every legal key."""
    return (key + 1) & ((1 << width) - 1)


def mapping_fn_seed(fid: int, config: Config) -> int:
    """Per-function term of a mapping slot: a compile-time constant, so the
    generated probe evaluates a single runtime mix."""
    return mix((fid ^ config.guard.mapping_salt) & config.mask, config.width)


def mapping_slot(fid: int, key: int, config: Config) -> int:
    """Storage slot of the dynamic-mapping entry for (function, key)."""
    mixed = mix((mapping_fn_seed(fid, config) ^ key) & config.mask, config.width)
    return (mixed ^ config.guard.mapping_tag) & config.mask


def choose_strategy(n: int) -> str:
    return STRATEGY_LIST if n < LIST_MAX else STRATEGY_MPHT


@dataclass
class ListSpec:
    entries: list[int]  # sorted

    @property
    def blob_bytes(self) -> int:
        return BLOB_HEADER_BYTES + BLOB_ENTRY_BYTES * len(self.entries)


@dataclass
class MphtSpec:
    seed: int
    n: int
    m: int
    displacements: list[tuple[int, int]]
    slots: list[int]

    @property
    def blob_bytes(self) -> int:
        # one pool word per displacement pair plus one per slot
        return BLOB_HEADER_BYTES + BLOB_ENTRY_BYTES * (self.m + self.n)

    def to_json(self) -> dict:
        return {
            "seed": hex(self.seed),
            "n": self.n,
            "m": self.m,
            "displacements": [list(d) for d in self.displacements],
            "slots": [hex(s) for s in self.slots],
        }

    @classmethod
    def from_json(cls, raw: dict) -> "MphtSpec":
        return cls(
            seed=int(raw["seed"], 16),
            n=raw["n"],
            m=raw["m"],
            displacements=[tuple(d) for d in raw["displacements"]],
            slots=[int(s, 16) for s in raw["slots"]],
        )


def build_list(keys) -> ListSpec:
    entries = sorted(set(keys))
    return ListSpec(entries)


def list_lookup(spec: ListSpec, key: int) -> bool:
    return key in spec.entries


def build_mpht(
    keys,
    lam: int | None = None,
    seed: int = DEFAULT_SEED,
    width: int = 64,
    max_tries: int = 16,
) -> MphtSpec:
    """Perfect hash over the key set; deterministic for fixed inputs.

    Buckets are processed largest first. d0 runs over [0, n), because
    positions repeat with period n in d0; a bucket that fits for no d0 there
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
    lam = lam or 4
    m = max(1, math.ceil(n / lam))
    cur_seed = seed & ((1 << width) - 1)
    for _attempt in range(max_tries):
        spec = _try_build(keys, n, m, cur_seed, width)
        if spec is not None:
            return spec
        cur_seed = mix(cur_seed, width)
    raise ConstructionFailed(f"no seed found after {max_tries} tries (n={n})")


def _try_build(keys, n, m, seed, width):
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for key in keys:
        g, f1, f2 = hash_fields(key, seed, width)
        buckets.setdefault(g % m, []).append((key, f1 % n, f2 % n))

    table: list[int | None] = [None] * n
    free = (1 << n) - 1  # bit p set while slot p is empty
    disp = [(0, 0)] * m
    for bucket_id, items in sorted(buckets.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        placed = _place_bucket(items, n, free)
        if placed is None:
            return None
        d0, d1 = disp[bucket_id] = placed
        for key, f1, f2 in items:
            p = (f1 + d0 * f2 + d1) % n
            table[p] = key
            free &= ~(1 << p)
    assert all(v is not None for v in table)
    return MphtSpec(seed=seed, n=n, m=m, displacements=disp, slots=list(table))


def _place_bucket(items, n, free):
    """Smallest (d0, d1) landing every key of the bucket in a free slot.

    Bit d1 of ``twice >> b`` is set exactly when slot (b + d1) mod n is
    free, so the lowest set bit of the AND over the bases is that d1.
    """
    full = (1 << n) - 1
    twice = free | free << n
    for d0 in range(min(n, DISP_LIMIT)):
        bases = [(f1 + d0 * f2) % n for _, f1, f2 in items]
        if len(set(bases)) != len(bases):
            continue  # d1 cannot separate them; translation is rigid
        fits = full
        for b in bases:
            fits &= twice >> b
        if fits:
            return d0, (fits & -fits).bit_length() - 1
    return None


def mpht_lookup(spec: MphtSpec, key: int, width: int = 64) -> bool:
    """Single-probe membership: position then slot comparison."""
    g, f1, f2 = hash_fields(key, spec.seed, width)
    d0, d1 = spec.displacements[g % spec.m]
    pos = (f1 % spec.n + d0 * (f2 % spec.n) + d1) % spec.n
    return spec.slots[pos] == key


@dataclass
class GasEstimate:
    deploy_gas: int
    per_check_gas: int


def estimate_gas(strategy: str, n: int, config: Config = DEFAULT_CONFIG) -> GasEstimate:
    """Analytic deploy/check gas for a path set of size n under a strategy."""
    from . import guardcode  # codegen owns the exact check sequences

    per_byte = config.gas.code_deposit_per_byte
    if strategy == STRATEGY_LIST:
        deploy = per_byte * (BLOB_ENTRY_BYTES * n + BLOB_HEADER_BYTES)
        check = guardcode.check_gas(STRATEGY_LIST, n, config)
    elif strategy == STRATEGY_MPHT:
        m = max(1, math.ceil(n / config.guard.mpht_lambda))
        deploy = per_byte * (BLOB_ENTRY_BYTES * (n + m) + BLOB_HEADER_BYTES)
        check = guardcode.check_gas(STRATEGY_MPHT, n, config)
    elif strategy == STRATEGY_MAPPING:
        deploy = config.gas.sstore_set * n
        check = guardcode.check_gas(STRATEGY_MAPPING, n, config)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return GasEstimate(deploy_gas=deploy, per_check_gas=check)
