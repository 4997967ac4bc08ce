"""Train / protect / detect / review workflow over contract bundles.

A bundle declares contracts (assembly or serialized programs), the protection
boundary, a deployment plan, account funding, and optional setup
transactions. Training runs the corpus uninstrumented and collects checked
pairs through the trace oracle; protection instruments and redeploys;
detection executes a transaction stream against the guarded world with a
mirrored uninstrumented world for exact overhead accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

from .asm import assemble
from .bundle import BundleAnalysis, analyze_bundle
from .callgraph import K_SURROGATE, S
from .ccp import id_to_context
from .config import (
    Config, ConfigError, config_from_json, config_to_json, read_field, read_json, read_word
)
from .epp import index_to_path
from .guardcode import (
    CALLEE_ALARM,
    RawAlarm,
    admin_calldata,
    band_split,
    decode_guard_revert,
    split_index,
)
from .instrument import EXIT_FN_NAME, InstrumentedContract, instrument_contract, plan_strategies
from .oracle import trace_oracle
from .pathset import mapping_slot, mapping_value

# Not called here; stays importable because perfbench/spans.py wraps
# workflow.build_mpht as well as instrument.build_mpht.
from .pathset import build_mpht
from .program import ContractProgram, Visibility, validate_program
from .vm import (
    Account,
    Receipt,
    STATUS_ACCEPTED,
    STATUS_REVERTED,
    Transaction,
    TRACE_CHECKS,
    TRACE_FULL,
    TRACE_NONE,
    VM,
    WorldState,
    deploy,
)


# A tx an exit routine of instrumented code reverted; the VM reads Reverted.
STATUS_GUARD_REVERTED = "GuardReverted"


class WorkflowError(Exception):
    pass


class TrainingTxFailed(WorkflowError):
    pass


class FingerprintMismatch(WorkflowError):
    pass


class NotAdmin(WorkflowError):
    pass


def json_field(raw, key: str, kind: type, where: str, *default):
    """``config.read_field`` raising WorkflowError."""
    return read_field(raw, key, kind, where, WorkflowError, *default)


@dataclass
class Bundle:
    """Deployable set of contracts plus world-initialization script."""

    programs: dict[str, ContractProgram]
    boundary: set[str]
    config: Config
    deploy_order: list[str]
    accounts: dict[int, int] = field(default_factory=dict)  # address -> balance
    setup: list[dict] = field(default_factory=list)  # raw tx records

    @classmethod
    def load(cls, path: str | Path, config: Config | None = None) -> "Bundle":
        return cls.from_json(read_json(path, WorkflowError), config, f"{path}: bundle")

    @classmethod
    def from_json(
        cls, raw: dict, config: Config | None = None, where: str = "bundle"
    ) -> "Bundle":
        """The bundle ``raw`` describes. A field that is missing or of the
        wrong type, a name that is no contract of the bundle, a contract
        name, deployed or protected name or account address that a field
        lists twice, or a call-site annotation that ``_check_callsites``
        refuses, raises WorkflowError naming ``where`` and the field."""
        if config is None:
            try:
                config = config_from_json(json_field(raw, "config", dict, where, {}))
            except ConfigError as exc:
                raise WorkflowError(f"{where}: {exc}") from None
        programs = {}
        for i, entry in enumerate(json_field(raw, "contracts", list, where)):
            at = f"{where} contracts[{i}]"
            if json_field(entry, "source", str, at, None) is not None:
                prog = assemble(entry["source"], config)
            else:
                prog = ContractProgram.from_json(json_field(entry, "program", dict, at), at)
                validate_program(prog, config)
            if prog.name in programs:
                raise WorkflowError(f"{where}: field 'contracts' names {prog.name!r} twice")
            programs[prog.name] = prog
        for prog in programs.values():
            _check_callsites(prog, programs, where)
        names = {}
        for key in ("boundary", "deploy"):
            names[key] = json_field(raw, key, list, where, list(programs))
            unknown = [n for n in names[key] if not isinstance(n, str) or n not in programs]
            if unknown:
                raise WorkflowError(f"{where}: field {key!r} names no contract: {unknown[0]!r}")
            twice = [n for i, n in enumerate(names[key]) if n in names[key][:i]]
            if twice:
                raise WorkflowError(f"{where}: field {key!r} names {twice[0]!r} twice")

        def word(value, what: str) -> int:
            return read_word(value, f"{where} account {what}", WorkflowError, config.mask)

        accounts = {}
        for i, acct in enumerate(json_field(raw, "accounts", list, where, [])):
            at = f"{where} accounts[{i}]"
            address = word(json_field(acct, "address", object, at), "address")
            if address in accounts:
                raise WorkflowError(f"{where}: field 'accounts' lists address {address:#x} twice")
            accounts[address] = word(json_field(acct, "balance", object, at, 0), "balance")
        setup = json_field(raw, "setup", list, where, [])
        return cls(programs, set(names["boundary"]), config, names["deploy"], accounts, setup)


def _check_callsites(
    prog: ContractProgram, programs: dict[str, ContractProgram], where: str
) -> None:
    """Refuse an annotated call whose ``target`` is no contract of the
    bundle, or whose ``fn`` names no external function of its target: the
    call graph would fail on it, treat it as unprotected in silence or give
    it an edge no selector reaches."""
    for (fid, off), info in sorted(prog.callsites.items()):
        if info.target is None:
            continue
        at = f"{where}: {prog.name}.{prog.functions[fid].name}@{off}"
        target = programs.get(info.target)
        if target is None:
            raise WorkflowError(f"{at}: field 'target' names no contract: {info.target!r}")
        if info.callee_fn is None:
            continue
        callee = next((f for f in target.functions if f.name == info.callee_fn), None)
        if callee is None or callee.visibility is not Visibility.EXTERNAL:
            what = "no function" if callee is None else "an internal function"
            raise WorkflowError(
                f"{at}: field 'fn' names {what} of {info.target}: {info.callee_fn!r}"
            )


@dataclass
class DeployedWorld:
    world: WorldState
    addresses: dict[str, int]  # contract name -> address
    names: dict[int, str]  # address -> contract name

    def resolve(self, ref) -> int:
        """A contract name, "@" and a contract name, or a word of the world's
        width (WorkflowError otherwise)."""
        if isinstance(ref, str):
            if ref in self.addresses:
                return self.addresses[ref]
            if ref.startswith("@") and ref[1:] in self.addresses:
                return self.addresses[ref[1:]]
        return read_word(ref, "transaction word", WorkflowError, self.world.config.mask)


def build_world(
    bundle: Bundle, programs: dict[str, ContractProgram] | None = None
) -> DeployedWorld:
    """Deploy a bundle into a fresh world; deterministic address assignment."""
    progs = programs or bundle.programs
    world = WorldState(bundle.config)
    addresses: dict[str, int] = {}
    for name in bundle.deploy_order:
        addresses[name] = deploy(world, progs[name])
    for addr, balance in bundle.accounts.items():
        world.set_balance(addr, balance)
    world.commit(0)
    return DeployedWorld(world, addresses, {a: n for n, a in addresses.items()})


def parse_tx(record: dict, deployed: DeployedWorld, bundle: Bundle) -> Transaction:
    """One JSON transaction record into a VM transaction.

    ``to`` may be a contract name or address; ``fn`` a function name,
    "fallback", or a hex selector; calldata words may use "@Name" to refer
    to deployed contract addresses. Every other word must be a word of the
    bundle's width (WorkflowError otherwise). The origin must not be a
    deployed contract's address: the guard would take a call from that
    contract as direct (CALLER is ORIGIN), the trace oracle as foreign.
    """
    if not isinstance(record, dict):
        raise WorkflowError(f"transaction record is not a JSON object: {record!r}")
    mask = bundle.config.mask
    to = deployed.resolve(record.get("to"))
    fn = record.get("fn", "fallback")
    if fn == "fallback":
        selector = None
    elif isinstance(fn, str) and not fn.startswith("0x"):
        name = deployed.names.get(to)
        prog = bundle.programs.get(name)
        if prog is None:
            raise WorkflowError(f"cannot resolve function {fn!r} on {record['to']}")
        selector = prog.selector_of(fn)
        if selector is None:
            raise WorkflowError(f"{name}.{fn} has no selector")
    else:
        selector = read_word(fn, "transaction fn", WorkflowError, mask)
    calldata = [deployed.resolve(w) for w in record.get("calldata", [])]
    origin = read_word(record.get("origin", 1), "transaction origin", WorkflowError, mask)
    if origin in deployed.names:
        raise WorkflowError(
            f"transaction {record}: origin {origin:#x} is the address of "
            f"contract {deployed.names[origin]!r}"
        )
    return Transaction(
        origin=origin,
        to=to,
        selector=selector,
        calldata=calldata,
        value=read_word(record.get("value", 0), "transaction value", WorkflowError, mask),
        # a gas budget, not a machine word
        gas_limit=read_word(
            record.get("gas_limit", 10_000_000), "transaction gas_limit", WorkflowError
        ),
    )


def load_txs(path: str | Path) -> list[dict]:
    """The transaction records of a JSON-lines stream file."""
    return read_json(path, WorkflowError, lines=True)


# -- training --------------------------------------------------------------------


def train(bundle: Bundle, tx_records: list[dict]) -> dict:
    """Execute the corpus uninstrumented; count oracle pairs into a snapshot."""
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    deployed = build_world(bundle)
    safe: dict[tuple[str, int], dict[int, int]] = {}
    for index, record in enumerate(bundle.setup + tx_records):
        tx = parse_tx(record, deployed, bundle)
        receipt = VM(deployed.world, TRACE_FULL).execute_transaction(tx)
        if receipt.status != STATUS_ACCEPTED:
            raise TrainingTxFailed(
                f"training tx {index} ({record}) ended {receipt.status}"
            )
        for _addr, code, fid, combined in trace_oracle(receipt.trace, analysis, receipt.status):
            hits = safe.setdefault((code, fid), {})
            hits[combined] = hits.get(combined, 0) + 1
    return make_snapshot(analysis, safe)


def make_snapshot(
    analysis: BundleAnalysis,
    safe: dict[tuple[str, int], dict[int, int]],
    config: Config | None = None,
) -> dict:
    """The snapshot of ``safe``, which maps (contract, function id) to that
    function's safe keys, each key to the times training checked it.

    The snapshot is made under ``analysis.config``; a ``config`` that is
    given must be that config (WorkflowError otherwise)."""
    if config is not None and config != analysis.config:
        raise WorkflowError("make_snapshot: config is not the analysis's config")
    contracts: dict = {}
    for name in analysis.code_names:
        profile = {fid: keys for (code, fid), keys in safe.items() if code == name}
        specs = plan_strategies(analysis, name, profile).specs
        contracts[name] = {}
        for fn in analysis.programs[name].functions:
            hits = profile.get(fn.id, {})
            keys = sorted(hits)
            contracts[name][str(fn.id)] = {
                "name": fn.name,
                "num_paths": analysis.num_paths(name, fn.id),
                "num_ccs": analysis.num_ccs(name, fn.id),
                "safe": [hex(k) for k in keys],
                "hits": [hits[k] for k in keys],
                "strategy": specs[fn.id].strategy,
            }
    return {
        "fingerprint": analysis.fingerprint(),
        "width": analysis.config.width,
        "contracts": contracts,
    }


def snapshot_safe_sets(snapshot: dict, name: str) -> dict[int, dict[int, int]]:
    """Each function's safe keys in ``name``'s part of ``snapshot``, whose
    width ``protect`` has checked, each key mapped to its training hits.
    Each entry must hold a list of safe keys, each a word of that width, and
    beside it a list as long of hits, each a non-negative int (WorkflowError
    otherwise)."""
    mask = (1 << snapshot["width"]) - 1
    per_fn = snapshot["contracts"].get(name, {})
    if not isinstance(per_fn, dict):
        raise WorkflowError(f"snapshot {name}: not a JSON object")
    sets = {}
    for fid, entry in per_fn.items():
        where = f"snapshot {name}.fn{fid}"
        if not isinstance(entry, dict) or not isinstance(entry.get("safe"), list):
            raise WorkflowError(f"{where}: no list of safe keys")
        fid = read_word(fid, f"{where} id", WorkflowError)
        keys = [read_word(h, f"{where} safe key", WorkflowError, mask) for h in entry["safe"]]
        hits = entry.get("hits")
        if not isinstance(hits, list) or len(hits) != len(keys):
            raise WorkflowError(f"{where}: no list of hits as long as the safe keys")
        profile = sets[fid] = {}
        for key, n in zip(keys, hits):
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise WorkflowError(f"{where} hits: not a non-negative int: {n!r}")
            profile[key] = profile.get(key, 0) + n
    return sets


# -- protection --------------------------------------------------------------------


@dataclass
class GuardedBundle:
    bundle: Bundle
    analysis: BundleAnalysis
    instrumented: dict[str, InstrumentedContract]
    snapshot: dict

    @cached_property
    def checkers(self) -> dict[str, frozenset[int]]:
        """Each instrumented contract's checker ids, as ``VM`` takes them."""
        return {name: inst.checkers for name, inst in self.instrumented.items()}

    def programs(self) -> dict[str, ContractProgram]:
        progs = dict(self.bundle.programs)
        for name, inst in self.instrumented.items():
            progs[name] = inst.program
        return progs

    def deployment_report(self) -> dict:
        per_contract = {}
        for name, inst in self.instrumented.items():
            functions = inst.program.functions
            per_contract[name] = {
                "original_size": inst.original_size,
                "instrumented_size": inst.instrumented_size,
                "deploy_overhead_pct": round(
                    100 * deploy_overhead_pct(inst.original_size, inst.instrumented_size), 2
                ),
                "deploy_gas_extra": (
                    (inst.instrumented_size - inst.original_size)
                    * self.bundle.config.gas.code_deposit_per_byte
                ),
                "mapping_preseed": len(inst.plan.preseed),
                # function name -> why its embedded set went to the mapping
                "demoted": {functions[f].name: why for f, why in inst.plan.demoted.items()},
                # function name -> its direct set's id space, bytes and check
                # gas, and those of the table it replaced
                "direct": {
                    functions[f].name: {"r": inst.plan.specs[f].r, **cost}
                    for f, cost in inst.plan.replaced.items()
                },
            }
        return per_contract

    def to_json(self) -> dict:
        return {
            "fingerprint": self.snapshot["fingerprint"],
            "snapshot": self.snapshot,
            "config": config_to_json(self.bundle.config),
            "boundary": sorted(self.bundle.boundary),
            "deploy": self.bundle.deploy_order,
            "accounts": [
                {"address": hex(a), "balance": b} for a, b in self.bundle.accounts.items()
            ],
            "setup": self.bundle.setup,
            "originals": {
                name: prog.to_json() for name, prog in self.bundle.programs.items()
            },
            "contracts": {
                name: {
                    "program": inst.program.to_json(),
                    "original_size": inst.original_size,
                    "instrumented_size": inst.instrumented_size,
                    "admin_selector": hex(inst.admin_selector),
                    "preseed": [[fid, hex(k)] for fid, k in inst.plan.preseed],
                    "plan": inst.plan_listing(),
                }
                for name, inst in self.instrumented.items()
            },
        }


def protect(bundle: Bundle, snapshot: dict) -> GuardedBundle:
    """Instrument every boundary contract against the trained snapshot."""
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    if not isinstance(snapshot, dict) or snapshot.get("fingerprint") != analysis.fingerprint():
        raise FingerprintMismatch(
            "snapshot was trained against different code or labeling"
        )
    if snapshot.get("width") != bundle.config.width:
        raise FingerprintMismatch(
            f"snapshot width {snapshot.get('width')!r} is not the bundle's {bundle.config.width}"
        )
    if not isinstance(snapshot.get("contracts"), dict):
        raise WorkflowError("snapshot: no contracts object")
    stray = sorted(set(snapshot["contracts"]) - bundle.boundary)
    if stray:
        raise WorkflowError(f"snapshot {stray[0]}: no protected contract of the bundle")
    instrumented = {}
    for name in analysis.code_names:
        profile = snapshot_safe_sets(snapshot, name)
        fids = {fn.id for fn in bundle.programs[name].functions}
        stray = sorted(set(profile) - fids)
        if stray:
            raise WorkflowError(f"snapshot {name}.fn{stray[0]}: {name} has no such function")
        instrumented[name] = instrument_contract(name, analysis, profile)
    return GuardedBundle(bundle, analysis, instrumented, snapshot)


# -- detection ---------------------------------------------------------------------


@dataclass
class AlarmRecord:
    tx_index: int
    contract: int
    function: int
    ctx_id: int
    epp_id: int
    combined_id: int
    context_chain: list[str]
    path_blocks: list[int]
    inner: bool = False  # raised by a non-entry protected region

    def to_json(self) -> dict:
        return {
            "tx_index": self.tx_index,
            "contract": hex(self.contract),
            "function": self.function,
            "ctx_id": self.ctx_id,
            "epp_id": self.epp_id,
            "combined_id": hex(self.combined_id),
            "context_chain": self.context_chain,
            "path_blocks": self.path_blocks,
            "inner": self.inner,
        }

    @classmethod
    def from_json(cls, raw: dict, mask: int) -> "AlarmRecord":
        """The record ``to_json`` wrote, its words (the contract address, the
        function and the ids) in [0, mask]. A field that is missing, unknown
        or of the wrong type raises WorkflowError."""
        if not isinstance(raw, dict):
            raise WorkflowError(f"alarm record is not a JSON object: {raw!r}")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise WorkflowError(f"alarm record: unknown field {unknown[0]!r}")

        def word(key: str, bound: int | None = mask) -> int:
            return read_word(raw.get(key), f"alarm record {key}", WorkflowError, bound)

        chain, blocks = raw.get("context_chain"), raw.get("path_blocks")
        inner = raw.get("inner", False)
        if not isinstance(chain, list) or not all(isinstance(c, str) for c in chain):
            raise WorkflowError(f"alarm record context_chain: not a list of strings: {chain!r}")
        if not isinstance(blocks, list):
            raise WorkflowError(f"alarm record path_blocks: not a list: {blocks!r}")
        if not isinstance(inner, bool):
            raise WorkflowError(f"alarm record inner: not a bool: {inner!r}")
        return cls(
            tx_index=word("tx_index", None),
            contract=word("contract"),
            function=word("function"),
            ctx_id=word("ctx_id"),
            epp_id=word("epp_id"),
            combined_id=word("combined_id"),
            context_chain=chain,
            path_blocks=[read_word(b, "alarm record path_blocks", WorkflowError) for b in blocks],
            inner=inner,
        )


@dataclass
class TxOutcome:
    index: int
    status: str
    gas_instr: int
    gas_orig: int | None
    alarms: list[AlarmRecord]
    receipt: Receipt


@dataclass
class DetectionRun:
    guarded: GuardedBundle
    deployed: DeployedWorld
    mirror: DeployedWorld | None
    outcomes: list[TxOutcome] = field(default_factory=list)
    alarm_log: list[AlarmRecord] = field(default_factory=list)
    # guard gas and hits per (code name, point kind), summed over reconciled
    # txs; a hit is one point that charged gas in one tx
    point_gas: dict[tuple[str, str], int] = field(default_factory=dict)
    point_hits: dict[tuple[str, str], int] = field(default_factory=dict)
    recon_failures: list[int] = field(default_factory=list)

    def next_index(self) -> int:
        return len(self.outcomes)


def deploy_guarded(guarded: GuardedBundle) -> DeployedWorld:
    """Deploy the instrumented bundle, preseed mappings, run setup txs."""
    deployed = build_world(guarded.bundle, guarded.programs())
    for name, inst in guarded.instrumented.items():
        if inst.plan.preseed:
            _append_pairs(deployed, name, inst, inst.plan.preseed)
    _run_setup(deployed, guarded.bundle, "guarded")
    return deployed


def _run_setup(deployed: DeployedWorld, bundle: Bundle, world: str) -> None:
    """Run the bundle's setup txs on ``deployed``; one that is not accepted
    raises WorkflowError naming it and the ``world`` it ran on."""
    for index, record in enumerate(bundle.setup):
        tx = parse_tx(record, deployed, bundle)
        receipt = VM(deployed.world, TRACE_NONE).execute_transaction(tx)
        if receipt.status != STATUS_ACCEPTED:
            raise WorkflowError(
                f"setup tx {index} ({record}) ended {receipt.status} on the {world} world"
            )


def _append_pairs(
    deployed: DeployedWorld, name: str, inst: InstrumentedContract, pairs: list[tuple[int, int]]
) -> int:
    """Append safe (fid, key) pairs to ``name``'s dynamic mapping by one
    administration transaction; returns its gas."""
    config = deployed.world.config
    tx = Transaction(
        origin=config.admin,
        to=deployed.addresses[name],
        selector=inst.admin_selector,
        calldata=admin_calldata(pairs, config),
    )
    receipt = VM(deployed.world, TRACE_NONE).execute_transaction(tx)
    if receipt.status != STATUS_ACCEPTED:
        raise WorkflowError(f"administration tx on {name} failed: {receipt.status}")
    return receipt.gas_used


def start_detection(guarded: GuardedBundle, mirror: bool = True) -> DetectionRun:
    deployed = deploy_guarded(guarded)
    shadow = None
    if mirror:
        shadow = build_world(guarded.bundle)
        # each stream record is parsed once, against the guarded world
        if shadow.addresses != deployed.addresses:
            raise WorkflowError(
                f"mirror addresses {shadow.addresses} differ from the guarded "
                f"world's {deployed.addresses}"
            )
        _run_setup(shadow, guarded.bundle, "mirror")
    return DetectionRun(guarded, deployed, shadow)


def run_transaction(run: DetectionRun, record: dict) -> TxOutcome:
    """Execute one stream transaction on the guarded world (and its mirror)."""
    guarded = run.guarded
    index = run.next_index()
    tx = parse_tx(record, run.deployed, guarded.bundle)

    # per-point gas is read only by _reconcile, which needs the mirror
    points = None
    if run.mirror is not None:
        points = {
            name: (inst.owners, [0] * len(inst.points))
            for name, inst in guarded.instrumented.items()
        }
    vm = VM(run.deployed.world, TRACE_CHECKS, guarded.checkers, gas_points=points)
    receipt = vm.execute_transaction(tx)

    status, raws = guard_verdict(guarded, receipt)
    inner = status != STATUS_GUARD_REVERTED
    alarms = [_enrich_alarm(run, index, raw, inner) for raw in raws]
    gas_orig = None
    if run.mirror is not None and status == STATUS_ACCEPTED:
        if alarms:
            # a protected region was rolled back: not behavior-equivalent,
            # so the mirror does not run it but takes the state it committed
            _sync_mirror(run)
        else:
            mirror_receipt = VM(run.mirror.world, TRACE_NONE).execute_transaction(tx)
            gas_orig = mirror_receipt.gas_used
            _reconcile(run, index, receipt, points, gas_orig)
    outcome = TxOutcome(index, status, receipt.gas_used, gas_orig, alarms, receipt)
    run.outcomes.append(outcome)
    run.alarm_log.extend(alarms)
    return outcome


def _sync_mirror(run: DetectionRun) -> None:
    """Copy every account's balance and storage from the guarded world into
    the mirror, which keeps its original programs."""
    mirror = run.mirror.world
    for addr, acct in run.deployed.world.accounts.items():
        mine = mirror.accounts.get(addr)
        code = mine.code if mine else None
        mirror.accounts[addr] = Account(acct.balance, dict(acct.storage), code)


def guard_verdict(guarded: GuardedBundle, receipt: Receipt) -> tuple[str, list[RawAlarm]]:
    """The status of a tx run at TRACE_CHECKS or above and its alarms. Only
    the payload of an exit routine's revert counts: any contract can revert
    with the guard marker. A tx such a revert ends is GuardReverted, with
    that revert's alarms; any other tx has those of its inner guard
    reverts."""
    trace = receipt.trace
    # the frame that ends a transaction reports its Revert last
    if receipt.status == STATUS_REVERTED and trace:
        alarms = _exit_routine_alarms(guarded, trace[-1])
        if alarms is not None:
            return STATUS_GUARD_REVERTED, alarms
    inner = (_exit_routine_alarms(guarded, ev) for ev in trace if ev.kind == "Revert")
    return receipt.status, [raw for alarms in inner if alarms for raw in alarms]


def _exit_routine_alarms(guarded: GuardedBundle, ev) -> list[RawAlarm] | None:
    """The alarms of Revert event ``ev`` if an exit routine raised it."""
    inst = guarded.instrumented.get(ev.get("code"))
    if ev.kind != "Revert" or inst is None or inst.program.functions[ev.fn].name != EXIT_FN_NAME:
        return None
    return decode_guard_revert(ev.get("data"), guarded.bundle.config.width)


def _enrich_alarm(run: DetectionRun, index: int, raw: RawAlarm, inner: bool) -> AlarmRecord:
    analysis = run.guarded.analysis
    contract, fid, combined = raw.contract, raw.fn, raw.combined
    names = analysis.code_names
    if raw.code_id >= len(names) or (names[raw.code_id], fid) not in analysis.cfgs:
        # unprotected code reached by DELEGATECALL runs in the account and
        # can write its alarm buffer
        label = "<alarm entry names no protected function>"
    elif combined == CALLEE_ALARM & analysis.config.mask:
        # the flag came from a protected callee reached by CALL, whose alarm
        # entries stayed in its own account's buffer
        label = "<protected callee reached by CALL raised the anomaly>"
    else:
        label = None
    if label:
        return AlarmRecord(index, contract, fid, 0, 0, combined, [label], [], inner)
    code = names[raw.code_id]
    num_paths = analysis.num_paths(code, fid)
    ctx_id, epp_id = split_index(combined, num_paths)
    reentries, foreign, base = band_split(ctx_id, analysis.num_ccs(code, fid))
    chain = ["<reentry via unprotected call>"] * reentries
    if foreign:
        chain.append("<entered from unprotected contract>")
    try:
        for edge in id_to_context(analysis.callgraph, analysis.ccp, (code, fid), base):
            if edge.kind == K_SURROGATE:
                chain.append(f"<recursion surrogate -> {edge.callee[0]}.fn{edge.callee[1]}>")
            elif edge.caller == S:
                chain.append(f"entry -> {edge.callee[0]}.fn{edge.callee[1]}")
            else:
                chain.append(
                    f"{edge.caller[0]}.fn{edge.caller[1]}@{edge.site[2]}"
                    f" -> {edge.callee[0]}.fn{edge.callee[1]}"
                )
    except ValueError:
        chain.append(f"<undecodable context {base}>")
    try:
        cfg = analysis.cfgs[(code, fid)]
        lab = analysis.epp[(code, fid)]
        path = index_to_path(cfg, lab, epp_id)
        blocks = [
            cfg.blocks[e.dst].start
            for e in path
            if e.dst in cfg.blocks and not cfg.blocks[e.dst].empty
        ]
    except ValueError:
        blocks = []
    return AlarmRecord(index, contract, fid, ctx_id, epp_id, combined, chain, blocks, inner)


def _reconcile(run, index, receipt, points, gas_orig) -> None:
    """gas delta must equal the sum of the guard points' charges."""
    injected_gas = 0
    for name, (_owners, acc) in points.items():
        kinds = run.guarded.instrumented[name].points
        for pid, amount in enumerate(acc):
            if amount:
                injected_gas += amount
                key = (name, kinds[pid].kind)
                run.point_gas[key] = run.point_gas.get(key, 0) + amount
                run.point_hits[key] = run.point_hits.get(key, 0) + 1
    if receipt.gas_used - gas_orig != injected_gas:
        run.recon_failures.append(index)


def run_detection(
    guarded: GuardedBundle, tx_records: list[dict], mirror: bool = True
) -> DetectionRun:
    run = start_detection(guarded, mirror)
    for record in tx_records:
        run_transaction(run, record)
    return run


# -- review / approval ----------------------------------------------------------------


def review_and_approve(run: DetectionRun, alarm_tx_index: int, admin: int) -> dict:
    """Approve every pair the alarms of one transaction recorded.

    Review reads the alarm records (function, context chain, block path);
    nothing is executed for it. Approval issues one administration
    transaction per affected contract, appending the pairs its dynamic
    mapping lacks (sstore_set gas per path); pairs already there are
    skipped, so re-approval is a no-op. Returns ``{"approved", "gas"}``.
    The caller sends the alarmed transaction again on the live world, as
    ``false_alarm_simulation`` does.
    """
    config = run.guarded.bundle.config
    if admin != config.admin:
        raise NotAdmin(f"{admin:#x} is not the configured administrator")
    alarms = [a for a in run.alarm_log if a.tx_index == alarm_tx_index]
    if not alarms:
        raise WorkflowError(f"no alarms recorded for tx {alarm_tx_index}")
    appended = 0
    gas = 0
    by_contract: dict[int, list[tuple[int, int]]] = {}
    for alarm in alarms:
        if run.deployed.names.get(alarm.contract) not in run.guarded.instrumented:
            raise WorkflowError(f"alarm names {alarm.contract:#x}, no protected contract")
        by_contract.setdefault(alarm.contract, []).append(
            (alarm.function, alarm.combined_id)
        )
    for contract, pairs in sorted(by_contract.items()):
        name = run.deployed.names[contract]
        inst = run.guarded.instrumented[name]
        missing = []
        for fid, key in sorted(set(pairs)):
            slot = mapping_slot(fid, key, config)
            if run.deployed.world.sload(contract, slot) != mapping_value(key, config.width):
                missing.append((fid, key))
        if not missing:
            continue
        gas += _append_pairs(run.deployed, name, inst, missing)
        appended += len(missing)
    return {"approved": appended, "gas": gas}


# -- reports -----------------------------------------------------------------------


def overhead_report(run: DetectionRun) -> dict:
    guarded = run.guarded
    config = guarded.bundle.config
    per_contract = guarded.deployment_report()
    for name, inst in guarded.instrumented.items():
        by_kind: dict[str, dict] = {}
        for p in inst.points:
            slot = by_kind.setdefault(
                p.kind, {"deploy_bytes": 0, "deploy_gas": 0, "runtime_gas": 0, "hits": 0}
            )
            slot["deploy_bytes"] += p.code_bytes + p.blob_bytes
            slot["deploy_gas"] += (p.code_bytes + p.blob_bytes) * config.gas.code_deposit_per_byte
        for (cname, kind), amount in run.point_gas.items():
            if cname == name:
                by_kind.setdefault(
                    kind, {"deploy_bytes": 0, "deploy_gas": 0, "runtime_gas": 0, "hits": 0}
                )["runtime_gas"] += amount
        for (cname, kind), hits in run.point_hits.items():
            if cname == name:
                by_kind[kind]["hits"] += hits
        per_contract[name]["points"] = by_kind
        per_contract[name]["point_bytes_total"] = sum(
            v["deploy_bytes"] for v in by_kind.values()
        )

    txs = []
    overheads = []
    for out in run.outcomes:
        entry = {
            "index": out.index,
            "status": out.status,
            "gas_instr": out.gas_instr,
            "gas_orig": out.gas_orig,
        }
        if out.gas_orig:
            pct = runtime_overhead_pct(out.gas_orig, out.gas_instr)
            entry["runtime_overhead_pct"] = round(100 * pct, 2)
            overheads.append(pct)
        txs.append(entry)

    buckets = {"<10%": 0, "10-30%": 0, "30-100%": 0, ">=100%": 0}
    for pct in overheads:
        if pct < 0.10:
            buckets["<10%"] += 1
        elif pct < 0.30:
            buckets["10-30%"] += 1
        elif pct < 1.00:
            buckets["30-100%"] += 1
        else:
            buckets[">=100%"] += 1

    sizes = [
        (info["original_size"], info["instrumented_size"]) for info in per_contract.values()
    ]
    return {
        "contracts": per_contract,
        "transactions": txs,
        "aggregate": {
            "avg_deploy_overhead_pct": round(
                100 * (sum(i / o for o, i in sizes) / len(sizes) - 1), 2
            )
            if sizes
            else 0.0,
            "avg_runtime_overhead_pct": round(
                100 * sum(overheads) / len(overheads), 2
            )
            if overheads
            else 0.0,
            "runtime_overhead_buckets": buckets,
        },
        "alarmed_txs": len({a.tx_index for a in run.alarm_log}),
        "gas_reconciliation_failures": run.recon_failures,
    }


def deploy_overhead_pct(original_size: int, instrumented_size: int) -> float:
    """The size-ratio overhead definition used throughout reporting."""
    return instrumented_size / original_size - 1.0


def runtime_overhead_pct(gas_orig: int, gas_instr: int) -> float:
    return (gas_instr - gas_orig) / gas_orig


# -- false-alarm simulation ----------------------------------------------------------


def false_alarm_simulation(bundle: Bundle, tx_records: list[dict]) -> dict:
    """Cold start with an empty safe set; approve and replay on every alarm.

    Setup transactions go through the same approve-on-alarm loop (there is
    no training to pre-authorize them). Returns the alarm count: the
    manual-review effort upper bound for the stream.
    """
    from dataclasses import replace as dc_replace

    stream = list(bundle.setup) + list(tx_records)
    bundle = dc_replace(bundle, setup=[])
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    snapshot = make_snapshot(analysis, {})
    guarded = protect(bundle, snapshot)
    run = start_detection(guarded, mirror=False)
    alarm_txs = 0
    for record in stream:
        outcome = run_transaction(run, record)
        if outcome.alarms:
            alarm_txs += 1
            review_and_approve(run, outcome.index, bundle.config.admin)
            replay = run_transaction(run, record)
            if replay.alarms:
                raise WorkflowError(
                    f"tx {outcome.index} still alarms after approval"
                )
    return {"alarms": alarm_txs, "run": run}
