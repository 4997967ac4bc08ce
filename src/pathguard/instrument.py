"""Bytecode rewriting: embeds profiling counters, the boundary protocol,
path-set checks, anomaly flag propagation and guard revert into a contract.

The rewriter works at instruction granularity (offsets are instruction
indices): each original instruction may gain sequences before and after it
or be replaced; stubs (exit epilogues, backedge closers, branch trampolines)
are appended past the original body and all original jump targets are
re-fixed through an old-to-new offset map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .bundle import BundleAnalysis
from .cfg import ENTRY, SURROGATE_ENTRY, VIRTUAL_TRUE, Edge
from .config import Config, MAX_CODE_BYTES
from .guardcode import (
    Asm,
    CTX_SLOT,
    Layout,
    SlowPaths,
    checker_cost,
    checker_pool,
    flatten,
    label_offsets,
    orig_label,
    relocatable,
    resolve,
    seq_gas,
    seq_arith_check,
    seq_backedge,
    seq_call_result,
    seq_check_fragment,
    seq_checker,
    seq_admin_body,
    seq_enter_routine,
    seq_entry,
    seq_exit_routine,
    seq_external_epilogue,
    seq_icall_post,
    seq_icall_pre,
    seq_miss,
    seq_protected_call_pre,
    seq_protected_call_post,
    seq_unprotected_call_pre,
    seq_unprotected_call_post,
    split_index,
)
from .epp import endpoint_values, index_to_path, place_increments
from .isa import EXTERNAL_CALLS, Instruction, Op
from .pathset import (
    ConstructionFailed,
    DirectSpec,
    ListSpec,
    STRATEGY_MPHT,
    Spec,
    build_list,
    build_mpht,
    choose_strategy,
)
from .program import (
    ContractProgram,
    FUNCTION_ENTRY_BYTES,
    FunctionDef,
    SizeLimitExceeded,
    ValidationError,
    Visibility,
    derive_selector,
    validate_program,
)

ADMIN_FN_NAME = "__guard_admin"
EXIT_FN_NAME = "__guard_exit"
# Name prefixes of the functions the rewriter adds to a contract.
GUARD_NAME_PREFIXES = ("__guard_", "__chk_")

POINT_WRAPPER = "ContractWrapper"
POINT_ENTRY = "FunctionEntry"
POINT_BRANCH = "Branch"
POINT_BACKEDGE = "Backedge"
POINT_ICALL = "InternalCallEdge"
POINT_IRETURN = "InternalReturnEdge"
POINT_EXT_UNPROT = "ExternalCallUnprotected"
POINT_EXT_PROT = "ExternalCallProtected"
POINT_EXIT = "FunctionExit"
POINT_CHECK = "PathSetCheck"

# Stub terminators stand in for the original exit they replace: same cost,
# so their gas is not instrumentation overhead.
_EXIT_OPS = frozenset({Op.RETURN, Op.IRET})

# Calldata and return-data reads skip the prefix a marker call or return put
# in front: op -> (point kind, shim, placement, reserved word, arithmetic).
# A load's index gains the prefix length; a size loses it.
_SHIMS = {
    Op.CALLDATALOAD: (POINT_WRAPPER, "calldata", "before", "cdoff", Op.ADD),
    Op.CALLDATASIZE: (POINT_WRAPPER, "calldatasize", "after", "cdoff", Op.SUB),
    Op.RETURNDATALOAD: (POINT_EXT_PROT, "returndata", "before", "retoff", Op.ADD),
    Op.RETURNDATASIZE: (POINT_EXT_PROT, "returndatasize", "after", "retoff", Op.SUB),
}


class InstrumentationError(ValidationError):
    pass


@dataclass
class InstrumentPoint:
    kind: str
    site: tuple  # (function name, offset or edge description)
    payload: dict = field(default_factory=dict)
    code_bytes: int = 0
    blob_bytes: int = 0

    def listing_line(self) -> str:
        payload = " ".join(f"{k}={v}" for k, v in sorted(self.payload.items()))
        return f"{self.kind:24s} {self.site[0]}@{self.site[1]}  {payload}".rstrip()


@dataclass
class SetPlan:
    """Where each function's safe pairs live: its embedded set, else the
    dynamic mapping, seeded at deployment."""

    specs: dict[int, Spec]
    preseed: list[tuple[int, int]]  # (fid, key) pairs seeded in the mapping
    demoted: dict[int, str]  # fid -> why its embedded keys went to the mapping
    # fid of a direct set -> its deployed bytes and check gas ("bytes", "gas")
    # and those of the table it replaced ("table_bytes", "table_gas")
    replaced: dict[int, dict[str, int]] = field(default_factory=dict)

    def demote(self, fid: int, keys, reason: str) -> None:
        """Move ``keys`` of ``fid`` to the preseed and leave it no embedded set."""
        self.preseed += [(fid, k) for k in keys]
        self.specs[fid] = ListSpec([])
        self.demoted[fid] = reason
        self.replaced.pop(fid, None)


@dataclass
class InstrumentedContract:
    name: str
    program: ContractProgram
    points: list[InstrumentPoint]
    original_size: int
    instrumented_size: int
    # owners[fid][offset]: the point whose gas the offset is, or -1 for
    # original code and the stub RETURNs and IRETs that stand in for an
    # original exit
    owners: list[list[int]]
    admin_selector: int
    plan: SetPlan
    checkers: frozenset[int]  # ids of the per-function checkers

    def plan_listing(self) -> str:
        return "\n".join(p.listing_line() for p in self.points) + "\n"


def plan_strategies(
    analysis: BundleAnalysis, name: str, safe_sets: dict[int, set[int]]
) -> SetPlan:
    """Pick the embedded set per function of ``name`` and split out-of-band keys.

    Functions missing from ``safe_sets`` have no safe keys. Keys outside the
    embedded index space (reentrant-band contexts observed in training) go
    to the dynamic mapping preseed, and so do the keys of a table that
    cannot be built.

    A table that builds becomes a direct table over the function's index
    space when that deploys no more bytes and ``check_gas`` prices its
    check lower: the direct check is one bounds test and one read, the
    table's a hash and two reads. A list stays a list, since a hit on its
    first entry costs less than the direct check. The index space is below
    2**(width - 1) (``analyze_bundle``), so it fits the bounds test's PUSH.

    Checkers address their pool words, laid out in function order, with
    word arithmetic, so a set whose words would lie past the top address
    (word 255 at width 8) goes to the mapping.
    """
    config = analysis.config
    functions = analysis.programs[name].functions
    plan = SetPlan({}, [], {})
    for fn in functions:
        fid, keys = fn.id, safe_sets.get(fn.id, ())
        space = analysis.index_space(name, fid)
        embedded = sorted(k for k in keys if k < space)
        plan.preseed += [(fid, k) for k in sorted(keys) if k >= space]
        if choose_strategy(len(embedded)) != STRATEGY_MPHT:
            plan.specs[fid] = build_list(embedded)
            continue
        try:
            table = plan.specs[fid] = build_mpht(
                embedded, config.mpht_lambda, width=config.width
            )
        except ConstructionFailed as exc:
            plan.demote(fid, embedded, f"mpht construction failed: {exc}")
            continue
        direct = DirectSpec(embedded, space)
        table_bytes, table_gas = checker_cost(table, config)
        direct_bytes, direct_gas = checker_cost(direct, config)
        if direct_bytes <= table_bytes and direct_gas < table_gas:
            plan.specs[fid] = direct
            plan.replaced[fid] = {
                "bytes": direct_bytes, "gas": direct_gas,
                "table_bytes": table_bytes, "table_gas": table_gas,
            }
    base = 0
    for fn in functions:
        words = plan.specs[fn.id].pool_words
        if base + words > config.mask + 1:
            plan.demote(
                fn.id, plan.specs[fn.id].keys,
                f"pool words {base}..{base + words - 1} lie past the top address {config.mask}",
            )
        else:
            base += words
    return plan


class _Rewriter:
    """Single-contract rewrite pass."""

    def __init__(
        self,
        name: str,
        analysis: BundleAnalysis,
        increments: dict[int, dict[int, int]],
        plan: SetPlan,
    ):
        self.name = name
        self.analysis = analysis
        self.prog = analysis.programs[name]
        self.increments = increments
        self.plan = plan
        self.config = analysis.config
        self.code_id = analysis.code_names.index(name)
        self.lay = Layout(self.config.width)
        self.icall_targets = _icall_targets(self.prog)
        self.points: list[InstrumentPoint] = []
        self.pool: list[int] = []
        self.callsites: dict = {}  # the annotations at their calls' new offsets
        # Return data, and the memory word that records its prefix, are per
        # external frame, shared by its internal calls: the contract reads
        # return data behind a shim once any of its calls can be prefixed.
        reads = {Op.RETURNDATALOAD, Op.RETURNDATASIZE}
        self.shims = any(site[0] == name for site in analysis.site_tables) and any(
            i.op in reads for fn in self.prog.functions for i in fn.body
        )

    def point(self, kind: str, site: tuple, **payload) -> int:
        self.points.append(InstrumentPoint(kind, site, payload))
        return len(self.points) - 1

    # -- per-function planning ------------------------------------------------

    def rewrite(self) -> InstrumentedContract:
        config = self.config
        prog = self.prog
        self._scan_reserved_collisions()
        original_size = prog.compute_byte_size(config.word_bytes)

        # guard function ids are fixed up front so sequences ICALL them directly
        count = len(prog.functions)
        checker_fid = {fn.id: count + i for i, fn in enumerate(prog.functions)}
        admin_fid = 2 * count
        self.slow = SlowPaths(admin_fid + 1, admin_fid + 2, admin_fid + 3)

        new_functions: list[FunctionDef] = []
        owners: list[list[int]] = []
        for fn in prog.functions:
            body, table = self._rewrite_function(fn, checker_fid[fn.id])
            new_functions.append(
                FunctionDef(fn.id, fn.name, fn.visibility, body)
            )
            owners.append(table)

        # checker functions share the contract constant pool
        for fn in prog.functions:
            spec = self.plan.specs[fn.id]
            base = len(self.pool)
            self.pool.extend(checker_pool(spec, config.width))
            extra = {"demoted": self.plan.demoted[fn.id]} if fn.id in self.plan.demoted else {}
            if isinstance(spec, DirectSpec):
                extra = {"r": spec.r, **self.plan.replaced[fn.id]}
            pid = self.point(
                POINT_CHECK, (fn.name, "checker"), strategy=spec.strategy, entries=spec.n, **extra
            )
            self.points[pid].blob_bytes = spec.blob_bytes
            seq = seq_checker(spec, fn.id, self.slow.miss, base, config)
            new_functions.append(
                self._guard_function(
                    checker_fid[fn.id], f"__chk_{fn.name}", Visibility.INTERNAL,
                    seq, pid, owners,
                )
            )

        # administration entry point
        admin_selector = derive_selector(ADMIN_FN_NAME, config.width)
        taken = set(prog.selector_table)
        while admin_selector in taken:
            admin_selector = (admin_selector + 1) & ((1 << min(32, config.width)) - 1) or 1
        pid = self.point(POINT_WRAPPER, (ADMIN_FN_NAME, "admin"), selector=hex(admin_selector))
        new_functions.append(
            self._guard_function(
                admin_fid, ADMIN_FN_NAME, Visibility.EXTERNAL,
                seq_admin_body(config), pid, owners,
            )
        )

        # one copy per contract of each shared routine, in SlowPaths order
        shared = {
            EXIT_FN_NAME: (POINT_CHECK, seq_exit_routine(self.code_id, config)),
            "__guard_miss": (POINT_CHECK, seq_miss(self.code_id, config)),
            "__guard_enter": (POINT_WRAPPER, seq_enter_routine(config)),
        }
        for fid, (name, (kind, seq)) in zip(self.slow, shared.items()):
            pid = self.point(kind, (name, "shared"))
            new_functions.append(
                self._guard_function(fid, name, Visibility.INTERNAL, seq, pid, owners)
            )

        selector_table = dict(prog.selector_table)
        selector_table[admin_selector] = admin_fid
        new_prog = ContractProgram(
            name=prog.name,
            functions=new_functions,
            selector_table=selector_table,
            fallback_id=prog.fallback_id,
            data_pool=self.pool,
            blob_bytes=sum(p.blob_bytes for p in self.points),
            callsites=self.callsites,
        )
        size = new_prog.compute_byte_size(config.word_bytes)
        return InstrumentedContract(
            name=self.name,
            program=new_prog,
            points=self.points,
            original_size=original_size,
            instrumented_size=size,
            owners=owners,
            admin_selector=admin_selector,
            plan=self.plan,
            checkers=frozenset(checker_fid.values()),
        )

    def _guard_function(
        self, fid: int, name: str, visibility: Visibility, seq: Asm, pid: int,
        owners: list[list[int]],
    ) -> FunctionDef:
        """A function made only of guard code: ``pid`` owns its bytes and the
        gas of every offset."""
        body = flatten(seq.items, base=0)
        # body bytes plus the new function-table entry
        self.points[pid].code_bytes = (
            sum(i.size(self.config.word_bytes) for i in body) + FUNCTION_ENTRY_BYTES
        )
        owners.append([pid] * len(body))
        return FunctionDef(fid, name, visibility, body)

    def _scan_reserved_collisions(self) -> None:
        lo, hi = self.lay.reserved_range
        for fn in self.prog.functions:
            if fn.name.startswith(GUARD_NAME_PREFIXES):
                raise InstrumentationError(
                    f"{self.name}.{fn.name}: function name uses a prefix "
                    f"reserved for guard functions {GUARD_NAME_PREFIXES}"
                )
            for off, instr in enumerate(fn.body):
                if instr.op is Op.PUSH and lo <= instr.imm < hi:
                    raise InstrumentationError(
                        f"{self.name}.{fn.name}@{off}: literal {instr.imm:#x} "
                        "collides with reserved guard state"
                    )
                if instr.op in (Op.TLOAD, Op.TSTORE):
                    raise InstrumentationError(
                        f"{self.name}.{fn.name}@{off}: {instr.op.value} uses transient "
                        "storage, which is reserved for the guard"
                    )

    def _rewrite_function(self, fn: FunctionDef, chk_fid: int):
        name = self.name
        lay = self.lay
        analysis = self.analysis
        cfg = analysis.cfgs[(name, fn.id)]
        lab = analysis.epp[(name, fn.id)]
        num_paths = lab.total_paths
        external = fn.visibility is Visibility.EXTERNAL
        inc = self.increments[fn.id]
        entry_val, reset_val, exit_val = endpoint_values(cfg, inc)

        before: dict[int, list[tuple[Asm, int]]] = {}
        after: dict[int, list[tuple[Asm, int]]] = {}
        # (sequence, gas pid, byte pid) replacing an original; a None gas pid
        # marks a stand-in for it (same cost, not instrumentation overhead)
        replace: dict[int, tuple[Asm, int | None, int]] = {}
        stubs: list[tuple[Asm, int]] = []

        def add(where: dict, off: int, seq: Asm, pid: int) -> None:
            where.setdefault(off, []).append((seq, pid))

        # entry
        if external:
            num_ccs = analysis.num_ccs(name, fn.id)
            pid = self.point(POINT_WRAPPER, (fn.name, 0), num_ccs=num_ccs)
            inner = fn.id in self.icall_targets
            seq = seq_entry(num_ccs, entry_val, self.slow.enter, self.config, inner)
            add(before, 0, seq, pid)
        else:
            pid = self.point(POINT_ENTRY, (fn.name, 0), entry_val=entry_val)
            add(before, 0, Asm().epp_set(lay, entry_val), pid)

        # branch points on edges with a nonzero increment
        for edge in cfg.edges:
            val = inc[edge.eid]
            tag = edge.origin[0] if edge.origin else ""
            if tag == "arith":
                if edge.kind != VIRTUAL_TRUE:
                    continue
                off, opname = edge.origin[1], edge.origin[2]
                pre, post = seq_arith_check(Op(opname), val, lay)
                pid = self.point(
                    POINT_BRANCH, (fn.name, off), virtual=opname, val=val
                )
                add(before, off, pre, pid)
                add(after, off, post, pid)
                continue
            if tag == "callret" and edge.kind == VIRTUAL_TRUE:
                off = edge.origin[1]
                pid = self.point(
                    POINT_BRANCH, (fn.name, off), virtual="callret", val=val
                )
                add(after, off, seq_call_result(val, lay), pid)
                continue
            if val == 0 or edge.kind != "real":
                continue
            if tag == "fall":
                off = edge.origin[1]
                pid = self.point(POINT_BRANCH, (fn.name, off), val=val)
                add(after, off, Asm().epp_add(lay, val), pid)
            elif tag == "callret" or tag == "jump":
                # before the instruction: the add must reach the caller's
                # register, and an ICALL's bookkeeping bumps the depth
                off = edge.origin[1]
                pid = self.point(POINT_BRANCH, (fn.name, off), val=val)
                add(before, off, Asm().epp_add(lay, val), pid)
            elif tag == "branch":
                off, is_taken = edge.origin[1], edge.origin[2]
                if is_taken:
                    pid = self.point(
                        POINT_BRANCH, (fn.name, off), val=val, arm="taken"
                    )
                    label = Asm.fresh("tramp")
                    stubs.append((_trampoline(lay, label, val, fn.body[off].imm), pid))
                    replace[off] = (Asm().jumpi(label), None, pid)
                else:
                    pid = self.point(
                        POINT_BRANCH, (fn.name, off), val=val, arm="fall"
                    )
                    add(after, off, Asm().epp_add(lay, val), pid)

        # backedges: close the path, reset, continue to the original target;
        # each backedge's source block ends at its jump
        exit_vals = {cfg.blocks[bid].end - 1: val for bid, val in exit_val.items()}
        for jump_off, target_start in cfg.backedges:
            exit_inc = exit_vals.get(jump_off, 0)
            reset = reset_val[cfg.block_at(target_start)]
            pid = self.point(
                POINT_BACKEDGE,
                (fn.name, jump_off),
                exit_val=exit_inc,
                reset=reset,
                target=target_start,
            )
            seq = seq_backedge(chk_fid, num_paths, exit_inc, reset, lay)
            instr = fn.body[jump_off]
            if instr.op is Op.JUMP or (instr.op is Op.JUMPI and instr.imm == target_start):
                label = Asm.fresh("be")
                stub = Asm().mark(label).extend(seq).jump(orig_label(target_start))
                stubs.append((stub, pid))
                head = Asm().jump(label) if instr.op is Op.JUMP else Asm().jumpi(label)
                replace[jump_off] = (head, None, pid)
            else:  # fallthrough backedge (irreducible shapes)
                add(after, jump_off, seq, pid)

        # exits
        exit_label = Asm.fresh("exit")
        iexit_label = Asm.fresh("iexit")
        used_exit = used_iexit = False
        for edge in cfg.edges:
            if not edge.origin or edge.origin[0] != "term":
                continue
            off = edge.origin[1]
            val = inc[edge.eid]
            op = fn.body[off].op
            if op is Op.REVERT:
                continue  # reverting paths roll back; no check emitted
            pre = Asm()
            if val:
                pre.epp_add(lay, val)
            pid = self.point(POINT_EXIT, (fn.name, off), val=val, op=op.value)
            if op is Op.IRET:
                used_iexit = True
                pre.jump(iexit_label)
            elif op is Op.STOP:
                used_exit = True
                pre.push(0).jump(exit_label)
            else:  # RETURN
                used_exit = True
                pre.jump(exit_label)
            replace[off] = (pre, pid, pid)

        if used_exit:
            pid = self.point(POINT_CHECK, (fn.name, "exit"), num_paths=num_paths)
            seq = seq_external_epilogue(fn.id, chk_fid, self.slow.exit, num_paths, lay)
            stubs.append((Asm().mark(exit_label).extend(seq), pid))
        if used_iexit:
            pid = self.point(POINT_CHECK, (fn.name, "iexit"), num_paths=num_paths)
            stub = Asm().mark(iexit_label).extend(seq_check_fragment(chk_fid, lay, num_paths))
            stubs.append((stub.emit(Op.IRET), pid))

        def shim(off: int, op: Op) -> None:
            kind, name, where, word, arith = _SHIMS[op]
            pid = self.point(kind, (fn.name, off), shim=name)
            seq = Asm().mload(getattr(lay, word)).emit(arith)
            add(before if where == "before" else after, off, seq, pid)

        # call sites and calldata shims
        for off, instr in enumerate(fn.body):
            if instr.op is Op.ICALL:
                self._plan_icall(fn, off, before, after, add)
            elif instr.op in EXTERNAL_CALLS:
                self._plan_external_call(fn, off, before, after, add)
            elif instr.op in (Op.CALLDATALOAD, Op.CALLDATASIZE):
                shim(off, instr.op)

        # return-data shims: skip the prefix the last call left, if any
        if self.shims:
            for off, instr in enumerate(fn.body):
                if instr.op in (Op.RETURNDATALOAD, Op.RETURNDATASIZE):
                    shim(off, instr.op)

        return self._lay_out(fn, before, after, replace, stubs)

    # -- helpers ---------------------------------------------------------------

    def _plan_icall(self, fn, off, before, after, add) -> None:
        site = (self.name, fn.id, off)
        val, surrogate = self.analysis.site_val[(site, (self.name, fn.body[off].imm))]
        if surrogate:
            pid = self.point(POINT_ICALL, (fn.name, off), surrogate_val=val)
            rid = self.point(POINT_IRETURN, (fn.name, off), restore=True)
        else:
            pid = self.point(POINT_ICALL, (fn.name, off), val=val)
            rid = self.point(POINT_IRETURN, (fn.name, off), val=-val)
        add(before, off, seq_icall_pre(val, surrogate, self.config), pid)
        add(after, off, seq_icall_post(val, surrogate, self.config), rid)

    def _plan_external_call(self, fn, off, before, after, add) -> None:
        config = self.config
        table = self.analysis.site_tables.get((self.name, fn.id, off))
        if table:
            pid = self.point(
                POINT_EXT_PROT, (fn.name, off), default=table.default, cases=len(table.cases)
            )
            add(before, off, seq_protected_call_pre(fn.body[off].op, table, config), pid)
            add(after, off, seq_protected_call_post(config, self.shims), pid)
        else:
            pid = self.point(POINT_EXT_UNPROT, (fn.name, off), slot=hex(CTX_SLOT))
            add(before, off, seq_unprotected_call_pre(self.lay), pid)
            add(after, off, seq_unprotected_call_post(config, self.shims), pid)

    def _lay_out(self, fn, before, after, replace, stubs):
        """Lay out plan items into the new body; fix all jump targets.

        Original offsets become labels ``orig_label(off)``, so original jumps
        and stub exits resolve like any guard jump, and each call-site
        annotation moves to its call's new offset. Entries carry separate
        gas and byte attribution: stand-ins for replaced originals cost no
        extra gas but their bytes (net of the removed instruction) belong to
        their point.
        """
        word_bytes = self.config.word_bytes
        entries: list[tuple] = []  # (item, gas pid, byte pid)
        labels: dict = {}
        for off, instr in enumerate(fn.body):
            for seq, pid in before.get(off, []):
                entries += [(item, pid, pid) for item in seq.items]
            if off in replace:
                seq, gpid, bpid = replace[off]
                entries += [(item, gpid, bpid) for item in seq.items]
                # the replaced original's bytes are credited back
                self.points[bpid].code_bytes -= instr.size(word_bytes)
            else:
                labels[orig_label(off)] = len(entries)
                entries.append((relocatable(instr), None, None))
            for seq, pid in after.get(off, []):
                entries += [(item, pid, pid) for item in seq.items]
        stubs_from = len(entries)
        for seq, pid in stubs:
            entries += [(item, pid, pid) for item in seq.items]
        labels.update(label_offsets([item for item, _gpid, _bpid in entries]))
        for (fid, off), info in self.prog.callsites.items():
            if fid == fn.id:
                self.callsites[(fid, labels[orig_label(off)])] = info

        body: list[Instruction] = []
        owners: list[int] = []
        for pos, (item, gpid, bpid) in enumerate(entries):
            instr = resolve(item, labels)
            if gpid is None or (pos >= stubs_from and instr.op in _EXIT_OPS):
                gpid = -1
            owners.append(gpid)
            if bpid is not None:
                self.points[bpid].code_bytes += instr.size(word_bytes)
            body.append(instr)
        return body, owners


def _icall_targets(prog: ContractProgram) -> set[int]:
    """Ids of the functions some ICALL of ``prog`` enters."""
    return {i.imm for fn in prog.functions for i in fn.body if i.op is Op.ICALL}


def _trampoline(lay: Layout, label: str, val: int, target: int) -> Asm:
    """Stub at ``label`` for a taken branch arm: add ``val``, go on to the
    original ``target``."""
    return Asm().mark(label).epp_add(lay, val).jump(orig_label(target))


@functools.cache
def _increment_gas(config: Config) -> tuple[int, int, int]:
    """Gas per run of an increment's code: an add, a taken-arm trampoline,
    and the wrapper's store of a nonzero external entry value."""
    lay = Layout(config.width)
    return (
        seq_gas(Asm().epp_add(lay, 1).items, config),
        seq_gas(_trampoline(lay, "tramp", 1, 0).items, config),
        seq_gas(Asm().epp_set(lay, 1).items, config),
    )


def _increments(
    analysis: BundleAnalysis, name: str, profile: dict[int, dict[int, int]]
) -> dict[int, dict[int, int]]:
    """Each function's increments (function id -> edge id -> increment): on
    the chords of a spanning tree weighted by each edge's training hits
    times the gas per run of the code that would carry a nonzero increment
    there. Internal entries, entries of an ICALL target and loop-header
    resets ride on a store that runs anyway, and reverting exits are never
    checked, so those cost nothing. No hits give the labeling's values."""
    config = analysis.config
    add_gas, tramp_gas, store_gas = _increment_gas(config)
    icall_targets = _icall_targets(analysis.programs[name])

    def edge_gas(fn: FunctionDef, edge: Edge) -> int:
        if edge.src == ENTRY:
            stores = fn.visibility is Visibility.INTERNAL or fn.id in icall_targets
            return 0 if stores or edge.kind == SURROGATE_ENTRY else store_gas
        tag = edge.origin[0]
        if tag == "term" and fn.body[edge.origin[1]].op is Op.REVERT:
            return 0
        return tramp_gas if tag == "branch" and edge.origin[2] else add_gas

    placed = {}
    for fn in analysis.programs[name].functions:
        cfg, lab = analysis.cfgs[(name, fn.id)], analysis.epp[(name, fn.id)]
        path_hits: dict[int, int] = {}
        for key, n in profile.get(fn.id, {}).items():
            index = split_index(key, lab.total_paths)[1]
            path_hits[index] = path_hits.get(index, 0) + n
        hits: dict[int, int] = {}
        for index, n in path_hits.items():
            for edge in index_to_path(cfg, lab, index):
                hits[edge.eid] = hits.get(edge.eid, 0) + n
        weight = {eid: n * edge_gas(fn, cfg.edge(eid)) for eid, n in hits.items()}
        placed[fn.id] = place_increments(cfg, lab, weight, config.width)
    return placed


def instrument_contract(
    name: str,
    analysis: BundleAnalysis,
    profile: dict[int, dict[int, int]],
) -> InstrumentedContract:
    """Plan and rewrite one contract; spills oversized sets to the mapping.

    ``profile`` maps each function id to its safe keys, each key to the
    times training checked it.
    """
    plan = plan_strategies(analysis, name, profile)
    increments = _increments(analysis, name, profile)
    while True:
        result = _Rewriter(name, analysis, increments, plan).rewrite()
        validate_program(result.program, analysis.config)
        size = result.instrumented_size
        if size <= MAX_CODE_BYTES:
            return result
        # spill: demote the largest embedded set to the dynamic mapping
        candidates = [(spec.n, fid) for fid, spec in plan.specs.items() if spec.n]
        if not candidates:
            raise SizeLimitExceeded(name, size)
        _, fid = max(candidates)
        plan.demote(fid, plan.specs[fid].keys, f"size limit: {size} > {MAX_CODE_BYTES} bytes")
