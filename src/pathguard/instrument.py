"""Bytecode rewriting: embeds profiling counters, the boundary protocol,
path-set checks, anomaly flag propagation and guard revert into a contract.

The rewriter works at instruction granularity (offsets are instruction
indices): each original instruction may gain sequences before and after it
or be replaced; stubs (exit epilogues, backedge closers, branch trampolines)
are appended past the original body and all original jump targets are
re-fixed through an old-to-new offset map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bundle import BundleAnalysis
from .callgraph import K_EXTERNAL, K_SURROGATE
from .cfg import VIRTUAL_TRUE
from .config import Config, MAX_CODE_BYTES
from .guardcode import (
    Asm,
    Layout,
    SLOT_EMPTY,
    admin_calldata,
    checker_pool,
    flatten,
    label_offsets,
    orig_label,
    relocatable,
    resolve,
    seq_arith_check,
    seq_backedge,
    seq_branch_add,
    seq_calldata_load_shim,
    seq_calldata_size_shim,
    seq_call_result,
    seq_checker,
    seq_admin_body,
    seq_external_epilogue,
    seq_icall_post,
    seq_icall_pre,
    seq_internal_entry,
    seq_internal_epilogue,
    seq_prologue,
    seq_protected_call_pre,
    seq_protected_call_post,
    seq_returndata_load_shim,
    seq_returndata_size_shim,
    seq_unprotected_call_pre,
    seq_unprotected_call_post,
)
from .isa import EXTERNAL_CALLS, Instruction, Op
from .pathset import (
    ConstructionFailed,
    ListSpec,
    MphtSpec,
    STRATEGY_LIST,
    STRATEGY_MPHT,
    build_list,
    build_mpht,
    choose_strategy,
    mix,
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
_EXIT_OPS = frozenset({Op.RETURN, Op.IRET, Op.REVERT})


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
class InstrumentedContract:
    name: str
    program: ContractProgram
    points: list[InstrumentPoint]
    original_size: int
    instrumented_size: int
    # new (fid, offset) -> index into points, for gas attribution
    injected: dict[tuple[int, int], int]
    admin_selector: int
    # safe pairs that live in the dynamic mapping instead of embedded sets
    mapping_preseed: list[tuple[int, int]] = field(default_factory=list)

    @property
    def deploy_overhead_pct(self) -> float:
        return self.instrumented_size / self.original_size - 1.0

    def plan_listing(self) -> str:
        return "\n".join(p.listing_line() for p in self.points) + "\n"

    def preseed_calldata(self, config: Config) -> list[int]:
        """Admin-call payload seeding out-of-band safe pairs at deployment."""
        return admin_calldata(self.mapping_preseed, config)


def plan_strategies(
    safe_sets: dict[int, set[int]], analysis_spaces: dict[int, int], config: Config
) -> tuple[dict[int, tuple[str, object]], list[tuple[int, int]]]:
    """Pick the storage strategy per function and split out-of-band keys.

    Keys outside the embedded index space (reentrant-band contexts observed
    in training) go to the dynamic mapping preseed.
    """
    strategies: dict[int, tuple[str, object]] = {}
    preseed: list[tuple[int, int]] = []
    for fid, keys in safe_sets.items():
        space = analysis_spaces[fid]
        embedded = sorted(k for k in keys if k < space)
        preseed += [(fid, k) for k in sorted(keys) if k >= space]
        strategy = choose_strategy(len(embedded))
        if strategy == STRATEGY_MPHT:
            try:
                spec = build_mpht(
                    embedded, config.guard.mpht_lambda, width=config.width
                )
            except ConstructionFailed:
                strategy = STRATEGY_LIST
                spec = None
                preseed += [(fid, k) for k in embedded]
                embedded = []
        if strategy == STRATEGY_LIST:
            spec = build_list(embedded)
        strategies[fid] = (strategy, spec)
    return strategies, preseed


class _Rewriter:
    """Single-contract rewrite pass."""

    def __init__(
        self,
        name: str,
        analysis: BundleAnalysis,
        strategies: dict[int, tuple[str, object]],
        config: Config,
    ):
        self.name = name
        self.analysis = analysis
        self.prog = analysis.programs[name]
        self.strategies = strategies
        self.config = config
        self.code_id = sorted(analysis.boundary).index(name)
        self.lay = Layout(config.width, config.guard.alarm_buffer_cap)
        self.points: list[InstrumentPoint] = []
        self.pool: list[int] = []

    def point(self, kind: str, site: tuple, **payload) -> int:
        self.points.append(InstrumentPoint(kind, site, payload))
        return len(self.points) - 1

    # -- per-function planning ------------------------------------------------

    def rewrite(self) -> InstrumentedContract:
        config = self.config
        prog = self.prog
        self._scan_reserved_collisions()
        original_size = prog.compute_byte_size(config.word_bytes)

        # checker ids are fixed up front so sequences ICALL them directly
        count = len(prog.functions)
        checker_fid = {fn.id: count + i for i, fn in enumerate(prog.functions)}
        admin_fid = 2 * count

        new_functions: list[FunctionDef] = []
        injected: dict[tuple[int, int], int] = {}
        for fn in prog.functions:
            body, owners = self._rewrite_function(fn, checker_fid[fn.id])
            new_functions.append(
                FunctionDef(fn.id, fn.name, fn.visibility, body)
            )
            for off, pid in owners.items():
                injected[(fn.id, off)] = pid

        # checker functions share the contract constant pool
        for fn in prog.functions:
            strategy, spec = self.strategies[fn.id]
            base = len(self.pool)
            self.pool.extend(checker_pool(strategy, spec))
            fn_seed = mix(
                (fn.id ^ config.guard.mapping_salt) & config.mask, config.width
            )
            pid = self.point(
                POINT_CHECK,
                (fn.name, "checker"),
                strategy=strategy,
                entries=len(spec.entries) if isinstance(spec, ListSpec) else spec.n,
            )
            self.points[pid].blob_bytes = spec.blob_bytes if spec else 0
            seq = seq_checker(
                strategy, spec, fn_seed, config.guard.mapping_tag, base, config
            )
            new_functions.append(
                self._guard_function(
                    checker_fid[fn.id], f"__chk_{fn.name}", Visibility.INTERNAL,
                    seq, pid, injected,
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
                seq_admin_body(config.admin, self.lay), pid, injected,
            )
        )

        selector_table = dict(prog.selector_table)
        selector_table[admin_selector] = admin_fid
        new_prog = ContractProgram(
            name=prog.name,
            functions=new_functions,
            selector_table=selector_table,
            fallback_id=prog.fallback_id,
            data_pool=self.pool,
            blob_bytes=sum(
                (self.strategies[f.id][1].blob_bytes if self.strategies[f.id][1] else 0)
                for f in prog.functions
            ),
            callsites=dict(prog.callsites),
            storage_init={config.ctx_storage_slot: SLOT_EMPTY},
        )
        size = new_prog.compute_byte_size(config.word_bytes)
        return InstrumentedContract(
            name=self.name,
            program=new_prog,
            points=self.points,
            original_size=original_size,
            instrumented_size=size,
            injected=injected,
            admin_selector=admin_selector,
        )

    def _guard_function(
        self, fid: int, name: str, visibility: Visibility, seq: Asm, pid: int,
        injected: dict[tuple[int, int], int],
    ) -> FunctionDef:
        """A function made only of guard code, every offset owned by ``pid``."""
        body = flatten(seq.items, base=0)
        # body bytes plus the new function-table entry
        self.points[pid].code_bytes = (
            sum(i.size(self.config.word_bytes) for i in body) + FUNCTION_ENTRY_BYTES
        )
        for off in range(len(body)):
            injected[(fid, off)] = pid
        return FunctionDef(fid, name, visibility, body)

    def _scan_reserved_collisions(self) -> None:
        lo, hi = self.lay.reserved_range()
        slot = self.config.ctx_storage_slot
        for fn in self.prog.functions:
            for off, instr in enumerate(fn.body):
                if instr.op is Op.PUSH and (lo <= instr.imm < hi or instr.imm == slot):
                    raise InstrumentationError(
                        f"{self.name}.{fn.name}@{off}: literal {instr.imm:#x} "
                        "collides with reserved guard state"
                    )

    def _rewrite_function(self, fn: FunctionDef, chk_fid: int):
        name = self.name
        config = self.config
        lay = self.lay
        guard = config.guard
        analysis = self.analysis
        cfg = analysis.cfgs[(name, fn.id)]
        lab = analysis.epp[(name, fn.id)]
        num_paths = lab.total_paths
        external = fn.visibility is Visibility.EXTERNAL

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
            sval = analysis.entry_sval(name, fn.id)
            rows = self._site_rows(fn.id)
            pid = self.point(
                POINT_WRAPPER,
                (fn.name, 0),
                cases="marker/direct/foreign/reentrant",
                sval=sval,
                num_ccs=num_ccs,
            )
            add(
                before,
                0,
                seq_prologue(
                    fn.id,
                    num_ccs,
                    sval,
                    lab.entry_val,
                    rows,
                    config.ctx_storage_slot,
                    guard.call_marker,
                    config,
                ),
                pid,
            )
        else:
            pid = self.point(POINT_ENTRY, (fn.name, 0), entry_val=lab.entry_val)
            add(before, 0, seq_internal_entry(lab.entry_val, lay), pid)

        # branch points on nonzero-value edges
        backedge_jumps = {off for off, _tgt in cfg.backedges}
        for edge in cfg.edges:
            val = lab.edge_val[edge.eid]
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
            if tag == "fall" or tag == "callret":
                off = edge.origin[1]
                pid = self.point(POINT_BRANCH, (fn.name, off), val=val)
                add(after, off, seq_branch_add(val, lay), pid)
            elif tag == "jump":
                off = edge.origin[1]
                if off in backedge_jumps:
                    continue
                pid = self.point(POINT_BRANCH, (fn.name, off), val=val)
                add(before, off, seq_branch_add(val, lay), pid)
            elif tag == "branch":
                off, is_taken = edge.origin[1], edge.origin[2]
                if is_taken:
                    pid = self.point(
                        POINT_BRANCH, (fn.name, off), val=val, arm="taken"
                    )
                    label = Asm.fresh("tramp")
                    stub = Asm().mark(label).epp_add(lay, val)
                    stub.jump(orig_label(fn.body[off].imm))
                    stubs.append((stub, pid))
                    replace[off] = (Asm().jumpi(label), None, pid)
                else:
                    pid = self.point(
                        POINT_BRANCH, (fn.name, off), val=val, arm="fall"
                    )
                    add(after, off, seq_branch_add(val, lay), pid)
            elif tag == "term":
                pass  # folded into the exit-site replacement
            elif tag == "entry":
                pass  # folded into the entry sequence

        # backedges: close the path, reset, continue to the original target
        for jump_off, target_start in cfg.backedges:
            src_block = next(
                b for b in cfg.blocks.values() if b.end == jump_off + 1 and not b.empty
            )
            exit_val = lab.exit_val.get(src_block.bid, 0)
            reset = lab.reset_val[
                next(
                    b.bid
                    for b in cfg.blocks.values()
                    if b.start == target_start and not b.empty
                )
            ]
            pid = self.point(
                POINT_BACKEDGE,
                (fn.name, jump_off),
                exit_val=exit_val,
                reset=reset,
                target=target_start,
            )
            seq = seq_backedge(
                self.code_id, fn.id, chk_fid, num_paths, exit_val, reset, lay
            )
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
            val = lab.edge_val[edge.eid]
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
            pid = self.point(
                POINT_CHECK, (fn.name, "exit"), num_paths=num_paths
            )
            stub = Asm().mark(exit_label)
            stub.extend(
                seq_external_epilogue(
                    self.code_id,
                    fn.id,
                    chk_fid,
                    num_paths,
                    config.ctx_storage_slot,
                    guard.call_marker,
                    guard.guard_marker,
                    config.slot_poison,
                    lay,
                    config,
                )
            )
            stubs.append((stub, pid))
        if used_iexit:
            pid = self.point(POINT_CHECK, (fn.name, "iexit"), num_paths=num_paths)
            stub = Asm().mark(iexit_label)
            stub.extend(
                seq_internal_epilogue(self.code_id, fn.id, chk_fid, num_paths, lay)
            )
            stubs.append((stub, pid))

        # call sites
        for off, instr in enumerate(fn.body):
            if instr.op is Op.ICALL:
                self._plan_icall(fn, off, before, after, add)
            elif instr.op in EXTERNAL_CALLS:
                self._plan_external_call(fn, off, before, after, add)
            elif instr.op is Op.CALLDATALOAD:
                pid = self.point(POINT_WRAPPER, (fn.name, off), shim="calldata")
                add(before, off, seq_calldata_load_shim(lay), pid)
            elif instr.op is Op.CALLDATASIZE:
                pid = self.point(POINT_WRAPPER, (fn.name, off), shim="calldatasize")
                add(after, off, seq_calldata_size_shim(lay), pid)

        # return-data shims after protected callsites
        last_call_protected = False
        for off, instr in enumerate(fn.body):
            if instr.op in EXTERNAL_CALLS:
                last_call_protected = self._is_protected_site(fn.id, off)
            elif instr.op is Op.RETURNDATALOAD and last_call_protected:
                pid = self.point(POINT_EXT_PROT, (fn.name, off), shim="returndata")
                add(before, off, seq_returndata_load_shim(), pid)
            elif instr.op is Op.RETURNDATASIZE and last_call_protected:
                pid = self.point(POINT_EXT_PROT, (fn.name, off), shim="returndatasize")
                add(after, off, seq_returndata_size_shim(), pid)

        return self._lay_out(fn, before, after, replace, stubs)

    # -- helpers ---------------------------------------------------------------

    def _site_rows(self, fid: int):
        """(site gid, edge val, via_surrogate) rows for marker entries."""
        analysis = self.analysis
        cg = analysis.callgraph
        rows = []
        for e in cg.edges:
            if e.callee != (self.name, fid):
                continue
            if e.kind == K_EXTERNAL:
                rows.append((analysis.site_gid[e.site], analysis.ccp.call_val[e.ceid], False))
            elif e.kind == K_SURROGATE and e.site:
                caller_prog = analysis.programs[e.site[0]]
                if caller_prog.functions[e.site[1]].body[e.site[2]].op in EXTERNAL_CALLS:
                    rows.append(
                        (analysis.site_gid[e.site], analysis.ccp.call_val[e.ceid], True)
                    )
        return sorted(rows)

    def _is_protected_site(self, fid: int, off: int) -> bool:
        info = self.prog.callsites.get((fid, off))
        return info is not None and info.target in self.analysis.boundary

    def _plan_icall(self, fn, off, before, after, add) -> None:
        analysis = self.analysis
        cg = analysis.callgraph
        site = (self.name, fn.id, off)
        callee = (self.name, fn.body[off].imm)
        edge = cg.edge_at_site(site, callee)
        if edge is not None:
            val = analysis.ccp.call_val[edge.ceid]
            pid = self.point(POINT_ICALL, (fn.name, off), val=val)
            add(before, off, seq_icall_pre(val, None, self.lay, self.config), pid)
            rid = self.point(POINT_IRETURN, (fn.name, off), val=-val)
            add(after, off, seq_icall_post(val, False, self.lay, self.config), rid)
        else:
            surr = next(
                e
                for e in cg.edges
                if e.kind == K_SURROGATE and e.site == site and e.callee == callee
            )
            vs = analysis.ccp.call_val[surr.ceid]
            pid = self.point(POINT_ICALL, (fn.name, off), surrogate_val=vs)
            add(before, off, seq_icall_pre(0, vs, self.lay, self.config), pid)
            rid = self.point(POINT_IRETURN, (fn.name, off), restore=True)
            add(after, off, seq_icall_post(0, True, self.lay, self.config), rid)

    def _plan_external_call(self, fn, off, before, after, add) -> None:
        config = self.config
        lay = self.lay
        if self._is_protected_site(fn.id, off):
            gid = self.analysis.site_gid[(self.name, fn.id, off)]
            pid = self.point(POINT_EXT_PROT, (fn.name, off), site_gid=gid)
            pre = seq_protected_call_pre(
                fn.body[off].op, gid, config.guard.call_marker, lay, config
            )
            add(before, off, pre, pid)
            add(after, off, seq_protected_call_post(config.guard.call_marker, lay, config), pid)
        else:
            pid = self.point(POINT_EXT_UNPROT, (fn.name, off), slot=hex(config.ctx_storage_slot))
            add(before, off, seq_unprotected_call_pre(config.ctx_storage_slot, lay, config), pid)
            add(
                after,
                off,
                seq_unprotected_call_post(config.ctx_storage_slot, config.slot_poison, lay),
                pid,
            )

    def _lay_out(self, fn, before, after, replace, stubs):
        """Lay out plan items into the new body; fix all jump targets.

        Original offsets become labels ``orig_label(off)``, so original jumps
        and stub exits resolve like any guard jump. Entries carry separate
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

        body: list[Instruction] = []
        owners: dict[int, int] = {}
        for pos, (item, gpid, bpid) in enumerate(entries):
            instr = resolve(item, labels)
            if gpid is not None and not (pos >= stubs_from and instr.op in _EXIT_OPS):
                owners[pos] = gpid
            if bpid is not None:
                self.points[bpid].code_bytes += instr.size(word_bytes)
            body.append(instr)
        return body, owners


def instrument_contract(
    name: str,
    analysis: BundleAnalysis,
    safe_sets: dict[int, set[int]],
    config: Config,
) -> InstrumentedContract:
    """Plan and rewrite one contract; spills oversized sets to the mapping."""
    prog = analysis.programs[name]
    safe_sets = {fn.id: set(safe_sets.get(fn.id, ())) for fn in prog.functions}
    spaces = {fn.id: analysis.index_space(name, fn.id) for fn in prog.functions}
    strategies, preseed = plan_strategies(safe_sets, spaces, config)
    while True:
        rewriter = _Rewriter(name, analysis, strategies, config)
        result = rewriter.rewrite()
        validate_program(result.program, config)
        result.instrumented_size = result.program.byte_size
        result.mapping_preseed = list(preseed)
        if result.instrumented_size <= MAX_CODE_BYTES:
            return result
        # spill: demote the largest embedded set to the dynamic mapping
        candidates = [
            (len(spec.entries) if isinstance(spec, ListSpec) else spec.n, fid)
            for fid, (strategy, spec) in strategies.items()
            if spec is not None
            and (isinstance(spec, MphtSpec) or spec.entries)
        ]
        if not candidates:
            raise SizeLimitExceeded(name, result.instrumented_size)
        _, fid = max(candidates)
        strategy, spec = strategies[fid]
        keys = spec.entries if isinstance(spec, ListSpec) else spec.slots
        preseed += [(fid, k) for k in sorted(keys)]
        strategies[fid] = (STRATEGY_LIST, build_list([]))
