"""Command-line interface for the train / protect / detect / review workflow.

Exit codes: 0 ok, 2 validation error, 3 size limit exceeded, 4 training
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .asm import assemble, disassemble
from .bundle import analyze_bundle
from .config import Config, ConfigError, load_config, read_json, read_text, read_word
from .epp import IndexSpaceOverflow
from .oracle import TraceMismatch
from .program import ContractProgram, SizeLimitExceeded, ValidationError
from .vm import Account, VmError, WorldState
from . import workflow
from .workflow import (
    Bundle,
    DeployedWorld,
    DetectionRun,
    GuardedBundle,
    TrainingTxFailed,
    WorkflowError,
    json_field,
    load_txs,
    overhead_report,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIZE = 3
EXIT_TRAINING = 4


class StaleGuardedProgram(WorkflowError):
    """A saved guarded program differs from the one this build emits."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        ValidationError, WorkflowError, ConfigError, IndexSpaceOverflow, TraceMismatch, VmError
    ) as exc:
        if isinstance(exc, TrainingTxFailed):
            print(f"training failure: {exc}", file=sys.stderr)
            return EXIT_TRAINING
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SizeLimitExceeded as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathguard",
        description="Path-profiling anomaly guard for the contract VM",
    )
    parser.add_argument(
        "--config", help="JSON config file; its keys: word_width, gas, lambda, admin"
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("asm", help="assemble a contract source file")
    p.add_argument("source")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_asm)

    p = sub.add_parser("disasm", help="disassemble a serialized contract")
    p.add_argument("program")
    p.set_defaults(handler=_cmd_disasm)

    p = sub.add_parser("analyze", help="dump graphs and labelings for a bundle")
    p.add_argument("bundle")
    p.add_argument("--dump-cfg", action="store_true")
    p.add_argument("--dump-callgraph", action="store_true")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("train", help="run the corpus and write the safe-set snapshot")
    p.add_argument("bundle")
    p.add_argument("txs")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("protect", help="instrument the bundle against a snapshot")
    p.add_argument("bundle")
    p.add_argument("snapshot")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_protect)

    p = sub.add_parser("run", help="execute a transaction stream with detection")
    p.add_argument("guarded")
    p.add_argument("txs")
    p.add_argument("--alarms", help="alarm log output (JSON lines)")
    p.add_argument("--report", help="overhead report output (JSON)")
    p.add_argument("--world", help="save the post-run world state here")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("approve", help="append a rejected tx's paths to the mapping")
    p.add_argument("guarded")
    p.add_argument("world", help="world state saved by `run`")
    p.add_argument("alarm_log")
    p.add_argument("--index", type=int, required=True, help="alarmed tx index")
    p.add_argument("--admin", required=True)
    p.set_defaults(handler=_cmd_approve)

    p = sub.add_parser(
        "simulate-false-alarms", help="cold-start alarm count with immediate approval"
    )
    p.add_argument("bundle")
    p.add_argument("txs")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("fixture", help="write a built-in scenario bundle and streams")
    p.add_argument("name")
    p.add_argument("-o", "--outdir", default=".")
    p.set_defaults(handler=_cmd_fixture)
    return parser


def _config(args) -> Config | None:
    return load_config(args.config) if args.config else None


def _cmd_asm(args) -> int:
    config = _config(args) or Config()
    prog = assemble(read_text(args.source, ValidationError), config)
    Path(args.output).write_text(json.dumps(prog.to_json(), indent=2))
    print(f"{prog.name}: {len(prog.functions)} functions, {prog.byte_size} bytes")
    return EXIT_OK


def _cmd_disasm(args) -> int:
    prog = ContractProgram.from_json(read_json(args.program, ValidationError))
    print(disassemble(prog), end="")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    bundle = Bundle.load(args.bundle, _config(args))
    analysis = analyze_bundle(bundle.programs, bundle.boundary, bundle.config)
    out: dict = {"fingerprint": analysis.fingerprint()}
    if args.dump_cfg or not args.dump_callgraph:
        out["cfgs"] = {
            f"{name}.{analysis.programs[name].functions[fid].name}": cfg.to_json()
            for (name, fid), cfg in sorted(analysis.cfgs.items())
        }
    if args.dump_callgraph or not args.dump_cfg:
        out["callgraph"] = analysis.callgraph.to_json()
        out["num_ccs"] = {
            f"{node[0]}.fn{node[1]}": n
            for node, n in sorted(analysis.ccp.num_ccs.items())
            if node[1] >= 0
        }
    out["num_paths"] = {
        f"{name}.{analysis.programs[name].functions[fid].name}": lab.total_paths
        for (name, fid), lab in sorted(analysis.epp.items())
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_train(args) -> int:
    bundle = Bundle.load(args.bundle, _config(args))
    snapshot = workflow.train(bundle, load_txs(args.txs))
    Path(args.output).write_text(json.dumps(snapshot, indent=2, sort_keys=True))
    total = sum(
        len(fn["safe"])
        for per_fn in snapshot["contracts"].values()
        for fn in per_fn.values()
    )
    print(f"trained: {total} safe paths, fingerprint {snapshot['fingerprint']}")
    return EXIT_OK


def _cmd_protect(args) -> int:
    bundle = Bundle.load(args.bundle, _config(args))
    snapshot = read_json(args.snapshot, WorkflowError)
    guarded = workflow.protect(bundle, snapshot)
    Path(args.output).write_text(json.dumps(guarded.to_json(), indent=2))
    for name, info in guarded.deployment_report().items():
        print(
            f"{name}: {info['original_size']} -> {info['instrumented_size']} bytes "
            f"({info['deploy_overhead_pct']}% deployment overhead)"
        )
        for fn, why in info["demoted"].items():
            print(f"  {name}.{fn}: safe paths moved to the dynamic mapping ({why})")
    return EXIT_OK


def _load_guarded(path: str, config: Config | None) -> GuardedBundle:
    """Protect the saved originals again; each program must equal the saved
    one. A field that is missing or of the wrong type raises WorkflowError
    naming the file and the field."""
    raw = read_json(path, WorkflowError)
    where = f"{path}: guarded"
    bundle = Bundle.from_json(
        {
            "contracts": [
                {"program": p} for p in json_field(raw, "originals", dict, where).values()
            ],
            "boundary": json_field(raw, "boundary", list, where),
            "deploy": json_field(raw, "deploy", list, where),
            "accounts": json_field(raw, "accounts", list, where, []),
            "setup": json_field(raw, "setup", list, where, []),
            "config": json_field(raw, "config", dict, where, {}),
        },
        config,
        where,
    )
    guarded = workflow.protect(bundle, json_field(raw, "snapshot", dict, where))
    saved = json_field(raw, "contracts", dict, where)
    for name, inst in guarded.instrumented.items():
        entry = json_field(saved, name, dict, f"{where} contracts")
        program = json_field(entry, "program", dict, f"{where} contracts[{name!r}]")
        if program != inst.program.to_json():
            raise StaleGuardedProgram(
                f"{path}: the saved program of {name} differs from the one this "
                "build emits; protect the bundle again"
            )
    return guarded


def _cmd_run(args) -> int:
    guarded = _load_guarded(args.guarded, _config(args))
    run = workflow.run_detection(guarded, load_txs(args.txs))
    statuses = [o.status for o in run.outcomes]
    print(
        f"executed {len(statuses)} txs: "
        + ", ".join(f"{s}={statuses.count(s)}" for s in sorted(set(statuses)))
    )
    print(f"alarms: {len(run.alarm_log)} on {len({a.tx_index for a in run.alarm_log})} txs")
    failed = len(run.recon_failures)
    mirrored = sum(o.gas_orig is not None for o in run.outcomes)
    print(f"reconciled {mirrored - failed} txs, {failed} gas reconciliation failures")
    if args.alarms:
        lines = [json.dumps(a.to_json()) for a in run.alarm_log]
        Path(args.alarms).write_text("\n".join(lines) + ("\n" if lines else ""))
    if args.report:
        Path(args.report).write_text(json.dumps(overhead_report(run), indent=2))
    if args.world:
        Path(args.world).write_text(json.dumps(_dump_world(run.deployed), indent=2))
    return EXIT_OK


def _cmd_approve(args) -> int:
    guarded = _load_guarded(args.guarded, _config(args))
    mask = guarded.bundle.config.mask
    deployed = _restore_world(read_json(args.world, WorkflowError), guarded, args.world)
    run = DetectionRun(guarded, deployed, None)
    for raw in read_json(args.alarm_log, WorkflowError, lines=True):
        run.alarm_log.append(workflow.AlarmRecord.from_json(raw, mask))
    admin = read_word(args.admin, "--admin", WorkflowError, mask)
    result = workflow.review_and_approve(run, args.index, admin)
    print(f"approved {result['approved']} paths ({result.get('gas', 0)} gas)")
    Path(args.world).write_text(json.dumps(_dump_world(run.deployed), indent=2))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    bundle = Bundle.load(args.bundle, _config(args))
    result = workflow.false_alarm_simulation(bundle, load_txs(args.txs))
    print(f"false alarms: {result['alarms']}")
    return EXIT_OK


def _cmd_fixture(args) -> int:
    import random

    from . import fixtures

    scenario = fixtures.by_name(args.name)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{scenario.name}.bundle.json").write_text(
        json.dumps(scenario.bundle_json, indent=2)
    )
    (outdir / f"{scenario.name}.train.jsonl").write_text(
        "\n".join(json.dumps(r) for r in scenario.training) + "\n"
    )
    records, alarm_index = scenario.test_sequence(random.Random(1))
    (outdir / f"{scenario.name}.detect.jsonl").write_text(
        "\n".join(json.dumps(r) for r in records) + "\n"
    )
    if scenario.detected:
        expect = f"attack expected at tx {alarm_index}"
    else:
        expect = f"attack at tx {alarm_index} is no control-flow anomaly; no alarm expected"
    print(f"wrote {scenario.name} bundle + streams; {expect}")
    return EXIT_OK


def _dump_world(deployed) -> dict:
    world = deployed.world
    return {
        "next_address": world.next_address,
        "addresses": {name: hex(a) for name, a in deployed.addresses.items()},
        "accounts": {
            hex(addr): {
                "balance": acct.balance,
                "storage": {hex(k): hex(v) for k, v in sorted(acct.storage.items())},
                "code": acct.code.name if acct.code else None,
            }
            for addr, acct in sorted(world.accounts.items())
        },
    }


def _restore_world(raw: dict, guarded: GuardedBundle, path: str) -> DeployedWorld:
    """The guarded world ``_dump_world`` saved to ``path``, with the guarded
    programs. Every address, balance and storage word must be a word of the
    bundle's width, and every field of the right type (WorkflowError naming
    the file and the field otherwise)."""
    config = guarded.bundle.config
    top = f"{path}: world"

    def word(value, where: str) -> int:
        return read_word(value, f"{top} {where}", WorkflowError, config.mask)

    world = WorldState(config)
    programs = guarded.programs()
    world.next_address = word(json_field(raw, "next_address", object, top), "next_address")
    for addr_hex, entry in json_field(raw, "accounts", dict, top).items():
        where = f"account {addr_hex}"
        at = f"{top} {where}"
        code = json_field(entry, "code", str, at, None)
        if code is not None and code not in programs:
            raise WorkflowError(f"{at}: field 'code' names no contract: {code!r}")
        world.accounts[word(addr_hex, "account address")] = Account(
            balance=word(json_field(entry, "balance", object, at), f"{where} balance"),
            storage={
                word(k, f"{where} storage key"): word(v, f"{where} storage[{k}]")
                for k, v in json_field(entry, "storage", dict, at).items()
            },
            code=programs[code] if code else None,
        )
    names = json_field(raw, "addresses", dict, top)
    addresses = {n: word(a, f"address of {n}") for n, a in names.items()}
    return DeployedWorld(world, addresses, {a: n for n, a in addresses.items()})


if __name__ == "__main__":
    sys.exit(main())
