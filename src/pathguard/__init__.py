"""Anomaly guard toolkit for a gas-metered contract VM.

Profiles context-tagged acyclic control-flow paths, stores safe path sets
compactly (embedded list, minimal perfect hash table, or dynamic mapping),
rewrites contract bytecode with the guard runtime, and drives the
train / protect / detect / review workflow.
"""

from .config import Config, ConfigError, GasSchedule, load_config
from .program import ContractProgram, ValidationError
from .asm import assemble, disassemble
from .vm import Receipt, Transaction, WorldState, deploy, execute_transaction

__all__ = [
    "Config",
    "ConfigError",
    "GasSchedule",
    "load_config",
    "ContractProgram",
    "ValidationError",
    "assemble",
    "disassemble",
    "Receipt",
    "Transaction",
    "WorldState",
    "deploy",
    "execute_transaction",
]
