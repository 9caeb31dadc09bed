"""specsim: a deterministic out-of-order core simulator over a toy RISC ISA,
modeling speculative-store attacks via a cache side channel and the forwarding
policies and program transforms that defend against them."""

from __future__ import annotations

from .config import SimConfig, RunReport, TraceEvent
from .isa import assemble, decode, disassemble, AsmError, Program
from .core import Core, run_program
from .reference import run_reference, arch_state
from .memory import MemorySystem
from .predictors import PredictorState
from .lsu import ForwardingPolicy, StoreBuffer, forward_decision

__all__ = [
    "SimConfig", "RunReport", "TraceEvent", "assemble", "decode", "disassemble",
    "AsmError", "Program", "Core", "run_program", "run_reference", "arch_state",
    "MemorySystem", "PredictorState", "ForwardingPolicy", "StoreBuffer",
    "forward_decision",
]
