"""In-order reference interpreter: the architectural oracle.

Executes a Program sequentially with no speculation and no timing. For any
fault-free program the out-of-order core's committed state (registers plus
memory) must match this interpreter exactly, under every forwarding policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .config import SimConfig
from .isa import (ALU_OPS, BRANCHES, LOAD_SIZES, MASK64, NUM_REGS, REG_FLAGS,
                  SELECTS, SP, STORE_SIZES, Program, Reg, flags_for)
from .memory import MemorySystem


@dataclass
class RefResult:
    regs: list
    mem: MemorySystem
    fault: Optional[str] = None


def run_reference(program: Program, cfg: SimConfig,
                  mem: Optional[MemorySystem] = None,
                  regs: Optional[Dict[int, int]] = None,
                  max_steps: int = 1_000_000) -> RefResult:
    if mem is None:
        mem = MemorySystem(cfg)
        mem.load_program_data(program)
    r = [0] * NUM_REGS
    if regs:
        for k, v in regs.items():
            r[k] = v & MASK64
    pc = 0

    def value(op) -> int:
        """A register operand's value, or an immediate's as 64 bits."""
        return r[op.n] if isinstance(op, Reg) else op.value & MASK64

    for _ in range(max_steps):
        instr = program.instr_at(pc)
        if instr is None:
            return RefResult(r, mem, f"fetch off map at {pc:#x}")
        m = instr.mnemonic
        ops = instr.operands
        next_pc = pc + 4

        if m in ALU_OPS:
            r[ops[0].n] = ALU_OPS[m](r[ops[1].n], value(ops[2]))
        elif m in ("mov", "movi"):
            r[ops[0].n] = value(ops[1])
        elif m in ("cmp", "cmpi"):
            r[REG_FLAGS] = flags_for(r[ops[0].n], value(ops[1]))
        elif m in BRANCHES:
            if BRANCHES[m](r[REG_FLAGS]):
                next_pc = ops[0].value
        elif m == "jmp":
            next_pc = ops[0].value
        elif m in SELECTS:
            r[ops[0].n] = r[ops[1].n] if SELECTS[m](r[REG_FLAGS]) else r[ops[2].n]
        elif m in LOAD_SIZES:
            addr = (r[ops[1].base] + ops[1].offset) & MASK64
            if not mem.permits(addr, write=False):
                return RefResult(r, mem, f"unmapped_load pc={pc:#x} addr={addr:#x}")
            r[ops[0].n] = mem.read_int(addr, LOAD_SIZES[m])
        elif m in STORE_SIZES:
            addr = (r[ops[1].base] + ops[1].offset) & MASK64
            if not mem.permits(addr, write=True):
                return RefResult(r, mem, f"write_fault pc={pc:#x} addr={addr:#x}")
            mem.write_int(addr, STORE_SIZES[m], r[ops[0].n])
        elif m == "call":
            sp_val = (r[SP] - 8) & MASK64
            if not mem.permits(sp_val, write=True):
                return RefResult(r, mem, f"write_fault pc={pc:#x} addr={sp_val:#x}")
            mem.write_int(sp_val, 8, pc + 4)
            r[SP] = sp_val
            next_pc = ops[0].value
        elif m == "ret":
            addr = r[SP]
            if not mem.permits(addr, write=False):
                return RefResult(r, mem, f"unmapped_load pc={pc:#x} addr={addr:#x}")
            next_pc = mem.read_int(addr, 8)
            r[SP] = (addr + 8) & MASK64
        elif m == "jr":
            next_pc = r[ops[0].n]
        elif m in ("fence", "nop"):
            pass
        elif m == "halt":
            return RefResult(r, mem, None)
        else:
            raise ValueError(f"reference cannot execute {m!r}")
        pc = next_pc

    return RefResult(r, mem, "step limit exceeded")


def arch_state(regs, mem: MemorySystem):
    """Canonical (registers, memory) pair for equality assertions."""
    return list(regs[:32]), mem.committed_pages()
