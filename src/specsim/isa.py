"""Toy RISC ISA: 32 x 64-bit registers, flat addressing, a textual assembler,
and decode into micro-ops.

The dialect, its mnemonics and their operands are README's "ISA reference
(normative)", which `tests/test_docs.py` holds to `_SIGNATURES`.

The tables below are the semantics `decode` and the in-order reference
share: `CONDITIONS` (condition code -> predicate on the flag register, from
which the j<cc> and csel.<cc> mnemonics derive) and `ALU_OPS` (mnemonic ->
fn(a, b)). `decode` binds a micro-op's function or condition once, so no
pipeline stage compares a mnemonic or a condition code.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

MASK64 = (1 << 64) - 1

# internal register file indices beyond the 32 architectural registers
REG_FLAGS = 32   # written by cmp/cmpi, read by conditional branches and csel
REG_RETTMP = 33  # return-target temporary written by ret's load micro-op
NUM_REGS = 34

SP = 31

FL_BELOW = 1
FL_EQUAL = 2

# condition code -> predicate on the flag register; the j<cc> branches and
# the csel.<cc> selects take their conditions from this table
CONDITIONS = {
    "b": lambda fl: bool(fl & FL_BELOW),
    "be": lambda fl: fl != 0,
    "ae": lambda fl: not fl & FL_BELOW,
    "a": lambda fl: fl == 0,
    "e": lambda fl: bool(fl & FL_EQUAL),
    "ne": lambda fl: not fl & FL_EQUAL,
}
BRANCHES = {f"j{cc}": holds for cc, holds in CONDITIONS.items()}
SELECTS = {f"csel.{cc}": holds for cc, holds in CONDITIONS.items()}


def flags_for(a: int, b: int) -> int:
    fl = 0
    if a < b:
        fl |= FL_BELOW
    if a == b:
        fl |= FL_EQUAL
    return fl


# register-form ALU mnemonic -> fn(a, b), 64-bit unsigned and wrapping; each
# has an immediate form <op>i, and the shifts have only that form
_ALU_RR = {
    "add": lambda a, b: (a + b) & MASK64,
    "sub": lambda a, b: (a - b) & MASK64,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}
ALU_OPS = {**_ALU_RR, **{m + "i": fn for m, fn in _ALU_RR.items()},
           "shli": lambda a, b: (a << (b & 63)) & MASK64,
           "shri": lambda a, b: a >> (b & 63)}

LOAD_SIZES = {f"ld.{n}": n for n in (1, 2, 4, 8)}
STORE_SIZES = {f"st.{n}": n for n in (1, 2, 4, 8)}


class UopKind(Enum):
    ALU = "alu"
    CMP = "cmp"
    BR_COND = "br_cond"
    JR_INDIRECT = "jr_indirect"
    LDA = "lda"            # load address+data
    STA = "sta"            # store address
    STD = "std"            # store data
    FENCE = "fence"
    CSEL = "csel"
    CALL = "call"
    HALT = "halt"


def _move(a: int, b: int) -> int:
    return a


def _slot_init(cls):
    """Give frozen, slotted `cls` an `__init__` generated from `fields(cls)`,
    with each field's declared default, that stores each argument through
    its slot's `__set__`: the frozen dataclass's own stores through
    `object.__setattr__`, which looks the name up on the class every time."""
    fs = fields(cls)
    scope = {f"set_{f.name}": cls.__dict__[f.name].__set__ for f in fs}
    scope.update((f"default_{f.name}", f.default) for f in fs if f.default is not MISSING)
    params = ", ".join(f.name if f.default is MISSING else f"{f.name}=default_{f.name}"
                       for f in fs)
    body = "".join(f"    set_{f.name}(self, {f.name})\n" for f in fs)
    exec(f"def __init__(self, {params}):\n{body}", scope)
    cls.__init__ = scope["__init__"]
    return cls


@dataclass(frozen=True, slots=True)
class Reg:
    n: int

    def __str__(self):
        return "sp" if self.n == SP else f"r{self.n}"


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Imm:
    value: int

    def __str__(self):
        return hex(self.value) if abs(self.value) >= 16 else str(self.value)


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Mem:
    base: int
    offset: int

    def __str__(self):
        reg = "sp" if self.base == SP else f"r{self.base}"
        if self.offset == 0:
            return f"[{reg}]"
        sign = "+" if self.offset >= 0 else "-"
        return f"[{reg}{sign}{abs(self.offset)}]"


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Instruction:
    pc: int
    mnemonic: str
    operands: Tuple = ()
    forwardable: bool = False       # marked '!'


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class MicroOp:
    kind: UopKind
    parent_pc: int
    dst: Optional[int] = None
    dst2: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    imm: int = 0
    size: int = 8
    # ALU and CMP: result = fn(a, b); BR_COND and CSEL: the condition,
    # fn(flags) -> bool, None for the unconditional jmp
    fn: Optional[Callable] = None
    is_return: bool = False
    forwardable: bool = False
    last: bool = True        # last micro-op of its parent instruction


@dataclass
class DataSegment:
    addr: int
    perm: str                # "rw" or "ro"
    data: bytes


@dataclass
class Program:
    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    data: List[DataSegment] = field(default_factory=list)
    # instruction index -> positions of its operands written as a label name,
    # which `disassemble` prints as a label again; not compared or printed
    label_operands: Dict[int, Tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False)
    # per instruction, the tuple `decode` returns, filled by the first Core to
    # run it; not compared, printed or kept by `replace`
    decoded: Optional[Tuple[Tuple[MicroOp, ...], ...]] = field(
        default=None, init=False, compare=False, repr=False)
    # (key, policy variant -> the filed core.Core that runs on as its run): the
    # pending forks of a run shared across forwarding policies (see
    # core.run_program); one key at a time, each removed once taken up; not
    # compared, printed or kept
    snapshots: Optional[tuple] = field(default=None, init=False, compare=False,
                                       repr=False)

    def instr_at(self, pc: int) -> Optional[Instruction]:
        idx = pc >> 2
        if pc & 3 or idx < 0 or idx >= len(self.instructions):
            return None
        return self.instructions[idx]


class AsmError(Exception):
    """Assembly failure with source location."""

    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


# mnemonic -> operand signature; r=register, i=immediate-or-label, m=memory,
# l=code target, written as a label name only
_SIGNATURES = {
    "movi": "ri", "mov": "rr", "cmp": "rr", "cmpi": "ri",
    **{m: "rri" if m.endswith("i") else "rrr" for m in ALU_OPS},
    **dict.fromkeys(BRANCHES, "l"), "jmp": "l", "call": "l",
    **dict.fromkeys(SELECTS, "rrr"),
    **dict.fromkeys(LOAD_SIZES, "rm"), **dict.fromkeys(STORE_SIZES, "rm"),
    "jr": "r", "ret": "", "fence": "", "halt": "", "nop": "",
}


def _roles(mnem: str, kind: UopKind, fn: Callable) -> Tuple:
    """(kind, fn, writes operand 0, else its dst, source count, has an immediate)"""
    sig = _SIGNATURES[mnem]
    writes = kind is UopKind.ALU and sig != ""      # a CMP writes the flags
    fixed = REG_FLAGS if kind is UopKind.CMP else None
    return kind, fn, writes, fixed, sig.count("r") - writes, sig[-1:] == "i"


# mnemonic -> roles of the one ALU or CMP micro-op that computes fn(a, b): b
# is the immediate unless a second source register gives it, and an op
# without a source register (movi, nop) takes the immediate as a too
_COMPUTED = {m: _roles(m, kind, fn) for m, (kind, fn) in {
    **{m: (UopKind.ALU, fn) for m, fn in ALU_OPS.items()},
    "mov": (UopKind.ALU, _move), "movi": (UopKind.ALU, _move),
    "nop": (UopKind.ALU, _move),
    "cmp": (UopKind.CMP, flags_for), "cmpi": (UopKind.CMP, flags_for)}.items()}


# mnemonic -> itself as the `_SIGNATURES` key, the one string every
# instruction with that mnemonic holds
_MNEMONICS = {m: m for m in _SIGNATURES}

# register name -> operand; every operand naming a register shares one object
_REGS = {f"r{n}": Reg(n) for n in range(32)}
_REGS["sp"] = _REGS[f"r{SP}"]

# value -> its one object, for the values every program would otherwise hold
# a copy of: pcs, label operand positions and micro-op source tuples, and,
# filed under the register names that spell them, register-only operand
# tuples. The longest program bounds the pcs, and the register file the
# tuples.
_SHARED: Dict[object, object] = {}
_MEM_RE = re.compile(r"^\[\s*(r[0-9]+|sp)\s*(?:([+-])\s*([^\]\s]+)\s*)?\]$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_LABEL_SUGAR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$")


def _registers(names: Tuple[str, ...]) -> Tuple[Reg, ...]:
    """The one shared operand tuple of these register names."""
    ops = _SHARED.get(names)
    if ops is None:
        ops = _SHARED[tuple(map(sys.intern, names))] = tuple(map(_REGS.__getitem__, names))
    return ops


# signature -> (a matcher of its operand text, fn(the match's groups) -> its
# operands), for each signature without a label or code target. The pattern,
# compiled from the signature, takes a subset of what the token scan below
# takes: r0-r31 and sp, ints in ASCII decimal or hex, blanks that are spaces
# or tabs, no empty operand, and a comment after the last operand.
_UINT = r"0[xX][0-9a-fA-F]+|[1-9][0-9]*|0+"
_REG = r"(r[12]?[0-9]|r3[01]|sp)"
_PIECES = {"r": _REG, "i": rf"([+-]?(?:{_UINT}))",
           "m": rf"\[[ \t]*{_REG}(?:[ \t]*([+-])[ \t]*({_UINT}))?[ \t]*\]"}
_OPERAND_PATTERNS = {
    sig: (re.compile(r"[ \t]*,[ \t]*".join(map(_PIECES.get, sig))
                     + r"[ \t]*(?:;.*)?").fullmatch, build)
    for sig, build in {
        "": _registers, "r": _registers, "rr": _registers, "rrr": _registers,
        "ri": lambda g: (_REGS[g[0]], Imm(int(g[1], 0))),
        "rri": lambda g: (_REGS[g[0]], _REGS[g[1]], Imm(int(g[2], 0))),
        "rm": lambda g: (_REGS[g[0]], Mem(_REGS[g[1]].n, -int(g[3], 0) if g[2] == "-"
                                          else int(g[3] or "0", 0))),
    }.items()}

# a line's first word, as written -> (its mnemonic, marked '!', the operand
# pattern of its signature or None). A line is plain when this names its
# first word and that pattern takes the rest of it whole; any other line (a
# label, a directive, a label or code target, other spellings) takes the full
# reading and the token scan, the only source of error text.
_PLAIN = {m + mark: (m, mark == "!", _OPERAND_PATTERNS.get(sig))
          for m, sig in _SIGNATURES.items()
          for mark in ("", "!") if not mark or m in LOAD_SIZES or m in STORE_SIZES}


def _parse_reg(tok: str, lineno: int, col: int) -> Reg:
    reg = _REGS.get(tok)
    if reg is None:
        raise AsmError(f"expected register, got {tok!r}", lineno, col)
    return reg


def _parse_int(tok: str, lineno: int, col: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(f"expected integer, got {tok!r}", lineno, col) from None


def _split_operands(text: str) -> List[Tuple[str, int]]:
    """Split on commas outside brackets; returns (token, column) pairs. A
    comma splits when as many '[' as ']' precede it."""
    out = []
    depth = start = end = 0
    for piece in text.split(","):
        end += len(piece)
        if "[" in piece or "]" in piece:
            depth += piece.count("[") - piece.count("]")
        if depth == 0:
            tok = text[start:end].strip()
            if tok:
                out.append((tok, start))
            start = end + 1
        end += 1
    if start < end:             # text ends inside brackets, so it holds one
        out.append((text[start:].strip(), start))
    return out


def _scan_operands(mnem: str, rest: str, rcol: int, lineno: int, col: int,
                   labels: Dict[str, int]) -> Tuple[tuple, Tuple[int, ...]]:
    """The token scan: `rest`, the operand text of `mnem` at column `rcol` of
    line `lineno`, as (operands, positions of those written as labels), or
    the AsmError of its first bad token."""
    sig = _SIGNATURES[mnem]
    toks = _split_operands(rest)
    if len(toks) != len(sig):
        raise AsmError(f"{mnem} expects {len(sig)} operand(s), got {len(toks)}",
                       lineno, col)
    ops, named = [], []
    for code, (tok, tcol) in zip(sig, toks):
        tcol = rcol + rest.find(tok, tcol)   # its piece may start blank
        if code == "r":
            ops.append(_parse_reg(tok, lineno, tcol))
        elif code == "m":
            m = _MEM_RE.match(tok)
            if not m:
                raise AsmError(f"expected [reg], [reg+off] or [reg-off], got "
                               f"{tok!r}", lineno, tcol)
            base, sign, off = m.groups()
            base = _parse_reg(base, lineno, tcol).n
            off = 0 if off is None else _parse_int(off, lineno, tcol)
            ops.append(Mem(base, -off if sign == "-" else off))
        # immediate or label; only a token starting like a name can be one
        elif (tok[0].isalpha() or tok[0] == "_") and _IDENT_RE.match(tok):
            if tok not in labels:
                raise AsmError(f"undefined label {tok!r}", lineno, tcol)
            named.append(len(ops))
            ops.append(Imm(labels[tok]))
        elif code == "l":
            raise AsmError(f"expected label, got {tok!r}", lineno, tcol)
        else:
            ops.append(Imm(_parse_int(tok, lineno, tcol)))
    if not sig.strip("r"):      # registers only
        return _registers(tuple(tok for tok, _ in toks)), ()
    return tuple(ops), tuple(named)


def assemble(source: str) -> Program:
    """Assemble toy-dialect text into a Program. Deterministic; raises AsmError."""
    labels: Dict[str, int] = {}
    # per instruction, itself, or None until the second pass scans its operands
    instructions: List[Optional[Instruction]] = []
    # (its index, lineno, mnemonic's column, mnemonic, forwardable, operand
    # text, its column) of each instruction whose operands no pattern took
    deferred: List[Tuple] = []
    segments: List[DataSegment] = []
    share = _SHARED.setdefault
    parsed: Dict[Tuple, tuple] = {}     # a plain line's match groups -> its operands
    pc = 0

    def define_label(name: str, lineno: int, col: int):
        if not _IDENT_RE.match(name):
            raise AsmError(f"bad label name {name!r}", lineno, col)
        if name in labels:
            raise AsmError(f"duplicate label {name!r}", lineno, col)
        labels[name] = pc

    for lineno, raw in enumerate(source.splitlines(), 1):
        parts = raw.split(None, 1)
        plain = parts and _PLAIN.get(parts[0])
        if plain:
            mnem, forwardable, pattern = plain
            m = pattern and pattern[0](parts[1] if len(parts) > 1 else "")
            if m:
                g = m.groups()
                ops = parsed.get(g)
                if ops is None:
                    ops = parsed[g] = pattern[1](g)
                instructions.append(Instruction(share(pc, pc), mnem, ops, forwardable))
                pc += 4
                continue

        line = raw.split(";", 1)[0].rstrip()
        text = line.strip()
        if not text:
            continue
        col = len(line) - len(text)

        if text.startswith("."):
            parts = text.split()
            if parts[0] == ".label":
                if len(parts) != 2:
                    raise AsmError(".label takes one name", lineno, col)
                define_label(parts[1], lineno, col)
            elif parts[0] == ".data":
                if len(parts) < 3:
                    raise AsmError(".data needs ADDR PERM [BYTES...]", lineno, col)
                addr = _parse_int(parts[1], lineno, col)
                if addr % 8:
                    raise AsmError(f".data address {parts[1]} not 8-byte aligned",
                                   lineno, col)
                perm = parts[2]
                if perm not in ("rw", "ro"):
                    raise AsmError(f"permission must be rw or ro, got {perm!r}",
                                   lineno, col)
                try:
                    data = bytes(int(b, 16) for b in parts[3:])
                except ValueError:
                    raise AsmError("data bytes must be hex octets", lineno, col) from None
                segments.append(DataSegment(addr, perm, data))
            else:
                raise AsmError(f"unknown directive {parts[0]!r}", lineno, col)
            continue

        # label sugar: "name:" optionally followed by an instruction
        m = _LABEL_SUGAR_RE.match(text) if ":" in text else None
        if m:
            define_label(m.group(1), lineno, col)
            text = m.group(2)
            if not text:
                continue
            col += m.start(2)

        parts = text.split(None, 1)
        mnem = parts[0]
        forwardable = mnem.endswith("!")
        if forwardable:
            base = mnem[:-1]
            if not (base.startswith("ld.") or base.startswith("st.")):
                raise AsmError("'!' mark is only valid on loads and stores",
                               lineno, col)
            mnem = base
        if mnem not in _MNEMONICS:
            raise AsmError(f"unknown mnemonic {mnem!r}", lineno, col)
        mnem = _MNEMONICS[mnem]
        rest = parts[1] if len(parts) > 1 else ""
        deferred.append((len(instructions), lineno, col, mnem, forwardable, rest,
                         col + len(text) - len(rest)))
        instructions.append(None)
        pc += 4

    # second pass: the token scan, with labels now known; an error is raised
    # at the first line that has one
    label_operands: Dict[int, Tuple[int, ...]] = {}
    for idx, lineno, col, mnem, forwardable, rest, rcol in deferred:
        ops, named = _scan_operands(mnem, rest, rcol, lineno, col, labels)
        if named:
            label_operands[idx] = share(named, named)
        at = idx * 4
        instructions[idx] = Instruction(share(at, at), mnem, ops, forwardable)

    # a label after the last instruction points one past it; a jump there runs
    # fetch off the map, where the reference faults and the core stalls
    segs = sorted(segments, key=lambda s: s.addr)
    for a, b in zip(segs, segs[1:]):
        if a.addr + max(len(a.data), 1) > b.addr:
            raise AsmError(f"data segments at {hex(a.addr)} and {hex(b.addr)} overlap", 0)
    return Program(instructions, labels, segments, label_operands)


def _srcs(*regs: int) -> Tuple[int, ...]:
    """The one shared tuple of these source registers."""
    return _SHARED.setdefault(regs, regs)


def decode(instr: Instruction) -> Tuple[MicroOp, ...]:
    """Decode one instruction into a tuple of 1-2 micro-ops, binding its ALU
    function or condition from the tables above. Pure and total over the
    mnemonics `assemble` takes, those of `_SIGNATURES`; equal source tuples
    are one shared object."""
    pc = instr.pc
    mnem = instr.mnemonic
    ops = instr.operands

    roles = _COMPUTED.get(mnem)
    if roles is not None:
        kind, fn, writes, dst, nsrcs, has_imm = roles     # sources follow a dst
        srcs = (_srcs(ops[writes].n, ops[writes + 1].n) if nsrcs == 2
                else _srcs(ops[writes].n) if nsrcs else ())
        imm = ops[-1].value if has_imm else 0
        if not 0 <= imm <= MASK64:      # else the operand's own int
            imm &= MASK64
        return (MicroOp(kind, pc, ops[0].n if writes else dst, None, srcs, imm, 8, fn),)
    if mnem in BRANCHES:
        return (MicroOp(UopKind.BR_COND, pc, None, None, _srcs(REG_FLAGS), ops[0].value,
                        8, BRANCHES[mnem]),)
    if mnem == "jmp":
        return (MicroOp(UopKind.BR_COND, pc, None, None, (), ops[0].value),)
    if mnem in SELECTS:
        return (MicroOp(UopKind.CSEL, pc, ops[0].n, None,
                        _srcs(ops[1].n, ops[2].n, REG_FLAGS), 0, 8, SELECTS[mnem]),)
    if mnem in LOAD_SIZES:
        return (MicroOp(UopKind.LDA, pc, ops[0].n, None, _srcs(ops[1].base),
                        ops[1].offset, LOAD_SIZES[mnem], None, False, instr.forwardable),)
    if mnem in STORE_SIZES:
        size, mem, fwd = STORE_SIZES[mnem], ops[1], instr.forwardable
        return (MicroOp(UopKind.STA, pc, None, None, _srcs(mem.base), mem.offset, size,
                        None, False, fwd, False),
                MicroOp(UopKind.STD, pc, None, None, _srcs(ops[0].n), 0, size, None,
                        False, fwd))
    if mnem == "call":
        # one micro-op: sp -= 8, store return address at new sp, jump
        return (MicroOp(UopKind.CALL, pc, SP, None, _srcs(SP), ops[0].value, 8),)
    if mnem == "ret":
        return (MicroOp(UopKind.LDA, pc, REG_RETTMP, SP, _srcs(SP), 0, 8, None, False,
                        False, False),
                MicroOp(UopKind.JR_INDIRECT, pc, None, None, _srcs(REG_RETTMP), 0, 8,
                        None, True))
    if mnem == "jr":
        return (MicroOp(UopKind.JR_INDIRECT, pc, None, None, _srcs(ops[0].n)),)
    if mnem == "fence":
        return (MicroOp(UopKind.FENCE, pc),)
    return (MicroOp(UopKind.HALT, pc),)     # halt, the one mnemonic left


def disassemble(program: Program) -> str:
    """Pretty-print a Program; assemble(disassemble(p)) == p."""
    by_pc: Dict[int, List[str]] = {}
    for name, addr in program.labels.items():
        by_pc.setdefault(addr, []).append(name)
    lines = []
    for seg in program.data:
        body = " ".join(f"{b:02x}" for b in seg.data)
        lines.append(f".data {hex(seg.addr)} {seg.perm} {body}".rstrip())
    for idx, instr in enumerate(program.instructions):
        for name in by_pc.get(instr.pc, []):
            lines.append(f"{name}:")
        mnem = instr.mnemonic + ("!" if instr.forwardable else "")
        if instr.operands:
            # an operand written as a label prints as a label at its value, so
            # it moves with that label when the text is edited and reassembled
            named = program.label_operands.get(idx, ())
            rendered = [by_pc[op.value][0] if i in named else str(op)
                        for i, op in enumerate(instr.operands)]
            lines.append(f"    {mnem} " + ", ".join(rendered))
        else:
            lines.append(f"    {mnem}")
    end = len(program.instructions) * 4
    for name in by_pc.get(end, []):
        lines.append(f"{name}:")
    return "\n".join(lines) + "\n"
