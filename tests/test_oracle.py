"""Out-of-order vs in-order equivalence on randomized programs.

The in-order interpreter is the architectural oracle: identical registers and
committed memory are required for every forwarding policy and for assorted
machine geometries. The acceptance suite runs the full-width version of this
property; here a smaller sweep keeps the regular run fast.
"""

import random

import pytest

from specsim import SimConfig, assemble, run_program, run_reference, arch_state
from specsim.config import FORWARDING_POLICIES
from specsim.isa import _SIGNATURES
from specsim.predictors import PredictorState
from alone import run_alone
from randprog import random_program, STACK_TOP

GEOMETRIES = [
    SimConfig(dram_latency_cycles=20, l1_latency_cycles=2, rob_capacity=64),
    SimConfig(dram_latency_cycles=12, l1_latency_cycles=1, rob_capacity=16,
              issue_width=2, retire_width=1, sb_capacity=4, mshr_count=2),
    SimConfig(dram_latency_cycles=40, l1_latency_cycles=3,
              tlb_enforcement="eager"),
    SimConfig(dram_latency_cycles=25, l1_latency_cycles=2,
              tlb_enforcement="forward_zero", sb_capacity=8),
]


@pytest.mark.parametrize("block", range(8))
def test_random_programs_match_reference(block):
    for i in range(15):
        seed = 5000 + block * 15 + i
        rng = random.Random(seed)
        program = assemble(random_program(rng, 150))
        regs = {31: STACK_TOP}
        cfg0 = GEOMETRIES[seed % len(GEOMETRIES)]
        ref = run_reference(program, cfg0, regs=regs)
        assert ref.fault is None, (seed, ref.fault)
        want = arch_state(ref.regs, ref.mem)
        for policy in FORWARDING_POLICIES:
            cfg = cfg0.replace(forwarding_policy=policy)
            r = run_program(program, cfg, regs=regs)
            assert r.fault is None and not r.timed_out, (seed, policy, r.fault)
            got = arch_state(r.core.arch_regs, r.core.mem)
            assert got == want, (seed, policy)


def test_window_bound_no_far_uop_ever_executes():
    # no micro-op more than rob_capacity younger than the oldest unretired
    # one ever begins execution
    cfg = SimConfig(dram_latency_cycles=60, l1_latency_cycles=2,
                    rob_capacity=24)
    body = "\n".join("    addi r2, r2, 1" for _ in range(60))
    src = f"""
main:
    movi r1, 0x10000
    ld.8 r3, [r1]
{body}
    halt
.data 0x10000 rw 00
"""
    trace = []
    r = run_program(assemble(src), cfg, trace=trace)
    assert r.fault is None
    oldest_unretired = 0
    issued_at = {}
    for e in trace:
        if e.kind == "issue":
            issued_at[e.seq] = oldest_unretired
            assert e.seq - oldest_unretired < cfg.rob_capacity
        elif e.kind == "retire":
            oldest_unretired = e.seq + 1


# -- every mnemonic against the reference ----------------------------------------

MASK64 = (1 << 64) - 1
# operand pairs below, equal and above, at small values and at the 64-bit edges
PAIRS = [(1, 2), (2, 2), (3, 2), (0, MASK64), (MASK64, 1), (1 << 63, 1 << 63)]
# shift amounts of 64 and more, and immediates that wrap to 64 bits
IMMEDIATES = [0, 1, 63, 64, 65, 127, -1, -2048, 1 << 64, (1 << 64) + 3]
CONDITION_CODES = ("b", "be", "ae", "a", "e", "ne")
# after each case, every condition on the flag register as 1 or 0 in r20-r25
FLAG_PROBE = "".join(f"    csel.{cc} r{20 + i}, r30, r29\n"
                     for i, cc in enumerate(CONDITION_CODES))
SKIP = "    movi r3, 1\nskip:\n    movi r4, 2\n"
SUBROUTINE = "fn:\n    addi r3, r1, 5\n    ret\n"
DATA = (".data 0x60000 rw 88 77 66 55 44 33 22 11 ff ee dd cc bb aa 99 80\n"
        f".data {hex(STACK_TOP - 0x1000)} rw 00\n")
BASE_REGS = {4: 0x1111, 5: 0x2222, 28: 0x60000, 29: 0, 30: 1, 31: STACK_TOP}


def mnemonic_cases(mnem):
    """(body, registers) pairs that run `mnem` on operands below, equal to and
    above each other, and on immediates that wrap or shift by 64 or more."""
    sig = _SIGNATURES[mnem]
    pairs = [{1: a, 2: b} for a, b in PAIRS]
    if mnem.startswith("csel."):
        return [(f"    cmp r1, r2\n    {mnem} r3, r4, r5\n", r) for r in pairs]
    if mnem.startswith("ld.") or mnem.startswith("st."):
        size = mnem[3:]
        cases = [(f"    {mnem} r1, [r28+{off}]\n    ld.8 r3, [r28+{off}]\n"
                  f"    ld.{size} r6, [r28+8]\n", {1: a})
                 for off in (0, 1, 8) for a in (0x0123456789ABCDEF, MASK64)]
        # a store then a load of the same address: forwarded where allowed
        cases += [(f"    st.{size}{mark} r1, [r28+8]\n    ld.{size}{mark} r3, "
                   f"[r28+8]\n", {1: MASK64 - 2}) for mark in ("", "!")]
        return cases
    if sig == "rrr":
        return [(f"    {mnem} r3, r1, r2\n", r) for r in pairs]
    if sig == "rri":
        return [(f"    {mnem} r3, r1, {imm}\n", {1: a})
                for a in (2, MASK64) for imm in IMMEDIATES]
    if mnem == "movi":
        return [(f"    movi r3, {imm}\n", {}) for imm in IMMEDIATES]
    if mnem == "cmpi":
        return [(f"    cmpi r1, {imm}\n", {1: a})
                for a in (2, 0, MASK64) for imm in (1, 2, 3, -1, 1 << 64)]
    if sig == "rr":                                   # mov, cmp
        return [(f"    {mnem} r3, r1\n" if mnem == "mov" else "    cmp r1, r2\n", r)
                for r in pairs]
    if mnem in ("jmp", "call", "ret"):
        jump = "    jmp skip\n" if mnem == "jmp" else "    call fn\n"
        return [(jump + SKIP, {1: a}) for a in (7, MASK64)]
    if sig == "l":                                    # the conditional branches
        return [(f"    cmp r1, r2\n    {mnem} skip\n" + SKIP, r) for r in pairs]
    if mnem == "jr":
        return [("    movi r7, skip\n    jr r7\n" + SKIP, {})]
    # fence, halt, nop
    body = "" if mnem == "halt" else f"    movi r3, 9\n    {mnem}\n    addi r4, r3, 1\n"
    return [(body, {1: 1})]


@pytest.mark.parametrize("mnem", sorted(_SIGNATURES))
def test_every_mnemonic_matches_reference(mnem):
    cases = mnemonic_cases(mnem)
    for body, regs in cases:
        src = f"main:\n{body}{FLAG_PROBE}    halt\n{SUBROUTINE}{DATA}"
        program = assemble(src)
        assert any(i.mnemonic == mnem for i in program.instructions)
        regs = {**BASE_REGS, **regs}
        ref = run_reference(program, GEOMETRIES[0], regs=regs)
        assert ref.fault is None, (src, ref.fault)
        want = arch_state(ref.regs, ref.mem)
        for policy in FORWARDING_POLICIES:
            cfg = GEOMETRIES[0].replace(forwarding_policy=policy)
            for counter in (1, 3):          # every branch predicted not taken, taken
                pred = PredictorState(cfg.bht_size, cfg.rsb_depth)
                pred.bht = [counter] * cfg.bht_size
                r = run_alone(program, cfg, regs=regs, pred=pred)
                assert r.fault is None and not r.timed_out, (src, policy, r.fault)
                assert arch_state(r.core.arch_regs, r.core.mem) == want, (
                    src, regs, policy, counter)


# -- every fault the reference returns ------------------------------------------

# a committed store the fault must not lose, then the faulting code at 0x10
FAULT_PREFIX = "main:\n    movi r1, 0x60000\n    movi r2, 0x1234\n    st.8 r2, [r1]\n"
FAULT_DATA = ".data 0x60000 rw 00\n.data 0x70000 ro 00\n"
FAULTS = {  # name -> (code at pc 0xc, the reference's fault)
    "fetch_off_the_map": ("    movi r7, 0x400\n    jr r7\n", "fetch off map at 0x400"),
    "store_to_a_read_only_page": ("    movi r3, 0x70000\n    st.8 r2, [r3]\n"
                                  "    st.8 r2, [r1+8]\n",
                                  "write_fault pc=0x10 addr=0x70000"),
    "call_with_an_unmapped_sp": ("    movi r31, 0x900000\n    call fn\n",
                                 "write_fault pc=0x10 addr=0x8ffff8"),
    "load_from_an_unmapped_page": ("    movi r3, 0x900000\n    ld.8 r4, [r3]\n",
                                   "unmapped_load pc=0x10 addr=0x900000"),
    "ret_with_an_unmapped_sp": ("    movi r31, 0x900000\n    ret\n",
                                "unmapped_load pc=0x10 addr=0x900000"),
    "step_limit": ("top:\n    addi r5, r5, 1\n    jmp top\n", "step limit exceeded"),
}


@pytest.mark.parametrize("name", FAULTS)
def test_every_reference_fault_runs_and_the_core_agrees_where_it_faults(name):
    """The core faults as the reference does, on the same committed state: a
    store that retired before the fault reaches memory, and the faulting store
    and younger ones never do. Fetch off the map only stalls the core, and an
    endless loop only reaches its cycle limit."""
    body, fault = FAULTS[name]
    program = assemble(f"{FAULT_PREFIX}{body}    halt\nfn:\n    ret\n{FAULT_DATA}")
    ref = run_reference(program, GEOMETRIES[0], max_steps=1000)
    assert ref.fault == fault
    want = arch_state(ref.regs, ref.mem)
    assert want[1] == {0x60000: bytes.fromhex("3412") + bytes(4094)}
    for policy in FORWARDING_POLICIES:
        cfg = GEOMETRIES[0].replace(forwarding_policy=policy, cycle_limit=2000)
        r = run_program(program, cfg)
        if fault.startswith(("write_fault", "unmapped_load")):
            assert (r.fault, r.timed_out) == (fault, False), policy
            assert arch_state(r.core.arch_regs, r.core.mem) == want, policy
            assert not r.core.sb.entries and not r.core.mem.mshrs, policy
        else:
            assert (r.fault, r.timed_out) == (None, True), policy
