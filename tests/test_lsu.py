import pytest

from specsim import SimConfig, assemble
from specsim.core import CALL, DONE, EXECUTING, STA, STD, Core
from specsim.lsu import (ForwardDecision, ForwardingPolicy, StoreBuffer,
                         StoreBufferEntry, forward_decision)
from specsim.memory import MemorySystem
from specsim.predictors import PredictorState


def entry(seq, addr=None, size=8, data=None, senior=False, forwardable=False,
          write_fault=False):
    return StoreBufferEntry(seq, size=size, addr=addr, data=data,
                            senior=senior, forwardable=forwardable,
                            write_fault=write_fault)


def sb_with(*entries):
    sb = StoreBuffer()
    for e in entries:
        sb.insert(e)
    return sb


def decide(load_seq, addr, size, sb, policy="baseline", speculative=False,
           pc=0x40, forwardable=False, tlb="lazy", whitelist=()):
    pol = ForwardingPolicy(policy, set(whitelist))
    return forward_decision(load_seq, addr, size, speculative, pc, forwardable,
                            sb, pol, tlb)


def test_exact_match_forwards():
    sb = sb_with(entry(1, addr=0x1000, data=0xDEAD))
    d = decide(5, 0x1000, 8, sb)
    assert d.kind == "forward" and d.value == 0xDEAD and d.store_seq == 1


def test_smaller_store_does_not_forward():
    sb = sb_with(entry(1, addr=0x1000, size=4, data=0xAA))
    assert decide(5, 0x1000, 8, sb).kind == "wait"


def test_forward_truncates_to_load_size():
    sb = sb_with(entry(1, addr=0x1000, size=8, data=0x1122334455667788))
    d = decide(5, 0x1000, 1, sb)
    assert d.kind == "forward" and d.value == 0x88


def test_youngest_matching_store_wins():
    sb = sb_with(entry(5, addr=0x1000, data=0xA),
                 entry(9, addr=0x1000, data=0xB))
    d = decide(12, 0x1000, 8, sb)
    assert d.kind == "forward" and d.value == 0xB and d.store_seq == 9


def test_younger_store_is_ignored():
    sb = sb_with(entry(20, addr=0x1000, data=0xB))
    assert decide(12, 0x1000, 8, sb).kind == "memory"


def test_unresolved_address_blocks_conservatively():
    sb = sb_with(entry(1, addr=None), entry(2, addr=0x2000, data=1))
    assert decide(5, 0x1000, 8, sb).kind == "wait"


def test_unresolved_data_waits():
    sb = sb_with(entry(1, addr=0x1000, data=None))
    assert decide(5, 0x1000, 8, sb).kind == "wait"


def test_partial_overlap_waits():
    sb = sb_with(entry(1, addr=0x1004, size=8, data=3))
    assert decide(5, 0x1000, 8, sb).kind == "wait"


def test_no_overlap_goes_to_memory():
    sb = sb_with(entry(1, addr=0x2000, size=8, data=3))
    assert decide(5, 0x1000, 8, sb).kind == "memory"


def test_slothbear_stores_blocks_speculative_store():
    sb = sb_with(entry(1, addr=0x1000, data=7, senior=False))
    assert decide(5, 0x1000, 8, sb, policy="slothbear_stores").kind == "wait"
    sb2 = sb_with(entry(1, addr=0x1000, data=7, senior=True))
    assert decide(5, 0x1000, 8, sb2, policy="slothbear_stores").kind == "forward"


def test_slothbear_loads_blocks_colored_load():
    sb = sb_with(entry(1, addr=0x1000, data=7))
    assert decide(5, 0x1000, 8, sb, policy="slothbear_loads",
                  speculative=True).kind == "wait"
    assert decide(5, 0x1000, 8, sb, policy="slothbear_loads").kind == "forward"


def test_sloth_marked_requires_both_marks():
    marked = entry(1, addr=0x1000, data=7, forwardable=True)
    unmarked = entry(1, addr=0x1000, data=7, forwardable=False)
    assert decide(5, 0x1000, 8, sb_with(marked), policy="sloth_marked",
                  forwardable=True).kind == "forward"
    assert decide(5, 0x1000, 8, sb_with(marked), policy="sloth_marked",
                  forwardable=False).kind == "wait"
    assert decide(5, 0x1000, 8, sb_with(unmarked), policy="sloth_marked",
                  forwardable=True).kind == "wait"


def test_arctic_requires_whitelisted_load_pc():
    sb = sb_with(entry(1, addr=0x1000, data=7))
    assert decide(5, 0x1000, 8, sb, policy="arctic_sloth", pc=0x40).kind == "wait"
    assert decide(5, 0x1000, 8, sb, policy="arctic_sloth", pc=0x40,
                  whitelist={0x40}).kind == "forward"


def test_write_fault_store_lazy_forwards_data():
    sb = sb_with(entry(1, addr=0x1000, data=0x99, write_fault=True))
    d = decide(5, 0x1000, 8, sb, tlb="lazy")
    assert d.kind == "forward" and d.value == 0x99


def test_write_fault_store_forward_zero_mode():
    sb = sb_with(entry(1, addr=0x1000, data=0x99, write_fault=True))
    d = decide(5, 0x1000, 8, sb, tlb="forward_zero")
    assert d.kind == "forward_zero" and d.value == 0


def test_write_fault_store_eager_waits():
    sb = sb_with(entry(1, addr=0x1000, data=0x99, write_fault=True))
    assert decide(5, 0x1000, 8, sb, tlb="eager").kind == "wait"


def test_policy_gate_applies_before_fault_gate():
    # a faulting speculative store never forwards zero under blocking policies
    sb = sb_with(entry(1, addr=0x1000, data=0x99, write_fault=True))
    d = decide(5, 0x1000, 8, sb, policy="slothbear_stores", tlb="forward_zero")
    assert d.kind == "wait"


def test_std_before_sta():
    """The store's data resolves while its address still waits on a slow
    load: STA and STD share one store-buffer entry, linked from both."""
    p = assemble("""
main:
    movi r1, 0x10000
    ld.8 r3, [r1]
    movi r2, 0x1234
    st.8 r2, [r3]
    halt
.data 0x10000 rw 08 00 01 00 00 00 00 00 00 00 00 00 00 00 00 00
""")
    cfg = SimConfig(dram_latency_cycles=20, l1_latency_cycles=2)
    mem = MemorySystem(cfg)
    mem.load_program_data(p)
    core = Core(p, cfg, mem, PredictorState(cfg.bht_size, cfg.rsb_depth),
                ForwardingPolicy("baseline"))
    seen_data_first = False
    while not core.halted:
        core.step()
        sta = [e for e in core.rob if e.uop.kind is STA]
        std = [e for e in core.rob if e.uop.kind is STD]
        if sta and std:
            assert sta[0].sbe is std[0].sbe is core.sb.entries[0]
            if std[0].status == DONE and sta[0].status < EXECUTING:
                assert sta[0].sbe.data == 0x1234 and sta[0].sbe.addr is None
                seen_data_first = True
    assert seen_data_first
    core.run()
    assert mem.read_int(0x10008, 8) == 0x1234


def test_squash_removes_only_younger_non_senior():
    senior = entry(2, addr=0x10, data=1, senior=True)
    younger = entry(7, addr=0x20, data=2)
    sb = sb_with(entry(1, addr=0x8, data=0), senior, younger)
    sb.squash_younger(5)
    assert [e.seq for e in sb.entries] == [1, 2]


def test_drain_acts_on_the_head():
    sb = sb_with(entry(1, addr=0x8, data=0), entry(3, addr=0x10, data=1),
                 entry(6, addr=0x18, data=2))
    assert sb.oldest_drainable() is None          # the head is not senior
    for e in sb.entries[:2]:
        e.senior = True
    head, second = sb.entries[:2]
    assert sb.oldest_drainable() is head
    sb.drop()
    assert sb.entries[0] is second and sb.oldest_drainable() is second
    sb.drop()
    assert [e.seq for e in sb.entries] == [6] and sb.oldest_drainable() is None


def drainable_at_retire(src):
    """Per store micro-op in retirement order: its kind, and whether its
    store-buffer entry is the drainable head right after it retires. Retires
    one micro-op a cycle; every write-back misses, so no entry drains early."""
    p = assemble(src)
    cfg = SimConfig(dram_latency_cycles=20, l1_latency_cycles=2, retire_width=1)
    mem = MemorySystem(cfg)
    mem.load_program_data(p)
    core = Core(p, cfg, mem, PredictorState(cfg.bht_size, cfg.rsb_depth),
                ForwardingPolicy("baseline"))
    core.arch_regs[31] = 0x10100
    seen = []
    while not core.halted:
        before = list(core.rob)
        core.step()
        left = {id(e) for e in core.rob}
        seen += [(e.uop.kind, e.sbe is core.sb.oldest_drainable())
                 for e in before if e.sbe is not None and id(e) not in left]
    return seen


def test_store_seniorizes_when_its_last_uop_retires():
    data = ".data 0x10000 rw 00\n"      # maps the page, stack included
    assert drainable_at_retire(
        "main:\n    movi r1, 0x10000\n    movi r2, 7\n    st.8 r2, [r1]\n"
        "    halt\n" + data) == [(STA, False), (STD, True)]
    assert drainable_at_retire(
        "main:\n    call f\nf:\n    halt\n" + data) == [(CALL, True)]


def test_whitelist_file_roundtrip(tmp_path):
    pol = ForwardingPolicy("arctic_sloth", {0x40, 0x1c})
    path = tmp_path / "wl.txt"
    pol.save_whitelist(str(path))
    assert path.read_text() == "0x1c\n0x40\n"
    assert ForwardingPolicy.load_whitelist(str(path)) == {0x1c, 0x40}
