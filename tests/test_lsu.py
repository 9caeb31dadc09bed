import pytest

from specsim import SimConfig, assemble, lsu
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
    sb.entries.extend(entries)
    return sb


def drainable_head(core):
    """The store-buffer head when it is senior, free to drain, else None."""
    entries = core.sb.entries
    return entries[0] if entries and entries[0].senior else None


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


def test_a_split_decides_nothing_and_names_the_peers_that_answer_otherwise(monkeypatch):
    """Baseline lets a non-senior store forward and `slothbear_stores` does
    not: the decision names the peer and builds no forward."""
    def no_forward(*args):
        raise AssertionError("a split decision built a forward")

    monkeypatch.setattr(lsu, "_forward", no_forward)
    sb = sb_with(entry(1, addr=0x1000, data=7, senior=False))
    d = forward_decision(5, 0x1000, 8, False, 0x40, False, sb,
                         ForwardingPolicy("baseline", peers=("slothbear_stores",)), "lazy")
    assert d.kind == "split" and d.split == ("slothbear_stores",)


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
    """Each cycle writes back the head of the store buffer once it is
    senior, and nothing behind a head that is not."""
    p = assemble("main:\n    halt\n")
    cfg = SimConfig(dram_latency_cycles=20, l1_latency_cycles=2)
    mem = MemorySystem(cfg)
    mem.map_region(0, 0x1000)
    mem.access(0, 0)
    mem.tick(20)                                  # line 0 resident: write-backs hit
    core = Core(p, cfg, mem, PredictorState(cfg.bht_size, cfg.rsb_depth),
                ForwardingPolicy("baseline"))
    core.cycle = 20
    core.sb.entries.extend([entry(1, addr=0x8, data=0x11), entry(3, addr=0x10, data=0x22),
                            entry(6, addr=0x18, data=0x33)])
    core.step()
    assert drainable_head(core) is None and len(core.sb.entries) == 3
    for e in core.sb.entries[:2]:
        e.senior = True
    head, second, third = core.sb.entries
    assert drainable_head(core) is head
    core.step()
    assert core.sb.entries == [second, third] and drainable_head(core) is second
    core.step()
    assert core.sb.entries == [third] and drainable_head(core) is None
    core.step()
    assert core.sb.entries == [third]
    assert [mem.read_int(a, 8) for a in (0x8, 0x10, 0x18)] == [0x11, 0x22, 0]


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
        seen += [(e.uop.kind, e.sbe is drainable_head(core))
                 for e in before if e.sbe is not None and id(e) not in left]
    return seen


def test_store_seniorizes_when_its_last_uop_retires():
    data = ".data 0x10000 rw 00\n"      # maps the page, stack included
    assert drainable_at_retire(
        "main:\n    movi r1, 0x10000\n    movi r2, 7\n    st.8 r2, [r1]\n"
        "    halt\n" + data) == [(STA, False), (STD, True)]
    assert drainable_at_retire(
        "main:\n    call f\nf:\n    halt\n" + data) == [(CALL, True)]


def test_unknown_policy_is_rejected():
    with pytest.raises(ValueError, match="unknown forwarding policy 'bogus'"):
        ForwardingPolicy("bogus")


def test_whitelist_file_roundtrip(tmp_path):
    pol = ForwardingPolicy("arctic_sloth", {0x40, 0x1c})
    path = tmp_path / "wl.txt"
    pol.save_whitelist(str(path))
    assert path.read_text() == "0x1c\n0x40\n"
    assert ForwardingPolicy.load_whitelist(str(path)) == {0x1c, 0x40}
