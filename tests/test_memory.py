import pytest

from specsim.config import SimConfig
from specsim.isa import assemble
from specsim.memory import LINE, MemFault, MemorySystem
from specsim.reference import run_reference


def make_mem(**kw):
    cfg = SimConfig(**kw)
    mem = MemorySystem(cfg)
    mem.map_region(0x10000, 0x10000, "rw")
    return cfg, mem


def test_miss_then_fill_then_hit():
    cfg, mem = make_mem()
    res = mem.access(0x10040, 5)
    assert res.status == "miss" and res.mshr_allocated
    assert res.ready_cycle == 5 + cfg.dram_latency_cycles
    mem.tick(res.ready_cycle)
    hit = mem.access(0x10044, res.ready_cycle)
    assert hit.status == "hit" and not hit.mshr_allocated
    assert hit.ready_cycle == res.ready_cycle + cfg.l1_latency_cycles


def test_secondary_miss_shares_mshr():
    cfg, mem = make_mem()
    first = mem.access(0x10080, 0)
    second = mem.access(0x10088, 3)       # same line
    assert second.status == "miss" and not second.mshr_allocated
    assert second.ready_cycle == first.ready_cycle
    assert len(mem.mshrs) == 1


def test_eleventh_concurrent_miss_is_mshr_full():
    cfg, mem = make_mem()
    for i in range(10):
        assert mem.access(0x10000 + i * LINE, 0).status == "miss"
    assert mem.access(0x10000 + 10 * LINE, 0).status == "mshr_full"
    assert mem.mshr_peak == 10


def test_next_fill_is_the_earliest_mshr_fill():
    # an MSHR allocated later in host order may fill first
    cfg, mem = make_mem()
    mem.access(0x10000, 100)
    assert mem.next_fill == min(mem.mshrs.values()) == 100 + cfg.dram_latency_cycles
    mem.access(0x10000 + LINE, 10)
    assert mem.next_fill == min(mem.mshrs.values()) == 10 + cfg.dram_latency_cycles
    mem.tick(mem.next_fill)
    assert mem.next_fill == min(mem.mshrs.values()) == 100 + cfg.dram_latency_cycles


def test_fill_completes_even_without_requester():
    # allocation outlives any squash of the load that asked for it
    cfg, mem = make_mem()
    res = mem.access(0x10200, 0)
    mem.tick(res.ready_cycle)
    assert 0x10200 in mem.lines
    assert not mem.mshrs


def test_tlb_verdicts():
    cfg, mem = make_mem()
    mem.map_region(0x50000, 0x1000, "ro")
    assert mem.permits(0x10010, write=True) is True
    assert mem.permits(0x50010, write=True) is False
    assert mem.permits(0x50010, write=False) is True
    assert mem.permits(0x99999000, write=False) is False
    assert mem.permits(0x99999000, write=True) is False


def test_timed_read_latencies():
    cfg, mem = make_mem()
    mem.write_int(0x10100, 1, 0x7F)
    assert mem.timed_read(0x10100) == (0x7F, cfg.dram_latency_cycles)
    res = mem.access(0x10100, 0)
    mem.tick(res.ready_cycle)
    assert mem.timed_read(0x10100) == (0x7F, cfg.l1_latency_cycles)


def test_timed_read_does_not_install():
    cfg, mem = make_mem()
    mem.timed_read(0x10300)
    assert 0x10300 not in mem.lines


def test_flush_totality():
    cfg, mem = make_mem()
    res = mem.access(0x10400, 0)
    mem.tick(res.ready_cycle)
    assert mem.timed_read(0x10400)[1] == cfg.l1_latency_cycles
    mem.flush_line(0x10400)
    assert mem.timed_read(0x10400)[1] == cfg.dram_latency_cycles


REFUSED_PAGE_CASES = [
    (range(0x10000, 0x20000, 8), 0x11000),            # several addresses a page
    (range(0x10ff8, 0x20000, 24), 0x11010),           # the page's first address
    (range(0x10008, 0x20000, 0x1040), 0x11048),       # one address a page
    (range(0x11ff8, 0x30000, 0x2000), 0x11ff8),
    (range(0x1f000, 0x30000, 64), 0x20000),           # unmapped above
]


def test_check_readable_names_the_lowest_refused_page():
    for addrs, first in REFUSED_PAGE_CASES:
        cfg, mem = make_mem()
        res = mem.access(0x10440, 0)
        mem.tick(res.ready_cycle)
        if first != 0x20000:
            mem.tlb[first & ~0xFFF] = (False, True)
            mem.tlb[0x13000] = (False, False)
        with pytest.raises(MemFault, match=f"unreadable {first:#x}$"):
            mem.check_readable(addrs)
        mem.check_readable(range(0x10000, 0x11000, 8))
        assert list(mem.lines) == [0x10440] and not mem.mshrs
        assert mem.timed_read(0x10447)[1] == cfg.l1_latency_cycles
        assert mem.timed_read(0x10480)[1] == cfg.dram_latency_cycles


def test_timed_read_unmapped_faults():
    cfg, mem = make_mem()
    with pytest.raises(MemFault):
        mem.timed_read(0x99999000)


def test_round_robin_replacement_is_deterministic():
    cfg, mem = make_mem()
    mem.map_region(0x100000, 0x200000, "rw")
    set_stride = 64 * LINE        # same set every time
    lines = [0x100000 + i * set_stride for i in range(10)]
    for addr in lines:
        res = mem.access(addr, 0)
        mem.tick(res.ready_cycle)
    # 8 ways: the first two victims are the two oldest installs
    assert lines[0] not in mem.lines
    assert lines[1] not in mem.lines
    assert all(a in mem.lines for a in lines[2:])


def _install(mem, addr, cycle):
    res = mem.access(addr, cycle)
    mem.tick(res.ready_cycle)


def _cache_state(mem):
    return {i: list(ways) for i, ways in mem.sets.items()}, dict(mem.rr), dict(mem.lines)


def test_sets_are_allocated_on_first_install():
    cfg, mem = make_mem()
    assert mem.sets == {} and mem.rr == {}
    _install(mem, 0x10040, 0)
    assert mem.sets == {1: [0x10040]} and mem.rr == {}
    mem.flush_line(0x10040)
    assert mem.sets == {1: []} and not mem.lines


def test_reference_memory_holds_no_set():
    p = assemble("main:\n    movi r1, 0x10000\n    st.8 r1, [r1+8]\n    ld.8 r2, [r1+8]\n"
                 "    halt\n.data 0x10000 rw 00\n")
    ref = run_reference(p, SimConfig())
    assert ref.fault is None and ref.regs[2] == 0x10000
    assert ref.mem.sets == {} and ref.mem.rr == {} and ref.mem.lines == {}


@pytest.mark.parametrize("actor", ["original", "clone"])
def test_a_clone_and_its_original_share_no_set(actor):
    cfg, mem = make_mem()
    for k in range(9):          # one set filled past its 8 ways: rr is touched
        _install(mem, 0x10000 + k * 64 * LINE, 1000 * k)
    _install(mem, 0x10040, 9000)
    twin = mem.clone()
    acting, other = (mem, twin) if actor == "original" else (twin, mem)
    before = _cache_state(other)
    assert before == _cache_state(acting) and before[1] == {0: 1}
    _install(acting, 0x10000 + 9 * 64 * LINE, 10000)     # evicts from set 0
    acting.flush_line(0x10040)                              # empties set 1
    _install(acting, 0x10080, 11000)                        # a new set
    assert _cache_state(other) == before != _cache_state(acting)


def test_rw_int_cross_page():
    cfg, mem = make_mem()
    mem.write_int(0x10FFC, 8, 0x1122334455667788)
    assert mem.read_int(0x10FFC, 8) == 0x1122334455667788
    assert mem.read_int(0x10FFC, 4) == 0x55667788


@pytest.mark.parametrize("addr", [0x10000, 0x10FF8, 0x10FF9, 0x10FFF, 0x12FFE])
@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_rw_int_agrees_with_bytes_at_page_edges(addr, size):
    cfg, mem = make_mem()
    assert mem.read_int(addr, size) == 0 and not mem.pages
    value = 0x8877665544332211 | (1 << 64)          # masked to the size
    mem.write_int(addr, size, value)
    assert mem.read_bytes(addr, size) == (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    assert mem.read_int(addr, size) == int.from_bytes(mem.read_bytes(addr, size), "little")
    assert mem.read_bytes(addr - 1, 1) == mem.read_bytes(addr + size, 1) == b"\0"


def test_committed_pages_prunes_zeros():
    cfg, mem = make_mem()
    mem.read_bytes(0x10000, 64)
    assert mem.committed_pages() == {}
    mem.write_int(0x10000, 1, 9)
    assert list(mem.committed_pages()) == [0x10000]


def test_store_writeback_hits_a_resident_line():
    cfg, mem = make_mem()
    res = mem.access(0x10500, 0)
    mem.tick(res.ready_cycle)
    wb = mem.access(0x10500, 400)
    assert wb.status == "hit"
