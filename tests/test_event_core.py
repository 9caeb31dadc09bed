"""The event-driven core against plain per-cycle stepping.

`Core.run` jumps over idle cycles, wakes blocked micro-ops when their
producers complete, keeps executing micro-ops in a wheel keyed by done cycle,
installs fills only when the memory system's earliest one is due, and calls a
stage only when it has work. The reference below does none of this: each
cycle it clears every wakeup count, finds the ready micro-ops by reading their
producers' status (at the start of the cycle and again right after
completion), rebuilds the wheel and the earliest fill cycle from the ROB and
the MSHRs, and calls every stage; after `halt` or a fault it drains the store
buffer one cycle at a time. Both must leave identical traces, reports, registers,
committed memory, cache footprint and final cycle. After every event-driven
step, the ready list, the wheel and the earliest fill cycle must equal what
the same scans find.
"""

import random

import pytest

from specsim import SimConfig, arch_state, assemble, run_program, run_reference
from specsim.config import FORWARDING_POLICIES, RunReport
from specsim.core import DONE, EXECUTING, LOADING, Core
from specsim.isa import UopKind
from specsim.lsu import ForwardingPolicy
from specsim.memory import MemorySystem
from specsim.predictors import PredictorState
from specsim.scenarios import BUILDERS, build_scenario, run_scenario
from randprog import random_program, STACK_TOP


def polled_ready(core: Core) -> list:
    """The entries that have not started executing and whose producers are
    all done, and an undone fence, in seq order: read from the producers'
    status, never from the wakeup counts."""
    return [e for e in core.rob
            if (e.status < EXECUTING
                and all(p is None or p.status == DONE for p in e.producers or ()))
            or (e.uop.kind is UopKind.FENCE and e.status != DONE)]


def polled_wheel(core: Core) -> dict:
    """The EXECUTING and LOADING entries of the ROB by done cycle, each in
    seq order."""
    wheel = {}
    for e in core.rob:
        if e.status in (EXECUTING, LOADING):
            wheel.setdefault(e.done_cycle, []).append(e)
    return wheel


def polled_next_fill(core: Core):
    return min(core.mem.mshrs.values(), default=None)


def assert_queues_match_scans(core: Core) -> None:
    """`ready` is the polled ready set, in seq order and as the ROB's own
    objects; the wheel holds each EXECUTING or LOADING entry once, under its
    done cycle, with no key below the current cycle and no empty bucket;
    `next_fill` is the earliest MSHR fill cycle. An executing fence has every
    older entry done, and nothing younger than an undone fence has started."""
    ready = polled_ready(core)
    assert [e.seq for e in core.ready] == [e.seq for e in ready]
    assert all(a is b for a, b in zip(core.ready, ready))
    wheel = {cycle: sorted(bucket, key=lambda e: e.seq)
             for cycle, bucket in core.executing.items()}
    expected = polled_wheel(core)
    assert wheel.keys() == expected.keys()
    for cycle, bucket in wheel.items():
        assert [id(e) for e in bucket] == [id(e) for e in expected[cycle]]
    assert all(cycle >= core.cycle for cycle in core.executing)
    assert core.mem.next_fill == polled_next_fill(core)
    for i, e in enumerate(core.rob):
        if e.uop.kind is UopKind.FENCE and e.status != DONE:
            if e.status == EXECUTING:
                assert all(o.status == DONE for o in core.rob[:i])
            assert all(y.status < EXECUTING for y in core.rob[i + 1:])


def assert_speculation_matches_rob(core: Core) -> None:
    """`live_tags` is the seqs of the ROB's predicted branches that are not
    yet done, oldest first, and the ROB head is never speculative: no live
    tag is older than it."""
    branches = [e.seq for e in core.rob if e.status != DONE and (
        e.uop.kind is UopKind.JR_INDIRECT
        or (e.uop.kind is UopKind.BR_COND and e.uop.fn is not None))]
    assert core.live_tags == branches
    if core.rob and core.live_tags:
        assert core.live_tags[0] >= core.rob[0].seq


def assert_store_buffer_ordered(core: Core) -> None:
    """The store buffer is in seq order and its senior entries are a prefix
    of it, so the oldest drainable entry is always the head."""
    seqs = [e.seq for e in core.sb.entries]
    assert seqs == sorted(set(seqs))
    seniors = [e.senior for e in core.sb.entries]
    assert seniors == sorted(seniors, reverse=True)


def step_polled(core: Core) -> None:
    """One cycle with every queue rebuilt from scans and every stage called
    (write-back when the store-buffer head is senior, which it requires)."""
    for e in core.rob:
        e.pending = 0
    core.waiting = {}
    core.ready = polled_ready(core)
    core.executing = polled_wheel(core)
    core.mem.next_fill = polled_next_fill(core)
    core.progress = False
    core._stage_complete()
    core.ready = polled_ready(core)
    core._stage_retire()
    if core.fault:
        return
    if core.sb.entries and core.sb.entries[0].senior:
        core._stage_writeback()
    core._stage_issue()
    core._stage_fetch()
    core.cycle += 1


def run_per_cycle(core: Core) -> RunReport:
    report = RunReport("", core.cfg.digest(), core=core, trace=core.trace)
    while not core.halted and core.fault is None:
        if core.cycle - core.start_cycle >= core.cfg.cycle_limit:
            report.timed_out = True
            break
        step_polled(core)
        assert_speculation_matches_rob(core)
        assert_store_buffer_ordered(core)
    if core.fault is not None:      # the faulting micro-op and younger never retire
        core.sb.squash_younger(core.rob[0].seq - 1)
    if not report.timed_out:
        guard = 0
        while (core.sb.entries or core.mem.mshrs) and guard < 10_000_000:
            core.mem.tick(core.cycle)
            if core.sb.entries:
                core._stage_writeback()
            assert_store_buffer_ordered(core)
            core.cycle += 1
            guard += 1
    report.cycles = core.cycle
    report.retired_instructions = core.retired_instructions
    report.squash_count = core.squash_count
    report.forward_count = core.forward_count
    report.mshr_peak = core.mem.mshr_peak
    report.fault = core.fault
    return report


def checked_step(core: Core, step=Core.step) -> None:
    """`Core.step`, then the event-driven queues against the scans."""
    step(core)
    assert_queues_match_scans(core)
    assert_speculation_matches_rob(core)
    assert_store_buffer_ordered(core)


def both(monkeypatch, run):
    """`run()` under the event-driven core, checked after every step, then
    under per-cycle stepping."""
    with monkeypatch.context() as m:
        m.setattr(Core, "step", checked_step)
        fast = run()
    with monkeypatch.context() as m:
        m.setattr(Core, "run", run_per_cycle)
        slow = run()
    return fast, slow


def snapshot_program(program, cfg, regs=None):
    trace = []
    r = run_program(program, cfg, regs=regs, trace=trace)
    mem = r.core.mem
    return (r.to_dict(), trace, r.core.arch_regs, r.core.cycle,
            mem.committed_pages(), sorted(mem.lines.items()))


def snapshot_scenario(scenario, cfg):
    r = run_scenario(scenario, cfg, policy=ForwardingPolicy(cfg.forwarding_policy),
                     collect_trace=True)
    mem = r.core.mem
    return (r.to_dict(), r.trace, r.core.arch_regs, r.core.cycle,
            mem.committed_pages(), sorted(mem.lines.items()))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_scenarios_match_per_cycle_stepping(monkeypatch, name):
    for policy in FORWARDING_POLICIES:
        cfg = SimConfig(forwarding_policy=policy)
        fast, slow = both(monkeypatch,
                          lambda: snapshot_scenario(build_scenario(name), cfg))
        assert fast == slow, (name, policy)


CONFIGS = [
    SimConfig(dram_latency_cycles=20, l1_latency_cycles=2),
    SimConfig(dram_latency_cycles=30, l1_latency_cycles=2, rob_capacity=16,
              issue_width=2, retire_width=1, sb_capacity=2, mshr_count=1),
    SimConfig(tlb_enforcement="eager", mshr_count=2),
]


@pytest.mark.parametrize("block", range(3))
def test_random_programs_match_per_cycle_stepping(monkeypatch, block):
    for i in range(10):
        seed = 7100 + block * 10 + i
        program = assemble(random_program(random.Random(seed), 120))
        for policy in FORWARDING_POLICIES:
            cfg = CONFIGS[seed % len(CONFIGS)].replace(forwarding_policy=policy)
            fast, slow = both(monkeypatch, lambda: snapshot_program(
                program, cfg, regs={31: STACK_TOP}))
            assert fast == slow, (seed, policy)


def test_cycle_limit_inside_dram_stall(monkeypatch):
    program = assemble("""
main:
    movi r1, 0x10000
    ld.8 r2, [r1]
    addi r3, r2, 1
    halt
.data 0x10000 rw 00
""")
    cfg = SimConfig(cycle_limit=100)
    fast, slow = both(monkeypatch, lambda: snapshot_program(program, cfg))
    assert fast == slow
    report, trace = fast[0], fast[1]
    assert report["timed_out"] and report["cycles"] == 100
    assert "mshr_alloc" in {e.kind for e in trace}
    assert "fill" not in {e.kind for e in trace}


STORE_AND_HALT = """
main:
    movi r1, 0x10000
    movi r2, 7
    st.8 r2, [r1]
    halt
.data 0x10000 rw 00
"""


def test_store_miss_drains_after_halt(monkeypatch):
    program = assemble(STORE_AND_HALT)
    cfg = SimConfig()
    fast, slow = both(monkeypatch, lambda: snapshot_program(program, cfg))
    assert fast == slow
    report, trace, pages = fast[0], fast[1], fast[4]
    halt_retired = max(e.cycle for e in trace if e.kind == "retire")
    assert report["cycles"] > halt_retired + cfg.dram_latency_cycles // 2
    assert pages[0x10000][0] == 7


def test_store_drains_after_halt_however_long_the_dram_latency():
    """The drain has no cycle budget: a write-back due more than ten million
    cycles after `halt` still lands, as the reference has it."""
    program = assemble(STORE_AND_HALT)
    cfg = SimConfig(dram_latency_cycles=10_000_001)
    r = run_program(program, cfg)
    ref = run_reference(program, cfg)
    assert not r.timed_out and r.cycles > cfg.dram_latency_cycles
    assert r.core.sb.entries == [] and r.core.mem.mshrs == {}
    assert arch_state(r.core.arch_regs, r.core.mem) == arch_state(ref.regs, ref.mem)
    assert r.core.mem.committed_pages()[0x10000][0] == 7


# a store whose data is a DRAM miss retires just before a faulting load; a
# younger load's miss, issued a few cycles later, finishes while it drains
FAULT_AFTER_STORE = """
main:
    movi r1, 0x10000
    movi r5, 0x30000
    ld.8 r2, [r5]
    st.8 r2, [r1]
    movi r3, 0x900000
    movi r6, 0x1ff00
""" + "    addi r6, r6, 0x20\n" * 8 + """
    ld.8 r4, [r3]
    ld.8 r7, [r6]
    halt
.data 0x10000 rw 00
.data 0x20000 rw 00
.data 0x30000 rw 09
"""


def test_store_retired_before_a_fault_drains_as_per_cycle_stepping(monkeypatch):
    program = assemble(FAULT_AFTER_STORE)
    fast, slow = both(monkeypatch, lambda: snapshot_program(program, SimConfig()))
    assert fast == slow
    assert fast[0]["fault"].startswith("unmapped_load") and fast[4][0x10000][0] == 9


def test_drain_after_a_fault_jumps_past_micro_ops_that_never_complete(monkeypatch):
    """The younger load's miss finishes while the store drains; the drain
    does not then step every cycle up to the write-back, but jumps to it."""
    program = assemble(FAULT_AFTER_STORE)
    passes = []
    writeback = Core._stage_writeback
    monkeypatch.setattr(Core, "_stage_writeback",
                        lambda core: passes.append(core.cycle) or writeback(core))
    r = run_program(program, SimConfig(dram_latency_cycles=200_000))
    assert r.fault.startswith("unmapped_load") and r.cycles > 400_000
    assert r.core.mem.committed_pages()[0x10000][0] == 9
    assert len(passes) < 10, len(passes)


def test_every_operand_poll_finds_operands_ready():
    """Issue reads operands only of entries whose producers are all done."""
    polls = []

    class CountingCore(Core):
        def _srcs_ready(self, entry):
            done = all(p is None or p.status == DONE for p in entry.producers)
            vals = super()._srcs_ready(entry)
            polls.append(done and len(vals) == len(entry.uop.srcs))
            return vals

    cfg = SimConfig(dram_latency_cycles=20, l1_latency_cycles=2)
    for seed in range(7200, 7205):
        program = assemble(random_program(random.Random(seed), 120))
        mem = MemorySystem(cfg)
        mem.load_program_data(program)
        core = CountingCore(program, cfg, mem,
                            PredictorState(cfg.bht_size, cfg.rsb_depth),
                            ForwardingPolicy(cfg.forwarding_policy))
        core.arch_regs[31] = STACK_TOP
        assert not core.run().timed_out
    assert polls and all(polls)

