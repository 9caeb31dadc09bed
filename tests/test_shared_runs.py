"""Runs shared across forwarding policies (`run_program`), and a core run again.

Consecutive calls on one `Program` share each policy-independent prefix: the
first files a copy of its core at each load where the policies' allows answers
split, and later calls resume those copies. Every report must equal that of a
`Core` run alone, whatever the call order; a resumed run must share no state,
its whitelist included, with the run it split from or with pending copies; and
a program dropped with copies pending leaves no garbage. A second run started
on one core must equal a new core's run on the state the first one left.
"""

import gc
import random
import weakref
from dataclasses import replace

import pytest

from specsim import SimConfig, assemble, run_program
from specsim.config import FORWARDING_POLICIES
from specsim.core import Core
from specsim.lsu import ForwardingPolicy
from specsim.reference import arch_state
from alone import run_alone
from randprog import random_program, STACK_TOP

# criterion 10's geometry and program shape (tests/test_acceptance.py)
ORACLE = SimConfig(dram_latency_cycles=20, l1_latency_cycles=2, rob_capacity=64)
POOL = 400                    # criterion 10's first 400 programs
TRACED = 50                   # of which the first 50 also compare trace streams
REGS = {31: STACK_TOP}

REPEATED = ("sloth_marked", "sloth_marked", "baseline", "arctic_sloth", "baseline",
            "slothbear_loads", "arctic_sloth", "slothbear_stores")


def source(k: int) -> str:
    return random_program(random.Random(90000 + k), 170)


def outcome(report) -> tuple:
    """Everything a run leaves that an independent run must match."""
    core = report.core
    return (report.to_dict(), sorted(core.policy.whitelist),
            arch_state(core.arch_regs, core.mem), report.trace)


def independent(src: str, policy: str, cfg: SimConfig = ORACLE, traced: bool = False):
    """`policy`'s run on a `Core` of its own, on a freshly assembled copy."""
    return outcome(run_alone(assemble(src), cfg.replace(forwarding_policy=policy),
                             regs=REGS, trace=[] if traced else None))


def shared(program, policy: str, cfg: SimConfig = ORACLE, traced: bool = False):
    return outcome(run_program(program, cfg.replace(forwarding_policy=policy),
                               regs=REGS, trace=[] if traced else None))


@pytest.mark.parametrize("block", range(4))
def test_shared_runs_equal_independent_runs_on_the_oracle_pool(block):
    """Each of the pool's programs, policies in FORWARDING_POLICIES order and
    in reverse, each order on its own assembly; traces for the first 50."""
    for k in range(block * POOL // 4, (block + 1) * POOL // 4):
        src = source(k)
        traced = k < TRACED
        want = {p: independent(src, p, traced=traced) for p in FORWARDING_POLICIES}
        for order in (FORWARDING_POLICIES, FORWARDING_POLICIES[::-1]):
            program = assemble(src)
            for policy in order:
                assert shared(program, policy, traced=traced) == want[policy], (k, policy)
            assert program.snapshots[1] == {}, k      # every copy was resumed


def test_a_repeated_policy_runs_again_and_equals_an_independent_run():
    for k in range(TRACED):
        src = source(k)
        want = {p: independent(src, p, traced=True) for p in FORWARDING_POLICIES}
        program = assemble(src)
        for policy in REPEATED:
            assert shared(program, policy, traced=True) == want[policy], (k, policy)


@pytest.mark.parametrize("cfg", [
    SimConfig(dram_latency_cycles=12, l1_latency_cycles=1, rob_capacity=16,
              issue_width=2, retire_width=1, sb_capacity=4, mshr_count=2),
    SimConfig(dram_latency_cycles=40, l1_latency_cycles=3, tlb_enforcement="eager"),
    SimConfig(dram_latency_cycles=25, l1_latency_cycles=2,
              tlb_enforcement="forward_zero", sb_capacity=8),
    SimConfig(dram_latency_cycles=20, l1_latency_cycles=2, rob_capacity=64,
              cycle_limit=300)], ids=["narrow", "eager", "forward_zero", "timeout"])
def test_shared_runs_equal_independent_runs_on_other_geometries(cfg):
    for k in range(20):
        src = random_program(random.Random(7700 + k), 120)
        program = assemble(src)
        for policy in FORWARDING_POLICIES:
            assert (shared(program, policy, cfg, traced=True)
                    == independent(src, policy, cfg, traced=True)), (k, policy)


def test_snapshots_are_keyed_on_everything_but_the_policy():
    src = source(3)
    program = assemble(src)
    run_program(program, ORACLE, regs=REGS)
    pending = program.snapshots
    assert set(pending[1]) == set(FORWARDING_POLICIES) - {"baseline"}
    wider = ORACLE.replace(forwarding_policy="slothbear_loads", issue_width=4)
    assert outcome(run_program(program, wider, regs=REGS)) == independent(
        src, "slothbear_loads", wider)
    assert program.snapshots is not pending          # one key at a time
    cfg = ORACLE.replace(forwarding_policy="arctic_sloth")

    def alone(regs):
        return run_alone(assemble(src), cfg, regs=regs, trace=[])

    for regs, trunk_traced in (({31: STACK_TOP - 0x200}, True), (REGS, False)):
        program = assemble(src)
        run_program(program, ORACLE, regs=REGS, trace=[] if trunk_traced else None)
        got = run_program(program, cfg, regs=regs, trace=[])
        want = alone(regs)
        assert got.to_dict() == want.to_dict() and got.trace == want.trace
        if trunk_traced:                # the changed part of the key shows in the trace
            assert want.trace != alone(REGS).trace


def test_a_core_run_alone_files_nothing():
    program = assemble(source(5))
    for policy in FORWARDING_POLICIES:
        run_alone(program, ORACLE.replace(forwarding_policy=policy), regs=REGS)
    assert program.snapshots is None


def test_a_second_run_on_one_core_equals_a_fresh_core_on_its_state():
    """`Core.start` resets all a run begins from: a second run on a core
    equals a run on a new core built on copies of the first core's memory,
    predictors and whitelist, its trace shifted by the first run's end."""
    second = {31: STACK_TOP - 0x100, 7: 0x1234}
    for k in range(TRACED):
        program = assemble(source(k))
        for policy in ("baseline", "slothbear_stores"):
            cfg = ORACLE.replace(forwarding_policy=policy)
            first = run_alone(program, cfg, regs=REGS, trace=[])
            assert first.fault is None and not first.timed_out, (k, policy)
            core, end = first.core, first.core.cycle
            counts = (core.retired_instructions, core.squash_count, core.forward_count)
            fresh = Core(program, cfg, core.mem.clone(), core.pred.clone(),
                         ForwardingPolicy(policy, set(core.policy.whitelist)))
            fresh.start(second, [])
            want = fresh.run()
            core.start(second, [])
            got = core.run()
            assert [replace(ev, cycle=ev.cycle - end) for ev in got.trace] == want.trace
            assert got.cycles - end == want.cycles, (k, policy)
            assert (got.retired_instructions - counts[0], got.squash_count - counts[1],
                    got.forward_count - counts[2], got.mshr_peak, got.fault,
                    got.timed_out) == (want.retired_instructions, want.squash_count,
                                       want.forward_count, want.mshr_peak, want.fault,
                                       want.timed_out), (k, policy)
            assert (arch_state(core.arch_regs, core.mem), sorted(core.mem.lines),
                    core.pred, core.policy) == (
                arch_state(fresh.arch_regs, fresh.mem), sorted(fresh.mem.lines),
                fresh.pred, fresh.policy), (k, policy)


def pending_whitelists(program) -> dict:
    return {p: set(core.policy.whitelist) for p, core in program.snapshots[1].items()}


def test_a_resumed_run_shares_no_state_with_its_trunk_or_pending_snapshots():
    """Memory, registers and whitelist: a group shares one whitelist until a
    copy is filed, so adding pcs to one run's must reach no other run."""
    for k in range(10):
        src = source(k)
        want = {p: independent(src, p) for p in FORWARDING_POLICIES}
        program = assemble(src)
        first, *rest = FORWARDING_POLICIES
        trunk = run_program(program, ORACLE.replace(forwarding_policy=first), regs=REGS)
        kept = outcome(trunk)
        for policy in rest:
            resumed = run_program(program, ORACLE.replace(forwarding_policy=policy),
                                  regs=REGS)
            assert outcome(resumed) == want[policy], (k, policy)
            pending = pending_whitelists(program)
            mem = resumed.core.mem
            for page in list(mem.pages):
                mem.write_bytes(page, b"\xa5" * 4096)
            resumed.core.arch_regs[:] = [0x5A] * len(resumed.core.arch_regs)
            resumed.core.policy.whitelist.update(range(0x5A000, 0x5A040, 4))
            assert outcome(trunk) == kept, (k, policy)   # the trunk's report
            assert pending_whitelists(program) == pending, (k, policy)
        # and the trunk's own writes reach no copy resumed after them
        program = assemble(src)
        trunk = run_program(program, ORACLE.replace(forwarding_policy=first), regs=REGS)
        pending = pending_whitelists(program)
        for page in list(trunk.core.mem.pages):
            trunk.core.mem.write_bytes(page, b"\x3c" * 4096)
        trunk.core.arch_regs[:] = [0x3C] * len(trunk.core.arch_regs)
        trunk.core.policy.whitelist.update(range(0x3C000, 0x3C040, 4))
        assert pending_whitelists(program) == pending, k
        for policy in rest:
            assert shared(program, policy) == want[policy], (k, policy)


def test_a_dropped_program_with_pending_snapshots_leaves_no_garbage():
    """Filed copies link only to older entries and hold no reference to the
    program: dropping a program that still holds them frees it by reference
    counting, and the collector finds nothing, whether the trunk halted, timed
    out or collected a trace."""
    gc.collect()
    gc.disable()
    try:
        dropped = []
        for k in range(10):
            for cfg, trace in ((ORACLE, None), (ORACLE, []),
                               (ORACLE.replace(cycle_limit=60), None)):
                program = assemble(source(k))
                r = run_program(program, cfg, regs=REGS, trace=trace)
                run_program(program, cfg.replace(forwarding_policy="slothbear_loads"),
                            regs=REGS, trace=None if trace is None else [])
                assert program.snapshots[1], k        # some still pending
                dropped.append(weakref.ref(program))
                del program, r
        assert all(ref() is None for ref in dropped)
        assert gc.collect() == 0
    finally:
        gc.enable()
