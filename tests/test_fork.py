"""`Core.fork`, the one operation that copies a core, and a `Core.start` that
refuses a core with work in flight.

A fork taken before any run of a matrix cell's schedule, or at any step of a
random program's run, runs on exactly as its original does, and neither run
changes the other: reports, traces, resident lines, whitelists and committed
state are equal. A halted run leaves no wake list behind, and a fork filed at
a split is a core at a cycle boundary, its queues what scans of its ROB find.
A fork taken while a load sleeps wakes that load on its own copy of the
store. A run that faulted or timed out leaves work in its ROB or store buffer,
so the core cannot start again.
"""

from itertools import count

import pytest

from specsim import SimConfig, assemble, run_program
from specsim.config import FORWARDING_POLICIES
from specsim.core import Core
from specsim.scenarios import MATRIX_SCENARIOS, MITIGATIONS, build_scenario, run_scenario
from alone import run_alone, started_core
from test_event_core import assert_queues_match_scans, assert_speculation_matches_rob
from test_lsu import FAST, WAKES
from test_shared_runs import ORACLE, REGS, outcome as run_outcome, source

# steps between forks of one run: a pool program runs only 49 to 92 steps
EVERY = 5


def outcome(report) -> tuple:
    return run_outcome(report) + (sorted(report.core.mem.lines.items()),)


def assert_no_wake_list_left(report) -> None:
    if report.fault is None and not report.timed_out:
        assert report.core.waiting == {}


def test_a_fork_before_each_run_of_a_matrix_cell_runs_as_its_original(monkeypatch):
    run = Core.run

    def run_fork_then_original(core):
        twin = core.fork()
        pred = core.pred.clone()
        forked = run(twin)
        assert core.pred == pred            # the fork trained its own predictors
        want = outcome(forked)
        got = run(core)
        assert outcome(got) == want
        assert_no_wake_list_left(forked)
        assert_no_wake_list_left(got)
        return got

    monkeypatch.setattr(Core, "run", run_fork_then_original)
    for name in MATRIX_SCENARIOS:
        for policy in FORWARDING_POLICIES:
            for mitigation in MITIGATIONS:
                report = run_scenario(build_scenario(name, mitigation=mitigation),
                                      SimConfig(forwarding_policy=policy),
                                      collect_trace=True)
                assert report.fault is None and not report.timed_out, (name, policy)


def test_a_fork_at_every_5th_step_runs_on_as_the_unforked_run(monkeypatch):
    """The first 50 programs of the oracle pool, each under one policy in
    turn; the forks run after their trunk has finished."""
    step = Core.step
    for k in range(50):
        program = assemble(source(k))
        cfg = ORACLE.replace(forwarding_policy=FORWARDING_POLICIES[k % 5])
        trunk = started_core(program, cfg, regs=REGS, trace=[])
        forks, steps = [], count(1)

        def forking_step(core):
            if core is trunk and next(steps) % EVERY == 0:
                forks.append(core.fork())
            step(core)

        monkeypatch.setattr(Core, "step", forking_step)
        report = trunk.run()
        monkeypatch.setattr(Core, "step", step)
        assert report.fault is None and not report.timed_out, k
        assert forks, k
        assert_no_wake_list_left(report)
        want = outcome(report)
        for twin in forks:
            forked = twin.run()
            assert outcome(forked) == want, (k, twin.cycle)
            assert_no_wake_list_left(forked)


def test_a_filed_fork_is_a_core_at_a_cycle_boundary():
    """A fork filed at a split finishes its cycle first, so its ready list,
    wheel and live tags are what scans of its ROB find, as after any step.
    The first call for each of the oracle pool's first 50 programs."""
    filed = 0
    for k in range(50):
        program = assemble(source(k))
        run_program(program, ORACLE, regs=REGS)
        for core in {id(c): c for c in program.snapshots[1].values()}.values():
            assert core.program is None, k
            assert_queues_match_scans(core)
            assert_speculation_matches_rob(core)
            filed += 1
    assert filed > 50


LINE_59 = """
    movi r1, 0x900000
    ld.8 r2, [r1]
    movi r3, 5
    halt
"""
# a store still senior when the run times out, after a jump off the map has
# emptied the ROB
SENIOR_STORE = """
    movi r1, 0x10000
    movi r2, 7
    st.8 r2, [r1]
    movi r4, 2
    jr r4
.data 0x10000 rw 00
"""


@pytest.mark.parametrize("src, cycle_limit, left", [
    (LINE_59, 1_000_000, (True, True, False)), (LINE_59, 3, (False, True, False)),
    (SENIOR_STORE, 40, (False, False, True))], ids=["fault", "timeout", "senior_store"])
def test_start_refuses_a_core_with_work_in_flight(src, cycle_limit, left):
    """`left`: whether the run left a fault, ROB entries and store-buffer entries."""
    core = run_alone(assemble(src), SimConfig(cycle_limit=cycle_limit)).core
    assert (core.fault is not None, bool(core.rob), bool(core.sb.entries)) == left
    with pytest.raises(ValueError, match="work in flight"):
        core.start({})


@pytest.mark.parametrize("wake", ["address", "drain"])
def test_a_fork_taken_while_a_load_sleeps_wakes_on_its_own_copy_of_the_store(
        wake, monkeypatch):
    """A fork at each cycle boundary where a load sleeps, run to its end
    before its original goes on, runs as the original does: its sleeping
    load wakes when the fork's own copy of the store changes. In the drain
    program three loads share two load ports, so after the store drains one
    of them still sleeps on it: its fork, having no copy of the store, asks
    again."""
    policy, src, _, _ = WAKES[wake]
    trunk = started_core(assemble(src), FAST.replace(forwarding_policy=policy), trace=[])
    step, forked, drained = Core.step, [], []

    def forking_step(core):
        if core is trunk and any(e.asleep for e in core.rob):
            twin = core.fork()
            drained.extend(e.seq for e, t in zip(core.rob, twin.rob)
                           if e.asleep and not t.asleep)
            forked.append(outcome(twin.run()))
        step(core)

    monkeypatch.setattr(Core, "step", forking_step)
    want = outcome(trunk.run())
    assert len(forked) > 3 and all(got == want for got in forked)
    assert bool(drained) is (wake == "drain")
