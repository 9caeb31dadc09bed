import gc
import random
from dataclasses import replace

import pytest

from specsim import (RunReport, SimConfig, assemble, run_program, run_reference,
                     arch_state)
from specsim.config import FORWARDING_POLICIES, TRACE_KINDS
from specsim.core import Core, DONE, SQUASHED
from specsim.isa import MicroOp, decode
from specsim.lsu import ForwardingPolicy
from specsim.memory import MemorySystem
from specsim.predictors import PredictorState
from specsim.scenarios import BUILDERS, build_scenario, run_scenario
from alone import run_alone
from randprog import random_program, STACK_TOP
from test_event_core import assert_speculation_matches_rob

FAST = SimConfig(dram_latency_cycles=20, l1_latency_cycles=2)


def run_traced(src, cfg=None, regs=None):
    p = assemble(src)
    trace = []
    r = run_program(p, cfg or FAST, regs=regs, trace=trace)
    return p, r, trace


def test_alu_dispatches_first_cycle():
    _, r, trace = run_traced("main:\n    addi r1, r1, 1\n    halt\n")
    first = [e for e in trace if e.kind == "dispatch"][0]
    assert first.cycle == 0
    assert r.core.arch_regs[1] == 1


def test_rob_full_blocks_dispatch():
    # a slow load at the head pins retirement; dispatch must stop at capacity
    body = "\n".join("    addi r2, r2, 1" for _ in range(30))
    src = f"""
main:
    movi r1, 0x10000
    ld.8 r3, [r1]
{body}
    halt
.data 0x10000 rw 00
"""
    cfg = FAST.replace(rob_capacity=8, dram_latency_cycles=50)
    p, r, trace = run_traced(src, cfg)
    in_flight = 0
    peak = 0
    for e in trace:
        if e.kind == "dispatch":
            in_flight += 1
        elif e.kind in ("retire", "squash"):
            in_flight -= 1
        peak = max(peak, in_flight)
    assert peak <= 8
    assert r.core.arch_regs[2] == 30


def test_fence_blocks_younger_issue():
    src = """
main:
    movi r1, 0x10000
    ld.8 r2, [r1]
    fence
    movi r4, 0x10040
    ld.8 r3, [r4]
    halt
.data 0x10000 rw 07
.data 0x10040 rw 09
"""
    p, r, trace = run_traced(src)
    slow_done = [e.cycle for e in trace if e.kind == "execute" and e.pc == 4]
    younger_issue = [e.cycle for e in trace if e.kind == "issue" and e.pc == 16]
    assert younger_issue[0] > slow_done[0]
    assert r.core.arch_regs[3] == 9


def test_correct_prediction_clears_colors_without_squash():
    src = """
main:
    movi r1, 10
    cmpi r1, 10
    je target
    movi r2, 1
target:
    halt
"""
    # je on fresh counters predicts not_taken, actual taken: squash expected;
    # train first so the prediction is right and nothing squashes
    p = assemble(src)
    cfg = FAST
    mem = MemorySystem(cfg)
    mem.load_program_data(p)
    pred = PredictorState(cfg.bht_size, cfg.rsb_depth)
    from specsim.predictors import train_branch
    for _ in range(3):
        train_branch(pred, 8, True)
    r = run_alone(p, cfg, mem=mem, pred=pred)
    assert r.squash_count == 0
    assert r.core.arch_regs[2] == 0


def test_mispredict_squashes_every_younger_entry():
    src = """
main:
    movi r1, 0x10000
    ld.8 r2, [r1]
    cmpi r2, 5
    je over
    movi r3, 1
    movi r4, 2
over:
    halt
.data 0x10000 rw 05
"""
    p, r, trace = run_traced(src)
    assert r.squash_count == 1
    squashed = {e.seq for e in trace if e.kind == "squash"}
    retired = {e.seq for e in trace if e.kind == "retire"}
    assert squashed and not squashed & retired
    # wrong-path writes never became architectural
    assert r.core.arch_regs[3] == 0 and r.core.arch_regs[4] == 0
    ref = run_reference(p, FAST)
    assert arch_state(r.core.arch_regs, r.core.mem) == arch_state(ref.regs, ref.mem)


def test_squash_leaves_no_colored_entries():
    """After every cycle, the live tags are exactly the unresolved branches
    left in the ROB, oldest first, so no squashed branch keeps younger work
    speculative and the ROB head is never speculative."""
    src = """
main:
    movi r1, 0x10000
    ld.8 r2, [r1]
    cmpi r2, 5
    je out
    movi r3, 1
out:
    halt
.data 0x10000 rw 05
"""
    p = assemble(src)
    cfg = FAST
    mem = MemorySystem(cfg)
    mem.load_program_data(p)
    core = Core(p, cfg, mem, PredictorState(cfg.bht_size, cfg.rsb_depth),
                ForwardingPolicy("baseline"))
    while not core.halted and core.fault is None:
        core.step()
        assert_speculation_matches_rob(core)
        assert not any(e.status == SQUASHED for e in core.rob)
    assert core.squash_count == 1 and core.arch_regs[3] == 0


def test_store_visible_only_after_retire():
    src = """
main:
    movi r1, 0x10000
    movi r2, 0x77
    st.8 r2, [r1+64]
    halt
.data 0x10000 rw 00
"""
    p = assemble(src)
    cfg = FAST
    mem = MemorySystem(cfg)
    mem.load_program_data(p)
    core = Core(p, cfg, mem, PredictorState(cfg.bht_size, cfg.rsb_depth),
                ForwardingPolicy("baseline"))
    seen_before_senior = mem.read_int(0x10040, 8)
    for _ in range(4):
        core.step()
        if not any(e.senior for e in core.sb.entries) and core.rob:
            assert mem.read_int(0x10040, 8) == 0
    report = core.run()
    assert report.fault is None
    assert mem.read_int(0x10040, 8) == 0x77
    assert seen_before_senior == 0


def test_write_fault_raised_at_retire():
    src = """
main:
    movi r1, 0x50000
    movi r2, 9
    st.8 r2, [r1]
    halt
.data 0x50000 ro 00
"""
    for mode in ("lazy", "eager", "forward_zero"):
        p, r, trace = run_traced(src, FAST.replace(tlb_enforcement=mode))
        assert r.fault and "write_fault" in r.fault
        assert [e for e in trace if e.kind == "fault"]


def test_lazy_mode_forwards_before_the_retire_fault():
    # the read-only store forwards its value to the dependent load first;
    # the architectural fault lands only when the store reaches retirement
    src = """
main:
    movi r1, 0x50000
    movi r2, 0x99
    st.8 r2, [r1]
    ld.8 r3, [r1]
    halt
.data 0x50000 ro 00
"""
    p, r, trace = run_traced(src, FAST.replace(tlb_enforcement="lazy"))
    forwards = [e for e in trace if e.kind == "forward"]
    assert forwards and forwards[0].detail.startswith("value=0x99 ")
    assert r.fault and "write_fault" in r.fault
    fault_cycle = [e.cycle for e in trace if e.kind == "fault"][0]
    assert forwards[0].cycle < fault_cycle


def test_unmapped_load_faults_at_retire():
    _, r, _ = run_traced("main:\n    movi r1, 0x900000\n    ld.8 r2, [r1]\n    halt\n")
    assert r.fault and "unmapped_load" in r.fault


@pytest.mark.parametrize("policy", FORWARDING_POLICIES)
def test_unreadable_load_faults_like_the_reference(policy):
    """A mapped page the TLB does not let be read faults a load, on the core
    as in the in-order reference; the committed state matches too."""
    program = assemble("main:\n    movi r1, 0x10000\n    ld.8 r2, [r1]\n"
                       "    movi r3, 7\n    halt\n.data 0x10000 rw 11\n")
    cfg = FAST.replace(forwarding_policy=policy)
    mems = []
    for _ in range(2):
        mem = MemorySystem(cfg)
        mem.load_program_data(program)
        mem.tlb[0x10000] = (False, True)
        mems.append(mem)
    ref = run_reference(program, cfg, mem=mems[0])
    r = run_alone(program, cfg, mem=mems[1])
    assert ref.fault == r.fault == "unmapped_load pc=0x4 addr=0x10000"
    assert r.core.arch_regs[:32] == ref.regs[:32]
    assert r.core.arch_regs[1] == 0x10000 and r.core.arch_regs[2] == 0


def test_run_reports_are_deterministic():
    src = random_program(random.Random(11), 100)
    p = assemble(src)
    regs = {31: STACK_TOP}
    a = run_program(p, FAST, regs=regs)
    b = run_program(p, FAST, regs=regs)
    for field in ("cycles", "retired_instructions", "squash_count",
                  "forward_count", "mshr_peak", "fault", "timed_out"):
        assert getattr(a, field) == getattr(b, field)
    assert a.core.arch_regs == b.core.arch_regs


def test_report_dict_has_exactly_the_outcome_keys():
    want = {"scenario", "config_digest", "cycles", "retired_instructions",
            "squash_count", "forward_count", "mshr_peak", "inferred_secret",
            "attack_success", "fault", "timed_out", "ipc"}
    assert set(RunReport("s", "d").to_dict()) == want
    r = run_program(assemble("main:\n    halt\n"), FAST, trace=[])
    assert r.core is not None and set(r.to_dict()) == want


def test_cycle_limit_timeout():
    src = "main:\n    jmp main\n"
    _, r, _ = run_traced(src, FAST.replace(cycle_limit=500))
    assert r.timed_out


def test_retire_width_bounds_retirement():
    src = "main:\n" + "\n".join("    addi r1, r1, 1" for _ in range(32)) + "\n    halt\n"
    p, r, trace = run_traced(src, FAST.replace(retire_width=2))
    by_cycle = {}
    for e in trace:
        if e.kind == "retire":
            by_cycle[e.cycle] = by_cycle.get(e.cycle, 0) + 1
    assert max(by_cycle.values()) <= 2


def test_issue_width_and_per_kind_caps():
    # 6 independent loads from resident lines: at most 2 begin per cycle
    setup = "\n".join(f"    movi r{i + 2}, {hex(0x10000 + 64 * i)}" for i in range(6))
    loads = "\n".join(f"    ld.8 r{i + 10}, [r{i + 2}]" for i in range(6))
    src = f"main:\n{setup}\n{loads}\n    halt\n.data 0x10000 rw 00\n"
    p, r, trace = run_traced(src)
    load_pcs = {i.pc for i in p.instructions if i.mnemonic == "ld.8"}
    per_cycle = {}
    for e in trace:
        if e.kind == "issue" and e.pc in load_pcs:
            per_cycle[e.cycle] = per_cycle.get(e.cycle, 0) + 1
    assert per_cycle and max(per_cycle.values()) <= 2


def test_call_ret_match_reference():
    src = """
main:
    movi sp, 0x41000
    movi r1, 7
    call double
    call double
    halt
double:
    add r1, r1, r1
    ret
.data 0x40000 rw 00
"""
    p, r, _ = run_traced(src)
    assert r.fault is None and r.core.arch_regs[1] == 28
    ref = run_reference(p, FAST)
    assert arch_state(r.core.arch_regs, r.core.mem) == arch_state(ref.regs, ref.mem)


def test_wrong_path_store_never_reaches_memory():
    # the wrong-path store forwards inside the machine but committed memory
    # never changes at any cycle, and it vanishes at squash
    src = """
main:
    movi r1, 0x10000
    ld.8 r2, [r1]
    cmpi r2, 5
    je out
    movi r3, 0x99
    st.8 r3, [r1+256]
out:
    halt
.data 0x10000 rw 05
"""
    p = assemble(src)
    cfg = FAST
    mem = MemorySystem(cfg)
    mem.load_program_data(p)
    core = Core(p, cfg, mem, PredictorState(cfg.bht_size, cfg.rsb_depth),
                ForwardingPolicy("baseline"))
    guard = 0
    while not core.halted and core.fault is None and guard < 10000:
        core.step()
        guard += 1
        assert mem.read_int(0x10100, 8) == 0
    assert core.halted
    assert mem.read_int(0x10100, 8) == 0


def test_sb_capacity_stalls_dispatch_not_correctness():
    stores = "\n".join(f"    st.8 r1, [r2+{8 * i}]" for i in range(12))
    src = f"main:\n    movi r1, 5\n    movi r2, 0x10000\n{stores}\n    halt\n.data 0x10000 rw 00\n"
    p, r, _ = run_traced(src, FAST.replace(sb_capacity=2))
    assert r.fault is None
    for i in range(12):
        assert r.core.mem.read_int(0x10000 + 8 * i, 8) == 5


def _store_buffer_peak(src: str, sb_capacity: int) -> int:
    """The most store-buffer entries at the end of any cycle of a run to halt."""
    p = assemble(src)
    cfg = FAST.replace(sb_capacity=sb_capacity)
    mem = MemorySystem(cfg)
    mem.load_program_data(p)
    core = Core(p, cfg, mem, PredictorState(cfg.bht_size, cfg.rsb_depth),
                ForwardingPolicy("baseline"))
    peak = 0
    for _ in range(10000):
        if core.halted or core.fault is not None:
            break
        core.step()
        peak = max(peak, len(core.sb.entries))
    assert core.halted
    return peak


def test_fetch_fills_the_store_buffer_to_its_capacity_and_no_further():
    stores = "\n".join(f"    st.8 r1, [r2+{8 * i}]" for i in range(12))
    assert _store_buffer_peak(f"main:\n    movi r1, 5\n    movi r2, 0x10000\n{stores}\n"
                              "    halt\n.data 0x10000 rw 00\n", 2) == 2


def test_fetch_reserves_a_store_buffer_slot_for_each_call():
    calls = "    call leaf\n" * 12
    assert _store_buffer_peak(f"main:\n    movi sp, 0x10800\n{calls}    halt\n"
                              "leaf:\n    ret\n.data 0x10000 rw 00\n", 2) == 2


# -- decode once per Program --------------------------------------------------

def test_program_is_decoded_once_across_policies(monkeypatch):
    import specsim.core as core_mod
    decoded = []
    real = core_mod.decode
    monkeypatch.setattr(core_mod, "decode",
                        lambda instr: decoded.append(instr) or real(instr))
    program = assemble(random_program(random.Random(7300), 80))
    for policy in FORWARDING_POLICIES:
        r = run_program(program, FAST.replace(forwarding_policy=policy),
                        regs={31: STACK_TOP})
        assert r.fault is None and not r.timed_out
    assert decoded == program.instructions


def test_decode_memo_is_invisible_to_equality_and_replace():
    src = random_program(random.Random(7301), 40)
    ran, fresh = assemble(src), assemble(src)
    run_program(ran, FAST, regs={31: STACK_TOP})
    assert ran.decoded is not None and fresh.decoded is None
    assert ran == fresh and repr(ran) == repr(fresh)
    shorter = replace(ran, instructions=ran.instructions[:-1])
    assert shorter.decoded is None
    assert replace(ran).decoded is None


def _containers(root) -> int:
    """The tuples, lists and dicts reachable from `root` through containers
    and micro-ops, each counted once."""
    seen, todo, count = set(), [root], 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or not isinstance(obj, (tuple, list, dict, MicroOp)):
            continue
        seen.add(id(obj))
        count += not isinstance(obj, MicroOp)
        todo.extend(gc.get_referents(obj))
    return count


def test_decoded_program_holds_one_micro_op_tuple_per_instruction():
    program = assemble(random_program(random.Random(7300), 80))
    run_program(program, FAST, regs={31: STACK_TOP})
    decoded = program.decoded
    assert type(decoded) is tuple and len(decoded) == len(program.instructions) == 86
    for uops, instr in zip(decoded, program.instructions):
        assert type(uops) is tuple and uops == tuple(decode(instr))
    srcs = {id(uop.srcs) for uops in decoded for uop in uops}
    # the outer tuple, one micro-op tuple per instruction and each distinct
    # source tuple: a wrapper per instruction would add 86 or more
    assert _containers(decoded) == 1 + len(decoded) + len(srcs) == 1 + 86 + 45


# -- tracing ----------------------------------------------------------------------

def test_tracing_off_builds_no_events(monkeypatch):
    import specsim.core as core_mod

    def outcomes():
        reports = [run_scenario(build_scenario(name), SimConfig()).to_dict()
                   for name in sorted(BUILDERS)]
        program = assemble(random_program(random.Random(7302), 120))
        reports.append(run_program(program, FAST, regs={31: STACK_TOP}).to_dict())
        return reports

    before = outcomes()

    def no_events(*args):
        raise AssertionError("trace event built with tracing off")
    monkeypatch.setattr(core_mod, "TraceEvent", no_events)
    assert outcomes() == before


def test_trace_kinds_are_exactly_the_kinds_emitted():
    kinds = set()
    for name in sorted(BUILDERS):
        for policy in FORWARDING_POLICIES:
            r = run_scenario(build_scenario(name),
                             SimConfig(forwarding_policy=policy),
                             policy=ForwardingPolicy(policy), collect_trace=True)
            kinds.update(e.kind for e in r.trace)
    _, r, trace = run_traced("main:\n    movi r1, 0x999000\n    ld.8 r2, [r1]\n"
                             "    halt\n")
    assert r.fault is not None
    kinds.update(e.kind for e in trace)
    assert kinds == set(TRACE_KINDS)


def test_runs_leave_no_reference_cycles():
    """Producer links are dropped when operands are read and on a squash, and
    a run that stops early drops what its ROB still holds: the collector
    finds nothing after every bundled scenario under every policy, random
    programs, a timed-out run and a faulting one."""
    gc.collect()
    gc.disable()
    try:
        for name in sorted(BUILDERS):
            for policy in FORWARDING_POLICIES:
                run_scenario(build_scenario(name), SimConfig(forwarding_policy=policy))
        for seed in range(20):
            program = assemble(random_program(random.Random(7300 + seed), 120))
            for policy in FORWARDING_POLICIES:
                r = run_program(program, FAST.replace(forwarding_policy=policy),
                                regs={31: STACK_TOP})
                assert r.fault is None and not r.timed_out
        r = run_program(program, FAST.replace(cycle_limit=40), regs={31: STACK_TOP})
        assert r.timed_out and r.core.rob
        r = run_program(assemble("""
main:
    movi r1, 0x10000
    ld.8 r2, [r1]
    addi r3, r2, 1
    ld.8 r4, [r3]
    addi r5, r4, 1
    halt
.data 0x10000 rw 00 00 00 01 00 00 00 00
"""), FAST)
        assert r.fault and r.core.rob
        del r
        assert gc.collect() == 0
    finally:
        gc.enable()
