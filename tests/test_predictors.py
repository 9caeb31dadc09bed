import random

from specsim.predictors import (PredictorState, predict_branch, rsb_pop, rsb_push,
                                train_branch)


def test_fresh_state_predicts_not_taken():
    st = PredictorState(table_size=64)
    assert predict_branch(st, 0x40) is False
    assert all(c == 1 for c in st.bht)


def test_counter_three_predicts_taken():
    st = PredictorState(table_size=64)
    st.bht[st.slot(0x40)] = 3
    assert predict_branch(st, 0x40) is True


def test_two_taken_trainings_flip_fresh_state():
    # by hand: 1 -> 2 -> 3 through the saturating counter; taken at >= 2
    st = PredictorState(table_size=64)
    train_branch(st, 0x10, True)
    assert predict_branch(st, 0x10) is True
    train_branch(st, 0x10, True)
    assert st.bht[st.slot(0x10)] == 3


def test_saturation_at_both_ends():
    st = PredictorState(table_size=64)
    st.bht[st.slot(0)] = 3
    train_branch(st, 0, True)
    assert st.bht[st.slot(0)] == 3
    st.bht[st.slot(0)] = 0
    train_branch(st, 0, False)
    assert st.bht[st.slot(0)] == 0
    st.bht[st.slot(0)] = 2
    train_branch(st, 0, False)
    assert st.bht[st.slot(0)] == 1


def test_counter_automaton_against_enumerated_oracle():
    # independent 2-bit automaton, stepped by hand over random outcome strings
    rng = random.Random(3)
    st = PredictorState(table_size=16)
    model = 1
    for _ in range(500):
        outcome = rng.choice((True, False))
        want = model >= 2
        assert predict_branch(st, 0x20) is want
        train_branch(st, 0x20, outcome)
        if outcome:
            model = min(3, model + 1)
        else:
            model = max(0, model - 1)


def test_bht_indexing_wraps_by_table_size():
    st = PredictorState(table_size=16)
    st.bht[st.slot(0x0)] = 3
    assert predict_branch(st, 16 * 4) is True      # aliases slot 0


def test_rsb_lifo():
    st = PredictorState(rsb_depth=16)
    rsb_push(st, 0x100)
    assert rsb_pop(st) == 0x100


def test_rsb_pop_empty_is_unknown():
    st = PredictorState(rsb_depth=16)
    assert rsb_pop(st) is None


def test_rsb_overflow_discards_oldest():
    # enumerate the bounded stack: 17 pushes at depth 16, then 17 pops
    st = PredictorState(rsb_depth=16)
    oracle = []
    for i in range(17):
        rsb_push(st, 0x1000 + 4 * i)
        oracle.append(0x1000 + 4 * i)
        if len(oracle) > 16:
            oracle.pop(0)
    for _ in range(16):
        assert rsb_pop(st) == oracle.pop()
    assert rsb_pop(st) is None


def test_benign_nested_returns_predict_perfectly():
    from specsim import SimConfig, assemble, run_program
    src = """
main:
    movi sp, 0x41000
    call outer
    halt
outer:
    call inner
    call inner
    ret
inner:
    addi r1, r1, 1
    ret
.data 0x40000 rw 00
"""
    p = assemble(src)
    trace = []
    r = run_program(p, SimConfig(), trace=trace)
    assert r.fault is None
    assert not [e for e in trace if e.kind == "resteer"]
    assert r.squash_count == 0
    assert r.core.arch_regs[1] == 2


def test_priming_drives_bounds_check_counter():
    # running the victim with in-bounds inputs trains the check toward
    # falling through (not taken), which is what the attack needs
    from specsim import SimConfig
    from specsim.memory import MemorySystem
    from specsim.lsu import ForwardingPolicy
    from specsim.core import Core
    from specsim.scenarios import build_gadget_spectre_1_0

    s = build_gadget_spectre_1_0()
    cfg = SimConfig()
    mem = MemorySystem(cfg)
    mem.load_program_data(s.victim)
    for base, size, perm in s.regions:
        mem.map_region(base, size, perm)
    mem.map_region(s.probe.base, s.probe.span, "rw")
    pred = PredictorState(cfg.bht_size, cfg.rsb_depth)
    check_pc = s.victim.labels["check"]
    core = Core(s.victim, cfg, mem, pred, ForwardingPolicy("baseline"))
    for _ in range(3):
        core.start(s.benign_regs)
        core.run()
    assert pred.bht[pred.slot(check_pc)] == 0
    assert predict_branch(pred, check_pc) is False
