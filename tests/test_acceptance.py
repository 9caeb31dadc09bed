"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is pinned here, not calibrated elsewhere.
"""

import random
import time

import pytest

from specsim import SimConfig, assemble, run_program, run_reference, arch_state
from specsim.config import FORWARDING_POLICIES
from specsim.lsu import ForwardingPolicy
from specsim.scenarios import (MATRIX_SCENARIOS,
                               build_gadget_spectre_1_0,
                               build_gadget_spectre_1_1_control,
                               build_scenario, no_attack_state, run_scenario,
                               warm_whitelist)
from specsim.reference import arch_state
from randprog import random_program, STACK_TOP

CFG = SimConfig()
STORE_ATTACKS = ("spectre_1_1_control", "spectre_1_1_data", "spectre_1_2",
                 "ghost", "halo")


def report(n, text):
    print(f"CRITERION {n:>2} PASS: {text}")


def test_criterion_01_spectre_1_0_all_bytes():
    t0 = time.time()
    for secret in range(256):
        s = build_gadget_spectre_1_0(secret=secret)
        r = run_scenario(s, CFG)
        assert r.inferred_secret == secret, (secret, r.inferred_secret)
        assert r.attack_success is True
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"spectre 1.0 recovered all 256 planted bytes in {elapsed:.1f}s")


def test_criterion_02_fence_bypass_and_store_fence():
    bypass = build_gadget_spectre_1_1_control(mitigation="fence_gadget")
    r1 = run_scenario(bypass, CFG)
    assert r1.attack_success is True
    guarded = build_gadget_spectre_1_1_control(mitigation="fence")
    r2 = run_scenario(guarded, CFG)
    assert r2.attack_success is False
    report(2, "gadget-guarding fence jumped over; store-guarding fence stops 1.1")


def test_criterion_03_exact_mask_vs_bound_overwrite():
    masked = build_gadget_spectre_1_0(mitigation="exact_mask")
    r1 = run_scenario(masked, CFG)
    assert r1.attack_success is False
    r2 = run_scenario(build_scenario("spectre_1_1_data"), CFG)
    assert r2.attack_success is True
    report(3, "exact-masked 1.0 resists direct attack; 1.1 bound overwrite defeats it")


def test_criterion_04_spectre_1_2_tlb_modes():
    outcomes = {}
    for mode in ("lazy", "eager", "forward_zero"):
        cfg = CFG.replace(tlb_enforcement=mode)
        r = run_scenario(build_scenario("spectre_1_2"), cfg, collect_trace=True)
        outcomes[mode] = r
    assert outcomes["lazy"].attack_success is True
    assert outcomes["eager"].attack_success is False
    assert outcomes["forward_zero"].attack_success is False
    fwd = [e for e in outcomes["forward_zero"].trace if e.kind == "forward"]
    assert fwd and all(e.detail.startswith("value=0x0 ") for e in fwd)
    report(4, "1.2 succeeds only under lazy; forward_zero forwards exactly 0")


def test_criterion_05_sloth_matrix():
    cells = 0
    for policy in ("slothbear_stores", "slothbear_loads"):
        cfg = CFG.replace(forwarding_policy=policy)
        for name in STORE_ATTACKS:
            r = run_scenario(build_scenario(name), cfg)
            assert r.attack_success is False, (policy, name)
            cells += 1
    assert cells == 10
    cfg = CFG.replace(forwarding_policy="sloth_marked")
    for name in STORE_ATTACKS:
        assert run_scenario(build_scenario(name), cfg).attack_success is False
    wl = warm_whitelist(CFG)
    cfg = CFG.replace(forwarding_policy="arctic_sloth")
    for name in STORE_ATTACKS:
        cold = run_scenario(build_scenario(name), cfg,
                            policy=ForwardingPolicy("arctic_sloth"))
        warm = run_scenario(build_scenario(name), cfg,
                            policy=ForwardingPolicy("arctic_sloth", set(wl)))
        assert cold.attack_success is False and warm.attack_success is False
    for policy in ("slothbear_stores", "slothbear_loads"):
        cfg = CFG.replace(forwarding_policy=policy)
        r = run_scenario(build_scenario("spectre_1_0"), cfg)
        assert r.attack_success is True, policy
    report(5, "all SLoth variants defeat the 5 store attacks; 1.0 unaffected")


def test_criterion_06_benign_performance_ordering():
    wl = warm_whitelist(CFG)
    cycles = {}
    state = {}
    for policy in FORWARDING_POLICIES:
        cfg = CFG.replace(forwarding_policy=policy)
        pol = ForwardingPolicy(policy, set(wl) if policy == "arctic_sloth" else set())
        t0 = time.time()
        r = run_scenario(build_scenario("benign_spill"), cfg, policy=pol)
        assert time.time() - t0 < 1.0
        assert r.fault is None
        cycles[policy] = r.cycles
        state[policy] = arch_state(r.core.arch_regs, r.core.mem)
    assert len(set(map(str, state.values()))) == 1
    assert (cycles["baseline"] <= cycles["arctic_sloth"]
            <= cycles["sloth_marked"]
            <= min(cycles["slothbear_stores"], cycles["slothbear_loads"]))
    report(6, f"cycle ordering {cycles}")


def test_criterion_07_window_bound():
    far = build_gadget_spectre_1_0(pad_uops=240)
    assert run_scenario(far, CFG).attack_success is False
    mid = build_gadget_spectre_1_0(pad_uops=160)
    assert run_scenario(mid, CFG).attack_success is True
    half = CFG.replace(rob_capacity=112)
    assert run_scenario(mid, half).attack_success is False
    report(7, "payload past the reorder window never executes; 112-entry preset flips")


def test_criterion_08_mshr_persistence_and_bound():
    s = build_gadget_spectre_1_0()
    r = run_scenario(s, CFG)
    # the secret line was touched only by squashed speculative loads
    _, latency = r.core.mem.timed_read(s.secret_addr)
    assert latency == CFG.l1_latency_cycles
    peaks = [r.mshr_peak]
    for name in MATRIX_SCENARIOS:
        peaks.append(run_scenario(build_scenario(name), CFG).mshr_peak)
    amplified = build_gadget_spectre_1_0(amplification=64)
    peaks.append(run_scenario(amplified,
                              CFG.replace(timer_granularity_cycles=3000)).mshr_peak)
    assert all(p <= CFG.mshr_count for p in peaks)
    report(8, f"squashed miss left the line resident; mshr peaks {max(peaks)} <= 10")


def test_criterion_09_timer_amplification():
    gran = 10 * CFG.dram_latency_cycles
    coarse = CFG.replace(timer_granularity_cycles=gran)
    r1 = run_scenario(build_gadget_spectre_1_0(amplification=1), coarse)
    assert r1.inferred_secret is None and r1.attack_success is False
    r64 = run_scenario(build_gadget_spectre_1_0(amplification=64), coarse)
    assert r64.inferred_secret == 0x2A and r64.attack_success is True
    report(9, f"granularity {gran}: amplification 1 gives no signal, 64 recovers")


def test_criterion_10_oracle_equivalence_1000_programs():
    t0 = time.time()
    fast = SimConfig(dram_latency_cycles=20, l1_latency_cycles=2,
                     rob_capacity=64)
    checked = 0
    for seed in range(1000):
        rng = random.Random(90000 + seed)
        program = assemble(random_program(rng, 170))
        assert len(program.instructions) <= 200
        regs = {31: STACK_TOP}
        ref = run_reference(program, fast, regs=regs)
        assert ref.fault is None, (seed, ref.fault)
        want = arch_state(ref.regs, ref.mem)
        for policy in FORWARDING_POLICIES:
            cfg = fast.replace(forwarding_policy=policy)
            r = run_program(program, cfg, regs=regs)
            assert r.fault is None and not r.timed_out
            assert arch_state(r.core.arch_regs, r.core.mem) == want, (seed, policy)
        checked += 1
    elapsed = time.time() - t0
    assert checked == 1000 and elapsed < 60.0, f"took {elapsed:.1f}s"
    report(10, f"1000 programs x {len(FORWARDING_POLICIES)} policies in {elapsed:.1f}s")


def test_criterion_11_architectural_cleanliness():
    checked = 0
    for name in MATRIX_SCENARIOS:
        # squashed attempts under baseline (attack succeeded microarchitecturally)
        s = build_scenario(name)
        r = run_scenario(s, CFG)
        assert r.fault is None
        assert arch_state(r.core.arch_regs, r.core.mem) == no_attack_state(s, CFG)
        checked += 1
        # failed attacks under a blocking policy and under a fence
        cfg = CFG.replace(forwarding_policy="slothbear_stores")
        r2 = run_scenario(s, cfg)
        assert arch_state(r2.core.arch_regs, r2.core.mem) == no_attack_state(s, cfg)
        fenced = build_scenario(name, mitigation="fence")
        r3 = run_scenario(fenced, CFG)
        assert r3.attack_success is False
        assert arch_state(r3.core.arch_regs, r3.core.mem) == no_attack_state(fenced, CFG)
        checked += 2
    report(11, f"{checked} scenario runs committed exactly the in-order state")
