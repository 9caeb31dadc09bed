import dataclasses
import hashlib
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import specsim
from specsim import SimConfig, assemble, run_reference
from specsim.core import Core
from specsim.lsu import ForwardingPolicy
from specsim.memory import LINE, MemFault, MemorySystem
from specsim.predictors import PredictorState
from specsim.scenarios import (ALL_MITIGATIONS, ARR_B, BUILDERS, MATRIX_SCENARIOS,
                               MITIGATIONS, ProbeSpec, Scenario,
                               build_gadget_spectre_1_0,
                               build_gadget_spectre_1_1_control,
                               FENCE, build_scenario, coarse_mask, exact_mask,
                               flush_probe, insert_at_label, next_pow2,
                               no_attack_state, probe_receive, run_scenario,
                               scenario_from_file, warm_whitelist, PROBE,
                               SECRET_ADDR)
from specsim.reference import arch_state

CFG = SimConfig()

ATTACKS = list(MATRIX_SCENARIOS)
STORE_ATTACKS = ["spectre_1_1_control", "spectre_1_1_data", "spectre_1_2",
                 "ghost", "halo"]
# sha256[:16] of repr(Scenario) for every bundled scenario x mitigation build
# and for spectre_1_0's shapes under each mitigation: a change to a victim,
# its inputs or its mitigation sites shows here
BUILD_REPR_SHA256 = {
    ("spectre_1_0", "none", ()): "8b931eb8b64e6644",
    ("spectre_1_0", "fence", ()): "cf91b697d6509ab4",
    ("spectre_1_0", "coarse_mask", ()): "3460f183a379433d",
    ("spectre_1_0", "exact_mask", ()): "f2b5c16991e55318",
    ("spectre_1_1_control", "none", ()): "27f5940105b20873",
    ("spectre_1_1_control", "fence", ()): "87323d1d814b4947",
    ("spectre_1_1_control", "coarse_mask", ()): "8585ced5758822a2",
    ("spectre_1_1_control", "exact_mask", ()): "ae33d5cdbfdd2618",
    ("spectre_1_1_control", "fence_gadget", ()): "a71dab776f7f2665",
    ("spectre_1_1_rop", "none", ()): "f9d90f1affa05479",
    ("spectre_1_1_rop", "fence", ()): "6f87e86e49d83ece",
    ("spectre_1_1_rop", "coarse_mask", ()): "fad7beb0fae757c4",
    ("spectre_1_1_rop", "exact_mask", ()): "92daf97483a42707",
    ("spectre_1_1_rop", "fence_gadget", ()): "e1676854f3dd2399",
    ("spectre_1_1_data", "none", ()): "f0d5ccb26f7891f5",
    ("spectre_1_1_data", "fence", ()): "af149c97a77c3f95",
    ("spectre_1_1_data", "coarse_mask", ()): "dd2ca8ea570c87df",
    ("spectre_1_1_data", "exact_mask", ()): "b39d9bde95487bf2",
    ("spectre_1_2", "none", ()): "c4cfa90c56ddf881",
    ("spectre_1_2", "fence", ()): "646f990772d967ee",
    ("spectre_1_2", "coarse_mask", ()): "5157d6de14bb9e7d",
    ("spectre_1_2", "exact_mask", ()): "f0b5ff3624af0c5b",
    ("ghost", "none", ()): "c05ad99e8e69b3fa",
    ("ghost", "fence", ()): "1216baf023714ef5",
    ("ghost", "coarse_mask", ()): "15c8b0451cbc4c07",
    ("ghost", "exact_mask", ()): "bfdf40869a1ded06",
    ("halo", "none", ()): "cfffc579ee6a3e5d",
    ("halo", "fence", ()): "f21e46a9b670b43b",
    ("halo", "coarse_mask", ()): "87335ac6d5be8a9b",
    ("halo", "exact_mask", ()): "702c964ed991a2d2",
    ("benign_spill", "none", ()): "636ed6023ea10077",
    ("benign_spill", "fence", ()): "5a4d1b5f5262fe59",
    ("benign_spill", "coarse_mask", ()): "1981d5af40748f6d",
    ("benign_spill", "exact_mask", ()): "6991ad33c1b43a82",
    ("spectre_1_0", "none", (("pad_uops", 3),)): "571c5531f6b1fd73",
    ("spectre_1_0", "fence", (("pad_uops", 3),)): "b2f709af93caecda",
    ("spectre_1_0", "coarse_mask", (("pad_uops", 3),)): "23888e0a0058dc38",
    ("spectre_1_0", "exact_mask", (("pad_uops", 3),)): "0a5dba61c909ca1b",
    ("spectre_1_0", "none", (("pad_uops", 240),)): "71d9b7acdee08766",
    ("spectre_1_0", "fence", (("pad_uops", 240),)): "a5a50f8c96645386",
    ("spectre_1_0", "coarse_mask", (("pad_uops", 240),)): "c14e35ec48e670c5",
    ("spectre_1_0", "exact_mask", (("pad_uops", 240),)): "80677f9a79ed4852",
    ("spectre_1_0", "none", (("amplification", 4),)): "d492b57495b9c0a5",
    ("spectre_1_0", "fence", (("amplification", 4),)): "9e8659c6dab398e6",
    ("spectre_1_0", "coarse_mask", (("amplification", 4),)): "d8dfa98ad276296f",
    ("spectre_1_0", "exact_mask", (("amplification", 4),)): "14dc1f694bc21827",
}
# every bundled scenario x mitigation build: 34 of them
BUNDLED_BUILDS = [(name, mitigation)
                  for name, mitigation, kw in BUILD_REPR_SHA256 if not kw]


@pytest.mark.parametrize("name", ATTACKS)
def test_attack_succeeds_under_baseline(name):
    r = run_scenario(build_scenario(name), CFG)
    assert r.fault is None and not r.timed_out
    assert r.inferred_secret == 0x2A
    assert r.attack_success is True


# expected outcome per (scenario, mitigation) under the baseline policy
MITIGATION_TABLE = {
    "spectre_1_0": {"fence": False, "coarse_mask": False, "exact_mask": False},
    "spectre_1_1_data": {"fence": False, "coarse_mask": True, "exact_mask": False},
    "spectre_1_1_control": {"fence": False, "coarse_mask": True, "exact_mask": False},
    "spectre_1_2": {"fence": False, "coarse_mask": True, "exact_mask": False},
    "ghost": {"fence": False, "coarse_mask": True, "exact_mask": True},
    "halo": {"fence": False, "coarse_mask": True, "exact_mask": False},
}


@pytest.mark.parametrize("name", ATTACKS)
@pytest.mark.parametrize("mitigation", ["fence", "coarse_mask", "exact_mask"])
def test_mitigation_matrix_matches_expected(name, mitigation):
    want = MITIGATION_TABLE[name][mitigation]
    s = build_scenario(name, mitigation=mitigation)
    assert (s.expected == "attack_succeeds") == want
    r = run_scenario(s, CFG)
    assert r.fault is None
    assert r.attack_success is want


@pytest.mark.parametrize("name", BUILDERS)
def test_mitigation_without_site_raises(name):
    with pytest.raises(ValueError, match="no 'bogus' site"):
        build_scenario(name, mitigation="bogus")
    if (name, "fence_gadget") not in BUNDLED_BUILDS:
        with pytest.raises(ValueError, match="no 'fence_gadget' site"):
            build_scenario(name, mitigation="fence_gadget")


def test_secret_inside_checked_region_raises():
    with pytest.raises(ValueError, match="checked array region"):
        Scenario(name="x", victim=assemble("halt\n"), secret_addr=ARR_B + 4)


def test_unknown_expected_outcome_raises():
    with pytest.raises(ValueError, match="expected must be attack_succeeds or "
                                         "attack_fails, got 'leaks'"):
        Scenario(name="x", victim=assemble("halt\n"), expected="leaks")


def test_no_attack_state_refuses_a_victim_whose_reference_faults():
    victim = assemble("main:\n    movi r1, 0x900000\n    ld.8 r2, [r1]\n    halt\n")
    with pytest.raises(RuntimeError, match="faulty: the in-order reference faulted: "
                                           "unmapped_load pc=0x4 addr=0x900000"):
        no_attack_state(Scenario("faulty", victim), CFG)


def test_no_attempts_still_writes_the_attackers_memory_once_priming_is_over():
    # spectre_1_1_rop's attacker plants g2's address at the stack top, 0x40800
    s = dataclasses.replace(build_scenario("spectre_1_1_rop"), attempts=0)
    assert s.attack_mem == [(0x40800, 8, s.victim.labels["g2"])]
    r = run_scenario(s, CFG)
    assert r.fault is None and not r.timed_out and r.attack_success is False
    regs, pages = no_attack_state(s, CFG)
    assert arch_state(r.core.arch_regs, r.core.mem) == (regs, pages)
    planted = s.victim.labels["g2"].to_bytes(8, "little")
    assert pages[0x40000][0x800:0x808] == planted
    assert r.core.mem.read_int(0x40800, 8) == s.victim.labels["g2"]


@pytest.mark.parametrize("policy", ["slothbear_stores", "slothbear_loads",
                                    "sloth_marked", "arctic_sloth"])
@pytest.mark.parametrize("name", STORE_ATTACKS)
def test_sloth_policies_defeat_store_attacks(policy, name):
    cfg = CFG.replace(forwarding_policy=policy)
    r = run_scenario(build_scenario(name), cfg)
    assert r.attack_success is False


@pytest.mark.parametrize("policy", ["slothbear_stores", "slothbear_loads"])
def test_slothbear_does_not_stop_plain_load_bypass(policy):
    cfg = CFG.replace(forwarding_policy=policy)
    r = run_scenario(build_scenario("spectre_1_0"), cfg)
    assert r.attack_success is True


def test_arctic_warmed_whitelist_still_defeats_attacks():
    wl = warm_whitelist(CFG)
    assert wl      # the benchmark's spill loads were learned
    cfg = CFG.replace(forwarding_policy="arctic_sloth")
    for name in STORE_ATTACKS:
        r = run_scenario(build_scenario(name), cfg,
                         policy=ForwardingPolicy("arctic_sloth", set(wl)))
        assert r.attack_success is False, name


def test_arctic_learning_soundness():
    # learning happens only at retirement of loads that consumed forwarded
    # data; under a cold arctic policy nothing forwards, so nothing is learned
    cfg = CFG.replace(forwarding_policy="arctic_sloth")
    pol = ForwardingPolicy("arctic_sloth")
    run_scenario(build_scenario("benign_spill"), cfg, policy=pol)
    assert pol.whitelist == set()
    # under baseline, exactly the spill loads are learned
    base_pol = ForwardingPolicy("baseline")
    s = build_scenario("benign_spill")
    run_scenario(s, CFG, policy=base_pol)
    spill_pcs = {i.pc for i in s.victim.instructions
                 if i.mnemonic.startswith("ld.") and i.forwardable}
    assert base_pol.whitelist == spill_pcs


def test_spectre_1_2_depends_on_tlb_enforcement():
    for mode, want in (("lazy", True), ("eager", False), ("forward_zero", False)):
        cfg = CFG.replace(tlb_enforcement=mode)
        r = run_scenario(build_scenario("spectre_1_2"), cfg, collect_trace=True)
        assert r.attack_success is want, mode
        if mode == "forward_zero":
            zer = [e for e in r.trace
                   if e.kind == "forward" and e.detail.startswith("value=0x0 ")]
            assert zer


def test_ghost_needs_store_forwarding():
    r = run_scenario(build_scenario("ghost"),
                     CFG.replace(forwarding_policy="slothbear_stores"))
    assert r.attack_success is False


def test_rop_chain_variant():
    r = run_scenario(build_scenario("spectre_1_1_rop"), CFG)
    assert r.attack_success is True
    r2 = run_scenario(build_scenario("spectre_1_1_rop"),
                      CFG.replace(forwarding_policy="slothbear_stores"))
    assert r2.attack_success is False


def test_fence_bypass_by_jumping_over():
    s = build_gadget_spectre_1_1_control(mitigation="fence_gadget")
    assert run_scenario(s, CFG).attack_success is True
    s2 = build_gadget_spectre_1_1_control(mitigation="fence")
    assert run_scenario(s2, CFG).attack_success is False


def test_window_sensitivity_resident_bound():
    # the bound stays cached, so the check resolves before the store can run
    s = dataclasses.replace(build_gadget_spectre_1_1_control(), slow_lines=[])
    assert run_scenario(s, CFG).attack_success is False


def test_window_bound_scenarios():
    far = build_gadget_spectre_1_0(pad_uops=240)
    assert run_scenario(far, CFG).attack_success is False
    mid = build_gadget_spectre_1_0(pad_uops=160)
    assert run_scenario(mid, CFG).attack_success is True
    assert run_scenario(mid, CFG.replace(rob_capacity=112)).attack_success is False


def traced_runs(monkeypatch) -> list:
    """Give every run a scenario starts its own trace, priming runs included;
    returns the list of those traces, one per run. The start a `Core` makes
    as it is built is no run: it passes no regs, and a scenario always does."""
    runs = []
    start = Core.start

    def traced(core, regs=None, trace=None):
        if regs is not None:
            runs.append(trace := [])
        start(core, regs, trace)
    monkeypatch.setattr(Core, "start", traced)
    return runs


def squashed_forwards(trace) -> list:
    """The forward events of one run whose store that run squashed. Seqs
    count from 0 in every run, so a trace must hold one run only."""
    squashed = {ev.seq for ev in trace if ev.kind == "squash"}
    return [ev for ev in trace if ev.kind == "forward"
            and int(ev.detail.rsplit("from_seq=", 1)[1]) in squashed]


def test_security_property_slothbear_never_uses_squashed_stores(monkeypatch):
    runs = traced_runs(monkeypatch)
    for policy in ("slothbear_stores", "slothbear_loads"):
        cfg = CFG.replace(forwarding_policy=policy)
        for name in ATTACKS:
            runs.clear()
            s = build_scenario(name)
            run_scenario(s, cfg)
            assert len(runs) == s.priming + s.attempts, (policy, name)
            assert not any(squashed_forwards(t) for t in runs), (policy, name)
    # power: the same check sees baseline forward a store it then squashes
    runs.clear()
    run_scenario(build_scenario("spectre_1_1_control"), CFG)
    assert any(squashed_forwards(t) for t in runs)


def test_architectural_cleanliness():
    # failed attacks and squashed attempts leave committed state equal to the
    # in-order machine on the same inputs
    cases = [(name, "baseline") for name in ATTACKS]
    cases += [(name, "slothbear_stores") for name in STORE_ATTACKS]
    for name, policy in cases:
        cfg = CFG.replace(forwarding_policy=policy)
        s = build_scenario(name)
        r = run_scenario(s, cfg)
        assert r.fault is None
        got = arch_state(r.core.arch_regs, r.core.mem)
        assert got == no_attack_state(s, cfg), (name, policy)


def test_a_policy_that_contradicts_the_config_is_rejected():
    # the report's config digest names cfg's policy, so the LSU may obey no other
    with pytest.raises(ValueError, match="forwarding policy 'slothbear_stores' does "
                                         "not match the config's forwarding_policy "
                                         "'baseline'"):
        run_scenario(build_scenario("spectre_1_1_data"), CFG,
                     policy=ForwardingPolicy("slothbear_stores"))
    with pytest.raises(ValueError, match="'baseline' does not match .* 'arctic_sloth'"):
        Core(assemble("main:\n    halt\n"), CFG.replace(forwarding_policy="arctic_sloth"),
             MemorySystem(CFG), PredictorState(), ForwardingPolicy())


# -- mitigation code and its insertion -----------------------------------------

def test_next_pow2_values():
    assert next_pow2(4096) == 4096
    assert next_pow2(5000) == 8192
    assert next_pow2(1) == 1


def test_coarse_mask_inserts_and_of_next_pow2():
    p = assemble("main:\n    movi r1, 0\nsite:\n    ld.8 r2, [r1]\n    halt\n"
                 ".data 0 rw 00\n")
    t1 = insert_at_label(p, "site", coarse_mask(1, 4096))
    assert t1.instructions[1].mnemonic == "andi"
    assert t1.instructions[1].operands[2].value == 0xFFF
    t2 = insert_at_label(p, "site", coarse_mask(1, 5000))
    assert t2.instructions[1].operands[2].value == 0x1FFF


@pytest.mark.parametrize("index,bound,want", [(3, 16, 3), (100, 16, 0),
                                              (15, 16, 15), (16, 16, 0)])
def test_exact_mask_truncates_on_overflow(index, bound, want):
    src = f"""
main:
    movi r1, {index}
    movi r2, {bound}
site:
    mov r3, r1
    halt
"""
    p = insert_at_label(assemble(src), "site", exact_mask(1, 2))
    ref = run_reference(p, CFG)
    assert ref.fault is None
    assert ref.regs[3] == want


def test_fence_transform_preserves_semantics_and_adds_cycles():
    plain = build_scenario("benign_spill")
    fenced = build_scenario("benign_spill", mitigation="fence")
    r1 = run_scenario(plain, CFG)
    r2 = run_scenario(fenced, CFG)
    assert arch_state(r1.core.arch_regs, r1.core.mem) == \
        arch_state(r2.core.arch_regs, r2.core.mem)
    assert r2.cycles > r1.cycles


def test_insertion_relocates_labels_and_targets():
    p = assemble("""
main:
    movi r1, tail
    movi r2, 6
    addi r3, r3, 20
    jmp site
site:
    call tail
tail:
    halt
""")
    # the label at the site names the fence; the call target and the movi of
    # `tail` move past it; plain immediates, even one equal to an address, stay
    want = assemble("""
main:
    movi r1, tail
    movi r2, 6
    addi r3, r3, 20
    jmp site
site:
    fence
    call tail
tail:
    halt
""")
    got = insert_at_label(p, "site", FENCE)
    assert got == want
    assert got.labels == {"main": 0, "site": 16, "tail": 24}
    assert got.instructions[0].operands[1].value == 24
    assert got.instructions[2].operands[2].value == 20


def test_insertion_moves_only_operands_written_as_labels():
    # `movi r1, 12` equals tail's address but names no label: it must stay;
    # `addi r3, r3, tail` names one in a non-movi immediate: it must move
    p = assemble("main:\n    movi r1, 12\n    movi r2, 0x10\nsite:\n"
                 "    ld.8 r2, [r1]\ntail:\n    halt\n    addi r3, r3, tail\n")
    assert p.labels["tail"] == 12
    got = insert_at_label(p, "site", FENCE)
    assert got.labels["tail"] == 16
    assert [ins.mnemonic for ins in got.instructions] == [
        "movi", "movi", "fence", "ld.8", "halt", "addi"]
    assert [got.instructions[i].operands[-1].value for i in (0, 1, 5)] == [12, 0x10, 16]


def test_transform_unknown_label():
    p = assemble("main:\n    halt\n")
    with pytest.raises(ValueError, match="unknown label"):
        insert_at_label(p, "nowhere", FENCE)


# -- receiver ---------------------------------------------------------------

def line_addr(spec: ProbeSpec, entry: int, k: int) -> int:
    """The address of probe entry `entry`'s `k`-th amplified line."""
    return spec.base + (entry * spec.amplification + k) * spec.stride


def _mem_with_resident_entry(spec, resident_entry, cfg):
    mem = MemorySystem(cfg)
    mem.map_region(spec.base, spec.span, "rw")
    for k in range(spec.amplification):
        res = mem.access(line_addr(spec, resident_entry, k), 0)
        mem.tick(res.ready_cycle)
    return mem


def test_probe_receive_fine_timer():
    spec = ProbeSpec()
    mem = _mem_with_resident_entry(spec, 0x2A, CFG)
    # independent oracle: compute every coarsened reading directly
    expect = [CFG.l1_latency_cycles if i == 0x2A else CFG.dram_latency_cycles
              for i in range(256)]
    assert min(expect) == CFG.l1_latency_cycles and expect.count(4) == 1
    assert probe_receive(mem, spec, CFG) == 0x2A


def test_probe_receive_coarse_timer_no_signal():
    cfg = CFG.replace(timer_granularity_cycles=10 * CFG.dram_latency_cycles)
    spec = ProbeSpec()
    mem = _mem_with_resident_entry(spec, 0x2A, cfg)
    gran = cfg.timer_granularity_cycles
    coarsened = {(lat // gran) * gran
                 for lat in (cfg.l1_latency_cycles, cfg.dram_latency_cycles)}
    assert coarsened == {0}          # exhaustive: all readings coarsen equal
    assert probe_receive(mem, spec, cfg) is None


def test_probe_receive_amplified_coarse_timer():
    cfg = CFG.replace(timer_granularity_cycles=10 * CFG.dram_latency_cycles)
    spec = ProbeSpec(amplification=64)
    mem = _mem_with_resident_entry(spec, 0x2A, cfg)
    gran = cfg.timer_granularity_cycles
    hit_total = 64 * cfg.l1_latency_cycles
    miss_total = 64 * cfg.dram_latency_cycles
    assert (hit_total // gran) * gran != (miss_total // gran) * gran
    assert probe_receive(mem, spec, cfg) == 0x2A


def test_flush_probe_clears_whole_region():
    spec = ProbeSpec()
    mem = _mem_with_resident_entry(spec, 7, CFG)
    flush_probe(mem, spec)
    assert probe_receive(mem, spec, CFG) is None


def test_an_unaligned_probe_is_flushed_from_the_line_holding_entry_0(tmp_path):
    """A probe_base inside a line: the line that holds probe entry 0 is
    flushed too, so a priming run's fill of it cannot tie with the secret's
    entry."""
    data = resources.files("specsim") / "data"
    text = (data / "spectre_1_1_data.scenario").read_text()
    assert text.count("0x100000") == 3         # probe_base, reg.r12, benign_reg.r12
    (tmp_path / "unaligned.scenario").write_text(text.replace("0x100000", "0x100020"))
    (tmp_path / "spectre_1_1_data.asm").write_text(
        (data / "spectre_1_1_data.asm").read_text())
    for secret in (42, 0, 7, 200):
        s = scenario_from_file(str(tmp_path / "unaligned.scenario"), secret=secret)
        assert s.probe.base == 0x100020
        assert run_scenario(s, CFG).inferred_secret == secret, secret


def _reference_timed_read(mem, addr):
    """The per-line receiver primitive: permission check, then presence."""
    perm = mem.tlb.get(addr & ~0xFFF)
    if perm is None or not perm[0]:
        raise MemFault(f"timed_read of unmapped/unreadable {addr:#x}")
    return (mem.cfg.l1_latency_cycles if (addr & ~(LINE - 1)) in mem.lines
            else mem.cfg.dram_latency_cycles)


def _reference_receive(mem, spec, cfg):
    """The receiver as one timed read per probe line, in (entry, k) order."""
    gran = cfg.timer_granularity_cycles
    readings = []
    for i in range(spec.entries):
        total = 0
        for k in range(spec.amplification):
            total += _reference_timed_read(mem, line_addr(spec, i, k))
        readings.append((total // gran) * gran)
    lowest = min(readings)
    midpoint = spec.amplification * (cfg.l1_latency_cycles + cfg.dram_latency_cycles) // 2
    if lowest >= midpoint or readings.count(lowest) != 1:
        return None
    return readings.index(lowest)


def _random_probe_state(rng, spec, cfg):
    """A probe array in a random L1 state: no hot entry, one, or several, each
    with all or some of its lines, plus stray probe lines and unrelated lines."""
    mem = MemorySystem(cfg)
    mem.map_region(spec.base, spec.span, "rw")
    hot = rng.sample(range(spec.entries), min(spec.entries, rng.choice([0, 1, 1, 3])))
    lines = [line_addr(spec, i, k) for i in hot
             for k in range(spec.amplification) if rng.random() < 0.9]
    lines += [line_addr(spec, rng.randrange(spec.entries),
                             rng.randrange(spec.amplification))
              for _ in range(rng.randrange(4))]
    lines += [rng.randrange(0x10000, 0x80000) for _ in range(rng.randrange(20))]
    rng.shuffle(lines)
    for cycle, addr in enumerate(lines):
        res = mem.access(addr, cycle)
        mem.tick(max(res.ready_cycle, cycle))
    return mem


@pytest.mark.parametrize("unaligned", [False, True])
@pytest.mark.parametrize("stride", [64, 512, 4160])
@pytest.mark.parametrize("gran", [1, 3000])
@pytest.mark.parametrize("amplification", [1, 4, 64])
def test_probe_receive_matches_the_per_line_receiver(amplification, gran, stride,
                                                     unaligned):
    rng = random.Random(f"{amplification}/{gran}/{stride}/{unaligned}")
    cfg = CFG.replace(timer_granularity_cycles=gran)
    for _ in range(6):
        base = PROBE + (rng.randrange(1, LINE) if unaligned else 0)
        spec = ProbeSpec(base=base, stride=stride, entries=rng.choice([1, 2, 37, 256]),
                         amplification=amplification)
        mem = _random_probe_state(rng, spec, cfg)
        lines, sets = dict(mem.lines), {i: list(s) for i, s in mem.sets.items()}
        assert probe_receive(mem, spec, cfg) == _reference_receive(mem, spec, cfg)
        assert mem.lines == lines and mem.sets == sets and not mem.mshrs
        addr = line_addr(spec, rng.randrange(spec.entries), rng.randrange(amplification))
        assert mem.timed_read(addr)[1] == _reference_timed_read(mem, addr)


@pytest.mark.parametrize("perm", [None, (False, True)])
def test_probe_receive_faults_like_the_per_line_receiver(perm):
    spec = ProbeSpec(stride=4160, amplification=4)
    rng = random.Random(7)
    for _ in range(5):
        mem = _mem_with_resident_entry(spec, 0x2A, CFG)
        pages = {a & ~0xFFF for a in range(spec.base, spec.base + spec.span, spec.stride)}
        for page in rng.sample(sorted(pages), 2):
            if perm is None:
                del mem.tlb[page]
            else:
                mem.tlb[page] = perm
        with pytest.raises(MemFault) as want:
            _reference_receive(mem, spec, CFG)
        with pytest.raises(MemFault) as got:
            probe_receive(mem, spec, CFG)
        assert str(got.value) == str(want.value)


def _per_address_receive(mem, spec, cfg):
    """The receiver as the per-address formula it replaced: one read check per
    probe page (ascending), one latency per probe address, sums over runs of
    `amplification` addresses coarsened by `// gran * gran`, and the unique
    minimum below the hit/miss midpoint."""
    addrs = range(spec.base, spec.base + spec.span, spec.stride)
    for page in sorted({a & ~0xFFF for a in addrs}):
        if not mem.permits(page, write=False):
            addr = next(a for a in addrs if a & ~0xFFF == page)
            raise MemFault(f"timed_read of unmapped/unreadable {addr:#x}")
    hit, miss = cfg.l1_latency_cycles, cfg.dram_latency_cycles
    lat = [hit if a & ~(LINE - 1) in mem.lines else miss for a in addrs]
    gran, amp = cfg.timer_granularity_cycles, spec.amplification
    readings = [(sum(run) // gran) * gran for run in zip(*[iter(lat)] * amp)]
    lowest = min(readings)
    if lowest >= amp * (hit + miss) // 2 or readings.count(lowest) != 1:
        return None
    return readings.index(lowest)


def _lines_around_the_probe(rng, spec):
    """Lines in L1 at probe time: whole or partial hot entries, stray probe
    lines, lines inside the probe span that hold no probe address (between
    strided lines, or misaligned to them), the lines just below and above
    the array, and lines far outside it."""
    lines = []
    for entry in rng.sample(range(spec.entries), min(spec.entries, rng.choice([0, 1, 1, 2]))):
        lines += [line_addr(spec, entry, k) for k in range(spec.amplification)
                  if rng.random() < 0.8]
    for _ in range(rng.randrange(4)):
        lines.append(line_addr(spec, rng.randrange(spec.entries),
                                    rng.randrange(spec.amplification)))
    for _ in range(rng.randrange(6)):
        lines.append(line_addr(spec, rng.randrange(spec.entries),
                                    rng.randrange(spec.amplification))
                     + rng.choice([LINE, -LINE, spec.stride // 2, rng.randrange(LINE, 4096)]))
    lines += [spec.base - LINE, spec.base - 1, spec.base + spec.span,
              spec.base + spec.span + LINE]
    lines += [rng.randrange(0x10000, 0x80000) for _ in range(rng.randrange(8))]
    return lines


@pytest.mark.parametrize("stride", [64, 512, 4096, 8192])
@pytest.mark.parametrize("gran", [1, 7, 64, 1000])
@pytest.mark.parametrize("amplification", [1, 2, 4, 8])
def test_probe_receive_matches_the_per_address_formula(amplification, gran, stride):
    rng = random.Random(f"{amplification}/{gran}/{stride}")
    cfg = CFG.replace(timer_granularity_cycles=gran)
    for entries in (1, 3, 256):
        for _ in range(3):
            base = PROBE + rng.choice([0, 0, rng.randrange(1, LINE), rng.randrange(LINE, 4096)])
            spec = ProbeSpec(base=base, stride=stride, entries=entries,
                             amplification=amplification)
            mem = MemorySystem(cfg)
            mem.map_region(0x10000, 0x80000, "rw")
            mem.map_region(spec.base - 4096, spec.span + 8192, "rw")
            for cycle, addr in enumerate(_lines_around_the_probe(rng, spec)):
                res = mem.access(addr, cycle)
                mem.tick(max(res.ready_cycle, cycle))
            lines, sets = dict(mem.lines), {i: list(s) for i, s in mem.sets.items()}
            got = probe_receive(mem, spec, cfg)
            assert got == _per_address_receive(mem, spec, cfg)
            assert mem.lines == lines and mem.sets == sets and not mem.mshrs


@pytest.mark.parametrize("entries", [1, 2, 256])
def test_probe_receive_coarse_timer_ties_every_entry(entries):
    cfg = CFG.replace(timer_granularity_cycles=10 * 4 * CFG.dram_latency_cycles)
    spec = ProbeSpec(entries=entries, amplification=4)
    mem = _mem_with_resident_entry(spec, entries - 1, cfg)
    assert len(mem.lines) == 4
    # every entry reads 0, below the midpoint: one entry is found, more tie
    want = 0 if entries == 1 else None
    assert probe_receive(mem, spec, cfg) == _per_address_receive(mem, spec, cfg) == want


@pytest.mark.parametrize("perm", [None, (False, True)])
@pytest.mark.parametrize("stride", [64, 512, 4096, 8192])
def test_probe_receive_faults_like_the_per_address_formula(stride, perm):
    rng = random.Random(stride)
    for _ in range(4):
        spec = ProbeSpec(base=PROBE + rng.choice([0, rng.randrange(1, 4096)]),
                         stride=stride, entries=rng.choice([1, 3, 256]),
                         amplification=rng.choice([1, 2, 8]))
        mem = _mem_with_resident_entry(spec, 0, CFG)
        pages = sorted({a & ~0xFFF for a in range(spec.base, spec.base + spec.span,
                                                  spec.stride)})
        for page in rng.sample(pages, min(2, len(pages))):
            if perm is None:
                del mem.tlb[page]
            else:
                mem.tlb[page] = perm
        with pytest.raises(MemFault) as want:
            _per_address_receive(mem, spec, CFG)
        with pytest.raises(MemFault) as got:
            probe_receive(mem, spec, CFG)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_each_run_of_a_scenario_gets_the_whole_cycle_limit(monkeypatch, name):
    """A scenario's runs share one core and its clock, but the cycle limit
    bounds each run: a limit just above the longest run times none out."""
    lengths = []
    run = Core.run

    def measured(core):
        begin = core.cycle
        report = run(core)
        lengths.append(core.cycle - begin)
        return report
    monkeypatch.setattr(Core, "run", measured)
    s = build_scenario(name)
    want = run_scenario(s, CFG)
    assert len(lengths) == s.priming + s.attempts and not want.timed_out
    cfg = CFG.replace(cycle_limit=max(lengths) + 1)
    got = run_scenario(s, cfg)
    # the limit bounds a run, not the scenario: with two runs or more, the
    # scenario takes longer than the limit
    assert got.cycles > cfg.cycle_limit or s.priming + s.attempts == 1
    assert not got.timed_out and got.to_dict() == dataclasses.replace(
        want, config_digest=cfg.digest()).to_dict()


def test_report_state_is_set_when_priming_faults(monkeypatch):
    runs = []
    start = Core.start

    def counted(core, regs=None, trace=None):
        if regs is not None:            # not the start of a core being built
            runs.append(trace)
        start(core, regs, trace)
    monkeypatch.setattr(Core, "start", counted)
    victim = assemble("main:\n    movi r1, 0x900000\n    ld.8 r2, [r1]\n    halt\n")
    r = run_scenario(Scenario("faulty", victim, probe=ProbeSpec()), CFG,
                     collect_trace=True)
    assert r.fault and "unmapped_load" in r.fault
    assert r.attack_success is None
    assert r.core.fault == r.fault and r.core.mem.permits(PROBE, write=False)
    assert r.trace == []               # priming runs are not traced
    assert runs == [None]              # the schedule stops at the first fault


def test_no_signal_reported_as_failure():
    cfg = CFG.replace(timer_granularity_cycles=3000)
    r = run_scenario(build_gadget_spectre_1_0(), cfg)
    assert r.inferred_secret is None and r.attack_success is False


# -- scenario files -----------------------------------------------------------

def test_scenario_from_file_runs(tmp_path):
    asm = tmp_path / "victim.asm"
    asm.write_text(f"""
main:
    movi r1, 0x10000
    ld.8 r2, [r1]
    cmp r10, r2
check:
    jae done
    add r3, r11, r10
    ld.1 r4, [r3]
    shli r4, r4, 9
    add r5, r12, r4
    ld.1 r6, [r5]
done:
    halt
.data 0x10000 rw 10 00 00 00 00 00 00 00
""")
    sf = tmp_path / "attack.scenario"
    sf.write_text(f"""
name = custom_1_0
program = {asm}
secret_addr = {hex(SECRET_ADDR)}
secret_value = 0x5C
probe_base = {hex(PROBE)}
reg.r10 = 0x1800
reg.r11 = 0x20000
reg.r12 = {hex(PROBE)}
benign_reg.r10 = 2
benign_reg.r11 = 0x20000
benign_reg.r12 = {hex(PROBE)}
map.0x20000.0x2000 = rw
flush = 0x10000
prime.check = not_taken
leaks = none
""")
    s = scenario_from_file(str(sf))
    assert s.name == "custom_1_0" and s.expected == "attack_succeeds"
    r = run_scenario(s, CFG)
    assert r.inferred_secret == 0x5C and r.attack_success is True


def test_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("name = x\n")
    with pytest.raises(ValueError, match="missing program"):
        scenario_from_file(str(bad))


@pytest.mark.parametrize("value", ["0", "-1"])
def test_scenario_file_rejects_probe_entries_below_one(tmp_path, value):
    asm = tmp_path / "victim.asm"
    asm.write_text("main:\n    halt\n")
    bad = tmp_path / "bad.scenario"
    bad.write_text(f"program = {asm}\nprobe_base = {hex(PROBE)}\nprobe_entries = {value}\n")
    with pytest.raises(ValueError, match="probe entries must be >= 1"):
        scenario_from_file(str(bad))


@pytest.mark.parametrize("value", ["0x1FF", "256", "-1"])
def test_scenario_file_rejects_a_secret_wider_than_a_byte(tmp_path, value):
    asm = tmp_path / "victim.asm"
    asm.write_text("main:\n    halt\n")
    bad = tmp_path / "bad.scenario"
    bad.write_text(f"program = {asm}\nsecret_value = {value}\n")
    with pytest.raises(ValueError, match="secret_value must be a byte"):
        scenario_from_file(str(bad))


@pytest.mark.parametrize("kw", [{"secret": 999}, {"secret": -1}, {"secret": 0x100},
                                {"pad_uops": -1}, {"amplification": 3},
                                {"amplification": 5}, {"amplification": 6},
                                {"pad_uops": 65537}])
def test_builder_rejects_out_of_range_options(kw):
    with pytest.raises(ValueError, match="secret_value must be a byte|pad_uops"
                                         "|amplification must be a power of two"):
        build_scenario("spectre_1_0", **kw)
    for name in BUILDERS:
        if "secret" in kw and name != "benign_spill":
            with pytest.raises(ValueError, match="secret_value must be a byte"):
                build_scenario(name, **kw)


@pytest.mark.parametrize("key", ["atempts", "reg", "flush.0x10000", "probe.base"])
def test_scenario_file_rejects_unknown_keys(tmp_path, key):
    asm = tmp_path / "victim.asm"
    asm.write_text("main:\n    halt\n")
    bad = tmp_path / "bad.scenario"
    bad.write_text(f"program = {asm}\n{key} = 5\n")
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        scenario_from_file(str(bad))


def test_bundled_victims_roundtrip_through_printer():
    from specsim import disassemble
    for name, mitigation in BUNDLED_BUILDS:
        p = build_scenario(name, mitigation=mitigation).victim
        assert assemble(disassemble(p)) == p, (name, mitigation)


def test_config_file_parsing_errors():
    from specsim.config import parse_config_file
    assert parse_config_file("rob_capacity = 112\n# note\n") == {"rob_capacity": 112}
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_file("frobnication=9\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_file("just words\n")


# -- one shared victim per (scenario, shape, mitigation) -------------------------

def test_every_secret_shares_one_decoded_victim():
    first = build_scenario("spectre_1_0", secret=1)
    run_scenario(first, CFG)
    second = build_scenario("spectre_1_0", secret=2)
    assert second.victim is first.victim
    assert second.victim.decoded is first.victim.decoded is not None
    assert build_scenario("spectre_1_0", secret=1).victim is first.victim
    assert (first.secret_value, second.secret_value) == (1, 2)
    assert run_scenario(second, CFG).inferred_secret == 2


@pytest.mark.parametrize("one,other", [
    (("spectre_1_0", {}), ("spectre_1_0", {"mitigation": "fence"})),
    (("spectre_1_0", {"mitigation": "coarse_mask"}),
     ("spectre_1_0", {"mitigation": "exact_mask"})),
    (("spectre_1_0", {}), ("spectre_1_0", {"pad_uops": 3})),
    (("spectre_1_0", {}), ("spectre_1_0", {"amplification": 4})),
    (("spectre_1_1_control", {}), ("spectre_1_1_rop", {})),
    (("spectre_1_1_control", {"mitigation": "fence_gadget"}),
     ("spectre_1_1_rop", {"mitigation": "fence_gadget"})),
])
def test_distinct_victims_are_distinct_programs(one, other):
    a, b = (build_scenario(name, **kw) for name, kw in (one, other))
    assert a.victim is not b.victim and a.victim != b.victim


def test_runs_leave_every_shared_victim_as_built(monkeypatch):
    import specsim.scenarios as sc
    from specsim.isa import decode
    cached = sc._victim
    keys = set()

    def spy(*key):
        keys.add(key)
        return cached(*key)
    monkeypatch.setattr(sc, "_victim", spy)
    for name, mitigation in BUNDLED_BUILDS:
        for policy in ("baseline", "slothbear_stores"):
            run_scenario(build_scenario(name, mitigation=mitigation),
                         CFG.replace(forwarding_policy=policy),
                         policy=ForwardingPolicy(policy))
    assert len(keys) == len(BUNDLED_BUILDS) == 34
    assert len(keys) <= cached.cache_info().maxsize
    for key in keys:
        shared, fresh = cached(*key), cached.__wrapped__(*key)
        assert shared is cached(*key) and shared[0] is not fresh[0]
        assert shared == fresh and repr(shared) == repr(fresh), key
        assert shared[0].decoded == tuple(map(decode, fresh[0].instructions)), key


@pytest.mark.parametrize("name,mitigation", [("spectre_1_0", "none"),
                                             ("spectre_1_1_rop", "fence_gadget"),
                                             ("halo", "exact_mask"),
                                             ("benign_spill", "none")])
def test_a_scenario_run_twice_reports_and_traces_the_same(name, mitigation):
    runs = [run_scenario(build_scenario(name, mitigation=mitigation), CFG,
                         collect_trace=True) for _ in range(2)]
    assert runs[0].to_dict() == runs[1].to_dict()
    assert runs[0].trace == runs[1].trace and runs[0].trace


def _sha(scenario) -> str:
    return hashlib.sha256(repr(scenario).encode()).hexdigest()[:16]


def test_bundled_builds_match_their_recorded_repr():
    for (name, mitigation, kw), want in BUILD_REPR_SHA256.items():
        assert _sha(build_scenario(name, mitigation=mitigation, **dict(kw))) == want, \
            (name, mitigation, kw)
    # every other scenario x mitigation has no site
    for name in BUILDERS:
        for mitigation in ALL_MITIGATIONS:
            if (name, mitigation) not in BUNDLED_BUILDS:
                with pytest.raises(ValueError, match="has no .* site"):
                    build_scenario(name, mitigation=mitigation)


SITED_VICTIM = """
main:
    movi r1, 0x10000
    ld.8 r2, [r1]
site:
    add r3, r2, r4
    halt
tail:
    halt
.data 0x10000 rw 10 00 00 00 00 00 00 00
"""


def _sited_file(tmp_path, lines: str):
    (tmp_path / "victim.asm").write_text(SITED_VICTIM)
    sf = tmp_path / "sited.scenario"
    sf.write_text("name = sited\nprogram = victim.asm\n" + lines)
    return str(sf)


def test_scenario_file_labels_resolve_against_the_mitigated_victim(tmp_path):
    path = _sited_file(tmp_path, "reg.r5 = @tail\nbenign_reg.r5 = @tail+4\n"
                                 "mem.0x10008.8 = @site+0x10\nprime.site = taken\n"
                                 "site.fence = site\n")
    plain = scenario_from_file(path)
    fenced = scenario_from_file(path, mitigation="fence")
    for s, tail in ((plain, 16), (fenced, 20)):
        assert s.victim.labels["tail"] == tail
        assert s.attack_regs == {5: tail} and s.benign_regs == {5: tail + 4}
        assert s.attack_mem == [(0x10008, 8, s.victim.labels["site"] + 0x10)]
        assert s.prime_branches == [(s.victim.labels["site"], True)]
    assert fenced.name == "sited+fence"
    assert fenced.victim.instructions[2].mnemonic == "fence"


def test_scenario_file_sites_and_leaks(tmp_path):
    path = _sited_file(tmp_path, "site.coarse_mask = unchanged\n"
                                 "site.exact_mask = site, r4, r2\nleaks = none, coarse_mask\n")
    plain = scenario_from_file(path)
    coarse = scenario_from_file(path, mitigation="coarse_mask")
    exact = scenario_from_file(path, mitigation="exact_mask")
    assert coarse.victim == plain.victim and coarse.name == "sited+coarse_mask"
    assert len(exact.victim.instructions) == len(plain.victim.instructions) + 5
    assert [s.expected for s in (plain, coarse, exact)] == \
        ["attack_succeeds", "attack_succeeds", "attack_fails"]
    with pytest.raises(ValueError, match=r"scenario 'sited' has no 'fence' site "
                                         r"\(accepts: none, coarse_mask, exact_mask\)"):
        scenario_from_file(path, mitigation="fence")


def test_scenario_file_without_sites_or_leaks_keeps_the_defaults(tmp_path):
    path = _sited_file(tmp_path, "")
    s = scenario_from_file(path)
    assert s.expected == Scenario("x", s.victim).expected
    with pytest.raises(ValueError, match=r"has no 'coarse_mask' site \(accepts: none\)"):
        scenario_from_file(path, mitigation="coarse_mask")


def test_scenario_file_program_is_found_next_to_the_file(tmp_path, monkeypatch):
    path = _sited_file(tmp_path, "")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert scenario_from_file(path).victim == assemble(SITED_VICTIM)


@pytest.mark.parametrize("line,error", [
    ("site.coarse_mask = site, r4", "expected unchanged or LABEL, rINDEX, REGION_SIZE"),
    ("site.exact_mask = site, r4, 3", "registers are r0 to r31"),
    ("site.exact_mask = site, r40, r2", "registers are r0 to r31"),
    ("site.none = site", "unknown key 'site.none'"),
    ("site = site", "unknown key 'site'"),
    ("leaks = none, bogus", "unknown mitigation 'bogus'"),
    ("reg.r5 = @tail+x", "reg.r5: invalid literal"),
    ("expected = attack_succeeds", "unknown key 'expected'")])
def test_scenario_file_rejects_a_bad_site_or_leak(tmp_path, line, error):
    with pytest.raises(ValueError, match=error):
        scenario_from_file(_sited_file(tmp_path, line + "\n"))


def test_scenario_file_rejects_a_malformed_mask_when_read(tmp_path):
    # the mask's code is built as the file is read, so a bad region size is
    # reported with the file, line and key even when no mask is asked for
    path = _sited_file(tmp_path, "site.coarse_mask = L, r1, 0\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:3: site.coarse_mask: region size must be positive")):
        scenario_from_file(path)


@pytest.mark.parametrize("line", ["reg.r5 = @nowhere", "benign_mem.0x10008.8 = @nowhere+8",
                                  "prime.nowhere = taken"])
def test_scenario_file_label_not_in_the_program_raises(tmp_path, line):
    with pytest.raises(ValueError, match="no label 'nowhere' in its program"):
        scenario_from_file(_sited_file(tmp_path, line + "\n"))


def test_secret_is_planted_only_where_a_probe_receives_it(tmp_path):
    path = _sited_file(tmp_path, "secret_value = 9\n")
    assert scenario_from_file(path).secret_value == 9
    with pytest.raises(TypeError, match="no probe"):
        scenario_from_file(path, secret=7)
    probed = _sited_file(tmp_path, f"secret_value = 9\nprobe_base = {hex(PROBE)}\n")
    assert scenario_from_file(probed, secret=7).secret_value == 7
    with pytest.raises(TypeError, match="no probe"):
        build_scenario("benign_spill", secret=7)


def test_bundled_files_are_read_once_and_not_at_import():
    code = """
import specsim.scenarios as sc
assert sc._bundled_file.cache_info().currsize == 0
reads = []
read_file = sc._read_file
sc._read_file = lambda *args: reads.append(args[1]) or read_file(*args)
for mitigation in sc.MITIGATIONS:
    for secret in (1, 2):
        sc.build_scenario("ghost", mitigation=mitigation, secret=secret)
sc.build_scenario("halo")
assert reads == ["ghost.scenario", "halo.scenario"], reads
"""
    src = str(Path(specsim.__file__).resolve().parent.parent)
    r = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
