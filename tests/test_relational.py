"""Secret independence as a checked property of the 120-cell matrix.

Each cell runs with three secrets. What an attacker can observe is the L1
line set with fill cycles just before the receiver times the probe array, and
the cycle-stamped MSHR allocations and fills of the traced attack runs. In a
cell whose policy and mitigation block the attack, that observation must not
depend on the secret; in a cell expected to leak, every secret must give a
different one. Checking only that the receiver guessed wrong would pass a
defence that leaks through lines the receiver does not time.
"""

import specsim.core
from specsim import SimConfig, scenarios
from specsim.config import FORWARDING_POLICIES
from specsim.lsu import ForwardingPolicy
from specsim.scenarios import MATRIX_SCENARIOS, MITIGATIONS, build_scenario

SECRETS = (0x00, 0x2A, 0xFF)
CFG = SimConfig()
# store attacks are the ones every SLoth policy blocks (criterion 5)
STORE_ATTACKS = set(MATRIX_SCENARIOS) - {"spectre_1_0"}
RECEIVE = scenarios.probe_receive


def expected_to_leak(name, policy, scenario):
    return (scenario.expected == "attack_succeeds"
            and (policy == "baseline" or name not in STORE_ATTACKS))


def observe(monkeypatch, name, policy, mitigation, secret):
    """The cell's footprint: (L1 lines with fill cycles before the receiver,
    MSHR allocations and fills), and whether the cell is expected to leak."""
    seen = []

    def spy(mem, spec, cfg):
        seen.append(sorted(mem.lines.items()))
        return RECEIVE(mem, spec, cfg)
    monkeypatch.setattr(scenarios, "probe_receive", spy)
    scenario = build_scenario(name, mitigation=mitigation, secret=secret)
    report = scenarios.run_scenario(scenario, CFG.replace(forwarding_policy=policy),
                                    policy=ForwardingPolicy(policy), collect_trace=True)
    assert report.fault is None and not report.timed_out
    assert len(seen) == 1, "the receiver ran once"
    fills = [(e.cycle, e.kind, e.detail) for e in report.trace
             if e.kind in ("mshr_alloc", "fill")]
    return (seen[0], fills), expected_to_leak(name, policy, scenario)


def differing_cells(monkeypatch, policies):
    """Cells whose footprint varies with the secret, and the cells that
    violate the property (a blocked cell that varies, or a leaking cell where
    two secrets give the same footprint)."""
    differing, violations = set(), set()
    for name in MATRIX_SCENARIOS:
        for policy in policies:
            for mitigation in MITIGATIONS:
                runs = [observe(monkeypatch, name, policy, mitigation, s)
                        for s in SECRETS]
                leak = runs[0][1]
                footprints = [footprint for footprint, _ in runs]
                distinct = sum(footprints[i] != footprints[j]
                               for i in range(len(SECRETS))
                               for j in range(i + 1, len(SECRETS)))
                cell = (name, policy, mitigation)
                if distinct:
                    differing.add(cell)
                if distinct != (3 if leak else 0):
                    violations.add(cell)
    return differing, violations


def test_blocked_cells_leave_a_secret_independent_footprint(monkeypatch):
    differing, violations = differing_cells(monkeypatch, FORWARDING_POLICIES)
    assert violations == set()
    assert len(differing) == 16
    assert {c for c in differing if c[0] == "spectre_1_0"} == {
        ("spectre_1_0", p, "none") for p in FORWARDING_POLICIES}
    assert sum(c[1] == "baseline" for c in differing) == 12


def test_the_check_flags_a_store_policy_that_forwards_speculatively(monkeypatch):
    # slothbear_stores deciding like baseline lets speculative stores forward
    forward_decision, baseline = specsim.core.forward_decision, ForwardingPolicy()

    def leaky(load_seq, load_addr, load_size, load_speculative, load_pc,
              load_forwardable, sb, policy, tlb_mode):
        if policy.variant == "slothbear_stores":
            policy = baseline
        return forward_decision(load_seq, load_addr, load_size, load_speculative,
                                load_pc, load_forwardable, sb, policy, tlb_mode)
    monkeypatch.setattr(specsim.core, "forward_decision", leaky)
    baseline_differing, baseline_violations = differing_cells(monkeypatch, ["baseline"])
    assert baseline_violations == set()
    differing, violations = differing_cells(monkeypatch, ["slothbear_stores"])
    assert differing == {(n, "slothbear_stores", m) for n, _, m in baseline_differing}
    assert violations == differing - {("spectre_1_0", "slothbear_stores", "none")}
    assert len(violations) == 11
