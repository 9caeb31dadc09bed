"""Attack and mitigation library: victim gadgets (bounds-check bypass on loads
and stores, read-only overwrite, ghost and halo writes), program transforms for
the software mitigations, the flush+reload receiver, and the scenario runner.

A scenario bundles a victim program with attacker inputs, a planted secret,
priming instructions, and a probe layout. Running it follows the classic
shape: prime the predictors with benign inputs, flush the probe array and the
victim's bound variable, run the victim with attacker inputs (repeating
attempts so values cached by earlier squashed tries feed later ones), then
time every probe line and infer the secret from the fastest. Each bundled
victim (scenario, shape, mitigation) is assembled, transformed and decoded
once per process and shared by every secret, which is planted in memory, not
in the program; a scenario file is assembled on every load.

Memory layout used by the bundled scenarios (flat, byte-addressed):

    0x10000  rw   victim variables (bounds, loop counts, flags); flushed to
                  keep the guarding branch slow
    0x20000  rw   victim array `b` (reads); the secret byte is planted beyond
                  its checked length and beyond its power-of-two padding
    0x24000  rw   halo index array, 0x25000 rw halo payload array
    0x30000  rw   victim array `c` (stores); +0x800 holds the spilled bound /
                  halo target slot
    0x50000  ro   function-pointer table (read-only overwrite target)
    0x40000  rw   stack; sp starts at 0x40800
    0x100000 rw   probe array: entries * amplification lines, `stride` apart
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Dict, List, Optional, Tuple

from .config import RunReport, SimConfig, parse_int, read_key_values
from .core import run_program
from .isa import Program, assemble, disassemble
from .lsu import ForwardingPolicy
from .memory import LINE, MemorySystem
from .predictors import PredictorState, train_branch
from .reference import arch_state, run_reference

VARS = 0x10000
ARR_B = 0x20000
HALO_IDX = 0x24000
HALO_PAYLOAD = 0x25000
ARR_C = 0x30000
LIM_SLOT = 0x30800
RO_TABLE = 0x50000
STACK = 0x40000
SP0 = 0x40800
PROBE = 0x100000

SECRET_OFF = 0x1800          # beyond lenb=16 and beyond next_pow2 padding
SECRET_ADDR = ARR_B + SECRET_OFF

MITIGATIONS = ("none", "fence", "coarse_mask", "exact_mask")
# fence_gadget guards only a transmit gadget, which spectre_1_1_control jumps over
ALL_MITIGATIONS = MITIGATIONS + ("fence_gadget",)


def next_pow2(n: int) -> int:
    if n < 1:
        raise ValueError("region size must be positive")
    return 1 << (n - 1).bit_length()


# ---------------------------------------------------------------------------
# program transforms
# ---------------------------------------------------------------------------

def _insert_at_label(p: Program, label: str, new_lines: List[str]) -> Program:
    """Insert instructions at the position `label` names: after that
    position's label lines in the printed program, which `assemble` rebuilds,
    moving later labels and the operands that name them."""
    if label not in p.labels:
        raise ValueError(f"unknown label {label!r}")
    lines = disassemble(p).splitlines()
    at = lines.index(f"{label}:")
    while at < len(lines) and lines[at].endswith(":"):
        at += 1
    lines[at:at] = new_lines
    return assemble("\n".join(lines))


def transform_insert_fence(p: Program, after: str) -> Program:
    """Place a speculation fence at the position named by `after`. Control
    transfers to that label now meet the fence first."""
    return _insert_at_label(p, after, ["fence"])


def transform_coarse_mask(p: Program, index_reg: int, region_size: int,
                          at: str) -> Program:
    """Bound index_reg by the next power of two of the region size."""
    mask = next_pow2(region_size) - 1
    return _insert_at_label(p, at, [f"andi r{index_reg}, r{index_reg}, {hex(mask)}"])


def transform_exact_mask(p: Program, index_reg: int, bound_reg: int, at: str) -> Program:
    """Branch-free data-dependent truncation: index becomes 0 whenever it is
    not below the bound, even on speculative paths. Clobbers r25 and r26."""
    seq = [
        "movi r25, 0",
        "subi r26, r25, 1",
        f"cmp r{index_reg}, r{bound_reg}",
        "csel.b r26, r26, r25",
        f"and r{index_reg}, r{index_reg}, r26",
    ]
    return _insert_at_label(p, at, seq)


# ---------------------------------------------------------------------------
# scenario description
# ---------------------------------------------------------------------------

@dataclass
class ProbeSpec:
    base: int = PROBE
    stride: int = 512
    entries: int = 256
    amplification: int = 1

    def __post_init__(self):
        if self.stride < LINE:
            raise ValueError("stride must cover at least one cache line")
        if self.amplification < 1:
            raise ValueError("amplification factor must be >= 1")
        if self.entries < 1:
            raise ValueError("probe entries must be >= 1")

    def line_addr(self, entry: int, k: int) -> int:
        return self.base + (entry * self.amplification + k) * self.stride

    @property
    def span(self) -> int:
        return self.entries * self.amplification * self.stride


@dataclass
class Scenario:
    name: str
    victim: Program
    attack_regs: Dict[int, int] = field(default_factory=dict)
    benign_regs: Dict[int, int] = field(default_factory=dict)
    benign_mem: List[Tuple[int, int, int]] = field(default_factory=list)
    attack_mem: List[Tuple[int, int, int]] = field(default_factory=list)
    regions: List[Tuple[int, int, str]] = field(default_factory=list)
    secret_addr: int = SECRET_ADDR
    secret_value: int = 0x2A
    probe: Optional[ProbeSpec] = None
    priming: int = 2
    attempts: int = 2
    prime_branches: List[Tuple[int, bool]] = field(default_factory=list)  # (pc, taken)
    slow_lines: List[int] = field(default_factory=list)
    expected: str = "attack_succeeds"

    def __post_init__(self):
        if self.expected not in ("attack_succeeds", "attack_fails"):
            raise ValueError(f"expected must be attack_succeeds or attack_fails, "
                             f"got {self.expected!r}")
        # one planted byte: a wider value would be truncated, and the attack
        # judged against a value the victim never held
        if not 0 <= self.secret_value <= 0xFF:
            raise ValueError(f"secret_value must be a byte (0 to 255), "
                             f"got {self.secret_value}")
        for runs in ("priming", "attempts"):
            if getattr(self, runs) < 0:
                raise ValueError(f"{runs} must be >= 0, got {getattr(self, runs)}")
        # the secret must sit outside every region the victim's checks declare
        # reachable (the arrays' checked lengths)
        if (self.secret_addr in range(ARR_B, ARR_B + 16)
                or self.secret_addr in range(ARR_C, ARR_C + 16)):
            raise ValueError(f"secret_addr {self.secret_addr:#x} lies inside a "
                             "checked array region")


def probe_receive(mem: MemorySystem, spec: ProbeSpec, cfg: SimConfig) -> Optional[int]:
    """Time every probe entry (amplification lines each, summed, coarsened to
    the timer granularity) and return the unique fastest entry, or None when
    no entry reads below the hit/miss midpoint or the minimum is not unique.

    A reload hits exactly on a resident line, so the readings follow from the
    L1 line set: each resident line that holds a probe address counts one hit
    for that address's entry, and every entry with no such line shares one
    all-miss reading. The walk costs one step per resident line, at most the
    L1's 512 lines whatever the number of probe entries."""
    gran, amp, stride = cfg.timer_granularity_cycles, spec.amplification, spec.stride
    hit, miss = cfg.l1_latency_cycles, cfg.dram_latency_cycles
    addrs = range(spec.base, spec.base + spec.span, stride)
    mem.check_readable(addrs)
    hot: Dict[int, int] = {}                # entry -> its resident line count
    for line in mem.lines:
        j = -((spec.base - line) // stride)  # first probe address at or above line
        if 0 <= j < len(addrs) and addrs[j] < line + LINE:
            hot[j // amp] = hot.get(j // amp, 0) + 1
    readings = {entry: (n * hit + (amp - n) * miss) // gran * gran
                for entry, n in hot.items()}
    # the entries with no resident line share one reading; two show a tie
    cold = list(islice((e for e in range(spec.entries) if e not in readings), 2))
    readings.update(dict.fromkeys(cold, amp * miss // gran * gran))
    lowest = min(readings.values())
    fastest = [entry for entry, r in readings.items() if r == lowest]
    if lowest >= amp * (hit + miss) // 2 or len(fastest) != 1:
        return None
    return fastest[0]


def flush_probe(mem: MemorySystem, spec: ProbeSpec) -> None:
    for line in [a for a in mem.lines if spec.base <= a < spec.base + spec.span]:
        mem.flush_line(line)


def _setup_memory(s: Scenario, cfg: SimConfig) -> MemorySystem:
    """The memory image before the first run: the victim's data, its regions
    and probe array mapped, the secret planted and the benign inputs written."""
    mem = MemorySystem(cfg)
    mem.load_program_data(s.victim)
    for base, size, perm in s.regions:
        mem.map_region(base, size, perm)
    if s.probe:
        mem.map_region(s.probe.base, s.probe.span, "rw")
    mem.write_int(s.secret_addr, 1, s.secret_value)
    for addr, size, value in s.benign_mem:
        mem.write_int(addr, size, value)
    return mem


def _run_schedule(s: Scenario, mem: MemorySystem,
                 run: Callable[[Dict[int, int], Optional[int]], bool]) -> bool:
    """Every scenario's run schedule: `priming` runs on the benign inputs, the
    attacker's memory writes, then `attempts` runs on the attack inputs.
    `run(regs, attempt)` performs one run (attempt is None while priming) and
    returns False to end the schedule early; so does this function then."""
    if not all(run(s.benign_regs, None) for _ in range(s.priming)):
        return False
    for addr, size, value in s.attack_mem:
        mem.write_int(addr, size, value)
    return all(run(s.attack_regs, attempt) for attempt in range(s.attempts))


def run_scenario(s: Scenario, cfg: SimConfig,
                 policy: Optional[ForwardingPolicy] = None,
                 collect_trace: bool = False) -> RunReport:
    """Prime, flush, attack (possibly repeatedly), then probe."""
    report = RunReport(s.name, cfg.digest(), trace=[] if collect_trace else None)
    mem = _setup_memory(s, cfg)
    pred = PredictorState(cfg.bht_size, cfg.rsb_depth)
    if policy is None:
        policy = ForwardingPolicy(cfg.forwarding_policy)

    def run(regs: Dict[int, int], attempt: Optional[int]) -> bool:
        if attempt is not None:
            for pc, taken in s.prime_branches:
                for _ in range(3):                  # saturate the counter
                    train_branch(pred, pc, taken)
            if attempt == 0 and s.probe:
                flush_probe(mem, s.probe)
            for addr in s.slow_lines:
                mem.flush_line(addr)
        r = run_program(s.victim, cfg, mem=mem, pred=pred, policy=policy, regs=regs,
                        trace=None if attempt is None else report.trace,
                        start_cycle=report.cycles)
        report.cycles += r.cycles
        report.retired_instructions += r.retired_instructions
        report.squash_count += r.squash_count
        report.forward_count += r.forward_count
        report.mshr_peak = max(report.mshr_peak, r.mshr_peak)
        report.fault = r.fault
        report.timed_out = report.timed_out or r.timed_out
        report.core = r.core
        return r.fault is None and not r.timed_out

    if _run_schedule(s, mem, run) and s.probe:
        report.inferred_secret = probe_receive(mem, s.probe, cfg)
        report.attack_success = report.inferred_secret == s.secret_value
    return report


def no_attack_state(s: Scenario, cfg: SimConfig):
    """Architectural state of the in-order reference on the attack inputs:
    what the machine must commit when speculation leaves no trace."""
    mem = _setup_memory(s, cfg)
    regs = [0] * 32

    def run(inputs: Dict[int, int], attempt: Optional[int]) -> bool:
        ref = run_reference(s.victim, cfg, mem=mem, regs=inputs)
        if ref.fault is not None:
            raise RuntimeError(f"{s.name}: the in-order reference faulted: {ref.fault}")
        regs[:] = ref.regs
        return True

    _run_schedule(s, mem, run)
    return arch_state(regs, mem)


# ---------------------------------------------------------------------------
# bundled gadgets
# ---------------------------------------------------------------------------

_COMMON_REGIONS = [
    (ARR_B, 0x2000, "rw"),
    (STACK, 0x1000, "rw"),
    (ARR_C, 0x1000, "rw"),
]


NO_INDEX = ()    # a mask site for a victim with no index to mask: it runs unchanged


@dataclass(frozen=True)
class MitigationSites:
    """Where each software mitigation goes in one bundled victim.

    fence and fence_gadget name the label a fence goes before; fence_gadget
    is None where the victim has no separate transmit gadget. coarse_mask is
    (label, index_reg, region_size), exact_mask (label, index_reg, bound_reg).
    leaks lists the mitigations under which the attack still succeeds."""
    fence: str
    coarse_mask: tuple
    exact_mask: tuple
    leaks: Tuple[str, ...]
    fence_gadget: Optional[str] = None


MITIGATION_SITES = {
    "spectre_1_0": MitigationSites(
        "body", ("body", 10, 4096), ("body", 10, 2), leaks=("none",)),
    "spectre_1_1_control": MitigationSites(
        "vstore", ("vstore", 10, 0x20000), ("vstore", 10, 2),
        leaks=("none", "coarse_mask", "fence_gadget"), fence_gadget="gbody"),
    "spectre_1_1_rop": MitigationSites(
        "vstore", ("vstore", 10, 0x20000), ("vstore", 10, 2),
        leaks=("none", "coarse_mask", "fence_gadget"), fence_gadget="g1"),
    "spectre_1_1_data": MitigationSites(
        "astore", ("astore", 10, 0x1000), ("astore", 10, 2),
        leaks=("none", "coarse_mask")),
    "spectre_1_2": MitigationSites(
        "vstore", ("vstore", 10, 0x40000), ("vstore", 10, 2),
        leaks=("none", "coarse_mask")),
    # the ghost store goes through a raw pointer: there is no index to mask
    "ghost": MitigationSites(
        "gload", NO_INDEX, NO_INDEX, leaks=("none", "coarse_mask", "exact_mask")),
    "halo": MitigationSites(
        "hstore", ("hclamp", 6, 0x1000), ("hclamp", 6, 30),
        leaks=("none", "coarse_mask")),
    "benign_spill": MitigationSites("bloop", NO_INDEX, NO_INDEX, leaks=()),
}


def apply_mitigation(name: str, p: Program,
                     mitigation: str) -> Tuple[Program, str, str]:
    """Apply `mitigation` to scenario `name`'s victim at the site
    MITIGATION_SITES gives. Returns the victim, the scenario name (suffixed
    with the mitigation) and the expected outcome. A mitigation the scenario
    has no site for raises ValueError."""
    sites = MITIGATION_SITES[name]
    accepted = [m for m in ALL_MITIGATIONS
                if m == "none" or getattr(sites, m) is not None]
    if mitigation not in accepted:
        raise ValueError(f"scenario {name!r} has no {mitigation!r} site "
                         f"(accepts: {', '.join(accepted)})")
    expected = "attack_succeeds" if mitigation in sites.leaks else "attack_fails"
    if mitigation == "none":
        return p, name, expected
    site = getattr(sites, mitigation)
    if mitigation in ("fence", "fence_gadget"):
        p = transform_insert_fence(p, site)
    elif site != NO_INDEX:
        label, index_reg, bound = site
        transform = (transform_coarse_mask if mitigation == "coarse_mask"
                     else transform_exact_mask)
        p = transform(p, index_reg, bound, label)
    return p, f"{name}+{mitigation}", expected


@lru_cache(maxsize=64)      # all 34 bundled victims fit; each is shared: never mutate it
def _victim(name: str, src: str, mitigation: str) -> Tuple[Program, str, str]:
    return apply_mitigation(name, assemble(src), mitigation)


# the indirect-load transmit sequence: touch probe[secret << 9], probe in r12
_TRANSMIT = (f"    movi r4, {hex(SECRET_ADDR)}\n"
             "    ld.1 r5, [r4]\n"
             "    shli r5, r5, 9\n"
             "    add r6, r12, r5\n"
             "    ld.1 r7, [r6]\n")


def build_gadget_spectre_1_0(secret: int = 0x2A, mitigation: str = "none",
                             pad_uops: int = 0,
                             amplification: int = 1) -> Scenario:
    """Bounds check bypass on loads: the guarded double load runs before the
    slow bound resolves, leaving the secret's probe line in the cache."""
    if pad_uops < 0:
        raise ValueError(f"pad_uops must be >= 0, got {pad_uops}")
    # the shift scales the secret to its entry's first probe line, so the
    # entries' spacing, amplification * 512 bytes, must be a power of two
    if amplification < 1 or amplification & (amplification - 1):
        raise ValueError(f"amplification must be a power of two, got {amplification}")
    shift = (amplification * 512).bit_length() - 1
    body_lines = [
        "    add r3, r11, r10",
        "    ld.1 r4, [r3]",
        f"    shli r4, r4, {shift}",
        "    add r5, r12, r4",
    ]
    body_lines += [f"    ld.1 r6, [r5+{k * 512}]" for k in range(amplification)]
    pad = "".join(f"    movi r9, {i}\n" for i in range(pad_uops))
    src = f"""
main:
    movi r1, {hex(VARS)}
    ld.8 r2, [r1]
    cmp r10, r2
check:
    jae done
{pad}body:
{chr(10).join(body_lines)}
done:
    halt
.data {hex(VARS)} rw 10 00 00 00 00 00 00 00
"""
    p, name, expected = _victim("spectre_1_0", src, mitigation)
    return Scenario(
        name=name, victim=p,
        attack_regs={10: SECRET_OFF, 11: ARR_B, 12: PROBE},
        benign_regs={10: 2, 11: ARR_B, 12: PROBE},
        regions=list(_COMMON_REGIONS),
        secret_value=secret,
        probe=ProbeSpec(amplification=amplification),
        prime_branches=[(p.labels["check"], False)],
        slow_lines=[VARS],
        attempts=2 if amplification == 1 else 12,
        expected=expected,
    )


def build_gadget_spectre_1_1_control(secret: int = 0x2A, mitigation: str = "none",
                                     rop: bool = False) -> Scenario:
    """Bounds check bypass on stores, control variant: the speculative store
    overwrites the on-stack return slot, `ret` forwards the corrupt target,
    and the front end is resteered into the transmit gadget.

    mitigation "fence_gadget" guards only the 1.0-style transmit gadget; the
    attacker adjusts the planted target to land just past the fence.
    """
    if rop:
        gadget = f"""
g1:
    movi r4, {hex(SECRET_ADDR)}
    ld.1 r5, [r4]
    shli r5, r5, 9
    ret
g2:
    add r6, r12, r5
    ld.1 r7, [r6]
    ret
"""
    else:
        gadget = f"""
gadget:
    cmp r10, r2
gcheck:
    jae gdone
gbody:
{_TRANSMIT}gdone:
    halt
"""
    src = f"""
main:
    call victim
    halt
victim:
    movi r1, {hex(VARS)}
    ld.8 r2, [r1]
    cmp r10, r2
vcheck:
    jae vret
vstore:
    add r3, r11, r10
    st.8 r13, [r3]
vret:
    ret
{gadget}.data {hex(VARS)} rw 10 00 00 00 00 00 00 00
"""
    p, name, expected = _victim(
        "spectre_1_1_rop" if rop else "spectre_1_1_control", src, mitigation)
    entry_label = "g1" if rop else "gbody"
    entry_bump = 4 if mitigation == "fence_gadget" else 0   # jump over the fence

    ret_slot = SP0 - 8
    y_attack = ret_slot - ARR_C
    attack_regs = {10: y_attack, 11: ARR_C, 12: PROBE, 31: SP0,
                   13: p.labels[entry_label] + entry_bump, 2: 0}
    benign_regs = {10: 8, 11: ARR_C, 12: PROBE, 31: SP0, 13: 0}
    return Scenario(
        name=name, victim=p,
        attack_regs=attack_regs, benign_regs=benign_regs,
        attack_mem=[(SP0, 8, p.labels["g2"])] if rop else [],
        regions=list(_COMMON_REGIONS),
        secret_value=secret,
        probe=ProbeSpec(),
        prime_branches=[(p.labels["vcheck"], False)],
        slow_lines=[VARS],
        expected=expected,
    )


def build_gadget_spectre_1_1_data(secret: int = 0x2A,
                                  mitigation: str = "none") -> Scenario:
    """Bounds check bypass on stores, data variant: the speculative store
    overwrites the spilled bound consumed by a later exact-masked load gadget,
    so the mask passes for an out-of-bounds index."""
    src = f"""
main:
    movi r1, {hex(VARS)}
    ld.8 r2, [r1]
    cmp r10, r2
acheck:
    jae part_b
astore:
    add r3, r11, r10
    st.8 r13, [r3]
part_b:
    movi r20, {hex(LIM_SLOT)}
    ld.8 r21, [r20]
    cmp r22, r21
bcheck:
    jae done
bbody:
    movi r25, 0
    subi r26, r25, 1
    cmp r22, r21
    csel.b r26, r26, r25
    and r27, r22, r26
    add r23, r14, r27
    ld.1 r24, [r23]
    shli r24, r24, 9
    add r28, r12, r24
    ld.1 r29, [r28]
done:
    halt
.data {hex(VARS)} rw 10 00 00 00 00 00 00 00
"""
    p, name, expected = _victim("spectre_1_1_data", src, mitigation)
    y_attack = LIM_SLOT - ARR_C   # 0x800: within c's power-of-two padding
    attack_regs = {10: y_attack, 11: ARR_C, 13: 0xFFFFFFFF,
                   22: SECRET_OFF, 14: ARR_B, 12: PROBE}
    benign_regs = {10: 8, 11: ARR_C, 13: 0, 22: 2, 14: ARR_B, 12: PROBE}
    return Scenario(
        name=name, victim=p,
        attack_regs=attack_regs, benign_regs=benign_regs,
        benign_mem=[(LIM_SLOT, 8, 16)],
        regions=list(_COMMON_REGIONS),
        secret_value=secret,
        probe=ProbeSpec(),
        prime_branches=[(p.labels["acheck"], False),
                        (p.labels["bcheck"], False)],
        slow_lines=[VARS],
        expected=expected,
    )


def build_gadget_spectre_1_2(secret: int = 0x2A, mitigation: str = "none") -> Scenario:
    """Read-only overwrite: the speculative store targets a function-pointer
    slot on a read-only page. Under lazy permission enforcement the corrupt
    pointer is forwarded to the dependent load and the indirect jump lands in
    the transmit gadget. Succeeds only with tlb_enforcement=lazy."""
    src = f"""
main:
    call victim
    halt
victim:
    movi r1, {hex(VARS)}
    ld.8 r2, [r1]
    cmp r10, r2
vcheck:
    jae vcall
vstore:
    add r3, r11, r10
    st.8 r13, [r3]
vcall:
    movi r4, {hex(RO_TABLE)}
    ld.8 r5, [r4]
    jr r5
fn_ok:
    halt
gadget:
{_TRANSMIT}    halt
.data {hex(VARS)} rw 10 00 00 00 00 00 00 00
"""
    p, name, expected = _victim("spectre_1_2", src, mitigation)
    y_attack = RO_TABLE - ARR_C
    attack_regs = {10: y_attack, 11: ARR_C, 13: p.labels["gadget"],
                   12: PROBE, 31: SP0}
    benign_regs = {10: 8, 11: ARR_C, 13: 0, 12: PROBE, 31: SP0}
    return Scenario(
        name=name, victim=p,
        attack_regs=attack_regs, benign_regs=benign_regs,
        benign_mem=[(RO_TABLE, 8, p.labels["fn_ok"])],
        regions=list(_COMMON_REGIONS) + [(RO_TABLE, 0x1000, "ro")],
        secret_value=secret,
        probe=ProbeSpec(),
        prime_branches=[(p.labels["vcheck"], False)],
        slow_lines=[VARS],
        expected=expected,
    )


def build_gadget_ghost(secret: int = 0x2A, mitigation: str = "none") -> Scenario:
    """Ghost write: an impossible path consumes an uninitialized stack slot as
    a pointer. The first guard predicts correctly (skipping the initializer);
    the second mispredicts into the store through the ghost pointer, which the
    attacker aimed at the return slot via prior-call stack contents."""
    src = f"""
main:
    call victim
    halt
victim:
    movi r1, {hex(VARS + 0x20)}
    ld.8 r2, [r1]
    cmpi r2, 0
gc1:
    je noinit
    movi r3, {hex(VARS + 0x100)}
    st.8 r3, [sp+16]
noinit:
    cmpi r2, 0
gc2:
    je nostore
gload:
    ld.8 r4, [sp+16]
gstore:
    st.8 r13, [r4]
nostore:
    ret
gadget:
{_TRANSMIT}    halt
.data {hex(VARS)} rw 10 00 00 00 00 00 00 00
"""
    p, name, expected = _victim("ghost", src, mitigation)
    ret_slot = SP0 - 8
    ghost_slot = ret_slot + 16
    attack_regs = {13: p.labels["gadget"], 12: PROBE, 31: SP0}
    benign_regs = {13: 0, 12: PROBE, 31: SP0}
    return Scenario(
        name=name, victim=p,
        attack_regs=attack_regs, benign_regs=benign_regs,
        benign_mem=[(VARS + 0x20, 8, 1)],
        attack_mem=[(VARS + 0x20, 8, 0), (ghost_slot, 8, ret_slot)],
        regions=list(_COMMON_REGIONS),
        secret_value=secret,
        probe=ProbeSpec(),
        prime_branches=[(p.labels["gc1"], True), (p.labels["gc2"], False)],
        slow_lines=[VARS],
        expected=expected,
    )


def build_gadget_halo(secret: int = 0x2A, mitigation: str = "none") -> Scenario:
    """Halo write: a speculative loop overrun (the checked length is zero but
    slow to load) consumes unsanitized index-array entries. The overrun store
    lands on the spilled bound of the loop body's masked load gadget."""
    src = f"""
main:
    movi r1, {hex(VARS)}
    ld.8 r2, [r1]
    movi r5, 0
loop:
    cmp r5, r2
hcheck:
    jae done
hbody:
    shli r4, r5, 3
    add r3, r16, r4
    ld.8 r6, [r3]
hclamp:
    add r7, r17, r6
    shli r8, r5, 3
    add r9, r18, r8
    ld.8 r10, [r9]
hstore:
    st.8 r10, [r7]
    ld.8 r20, [r19]
    movi r25, 0
    subi r26, r25, 1
    cmp r21, r20
    csel.b r26, r26, r25
    and r27, r21, r26
    add r23, r14, r27
    ld.1 r24, [r23]
    shli r24, r24, 9
    add r28, r12, r24
    ld.1 r29, [r28]
    addi r5, r5, 1
    jmp loop
done:
    halt
.data {hex(VARS)} rw 00 00 00 00 00 00 00 00
"""
    p, name, expected = _victim("halo", src, mitigation)
    attack_regs = {16: HALO_IDX, 17: ARR_C, 18: HALO_PAYLOAD,
                   19: LIM_SLOT, 21: SECRET_OFF, 14: ARR_B, 12: PROBE,
                   30: 0x100}
    return Scenario(
        name=name, victim=p,
        attack_regs=attack_regs, benign_regs=dict(attack_regs),
        benign_mem=[(HALO_IDX, 8, LIM_SLOT - ARR_C),
                    (HALO_PAYLOAD, 8, 0xFFFFFFFF),
                    (LIM_SLOT, 8, 16)],
        regions=list(_COMMON_REGIONS) + [(HALO_IDX, 0x1000, "rw"),
                                         (HALO_PAYLOAD, 0x1000, "rw")],
        secret_value=secret,
        probe=ProbeSpec(),
        priming=0,
        attempts=4,
        prime_branches=[(p.labels["hcheck"], False)],
        slow_lines=[VARS],
        expected=expected,
    )


def build_benign_spill(mitigation: str = "none") -> Scenario:
    """Register-spill loop: stores immediately reloaded, the hot path that
    store-to-load blocking penalizes. All spill accesses carry the forwardable
    mark. A dependency chain ahead of each spill delays retirement (so the
    store is still speculative when the reload wants it) and a late-resolving
    never-taken guard keeps the reloads colored, so both blocking variants pay
    their cost while forwarding policies run at full speed."""
    # the nop prologue stands in for a distinct link address: the whitelist is
    # keyed on load addresses, so the benchmark must not alias the victims' code
    prologue = "    nop\n" * 32
    src = f"""
main:
{prologue}    ld.8 r6, [sp+8]
    movi r1, 24
    movi r2, 1
    movi r3, 2
    movi r9, 0
    movi r20, 0x7fffffffffffffff
loop:
    add r9, r9, r2
    add r9, r9, r3
    add r9, r9, r2
    add r9, r9, r3
    add r9, r9, r2
    add r9, r9, r3
    cmp r9, r20
guard:
    jae loopx
    st.8! r2, [sp+8]
    st.8! r3, [sp+16]
    ld.8! r6, [sp+8]
    ld.8! r7, [sp+16]
    add r2, r6, r7
    add r3, r7, r6
    subi r1, r1, 1
    cmpi r1, 0
bloop:
    jne loop
loopx:
    halt
"""
    p, name, expected = _victim("benign_spill", src, mitigation)
    regs = {31: SP0}
    return Scenario(
        name=name, victim=p,
        attack_regs=dict(regs), benign_regs=dict(regs),
        regions=[(STACK, 0x1000, "rw")],
        probe=None, priming=0, attempts=1,
        expected=expected,
    )


BUILDERS = {
    "spectre_1_0": build_gadget_spectre_1_0,
    "spectre_1_1_control": build_gadget_spectre_1_1_control,
    "spectre_1_1_rop": partial(build_gadget_spectre_1_1_control, rop=True),
    "spectre_1_1_data": build_gadget_spectre_1_1_data,
    "spectre_1_2": build_gadget_spectre_1_2,
    "ghost": build_gadget_ghost,
    "halo": build_gadget_halo,
    "benign_spill": build_benign_spill,
}

MATRIX_SCENARIOS = ("spectre_1_0", "spectre_1_1_data", "spectre_1_1_control",
                    "spectre_1_2", "ghost", "halo")


def build_scenario(name: str, mitigation: str = "none", **kw) -> Scenario:
    if name not in BUILDERS:
        raise KeyError(f"unknown scenario {name!r}")
    return BUILDERS[name](mitigation=mitigation, **kw)


# ---------------------------------------------------------------------------
# declarative scenario files
# ---------------------------------------------------------------------------

_FILE_SCALARS = {
    **dict.fromkeys(("name", "program", "expected"), str),
    **dict.fromkeys(("secret_addr", "secret_value", "priming", "attempts", "probe_base",
                     "probe_stride", "probe_entries", "amplification"), parse_int),
    "flush": lambda v: [parse_int(a) for a in v.split(",") if a]}
_DIRECTIONS = {"taken": True, "not_taken": False}      # prime.LABEL values
_SIZED = {"mem": "ADDR.SIZE", "benign_mem": "ADDR.SIZE", "map": "BASE.SIZE"}
_FILE_PREFIXES = ("reg", "benign_reg", "prime", *_SIZED)


def _file_value(key: str, value: str):
    """One scenario-file value parsed by its key: KeyError for an unknown key,
    ValueError for a value or key shape that does not parse."""
    kind, dot, rest = key.partition(".")
    if key in _FILE_SCALARS:
        return _FILE_SCALARS[key](value)
    if not dot or kind not in _FILE_PREFIXES:
        raise KeyError(key)
    if kind in ("reg", "benign_reg"):
        if rest[:1] != "r" or not rest[1:].isdigit() or int(rest[1:]) >= 32:
            raise ValueError(f"registers are r0 to r31, got {rest!r}")
        return int(rest[1:]), parse_int(value)
    if kind == "prime":
        if value not in _DIRECTIONS:
            raise ValueError(f"expected taken or not_taken, got {value!r}")
        return rest, _DIRECTIONS[value]
    if rest.count(".") != 1:
        raise ValueError(f"expected {kind}.{_SIZED[kind]}")
    addr, size = rest.split(".")
    if kind == "map":
        if value not in ("rw", "ro"):
            raise ValueError(f"permission must be rw or ro, got {value!r}")
        return parse_int(addr), parse_int(size), value
    return parse_int(addr), int(size), parse_int(value)


def scenario_from_file(path: str) -> Tuple[Scenario, dict]:
    """Load a custom scenario from key=value text. Recognized keys:

    name, program (path to .asm), secret_addr, secret_value, priming,
    attempts, expected, probe_base, probe_stride, probe_entries,
    amplification, reg.rN / benign_reg.rN, mem.ADDR.SIZE / benign_mem...,
    map.BASE.SIZE=perm, flush=addr[,addr...], prime.LABEL=taken|not_taken

    Returns the scenario and the parsed values by key. Any other key, and a
    value that does not parse, raises ValueError naming the file and line.
    """
    with open(path) as f:
        opts = read_key_values(f.read(), _file_value, f"{path}:")
    if "program" not in opts:
        raise ValueError(f"{path}: missing program=")
    with open(opts["program"]) as f:
        victim = assemble(f.read())
    lists = {kind: [v for k, v in opts.items() if k.startswith(kind + ".")]
             for kind in _FILE_PREFIXES}
    for label, _ in lists["prime"]:
        if label not in victim.labels:
            raise ValueError(f"{path}: prime target {label!r} not in program")
    probe = None
    if "probe_base" in opts:
        probe = ProbeSpec(base=opts["probe_base"],
                          stride=opts.get("probe_stride", 512),
                          entries=opts.get("probe_entries", 256),
                          amplification=opts.get("amplification", 1))
    return Scenario(
        name=opts.get("name", path),
        victim=victim,
        attack_regs=dict(lists["reg"]),
        benign_regs=dict(lists["benign_reg"] or lists["reg"]),
        attack_mem=lists["mem"], benign_mem=lists["benign_mem"],
        regions=lists["map"],
        secret_addr=opts.get("secret_addr", SECRET_ADDR),
        secret_value=opts.get("secret_value", 0x2A),
        probe=probe,
        priming=opts.get("priming", 2),
        attempts=opts.get("attempts", 2),
        prime_branches=[(victim.labels[label], taken) for label, taken in lists["prime"]],
        slow_lines=opts.get("flush", []),
        expected=opts.get("expected", "attack_succeeds"),
    ), opts


def warm_whitelist(cfg: SimConfig) -> set:
    """Run the benign spill benchmark under the baseline policy and return the
    load pcs that consumed forwarded data on the committed path."""
    base_cfg = cfg.replace(forwarding_policy="baseline")
    policy = ForwardingPolicy("baseline")
    run_scenario(build_benign_spill(), base_cfg, policy=policy)
    return set(policy.whitelist)
