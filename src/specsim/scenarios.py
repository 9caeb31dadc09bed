"""Attack and mitigation library: victim gadgets (bounds-check bypass on loads
and stores, read-only overwrite, ghost and halo writes), the code the software
mitigations insert, the flush+reload receiver, and the scenario runner.

A scenario bundles a victim program with attacker inputs, a planted secret,
priming instructions, and a probe layout. Running it follows the classic
shape: prime the predictors with benign inputs, flush the probe array and the
victim's bound variable, run the victim with attacker inputs (repeating
attempts so values cached by earlier squashed tries feed later ones), then
time every probe line and infer the secret from the fastest. The fixed
victims (spectre_1_1_data, spectre_1_2, ghost, halo, benign_spill) are
scenario files under `data/`, read and parsed once per process on first use,
like `--scenario-file`s; spectre_1_0 and spectre_1_1_control/_rop, which take
parameters, are built here. Each one names its own mitigation sites. Every
victim (scenario or file text, shape, sites, mitigation) is assembled,
transformed and decoded once per process and shared by every build and every
secret, which is planted in memory, not in the program.

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

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .config import RunReport, SimConfig, parse_int, read_key_values
from .core import Core
from .isa import _REGS, MASK64, Program, assemble, disassemble
from .lsu import ForwardingPolicy
from .memory import LINE, PAGE, MemorySystem
from .predictors import PredictorState, train_branch
from .reference import arch_state, run_reference

VARS = 0x10000
ARR_B = 0x20000
ARR_C = 0x30000
STACK = 0x40000
SP0 = 0x40800
PROBE = 0x100000

SECRET_OFF = 0x1800          # beyond lenb=16 and beyond next_pow2 padding
SECRET_ADDR = ARR_B + SECRET_OFF

# the most a probe span or a scenario file's map region may cover: 256 MiB,
# far above every bundled scenario, so that no size can make the TLB map
# millions of pages before a run starts
MAX_REGION_PAGES = 2 ** 16
_MAX_REGION = f"{MAX_REGION_PAGES * PAGE:#x} bytes ({MAX_REGION_PAGES} pages)"
# the most filler micro-ops spectre_1_0 takes, far above any reorder window
MAX_PAD_UOPS = 2 ** 16

MITIGATIONS = ("none", "fence", "coarse_mask", "exact_mask")
# fence_gadget guards only a transmit gadget, which spectre_1_1_control jumps over
ALL_MITIGATIONS = MITIGATIONS + ("fence_gadget",)


def next_pow2(n: int) -> int:
    if n < 1:
        raise ValueError("region size must be positive")
    return 1 << (n - 1).bit_length()


# ---------------------------------------------------------------------------
# software mitigations: the code each one inserts at its site
# ---------------------------------------------------------------------------

# a speculation fence: control transfers to its site meet the fence first
FENCE = ("fence",)


def coarse_mask(index_reg: int, region_size: int) -> Tuple[str, ...]:
    """Bound index_reg by the next power of two of the region size."""
    return (f"andi r{index_reg}, r{index_reg}, {hex(next_pow2(region_size) - 1)}",)


def exact_mask(index_reg: int, bound_reg: int) -> Tuple[str, ...]:
    """Branch-free data-dependent truncation: index becomes 0 whenever it is
    not below the bound, even on speculative paths. Clobbers r25 and r26."""
    return ("movi r25, 0", "subi r26, r25, 1", f"cmp r{index_reg}, r{bound_reg}",
            "csel.b r26, r26, r25", f"and r{index_reg}, r{index_reg}, r26")


def insert_at_label(p: Program, label: str, code: Sequence[str]) -> Program:
    """Insert the lines `code` at the position `label` names: after that
    position's label lines in the printed program, which `assemble` rebuilds,
    moving later labels and the operands written as their names."""
    if label not in p.labels:
        raise ValueError(f"unknown label {label!r}")
    lines = disassemble(p).splitlines()
    at = lines.index(f"{label}:")
    while at < len(lines) and lines[at].endswith(":"):
        at += 1
    lines[at:at] = code
    return assemble("\n".join(lines))


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
        if self.span > MAX_REGION_PAGES * PAGE:
            raise ValueError(f"the probe span, probe_entries x amplification x "
                             f"probe_stride, may cover at most {_MAX_REGION}, "
                             f"got {self.span:#x}")

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
    first = spec.base & ~(LINE - 1)         # the line that holds probe entry 0
    for line in [a for a in mem.lines if first <= a < spec.base + spec.span]:
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


def _schedule(s: Scenario, mem: MemorySystem):
    """Every scenario's run schedule, one `(regs, attempt)` per run: `priming`
    runs on the benign inputs (attempt None), then `attempts` runs on the
    attack inputs. The attacker's memory writes land once priming is over; a
    caller that stops early never reaches them."""
    for _ in range(s.priming):
        yield s.benign_regs, None
    for addr, size, value in s.attack_mem:
        mem.write_int(addr, size, value)
    for attempt in range(s.attempts):
        yield s.attack_regs, attempt


def run_scenario(s: Scenario, cfg: SimConfig,
                 policy: Optional[ForwardingPolicy] = None,
                 collect_trace: bool = False) -> RunReport:
    """Prime, flush, attack (possibly repeatedly), then probe. Each run is
    started on one `Core` and may take the whole `cycle_limit`; the report is
    the last run's, whose counts are the core's, with the receiver's outcome
    and the attempts' trace. A run that faults or times out ends the schedule."""
    mem = _setup_memory(s, cfg)
    if policy is None:
        policy = ForwardingPolicy(cfg.forwarding_policy)
    core = Core(s.victim, cfg, mem, PredictorState(cfg.bht_size, cfg.rsb_depth), policy)
    trace = [] if collect_trace else None
    report = RunReport(s.name, cfg.digest(), core=core)     # if the schedule is empty
    for regs, attempt in _schedule(s, mem):
        if attempt is not None:
            for pc, taken in s.prime_branches:
                for _ in range(3):                  # saturate the counter
                    train_branch(core.pred, pc, taken)
            if attempt == 0 and s.probe:
                flush_probe(mem, s.probe)
            for addr in s.slow_lines:
                mem.flush_line(addr)
        core.start(regs, None if attempt is None else trace)
        report = core.run()
        if report.fault is not None or report.timed_out:
            break
    else:
        if s.probe:
            report.inferred_secret = probe_receive(mem, s.probe, cfg)
            report.attack_success = report.inferred_secret == s.secret_value
    report.scenario, report.trace = s.name, trace
    return report


def no_attack_state(s: Scenario, cfg: SimConfig):
    """Architectural state of the in-order reference on the attack inputs:
    what the machine must commit when speculation leaves no trace."""
    mem = _setup_memory(s, cfg)
    regs = [0] * 32
    for inputs, _ in _schedule(s, mem):
        ref = run_reference(s.victim, cfg, mem=mem, regs=inputs)
        if ref.fault is not None:
            raise RuntimeError(f"{s.name}: the in-order reference faulted: {ref.fault}")
        regs = ref.regs
    return arch_state(regs, mem)


# ---------------------------------------------------------------------------
# mitigation sites and the parametric victims
# ---------------------------------------------------------------------------

_COMMON_REGIONS = [
    (ARR_B, 0x2000, "rw"),
    (STACK, 0x1000, "rw"),
    (ARR_C, 0x1000, "rw"),
]


@dataclass(frozen=True)
class MitigationSites:
    """Where each software mitigation goes in one victim, as (label, code),
    and under which mitigations its attack still leaks. Empty code leaves the
    victim unchanged (it has no index to mask); a site left None is no site:
    that mitigation is rejected."""
    fence: Optional[tuple] = None
    coarse_mask: Optional[tuple] = None
    exact_mask: Optional[tuple] = None
    fence_gadget: Optional[tuple] = None
    leaks: Tuple[str, ...] = ()


@lru_cache(maxsize=64)      # all 34 bundled victims fit; each is shared: never mutate it
def _victim(name: str, src: str, sites: MitigationSites,
            mitigation: str) -> Tuple[Program, str, str]:
    """Scenario `name`'s victim assembled from `src` and mitigated, the
    scenario name (suffixed with the mitigation) and the expected outcome. A
    mitigation `sites` has no site for raises ValueError."""
    accepted = [m for m in ALL_MITIGATIONS
                if m == "none" or getattr(sites, m) is not None]
    if mitigation not in accepted:
        raise ValueError(f"scenario {name!r} has no {mitigation!r} site "
                         f"(accepts: {', '.join(accepted)})")
    expected = "attack_succeeds" if mitigation in sites.leaks else "attack_fails"
    label, code = getattr(sites, mitigation, (None, ()))    # "none" inserts nothing
    p = assemble(src)
    return (insert_at_label(p, label, code) if code else p,
            name if mitigation == "none" else f"{name}+{mitigation}", expected)


_SPECTRE_1_0_SITES = MitigationSites(
    fence=("body", FENCE), coarse_mask=("body", coarse_mask(10, 4096)),
    exact_mask=("body", exact_mask(10, 2)), leaks=("none",))


def build_gadget_spectre_1_0(secret: int = 0x2A, mitigation: str = "none",
                             pad_uops: int = 0,
                             amplification: int = 1) -> Scenario:
    """Bounds check bypass on loads: the guarded double load runs before the
    slow bound resolves, leaving the secret's probe line in the cache.
    `pad_uops` lies in 0 to MAX_PAD_UOPS, and the probe span bounds
    `amplification` (2048 at most)."""
    if not 0 <= pad_uops <= MAX_PAD_UOPS:
        raise ValueError(f"pad_uops must lie in 0 to {MAX_PAD_UOPS}, got {pad_uops}")
    # the shift scales the secret to its entry's first probe line, so the
    # entries' spacing, amplification * 512 bytes, must be a power of two
    if amplification < 1 or amplification & (amplification - 1):
        raise ValueError(f"amplification must be a power of two, got {amplification}")
    probe = ProbeSpec(amplification=amplification)      # bounds the span first
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
    p, name, expected = _victim("spectre_1_0", src, _SPECTRE_1_0_SITES, mitigation)
    return Scenario(
        name=name, victim=p,
        attack_regs={10: SECRET_OFF, 11: ARR_B, 12: PROBE},
        benign_regs={10: 2, 11: ARR_B, 12: PROBE},
        regions=list(_COMMON_REGIONS),
        secret_value=secret,
        probe=probe,
        prime_branches=[(p.labels["check"], False)],
        slow_lines=[VARS],
        attempts=2 if amplification == 1 else 12,
        expected=expected,
    )


_CONTROL_SITES = MitigationSites(
    fence=("vstore", FENCE), coarse_mask=("vstore", coarse_mask(10, 0x20000)),
    exact_mask=("vstore", exact_mask(10, 2)), fence_gadget=("gbody", FENCE),
    leaks=("none", "coarse_mask", "fence_gadget"))
_ROP_SITES = replace(_CONTROL_SITES, fence_gadget=("g1", FENCE))


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
    movi r4, {hex(SECRET_ADDR)}
    ld.1 r5, [r4]
    shli r5, r5, 9
    add r6, r12, r5
    ld.1 r7, [r6]
gdone:
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
    sites = _ROP_SITES if rop else _CONTROL_SITES
    p, name, expected = _victim(
        "spectre_1_1_rop" if rop else "spectre_1_1_control", src, sites, mitigation)
    entry_label, fence = sites.fence_gadget                 # the gadget's entry
    entry_bump = 4 * len(fence) if mitigation == "fence_gadget" else 0  # jump over it

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


# ---------------------------------------------------------------------------
# scenario files: the bundled fixed victims and custom scenarios
# ---------------------------------------------------------------------------

def _reg(text: str) -> int:
    """A register as the assembler spells it: r0 to r31, or sp."""
    if text not in _REGS:
        raise ValueError(f"registers are r0 to r31 and sp, got {text!r}")
    return _REGS[text].n


def _number_or_label(text: str):
    """A number, or `@label` / `@label+N` as (label, N): resolved against the
    mitigated victim."""
    if not text.startswith("@"):
        return parse_int(text)
    label, plus, offset = text[1:].partition("+")
    return label, parse_int(offset) if plus else 0


def _leaks(text: str) -> Tuple[str, ...]:
    leaks = tuple(m.strip() for m in text.split(",") if m.strip())
    for m in leaks:
        if m not in ALL_MITIGATIONS:
            raise ValueError(f"unknown mitigation {m!r} (known: {', '.join(ALL_MITIGATIONS)})")
    return leaks


_MASK_SHAPES = {"coarse_mask": "LABEL, rINDEX, REGION_SIZE",
                "exact_mask": "LABEL, rINDEX, rBOUND"}


def _site(mitigation: str, text: str) -> tuple:
    """A site.MITIGATION value as (label, the code inserted there): a fence's
    label, or a mask's unchanged or label, index register and region size or
    bound register."""
    if mitigation not in _MASK_SHAPES:
        return text, FENCE
    if text == "unchanged":
        return None, ()
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected unchanged or {_MASK_SHAPES[mitigation]}")
    label, index, bound = parts
    if mitigation == "exact_mask":
        return label, exact_mask(_reg(index), _reg(bound))
    return label, coarse_mask(_reg(index), parse_int(bound))


def _address(text: str) -> int:
    addr = parse_int(text)
    if not 0 <= addr <= MASK64:
        raise ValueError(f"an address must lie in 0 to {MASK64:#x}, got {text}")
    return addr


def _access_size(text: str) -> int:
    size = parse_int(text)
    if size not in (1, 2, 4, 8):
        raise ValueError(f"an access size must be 1, 2, 4 or 8, got {text}")
    return size


def _region_size(text: str) -> int:
    size = parse_int(text)
    if size < 1:
        raise ValueError(f"a region size must be positive, got {text}")
    if size > MAX_REGION_PAGES * PAGE:
        raise ValueError(f"a region may cover at most {_MAX_REGION}, got {text}")
    return size


_FILE_SCALARS = {
    **dict.fromkeys(("name", "program"), str),
    **dict.fromkeys(("secret_addr", "probe_base"), _address),
    **dict.fromkeys(("secret_value", "priming", "attempts", "probe_stride",
                     "probe_entries", "amplification"), parse_int),
    "flush": lambda v: [_address(a) for a in v.split(",") if a],
    "leaks": _leaks}
_SITE_KEYS = {f"site.{m}" for m in ALL_MITIGATIONS if m != "none"}
_DIRECTIONS = {"taken": True, "not_taken": False}      # prime.LABEL values
_SIZED = {"mem": "ADDR.SIZE", "benign_mem": "ADDR.SIZE", "map": "BASE.SIZE"}
# list-valued keys, KIND.REST = value, and the Scenario field they fill
_FILE_LISTS = {"reg": "attack_regs", "benign_reg": "benign_regs", "prime": "prime_branches",
               "mem": "attack_mem", "benign_mem": "benign_mem", "map": "regions"}
_PROBE_KEYS = {"probe_base": "base", "probe_stride": "stride",
               "probe_entries": "entries", "amplification": "amplification"}


def _file_value(key: str, value: str):
    """One scenario-file value parsed by its key: KeyError for an unknown key,
    ValueError for a value or key shape that does not parse."""
    kind, dot, rest = key.partition(".")
    if key in _FILE_SCALARS:
        return _FILE_SCALARS[key](value)
    if key in _SITE_KEYS:
        return _site(rest, value)
    if not dot or kind not in _FILE_LISTS:
        raise KeyError(key)
    if kind in ("reg", "benign_reg"):
        return _reg(rest), _number_or_label(value)
    if kind == "prime":
        if value not in _DIRECTIONS:
            raise ValueError(f"expected taken or not_taken, got {value!r}")
        return (rest, 0), _DIRECTIONS[value]
    if rest.count(".") != 1:
        raise ValueError(f"expected {kind}.{_SIZED[kind]}")
    addr, size = rest.split(".")
    if kind == "map":
        if value not in ("rw", "ro"):
            raise ValueError(f"permission must be rw or ro, got {value!r}")
        return _address(addr), _region_size(size), value
    return _address(addr), _access_size(size), _number_or_label(value)


def _read_file(folder, filename: str, path: str) -> Tuple[dict, str, MitigationSites]:
    """Parse the scenario file `folder / filename`, named `path` in errors:
    its values by key (list-valued keys gathered under their Scenario field,
    in file order; `name` defaults to `path`), the text of its program, which
    lies next to it, and its mitigation sites."""
    opts = {"name": path}
    probe = {}                  # the probe's size keys so far, by ProbeSpec field

    def parsed(key: str, value: str):
        """`_file_value`, also checking each probe size, and bounding the
        probe span, at the line that sets it."""
        value = _file_value(key, value)
        if key in _PROBE_KEYS and key != "probe_base":
            probe[_PROBE_KEYS[key]] = value
            ProbeSpec(**probe)
        return value

    regs = {}                   # (kind, register) -> its first line and key
    for key, (line, value) in read_key_values((folder / filename).read_text(), parsed,
                                              f"{path}:").items():
        kind = key.partition(".")[0]
        if kind in ("reg", "benign_reg"):       # r31 and sp name one register
            first, first_key = regs.setdefault((kind, value[0]), (line, key))
            if first != line:
                raise ValueError(f"{path}:{line}: {key}: given again, first at line "
                                 f"{first} as {first_key}")
        if kind in _FILE_LISTS:
            opts.setdefault(_FILE_LISTS[kind], []).append(value)
        else:
            opts[key] = value
    if "program" not in opts:
        raise ValueError(f"{path}: missing program=")
    if probe and "probe_base" not in opts:
        key = next(k for k in opts if k in _PROBE_KEYS)
        raise ValueError(f"{path}: {key} given without probe_base, so there is no probe")
    sites = MitigationSites(leaks=opts.get("leaks", ()),
                            **{k[5:]: v for k, v in opts.items() if k in _SITE_KEYS})
    return opts, (folder / opts["program"]).read_text(), sites


def _scenario(opts: dict, src: str, sites: MitigationSites, mitigation: str = "none",
              secret: Optional[int] = None) -> Scenario:
    """The scenario a parsed file describes, under `mitigation`, with `secret`
    planted when given. Only the keys the file gives are passed on: the
    Scenario and ProbeSpec defaults stand for the rest."""
    victim, name, expected = _victim(opts["name"], src, sites, mitigation)
    labels = victim.labels

    def resolved(item: tuple) -> tuple:
        """`item` with each (label, offset) in it replaced by its address."""
        if tuple not in map(type, item):
            return item
        for value in item:
            if type(value) is tuple and value[0] not in labels:
                raise ValueError(f"scenario {opts['name']!r}: no label {value[0]!r} "
                                 "in its program")
        return tuple(labels[v[0]] + v[1] if type(v) is tuple else v for v in item)

    kw = {key: opts[key] for key in ("secret_addr", "secret_value", "priming", "attempts")
          if key in opts}
    if secret is not None:
        if "probe_base" not in opts:
            raise TypeError(f"scenario {opts['name']!r} has no probe to receive a secret")
        kw["secret_value"] = secret
    if "flush" in opts:
        kw["slow_lines"] = list(opts["flush"])
    if "probe_base" in opts:
        kw["probe"] = ProbeSpec(**{field: opts[key] for key, field in _PROBE_KEYS.items()
                                   if key in opts})
    if "leaks" in opts:
        kw["expected"] = expected
    for field_name in _FILE_LISTS.values():
        if field_name in opts:
            items = [resolved(item) for item in opts[field_name]]
            kw[field_name] = dict(items) if field_name.endswith("_regs") else items
    if "benign_regs" not in kw and "attack_regs" in kw:
        kw["benign_regs"] = dict(kw["attack_regs"])
    return Scenario(name=name, victim=victim, **kw)


@lru_cache(maxsize=None)
def _bundled_file(name: str) -> Tuple[dict, str, MitigationSites]:
    """Bundled scenario `name`'s file, read and parsed on first use."""
    return _read_file(resources.files(__package__) / "data", f"{name}.scenario",
                      f"{name}.scenario")


def _build_bundled(name: str, mitigation: str = "none",
                   secret: Optional[int] = None) -> Scenario:
    return _scenario(*_bundled_file(name), mitigation, secret)


def scenario_from_file(path: str, mitigation: str = "none",
                       secret: Optional[int] = None) -> Scenario:
    """Load a custom scenario from key=value text. The keys, their values and
    the errors are README's "Scenarios" section, whose example file
    `tests/test_docs.py` holds to the reader. A key or value the reader does
    not take, a key given twice and a probe size key without probe_base raise
    ValueError naming the file, and for a line also its number and key, before
    any page is mapped; so does a mitigation the file has no site for. An
    unreadable file raises OSError, a program that does not assemble AsmError,
    and a `secret` for a scenario with no probe TypeError.
    """
    file = Path(path)
    return _scenario(*_read_file(file.parent, file.name, path), mitigation, secret)


BUILDERS = {
    "spectre_1_0": build_gadget_spectre_1_0,
    "spectre_1_1_control": build_gadget_spectre_1_1_control,
    "spectre_1_1_rop": partial(build_gadget_spectre_1_1_control, rop=True),
    **{name: partial(_build_bundled, name) for name in (
        "spectre_1_1_data", "spectre_1_2", "ghost", "halo", "benign_spill")},
}

MATRIX_SCENARIOS = ("spectre_1_0", "spectre_1_1_data", "spectre_1_1_control",
                    "spectre_1_2", "ghost", "halo")


def build_scenario(name: str, mitigation: str = "none", **kw) -> Scenario:
    if name not in BUILDERS:
        raise KeyError(f"unknown scenario {name!r}")
    return BUILDERS[name](mitigation=mitigation, **kw)


def warm_whitelist(cfg: SimConfig) -> set:
    """Run the benign spill benchmark under the baseline policy and return the
    load pcs that consumed forwarded data on the committed path."""
    base_cfg = cfg.replace(forwarding_policy="baseline")
    policy = ForwardingPolicy("baseline")
    run_scenario(build_scenario("benign_spill"), base_cfg, policy=policy)
    return set(policy.whitelist)
