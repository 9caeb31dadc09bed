"""Simulator configuration, trace records, and run reports."""

from __future__ import annotations

import hashlib
import dataclasses
from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional

from .lsu import FORWARDING_POLICIES

TLB_ENFORCEMENT_MODES = ("lazy", "eager", "forward_zero")

# the string-valued SimConfig fields and their allowed values; every other
# field is an int
CHOICES = {"forwarding_policy": FORWARDING_POLICIES,
           "tlb_enforcement": TLB_ENFORCEMENT_MODES}

# the largest branch history table: every predictor state holds one counter
# per entry, and real bimodal tables hold a few thousand
MAX_BHT_SIZE = 2 ** 16


@dataclass(frozen=True)
class SimConfig:
    """All machine knobs. Defaults model one thread of a wide modern core.
    `bht_size` is a power of two up to MAX_BHT_SIZE. Frozen, so the digest
    taken at construction stays true; `replace` builds a new config with its
    own digest."""

    rob_capacity: int = 224
    issue_width: int = 8
    retire_width: int = 4
    sb_capacity: int = 56
    mshr_count: int = 10
    rsb_depth: int = 16
    bht_size: int = 1024
    forwarding_policy: str = "baseline"
    tlb_enforcement: str = "lazy"
    dram_latency_cycles: int = 300
    l1_latency_cycles: int = 4
    timer_granularity_cycles: int = 1
    seed: int = 0
    cycle_limit: int = 1_000_000

    def __post_init__(self):
        # an L1 latency below 1 would finish a hit at or before its issue cycle
        for name in ("rob_capacity", "issue_width", "retire_width", "sb_capacity",
                     "mshr_count", "rsb_depth", "bht_size", "l1_latency_cycles",
                     "cycle_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.bht_size & (self.bht_size - 1) or self.bht_size > MAX_BHT_SIZE:
            raise ValueError(f"bht_size must be a power of two up to {MAX_BHT_SIZE}")
        if self.dram_latency_cycles <= self.l1_latency_cycles:
            raise ValueError("dram_latency_cycles must exceed l1_latency_cycles")
        if self.timer_granularity_cycles < 1:
            raise ValueError("timer_granularity_cycles must be >= 1")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        text = ";".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        object.__setattr__(self, "_digest", hashlib.sha256(text.encode()).hexdigest()[:16])

    def digest(self) -> str:
        """Short stable hash of every knob, for reproduction from a report."""
        return self._digest

    def replace(self, **kw) -> "SimConfig":
        return dataclasses.replace(self, **kw)


TRACE_KINDS = ("fetch", "dispatch", "issue", "execute", "forward", "mshr_alloc",
               "fill", "squash", "retire", "fault", "resteer")


@dataclass
class TraceEvent:
    cycle: int
    kind: str
    seq: int
    pc: int
    detail: str = ""


@dataclass
class RunReport:
    """Outcome of one simulated run (or one whole scenario). `to_dict` emits
    the outcome; the fields declared compare=False are what the run leaves to
    inspect, set on every return path: the last run's `Core` (its `arch_regs`
    and `mem` hold the committed state) and the trace events when collected."""

    scenario: str
    config_digest: str
    cycles: int = 0
    retired_instructions: int = 0
    squash_count: int = 0
    forward_count: int = 0
    mshr_peak: int = 0
    inferred_secret: Optional[int] = None
    attack_success: Optional[bool] = None
    fault: Optional[str] = None
    timed_out: bool = False
    core: object = field(default=None, repr=False, compare=False)     # a core.Core
    trace: Optional[List[TraceEvent]] = field(default=None, repr=False, compare=False)

    @property
    def ipc(self) -> float:
        return self.retired_instructions / self.cycles if self.cycles else 0.0

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        d["ipc"] = round(self.ipc, 6)
        return d


def parse_int(text: str) -> int:      # config and scenario files, CLI number flags
    return int(text, 0)                 # decimal, or 0x / 0o / 0b prefixed


def read_key_values(text: str, convert: Callable[[str, str], object],
                    where: str = "config line ") -> dict:
    """key=value lines -> {key: (its line, convert(key, value))}, in file order;
    '#' comments allowed. `convert` raises KeyError for an unknown key and
    ValueError for a bad value; the ValueError raised here, for those and for
    a key given twice (with its first line), names `where`, the line and the key."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{where}{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ValueError(f"{where}{lineno}: {key}: given again, first at line "
                             f"{out[key][0]}")
        try:
            out[key] = lineno, convert(key, value.strip())
        except KeyError:
            raise ValueError(f"{where}{lineno}: unknown key {key!r}") from None
        except ValueError as e:
            raise ValueError(f"{where}{lineno}: {key}: {e}") from None
    return out


def parse_config_file(text: str) -> dict:
    """key=value lines -> override dict with typed values."""
    parsers = {f.name: str if f.name in CHOICES else parse_int for f in fields(SimConfig)}
    return {key: value for key, (_, value) in read_key_values(
        text, lambda key, value: parsers[key](value)).items()}
