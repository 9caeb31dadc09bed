"""Load-store unit: the store buffer and store-to-load forwarding decisions,
including the policy family that restricts forwarding.

Policies:
  baseline          forward from the youngest older store with a fully matching
                    address, store size >= load size, resolved data
  slothbear_stores  baseline, but non-senior stores never forward
  slothbear_loads   baseline, but loads still under unresolved branches never
                    receive forwarded data
  sloth_marked      forwarding only between accesses marked forwardable ('!')
  arctic_sloth      forwarding only to load pcs on a whitelist learned from
                    loads that consumed forwarded data on committed paths

The whitelist persists via a text state file, one hexadecimal pc per line.
A further design point would track whitelisted (store pc, load pc) pairs;
this implementation keeps the simpler load-pc variant, accepting data from
any store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from .config import FORWARDING_POLICIES
from .isa import MASK64


@dataclass
class StoreBufferEntry:
    seq: int                       # program-order position (STA's sequence number)
    slot_id: int                   # dynamic instruction id shared by STA and STD
    size: int
    addr: Optional[int] = None
    data: Optional[int] = None
    senior: bool = False
    forwardable: bool = False
    spec_colors: Set[int] = field(default_factory=set)
    perm_checked: str = "unchecked"   # unchecked | ok | write_fault
    uop_count: int = 2                # call-pushed entries resolve in one micro-op
    retired_uops: int = 0
    writeback_ready_cycle: Optional[int] = None

    def overlaps(self, addr: int, size: int) -> bool:
        return self.addr is not None and self.addr < addr + size and addr < self.addr + self.size


@dataclass
class ForwardingPolicy:
    variant: str = "baseline"
    whitelist: Set[int] = field(default_factory=set)

    def __post_init__(self):
        if self.variant not in FORWARDING_POLICIES:
            raise ValueError(f"unknown forwarding policy {self.variant!r}")

    def learn(self, load_pc: int) -> None:
        self.whitelist.add(load_pc)

    def save_whitelist(self, path: str) -> None:
        with open(path, "w") as f:
            for pc in sorted(self.whitelist):
                f.write(f"{pc:#x}\n")

    @staticmethod
    def load_whitelist(path: str) -> Set[int]:
        with open(path) as f:
            return {int(line.strip(), 16) for line in f if line.strip()}


@dataclass
class ForwardDecision:
    kind: str                     # forward | forward_zero | wait | memory
    value: int = 0
    store_seq: int = -1


class StoreBuffer:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: List[StoreBufferEntry] = []   # ordered by seq

    def __len__(self):
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def insert(self, entry: StoreBufferEntry) -> bool:
        """False signals a structural stall: dispatch must retry next cycle."""
        if self.full:
            return False
        self.entries.append(entry)
        return True

    def by_slot(self, slot_id: int) -> StoreBufferEntry:
        for e in self.entries:
            if e.slot_id == slot_id:
                return e
        raise KeyError(f"no store-buffer entry for slot {slot_id}")

    def resolve_addr(self, slot_id: int, addr: int, perm_verdict: str) -> StoreBufferEntry:
        e = self.by_slot(slot_id)
        e.addr = addr
        e.perm_checked = perm_verdict
        return e

    def resolve_data(self, slot_id: int, data: int) -> StoreBufferEntry:
        e = self.by_slot(slot_id)
        e.data = data & MASK64
        return e

    def mark_uop_retired(self, slot_id: int) -> StoreBufferEntry:
        """Seniorize once every micro-op of the store has retired."""
        e = self.by_slot(slot_id)
        e.retired_uops += 1
        if e.retired_uops >= e.uop_count:
            e.senior = True
            e.spec_colors.clear()
        return e

    def squash_younger(self, seq: int) -> List[StoreBufferEntry]:
        """Drop non-senior entries younger than seq; returns what was removed."""
        gone = [e for e in self.entries if e.seq > seq and not e.senior]
        if gone:
            self.entries = [e for e in self.entries if not (e.seq > seq and not e.senior)]
        return gone

    def drop(self, entry: StoreBufferEntry) -> None:
        self.entries.remove(entry)

    def oldest_drainable(self) -> Optional[StoreBufferEntry]:
        for e in self.entries:
            if e.senior:
                return e
        return None


def forward_decision(load_seq: int, load_addr: int, load_size: int,
                     load_colors: Set[int], load_pc: int, load_forwardable: bool,
                     sb: StoreBuffer, policy: ForwardingPolicy,
                     tlb_mode: str) -> ForwardDecision:
    """Decide how a resolved load meets the store buffer.

    Scans older stores youngest-first. An older store with an unresolved
    address conservatively blocks the load (no memory disambiguation
    speculation). Partial overlaps and size mismatches wait until the store
    drains, then fall through to memory.
    """
    for entry in reversed(sb.entries):
        if entry.seq > load_seq:
            continue
        if entry.addr is None:
            return ForwardDecision("wait")
        if entry.addr == load_addr:
            if entry.size < load_size:
                return ForwardDecision("wait")
            if entry.data is None:
                return ForwardDecision("wait")
            allowed = True
            if policy.variant == "slothbear_stores":
                allowed = entry.senior
            elif policy.variant == "slothbear_loads":
                allowed = not load_colors
            elif policy.variant == "sloth_marked":
                allowed = entry.forwardable and load_forwardable
            elif policy.variant == "arctic_sloth":
                allowed = load_pc in policy.whitelist
            if not allowed:
                return ForwardDecision("wait")
            if entry.perm_checked == "write_fault":
                if tlb_mode == "forward_zero":
                    return ForwardDecision("forward_zero", 0, entry.seq)
                if tlb_mode == "eager":
                    return ForwardDecision("wait")
                # lazy: the fault is acted on only at retire; data flows now
            value = entry.data & ((1 << (8 * load_size)) - 1)
            return ForwardDecision("forward", value, entry.seq)
        if entry.overlaps(load_addr, load_size):
            return ForwardDecision("wait")
    return ForwardDecision("memory")
