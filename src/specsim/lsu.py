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

A policy may carry peers: the names of other policies sharing its run
because every forwarding decision so far came out the same under each of them
(see `core.run_program`). At the allows test `forward_decision` asks every
peer too, and names the peers that answer differently. The group keeps one
whitelist: since it formed, each member has learned the same load pcs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

# policy -> allows(store, load_speculative, load_pc, load_forwardable,
# whitelist): may a matching older store forward its data to the load
POLICY_ALLOWS = {
    "baseline": lambda store, spec, pc, marked, whitelist: True,
    "slothbear_stores": lambda store, spec, pc, marked, whitelist: store.senior,
    "slothbear_loads": lambda store, spec, pc, marked, whitelist: not spec,
    "sloth_marked": lambda store, spec, pc, marked, whitelist: (
        store.forwardable and marked),
    "arctic_sloth": lambda store, spec, pc, marked, whitelist: pc in whitelist,
}
FORWARDING_POLICIES = tuple(POLICY_ALLOWS)


@dataclass(slots=True)
class StoreBufferEntry:
    seq: int                       # program-order position (STA's sequence number)
    size: int
    addr: Optional[int] = None
    data: Optional[int] = None
    senior: bool = False              # its last micro-op retired: it may drain
    forwardable: bool = False
    write_fault: bool = False         # the TLB refuses the write
    writeback_ready_cycle: Optional[int] = None

    def overlaps(self, addr: int, size: int) -> bool:
        return self.addr is not None and self.addr < addr + size and addr < self.addr + self.size


@dataclass
class ForwardingPolicy:
    variant: str = "baseline"
    whitelist: Set[int] = field(default_factory=set)
    # the names of the policies still sharing this one's run and whitelist;
    # not compared or printed
    peers: Tuple[str, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.variant not in POLICY_ALLOWS:
            raise ValueError(f"unknown forwarding policy {self.variant!r}")

    def save_whitelist(self, path: str) -> None:
        with open(path, "w") as f:
            for pc in sorted(self.whitelist):
                f.write(f"{pc:#x}\n")

    @staticmethod
    def load_whitelist(path: str) -> Set[int]:
        with open(path) as f:
            return {int(line.strip(), 16) for line in f if line.strip()}


@dataclass(frozen=True)
class ForwardDecision:
    kind: str                     # forward | forward_zero | wait | memory
    value: int = 0
    store_seq: int = -1
    # the policy's peers that answer the allows test the other way, and the
    # decision they take instead; empty unless the policy's run must split
    split: Tuple[str, ...] = ()
    other: Optional[ForwardDecision] = None


# the decisions that carry no value, shared by every load attempt
WAIT = ForwardDecision("wait")
MEMORY = ForwardDecision("memory")


class StoreBuffer:
    """Entries in seq order. Stores seniorize as they retire, in order, so
    the senior entries are a prefix and the oldest drainable one is the head,
    when it is senior. Fetch checks for room (`sb_capacity`) before it
    appends: a full buffer stalls fetch. Write-back removes the head."""

    def __init__(self):
        self.entries: List[StoreBufferEntry] = []   # ordered by seq

    def squash_younger(self, seq: int) -> None:
        """Drop non-senior entries younger than seq."""
        self.entries = [e for e in self.entries if e.seq <= seq or e.senior]


def forward_decision(load_seq: int, load_addr: int, load_size: int,
                     load_speculative: bool, load_pc: int, load_forwardable: bool,
                     sb: StoreBuffer, policy: ForwardingPolicy,
                     tlb_mode: str) -> ForwardDecision:
    """Decide how a resolved load meets the store buffer. `load_speculative`
    says whether some branch older than the load is still unresolved.

    Scans older stores youngest-first. An older store with an unresolved
    address conservatively blocks the load (no memory disambiguation
    speculation). Partial overlaps and size mismatches wait until the store
    drains, then fall through to memory. Only the allows test depends on the
    policy: when some of its peers answer it differently, the decision names
    them in `split`, with theirs in `other`.
    """
    for entry in reversed(sb.entries):
        if entry.seq > load_seq:
            continue
        if entry.addr is None:
            return WAIT
        if entry.addr == load_addr:
            if entry.size < load_size:
                return WAIT
            if entry.data is None:
                return WAIT
            allows = bool(POLICY_ALLOWS[policy.variant](
                entry, load_speculative, load_pc, load_forwardable, policy.whitelist))
            if policy.peers:
                split = tuple(peer for peer in policy.peers
                              if bool(POLICY_ALLOWS[peer](
                                  entry, load_speculative, load_pc, load_forwardable,
                                  policy.whitelist)) is not allows)
                if split:
                    forward = _forward(entry, load_size, tlb_mode)
                    mine, theirs = (forward, WAIT) if allows else (WAIT, forward)
                    return ForwardDecision(mine.kind, mine.value, mine.store_seq,
                                           split, theirs)
            return _forward(entry, load_size, tlb_mode) if allows else WAIT
        if entry.overlaps(load_addr, load_size):
            return WAIT
    return MEMORY


def _forward(store: StoreBufferEntry, load_size: int, tlb_mode: str) -> ForwardDecision:
    """The decision for a load that its matching store is allowed to forward to."""
    if store.write_fault:
        if tlb_mode == "forward_zero":
            return ForwardDecision("forward_zero", 0, store.seq)
        if tlb_mode == "eager":
            return WAIT
        # lazy: the fault is acted on only at retire; data flows now
    value = store.data & ((1 << (8 * load_size)) - 1)
    return ForwardDecision("forward", value, store.seq)
