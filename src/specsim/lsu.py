"""Load-store unit: the store buffer and store-to-load forwarding decisions,
including the policy family that restricts forwarding.

The policies are README's "Forwarding policies" table, which
`tests/test_docs.py` holds to `POLICY_ALLOWS`. A policy's peers share its
run (see `core.run_program`).

Only a store older than the load can forward to it or hold it back, so with
none buffered `forward_decision` answers MEMORY under every policy and never
splits; the core then does not ask it.
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
    kind: str                     # forward | forward_zero | wait | memory | split
    value: int = 0
    store_seq: int = -1
    # for kind split only: the policy's peers that answer the allows test the
    # other way, so the policy's run must split
    split: Tuple[str, ...] = ()


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
    policy: when some of its peers answer it differently, a `split` decision
    names them and decides nothing. They all answer it alike, so asked under
    any one of them, with the others as its peers, it splits no further.
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
                    return ForwardDecision("split", split=split)
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
