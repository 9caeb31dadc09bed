"""Memory system: non-blocking L1 cache with MSHRs, flat DRAM latency, and a
TLB of per-page read/write permissions.

The cache tracks presence and fill timing only; committed data lives in a flat
sparse page store that changes solely at senior-store write-back (and scenario
setup). Fills outstanding in an MSHR are never cancelled: a squashed load's
line still installs, which is exactly the footprint the receiver measures.
The receiver reads `lines`, the resident line set, directly: Flush+Reload
observes which probe lines are resident, and that is the set itself. Its one
primitive here is `check_readable`, one permission check per probe page.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .config import SimConfig

PAGE = 4096
LINE = 64
N_SETS = 64
N_WAYS = 8


class MemFault(Exception):
    """Access to an unmapped page via a receiver-side primitive."""


@dataclass
class AccessResult:
    status: str                 # "hit" | "miss" | "mshr_full"
    ready_cycle: int = 0        # when the line is resident (hit or miss)
    mshr_allocated: bool = False


class MemorySystem:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.pages: Dict[int, bytearray] = {}
        self.tlb: Dict[int, Tuple[bool, bool]] = {}   # page -> (readable, writable)
        # set index -> its lines in way order, only for a set a line has been
        # installed in: a memory that never caches holds no set
        self.sets: Dict[int, List[int]] = {}
        self.rr: Dict[int, int] = {}      # set index -> next victim way, once it evicted
        self.lines: Dict[int, int] = {}               # line addr -> fill cycle
        self.mshrs: Dict[int, int] = {}               # line addr -> fill cycle
        self.next_fill: Optional[int] = None          # earliest fill cycle of an MSHR
        self.mshr_peak = 0

    def clone(self) -> MemorySystem:
        """An independent copy: no page, set or map is shared with this one."""
        twin = copy.copy(self)
        twin.pages = {page: bytearray(buf) for page, buf in self.pages.items()}
        twin.tlb = dict(self.tlb)
        twin.sets = {index: list(ways) for index, ways in self.sets.items()}
        twin.rr = dict(self.rr)
        twin.lines = dict(self.lines)
        twin.mshrs = dict(self.mshrs)
        return twin

    # -- address space -------------------------------------------------------

    def map_region(self, base: int, size: int, perm: str = "rw") -> None:
        writable = perm == "rw"
        for page in range(base & ~(PAGE - 1), base + size, PAGE):
            self.tlb[page] = (True, writable)

    def load_program_data(self, program) -> None:
        for seg in program.data:
            self.map_region(seg.addr, max(len(seg.data), 1), seg.perm)
            self.write_bytes(seg.addr, seg.data)

    def permits(self, addr: int, write: bool) -> bool:
        """Whether the TLB lets `addr` be written (`write`), else read; when
        the caller acts on a refusal is the caller's contract."""
        perm = self.tlb.get(addr & ~(PAGE - 1))
        return perm is not None and perm[1 if write else 0]

    # -- committed data ------------------------------------------------------

    def _page_for(self, addr: int) -> bytearray:
        page = addr & ~(PAGE - 1)
        buf = self.pages.get(page)
        if buf is None:
            buf = bytearray(PAGE)
            self.pages[page] = buf
        return buf

    def read_bytes(self, addr: int, n: int) -> bytes:
        out = bytearray()
        while n:
            page = addr & ~(PAGE - 1)
            off = addr - page
            take = min(n, PAGE - off)
            buf = self.pages.get(page)
            out += (buf[off:off + take] if buf is not None else bytes(take))
            addr += take
            n -= take
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        i = 0
        while i < len(data):
            page = addr & ~(PAGE - 1)
            off = addr - page
            take = min(len(data) - i, PAGE - off)
            self._page_for(addr)[off:off + take] = data[i:i + take]
            addr += take
            i += take

    def read_int(self, addr: int, size: int) -> int:
        off = addr & (PAGE - 1)
        if off + size > PAGE:                      # straddles two pages
            return int.from_bytes(self.read_bytes(addr, size), "little")
        buf = self.pages.get(addr - off)
        return 0 if buf is None else int.from_bytes(buf[off:off + size], "little")

    def write_int(self, addr: int, size: int, value: int) -> None:
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        off = addr & (PAGE - 1)
        if off + size > PAGE:
            self.write_bytes(addr, data)
        else:
            self._page_for(addr)[off:off + size] = data

    # -- cache and MSHRs -----------------------------------------------------

    def _install(self, line_addr: int, cycle: int) -> None:
        """Install a line that is not resident: only `tick` installs, and only
        lines it takes out of `mshrs`, which `access` fills with misses."""
        index = (line_addr // LINE) % N_SETS
        s = self.sets.get(index)
        if s is None:
            self.sets[index] = [line_addr]
        elif len(s) >= N_WAYS:
            victim_way = self.rr.get(index, 0)
            self.rr[index] = (victim_way + 1) % N_WAYS
            evicted = s[victim_way]
            s[victim_way] = line_addr
            del self.lines[evicted]
        else:
            s.append(line_addr)
        self.lines[line_addr] = cycle

    def _evict(self, line_addr: int) -> None:
        if line_addr not in self.lines:
            return
        del self.lines[line_addr]
        self.sets[(line_addr // LINE) % N_SETS].remove(line_addr)

    def access(self, addr: int, cycle: int) -> AccessResult:
        """One cache access by a load or a store's write-back."""
        line_addr = addr & ~(LINE - 1)
        if line_addr in self.lines:
            return AccessResult("hit", cycle + self.cfg.l1_latency_cycles)
        if line_addr in self.mshrs:
            return AccessResult("miss", ready_cycle=self.mshrs[line_addr])
        if len(self.mshrs) >= self.cfg.mshr_count:
            return AccessResult("mshr_full")
        ready = cycle + self.cfg.dram_latency_cycles
        self.mshrs[line_addr] = ready
        if self.next_fill is None or ready < self.next_fill:
            self.next_fill = ready
        self.mshr_peak = max(self.mshr_peak, len(self.mshrs))
        return AccessResult("miss", ready_cycle=ready, mshr_allocated=True)

    def tick(self, cycle: int) -> List[int]:
        """Install lines whose fills completed; returns installed line addresses."""
        done = [a for a, fill in self.mshrs.items() if fill <= cycle]
        for line_addr in done:
            self._install(line_addr, cycle)
            del self.mshrs[line_addr]
        self.next_fill = min(self.mshrs.values(), default=None)
        return done

    # -- receiver primitives (non-speculative attacker side) ------------------

    def check_readable(self, addrs: range) -> None:
        """Raise MemFault unless the TLB lets every address of `addrs` (step
        > 0) be read: one check per page, ascending, naming the page's first
        address. A step of a page or more puts each address on its own page."""
        pages = (addrs if addrs.step >= PAGE
                 else range(addrs[0] & ~(PAGE - 1), addrs[-1] + 1, PAGE))
        for page in pages:
            if not self.permits(page, write=False):
                first = addrs[max(0, -((addrs.start - page) // addrs.step))]
                raise MemFault(f"timed_read of unmapped/unreadable {first:#x}")

    def timed_read(self, addr: int) -> Tuple[int, int]:
        """Read one committed byte with the latency the receiver measures: an
        L1 hit or a DRAM miss. Does not disturb cache state."""
        self.check_readable(range(addr, addr + 1))
        latency = (self.cfg.l1_latency_cycles if addr & ~(LINE - 1) in self.lines
                   else self.cfg.dram_latency_cycles)
        return self.read_int(addr, 1), latency

    def flush_line(self, addr: int) -> None:
        self._evict(addr & ~(LINE - 1))

    # -- state snapshot for architectural comparisons -------------------------

    def committed_pages(self) -> Dict[int, bytes]:
        """Non-zero committed pages, canonical for equality checks."""
        zero = bytes(PAGE)
        return {p: bytes(b) for p, b in sorted(self.pages.items()) if bytes(b) != zero}
