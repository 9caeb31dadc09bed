"""Out-of-order speculative core: fetch along the predicted path, dispatch to
a reorder buffer, superscalar issue, branch resolution with squash, in-order
retirement, and senior-store write-back.

Speculation follows from sequence order: `live_tags` holds the sequence
numbers of unresolved branches, oldest first, and a micro-op is speculative
exactly when the oldest live tag is older than it. A branch resolving
correctly drops its tag; a misprediction removes every younger entry, rewinds
the rename map and store buffer, and resteers fetch. No live tag is ever older
than the ROB head, so retirement needs no speculation test, and the
architectural register file and committed memory only ever reflect the
correct path.

The loop is event-driven but cycle-exact. A cycle in which no stage changed
any state is followed by identical idle cycles until the next event (an
execution finishing, an MSHR fill, a senior store's write-back becoming due,
or the cycle limit), so `run` and `_drain` jump straight to it. Blocked
micro-ops wait on a count of producers not yet done, which completion
decrements through `waiting` (producer seq -> the entries it wakes).
Issue walks `ready`, the seq-ordered list of micro-ops whose producers are
all done (plus WAITING loads and an undone fence): fetch appends an entry
with no pending producer, and completion inserts a consumer whose count
reaches 0. `executing` is a wheel from done cycle to the entries finishing
then, so completion pops one bucket, and the memory system keeps its earliest
fill cycle, so fills are installed only when one is due. A step calls a stage
only when it has work, and a program is decoded once, by the first core that
runs it, into one tuple of micro-ops per instruction; fetch tells from the
first micro-op's kind (STA or CALL) whether the instruction takes a
store-buffer slot. With the trace off, no stage builds an event.
Issue reads operands from the register file unless a source was renamed, and
computes ALU and CMP results itself. Stores seniorize in retirement order, so
write-back drains the head of the seq-ordered store buffer.

A ROB entry links only to older entries: its operands' producers, dropped once
read at issue, and a store's store-buffer entry. The wake lists, which point
the other way, are the core's. So no reference cycle is left for the garbage
collector, and `fork` copies each entry and points each link at the copy.

Runs of one program under different forwarding policies are shared up to
the first load whose allows answer differs: `run_program` tells how.

A core may run its program again, as an attack's schedule does: `start` sets
the registers and pc, and the clock, counts, memory, predictors and whitelist
carry over; each run gets its own `cycle_limit`. After a fault or a timeout,
work is still in flight, and `start` refuses the core.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .config import RunReport, SimConfig, TraceEvent
from .isa import MASK64, NUM_REGS, MicroOp, Program, UopKind, decode
from .lsu import (FORWARDING_POLICIES, ForwardingPolicy, StoreBuffer, StoreBufferEntry,
                  forward_decision)
from .memory import MemorySystem
from .predictors import (PredictorState, predict_branch, rsb_pop, rsb_push,
                         train_branch)

# a micro-op's status: DISPATCHED; WAITING, a load that retries the store
# buffer or the MSHRs next cycle; EXECUTING until its done cycle, or LOADING,
# a load whose result is read from memory then; DONE; SQUASHED once removed
DISPATCHED, WAITING, EXECUTING, LOADING, DONE, SQUASHED = range(6)

# micro-op kinds as module globals: the stages test kinds on every micro-op,
# and a global lookup costs a tenth of a lookup on the Enum class
(ALU, CMP, BR_COND, JR_INDIRECT, LDA, STA, STD, FENCE, CSEL, CALL,
 HALT) = (UopKind.ALU, UopKind.CMP, UopKind.BR_COND, UopKind.JR_INDIRECT,
          UopKind.LDA, UopKind.STA, UopKind.STD, UopKind.FENCE, UopKind.CSEL,
          UopKind.CALL, UopKind.HALT)

_seq = attrgetter("seq")


@dataclass(slots=True)
class ROBEntry:
    seq: int
    uop: MicroOp
    # per source operand, the entry that writes it, or None for the register
    # file; None as a whole when no source was renamed or once read at issue
    producers: Optional[List[Optional[ROBEntry]]] = None
    sbe: Optional[StoreBufferEntry] = None     # STA, STD and CALL only
    status: int = DISPATCHED
    done_cycle: int = 0
    result: Optional[int] = None
    result2: Optional[int] = None
    addr: Optional[int] = None          # LDA only
    predicted: Optional[object] = None  # taken (bool) for BR_COND, target for JR
    actual: Optional[object] = None
    forwarded_from: Optional[int] = None
    fault: Optional[str] = None
    pending: int = 0                    # source operands whose producer is not DONE


def _slot_copier(cls):
    """fn(entry) -> a copy of slotted `cls`'s `entry`, made slot by slot; its
    code is generated from `fields(cls)`, as the dataclass's own `__init__`
    is, at about half the cost of building the copy through that `__init__`."""
    body = "".join(f"    c.{f.name} = e.{f.name}\n" for f in fields(cls))
    scope = {"new": object.__new__, "cls": cls}
    exec(f"def copy(e):\n    c = new(cls)\n{body}    return c\n", scope)
    return scope["copy"]


# how a fork copies its entries
_copy_rob_entry = _slot_copier(ROBEntry)
_copy_sb_entry = _slot_copier(StoreBufferEntry)


class Core:
    """One single-threaded, deterministic simulation instance."""

    def __init__(self, program: Program, cfg: SimConfig, mem: MemorySystem,
                 pred: PredictorState, policy: ForwardingPolicy):
        # the report's config digest names cfg's policy: the LSU must obey it
        if policy.variant != cfg.forwarding_policy:
            raise ValueError(f"forwarding policy {policy.variant!r} does not match "
                             f"the config's forwarding_policy {cfg.forwarding_policy!r}")
        self.program = program
        self.cfg = cfg
        self.mem = mem
        self.pred = pred
        self.policy = policy
        if program.decoded is None:
            program.decoded = tuple(map(decode, program.instructions))

        self.rob: List[ROBEntry] = []
        # seq order: entries whose producers are done but that have not
        # started executing (WAITING loads too), and a fence until it is done
        self.ready: List[ROBEntry] = []
        self.executing: Dict[int, List[ROBEntry]] = {}   # done_cycle -> entries
        # producer seq -> the entries its completion wakes (squashed ones too)
        self.waiting: Dict[int, List[ROBEntry]] = {}
        self.rename: Dict[int, ROBEntry] = {}
        self.live_tags: List[int] = []       # unresolved branch seqs, oldest first
        self.sb = StoreBuffer()
        self.cycle = 0
        self.fault: Optional[str] = None
        self.squash_count = 0
        self.forward_count = 0
        self.retired_instructions = 0
        self.start()

    def start(self, regs: Optional[Dict[int, int]] = None,
              trace: Optional[list] = None) -> None:
        """Begin a run at pc 0 with `regs` set (every other register 0) and
        its events appended to `trace`. A core starts as it is built and after
        a run that halted and drained. A fault or a timeout leaves work in its
        ROB or store buffer: then it raises ValueError, deciding nothing."""
        if self.fault is not None or self.rob or self.sb.entries:
            raise ValueError("work in flight: the core's last run faulted or timed out")
        self.arch_regs: List[int] = [0] * NUM_REGS
        for r, v in (regs or {}).items():
            self.arch_regs[r] = v & MASK64
        self.fetch_pc: Optional[int] = 0
        self.halted = False
        self.seq_counter = 0
        self.progress = True       # a stage changed state this cycle, or none ran yet
        self.start_cycle = self.cycle           # the run's cycle_limit counts from here
        self.trace = trace
        self.trace_start = 0 if trace is None else len(trace)   # where its events begin

    # -- tracing ---------------------------------------------------------------

    def _ev(self, kind: str, seq: int, pc: int, detail: str = ""):
        """Record one event; callers on hot paths test `self.trace` first so
        that with the trace off they build neither the event nor its detail."""
        if self.trace is not None:
            self.trace.append(TraceEvent(self.cycle, kind, seq, pc, detail))

    # -- operand handling --------------------------------------------------------

    def _srcs_ready(self, entry: ROBEntry) -> List[int]:
        """The source values of a ready entry with a renamed source. A retired
        producer's result is the value it wrote to the register file."""
        vals = []
        for reg, producer in zip(entry.uop.srcs, entry.producers):
            if producer is None:
                vals.append(self.arch_regs[reg])
            elif producer.uop.dst == reg:
                vals.append(producer.result)
            else:
                vals.append(producer.result2)
        entry.producers = None
        return vals

    # -- speculation bookkeeping ---------------------------------------------------

    def _squash_younger(self, seq: int) -> None:
        rob = self.rob
        cut = bisect_right(rob, seq, key=_seq)
        if cut == len(rob):
            return
        removed = rob[cut:]
        del rob[cut:]
        ready = self.ready
        del ready[bisect_right(ready, seq, key=_seq):]
        executing = self.executing
        for done_cycle, bucket in list(executing.items()):
            kept = [e for e in bucket if e.seq <= seq]
            if not kept:
                del executing[done_cycle]
            elif len(kept) != len(bucket):
                executing[done_cycle] = kept
        live_tags = self.live_tags
        while live_tags and live_tags[-1] > seq:
            live_tags.pop()
        for producer in [p for p in self.waiting if p > seq]:
            del self.waiting[producer]
        trace = self.trace
        for e in removed:
            e.status = SQUASHED
            if trace is not None:
                self._ev("squash", e.seq, e.uop.parent_pc)
        self.sb.squash_younger(seq)
        rename = self.rename = {}
        for e in rob:
            if e.uop.dst is not None:
                rename[e.uop.dst] = e
            if e.uop.dst2 is not None:
                rename[e.uop.dst2] = e

    def _resolve_branch(self, entry: ROBEntry) -> None:
        uop = entry.uop
        if uop.srcs:                        # predicted (not jmp): its seq is live
            self.live_tags.remove(entry.seq)
        if entry.predicted == entry.actual:
            return
        self.squash_count += 1
        self._squash_younger(entry.seq)
        if uop.kind is BR_COND:
            self.fetch_pc = uop.imm if entry.actual else uop.parent_pc + 4
        else:  # JR_INDIRECT
            self.fetch_pc = entry.actual
            if self.trace is not None:
                self._ev("resteer", entry.seq, uop.parent_pc,
                         f"target={entry.actual:#x}")

    # -- memory micro-ops ----------------------------------------------------------

    def _attempt_load(self, entry: ROBEntry) -> Optional[Tuple[str, ...]]:
        """Forward, access memory, or leave the load WAITING to retry next
        cycle, as the LSU decides. A retry that stays WAITING changes no
        state. A split decision decides nothing: it returns the peers that
        answer the other way, for the issue stage to split on."""
        uop = entry.uop
        live_tags = self.live_tags
        decision = forward_decision(entry.seq, entry.addr, uop.size,
                                    bool(live_tags) and live_tags[0] < entry.seq,
                                    uop.parent_pc, uop.forwardable, self.sb,
                                    self.policy, self.cfg.tlb_enforcement)
        if decision.split:
            return decision.split
        kind = decision.kind
        if kind == "forward" or kind == "forward_zero":
            self.progress = True
            entry.result = decision.value
            entry.forwarded_from = decision.store_seq
            entry.status = EXECUTING
            entry.done_cycle = self.cycle + 1
            self.executing.setdefault(entry.done_cycle, []).append(entry)
            self.forward_count += 1
            if self.trace is not None:
                self._ev("forward", entry.seq, uop.parent_pc,
                         f"value={decision.value:#x} from_seq={decision.store_seq}")
        elif kind == "memory":
            res = self.mem.access(entry.addr, self.cycle)
            if res.status == "mshr_full":
                entry.status = WAITING          # retry next cycle
                return None
            self.progress = True
            if res.mshr_allocated and self.trace is not None:
                self._ev("mshr_alloc", entry.seq, uop.parent_pc,
                         f"line={entry.addr & ~63:#x}")
            entry.status = LOADING
            entry.done_cycle = res.ready_cycle
            self.executing.setdefault(entry.done_cycle, []).append(entry)
        else:
            entry.status = WAITING
        return None

    def _split(self, entry: ROBEntry, members: Tuple[str, ...], issued: int,
               loads: int, stds: int, branches: int) -> None:
        """The peers `members` answer the allows test of `entry`, a load being
        issued, the other way. File a fork for them that finishes the cycle:
        it decides the load, issues on from the same place and counts, fetches
        and advances its clock. Then ask again here, where the rest agree."""
        after = bisect_right(self.ready, entry.seq, key=_seq)
        twin = self._file(members)
        twin._attempt_load(twin.ready[after - 1])
        twin._stage_issue((after, issued, loads, stds, branches))
        if twin.fetch_pc is not None:
            twin._stage_fetch()
        twin.cycle += 1
        twin.program = None
        self._attempt_load(entry)

    # -- one pipeline stage each ------------------------------------------------------

    def _stage_complete(self) -> None:
        cycle = self.cycle
        mem = self.mem
        if mem.next_fill is not None and mem.next_fill <= cycle:
            for line in mem.tick(cycle):
                self.progress = True
                if self.trace is not None:
                    self._ev("fill", -1, 0, f"line={line:#x}")
        due = self.executing.pop(cycle, None)
        if due is None:
            return
        if len(due) > 1:
            due.sort(key=_seq)
        trace = self.trace
        ready = self.ready
        waiting = self.waiting
        for entry in due:
            status = entry.status
            if status == SQUASHED:          # by an older branch resolved above
                continue
            if status == LOADING:
                entry.result = mem.read_int(entry.addr, entry.uop.size)
            entry.status = DONE
            self.progress = True
            consumers = waiting.pop(entry.seq, None)
            if consumers is not None:
                for consumer in consumers:
                    consumer.pending -= 1
                    if not consumer.pending and consumer.status != SQUASHED:
                        if not ready or ready[-1].seq < consumer.seq:
                            ready.append(consumer)
                        else:
                            insort(ready, consumer, key=_seq)
            if trace is not None:
                self._ev("execute", entry.seq, entry.uop.parent_pc)
            kind = entry.uop.kind
            if kind is BR_COND or kind is JR_INDIRECT:
                self._resolve_branch(entry)
            elif kind is FENCE:
                # it issued when everything older was done, and nothing younger
                # issues before it is done, so it heads the ready list
                del ready[0]

    def _stage_retire(self) -> None:
        """Retire DONE entries from the ROB head. The head is never
        speculative: every older branch has retired, so none is unresolved."""
        rob = self.rob
        width = self.cfg.retire_width
        arch_regs = self.arch_regs
        rename = self.rename
        retired = 0
        while rob and retired < width:
            entry = rob[0]
            if entry.status != DONE:
                return
            uop = entry.uop
            kind = uop.kind
            self.progress = True
            if entry.fault:
                self.fault = entry.fault
                self._ev("fault", entry.seq, uop.parent_pc, entry.fault)
                return
            sbe = entry.sbe
            if sbe is not None:
                if sbe.write_fault:
                    self.fault = f"write_fault pc={uop.parent_pc:#x} addr={sbe.addr:#x}"
                    self._ev("fault", entry.seq, uop.parent_pc, self.fault)
                    return
                if uop.last:                # the STD, or a call's one micro-op
                    sbe.senior = True
            if uop.dst is not None:
                arch_regs[uop.dst] = entry.result
                if rename.get(uop.dst) is entry:
                    del rename[uop.dst]
            if uop.dst2 is not None:
                arch_regs[uop.dst2] = entry.result2
                if rename.get(uop.dst2) is entry:
                    del rename[uop.dst2]
            if kind is BR_COND and uop.fn is not None:
                train_branch(self.pred, uop.parent_pc, entry.actual)
            elif kind is LDA and entry.forwarded_from is not None:
                self.policy.whitelist.add(uop.parent_pc)
            elif kind is HALT:
                self.halted = True
            if uop.last:
                self.retired_instructions += 1
            if self.trace is not None:
                self._ev("retire", entry.seq, uop.parent_pc)
            del rob[0]
            retired += 1
            if self.halted:
                return

    def _stage_writeback(self) -> None:
        """Write back the head of the store buffer, which the caller found
        senior, and remove it once written."""
        entries = self.sb.entries
        e = entries[0]
        if e.writeback_ready_cycle is None:
            res = self.mem.access(e.addr, self.cycle)
            if res.status == "hit":
                self.mem.write_int(e.addr, e.size, e.data)
                del entries[0]
            elif res.status == "miss":
                e.writeback_ready_cycle = res.ready_cycle
            else:
                return                      # mshr_full: retry after a fill
        elif self.cycle >= e.writeback_ready_cycle:
            self.mem.write_int(e.addr, e.size, e.data)
            del entries[0]
        else:
            return
        self.progress = True

    def _begin_execution(self, entry: ROBEntry, vals: List[int]) -> bool:
        """Issue's work for every kind but ALU and CMP. True when the micro-op
        is a load for `_attempt_load`, which sets its status; any other starts
        a one-cycle execution."""
        uop = entry.uop
        kind = uop.kind
        if kind is CSEL:
            entry.result = vals[0] if uop.fn(vals[2]) else vals[1]
        elif kind is BR_COND:
            entry.actual = uop.fn is None or uop.fn(vals[0])     # jmp: taken
        elif kind is JR_INDIRECT:
            entry.actual = vals[0]
        elif kind is LDA:
            addr = (vals[0] + uop.imm) & MASK64
            entry.addr = addr
            if uop.dst2 is not None:                      # ret: bump sp
                entry.result2 = (addr + 8) & MASK64
            if self.mem.permits(addr, write=False):
                return True
            entry.fault = f"unmapped_load pc={uop.parent_pc:#x} addr={addr:#x}"
            entry.result = 0
        elif kind is STA:
            addr = entry.sbe.addr = (vals[0] + uop.imm) & MASK64
            entry.sbe.write_fault = not self.mem.permits(addr, write=True)
        elif kind is STD:
            entry.sbe.data = vals[0] & MASK64
        elif kind is CALL:
            addr = entry.result = entry.sbe.addr = (vals[0] - 8) & MASK64
            entry.sbe.write_fault = not self.mem.permits(addr, write=True)
            entry.sbe.data = (uop.parent_pc + 4) & MASK64
        # FENCE and HALT carry no operands and produce no result
        return False

    def _stage_issue(self, loop: Optional[tuple] = None) -> None:
        """Issue from `ready` in seq order. `loop`, from a fork taken at a
        split load, goes on with the walk after that load: its position after
        the load and the issued, load, std and branch counts so far."""
        ready = self.ready
        if loop is None:
            issued = loads = stds = branches = 0
            entries = ready
        else:
            after, issued, loads, stds, branches = loop
            entries = ready[after:]
        width = self.cfg.issue_width
        cycle = self.cycle
        arch_regs = self.arch_regs
        trace = self.trace
        bucket = None                       # the entries done next cycle
        for entry in entries:
            if issued >= width:
                break
            uop = entry.uop
            kind = uop.kind
            if kind is FENCE:
                # serializes: nothing younger issues until the fence completes,
                # so nothing younger executes. Everything older is done when
                # nothing older is ready or executing: a pending entry waits,
                # down its chain of producers, on one that is.
                if not (entry.status == DISPATCHED and entry is ready[0]
                        and not self.executing):
                    break
            elif kind is LDA:
                if loads >= 2:
                    continue
            elif kind is STD:
                if stds >= 1:
                    continue
            elif kind is BR_COND or kind is JR_INDIRECT:
                if branches >= 2:
                    continue
            if entry.status == WAITING:
                loads += 1
                issued += 1
                split = self._attempt_load(entry)
                if split is not None:
                    self._split(entry, split, issued, loads, stds, branches)
                continue
            if entry.producers is None:
                vals = list(map(arch_regs.__getitem__, uop.srcs))
            else:
                vals = self._srcs_ready(entry)
            if kind is LDA:
                loads += 1
            elif kind is STD:
                stds += 1
            elif kind is BR_COND or kind is JR_INDIRECT:
                branches += 1
            issued += 1
            self.progress = True
            if trace is not None:
                self._ev("issue", entry.seq, uop.parent_pc)
            if kind is ALU or kind is CMP:
                entry.result = uop.fn(vals[0] if vals else uop.imm,
                                      vals[1] if len(vals) == 2 else uop.imm)
            elif self._begin_execution(entry, vals):
                split = self._attempt_load(entry)
                if split is not None:
                    self._split(entry, split, issued, loads, stds, branches)
                continue
            entry.status = EXECUTING
            entry.done_cycle = cycle + 1
            if bucket is None:
                bucket = self.executing.setdefault(cycle + 1, [])
            bucket.append(entry)
            if kind is FENCE:
                break
        if issued:
            self.ready = [e for e in ready
                          if e.status < EXECUTING or e.uop.kind is FENCE]

    def _stage_fetch(self) -> None:
        pc = self.fetch_pc
        decoded = self.program.decoded
        rob = self.rob
        ready = self.ready
        rename = self.rename
        rename_get = rename.get
        waiting = self.waiting
        live_tags = self.live_tags
        trace = self.trace
        sb_entries = self.sb.entries
        width = self.cfg.issue_width
        rob_room = self.cfg.rob_capacity - len(rob)
        sb_room = self.cfg.sb_capacity - len(sb_entries)
        seq = self.seq_counter
        dispatched = 0
        n_instructions = len(decoded)
        while dispatched < width and pc is not None:
            idx = pc >> 2
            if pc & 3 or idx >= n_instructions:
                break                               # fetch stalled off the map
            uops = decoded[idx]
            n_uops = len(uops)
            if n_uops > rob_room:
                break
            first = uops[0].kind
            if first is STA or first is CALL:       # takes a store-buffer slot
                if not sb_room:
                    break                           # structural stall
                sb_room -= 1
            rob_room -= n_uops
            self.progress = True
            if trace is not None:
                self._ev("fetch", -1, pc, self.program.instructions[idx].mnemonic)
            next_pc = pc + 4
            sbe = None
            for uop in uops:
                entry = ROBEntry(seq, uop)
                if uop.srcs:
                    producers = list(map(rename_get, uop.srcs))
                    for producer in producers:
                        if producer is not None:
                            entry.producers = producers
                            if producer.status != DONE:
                                entry.pending += 1
                                waiting.setdefault(producer.seq, []).append(entry)
                kind = uop.kind
                if kind is ALU:
                    pass                            # most micro-ops: nothing to set up
                elif kind is BR_COND:
                    if uop.fn is None:              # jmp
                        entry.predicted = True
                        next_pc = uop.imm
                    else:
                        taken = entry.predicted = predict_branch(self.pred, pc)
                        live_tags.append(seq)
                        next_pc = uop.imm if taken else pc + 4
                elif kind is STA:
                    sbe = entry.sbe = StoreBufferEntry(seq, uop.size,
                                                       forwardable=uop.forwardable)
                    sb_entries.append(sbe)
                elif kind is STD:
                    entry.sbe = sbe
                elif kind is CALL:
                    entry.sbe = StoreBufferEntry(seq, uop.size)
                    sb_entries.append(entry.sbe)
                    rsb_push(self.pred, pc + 4)
                    next_pc = uop.imm
                elif kind is JR_INDIRECT:
                    entry.predicted = rsb_pop(self.pred) if uop.is_return else None
                    live_tags.append(seq)
                    next_pc = entry.predicted       # None stalls fetch
                elif kind is HALT:
                    next_pc = None
                if uop.dst is not None:
                    rename[uop.dst] = entry
                if uop.dst2 is not None:
                    rename[uop.dst2] = entry
                rob.append(entry)
                if not entry.pending:
                    ready.append(entry)
                if trace is not None:
                    self._ev("dispatch", seq, pc, kind.value)
                seq += 1
            dispatched += n_uops
            pc = next_pc
        self.fetch_pc = pc
        self.seq_counter = seq

    def step(self) -> None:
        """Advance one cycle; `progress` tells whether any state changed."""
        self.progress = False
        fill = self.mem.next_fill
        if self.cycle in self.executing or (fill is not None and fill <= self.cycle):
            self._stage_complete()
        if self.rob and self.rob[0].status == DONE:
            self._stage_retire()
            if self.fault:
                return
        sb_entries = self.sb.entries
        if sb_entries and sb_entries[0].senior:
            self._stage_writeback()
        if self.ready:
            self._stage_issue()
        if self.fetch_pc is not None:
            self._stage_fetch()
        self.cycle += 1

    # -- whole-run driver ------------------------------------------------------------

    def run(self) -> RunReport:
        """Run to a halt, a fault or the cycle limit, then drain unless the
        limit was reached. Any cycle that changed nothing is followed by a
        jump to the next event."""
        report = RunReport("", self.cfg.digest(), core=self, trace=self.trace)
        limit = self.start_cycle + self.cfg.cycle_limit
        while not self.halted and self.fault is None:
            if not self.progress:
                self._skip_idle(limit)
            if self.cycle >= limit:
                report.timed_out = True
                break
            self.step()
        if self.fault is not None:      # the faulting micro-op and younger never retire
            self.sb.squash_younger(self.rob[0].seq - 1)
            self.executing = {}         # nor complete, so no skip waits for them
        if not report.timed_out:
            self._drain()
        if self.policy.peers:       # never split off: the end state is theirs too
            self._file(self.policy.peers).program = None
        report.cycles = self.cycle
        report.retired_instructions = self.retired_instructions
        report.squash_count = self.squash_count
        report.forward_count = self.forward_count
        report.mshr_peak = self.mem.mshr_peak
        report.fault = self.fault
        return report

    def _skip_idle(self, limit: Optional[int] = None) -> None:
        """After a cycle that changed nothing, every cycle up to the next event
        is the same idle cycle: jump to the earliest of an execution finishing,
        an MSHR fill, the oldest senior store's write-back, and `limit`."""
        events = [] if limit is None else [limit]
        if self.executing:
            events.append(min(self.executing))
        if self.mem.next_fill is not None:
            events.append(self.mem.next_fill)
        entries = self.sb.entries       # only a senior head has a write-back pending
        if entries and entries[0].writeback_ready_cycle is not None:
            events.append(entries[0].writeback_ready_cycle)
        self.cycle = max(self.cycle, min(events))

    def _drain(self) -> None:
        """After halt or a fault, finish senior write-backs and let pending
        fills land. Fills are never cancelled, so a squashed miss still
        installs its line. It ends on its own, however long the DRAM latency:
        a pass that changes nothing leaves a fill or the head's write-back
        scheduled, and the skip jumps to it."""
        mem = self.mem
        while self.sb.entries or mem.mshrs:
            self.progress = (mem.next_fill is not None and mem.next_fill <= self.cycle
                             and bool(mem.tick(self.cycle)))
            if self.sb.entries:         # after a halt or a fault, every entry is senior
                self._stage_writeback()
            self.cycle += 1
            if not self.progress:
                self._skip_idle()

    # -- copies -------------------------------------------------------------------------

    def fork(self) -> Core:
        """An independent copy of this core at a cycle boundary or at the
        issue stage's split place: fresh ROB and store-buffer entries, each
        link (wake lists too) pointing at the copy of its entry, and its own
        memory, predictors, whitelist and trace. Neither run changes the other."""
        policy = self.policy
        # __init__, not copy.copy: a copied __dict__ loses CPython's inline attribute fast
        # path; under cfg's policy, which __init__ checks and a fork's own may differ from
        twin = Core(self.program, self.cfg, self.mem.clone(), self.pred.clone(),
                    ForwardingPolicy(self.cfg.forwarding_policy))
        twin.policy = ForwardingPolicy(policy.variant, set(policy.whitelist), policy.peers)
        stores = {e.seq: _copy_sb_entry(e) for e in self.sb.entries}
        twin.sb.entries = list(stores.values())
        rob = self.rob
        oldest = rob[0].seq if rob else self.seq_counter
        # a pending entry may read a producer that has retired since it dispatched
        retired = {p.seq: p for e in rob if e.producers is not None
                   for p in e.producers if p is not None and p.seq < oldest}
        entries = {e.seq: _copy_rob_entry(e) for e in chain(retired.values(), rob)}
        for e in entries.values():
            if e.producers is not None:
                e.producers = [None if p is None else entries[p.seq] for p in e.producers]
            if e.sbe is not None:           # a retired producer's store may have drained
                e.sbe = stores.get(e.sbe.seq)
        twin.rob = [entries[e.seq] for e in rob]
        twin.ready = [entries[e.seq] for e in self.ready]
        twin.executing = {cycle: [entries[e.seq] for e in bucket]
                          for cycle, bucket in self.executing.items()}
        twin.waiting = {seq: [entries[e.seq] for e in woken if e.status != SQUASHED]
                        for seq, woken in self.waiting.items()}
        twin.rename = {reg: entries[e.seq] for reg, e in self.rename.items()}
        twin.live_tags = list(self.live_tags)
        twin.arch_regs = list(self.arch_regs)
        if self.trace is not None:
            twin.trace = list(self.trace)
        for name in ("fetch_pc", "cycle", "start_cycle", "trace_start", "halted", "fault",
                     "seq_counter", "squash_count", "forward_count", "retired_instructions",
                     "progress"):
            setattr(twin, name, getattr(self, name))
        return twin

    def _file(self, members: Tuple[str, ...]) -> Core:
        """File a fork of this core on the program for `members`, the first its
        policy and the others its peers, and drop them from the peers. The
        caller drops the fork's program at a cycle boundary: no cycle runs
        through the program."""
        twin = self.fork()
        twin.policy.variant, twin.policy.peers = members[0], members[1:]
        for variant in members:
            self.program.snapshots[1][variant] = twin
        self.policy.peers = tuple(p for p in self.policy.peers if p not in members)
        return twin


# what a shared run's filed copies are keyed on, besides regs and tracing
_SHARED_CONFIG = tuple(f.name for f in fields(SimConfig) if f.name != "forwarding_policy")


def run_program(program: Program, cfg: SimConfig, regs: Optional[Dict[int, int]] = None,
                trace: Optional[list] = None) -> RunReport:
    """Assembled program -> deterministic report. Same inputs, same report.

    The run starts from fresh state and is shared with the forwarding policies
    not yet asked for on this `Program`. A policy enters the core only at the
    allows test of `forward_decision` and at retirement's `whitelist.add`, so
    runs under different policies are identical up to the first load whose
    allows answers differ. The run's policy carries the others as its peers,
    and the group keeps one whitelist: since it formed, each member has learned
    the same load pcs. At a load where some peers answer differently,
    `forward_decision` decides nothing and its `split` decision names them.
    `Core._split` files a `Core.fork` on the program for them and finishes the
    cycle on it under their policies: the fork decides the load, where its
    members all answer alike, issues on from the same place, fetches and
    advances its clock, and only then drops its program. The core asks the LSU
    again for the rest. The peers that never split off get a fork of the end
    state. So every filed fork is an ordinary core at a cycle boundary.

    A later call for one of a fork's members, with the same config apart from
    the policy, the same `regs` and tracing on or off alike (the key), takes up
    that fork and runs it on, so the prefix runs once; its report and trace
    equal those of a `Core` run alone. Each fork is removed once taken up, a
    call with another key replaces them all, and the program keeps the rest
    until it is dropped. To run on given memory, predictors or policy, build a
    `Core` and `start` it: such a core runs alone and files nothing.
    """
    key = (tuple(getattr(cfg, name) for name in _SHARED_CONFIG),
           tuple(sorted(regs.items())) if regs else (), trace is not None)
    if program.snapshots is None or program.snapshots[0] != key:
        program.snapshots = (key, {})
    forks = program.snapshots[1]
    variant = cfg.forwarding_policy
    core = forks.get(variant)
    if core is None:
        mem = MemorySystem(cfg)
        mem.load_program_data(program)
        peers = tuple(p for p in FORWARDING_POLICIES if p != variant and p not in forks)
        core = Core(program, cfg, mem, PredictorState(cfg.bht_size, cfg.rsb_depth),
                    ForwardingPolicy(variant, peers=peers))
        core.start(regs, trace)
    else:       # take up the fork as this policy's run, its other members as peers
        members = (core.policy.variant,) + core.policy.peers
        for member in members:
            del forks[member]
        core.program, core.cfg, core.mem.cfg = program, cfg, cfg
        core.policy = ForwardingPolicy(variant, core.policy.whitelist,
                                       tuple(p for p in members if p != variant))
        if trace is not None:       # the fork's events so far move to `trace`
            core.trace_start, events = len(trace), core.trace[core.trace_start:]
            trace.extend(events)
        core.trace = trace
    return core.run()
