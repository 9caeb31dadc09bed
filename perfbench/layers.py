"""Per-layer attribution for the traced run.

`Tracer.install` replaces public entry points of each specsim module with
wrappers that record a span (name, start, end, parent span, unit) and a call
count. The wrappers live here, in the benchmark; no file of the program
changes. A name is replaced where the caller looks it up: `core` imports
`forward_decision`, `decode` and the predictor functions by name, so those
are patched in `specsim.core`.

Self time is a span's duration minus the time its child spans cover. It is
summed online through the span stack, so every call counts; the span records
themselves are kept in memory only up to SPAN_CAP and written out at the end.
"""

import json
import time
from collections import Counter
from pathlib import Path

SPAN_CAP = 50_000

STAGES = ("fetch", "issue", "complete", "retire", "writeback")
PREDICTOR_FUNCS = ("predict_branch", "train_branch", "rsb_push", "rsb_pop")
MEMORY_METHODS = ("tick", "timed_read", "read_int", "write_int")   # and access


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.stack = []            # open spans: [seconds in children, span index]
        self.spans = []            # [name id, parent index, start, end, unit]
        self.spans_dropped = 0
        self.unit = -1
        self.counts = Counter()    # outcomes counted where the work happens
        self._unit = self.wrap("unit", lambda fn, *args: fn(*args))

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self.ids[name]

    def wrap(self, name: str, fn):
        """A function that runs `fn` inside a span called `name`."""
        nid = self._id(name)
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack, spans = self.stack, self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = None
            if len(spans) < SPAN_CAP:
                rec = [nid, stack[-1][1] if stack else -1, 0.0, 0.0, tracer.unit]
                spans.append(rec)
                frame = [0.0, len(spans) - 1]
            else:
                tracer.spans_dropped += 1
                frame = [0.0, -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if rec is not None:
                    rec[2] = start
                    rec[3] = end

        traced.__wrapped__ = fn
        return traced

    def run_unit(self, index: int, fn, *args):
        """Run one workload unit as the root span, so spans share its index."""
        self.unit = index
        return self._unit(fn, *args)

    def seconds(self, *names: str) -> float:
        return sum(self.self_s[self.ids[n]] for n in names if n in self.ids)

    def count(self, name: str) -> int:
        return self.calls[self.ids[name]] if name in self.ids else 0

    def inclusive(self, name: str) -> float:
        return self.total_s[self.ids[name]] if name in self.ids else 0.0

    # -- installing the wrappers ---------------------------------------------

    def install(self, sim) -> None:
        core_mod, mem_cls = sim.core, sim.memory.MemorySystem
        counts = self.counts
        Core = core_mod.Core

        step = Core.step

        def step_probe(core):
            counts["sb_entries"] += len(core.sb.entries)
            if core.trace is None:
                return step(core)
            before = len(core.trace)
            step(core)
            counts["traced_cycles"] += 1
            if len(core.trace) == before:
                counts["idle_cycles"] += 1
        Core.step = self.wrap("core.step", step_probe)
        for stage in STAGES:
            attr = f"_stage_{stage}"
            setattr(Core, attr, self.wrap(f"core.{stage}", getattr(Core, attr)))

        srcs_ready = Core._srcs_ready

        def srcs_probe(core, entry):
            vals = srcs_ready(core, entry)
            counts["operand_polls"] += 1
            if vals is not None:
                counts["operand_ready"] += 1
            return vals
        Core._srcs_ready = srcs_probe     # counted, not a span: part of issue

        forward_decision = core_mod.forward_decision

        def forward_probe(*args, **kwargs):
            decision = forward_decision(*args, **kwargs)
            counts[f"forward_{decision.kind}"] += 1
            return decision
        core_mod.forward_decision = self.wrap("lsu.forward_decision", forward_probe)

        access = mem_cls.access

        def access_probe(mem, kind, *args, **kwargs):
            res = access(mem, kind, *args, **kwargs)
            if kind != "probe_flush":
                counts["mem_requests"] += 1
                counts[f"mem_{res.status}"] += 1
            return res
        mem_cls.access = self.wrap("memory.access", access_probe)
        for method in MEMORY_METHODS:
            setattr(mem_cls, method, self.wrap(f"memory.{method}",
                                               getattr(mem_cls, method)))

        # only the oracle's own assembly: a scenario builder's assembly, and the
        # reassembly in the mitigation transforms, count toward scenarios.build
        sim.isa.assemble = self.wrap("isa.assemble", sim.isa.assemble)
        core_mod.decode = self.wrap("isa.decode", core_mod.decode)

        sc = sim.scenarios
        sc.build_scenario = self.wrap("scenarios.build", sc.build_scenario)
        sc.probe_receive = self.wrap("scenarios.probe_receive", sc.probe_receive)
        sc.run_scenario = self.wrap("scenarios.run_scenario", sc.run_scenario)
        sim.reference.run_reference = self.wrap("reference.run_reference",
                                                sim.reference.run_reference)
        for func in PREDICTOR_FUNCS:
            setattr(core_mod, func, self.wrap(f"predictors.{func}",
                                              getattr(core_mod, func)))
        sc.train_branch = core_mod.train_branch

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: Path, units: list) -> None:
        """One JSON header line, then one line per kept span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names, "units": units,
                                "fields": ["name", "parent", "start", "end", "unit"],
                                "kept": len(self.spans),
                                "dropped": self.spans_dropped}) + "\n")
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")
