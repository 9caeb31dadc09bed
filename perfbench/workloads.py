"""The benchmark's three workloads.

A workload is a fixed set of independent units; one pass runs every unit once,
in an order drawn from the seed. Each unit starts from an empty modelled L1:
`run_scenario` and `run_program` build a fresh `MemorySystem`, and a
scenario's priming runs are part of the unit.

`run(args, collect_trace)` is the timed part of a unit: everything the program
does for it, including assembly, scenario building and decode. It returns the
run report and, when asked, the trace events. `check(args, report)` is the
untimed verification; it returns why the unit is wrong, or None.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

# criterion 10's geometry and program shape (tests/test_acceptance.py)
ORACLE_SEED_BASE = 90000
ORACLE_INSTRUCTIONS = 170
ORACLE_POOL = 400            # criterion 10's first 400 programs
ORACLE_PROGRAMS = 200        # drawn from the pool by the seed, per run
SWEEP_SECRETS = 256

MODULES = ("config", "isa", "lsu", "memory", "predictors", "core", "reference",
           "scenarios")


class ProgramMissing(Exception):
    """The checkout does not hold the simulator sources."""


def import_program(root: Path) -> SimpleNamespace:
    """Import specsim from `root/src` and tests/randprog.py from `root/tests`,
    afresh: earlier imports are dropped so each call pays the full import."""
    src = root / "src"
    if not (src / "specsim" / "__init__.py").is_file():
        raise ProgramMissing(f"no specsim package under {src}")
    randprog_path = root / "tests" / "randprog.py"
    if not randprog_path.is_file():
        raise ProgramMissing(f"no {randprog_path}")
    for name in [m for m in sys.modules if m == "specsim" or m.startswith("specsim.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    pkg = importlib.import_module("specsim")
    if Path(pkg.__file__).resolve().parent != (src / "specsim").resolve():
        raise ProgramMissing(f"specsim imported from {pkg.__file__}, not {src}")
    sim = SimpleNamespace(specsim=pkg)
    for name in MODULES:
        setattr(sim, name, importlib.import_module(f"specsim.{name}"))
    # loaded by path, unchanged, so the oracle draws criterion 10's programs
    spec = importlib.util.spec_from_file_location("randprog", randprog_path)
    sim.randprog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sim.randprog)
    return sim


class Matrix:
    name = "matrix"
    why = ("the 120 cells of `specsim matrix` at DRAM 300: long DRAM stalls leave "
           "most cycles idle, and it is the only workload mixing store attacks, "
           "mitigation transforms and every policy")

    def __init__(self, sim: SimpleNamespace, seed: int):
        self.sim = sim
        sc = sim.scenarios
        base = sim.config.SimConfig()
        self.cfgs = {p: base.replace(forwarding_policy=p)
                     for p in sim.config.FORWARDING_POLICIES}
        self.units = [(f"{s}/{p}/{m}", (s, p, m))
                      for s in sc.MATRIX_SCENARIOS
                      for p in sim.config.FORWARDING_POLICIES
                      for m in sc.MITIGATIONS]
        self.rng = random.Random(seed)
        # store attacks are the ones every SLoth policy defeats (criterion 5)
        self.store_attacks = set(sc.MATRIX_SCENARIOS) - {"spectre_1_0"}

    def order(self) -> list:
        units = list(self.units)
        self.rng.shuffle(units)
        return units

    def run(self, args, collect_trace: bool):
        name, policy, mitigation = args
        sc = self.sim.scenarios
        scenario = sc.build_scenario(name, mitigation=mitigation)
        report = sc.run_scenario(scenario, self.cfgs[policy],
                                 policy=self.sim.lsu.ForwardingPolicy(policy),
                                 collect_trace=collect_trace)
        self.expected = scenario.expected      # read by check() right after
        return report, getattr(report, "trace", None)

    def check(self, args, report):
        name, policy, _ = args
        if report.timed_out or report.fault:
            return f"timeout or fault: {report.fault}"
        leak = (self.expected == "attack_succeeds"
                and (policy == "baseline" or name not in self.store_attacks))
        if report.attack_success is not leak:
            return f"attack_success={report.attack_success}, expected {leak}"
        return None


class Sweep:
    name = "sweep"
    why = ("spectre_1_0 for all 256 secrets: loads only, so the store buffer stays "
           "empty and the LSU should not move; the probe receiver and fills weigh more")

    def __init__(self, sim: SimpleNamespace, seed: int):
        self.sim = sim
        self.cfg = sim.config.SimConfig()
        self.units = [(f"secret{s:03d}", s) for s in range(SWEEP_SECRETS)]
        self.rng = random.Random(seed)

    def order(self) -> list:
        units = list(self.units)
        self.rng.shuffle(units)
        return units

    def run(self, secret, collect_trace: bool):
        sc = self.sim.scenarios
        scenario = sc.build_scenario("spectre_1_0", secret=secret)
        report = sc.run_scenario(scenario, self.cfg, collect_trace=collect_trace)
        return report, getattr(report, "trace", None)

    def check(self, secret, report):
        if report.timed_out or report.fault:
            return f"timeout or fault: {report.fault}"
        if report.inferred_secret != secret or report.attack_success is not True:
            return f"inferred {report.inferred_secret}, planted {secret}"
        return None


class Oracle:
    name = "oracle"
    why = ("criterion 10's random programs under all 5 policies against "
           "run_reference at DRAM 20: dense pipelines with few idle cycles, where "
           "fetch, issue, forwarding, assembly and decode carry the cost")

    def __init__(self, sim: SimpleNamespace, seed: int, programs=None):
        """`programs`: pool indices to use; by default the seed draws
        ORACLE_PROGRAMS of the first ORACLE_POOL."""
        self.sim = sim
        self.rng = random.Random(seed)
        if programs is None:
            programs = sorted(self.rng.sample(range(ORACLE_POOL), ORACLE_PROGRAMS))
        gen = sim.randprog.random_program
        self.sources = {k: gen(random.Random(ORACLE_SEED_BASE + k), ORACLE_INSTRUCTIONS)
                        for k in programs}
        base = sim.config.SimConfig(dram_latency_cycles=20, l1_latency_cycles=2,
                                    rob_capacity=64)
        self.base_cfg = base
        self.policies = sim.config.FORWARDING_POLICIES
        self.cfgs = {p: base.replace(forwarding_policy=p) for p in self.policies}
        self.regs = {31: sim.randprog.STACK_TOP}
        self.units = [(f"p{k:03d}/{p}", (k, p, i == 0))
                      for k in programs for i, p in enumerate(self.policies)]
        self.assembled = {}       # program index -> (Program, RefResult)

    def order(self) -> list:
        """Programs in seed order; a program's policies stay together, and its
        first unit also assembles it and runs the reference."""
        self.assembled = {}
        programs = sorted(self.sources)
        self.rng.shuffle(programs)
        by_program = {}
        for unit in self.units:
            by_program.setdefault(unit[1][0], []).append(unit)
        return [u for k in programs for u in by_program[k]]

    def run(self, args, collect_trace: bool):
        k, policy, first = args
        sim = self.sim
        if first:
            program = sim.isa.assemble(self.sources[k])
            ref = sim.reference.run_reference(program, self.base_cfg, regs=self.regs)
            self.assembled[k] = (program, ref)
        program = self.assembled[k][0]
        trace = [] if collect_trace else None
        report = sim.core.run_program(program, self.cfgs[policy], regs=self.regs,
                                      trace=trace)
        return report, trace

    def check(self, args, report):
        k, policy, _ = args
        ref = self.assembled[k][1]
        if ref.fault is not None:
            return f"reference fault: {ref.fault}"
        if report.timed_out or report.fault:
            return f"timeout or fault: {report.fault}"
        arch_state = self.sim.reference.arch_state
        if arch_state(report.core.arch_regs, report.core.mem) != arch_state(ref.regs, ref.mem):
            return "committed state differs from run_reference"
        return None


WORKLOADS = {w.name: w for w in (Matrix, Oracle, Sweep)}
