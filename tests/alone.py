"""A run on a `Core` of its own: fresh memory holding the program's data and
fresh predictors unless given, under the config's policy. Unlike
`run_program`, which shares a run with the policies not asked for yet, it
files nothing on the program."""

from specsim.core import Core
from specsim.lsu import ForwardingPolicy
from specsim.memory import MemorySystem
from specsim.predictors import PredictorState


def started_core(program, cfg, regs=None, trace=None, mem=None, pred=None) -> Core:
    """The core `run_alone` runs, started but not yet run."""
    if mem is None:
        mem = MemorySystem(cfg)
        mem.load_program_data(program)
    if pred is None:
        pred = PredictorState(cfg.bht_size, cfg.rsb_depth)
    core = Core(program, cfg, mem, pred, ForwardingPolicy(cfg.forwarding_policy))
    core.start(regs, trace)
    return core


def run_alone(program, cfg, regs=None, trace=None, mem=None, pred=None):
    return started_core(program, cfg, regs, trace, mem, pred).run()
