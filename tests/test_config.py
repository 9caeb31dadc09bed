import dataclasses
import hashlib

import pytest

from specsim.config import CHOICES, SimConfig

DEFAULT_TEXT = ("rob_capacity=224;issue_width=8;retire_width=4;sb_capacity=56;"
                "mshr_count=10;rsb_depth=16;bht_size=1024;"
                "forwarding_policy=baseline;tlb_enforcement=lazy;"
                "dram_latency_cycles=300;l1_latency_cycles=4;"
                "timer_granularity_cycles=1;seed=0;cycle_limit=1000000")


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def other_value(name: str, value):
    """A valid value for field `name` other than `value`."""
    if name in CHOICES:
        return next(v for v in CHOICES[name] if v != value)
    return value * 2 if name in ("bht_size", "dram_latency_cycles") else value + 1


def test_fields_cannot_be_assigned():
    cfg = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dram_latency_cycles = 20
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.forwarding_policy = "slothbear_loads"
    assert cfg == SimConfig()


def test_digest_hashes_the_joined_fields():
    assert SimConfig().digest() == sha16(DEFAULT_TEXT)
    cfg = SimConfig().replace(forwarding_policy="arctic_sloth", rob_capacity=64)
    text = DEFAULT_TEXT.replace("rob_capacity=224", "rob_capacity=64").replace(
        "forwarding_policy=baseline", "forwarding_policy=arctic_sloth")
    assert cfg.digest() == sha16(text)
    assert SimConfig().digest() == sha16(DEFAULT_TEXT)     # the original kept its own


def test_one_field_apart_means_a_different_digest():
    base = SimConfig()
    digests = {base.digest()}
    for f in dataclasses.fields(SimConfig):
        cfg = base.replace(**{f.name: other_value(f.name, getattr(base, f.name))})
        assert cfg != base
        digests.add(cfg.digest())
        assert cfg.digest() == SimConfig(**dataclasses.asdict(cfg)).digest()
    assert len(digests) == len(dataclasses.fields(SimConfig)) + 1


@pytest.mark.parametrize("name", ["l1_latency_cycles", "cycle_limit"])
@pytest.mark.parametrize("value", [0, -3])
def test_unusable_latency_and_cycle_limit_are_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        SimConfig(**{name: value})


def test_smallest_latency_and_cycle_limit_are_accepted():
    cfg = SimConfig(l1_latency_cycles=1, cycle_limit=1)
    assert (cfg.l1_latency_cycles, cfg.cycle_limit) == (1, 1)
