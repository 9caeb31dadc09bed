"""
Software mitigations as program transforms
==========================================

Three rewrites applied to victim programs:

  fence         serializing barrier at the vulnerable site
  coarse_mask   index &= next_pow2(region) - 1 (cheap, leaks within padding)
  exact_mask    branch-free compare+select truncating an overflowing index to 0

Each has a precise failure mode: the return-overwrite attack jumps over a
fence that only guards the transmit gadget, sails through a coarse mask whose
power-of-two padding still covers the return slot, and revives against exact
masking once a speculative store corrupts the bound the mask compares against.
"""

from specsim import SimConfig
from specsim.scenarios import (build_gadget_spectre_1_0,
                               build_gadget_spectre_1_1_control, build_scenario,
                               run_scenario)

cfg = SimConfig()

print("spectre_1_0 (load bypass):")
for mit in ("none", "fence", "coarse_mask", "exact_mask"):
    r = run_scenario(build_gadget_spectre_1_0(mitigation=mit), cfg)
    print(f"  {mit:<12} -> {'leaks' if r.attack_success else 'safe'}")

print("\nspectre_1_1_control (return overwrite):")
for mit in ("none", "fence", "fence_gadget", "coarse_mask", "exact_mask"):
    r = run_scenario(build_gadget_spectre_1_1_control(mitigation=mit), cfg)
    note = {"fence_gadget": "  (fence guards only the gadget: jumped over)",
            "coarse_mask": "  (return slot inside the padding)"}.get(mit, "")
    print(f"  {mit:<12} -> {'leaks' if r.attack_success else 'safe'}{note}")

print("\nexact mask vs bound overwrite:")
direct = run_scenario(build_gadget_spectre_1_0(mitigation="exact_mask"), cfg)
overwrite = run_scenario(build_scenario("spectre_1_1_data"), cfg)
print(f"  masked 1.0, direct attack          -> "
      f"{'leaks' if direct.attack_success else 'safe'}")
print(f"  masked 1.0 after bound overwrite   -> "
      f"{'leaks' if overwrite.attack_success else 'safe'}")
