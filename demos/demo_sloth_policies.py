"""
Store-to-load forwarding policies vs the speculative store attacks
==================================================================

Every attack that writes speculatively (return-slot overwrite, bound
overwrite, read-only table overwrite, ghost and halo writes) needs the store
buffer to forward its corrupt value to a dependent load. The policy family
restricts that forwarding with increasing precision:

  slothbear_stores   nothing forwards from a non-senior store
  slothbear_loads    a load under an unresolved branch receives nothing
  sloth_marked       only '!'-marked loads and stores may pair
  arctic_sloth       only loads whitelisted from prior committed forwarding

None of them touches the plain load-bypass attack, which never forwards.
"""

from specsim import SimConfig
from specsim.lsu import ForwardingPolicy
from specsim.scenarios import (MATRIX_SCENARIOS, build_scenario, run_scenario,
                               warm_whitelist)

cfg = SimConfig()

print(f"{'scenario':<22}" + "".join(f"{p:>18}" for p in
      ("baseline", "slothbear_stores", "slothbear_loads", "sloth_marked",
       "arctic_sloth")))
for name in MATRIX_SCENARIOS:
    row = [f"{name:<22}"]
    for policy in ("baseline", "slothbear_stores", "slothbear_loads",
                   "sloth_marked", "arctic_sloth"):
        r = run_scenario(build_scenario(name), cfg.replace(forwarding_policy=policy))
        row.append(f"{'leaks' if r.attack_success else 'safe':>18}")
    print("".join(row))

print("\nbenign register-spill benchmark (cycles; lower is better):")
whitelist = warm_whitelist(cfg)
for policy in ("baseline", "arctic_sloth", "sloth_marked",
               "slothbear_loads", "slothbear_stores"):
    pol = ForwardingPolicy(policy, set(whitelist) if policy == "arctic_sloth" else set())
    r = run_scenario(build_scenario("benign_spill"), cfg.replace(forwarding_policy=policy),
                     policy=pol)
    print(f"  {policy:<18} {r.cycles}")
