"""A catalogue of mutants: small deliberate faults in the program, each with
the tests that must fail once it is applied.

    python tests/mutants.py [NAME ...]

copies the repository (without `.git` and build output) to a temporary
directory, applies one mutant there, runs only that mutant's tests, and
reports it as killed when every one of them fails, or as a survivor naming
the tests that passed. It does that for each named mutant, or for all of
them, and exits 1 if any survives. The working tree is never changed; set
TMPDIR to choose where the copies go. Each mutant costs one pytest run of its
tests, so the runner is not part of the tier-1 suite; `tests/test_mutants.py`
only checks that every entry's old text occurs exactly once in its file and
that every test it names is defined, so a refactor or a renamed test has to
update an entry instead of orphaning it.

Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 1800


class Mutant(NamedTuple):
    name: str
    file: str                 # relative to the repository root
    old: str                  # exact text; occurs once in `file`
    new: str
    tests: Tuple[str, ...]    # pytest node ids that must all fail


MUTANTS = (
    Mutant("complete_runs_a_squashed_entry", "src/specsim/core.py",
           "if status == SQUASHED:          # by an older branch resolved above",
           "if False:",
           ("tests/test_event_core.py::test_random_programs_match_per_cycle_stepping",
            "tests/test_oracle.py::test_random_programs_match_reference")),
    Mutant("wakeup_ignores_squashed", "src/specsim/core.py",
           "if not consumer.pending and consumer.status != SQUASHED:",
           "if not consumer.pending:",
           ("tests/test_event_core.py::test_random_programs_match_per_cycle_stepping",)),
    Mutant("senior_at_sta_retire", "src/specsim/core.py",
           "if uop.last:                # the STD, or a call's one micro-op",
           "if True:",
           ("tests/test_lsu.py::test_store_seniorizes_when_its_last_uop_retires",)),
    Mutant("load_hit_one_cycle_early", "src/specsim/memory.py",
           'return AccessResult("hit", cycle + self.cfg.l1_latency_cycles)',
           'return AccessResult("hit", cycle + self.cfg.l1_latency_cycles - 1)',
           ("tests/test_memory.py::test_miss_then_fill_then_hit",
            "tests/test_perfbench_smoke.py::test_untraced_oracle_matches_golden")),
    Mutant("slothbear_stores_allows_every_store", "src/specsim/lsu.py",
           '"slothbear_stores": lambda store, spec, pc, marked, whitelist: store.senior,',
           '"slothbear_stores": lambda store, spec, pc, marked, whitelist: True,',
           ("tests/test_scenarios.py::"
            "test_security_property_slothbear_never_uses_squashed_stores",)),
    Mutant("slothbear_loads_allows_every_store", "src/specsim/lsu.py",
           '"slothbear_loads": lambda store, spec, pc, marked, whitelist: not spec,',
           '"slothbear_loads": lambda store, spec, pc, marked, whitelist: True,',
           ("tests/test_scenarios.py::"
            "test_security_property_slothbear_never_uses_squashed_stores",)),
    Mutant("ready_appended_not_insorted", "src/specsim/core.py",
           "insort(ready, consumer, key=_seq)", "ready.append(consumer)",
           ("tests/test_event_core.py::test_random_programs_match_per_cycle_stepping",)),
    Mutant("csel_operands_swapped", "src/specsim/core.py",
           "entry.result = vals[0] if uop.fn(vals[2]) else vals[1]",
           "entry.result = vals[1] if uop.fn(vals[2]) else vals[0]",
           ("tests/test_oracle.py::test_every_mnemonic_matches_reference[csel.b]",)),
    Mutant("decode_immediate_unmasked", "src/specsim/isa.py",
           "if not 0 <= imm <= MASK64:      # else the operand's own int", "if False:",
           ("tests/test_isa.py::test_decode_pins_every_mnemonic_field_by_field",)),
    Mutant("receiver_takes_a_negative_index", "src/specsim/scenarios.py",
           "if 0 <= j < len(addrs) and addrs[j] < line + LINE:",
           "if j < len(addrs) and addrs[j] < line + LINE:",
           ("tests/test_scenarios.py::test_attack_succeeds_under_baseline",)),
    Mutant("next_fill_kept_when_a_later_mshr_fills_sooner", "src/specsim/memory.py",
           "if self.next_fill is None or ready < self.next_fill:",
           "if self.next_fill is None:",
           ("tests/test_memory.py::test_next_fill_is_the_earliest_mshr_fill",)),
    Mutant("load_check_accepts_a_merely_mapped_page", "src/specsim/core.py",
           "if self.mem.permits(addr, write=False, size=uop.size):",
           "if (addr & ~0xFFF) in self.mem.tlb:",
           ("tests/test_core.py::test_unreadable_load_faults_like_the_reference",)),
    Mutant("file_labels_resolve_against_the_unmitigated_victim",
           "src/specsim/scenarios.py",
           "labels = victim.labels",
           "labels = assemble(src).labels",
           ("tests/test_scenarios.py::test_bundled_builds_match_their_recorded_repr",
            "tests/test_perfbench_smoke.py::test_traced_benchmark_matches_golden[matrix]")),
    Mutant("printer_labels_every_immediate_at_a_label", "src/specsim/isa.py",
           "if i in named else str(op)",
           "if i in named or type(op) is Imm and op.value in by_pc else str(op)",
           ("tests/test_scenarios.py::test_insertion_moves_only_operands_written_as_labels",)),
    Mutant("policy_may_contradict_the_config", "src/specsim/core.py",
           "if policy.variant != cfg.forwarding_policy:", "if False:",
           ("tests/test_scenarios.py::test_a_policy_that_contradicts_the_config_is_rejected",)),
    Mutant("split_test_reads_cached_victims", "tests/test_isa.py",
           "scenarios._victim.cache_clear()     # so this build assembles again", "pass",
           ("tests/test_isa.py::test_split_operands_matches_the_character_walk",)),
    Mutant("fetch_ignores_store_buffer_capacity", "src/specsim/core.py",
           "if not sb_room:", "if False:",
           ("tests/test_core.py::"
            "test_fetch_fills_the_store_buffer_to_its_capacity_and_no_further",)),
    Mutant("snapshot_shares_memory_pages_with_its_trunk", "src/specsim/memory.py",
           "twin.pages = {page: bytearray(buf) for page, buf in self.pages.items()}",
           "twin.pages = dict(self.pages)",
           ("tests/test_shared_runs.py::"
            "test_a_resumed_run_shares_no_state_with_its_trunk_or_pending_snapshots",)),
    Mutant("peers_not_split_when_their_allows_answers_differ", "src/specsim/lsu.py",
           "if split:", "if False:",
           ("tests/test_shared_runs.py::"
            "test_shared_runs_equal_independent_runs_on_the_oracle_pool",)),
    Mutant("filed_copy_shares_its_trunks_whitelist", "src/specsim/core.py",
           "ForwardingPolicy(policy.variant, set(policy.whitelist), policy.peers)",
           "ForwardingPolicy(policy.variant, policy.whitelist, policy.peers)",
           ("tests/test_shared_runs.py::"
            "test_shared_runs_equal_independent_runs_on_the_oracle_pool",
            "tests/test_shared_runs.py::"
            "test_a_resumed_run_shares_no_state_with_its_trunk_or_pending_snapshots")),
    Mutant("clone_shares_touched_sets_with_its_twin", "src/specsim/memory.py",
           "twin.sets = {index: list(ways) for index, ways in self.sets.items()}",
           "twin.sets = dict(self.sets)",
           ("tests/test_memory.py::test_a_clone_and_its_original_share_no_set[original]",
            "tests/test_memory.py::test_a_clone_and_its_original_share_no_set[clone]")),
    Mutant("fetch_reserves_no_store_buffer_slot_for_a_call", "src/specsim/core.py",
           "if first is STA or first is CALL:", "if first is STA:",
           ("tests/test_core.py::test_fetch_reserves_a_store_buffer_slot_for_each_call",)),
    Mutant("filed_copy_skips_a_rob_entry_field", "src/specsim/core.py",
           "for f in fields(cls))", 'for f in fields(cls) if f.name != "pending")',
           ("tests/test_shared_runs.py::"
            "test_shared_runs_equal_independent_runs_on_the_oracle_pool",)),
    Mutant("record_init_stores_through_another_fields_setter", "src/specsim/isa.py",
           'scope = {f"set_{f.name}": cls.__dict__[f.name].__set__ for f in fs}',
           'scope = {f"set_{f.name}": cls.__dict__[g.name].__set__\n'
           '             for f, g in zip(fs, fs[::-1])}',
           ("tests/test_isa.py::test_isa_records_store_each_argument_in_its_own_field",)),
    Mutant("split_fork_skips_asking_again", "src/specsim/core.py",
           "twin._attempt_load(twin.ready[after - 1])",
           "twin.ready[after - 1].status = WAITING",
           ("tests/test_shared_runs.py::"
            "test_shared_runs_equal_independent_runs_on_the_oracle_pool",)),
    Mutant("split_fork_skips_its_fetch", "src/specsim/core.py",
           "twin._stage_fetch()", "pass",
           ("tests/test_shared_runs.py::"
            "test_shared_runs_equal_independent_runs_on_the_oracle_pool",)),
    Mutant("drain_budget_put_back", "src/specsim/core.py",
           "while self.sb.entries or mem.mshrs:",
           "limit = self.cycle + 10_000_000\n"
           "        while (self.sb.entries or mem.mshrs) and self.cycle < limit:",
           ("tests/test_event_core.py::"
            "test_store_drains_after_halt_however_long_the_dram_latency",)),
    Mutant("fault_leaves_committed_stores_undrained", "src/specsim/core.py",
           "if not report.timed_out:", "if self.fault is None and not report.timed_out:",
           ("tests/test_oracle.py::"
            "test_every_reference_fault_runs_and_the_core_agrees_where_it_faults",)),
    Mutant("start_keeps_seq_counter", "src/specsim/core.py",
           "self.seq_counter = 0",
           'self.seq_counter = getattr(self, "seq_counter", 0)',
           ("tests/test_shared_runs.py::"
            "test_a_second_run_on_one_core_equals_a_fresh_core_on_its_state",)),
    Mutant("start_keeps_limit_origin", "src/specsim/core.py",
           "self.start_cycle = self.cycle",
           'self.start_cycle = getattr(self, "start_cycle", 0)',
           ("tests/test_scenarios.py::"
            "test_each_run_of_a_scenario_gets_the_whole_cycle_limit",)),
    Mutant("start_accepts_work_in_flight", "src/specsim/core.py",
           "if self.fault is not None or self.rob or self.sb.entries:", "if False:",
           ("tests/test_fork.py::test_start_refuses_a_core_with_work_in_flight",)),
    Mutant("fork_shares_predictor_state", "src/specsim/core.py",
           "self.pred.clone()", "self.pred",
           ("tests/test_fork.py::"
            "test_a_fork_before_each_run_of_a_matrix_cell_runs_as_its_original",
            "tests/test_fork.py::test_a_fork_at_every_5th_step_runs_on_as_the_unforked_run")),
    Mutant("fork_keeps_the_trunks_wake_lists", "src/specsim/core.py",
           "{seq: [entries[e.seq] for e in woken if e.status != SQUASHED]\n"
           "                        for seq, woken in self.waiting.items()}",
           "dict(self.waiting)",
           ("tests/test_fork.py::test_a_fork_at_every_5th_step_runs_on_as_the_unforked_run",
            "tests/test_shared_runs.py::"
            "test_shared_runs_equal_independent_runs_on_the_oracle_pool")),
    Mutant("flush_probe_from_the_unaligned_base", "src/specsim/scenarios.py",
           "first = spec.base & ~(LINE - 1)", "first = spec.base",
           ("tests/test_scenarios.py::"
            "test_an_unaligned_probe_is_flushed_from_the_line_holding_entry_0",)),
    Mutant("lsu_gate_tests_the_youngest_store", "src/specsim/core.py",
           "if sb_entries and sb_entries[0].seq < entry.seq:",
           "if sb_entries and sb_entries[-1].seq < entry.seq:",
           ("tests/test_oracle.py::test_random_programs_match_reference",)),
    Mutant("permission_check_skips_the_second_page", "src/specsim/memory.py",
           "and addr + size > page + PAGE:", "and False:",
           ("tests/test_oracle.py::"
            "test_every_reference_fault_runs_and_the_core_agrees_where_it_faults",)),
    Mutant("mnemonic_without_a_readme_row", "src/specsim/isa.py",
           '"jr": "r", "ret": "", "fence": "", "halt": "", "nop": "",',
           '"jr": "r", "ret": "", "fence": "", "halt": "", "nop": "", "pause": "",',
           ("tests/test_docs.py::test_isa_table_is_the_assemblers_signatures",)),
)


def failed_ids(output: str) -> set:
    """The node ids pytest's `-rfE` summary names as failed or in error."""
    return {line.split()[1] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1}


def run_mutant(mutant: Mutant) -> Tuple[str, list]:
    """('killed' | 'survived' | 'timeout', the listed tests that passed)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "out", "*.egg-info"))
        target = tree / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs "
                             f"{text.count(mutant.old)} times in {mutant.file}")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                 *mutant.tests], cwd=tree, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", []
    failed = failed_ids(proc.stdout)
    passed = [t for t in mutant.tests
              if not any(f == t or f.startswith(t + "[") for f in failed)]
    return ("survived" if passed else "killed"), passed


def main(argv) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in argv if n not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: "
              f"{', '.join(by_name)}", file=sys.stderr)
        return 2
    survivors = 0
    for mutant in [by_name[n] for n in argv] or MUTANTS:
        outcome, passed = run_mutant(mutant)
        survivors += outcome != "killed"
        detail = f" (passed: {', '.join(passed)})" if passed else ""
        print(f"{outcome:<8} {mutant.name}{detail}", flush=True)
    print(f"{len(argv) or len(MUTANTS)} mutants, {survivors} survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
