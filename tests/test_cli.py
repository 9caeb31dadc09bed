import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

import specsim
from specsim import assemble, cli
from specsim.cli import main
from specsim.config import CHOICES, SimConfig
from specsim.scenarios import Scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_reports_json(capsys):
    code, out, _ = run_cli(capsys, "run", "spectre_1_1_control",
                           "--forwarding-policy", "baseline")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["scenario"] == "spectre_1_1_control"
    assert rec["attack_success"] is True
    assert rec["inferred_secret"] == 0x2A
    assert set(rec) >= {"cycles", "config_digest", "ipc", "squash_count",
                        "forward_count", "mshr_peak", "retired_instructions"}


def test_run_policy_flag_changes_outcome(capsys):
    code, out, _ = run_cli(capsys, "run", "spectre_1_1_control",
                           "--forwarding-policy", "slothbear_stores")
    assert code == 0
    assert json.loads(out.splitlines()[0])["attack_success"] is False


def test_attack_outcome_does_not_change_exit_code(capsys):
    code_ok, _, _ = run_cli(capsys, "run", "spectre_1_0")
    code_fail, _, _ = run_cli(capsys, "run", "spectre_1_0",
                              "--mitigation", "fence")
    assert code_ok == code_fail == 0


def test_unknown_scenario_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "nosuch")
    assert code == 2 and "unknown scenario" in err


def test_mitigation_without_site_exits_2(capsys):
    code, out, err = run_cli(capsys, "run", "spectre_1_0",
                             "--mitigation", "fence_gadget")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "fence_gadget" in err


def test_missing_scenario_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario-file", "missing.txt")
    assert code == 2


def test_timeout_exits_3(capsys):
    code, out, _ = run_cli(capsys, "run", "benign_spill", "--cycle-limit", "10")
    assert code == 3
    assert json.loads(out.splitlines()[0])["timed_out"] is True


def test_trace_unwritable_exits_4(capsys):
    code, _, err = run_cli(capsys, "trace", "spectre_1_0",
                           "--out", "/nonexistent-dir/x.jsonl")
    assert code == 4


def test_run_is_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "run", "spectre_1_1_data")
    _, out2, _ = run_cli(capsys, "run", "spectre_1_1_data")
    assert out1 == out2


def test_matrix_sorted_and_deterministic(capsys):
    args = ("matrix", "--scenarios", "spectre_1_0,ghost",
            "--policies", "baseline,slothbear_stores",
            "--mitigations", "none,fence")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    rows = [json.loads(l) for l in out1.splitlines()]
    keys = [(r["scenario"], r["policy"], r["mitigation"]) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 8
    cell = {(r["scenario"], r["policy"], r["mitigation"]): r["attack_success"]
            for r in rows}
    assert cell[("spectre_1_0", "baseline", "none")] is True
    assert cell[("spectre_1_0", "baseline", "fence")] is False
    assert cell[("ghost", "slothbear_stores", "none")] is False


def test_matrix_cell_error_does_not_abort(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--scenarios", "bogus,spectre_1_0",
                           "--policies", "baseline", "--mitigations", "none")
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    by_name = {r["scenario"]: r for r in rows}
    assert by_name["bogus"]["error"]
    assert by_name["spectre_1_0"]["attack_success"] is True


def test_matrix_unknown_scenario_error_is_the_plain_message(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--scenarios", "nope",
                           "--policies", "baseline", "--mitigations", "none")
    assert code == 0
    (row,) = map(json.loads, out.splitlines())
    assert row["error"] == "unknown scenario 'nope'"


def test_matrix_table_marks_timeouts_faults_and_cell_errors(capsys, monkeypatch):
    """A cell that times out, faults, or cannot be built says so in its
    row's error, and `--table` prints every row under the JSON lines."""
    build = cli.build_scenario
    faulty = Scenario("faulty", assemble("main:\n    movi r1, 0x900000\n"
                                         "    ld.8 r2, [r1]\n    halt\n"))
    monkeypatch.setattr(cli, "build_scenario", lambda name, mitigation: (
        faulty if name == "faulty" else build(name, mitigation=mitigation)))
    code, out, err = run_cli(capsys, "matrix", "--scenarios", "benign_spill,faulty",
                             "--policies", "baseline", "--mitigations",
                             "none,fence_gadget", "--cycle-limit", "50", "--table")
    assert code == 0 and err == ""
    lines = out.splitlines()
    rows = [json.loads(line) for line in lines[:4]]
    errors = {(r["scenario"], r["mitigation"]): r["error"] for r in rows}
    assert errors[("benign_spill", "none")] == "timeout"
    assert errors[("benign_spill", "fence_gadget")].startswith(
        "scenario 'benign_spill' has no 'fence_gadget' site")
    assert errors[("faulty", "none")] == errors[("faulty", "fence_gadget")] == \
        "unmapped_load pc=0x4 addr=0x900000"
    assert lines[4] == "-" * 72 and len(lines) == 9
    for row, line in zip(rows, lines[5:]):
        assert line.startswith(f"{row['scenario']:<22} baseline           "
                               f"{row['mitigation']:<12} -      ")
        assert line.endswith(f"  [{row['error']}]")
    assert lines[5].split()[3:5] == ["-", "-"]       # benign_spill+fence_gadget never ran


def test_benign_matrix_row_cycle_ordering(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--scenarios", "benign_spill",
                           "--policies", "baseline,slothbear_stores",
                           "--mitigations", "none")
    rows = {r["policy"]: r for r in map(json.loads, out.splitlines())}
    assert rows["baseline"]["cycles"] <= rows["slothbear_stores"]["cycles"]


def test_env_config_file(capsys, monkeypatch, tmp_path):
    cfgfile = tmp_path / "specsim.conf"
    cfgfile.write_text("forwarding_policy=slothbear_stores\nmshr_count=4\n")
    monkeypatch.setenv("SPECSIM_CONFIG", str(cfgfile))
    code, out, _ = run_cli(capsys, "run", "spectre_1_1_control")
    rec = json.loads(out.splitlines()[0])
    assert rec["attack_success"] is False
    # flags override the env file
    code, out, _ = run_cli(capsys, "run", "spectre_1_1_control",
                           "--forwarding-policy", "baseline")
    assert json.loads(out.splitlines()[0])["attack_success"] is True


def test_trace_roundtrip_and_events(capsys, tmp_path):
    path = tmp_path / "t.jsonl"
    code, out, _ = run_cli(capsys, "trace", "spectre_1_1_control",
                           "--out", str(path))
    assert code == 0
    events = [json.loads(l) for l in path.read_text().splitlines()]
    kinds = {e["kind"] for e in events}
    assert {"fetch", "dispatch", "issue", "execute", "retire"} <= kinds
    cycles = [e["cycle"] for e in events]
    assert cycles == sorted(cycles)
    # the corrupt-return resteer happens while the bounds check is unresolved:
    # a later squash (its resolution) covers the resteered work
    resteers = [e for e in events if e["kind"] == "resteer"]
    squashes = [e for e in events if e["kind"] == "squash"]
    assert resteers and squashes
    assert min(e["cycle"] for e in resteers) < max(e["cycle"] for e in squashes)
    code, out, _ = run_cli(capsys, "print-trace", str(path))
    assert code == 0 and "resteer" in out


def test_benign_trace_has_no_resteer(capsys, tmp_path):
    path = tmp_path / "b.jsonl"
    run_cli(capsys, "trace", "benign_spill", "--out", str(path))
    events = [json.loads(l) for l in path.read_text().splitlines()]
    assert not [e for e in events if e["kind"] == "resteer"]


def test_failed_attack_trace_squashes_cover_wrong_path(capsys, tmp_path):
    path = tmp_path / "f.jsonl"
    run_cli(capsys, "trace", "spectre_1_1_control", "--out", str(path),
            "--forwarding-policy", "slothbear_stores")
    events = [json.loads(l) for l in path.read_text().splitlines()]
    squashed = {e["seq"] for e in events if e["kind"] == "squash"}
    retired = {e["seq"] for e in events if e["kind"] == "retire"}
    dispatched = {e["seq"] for e in events if e["kind"] == "dispatch"}
    assert squashed
    assert not squashed & retired
    assert dispatched == squashed | retired


def test_save_and_load_whitelist(capsys, tmp_path):
    wl = tmp_path / "wl.txt"
    run_cli(capsys, "run", "benign_spill", "--save-whitelist", str(wl))
    assert wl.read_text().strip()
    code, out, _ = run_cli(capsys, "run", "spectre_1_1_control",
                           "--forwarding-policy", "arctic_sloth",
                           "--arctic-whitelist", str(wl))
    assert json.loads(out.splitlines()[0])["attack_success"] is False


def test_run_table_output(capsys):
    code, out, _ = run_cli(capsys, "run", "spectre_1_0", "--table")
    assert "attack_success" in out and "-" * 40 in out


def test_invalid_config_value_exits_2(capsys):
    for flag, value in [("--rob-capacity", "0"), ("--l1-latency-cycles", "-3"),
                        ("--l1-latency-cycles", "0"), ("--cycle-limit", "-5"),
                        ("--cycle-limit", "0"), ("--bht-size", "1000"),
                        ("--bht-size", "17179869184")]:
        code, out, err = run_cli(capsys, "run", "spectre_1_0", flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("text", [None, "rob_capacity\n", "mshr_count=x\n",
                                  "no_such_knob=1\n", "dram_latency_cycles=2\n",
                                  "l1_latency_cycles=0\n", "cycle_limit=-1\n",
                                  "bht_size=1000\n", "timer_granularity_cycles=0\n",
                                  "tlb_enforcement=strict\n"])
def test_bad_env_config_exits_2(capsys, monkeypatch, tmp_path, text):
    cfgfile = tmp_path / "specsim.conf"
    if text is not None:
        cfgfile.write_text(text)
    monkeypatch.setenv("SPECSIM_CONFIG", str(cfgfile))
    code, out, err = run_cli(capsys, "run", "spectre_1_0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_print_trace_malformed_line_exits_2(capsys, tmp_path):
    path = tmp_path / "t.jsonl"
    good = json.dumps({"cycle": 0, "kind": "fetch", "seq": -1, "pc": 0,
                       "detail": "movi"})
    for bad in ("x", "[1]", '{"cycle": 0}'):
        path.write_text(f"{good}\n\n{bad}\n")
        code, out, err = run_cli(capsys, "print-trace", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "line 3" in err
    path.write_bytes(b"\xff\xfe\n")
    code, out, err = run_cli(capsys, "print-trace", str(path))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_benign_spill_rejects_secret(capsys):
    code, out, err = run_cli(capsys, "run", "benign_spill", "--secret", "5")
    assert code == 2 and out == ""
    assert "option not supported" in err


@pytest.mark.parametrize("flags", [("--secret", "999"), ("--secret", "-1"),
                                   ("--secret", "0x1FF"), ("--pad-uops", "-1"),
                                   ("--amplification", "3"), ("--amplification", "5"),
                                   ("--amplification", "6"),
                                   ("--amplification", "1048576"),
                                   ("--amplification", "4096"),
                                   ("--pad-uops", "100000000")])
def test_out_of_range_scenario_option_exits_2(capsys, flags):
    code, out, err = run_cli(capsys, "run", "spectre_1_0", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_trace_timeout_exits_3_and_writes_the_trace(capsys, tmp_path):
    path = tmp_path / "t.jsonl"
    code, out, err = run_cli(capsys, "trace", "benign_spill", "--cycle-limit", "50",
                             "--out", str(path))
    assert code == 3 and err == ""
    assert json.loads(out.splitlines()[0])["timed_out"] is True
    cycles = [json.loads(l)["cycle"] for l in path.read_text().splitlines()]
    assert cycles and max(cycles) < 50
    # spectre_1_0 times out in an untraced priming run
    code, out, err = run_cli(capsys, "trace", "spectre_1_0", "--cycle-limit", "50",
                             "--out", str(path))
    assert code == 3 and err == "" and path.read_text() == ""


def test_trace_takes_the_run_flags(capsys, tmp_path):
    path = tmp_path / "t.jsonl"
    code, out, _ = run_cli(capsys, "trace", "spectre_1_0", "--amplification", "4",
                           "--pad-uops", "8", "--out", str(path))
    assert code == 0
    assert json.loads(out.splitlines()[0])["attack_success"] is True
    assert path.read_text()


def test_missing_whitelist_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "spectre_1_0", "--arctic-whitelist",
                             str(tmp_path / "missing.txt"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_whitelist_exits_2(capsys, tmp_path):
    wl = tmp_path / "wl.txt"
    wl.write_text("0x1c\nzz\n")
    code, out, err = run_cli(capsys, "run", "spectre_1_0", "--arctic-whitelist", str(wl))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_save_whitelist_exits_4(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "benign_spill", "--save-whitelist",
                             str(tmp_path / "no-such-dir" / "wl.txt"))
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("line,want", [
    ("reg.r31 = 1", 0), ("reg.r40 = 1", 2), ("reg.r-1 = 1", 2),
    ("benign_reg.r32 = 1", 2), ("prime.main = takn", 2),
    ("map.0x10000.0x1000 = xyz", 2), ("expected = leaks", 2),
    ("atempts = 5", 2), ("secret_value = 0xFF", 0), ("secret_value = 0x1FF", 2),
    ("secret_value = -1", 2), ("probe_base = 0x100000\nprobe_entries = 1", 0),
    ("probe_base = 0x100000\nprobe_entries = 0", 2),
    ("probe_base = 0x100000\nprobe_entries = -3", 2), ("priming = 0", 0),
    ("priming = -1", 2), ("attempts = -2", 2), ("mem.0x24000.0x8 = 5", 0),
    ("benign_mem.0x24000.0b100 = 5", 0), ("flush = 0x10000,0", 0),
    ("map.0x0.0x10000000 = rw", 0), ("map.0x0.0x10000001 = rw", 2),
    ("probe_base = 0x100000\nprobe_entries = 0x80001", 2),
    ("probe_base = 0x100000\nprobe_stride = 64\namplification = 1", 0),
    ("reg.r01 = 1", 2), ("reg.r\u0663 = 1", 2), ("reg.sp = 0x40800", 0),
    ("benign_reg.r01 = 1", 2), ("benign_reg.sp = 0x40800", 0),
    ("site.exact_mask = main, r01, r2", 2), ("site.exact_mask = main, r1, sp", 0),
    ("site.coarse_mask = main, r\u0663, 0x1000", 2)])
def test_scenario_file_bad_value_exits_2(capsys, tmp_path, line, want):
    asm = tmp_path / "victim.asm"
    asm.write_text("main:\n    halt\n")
    sf = tmp_path / "bad.scenario"
    sf.write_text(f"program = {asm}\n{line}\n")
    code, out, err = run_cli(capsys, "run", "--scenario-file", str(sf))
    assert code == want
    if want == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(specsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-m", "specsim", "run", "spectre_1_0"],
                       cwd=tmp_path, env=env, capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[0])["attack_success"] is True


@pytest.mark.parametrize("command", ["run", "trace"])
def test_scenario_program_that_does_not_assemble_exits_2(capsys, tmp_path, command):
    asm = tmp_path / "victim.asm"
    asm.write_text("main:\n    bogus r1\n    halt\n")
    sf = tmp_path / "bad.scenario"
    sf.write_text(f"program = {asm}\n")
    out_flag = ["--out", str(tmp_path / "t.jsonl")] if command == "trace" else []
    code, out, err = run_cli(capsys, command, "--scenario-file", str(sf), *out_flag)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 2, col 4" in err and "bogus" in err
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("line,shape", [("mem.0x10 = 8", "mem.ADDR.SIZE"),
                                        ("benign_mem.0x10.8.1 = 8", "benign_mem.ADDR.SIZE"),
                                        ("map.0x1000 = rw", "map.BASE.SIZE")])
def test_scenario_file_sized_key_without_its_size_names_the_shape(capsys, tmp_path,
                                                                  line, shape):
    asm = tmp_path / "victim.asm"
    asm.write_text("main:\n    halt\n")
    sf = tmp_path / "bad.scenario"
    sf.write_text(f"program = {asm}\n{line}\n")
    code, out, err = run_cli(capsys, "run", "--scenario-file", str(sf))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    key = line.split(" =")[0]
    assert f"bad.scenario:2: {key}: expected {shape}" in err


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("line", ["mem.0x10.x = 5", "reg.r1 = zz", "flush = 0x10,q",
                                  "secret_value = lots", "map.0x1000.z = rw",
                                  # values that parse but that no run can mean
                                  "benign_mem.0x24000.3 = 0x800", "mem.0x24000.0 = 1",
                                  "mem.0x24000.16 = 1", "mem.-8.8 = 1", "probe_base = -5",
                                  "secret_addr = -0x10", "flush = -1",
                                  "flush = 0x10000,-0x40", "map.0x20000.-5 = rw",
                                  "map.0x20000.0 = rw", "map.-0x1000.0x1000 = rw",
                                  "probe_base = 0x10000000000000000",
                                  # probe sizes are checked at their own line
                                  "probe_stride = 8", "probe_entries = 0",
                                  "amplification = 0"])
def test_scenario_file_value_that_does_not_parse_names_line_and_key(
        capsys, tmp_path, command, line):
    asm = tmp_path / "victim.asm"
    asm.write_text("main:\n    halt\n")
    sf = tmp_path / "bad.scenario"
    sf.write_text(f"# a comment line\nprogram = {asm}\n{line}\n")
    out_flag = ["--out", str(tmp_path / "t.jsonl")] if command == "trace" else []
    code, out, err = run_cli(capsys, command, "--scenario-file", str(sf), *out_flag)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    key = line.split(" =")[0]
    assert f"bad.scenario:3: {key}: " in err


@pytest.mark.parametrize("lines,key", [
    (["map.0x0.0x10000000000 = rw"], "map.0x0.0x10000000000"),
    (["probe_base = 0x100000", "amplification = 0x1000"], "amplification"),
    (["probe_stride = 0x1000", "probe_base = 0x100000", "probe_entries = 0x10001"],
     "probe_entries")])
def test_scenario_file_region_over_the_page_limit_exits_2_before_mapping(
        capsys, monkeypatch, tmp_path, lines, key):
    from specsim.memory import MemorySystem
    from specsim.scenarios import MAX_REGION_PAGES
    mapped = []
    monkeypatch.setattr(MemorySystem, "map_region",
                        lambda mem, base, size, perm="rw": mapped.append(size))
    asm = tmp_path / "victim.asm"
    asm.write_text("main:\n    halt\n")
    sf = tmp_path / "bad.scenario"
    sf.write_text("\n".join([f"program = {asm}", *lines]) + "\n")
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "run", "--scenario-file", str(sf))
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out == "" and mapped == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bad.scenario:{len(lines) + 1}: {key}: " in err
    assert f"({MAX_REGION_PAGES} pages)" in err


@pytest.mark.parametrize("lines,key", [
    (["probe_entries = 4", "probe_stride = 128"], "probe_entries"),
    (["amplification = 2"], "amplification"),
    (["probe_stride = 0x1000", "secret_value = 3"], "probe_stride")])
def test_scenario_file_probe_size_without_probe_base_exits_2(capsys, tmp_path, lines, key):
    asm = tmp_path / "victim.asm"
    asm.write_text("main:\n    halt\n")
    sf = tmp_path / "bad.scenario"
    sf.write_text("\n".join([f"program = {asm}", *lines]) + "\n")
    code, out, err = run_cli(capsys, "run", "--scenario-file", str(sf))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bad.scenario: {key} given without probe_base" in err


def test_config_file_value_that_does_not_parse_names_line_and_key(
        capsys, monkeypatch, tmp_path):
    cfgfile = tmp_path / "specsim.conf"
    cfgfile.write_text("rob_capacity = 112\n\nmshr_count = many\n")
    monkeypatch.setenv("SPECSIM_CONFIG", str(cfgfile))
    code, out, err = run_cli(capsys, "run", "spectre_1_0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "config line 3: mshr_count: " in err


@pytest.mark.parametrize("added,key,first", [
    ("flush = 0x20000", "flush", 21), ("reg.sp = 0x40000", "reg.sp", 8),
    ("reg.r13 = 0", "reg.r13", 6), ("benign_reg.sp = 0", "benign_reg.sp", 11),
    ("map.0x20000.8192 = ro", "map.0x20000.8192", "15 as map.0x20000.0x2000"),
    ("map.131072.0x1000 = ro", "map.131072.0x1000", "15 as map.0x20000.0x2000"),
    ("mem.0x40808.1 = 0", "mem.0x40808.1", "14 as mem.0x40808.8"),
    ("benign_mem.65568.0x8 = 0", "benign_mem.65568.0x8", "12 as benign_mem.0x10020.8")])
def test_scenario_file_key_given_twice_exits_2_naming_both_lines(
        capsys, tmp_path, added, key, first):
    # a copy of ghost.scenario, whose flush is at line 21, reg.r13 at 6,
    # reg.r31 at 8, benign_reg.r31 at 11, benign_mem.0x10020.8 at 12,
    # mem.0x40808.8 at 14 and map.0x20000.0x2000 at 15, with one more line
    # that sets the same key, register or address, the last four spelled
    # another way
    data = Path(specsim.__file__).parent / "data"
    for name in ("ghost.scenario", "ghost.asm"):
        shutil.copy(data / name, tmp_path / name)
    sf = tmp_path / "ghost.scenario"
    lines = sf.read_text().splitlines() + [added]
    sf.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "run", "--scenario-file", str(sf))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"ghost.scenario:{len(lines)}: {key}: given again, first at line {first}" in err


def test_config_file_key_given_twice_exits_2_naming_both_lines(
        capsys, monkeypatch, tmp_path):
    cfgfile = tmp_path / "specsim.conf"
    cfgfile.write_text("mshr_count = 4\nrob_capacity = 112\nmshr_count = 5\n")
    monkeypatch.setenv("SPECSIM_CONFIG", str(cfgfile))
    code, out, err = run_cli(capsys, "run", "spectre_1_0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "config line 3: mshr_count: given again, first at line 1" in err


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("flags,named", [
    pytest.param(["spectre_1_0"], "a scenario name", id="flags0-a scenario name"),
    pytest.param(["--amplification", "4"], "--amplification", id="flags3---amplification"),
    pytest.param(["--pad-uops", "3"], "--pad-uops", id="flags4---pad-uops")])
def test_scenario_file_rejects_the_scenario_flags(capsys, tmp_path, command, flags,
                                                  named):
    asm = tmp_path / "victim.asm"
    asm.write_text("main:\n    halt\n")
    sf = tmp_path / "ok.scenario"
    sf.write_text(f"program = {asm}\n")
    out_path = tmp_path / "t.jsonl"
    out_flag = ["--out", str(out_path)] if command == "trace" else []
    code, out, err = run_cli(capsys, command, "--scenario-file", str(sf), *out_flag,
                             "--mitigation", "none")
    assert code == 0 and err == ""
    out_path.unlink(missing_ok=True)
    code, out, err = run_cli(capsys, command, *flags, "--scenario-file", str(sf),
                             *out_flag)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not out_path.exists()


def test_scenario_file_takes_mitigation_and_secret_like_a_scenario_name(
        capsys, tmp_path, monkeypatch):
    data = Path(specsim.__file__).resolve().parent / "data"
    for name in ("ghost.scenario", "ghost.asm"):
        shutil.copy(data / name, tmp_path / name)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    copy = str(tmp_path / "ghost.scenario")
    _, by_name, _ = run_cli(capsys, "run", "ghost", "--mitigation", "fence")
    code, by_file, err = run_cli(capsys, "run", "--scenario-file", copy,
                                 "--mitigation", "fence")
    assert code == 0 and err == "" and by_file == by_name
    assert json.loads(by_file)["scenario"] == "ghost+fence"
    code, out, _ = run_cli(capsys, "run", "--scenario-file", copy, "--secret", "7")
    rec = json.loads(out)
    assert code == 0 and rec["inferred_secret"] == 7 and rec["attack_success"] is True
    code, out, err = run_cli(capsys, "run", "--scenario-file", copy,
                             "--mitigation", "fence_gadget")
    assert code == 2 and out == "" and "has no 'fence_gadget' site" in err


# every number-valued flag, with a value other than its default
NUMBER_FLAGS = [("--secret", 43), ("--amplification", 4), ("--pad-uops", 8),
                ("--rob-capacity", 64), ("--issue-width", 4), ("--retire-width", 2),
                ("--sb-capacity", 16), ("--mshr-count", 4), ("--rsb-depth", 8),
                ("--bht-size", 512), ("--dram-latency-cycles", 200),
                ("--l1-latency-cycles", 3), ("--timer-granularity-cycles", 2),
                ("--seed", 7), ("--cycle-limit", 500_000)]


def test_number_flags_cover_every_integer_config_field():
    ints = {f.name for f in fields(SimConfig) if f.name not in CHOICES}
    assert {flag[2:].replace("-", "_") for flag, _ in NUMBER_FLAGS[3:]} == ints


@pytest.mark.parametrize("flag,value", NUMBER_FLAGS)
def test_number_flag_takes_hex_and_rejects_a_non_number(capsys, flag, value):
    _, default, _ = run_cli(capsys, "run", "spectre_1_0")
    code, dec, err = run_cli(capsys, "run", "spectre_1_0", flag, str(value))
    assert code == 0 and err == "" and dec != default     # the value reached the run
    code, hexed, err = run_cli(capsys, "run", "spectre_1_0", flag, hex(value))
    assert code == 0 and err == "" and hexed == dec
    code, out, err = run_cli(capsys, "run", "spectre_1_0", flag, "zz")
    assert code == 2 and out == ""
    assert err == f"error: argument {flag}: invalid parse_int value: 'zz'\n"


@pytest.mark.parametrize("argv,message", [
    (["trace", "spectre_1_0"], "the following arguments are required: --out"),
    (["run", "spectre_1_0", "--bogus"], "unrecognized arguments: --bogus"),
    (["matrix", "--rob-capacity", "1x"],
     "argument --rob-capacity: invalid parse_int value: '1x'"),
    (["trace", "spectre_1_0", "--out", "t.jsonl", "--pad-uops", "0x"],
     "argument --pad-uops: invalid parse_int value: '0x'"),
    (["run", "spectre_1_0", "--mitigation", "nope"],
     "argument --mitigation: invalid choice: 'nope'"),
    ([], "the following arguments are required: command"),
    (["run"], "give a scenario name or --scenario-file")])
def test_malformed_command_line_prints_one_error_line_and_exits_2(capsys, argv,
                                                                   message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["run", "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: specsim run")
