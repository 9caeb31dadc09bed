"""README's normative tables held to the code's own tables.

README is the contract: the ISA reference, the forwarding policies, the
scenario-file keys, the CLI's flags, defaults, exit codes, trace records and
report fields. Each test parses one of them out of README.md and compares it
with the table the program runs on, so neither can change alone.
"""

import argparse
import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from specsim import cli, config, isa, lsu, memory, scenarios
from specsim.config import RunReport, SimConfig, TraceEvent, read_key_values

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    """README's text under the `## title` heading, up to the next one."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end == -1 else README[start:end]


def table_rows(text: str) -> list:
    """The cells of each body row of the markdown table in `text`; an escaped
    `\\|` stays inside its cell as `|`."""
    rows = [line for line in text.splitlines() if line.startswith("|")][2:]
    return [[cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", row)[1:-1]]
            for row in rows]


def code_spans(text: str) -> list:
    return re.findall(r"`([^`]+)`", text)


def number(text: str) -> int:
    """A number as README writes it: 65,536 or 2**16."""
    base, _, power = text.replace(",", "").partition("**")
    return int(base) ** int(power) if power else int(base)


# ---------------------------------------------------------------------------
# the ISA reference
# ---------------------------------------------------------------------------

# README operand -> its `_SIGNATURES` letter
OPERAND_LETTERS = {r"r[A-Z]": "r", r"imm(\|label)?": "i", r"label": "l", r"\[rB\+off\]": "m"}


def operand_letter(operand: str) -> str:
    for pattern, letter in OPERAND_LETTERS.items():
        if re.fullmatch(pattern, operand):
            return letter
    raise AssertionError(f"README operand {operand!r} has no signature letter")


def expand(family: str, semantics: str) -> list:
    """The mnemonics a README family names: `add/sub` lists them, and `csel.CC`
    or `ld.N` takes each value its row's semantics gives (`CC in b/be`, `N in
    {1,2}`)."""
    names = family.split("/")
    for param, values in re.findall(r"\b(CC|N) in \{?([\w/,]+)", semantics):
        names = [name.replace(f".{param}", f".{value}")
                 for name in names for value in re.split(r"[/,]", values)]
    names = list(dict.fromkeys(names))
    assert not [n for n in names if re.search(r"\.(CC|N)\b", n)], (family, semantics)
    return names


def readme_isa():
    """README's ISA table as (mnemonic -> operand signature, the mnemonics
    that take the `!` mark)."""
    signatures, marked = {}, set()
    for syntax, semantics in table_rows(section("ISA reference (normative)")):
        for span in code_spans(syntax):
            family, _, operands = span.partition(" ")
            signature = "".join(operand_letter(op.strip())
                                for op in operands.split(",") if op.strip())
            for mnemonic in expand(family, semantics):
                if mnemonic.endswith("!"):
                    assert signature == "", span
                    marked.add(mnemonic[:-1])
                else:
                    assert mnemonic not in signatures, f"{mnemonic} has two rows"
                    signatures[mnemonic] = signature
    return signatures, marked


def test_isa_table_is_the_assemblers_signatures():
    signatures, _ = readme_isa()
    assert signatures == isa._SIGNATURES


def test_isa_marks_are_the_sized_loads_and_stores():
    _, marked = readme_isa()
    assert marked == set(isa.LOAD_SIZES) | set(isa.STORE_SIZES)


# ---------------------------------------------------------------------------
# forwarding policies and scenario files
# ---------------------------------------------------------------------------

def test_policy_table_is_policy_allows_in_order():
    rows = table_rows(section("Forwarding policies (`forwarding_policy`)"))
    assert [code_spans(value) for value, _ in rows] == [[p] for p in lsu.POLICY_ALLOWS]


def readme_scenario_file() -> dict:
    """README's example scenario file, read as the scenario reader reads a
    file: {key: (line, value parsed by its key)}."""
    block = re.search(r"Custom scenarios load from a key=value text file:\n\n```\n(.*?)```",
                      section("Scenarios"), re.S).group(1)
    return read_key_values(block, scenarios._file_value, "README example line ")


def test_scenario_file_example_parses_and_gives_every_key_the_reader_takes():
    keys = set(readme_scenario_file())
    assert set(scenarios._FILE_SCALARS) <= keys
    assert scenarios._SITE_KEYS <= keys
    assert set(scenarios._FILE_LISTS) <= {key.partition(".")[0] for key in keys}


# ---------------------------------------------------------------------------
# the CLI: flags, defaults and bounds, exit codes, trace records, reports
# ---------------------------------------------------------------------------

def test_cli_flags_are_the_config_fields():
    listed = re.search(r"Flags mirror the config fields in kebab-case \((.*?)\)\.",
                       section("CLI"), re.S).group(1)
    parser = argparse.ArgumentParser()
    cli._add_config_flags(parser)
    flags = [flag for action in parser._actions for flag in action.option_strings
             if flag not in ("-h", "--help")]
    assert code_spans(listed) == flags
    assert flags == ["--" + f.name.replace("_", "-") for f in fields(SimConfig)]


def named_values() -> dict:
    """Each `name` README gives a number right after, as `name`, default N,
    `name` (N) or, for a constant, `NAME`, N."""
    found = re.findall(r"`(\w+)`(,? default |\s+\(|,\s+)(\d+\*\*\d+|\d{1,3}(?:,\d{3})+|\d+)",
                       README)
    values = {}
    for name, between, text in found:
        if between.strip() == "," and not name.isupper():
            continue            # a number after a list of names, as `_file`, 518
        assert values.setdefault(name, number(text)) == number(text), name
    return values


def code_value(name: str) -> int:
    """A config field's default, or a module constant of that name."""
    defaults = {f.name: f.default for f in fields(SimConfig)}
    if name in defaults:
        return defaults[name]
    owners = [m for m in (config, scenarios, memory) if name in vars(m)]
    assert owners, f"README states a value for {name!r}, which the code does not have"
    return getattr(owners[0], name)


def test_every_named_default_and_bound_is_the_codes():
    values = named_values()
    assert {"rob_capacity", "issue_width", "retire_width", "sb_capacity", "mshr_count",
            "dram_latency_cycles", "l1_latency_cycles", "MAX_BHT_SIZE", "MAX_PAD_UOPS",
            "MAX_REGION_PAGES"} <= set(values)
    assert {name: code_value(name) for name in values} == values


# README phrase whose first group is a number -> the code's value for it
STATED = {
    r"\((\d+) sets x \d+ ways x \d+-byte lines": memory.N_SETS,
    r"\(\d+ sets x (\d+) ways x \d+-byte lines": memory.N_WAYS,
    r"\(\d+ sets x \d+ ways x (\d+)-byte lines": memory.LINE,
    r"at most the L1's (\d+)\)": memory.N_SETS * memory.N_WAYS,
    r"`probe_stride` below (\d+) \(one line\)": memory.LINE,
    r"probe_stride = \d+ +# at least (\d+), one line": memory.LINE,
    r"\(2\*\*16 pages,\s+(\d+) MiB\)": scenarios.MAX_REGION_PAGES * memory.PAGE >> 20,
}


@pytest.mark.parametrize("phrase", STATED)
def test_stated_geometry_and_bounds_are_the_codes(phrase):
    found = re.findall(phrase, README)
    assert len(found) == 1 and number(found[0]) == STATED[phrase]


def test_amplification_bound_is_the_largest_probe_span_allowed():
    most = int(re.search(r"so N is at most (\d+)", README).group(1))
    scenarios.ProbeSpec(amplification=most)
    with pytest.raises(ValueError, match="probe span"):
        scenarios.ProbeSpec(amplification=2 * most)


def readme_exit_codes() -> list:
    listed = README.split("\nExit codes:\n", 1)[1].split("\n\n", 1)[0]
    return [int(code) for code in re.findall(r"^- (\d+): ", listed, re.M)]


def cli_exit_codes() -> set:
    """Every code cli.py can exit with: each `_CliError` code, and each int
    literal a function returns (directly or from either arm of an `if`)."""
    def literals(node):
        if isinstance(node, ast.IfExp):
            return literals(node.body) | literals(node.orelse)
        return {node.value} if isinstance(node, ast.Constant) and type(node.value) is int else set()

    codes = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_CliError":
            assert isinstance(node.args[0], ast.Constant), ast.dump(node)
            codes.add(node.args[0].value)
        elif isinstance(node, ast.Return) and node.value is not None:
            codes |= literals(node.value)
    return codes


def test_exit_codes_are_the_ones_cli_can_produce():
    listed = readme_exit_codes()
    assert listed == sorted(set(listed))
    assert set(listed) == cli_exit_codes()


def test_trace_records_and_kinds_are_the_codes():
    m = re.search(r"one JSON record per line:\s+(.*?), with kind one of (.*?)\);",
                  section("CLI"), re.S)
    assert code_spans(m.group(1)) == [f.name for f in fields(TraceEvent)]
    assert tuple(kind.strip() for kind in m.group(2).split(",")) == config.TRACE_KINDS


def test_report_fields_are_the_json_keys():
    listed = re.search(r"Reports are line-delimited JSON with stable field names \((.*?)\);",
                       README, re.S).group(1)
    assert sorted(code_spans(listed)) == sorted(RunReport("s", "0").to_dict())
