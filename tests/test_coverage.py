"""The coverage runner's allowed list stays applicable: each entry names a
line of its file that still holds its quoted text, and gives a reason. The
runner's tracer and report are checked on a small module. Running the
coverage is `python tests/coverage.py`."""

import json
import subprocess
import sys

import coverage
from coverage import ALLOWED, ROOT


def test_allowed_entries_are_unique_and_name_lines_holding_their_text():
    assert len({(a.file, a.line) for a in ALLOWED}) == len(ALLOWED)
    for a in ALLOWED:
        assert a.text.strip() and a.reason.strip(), a
        lines = (ROOT / a.file).read_text().splitlines()
        assert a.text in lines[a.line - 1], a


SAMPLE = """\
def f(x):
    if x:
        x += 1
    while x < 3:
        x += 1
    return x


def g(x):
    if x:
        return 1
    return 2


def h(x):
    if x:
        x += 1
    return x
"""

TRACED_RUN = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.start(sys.argv[2], sys.argv[3])
sys.path.insert(0, sys.argv[2])
import sample
sample.f(1), sample.f(0), sample.g(0), sample.h(1)
print([id(fn.__code__) in tracer._done for fn in (sample.f, sample.g, sample.h)])
"""


def test_tracer_reports_unrun_lines_and_one_way_conditions(tmp_path):
    """`f` shows every line and both ways of each condition, so its code
    stops being traced; `g` never takes its `if`, so its body never runs,
    which the report shows as a line, not also as a condition; `h` always
    takes its `if`, which only the condition report can show."""
    code, out = tmp_path / "code", tmp_path / "out"
    code.mkdir()
    out.mkdir()
    sample = code / "sample.py"
    sample.write_text(SAMPLE)
    run = subprocess.run([sys.executable, "-c", TRACED_RUN, coverage.__file__, f"{code}/",
                          str(out)], capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout == "[True, False, False]\n"
    arcs = {(a, b) for data in out.glob("*.json")
            for file, a, b in json.loads(data.read_text()) if file == str(sample)}
    assert coverage.findings(sample, arcs) == [
        (11, "11: never ran: return 1"),
        (16, "16: condition always true: if x:")]
