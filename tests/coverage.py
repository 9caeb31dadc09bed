"""Line and condition coverage of `src/specsim` under the tier-1 suite.

    python tests/coverage.py

runs the tier-1 suite (`python -m pytest` with `src` on PYTHONPATH, as the
tier-1 command does, but with `tests/test_acceptance.py` last) with a
`sys.settrace` tracer in every Python process it starts, then prints

- each run of executable lines of `src/specsim` that never ran, and
- each `if`, `elif` or `while` whose condition went only one way, when the
  way it never went leads to a line that did run (an always-false `if`
  leaves its body unrun, which the first list shows already; an always-true
  one leaves nothing unrun, which only this list shows).

A finding named in ALLOWED is left out and counted; each entry gives the
reason it stays. The runner exits 1 when the suite fails, when a finding is
not in ALLOWED, or when an ALLOWED entry names a line that no longer needs
it; else 0.

How the tracer reaches every process: a `sitecustomize` module in a
temporary directory at the head of PYTHONPATH loads this file and calls
`start`, which sets the tracer and, since the CLI and demo tests give their
subprocesses a PYTHONPATH of their own, puts the directory back at the head
of any environment a traced process hands to `subprocess`. Each process
writes the line-to-line steps (arcs) it saw in `src/specsim` to that
directory when it exits.

A code object is traced only until its frames have shown all the report
asks of it, so by the time the acceptance tests run, the code their
wall-clock gates time runs untraced. Tracing still makes the suite about
four times slower, so this runner is not part of tier-1: there
`tests/test_coverage.py` checks that every ALLOWED entry still names a line
holding its quoted text, so an edit has to update an entry instead of
orphaning it, and runs the tracer on a small module. Standard library only.
"""

import ast
import atexit
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "specsim"
# the file whose tests have wall-clock gates runs last, once the rest of the
# suite has shown the tracer all it asks of the code those tests time
TIMED = "tests/test_acceptance.py"


class Allowed(NamedTuple):
    file: str       # relative to the repository root
    line: int       # the first line of an unrun block, or a condition's line
    text: str       # occurs in that line
    reason: str


ALLOWED = ()


# -- the tracer, run in every process -------------------------------------------
#
# One module-level local trace function serves every traced frame: a closure
# per frame that held its frame would put the two in a reference cycle, which
# the tests that count garbage would see. A code object stops being traced
# once its frames have shown everything the report asks of it, every line and
# both ways of every condition.

_prefix = ""
_arcs = set()          # (file, line before or None, line or -1 for leaving the frame)
_last = {}             # id(frame) -> the frame's last line, or None
_needs = {}            # id(code) -> (code, what its frames have not shown yet)
_done = set()          # id(code) of each code object with nothing left to show
_conditions = {}       # file -> conditions(its source)


def _trace_call(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_prefix) or id(code) in _done:
        return None
    if id(code) not in _needs:          # the code is kept, so its id stays its own
        _needs[id(code)] = code, _code_needs(code)
    _last[id(frame)] = None
    return _trace_line


def _trace_line(frame, event, arg):
    if event == "line":
        line = frame.f_lineno
        arc = (frame.f_code.co_filename, _last.get(id(frame)), line)
        _last[id(frame)] = line
    elif event == "return":
        arc = (frame.f_code.co_filename, _last.pop(id(frame), None), -1)
    else:
        if event == "exception":
            _last[id(frame)] = None     # where it lands next is not a branch taken
        return _trace_line
    if arc not in _arcs:
        _arcs.add(arc)
        _shown(frame.f_code, arc)
    return _trace_line


def _code_needs(code) -> set:
    """The lines of `code`, bar its first, which its caller runs, and each
    way of each condition that starts on one of them."""
    if code.co_filename not in _conditions:
        _conditions[code.co_filename] = conditions(Path(code.co_filename).read_text())
    conds = _conditions[code.co_filename]
    needs = {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}
    for line in list(needs):
        if line in conds and conds[line][0] == line:
            needs.update(((line, True), (line, False)))
    return needs


def _shown(code, arc) -> None:
    """Strike what the new `arc` of a frame of `code` shows from its needs."""
    file, a, b = arc
    needs = _needs[id(code)][1]
    needs.discard(b)
    cond = _conditions[file].get(a)
    if cond is not None and b not in cond[1]:
        needs.discard((cond[0], b == cond[2]))
    if not needs:
        _done.add(id(code))


def start(prefix: str, out: str) -> None:
    """Trace the frames of files under `prefix` from now on, write the arcs
    to a new file in `out` at exit, and make subprocesses do the same."""
    global _prefix
    _prefix = prefix
    atexit.register(_save, out)
    init = subprocess.Popen.__init__

    def popen_init(self, *args, env=None, **kw):
        if env is not None:
            env = dict(env, PYTHONPATH=os.pathsep.join(
                filter(None, (out, env.get("PYTHONPATH")))))
        init(self, *args, env=env, **kw)
    subprocess.Popen.__init__ = popen_init
    sys.settrace(_trace_call)


def _save(out: str) -> None:
    sys.settrace(None)
    fd, path = tempfile.mkstemp(suffix=".json", dir=out)
    with os.fdopen(fd, "w") as f:
        json.dump(list(_arcs), f)


SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_coverage_tracer", {runner!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.start({prefix!r}, {out!r})
"""


# -- what the arcs say ---------------------------------------------------------------

def executable_lines(path: Path) -> list:
    """The lines of `path` that hold bytecode, in order."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return sorted(lines)


def conditions(source: str) -> dict:
    """line -> (first line, lines, the body's first line, the else part's
    first line or None) of the test of each if, elif and while statement in
    `source` that tests no constant, for each line the test spans."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.If, ast.While)) and not isinstance(node.test, ast.Constant):
            test = range(node.lineno, node.test.end_lineno + 1)
            cond = (node.lineno, test, node.body[0].lineno,
                    node.orelse[0].lineno if node.orelse else None)
            out.update(dict.fromkeys(test, cond))
    return out


def findings(path: Path, arcs: set) -> list:
    """(line, description) of each unrun block and one-way condition in
    `path`, given the (line before, line) arcs seen in it."""
    ran = {b for _, b in arcs}
    text = path.read_text().splitlines()
    out, block = [], []
    for line in executable_lines(path) + [None]:
        if line is not None and line not in ran:
            block.append(line)
            continue
        if block:
            span = f"{block[0]}-{block[-1]}" if len(block) > 1 else f"{block[0]}"
            out.append((block[0], f"{span}: never ran: {text[block[0] - 1].strip()}"))
            block = []
    for first, test, body, orelse in set(conditions(path.read_text()).values()):
        if not ran.intersection(test):
            continue
        went = {b == body for a, b in arcs if a in test and b not in test}
        if len(went) != 1:
            continue
        way = went.pop()
        other = orelse if way else body     # an unrun line there is listed above
        if other is None or other in ran:
            out.append((first, f"{first}: condition always {str(way).lower()}: "
                               f"{text[first - 1].strip()}"))
    return sorted(out)


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="specsim-coverage-") as out:
        Path(out, "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            runner=str(Path(__file__).resolve()), prefix=str(SRC) + os.sep, out=out))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (out, str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
        files = sorted(str(f.relative_to(ROOT)) for f in ROOT.glob("tests/test_*.py"))
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider",
             *[f for f in files if f != TIMED], TIMED], cwd=ROOT, env=env)
        arcs = {}
        for data in Path(out).glob("*.json"):
            for file, a, b in json.loads(data.read_text()):
                arcs.setdefault(file, set()).add((a, b))
    allowed = {(a.file, a.line): a for a in ALLOWED}
    used, ran, total, unexpected = set(), 0, 0, 0
    for path in sorted(SRC.glob("*.py")):
        rel = str(path.relative_to(ROOT))
        seen = arcs.get(str(path), set())
        lines = set(executable_lines(path))
        total += len(lines)
        ran += len(lines & {b for _, b in seen})
        for line, what in findings(path, seen):
            if (rel, line) in allowed:
                used.add((rel, line))
            else:
                unexpected += 1
                print(f"{rel}:{what}")
    stale = [a for key, a in allowed.items() if key not in used]
    for a in stale:
        print(f"{a.file}:{a.line}: allowed, but no longer missed: {a.text}")
    print(f"{ran} of {total} executable lines ran; findings: {len(used)} allowed, "
          f"{unexpected} not allowed; stale allowed entries: {len(stale)}; "
          f"suite exit {suite.returncode}; {time.perf_counter() - started:.0f} s")
    return 1 if suite.returncode or unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
