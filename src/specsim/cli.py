"""Command-line front end: run one scenario, sweep the policy/mitigation
matrix, or capture and pretty-print traces.

The flags, the report fields, `SPECSIM_CONFIG` and the exit codes are
README's "CLI" section, which `tests/test_docs.py` holds to this module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .config import (CHOICES, FORWARDING_POLICIES, SimConfig, parse_config_file,
                     parse_int)
from .isa import AsmError
from .lsu import ForwardingPolicy
from .scenarios import (ALL_MITIGATIONS, BUILDERS, MATRIX_SCENARIOS, MITIGATIONS,
                        build_scenario, run_scenario, scenario_from_file)

_CONFIG_FIELDS = [f.name for f in fields(SimConfig)]

class _CliError(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):        # one `error:` line and exit 2, like the rest
        raise _CliError(2, message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for name in _CONFIG_FIELDS:
        flag = "--" + name.replace("_", "-")
        if name in CHOICES:
            parser.add_argument(flag, choices=CHOICES[name])
        else:
            parser.add_argument(flag, type=parse_int)


def _build_config(args) -> SimConfig:
    overrides = {}
    env_path = os.environ.get("SPECSIM_CONFIG")
    if env_path:
        try:
            with open(env_path) as f:
                overrides.update(parse_config_file(f.read()))
        except (OSError, ValueError) as e:
            raise _CliError(2, f"SPECSIM_CONFIG {env_path}: {e}") from None
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    try:
        return SimConfig(**overrides)
    except ValueError as e:
        raise _CliError(2, f"invalid config: {e}") from None


def _resolve_scenario(args):
    kw = {k: getattr(args, k) for k in ("secret", "amplification", "pad_uops")
          if getattr(args, k) is not None}
    if args.scenario_file:
        rejected = [flag for flag, given in (
            ("a scenario name", args.scenario is not None),
            ("--amplification", args.amplification is not None),
            ("--pad-uops", args.pad_uops is not None)) if given]
        if rejected:
            raise _CliError(2, f"--scenario-file does not take {', '.join(rejected)}")
        try:
            return scenario_from_file(args.scenario_file, mitigation=args.mitigation, **kw)
        except (OSError, ValueError, TypeError) as e:
            raise _CliError(2, f"cannot load scenario file: {e}") from e
        except AsmError as e:
            raise _CliError(2, f"cannot assemble the scenario's program: {e}") from None
    name = args.scenario
    if name is None:
        raise _CliError(2, "give a scenario name or --scenario-file")
    try:
        return build_scenario(name, mitigation=args.mitigation, **kw)
    except KeyError:
        known = ", ".join(sorted(BUILDERS))
        raise _CliError(2, f"unknown scenario {name!r} (known: {known})") from None
    except TypeError as e:
        raise _CliError(2, f"option not supported by {name!r}: {e}") from None
    except ValueError as e:
        raise _CliError(2, str(e)) from None


def _run_resolved(args, collect_trace: bool = False):
    """Build the config, the scenario and the forwarding policy the flags
    name, run the scenario, and return the policy and the report."""
    cfg = _build_config(args)
    scenario = _resolve_scenario(args)
    whitelist = set()
    if args.arctic_whitelist:
        try:
            whitelist = ForwardingPolicy.load_whitelist(args.arctic_whitelist)
        except (OSError, ValueError) as e:
            raise _CliError(2, f"cannot load whitelist: {e}") from None
    policy = ForwardingPolicy(cfg.forwarding_policy, whitelist)
    return policy, run_scenario(scenario, cfg, policy=policy,
                                collect_trace=collect_trace)


def _report_lines(report, table: bool) -> str:
    out = [json.dumps(report.to_dict(), sort_keys=True)]
    if table:
        d = report.to_dict()
        width = max(len(k) for k in d)
        out.append("-" * 40)
        out.extend(f"{k:<{width}}  {d[k]}" for k in sorted(d))
    return "\n".join(out)


def cmd_run(args) -> int:
    policy, report = _run_resolved(args)
    if args.save_whitelist:
        try:
            policy.save_whitelist(args.save_whitelist)
        except OSError as e:
            raise _CliError(4, f"cannot write whitelist: {e}") from None
    print(_report_lines(report, args.table))
    return 3 if report.timed_out else 0


def cmd_matrix(args) -> int:
    cfg = _build_config(args)
    scenarios = args.scenarios.split(",") if args.scenarios else list(MATRIX_SCENARIOS)
    policies = args.policies.split(",") if args.policies else list(FORWARDING_POLICIES)
    mitigations = args.mitigations.split(",") if args.mitigations else list(MITIGATIONS)
    rows = []
    for name in scenarios:
        for pol in policies:
            for mit in mitigations:
                row = {"scenario": name, "policy": pol, "mitigation": mit,
                       "attack_success": None, "cycles": None, "error": None}
                try:
                    cell_cfg = cfg.replace(forwarding_policy=pol)
                    scenario = build_scenario(name, mitigation=mit)
                    rep = run_scenario(scenario, cell_cfg,
                                       policy=ForwardingPolicy(pol))
                    row["attack_success"] = rep.attack_success
                    row["cycles"] = rep.cycles
                    if rep.timed_out:
                        row["error"] = "timeout"
                    elif rep.fault:
                        row["error"] = rep.fault
                except Exception as e:       # a broken cell must not stop the sweep
                    # a KeyError's str() is its message quoted
                    row["error"] = str(e.args[0] if isinstance(e, KeyError) and e.args
                                       else e)
                rows.append(row)
    rows.sort(key=lambda r: (r["scenario"], r["policy"], r["mitigation"]))
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    if args.table:
        print("-" * 72)
        for row in rows:
            outcome = {True: "leaks", False: "safe", None: "-"}[row["attack_success"]]
            err = f"  [{row['error']}]" if row["error"] else ""
            print(f"{row['scenario']:<22} {row['policy']:<18} {row['mitigation']:<12} "
                  f"{outcome:<6} {row['cycles'] or '-':>8}{err}")
    return 0


def cmd_trace(args) -> int:
    _, report = _run_resolved(args, collect_trace=True)
    try:
        with open(args.out, "w") as f:
            for ev in report.trace:
                f.write(json.dumps({"cycle": ev.cycle, "kind": ev.kind,
                                    "seq": ev.seq, "pc": ev.pc,
                                    "detail": ev.detail}) + "\n")
    except OSError as e:
        raise _CliError(4, f"cannot write trace: {e}") from None
    print(_report_lines(report, False))
    return 3 if report.timed_out else 0


def cmd_print_trace(args) -> int:
    try:
        with open(args.path) as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise _CliError(2, f"cannot read trace: {e}") from None
    out = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
            out.append(f"{ev['cycle']:>8}  {ev['kind']:<10} seq={ev['seq']:<6} "
                       f"pc={ev['pc']:#06x}  {ev['detail']}")
        except (ValueError, KeyError, TypeError) as e:
            raise _CliError(2, f"trace line {lineno} is not a trace event: "
                               f"{e!r}") from None
    for text in out:
        print(text)
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="specsim",
        description="speculative out-of-order core simulator: attacks, "
                    "mitigations, and forwarding policies")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that choose and configure one scenario run: run and trace
    one = argparse.ArgumentParser(add_help=False)
    one.add_argument("scenario", nargs="?")
    one.add_argument("--scenario-file")
    one.add_argument("--mitigation", default="none", choices=ALL_MITIGATIONS,
                     help="software mitigation, inserted at the site the scenario "
                          "names (a scenario file's site.* keys)")
    one.add_argument("--secret", type=parse_int)
    one.add_argument("--amplification", type=parse_int,
                     help="probe lines per secret value (spectre_1_0)")
    one.add_argument("--pad-uops", type=parse_int,
                     help="filler micro-ops between check and payload (spectre_1_0)")
    one.add_argument("--arctic-whitelist")
    _add_config_flags(one)

    p_run = sub.add_parser("run", parents=[one], help="run one scenario and report")
    p_run.add_argument("--save-whitelist")
    p_run.add_argument("--table", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_mat = sub.add_parser("matrix", help="sweep scenarios x policies x mitigations")
    p_mat.add_argument("--scenarios")
    p_mat.add_argument("--policies")
    p_mat.add_argument("--mitigations")
    p_mat.add_argument("--table", action="store_true")
    _add_config_flags(p_mat)
    p_mat.set_defaults(func=cmd_matrix)

    p_tr = sub.add_parser("trace", parents=[one],
                          help="run a scenario and write its event trace")
    p_tr.add_argument("--out", required=True)
    p_tr.set_defaults(func=cmd_trace)

    p_pt = sub.add_parser("print-trace", help="pretty-print a trace file")
    p_pt.add_argument("path")
    p_pt.set_defaults(func=cmd_print_trace)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
