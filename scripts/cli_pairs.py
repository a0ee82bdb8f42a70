"""Run every CLI command in a parent and a change checkout, in alternating pairs.

Usage:
    python3 scripts/cli_pairs.py PARENT_DIR CHANGE_DIR --out CLI_N.json

The commands are `nilbloch selftest` and the `nilbloch ...` lines of the change's
README CLI block and scripts/explicit_cmds.txt; README.md says what is compared
and what --out holds. Exits 1 when any command's report differs from the
parent's first one, 2 before any run when only one side holds .pyc files in
src/nilbloch/__pycache__, else 0.
"""

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time

from bench_pairs import commit_of, has_bytecode, spread, verdict

PAIRS = 5
# medians closer than this many seconds read `same`: a command of a few ms swings
# by more than the wall_s bound between two runs of one checkout
MIN_SHIFT_S = 0.010


def readme_commands(path):
    """The `nilbloch ...` lines of the first code block after '## CLI'."""
    with open(path) as fh:
        lines = fh.read().split("\n## CLI", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("```"))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```"))
    return [line.strip() for line in lines[start + 1:end] if line.startswith("nilbloch ")]


def strip_timing(report):
    out = {k: v for k, v in report.items() if k != "timing_seconds"}
    if isinstance(out.get("criteria"), list):
        out["criteria"] = [{k: v for k, v in c.items() if k != "seconds"}
                           if isinstance(c, dict) else c
                           for c in out["criteria"]]
    return out


_MISSING = object()


def first_difference(a, b, path="$"):
    """Path and the two values at the first place a and b differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{key}"
            if key not in a or key not in b:
                return sub, a.get(key, _MISSING), b.get(key, _MISSING)
            found = first_difference(a[key], b[key], sub)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            i = min(len(a), len(b))
            return (f"{path}[{i}]", a[i] if i < len(a) else _MISSING,
                    b[i] if i < len(b) else _MISSING)
        return None
    if type(a) is not type(b) or a != b:
        return path, a, b
    return None


def _show(value):
    return "<missing>" if value is _MISSING else json.dumps(value, sort_keys=True)


def run_cli(root, args):
    """Exit code, stdout, stderr and wall seconds of `python -m nilbloch ARGS` in root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nilbloch", *args], cwd=root, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def parse_run(code, stdout, stderr):
    """The run's report and its timing_seconds (None when it prints no JSON object)."""
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return {"text": stdout.strip() or stderr.strip(), "exit_code": code}, None
    return dict(strip_timing(report), exit_code=code), report.get("timing_seconds")


def summarize(runs, bound):
    summary = {}
    for cmd in dict.fromkeys(r["cmd"] for r in runs):
        out = summary[cmd] = {}
        for name in ("timing_seconds", "wall_s"):
            vals = [[r[name] for r in runs if r["cmd"] == cmd and r["side"] == side]
                    for side in ("parent", "change")]
            if None not in vals[0] + vals[1]:
                wins = sum(p > c for p, c in zip(*vals))
                small = abs(statistics.median(vals[0]) - statistics.median(vals[1])) < MIN_SHIFT_S
                out[name] = {"parent": spread(vals[0]), "change": spread(vals[1]),
                             "pairs_won": f"{wins}/{len(vals[0])}",
                             "verdict": "same" if small else verdict(*vals, "lower", bound)}
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    parent, change = map(os.path.abspath, (args.parent_dir, args.change_dir))
    bytecode = {"parent": has_bytecode(parent), "change": has_bytecode(change)}
    if bytecode["parent"] != bytecode["change"]:
        only = "parent" if bytecode["parent"] else "change"
        print(f"error: only the {only} checkout has .pyc files in src/nilbloch/__pycache__",
              file=sys.stderr)
        return 2
    cmds = ["nilbloch selftest"] + readme_commands(os.path.join(change, "README.md"))
    with open(os.path.join(change, "scripts", "explicit_cmds.txt")) as fh:
        cmds += [line.strip() for line in fh if line.strip().startswith("nilbloch ")]
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        bound = next(m["bound"] for m in json.load(fh)["end_to_end"] if m["name"] == "wall_s")
    report = {"parent": commit_of(parent), "bytecode": bytecode, "differs": {},
              "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}"}
    reference, differs, runs = {}, report["differs"], []
    for pair in range(1, PAIRS + 1):
        for cmd in cmds:
            for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                root = parent if side == "parent" else change
                code, stdout, stderr, wall = run_cli(root, shlex.split(cmd)[1:])
                mine, timing = parse_run(code, stdout, stderr)
                found = first_difference(reference.setdefault(cmd, mine), mine)
                if found and cmd not in differs:
                    differs[cmd] = (f"pair {pair} {side}: differ at {found[0]}: "
                                    f"{_show(found[1])} != {_show(found[2])}")
                runs.append({"cmd": cmd, "side": side, "pair": pair, "exit_code": code,
                             "timing_seconds": timing, "wall_s": round(wall, 6)})
        report.update(summary=summarize(runs, bound), runs=runs)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    for cmd, out in report["summary"].items():
        name = "timing_seconds" if "timing_seconds" in out else "wall_s"
        m = out[name]
        print(f"{m['verdict']}, change won {m['pairs_won']} pairs, {name} median "
              f"{m['parent']['median']:.4g} -> {m['change']['median']:.4g}: {cmd}")
    for cmd, where in differs.items():
        print(f"differs: {cmd}: {where}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
