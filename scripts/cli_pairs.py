"""Run every CLI command in a parent and a change checkout, in alternating pairs.

Usage:
    python3 scripts/cli_pairs.py PARENT_DIR CHANGE_DIR --out CLI_N.json

The commands are `nilbloch selftest` and the `nilbloch ...` lines of the change's
README CLI block and scripts/explicit_cmds.txt; README.md says what is compared
and what --out holds. The summary, its verdicts and the bytecode guard are those
of scripts/bench_pairs.py. Exits 1 when any command's report differs from the
parent's first one, 2 before any run when only one side holds .pyc files in
src/nilbloch/__pycache__, else 0.
"""

import argparse
import json
import os
import platform
import shlex
import subprocess
import sys
import time

from bench_pairs import SIDES, bytecode_state, commit_of, print_summary, summarize

PAIRS = 10
METRICS = ("timing_seconds", "wall_s")


def commands(root):
    """`nilbloch selftest`, then the `nilbloch ...` lines of root's README CLI block
    (the first code block after '## CLI') and of its scripts/explicit_cmds.txt."""
    with open(os.path.join(root, "README.md")) as fh:
        lines = fh.read().split("\n## CLI", 1)[1].split("\n```")[1].splitlines()
    with open(os.path.join(root, "scripts", "explicit_cmds.txt")) as fh:
        lines += fh.read().splitlines()
    return ["nilbloch selftest"] + [s.strip() for s in lines if s.strip().startswith("nilbloch ")]


_MISSING = object()


def first_difference(a, b, path="$"):
    """Path and the two values at the first place a and b differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        subs = [(f"{path}.{key}", a.get(key, _MISSING), b.get(key, _MISSING))
                for key in sorted(set(a) | set(b), key=str)]
    elif isinstance(a, list) and isinstance(b, list):
        subs = [(f"{path}[{i}]", a[i] if i < len(a) else _MISSING,
                 b[i] if i < len(b) else _MISSING) for i in range(max(len(a), len(b)))]
    else:
        return (path, a, b) if type(a) is not type(b) or a != b else None
    for sub, x, y in subs:
        found = first_difference(x, y, sub)
        if found:
            return found
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
    """The run's report without its timing fields (timing_seconds, criteria[].seconds)
    and its timing_seconds (None when it prints no JSON object)."""
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return {"text": stdout.strip() or stderr.strip(), "exit_code": code}, None
    out = {k: v for k, v in report.items() if k != "timing_seconds"}
    if isinstance(out.get("criteria"), list):
        out["criteria"] = [{k: v for k, v in c.items() if k != "seconds"}
                           if isinstance(c, dict) else c
                           for c in out["criteria"]]
    return dict(out, exit_code=code), report.get("timing_seconds")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    roots = dict(zip(SIDES, map(os.path.abspath, (args.parent_dir, args.change_dir))))
    bytecode = bytecode_state(roots)
    if bytecode is None:
        return 2
    cmds = commands(roots["change"])
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        bound = next(m["bound"] for m in json.load(fh)["end_to_end"] if m["name"] == "wall_s")
    report = {"parent": commit_of(roots["parent"]), "bytecode": bytecode, "differs": {},
              "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}"}
    reference, differs, runs = {}, report["differs"], []
    for pair in range(1, PAIRS + 1):
        for cmd in cmds:
            for side in SIDES if pair % 2 else SIDES[::-1]:
                code, stdout, stderr, wall = run_cli(roots[side], shlex.split(cmd)[1:])
                mine, timing = parse_run(code, stdout, stderr)
                found = first_difference(reference.setdefault(cmd, mine), mine)
                if found and cmd not in differs:
                    differs[cmd] = (f"pair {pair} {side}: differ at {found[0]}: "
                                    f"{_show(found[1])} != {_show(found[2])}")
                runs.append({"cmd": cmd, "side": side, "pair": pair, "exit_code": code,
                             "timing_seconds": timing, "wall_s": round(wall, 6)})
        report.update(summary=summarize(runs, lambda r: r["cmd"],
                                        lambda r: {name: r[name] for name in METRICS},
                                        dict.fromkeys(METRICS, ("lower", bound))),
                      runs=runs)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print_summary(report["summary"], METRICS)
    for cmd, where in differs.items():
        print(f"differs: {cmd}: {where}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
