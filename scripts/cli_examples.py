"""Run the README's CLI examples and write one JSON file per command.

Usage:
    python3 scripts/cli_examples.py OUTDIR [EXTRA_CMDS_FILE]

Every line of the README's CLI code block that begins with `nilbloch `
runs, then every such line of EXTRA_CMDS_FILE (other lines are skipped),
as `python -m nilbloch ...` against the sources of the checkout holding
this script. OUTDIR/NN-<subcommand>.json gets the command's JSON report
with its exit code added as `exit_code` (a command that prints no report
gets its stderr instead). One line per command goes to stdout: file
name, exit code, wall seconds and the command. Run it in two checkouts
and compare the two OUTDIRs with `scripts/selftest_diff.py DIR_A DIR_B`,
which drops the top-level `timing_seconds`.
"""

import json
import os
import shlex
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_commands(path):
    """The `nilbloch ...` lines of the first code block after '## CLI'."""
    with open(path) as fh:
        lines = fh.read().split("\n## CLI", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("```"))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```"))
    return [line.strip() for line in lines[start + 1:end] if line.startswith("nilbloch ")]


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    cmds = readme_commands(os.path.join(ROOT, "README.md"))
    if len(argv) == 2:
        with open(argv[1]) as fh:
            cmds += [line.strip() for line in fh if line.strip().startswith("nilbloch ")]
    os.makedirs(argv[0], exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for i, cmd in enumerate(cmds):
        args = shlex.split(cmd)[1:]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "nilbloch"] + args,
                              env=env, capture_output=True, text=True)
        secs = time.perf_counter() - t0
        report = (json.loads(proc.stdout) if proc.stdout.strip()
                  else {"stderr": proc.stderr.strip()})
        report["exit_code"] = proc.returncode
        name = f"{i:02d}-{args[0]}.json"
        with open(os.path.join(argv[0], name), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{name} exit={proc.returncode} {secs:.2f}s {cmd}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
