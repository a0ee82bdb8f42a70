"""Run the benchmark in a parent and a change checkout, in alternating pairs.

Usage:
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_N.json
        [--workloads W,W,...] [--seeds 7,53] [--pairs 10] [--seconds 25]
        [--claim TEXT]

Pair p runs every workload and seed once on each side, the parent first
when p is odd and the change first when p is even. A run is
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in
that checkout, so each side measures its own sources with its own
benchmark files. After the pairs, one `--trace 1` run per side and
workload (seed TRACE_SEED, TRACE_SECONDS long) gives the per-layer metrics.

The JSON written to --out (rewritten after every pair, so an interrupted run
keeps the pairs it finished) has the keys parent (see commit_of), command,
machine, pairs, bytecode (see bytecode_state), claim, summary (see summarize;
per "W/S", each end-to-end metric and the failed count), runs and trace.
BENCHMARK.json of the change checkout is only read; scripts/cli_pairs.py
shares the summary, the verdict and the bytecode guard.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

TRACE_SEED = 7
TRACE_SECONDS = 10
SIDES = ("parent", "change")


def run_bench(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return dict(json.loads(lines[-1]), exit_code=proc.returncode)


def spread(values):
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [0, 0, 0]
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "iqr": quartiles[2] - quartiles[0], "n": len(values)}


def verdict(parent, change, better, bound):
    """'gain', 'worse', 'same' or 'unresolved' for one metric, from its values per pair
    (parent[i] and change[i] ran in pair i). With the parent's IQR at most bound times
    |parent median|: gain when the change won 9 of every 10 pairs and its median beats
    the parent's by more than that IQR, worse when its median is worse by more than
    that bound, else same. With a wider IQR: same when every change run beats every
    parent run, worse when every one loses and the medians are past the bound, else
    unresolved."""
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    limit = bound * abs(p_med)
    worse = sign * (c_med - p_med) > limit
    iqr = spread(parent)["iqr"]
    if iqr > limit:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "same"
        if worse and all(sign * (c - p) > 0 for p in parent for c in change):
            return "worse"
        return "unresolved"
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and sign * (p_med - c_med) > iqr:
        return "gain"
    return "worse" if worse else "same"


def summarize(runs, unit, values, metrics):
    """summary[unit(run)]: for each name in values(run) that no run of the unit lacks
    (reads None), each side's median, min, max, iqr (third minus first quartile) and
    n; for each name in metrics ({name: (better, bound)}), also "<name>_pairs_won",
    the pairs the change read better in (ties count for neither side), and
    "<name>_verdict" (see verdict)."""
    summary = {}
    for key in dict.fromkeys(map(unit, runs)):
        series = {s: [values(r) for r in runs if unit(r) == key and r["side"] == s]
                  for s in SIDES}
        out = summary[key] = {}
        for name in series["parent"][0]:
            parent, change = ([v[name] for v in series[s]] for s in SIDES)
            if None in parent + change:
                continue
            out[name] = {"parent": spread(parent), "change": spread(change)}
            if name in metrics:
                sign = 1 if metrics[name][0] == "lower" else -1
                wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
                out[f"{name}_pairs_won"] = f"{wins}/{len(parent)}"
                out[f"{name}_verdict"] = verdict(parent, change, *metrics[name])
    return summary


def print_summary(summary, names):
    for key, out in summary.items():
        for name in names:
            if name in out:
                p, c = (out[name][s]["median"] for s in SIDES)
                print(f"{key} {name}: {out[name + '_verdict']}, change won "
                      f"{out[name + '_pairs_won']} pairs, median {p:.4g} -> {c:.4g}")


def has_bytecode(root):
    """Whether root's src/nilbloch/__pycache__ holds .pyc files."""
    cache = os.path.join(root, "src", "nilbloch", "__pycache__")
    return os.path.isdir(cache) and any(n.endswith(".pyc") for n in os.listdir(cache))


def bytecode_state(roots):
    """has_bytecode per side, or None, after an error line on stderr, when only one
    side holds .pyc files: the benchmark and the CLI run without writing bytecode,
    so that side would start faster for that reason alone."""
    state = {side: has_bytecode(root) for side, root in roots.items()}
    if state["parent"] == state["change"]:
        return state
    only = "parent" if state["parent"] else "change"
    print(f"error: only the {only} checkout has .pyc files in src/nilbloch/__pycache__, "
          f"so its start-up would read faster for that alone; remove them, or "
          f"byte-compile both sides, and run again", file=sys.stderr)
    return None


def commit_of(root):
    """The short commit of root when root is the top of a git work tree whose src/
    matches HEAD; else "src_sha256:" and the src_sha256 of perfbench/run.py (the
    sha256 of each src/nilbloch/*.py in sorted order, as its name, a NUL byte and
    its bytes; 16 hex digits), so a copy is named by its sources."""
    root = os.path.realpath(root)

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True).stdout.strip()
    if git("rev-parse", "--show-toplevel") == root and not git("status", "--porcelain", "src"):
        return git("rev-parse", "--short", "HEAD")
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "nilbloch")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return "src_sha256:" + digest.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default="cohom_ladder,param_box,bloch_queries,oracle_gap")
    ap.add_argument("--seeds", default="7,53")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--claim", default="none")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent_dir, "change": args.change_dir}
    bytecode = bytecode_state(roots)
    if bytecode is None:
        return 2
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    report = {
        "parent": commit_of(args.parent_dir),
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "machine": f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
                   f"{platform.python_version()}",
        "pairs": "odd pairs run the parent, then the change; even pairs run the change first",
        "bytecode": bytecode,
        "claim": args.claim,
        "summary": {}, "runs": [], "trace": [],
    }

    def save():
        report["summary"] = summarize(
            report["runs"], lambda r: f"{r['workload']}/{r['seed']}",
            lambda r: {**{k: m["value"] for k, m in r["result"]["metrics"].items()},
                       "failed": r["result"]["failed"]},
            metrics)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")

    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads:
            for seed in seeds:
                for side in order:
                    result = run_bench(roots[side], workload, seed, args.seconds, 0)
                    report["runs"].append({"side": side, "pair": pair, "workload": workload,
                                           "seed": seed, "result": result})
                    print(f"# pair {pair} {side} {workload}/{seed}: "
                          f"wall_s {result['metrics']['wall_s']['value']:.4g}",
                          file=sys.stderr, flush=True)
        save()
    for workload in workloads:
        for side in SIDES:
            result = run_bench(roots[side], workload, TRACE_SEED, TRACE_SECONDS, 1)
            report["trace"].append({"side": side, "workload": workload, "seed": TRACE_SEED,
                                    "trace": 1, "seconds": TRACE_SECONDS, "result": result})
    save()
    print_summary(report["summary"], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
