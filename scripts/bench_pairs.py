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

The benchmark runs its workers without writing bytecode, so a side whose
src/nilbloch/__pycache__ already holds .pyc files starts faster for that
reason alone. Both sides must be in the same state: when only one holds .pyc
files, the script exits 2 before any run.

The JSON written to --out (rewritten after every pair, so an interrupted
run keeps the pairs it finished) has the keys parent, command, machine, pairs,
bytecode (per side, whether it held .pyc files), claim, summary, runs and
trace. summary["W/S"] holds, per end-to-end metric, each side's median,
min, max, iqr (third minus first quartile) and n; the failed counts per
run; and "<metric>_pairs_won", the pairs in which the change read better
(ties count for neither side); and "<metric>_verdict" (see verdict). One
line per workload, seed and metric goes to stdout with the verdict, the
wins and both medians. Neither checkout is modified; BENCHMARK.json of the
change checkout is only read, for each metric's direction and bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

TRACE_SEED = 7
TRACE_SECONDS = 10


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
    """'gain', 'worse' or 'same' for one metric, from its values per pair (parent[i]
    and change[i] ran in pair i). gain: the change read better in at least 9 of
    every 10 pairs and its median is better than the parent's by more than the
    parent's IQR. worse: the change median is worse than the parent median by
    more than bound times the parent median. same: anything else."""
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and sign * (p_med - c_med) > spread(parent)["iqr"]:
        return "gain"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    return "same"


def summarize(runs, better, bounds):
    summary = {}
    for key in dict.fromkeys(f"{r['workload']}/{r['seed']}" for r in runs):
        mine = [r for r in runs if f"{r['workload']}/{r['seed']}" == key]
        side = {s: sorted((r for r in mine if r["side"] == s), key=lambda r: r["pair"])
                for s in ("parent", "change")}
        out = summary[key] = {}
        metrics = side["parent"][0]["result"]["metrics"]
        for name in metrics:
            vals = {s: [r["result"]["metrics"][name]["value"] for r in rs]
                    for s, rs in side.items()}
            out[name] = {s: spread(v) for s, v in vals.items()}
        out["failed"] = {s: [r["result"]["failed"] for r in rs] for s, rs in side.items()}
        for name in metrics:
            sign = 1 if better[name] == "lower" else -1
            pairs = list(zip(*([r["result"]["metrics"][name]["value"] for r in side[s]]
                               for s in ("parent", "change"))))
            wins = sum(sign * (p - c) > 0 for p, c in pairs)
            out[f"{name}_pairs_won"] = f"{wins}/{len(pairs)}"
            if name in bounds:
                out[f"{name}_verdict"] = verdict(*zip(*pairs), better[name], bounds[name])
    return summary


def has_bytecode(root):
    """Whether root's src/nilbloch/__pycache__ holds .pyc files."""
    cache = os.path.join(root, "src", "nilbloch", "__pycache__")
    return os.path.isdir(cache) and any(n.endswith(".pyc") for n in os.listdir(cache))


def commit_of(root):
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or os.path.basename(os.path.abspath(root))


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
    bytecode = {side: has_bytecode(root) for side, root in roots.items()}
    if bytecode["parent"] != bytecode["change"]:
        only = "parent" if bytecode["parent"] else "change"
        print(f"error: only the {only} checkout has .pyc files in src/nilbloch/__pycache__, "
              f"so its start-up would read faster for that alone; remove them, or "
              f"byte-compile both sides, and run again", file=sys.stderr)
        return 2
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
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
        report["summary"] = summarize(report["runs"], better, bounds)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")

    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
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
        for side in ("parent", "change"):
            result = run_bench(roots[side], workload, TRACE_SEED, TRACE_SECONDS, 1)
            report["trace"].append({"side": side, "workload": workload, "seed": TRACE_SEED,
                                    "trace": 1, "seconds": TRACE_SECONDS, "result": result})
    save()
    for key, out in report["summary"].items():
        for name in better:
            if name in out:
                print(f"{key} {name}: {out[name + '_verdict']}, change won "
                      f"{out[name + '_pairs_won']} pairs, median "
                      f"{out[name]['parent']['median']:.4g} -> {out[name]['change']['median']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
