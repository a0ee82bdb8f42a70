"""nilbloch benchmark: seeded query workloads against the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Each repetition runs the workload's whole query list in a fresh
interpreter (worker.py), so block caches start cold and peak RSS is per
workload. Repetitions continue until about T seconds have passed (at
least MIN_REPS). Latencies are scaled to a reference machine speed
(speed.py). With --trace 0 the end-to-end metrics of BENCHMARK.json are
reported, from each query's median latency across repetitions; with
--trace 1 untraced and traced repetitions alternate and the per-layer
metrics come from the traced ones. The last line of stdout is one JSON
object; earlier lines, starting with '#', describe the run. The exit code
is 0 only if every query was answered correctly. DESIGN.md has the
details.
"""

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cohom_ladder", "param_box", "bloch_queries", "oracle_gap")
MIN_REPS = 3
MIN_PAIRS = 1
REP_TIMEOUT_S = 120


def _metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _environment():
    env = {k: v for k, v in os.environ.items()
           if k not in ("NILBLOCH_WORKERS", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _provenance():
    """Python version, nproc, commit (if a git checkout) and a digest of src."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nilbloch")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _rep(args, env, spans=None):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    if spans:
        cmd += ["--spans", spans]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_first"] - t_spawn
    return out


def _repeat(seconds, step, min_reps):
    """Call step() until another call would pass `seconds`; at least min_reps times."""
    start = time.monotonic()
    results = []
    while True:
        results.append(step())
        elapsed = time.monotonic() - start
        if len(results) >= min_reps and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def _scaled(rep):
    """Latencies at reference speed: each divided by the kernel times around it.

    A kernel entry (i, seconds) ran just before query i. Each query uses the
    median of the two kernel runs before it and the two after it, which
    damps a kernel run that an interrupt slowed.
    """
    marks = [i for i, _ in rep["kernels"]]
    times = [t for _, t in rep["kernels"]]
    out = []
    for i, lat in enumerate(rep["latencies"]):
        j = bisect.bisect_right(marks, i)     # kernels[:j] ran before query i
        out.append(lat * speed.REFERENCE_S / statistics.median(times[max(0, j - 2):j + 2]))
    return out


def _per_query(reps):
    """Each query's median scaled latency across repetitions, in seconds."""
    return [statistics.median(lat) for lat in zip(*(_scaled(r) for r in reps))]


def _end_to_end(reps):
    per_query = _per_query(reps)
    lat_ms = sorted(x * 1e3 for x in per_query)
    setup = [r["setup_s"] * speed.REFERENCE_S / statistics.median(t for _, t in r["kernels"][:3])
             for r in reps]
    return {
        "wall_s": sum(per_query),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024,
    }


def _unscaled(reps):
    """The same wall and set-up figures in plain seconds, for the # lines."""
    return {"wall_s_unscaled": sum(statistics.median(lat) for lat in
                                   zip(*(r["latencies"] for r in reps))),
            "setup_s_unscaled": statistics.median(r["setup_s"] for r in reps)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "nilbloch", "__init__.py")):
        print("error: no nilbloch sources under src/; run from a repository checkout",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = _metric_units()
    env = _environment()

    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_spans")
        os.makedirs(out_dir, exist_ok=True)
        paths = []

        def pair():
            path = os.path.join(out_dir, f"spans-{os.getpid()}-{len(paths)}.bin")
            paths.append(path)
            return _rep(args, env), _rep(args, env, spans=path)
        try:
            pairs = _repeat(args.seconds, pair, MIN_PAIRS)
            layers = [tracing.layer_metrics(p) for p in paths]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        timed = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        values = {}
        for name in layer_units:
            if name.endswith(".self_s"):
                values[name] = statistics.median(
                    layer[name] * speed.REFERENCE_S
                    / statistics.median(t for _, t in rep["kernels"])
                    for layer, rep in zip(layers, traced))
            elif name != "trace.overhead_frac":
                values[name] = statistics.median(layer[name] for layer in layers)
        values["trace.overhead_frac"] = (sum(_per_query(traced)) / sum(_per_query(timed))
                                         - 1)
        reps = timed + traced
        units = layer_units
    else:
        reps = timed = _repeat(args.seconds, lambda: _rep(args, env), MIN_REPS)
        values = _end_to_end(reps)
        units = e2e_units

    attempted = sum(len(r["latencies"]) for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    info = dict(_provenance(), workload=args.workload, seed=args.seed,
                trace=args.trace, reps=len(reps), queries_per_rep=len(reps[0]["latencies"]),
                fail_frac=len(failures) / attempted, **_unscaled(timed))
    print("# " + json.dumps(info))
    for f in failures[:10]:
        print(f"# FAILED {f['kind']} query {f['index']}: {f['error']}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
