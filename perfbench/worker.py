"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--spans PATH]

Builds the workload's queries from the seed, times each query and, between
queries, the calibration kernel of speed.py, and prints one JSON line: the
monotonic time of the first query (the parent turns it into set-up time),
per-query latencies, kernel times, failures and peak RSS. With --spans the
package is traced and the spans are written to PATH at exit.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import workloads  # noqa: E402  (needs the package path above)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    queries = workloads.build(args.workload, args.seed)

    t_first = time.monotonic()
    latencies = []
    kernels = [(0, speed.kernel_seconds())]    # (index of the next query, seconds)
    last_kernel = time.perf_counter()
    failures = []
    for index, (kind, run) in enumerate(queries):
        gc.collect()   # garbage of the previous query is not this query's cost
        t0 = time.perf_counter()
        try:
            error = run()
        except Exception as exc:   # a crash is a wrong answer, not a benchmark abort
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if t1 - last_kernel >= speed.EVERY_S or index == len(queries) - 1:
            kernels.append((index + 1, speed.kernel_seconds()))
            last_kernel = time.perf_counter()
        if error:
            failures.append({"index": index, "kind": kind, "error": error[:500]})
        if tracer:
            tracer.query_end()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.dump(args.spans)
    print(json.dumps({"t_first": t_first, "latencies": latencies, "kernels": kernels,
                      "failures": failures, "peak_rss_kb": peak_kb}))


if __name__ == "__main__":
    main()
