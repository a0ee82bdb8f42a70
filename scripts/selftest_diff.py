"""Compare `nilbloch` JSON reports of two checkouts, ignoring timing fields.

Usage:
    python3 scripts/selftest_diff.py A.json B.json
    python3 scripts/selftest_diff.py DIR_A DIR_B

The top-level `timing_seconds` and every `criteria[].seconds` are
dropped before comparing. Two files (say, two `nilbloch selftest`
outputs) compare as one pair. Two directories (say, two
`scripts/cli_examples.py` OUTDIRs) compare every `*.json` file of
either, by name; a file found on one side only is named as missing.
Exits 0 when the rest is identical; otherwise prints, per differing
pair, the first differing path (in sorted-key order) with both values
and exits 1. Exits 2 when a file cannot be read or parsed.
"""

import json
import os
import sys


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


def compare(path_a, path_b):
    """'differ at PATH: X != Y' for two report files, or None when they agree."""
    reports = []
    for path in (path_a, path_b):
        with open(path) as fh:
            reports.append(strip_timing(json.load(fh)))
    found = first_difference(*reports)
    if found is None:
        return None
    path, x, y = found
    return f"differ at {path}: {_show(x)} != {_show(y)}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 scripts/selftest_diff.py A.json B.json | DIR_A DIR_B",
              file=sys.stderr)
        return 2
    dirs = all(map(os.path.isdir, argv))
    if dirs:
        names = [{n for n in os.listdir(d) if n.endswith(".json")} for d in argv]
        problems = [f"{n}: missing in {argv[1 - side]}"
                    for side in (0, 1) for n in sorted(names[side] - names[1 - side])]
        pairs = [(n, *(os.path.join(d, n) for d in argv)) for n in sorted(names[0] & names[1])]
    else:
        problems, pairs = [], [(None, *argv)]
    try:
        for name, a, b in pairs:
            found = compare(a, b)
            if found:
                problems.append(found if name is None else f"{name}: {found}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not problems:
        print(f"{len(pairs)} files identical apart from timing fields" if dirs
              else "identical apart from timing fields")
        return 0
    print("\n".join(problems))
    return 1


if __name__ == "__main__":
    sys.exit(main())
