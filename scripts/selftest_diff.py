"""Compare two `nilbloch selftest` JSON outputs, ignoring timing fields.

Usage:
    python3 scripts/selftest_diff.py A.json B.json

The top-level `timing_seconds` and every `criteria[].seconds` are
dropped before comparing. Exits 0 when the rest is identical; otherwise
prints the first differing path (in sorted-key order) with both values
and exits 1. Exits 2 when a file cannot be read or parsed.
"""

import json
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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 scripts/selftest_diff.py A.json B.json", file=sys.stderr)
        return 2
    try:
        reports = []
        for path in argv:
            with open(path) as fh:
                reports.append(strip_timing(json.load(fh)))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    found = first_difference(*reports)
    if found is None:
        print("identical apart from timing fields")
        return 0
    path, x, y = found
    print(f"differ at {path}: {_show(x)} != {_show(y)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
