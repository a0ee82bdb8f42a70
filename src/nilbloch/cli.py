"""Command-line front end.

Every subcommand prints one JSON report to stdout (keys sorted, so two
runs of the same command differ at most in the timing field) and exits 0
when all verdicts in the report pass, 1 on a verification failure, 2 on
usage or input errors, and 3 on an internal error (any other exception),
with a JSON error object instead of the report. --summary adds short
human-readable lines on stderr. Each command runs in a fresh interpreter,
so acceptance (with sampling and random) is imported only by the
subcommands that run its scans, and traceback only on the exit-3 path.
"""

import argparse
import json
import sys
import time

from .algebra import Algebra
from . import parser as ps
from . import forms as fm
from . import derham as dr
from . import ksymbols as ks
from . import singularities as sg


def _parse_relative(text, algebra):
    if text is None or text == "full":
        return dr.FULL
    if text.startswith("power:"):
        k = text.split(":", 1)[1]
        try:
            k = int(k)
        except ValueError:
            raise ValueError(f"relative spec 'power:k' needs an integer k, not {k!r}") from None
        return dr.POWER(k)
    if text.startswith("explicit:"):
        srcs = [g for g in text.split(":", 1)[1].split(";") if g.strip()]
        if not srcs:
            raise ValueError("explicit relative spec needs generators")
        return dr.EXPLICIT([ps.polynomial_terms(g, algebra.m, algebra.N) for g in srcs])
    raise ValueError(f"unknown relative spec {text!r}")


def _load_algebra(args):
    data = {}
    if getattr(args, "algebra", None):
        with open(args.algebra) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("algebra spec must be a JSON object")
    if getattr(args, "N", None) is not None:
        data["bound"] = args.N
    if getattr(args, "m", None) is not None:
        data["nilpotents"] = args.m
    if getattr(args, "ideal", None):
        data["ideal"] = [g for g in args.ideal.split(";") if g.strip()]
    if "nilpotents" not in data or "bound" not in data:
        raise ValueError("algebra underspecified: give --algebra or both --N and --m")
    return ps.algebra_from_json(data)


def _algebra_flags(p):
    p.add_argument("--algebra", help="algebra spec JSON file")
    p.add_argument("--N", type=int, help="truncation bound (overrides file)")
    p.add_argument("--m", type=int, help="number of nilpotent variables (overrides file)")
    p.add_argument("--ideal", help="';'-separated ideal generators (overrides file)")


def _cmd_cohom(args):
    A = _load_algebra(args)
    if args.param_bound is not None and not A.n_params:
        raise ValueError("--param-bound needs an algebra with parameters")
    rel = _parse_relative(args.relative, A)
    rep = dr.cohomology(A, rel, param_bound=args.param_bound)
    out = rep.to_json()
    out["all_zero"] = rep.all_zero()
    lines = [f"H table for m={A.m}, N={A.N}, relative {rel.label()}"]
    for row in rep.rows:
        tag = f"pihat={tuple(row['pihat'])} " if "pihat" in row else ""
        lines.append(f"  n={row['degree']} {tag}dim={row['dim']} h={row['dim_h']}")
    lines.append("all H zero" if out["all_zero"] else "nonzero H present")
    return out, True, lines


def _cmd_bloch(args):
    A = _load_algebra(args)
    s = ps.parse_symbol_sum(args.symbol, A)
    cl = ks.bloch(s, slot=args.slot)
    rep = cl.rep
    if args.cutoff is not None:
        rep = dr.quotient_class(rep, dr.FULL, cutoff=args.cutoff)
    out = {"symbol": str(s), "slot": args.slot, "degree": cl.degree,
           "class": fm.form_str(rep), "zero": not rep.terms}
    if rep.terms:
        cert = dr.is_exact(rep, dr.FULL, cutoff=args.cutoff)
        out["witness"] = cert.to_json().get("witness")
    passed = (not args.assert_zero) or out["zero"]
    lines = [f"B({s}) = [{out['class']}] ({'zero' if out['zero'] else 'nonzero'})"]
    return out, passed, lines


def _cmd_verify_homotopy(args):
    if args.N < 2:      # Q[t]/t has no relative form: every row would check nothing
        raise ValueError("--N must be at least 2")
    from . import acceptance
    rows, ok = acceptance.homotopy_scan(args.N, args.max_degree, args.parametric)
    out = {"N": args.N, "rows": rows, "passed": ok}
    total = sum(r["checked"] for r in rows)
    lines = [f"(dh+hd) = i x id on {total} basis forms: {'ok' if ok else 'FAILED'}"]
    return out, ok, lines


def _cmd_verify_steinberg(args):
    from . import acceptance
    rows, ok = acceptance.steinberg_scan(args.seed, args.count)
    out = {"count": args.count, "seed": args.seed, "passed": ok,
           "instances": rows}
    lines = [f"bloch(zeta(a,x)) = 0 for {args.count} random instances: "
             f"{'ok' if ok else 'FAILED'}"]
    return out, ok, lines


def _cmd_verify_key_identity(args):
    rep = ks.verify_key_identity(args.i, args.j)
    out = rep.to_json()
    lines = [f"(i+j)*B = phi class for i={args.i}, j={args.j}: "
             f"{'ok' if rep.passed else 'FAILED'}"]
    if rep.certificate and rep.certificate.exact and rep.certificate.primitive is not None:
        lines.append(f"  primitive: {fm.form_str(rep.certificate.primitive)}")
    return out, rep.passed, lines


def _cmd_verify_filtration(args):
    from . import acceptance
    if (args.i is None) != (args.j is None):
        raise ValueError("give both --i and --j, or neither")
    pairs = None if args.i is None else [(args.i, args.j)]
    rows, strict, ok = acceptance.filtration_scan(args.p, pairs)
    out = {"p": args.p, "window": rows, "passed": ok}
    if strict is not None:
        out["strictness"] = strict
    lines = [f"V_p window at p={args.p}: {'ok' if ok else 'FAILED'}"]
    return out, ok, lines


def _cmd_verify_sigma(args):
    rep = dr.sigma_report(args.N)
    out = rep.to_json()
    lines = [f"sigma: R_2 forms -> t^{args.N - 1}-relative forms of R_{args.N}: "
             f"{'bijective' if rep.passed else 'FAILED'}"]
    return out, rep.passed, lines


def _cmd_verify_sequence(args):
    if args.jacobian_of:
        if args.bound is None:
            raise ValueError("--jacobian-of needs --bound")
        m = ps.nilpotent_count(args.jacobian_of)
        A = Algebra(m, args.bound)
        # a term of degree > bound has partials in (t)^bound, which A kills
        terms = ps.polynomial_terms(args.jacobian_of, m, args.bound + 1)
        inner = dr.EXPLICIT(sg.jacobian(terms))
        degrees = [args.degree if args.degree is not None else m - 1]
    else:
        if args.N is None:
            raise ValueError("give --N for the power case or --jacobian-of")
        if args.N < 2:      # the inner ideal is (t^(N-1))
            raise ValueError("--N must be at least 2")
        A = Algebra(1, args.N)
        inner = dr.POWER(args.N - 1)
        degrees = ([args.degree] if args.degree is not None
                   else list(range(0, 3)))
    reports = [dr.verify_forms_sequence(A, inner, dr.FULL, degree=n)
               for n in degrees]
    ok = all(r.passed for r in reports)
    out = {"degrees": degrees, "reports": [r.to_json() for r in reports],
           "passed": ok}
    lines = []
    for r in reports:
        lines.append(
            f"degree {r.degree}: A={r.dim_inner_classes} B={r.dim_outer_classes} "
            f"C={r.dim_quotient_classes} correction={r.correction_dim} "
            f"{'ok' if r.passed else 'FAILED'}")
    return out, ok, lines


def _cmd_singular(args):
    deg = ps.degree_bound(args.poly)   # the search starts at N = degree + 2
    if deg > args.N_max - 2:
        raise ValueError(f"--poly may reach degree {deg}; raise --N-max to at least {deg + 2}")
    rep = sg.singularity_report(ps.polynomial_terms(args.poly), args.N_max)
    passed = rep.h_dim == rep.mu - rep.tau     # the de Rham cross-check
    lines = [f"f = {rep.f}: mu={rep.mu} tau={rep.tau} "
             f"dim H^{rep.m - 1} = {rep.h_dim} ({'=' if passed else '!='} mu - tau)"]
    return rep.to_json(), passed, lines


def _cmd_selftest(args):
    from . import acceptance
    results = acceptance.run_all()
    ok = all(r.passed for r in results)
    out = {"criteria": [r.to_json() for r in results], "passed": ok}
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}" for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return out, ok, lines


_NONNEGATIVE = ("cutoff", "param_bound", "count", "max_degree", "N_max", "p", "degree")
_TEXT_FLAGS = ("--ideal", "--relative", "--symbol", "--poly", "--jacobian-of")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="nilbloch",
        description="Exact de Rham and Milnor K-symbol calculators for "
                    "truncated nilpotent algebras over Q.")
    ap.add_argument("--summary", action="store_true",
                    help="print human-readable lines on stderr")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("cohom", help="relative de Rham cohomology table")
    _algebra_flags(p)
    p.add_argument("--relative", default="full",
                   help="full | power:K | explicit:g1;g2")
    p.add_argument("--param-bound", type=int, default=None,
                   help="parameter multidegree box bound (parametric mode)")
    p.set_defaults(func=_cmd_cohom)

    p = sub.add_parser("bloch", help="Bloch class of a symbol sum")
    _algebra_flags(p)
    p.add_argument("--symbol", required=True, help='e.g. "{1+a*t, b}"')
    p.add_argument("--slot", choices=["first", "last"], default="first")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--assert-zero", action="store_true",
                   help="exit 1 when the class is nonzero")
    p.set_defaults(func=_cmd_bloch)

    p = sub.add_parser("verify-homotopy", help="(dh+hd) = internal degree")
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--parametric", action="store_true",
                   help="also run a parametric instance")
    p.set_defaults(func=_cmd_verify_homotopy)

    p = sub.add_parser("verify-steinberg", help="bloch(zeta(a,x)) = 0 randomized")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_steinberg)

    p = sub.add_parser("verify-key-identity",
                       help="(i+j) B{1+a t^i, 1+b t^j} as a form class")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=_cmd_verify_key_identity)

    p = sub.add_parser("verify-filtration", help="V_p vanishing window")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.set_defaults(func=_cmd_verify_filtration)

    p = sub.add_parser("verify-sigma", help="t -> t^(N-1) form isomorphism")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_verify_sigma)

    p = sub.add_parser("verify-sequence", help="six-term class sequence")
    p.add_argument("--N", type=int, default=None,
                   help="power case (t^(N-1)) in (t) inside Q[t]/t^N")
    p.add_argument("--jacobian-of", default=None,
                   help="polynomial whose Jacobian ideal is the inner ideal")
    p.add_argument("--bound", type=int, default=None,
                   help="truncation bound for --jacobian-of")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=_cmd_verify_sequence)

    p = sub.add_parser("singular", help="Milnor/Tyurina report")
    p.add_argument("--poly", required=True)
    p.add_argument("--N-max", type=int, default=24)
    p.set_defaults(func=_cmd_singular)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(func=_cmd_selftest)

    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):   # "--ideal -t" as "--ideal=-t", so -t is no option
        if argv[i - 1] in _TEXT_FLAGS and not argv[i].startswith("--"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    try:
        for name in _NONNEGATIVE:
            if (getattr(args, name, None) or 0) < 0:
                raise ValueError(f"--{name.replace('_', '-')} must not be negative")
        out, passed, lines = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback
        traceback.print_exc()
        error = {"type": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"command": args.cmd, "error": error}, indent=2, sort_keys=True))
        return 3
    out["command"] = args.cmd
    out["timing_seconds"] = round(time.perf_counter() - t0, 6)
    print(json.dumps(out, indent=2, sort_keys=True, default=str))
    if args.summary:
        for line in lines:
            print(line, file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
