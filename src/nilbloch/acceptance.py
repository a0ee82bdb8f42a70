"""The twelve go/no-go checks for this package, runnable as a batch.

Each check is a top-level function returning a CriterionResult; run_all
runs them one after another in the order of the CRITERIA list. The scans
behind the identities with a CLI verifier (homotopy_scan, steinberg_scan,
filtration_scan) live here once, and both the checks and the verify-*
subcommands format their rows. Expected dimensions that cannot be
asserted from first principles are regression anchors: they were computed
by the independent dense solver (dense.py) before the blocked engine
existed and are frozen here as constants.
"""

import random
import time
from fractions import Fraction

from .algebra import Algebra, Record
from . import forms as fm
from . import derham as dr
from . import ksymbols as ks
from . import singularities as sg
from . import sampling as sp
from . import parser as ps
from .dense import DenseModel

# regression anchors from the dense oracle
CURVE_POLY = {(4, 0): 1, (2, 3): 1, (0, 5): 1}
CURVE_MU = 12
CURVE_TAU = 11
CURVE_N_USED = 7
CURVE_NESTED = {"A": 11, "B": 15, "C": 5, "correction": 1}
SPAN_DIMS = {(3, 1): {0: 2, 1: 0}, (3, 2): {0: 5, 1: 3}, (4, 1): {0: 3, 1: 0}}

# the most blocks a homotopy scan may visit, counted before it builds one as
# (max_degree + 1) (N + m) times the multidegrees of each algebra: a bound on its rows too
MAX_HOMOTOPY_BLOCKS = 10_000
# the most instances a Steinberg scan checks, at about 0.4 ms each
MAX_STEINBERG_COUNT = 2_000


class CriterionResult(Record):
    _fields = ("name", "passed", "details", "seconds")

    def __init__(self, name, passed, details=None, seconds=0.0):
        self.name = name
        self.passed = passed
        self.details = {} if details is None else details
        self.seconds = seconds

    def to_json(self):
        return {"name": self.name, "passed": self.passed,
                "details": self.details, "seconds": round(self.seconds, 3)}


def vanishing_full_truncations():
    """H^n(R_{N,m}, I_{N,m}) = 0 for N in 2..5, m in 1..3, all degrees."""
    rows = []
    ok = True
    for N in range(2, 6):
        for m in range(1, 4):
            rep = dr.cohomology(Algebra(m, N), dr.FULL)
            zero = rep.all_zero()
            dims = [r["dim"] for r in rep.rows]
            rows.append({"N": N, "m": m, "zero": zero, "dims": dims})
            ok = ok and zero and any(dims)
    return CriterionResult("vanishing_full_truncations", ok, {"cases": rows})


def homotopy_scan(N, max_degree, parametric=False):
    """(dh+hd) = i on every FULL-relative basis form of Q[t]/t^N up to max_degree."""
    rows = []
    ok = True
    algebras = [Algebra(1, N)]
    if parametric:
        algebras.append(Algebra(1, min(N, 4), params=[("a", False)]))
    blocks = sum((max_degree + 1) * (A.N + A.m) * len(dr._pihat_box(A, 2)) for A in algebras)
    if blocks > MAX_HOMOTOPY_BLOCKS:
        raise ValueError(f"the scan has up to {blocks} blocks, above the limit "
                         f"{MAX_HOMOTOPY_BLOCKS}")
    for A in algebras:
        pres = dr.relative(A, dr.FULL)
        for n in range(0, max_degree + 1):
            checked = 0
            good = True
            for key in pres.block_keys(n, dr._pihat_box(A, 2)):
                blk = fm.form_block(A, n, key)
                for coord in blk.basis:
                    w = fm.Form(A, n, {coord: 1})
                    i = key[0]
                    lhs = fm.d(fm.euler_homotopy(w)) + fm.euler_homotopy(fm.d(w))
                    if lhs != i * w:
                        good = False
                    checked += 1
            rows.append({"params": A.n_params, "degree": n,
                         "checked": checked, "ok": good})
            ok = ok and good
    return rows, ok


def homotopy_identity_scan():
    """(dh+hd) = i on every basis form, m=1, N <= 6, n <= 2, one parametric run."""
    ok = True
    total = 0
    for N in range(2, 7):
        rows, good = homotopy_scan(N, 2, parametric=(N == 4))
        ok = ok and good
        total += sum(r["checked"] for r in rows)
    return CriterionResult("homotopy_identity_scan", ok, {"basis_forms": total})


def dual_numbers_value():
    """bloch{1+ab eps, b} equals the class of eps*a db over Q[a, b inv]."""
    A = Algebra(1, 2, params=[("a", False), ("b", True)])
    eps, a, b = A.nil(0), A.var("a"), A.var("b")
    got = ks.bloch(ks.symbol(A.one() + a * b * eps, b)).rep
    want = dr.quotient_class(
        fm.Form(A, 1, {(((1, 0), (1,)), (2,)): Fraction(1)}), dr.FULL)
    ok = got == want
    return CriterionResult("dual_numbers_value", ok,
                           {"got": fm.form_str(got), "want": fm.form_str(want)})


def key_identity_range():
    """(i+j) B{1+a t^i, 1+b t^j} = [t^{i+j}(ia db - jb da)] for i+j <= 6."""
    ok = True
    cases = []
    primitive = None
    for j in range(1, 6):
        for i in range(1, j + 1):
            if i + j > 6:
                continue
            rep = ks.verify_key_identity(i, j)
            cases.append({"i": i, "j": j, "passed": rep.passed})
            ok = ok and rep.passed
            if (i, j) == (1, 1):
                cert = rep.certificate
                ok = ok and cert.exact and cert.primitive is not None
                primitive = fm.form_str(cert.primitive)
    return CriterionResult("key_identity_range", ok,
                           {"cases": cases, "primitive_1_1": primitive})


def filtration_scan(p, pairs=None):
    """V_p vanishing rows over pairs (default: i <= j, p <= i+j < p+3).

    For the default window at p >= 3 it also reports the strictness
    witness, a pair i+j = p-1 with a nonzero class; the witness counts as
    found only when its certificate checks out on the class parsed back
    from its printed form. Returns (rows, strictness or None, ok).
    """
    window = pairs is None
    if window:
        pairs = [(i, s - i) for s in range(p, p + 3) for i in range(1, s) if i <= s - i]
    rows = [ks.verify_filtration_vanishing(p, i, j).to_json() for i, j in pairs]
    ok = all(r["vanishes"] for r in rows)
    if not window or p < 3:
        return rows, None, ok
    wit = ks.filtration_strictness_witness(p)
    if wit is None:
        return rows, {"found": False}, False
    cert = wit["certificate"]
    found = not cert.exact and dr.check_certificate(
        cert, ps.parse_form(wit["rep"], wit["algebra"]), dr.FULL)
    strict = {"found": found, "i": wit["i"], "j": wit["j"],
              "symbol": wit["symbol"], "class": wit["rep"]}
    return rows, strict, ok and found


def filtration_window():
    """Classes of {1+a t^i, 1+b t^j} vanish for i+j >= p and not at i+j = p-1."""
    ok = True
    checked = 0
    strict = []
    for p in range(1, 7):
        rows, wit, good = filtration_scan(p)
        ok = ok and good
        checked += len(rows)
        if wit is not None:
            strict.append({"p": p, "certified": wit["found"], "witness":
                           {"i": wit["i"], "j": wit["j"]} if "i" in wit else None})
    return CriterionResult("filtration_window", ok,
                           {"window_checked": checked, "strictness": strict})


def steinberg_scan(seed, count):
    """bloch(zeta(a,x)) = 0 on count seeded instances, N <= 5, m <= 2."""
    if count > MAX_STEINBERG_COUNT:
        raise ValueError(f"the scan has {count} instances, above the limit "
                         f"{MAX_STEINBERG_COUNT}")
    rng = random.Random(seed)
    algebras = sp.small_algebras()
    rows = []
    for _ in range(count):
        A = rng.choice(algebras)
        a, x = sp.steinberg_instance(rng, A)
        zero = ks.bloch(ks.steinberg_element(a, x)).is_zero()
        rows.append({"m": A.m, "N": A.N, "a": str(a.constant()), "x": str(x), "zero": zero})
    return rows, all(r["zero"] for r in rows)


def steinberg_random():
    """bloch(zeta(a,x)) = 0 on 50 seeded instances."""
    rows, ok = steinberg_scan(20260826, 50)
    return CriterionResult("steinberg_random", ok, {"instances": len(rows)})


def slot_independence():
    """First-slot and last-slot evaluation agree on 100 seeded tensors."""
    rng = random.Random(1729)
    algebras = [Algebra(2, 3), Algebra(2, 4), Algebra(3, 3)]
    ok = True
    for _ in range(100):
        A = rng.choice(algebras)
        arity = rng.choice([2, 3])
        s = sp.random_symbol(rng, A, arity, nil_slots=2)
        first = ks.bloch(s, slot="first")
        last = ks.bloch(s, slot="last")
        ok = ok and first.rep == last.rep
    return CriterionResult("slot_independence", ok, {"instances": 100})


def bloch_span():
    """Generator symbols span the class space for small truncations."""
    ok = True
    cases = []
    for (N, m), by_n in sorted(SPAN_DIMS.items()):
        A = Algebra(m, N)
        for n, want_dim in sorted(by_n.items()):
            rep = ks.surjectivity_witnesses(A, dr.FULL, n)
            cases.append({"N": N, "m": m, "n": n, "dim": rep.dim_target,
                          "rank": rep.rank, "full": rep.full})
            ok = ok and rep.full and rep.dim_target == want_dim
    return CriterionResult("bloch_span", ok, {"cases": cases})


def gap_example():
    """mu=12 > tau=11 with dim H^1 = 1 for t1^4 + t1^2 t2^3 + t2^5."""
    rep = sg.singularity_report(CURVE_POLY)
    ok = (rep.mu == CURVE_MU and rep.tau == CURVE_TAU and rep.mu > rep.tau
          and rep.h_dim == rep.mu - rep.tau and rep.h_dim >= 1
          and rep.N_used == CURVE_N_USED)
    return CriterionResult("gap_example", ok, {"report": rep.to_json()})


def substitution_isomorphism():
    """t -> t^{N-1} gives form-space bijections for N in 3..5, n in 0..2."""
    ok = True
    cases = []
    for N in (3, 4, 5):
        rep = dr.sigma_report(N)
        cases.append({"N": N, "passed": rep.passed})
        ok = ok and rep.passed
    return CriterionResult("substitution_isomorphism", ok, {"cases": cases})


def sequence_additivity():
    """Class-space dimension bookkeeping for nested ideals."""
    ok = True
    cases = []
    for N in (3, 4, 5):
        A = Algebra(1, N)
        for n in range(0, 3):
            rep = dr.verify_forms_sequence(A, dr.POWER(N - 1), dr.FULL, degree=n)
            cases.append({"kind": "power", "N": N, "degree": n,
                          "passed": rep.passed})
            ok = ok and rep.passed
    A = Algebra(2, 6)
    rep = dr.verify_forms_sequence(A, dr.EXPLICIT(sg.jacobian(CURVE_POLY)), dr.FULL, degree=1)
    nested_ok = (rep.passed and rep.alpha_injective
                 and rep.dim_inner_classes == CURVE_NESTED["A"]
                 and rep.dim_outer_classes == CURVE_NESTED["B"]
                 and rep.dim_quotient_classes == CURVE_NESTED["C"]
                 and rep.correction_dim == CURVE_NESTED["correction"]
                 and rep.correction_dim > 0)
    cases.append({"kind": "jacobian", "degree": 1, "passed": nested_ok,
                  "dims": [rep.dim_inner_classes, rep.dim_outer_classes,
                           rep.dim_quotient_classes],
                  "correction": rep.correction_dim})
    ok = ok and nested_ok
    return CriterionResult("sequence_additivity", ok, {"cases": cases})


def _dense_terms(form):
    out = {}
    for ((pexp, texp), word), c in form.terms.items():
        out[(texp, word)] = out.get((texp, word), 0) + c
    return out


def _sparse_rel(m, N, ideal, rel_gens):
    if rel_gens is None:
        return dr.FULL
    if (m == 1 and not ideal and len(rel_gens) == 1
            and len(rel_gens[0]) == 1):
        (texp, c), = rel_gens[0].items()
        if c == 1:
            return dr.POWER(texp[0])
    return dr.EXPLICIT(rel_gens)


def engine_agreement():
    """Blocked engine and dense solver agree on dims and exactness."""
    rng = random.Random(60)
    ok = True
    cases = []
    for label, m, N, ideal, rel_gens in sp.engine_corpus():
        A = Algebra(m, N, ideal=ideal)
        rel = _sparse_rel(m, N, ideal, rel_gens)
        pres = dr.relative(A, rel)
        model = DenseModel(m, N, ideal)
        sparse_rows = [(r["degree"], r["dim"], r["dim_ker"], r["dim_im"],
                        r["dim_h"]) for r in dr.cohomology(A, rel).rows]
        dense_rows = model.cohomology(rel_gens)
        dims_ok = sparse_rows == dense_rows
        verdicts_ok = True
        checked = 0
        for n in range(1, m + 1):
            for _ in range(3):
                w = fm.d(sp.random_form(rng, A, pres, n - 1))
                probes = [w, sp.random_form(rng, A, pres, n)]
                for probe in probes:
                    cert = dr.is_exact(probe, rel)
                    dense_verdict = model.is_exact(n, _dense_terms(probe),
                                                   rel_gens)
                    verdicts_ok = verdicts_ok and (cert.exact == dense_verdict)
                    checked += 1
        cases.append({"label": label, "dims_agree": dims_ok,
                      "verdicts_checked": checked,
                      "verdicts_agree": verdicts_ok})
        ok = ok and dims_ok and verdicts_ok
    return CriterionResult("engine_agreement", ok, {"cases": cases})


CRITERIA = [
    vanishing_full_truncations,
    homotopy_identity_scan,
    dual_numbers_value,
    key_identity_range,
    filtration_window,
    steinberg_random,
    slot_independence,
    bloch_span,
    gap_example,
    substitution_isomorphism,
    sequence_additivity,
    engine_agreement,
]


def _run_one(func):
    t0 = time.perf_counter()
    try:
        result = func()
    except Exception as exc:   # a crash is a failure, not a suite abort
        result = CriterionResult(func.__name__, False, {"error": repr(exc)})
    result.seconds = time.perf_counter() - t0
    return result


def run_all():
    """All criteria, in the fixed order."""
    return [_run_one(func) for func in CRITERIA]
