"""Seeded query workloads for the nilbloch benchmark.

Every input is generated here from the seed, as algebra JSON specs and
expression strings, and reaches the package through its parser, the way
the CLI feeds it. Every expected answer comes from a theorem, a textbook
constant or the dense oracle (``nilbloch.dense``), never from the blocked
engine's own output:

* graded FULL / POWER(k) relative complexes are acyclic (Euler homotopy),
  so every H^n vanishes and a relative form is exact iff it is closed;
* Steinberg elements and s + swap(s) map to zero, first-slot and last-slot
  evaluation agree, (i+j) B{1+a t^i, 1+b t^j} is the class of
  t^(i+j) (i a db - j b da), and that class vanishes once i+j >= p;
* ADE normal forms have the textbook Milnor number with tau = mu, and the
  gap curve t1^4 + t1^2 t2^3 + t2^5 has mu = 12, tau = 11.

A workload is a list of queries. ``build(name, seed)`` does the set-up
(generation, and parsing of the algebras a query reuses); each query is a
callable that runs one parse -> compute -> verdict round trip and returns
None when the answer is right, or a string saying what was wrong.
"""

import random
from fractions import Fraction
from itertools import combinations

from nilbloch import dense as dn
from nilbloch import derham as dr
from nilbloch import ksymbols as ks
from nilbloch import parser as ps
from nilbloch import singularities as sg

COEFFS = [Fraction(c) for c in (1, -1, 2, -2, 3, -3)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3)]


# -- polynomials as {exponent tuple: Fraction}, rendered for the parser --------


def _q(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def nil_names(m):
    return ["t"] if m == 1 else [f"t{i + 1}" for i in range(m)]


def mono_str(exps, names):
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def poly_str(poly, names):
    out = ""
    for exps, c in sorted(poly.items(), reverse=True):
        mono = mono_str(exps, names)
        mag = abs(c)
        body = mono if mag == 1 and mono else f"{_q(mag)}*{mono}" if mono else _q(mag)
        out += ("-" if c < 0 else "") + body if not out else (" - " if c < 0 else " + ") + body
    return out or "0"


def form_str(terms, names, dnames=None):
    """{(exps, word): c} as 'c*mono*dx∧dy' terms.

    Words are sorted index tuples into dnames (default: names).
    """
    dnames = dnames or names
    out = ""
    for (exps, word), c in sorted(terms.items(), reverse=True):
        factors = [_q(abs(c))] + ([mono_str(exps, names)] if any(exps) else [])
        body = "*".join(factors)
        if word:
            body += "*" + "∧".join("d" + dnames[w] for w in word)
        out += ("-" if c < 0 else "") + body if not out else (" - " if c < 0 else " + ") + body
    return out


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def partial(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            f = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[f] = out.get(f, 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def _add_term(terms, key, c):
    v = terms.get(key, 0) + c
    if v:
        terms[key] = v
    else:
        terms.pop(key, None)


def wedge_in(v, word):
    """Sign and sorted word of dt_v ∧ dt_word; (0, None) if v repeats."""
    if v in word:
        return 0, None
    return (-1) ** sum(1 for w in word if w < v), tuple(sorted(word + (v,)))


def form_d(terms, m):
    """Exterior derivative of raw polynomial forms, no truncation."""
    out = {}
    for (exps, word), c in terms.items():
        for v in range(m):
            sign, new = wedge_in(v, word)
            if exps[v] and sign:
                e = exps[:v] + (exps[v] - 1,) + exps[v + 1:]
                _add_term(out, (e, new), c * exps[v] * sign)
    return out


def truncate(terms, N):
    return {k: c for k, c in terms.items() if sum(k[0]) < N}


def monomials(m, lo, hi):
    """Exponent tuples of total degree lo..hi-1."""
    out = []
    for deg in range(lo, hi):
        for combo in combinations(range(deg + m - 1), m - 1):
            bounds = (-1,) + combo + (deg + m - 1,)
            out.append(tuple(bounds[i + 1] - bounds[i] - 1 for i in range(m)))
    return out


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def nil_str(rng, monos, names, terms=(1, 3)):
    """A random nonzero nilpotent over the given monomials, parenthesized."""
    picks = rng.sample(monos, min(len(monos), rng.randint(*terms)))
    return "(" + poly_str({e: rng.choice(COEFFS) for e in picks}, names) + ")"


def unit_str(rng, monos, names, const=True):
    """'c*(1 + x)', or '1 + x' when const is False."""
    x = nil_str(rng, monos, names)
    c = rng.choice(COEFFS[1:]) if const else 1
    return f"1 + {x}" if c == 1 else f"{_q(c)}*(1 + {x})"


def ab_symbol(c1, i, c2, j):
    """'{1 + c1*a*t^i, 1 + c2*b*t^j}' over Q[a,b][t]/t^p."""
    names = ["a", "b", "t"]
    x = poly_str({(1, 0, i): c1}, names)
    y = poly_str({(0, 1, j): c2}, names)
    return f"{{1 + ({x}), 1 + ({y})}}"


def _spec(m, N, ideal=(), params=()):
    return {"nilpotents": m, "bound": N, "ideal": list(ideal),
            "params": [{"name": n, "invertible": inv} for n, inv in params]}


def _all_zero(report):
    if not report.rows or not any(r["dim"] for r in report.rows):
        return "empty cohomology table"
    bad = [r for r in report.rows if r["dim_h"]]
    return f"nonzero H rows {bad[:2]}" if bad else None


# -- cohom_ladder ----------------------------------------------------------------

LADDER = {1: 14, 2: 10, 3: 12, 4: 8, 5: 6}
SEEDED_IDEALS = {2: 9, 3: 7, 4: 6}     # m -> N of the seeded monomial ideals


def _cohom_query(spec, k, rel0_dim):
    """FULL cohomology, or POWER(k) when k is given."""
    def run():
        A = ps.algebra_from_json(spec)
        rep = dr.cohomology(A, dr.FULL if k is None else dr.POWER(k))
        if rep.rows[0]["dim"] != rel0_dim:
            return f"relative degree-0 dim {rep.rows[0]['dim']} != {rel0_dim}"
        return _all_zero(rep)
    return run


def cohom_ladder(rng):
    """Cold FULL/POWER cohomology tables; every H^n vanishes.

    The degree-0 relative dimension is checked against a count of the
    surviving nilpotent monomials made here.
    """
    queries = []
    for m, top in LADDER.items():
        for N in range(2, top + 1):
            count = len(monomials(m, 1, N))
            queries.append(("full", _cohom_query(_spec(m, N), None, count)))
    for N in range(2, LADDER[1] + 1):
        for k in range(1, N):
            queries.append(("power", _cohom_query(_spec(1, N), k, N - k)))
    for q in range(24):
        m = 2 + q % 3
        N = SEEDED_IDEALS[m]
        names = nil_names(m)
        # every monomial of one degree has the same number of multiples, so
        # the seed changes the ideal's shape but hardly its size or cost
        gens = [rng.choice(monomials(m, d, d + 1)) for d in (N - 3, N - 2)]
        count = sum(1 for e in monomials(m, 1, N) if not any(divides(g, e) for g in gens))
        spec = _spec(m, N, [mono_str(g, names) for g in gens])
        queries.append(("ideal", _cohom_query(spec, None, count)))
    rng.shuffle(queries)
    return queries


# -- param_box -------------------------------------------------------------------

PARAM_NAMES = ["a", "b", "c"]


def _param_query(spec, bound, n_rows):
    def run():
        A = ps.algebra_from_json(spec)
        rep = dr.cohomology(A, dr.FULL, param_bound=bound)
        if len(rep.rows) != n_rows:
            return f"{len(rep.rows)} rows, expected {n_rows}"
        return _all_zero(rep)
    return run


def param_box(rng):
    """Cold FULL cohomology of S[t]/t^N and S[t1,t2]/m^N, S = Q[a, b^±1, ...].

    Each shape gets every (parameter count, invertible count, box bound)
    class twice; the seed picks which parameters are invertible and the
    order. Permuting parameters does not change the work, so the seed moves
    the inputs but not the cost. The row count (degrees times box points)
    is checked alongside H = 0.
    """
    shapes = [(1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4)]
    queries = []
    for m, N in shapes:
        top = 3 if m == 1 and N <= 4 else 2
        for n_params in range(1, top + 1):
            for n_inv in range(n_params + 1):
                for bound in ([1, 2] if n_params < 3 else [1]):
                    for _ in range(2):
                        inv = set(rng.sample(range(n_params), n_inv))
                        params = [(PARAM_NAMES[i], i in inv) for i in range(n_params)]
                        box = (2 * bound + 1) ** n_inv * (bound + 1) ** (n_params - n_inv)
                        n_rows = (m + n_params + 1) * box
                        spec = _spec(m, N, params=params)
                        queries.append(("box", _param_query(spec, bound, n_rows)))
    rng.shuffle(queries)
    return queries


# -- bloch_queries ---------------------------------------------------------------


def _bloch_algebras():
    plain = {(m, N): _spec(m, N) for m, N in [(1, 4), (1, 6), (2, 3), (2, 4), (3, 3)]}
    ab = {p: _spec(1, p, params=[("a", False), ("b", False)]) for p in range(3, 8)}
    return ({k: ps.algebra_from_json(v) for k, v in plain.items()},
            {k: ps.algebra_from_json(v) for k, v in ab.items()})


def _zero_query(A, text):
    def run():
        cls = ks.bloch(ps.parse_symbol_sum(text, A))
        return None if cls.is_zero() else f"nonzero class for {text}"
    return run


def _skew_query(A, text):
    def run():
        rep = ks.verify_skew(ps.parse_symbol_sum(text, A))
        return None if rep.passed else f"s + swap(s) nonzero for {text}"
    return run


def _slot_query(A, text):
    def run():
        sym = ps.parse_symbol_sum(text, A)
        same = ks.bloch(sym, slot="first").rep == ks.bloch(sym, slot="last").rep
        return None if same else f"slot dependence for {text}"
    return run


def _key_query(A, text, target, cut):
    def run():
        cls = ks.bloch(ps.parse_symbol_sum(text, A))
        diff = cut * cls.rep - ps.parse_form(target, A)
        cert = dr.is_exact(diff, dr.FULL, cutoff=cut)
        if not cert.exact:
            return f"key identity not exact for {text}"
        return None if dr.check_certificate(cert, diff, dr.FULL) else "bad primitive"
    return run


def _nonzero_query(A, text):
    def run():
        cls = ks.bloch(ps.parse_symbol_sum(text, A))
        cert = dr.is_exact(cls.rep, dr.FULL)
        if cert.exact:
            return f"class of {text} certified exact"
        return None if dr.check_certificate(cert, cls.rep, dr.FULL) else "bad witness"
    return run


def bloch_queries(rng):
    """Symbol-sum strings over a fixed set of algebras built during set-up."""
    plain, ab = _bloch_algebras()
    queries = []

    def nil_monos(A):
        return monomials(A.m, 1, A.N)

    for _ in range(120):           # Steinberg elements {a+x, 1-a-x} - {a, 1-a}
        A = plain[rng.choice(sorted(plain))]
        a = _q(rng.choice(COEFFS[1:]))
        x = nil_str(rng, nil_monos(A), A.nil_names)
        text = f"{{({a}) + {x}, 1 - ({a}) - {x}}} - {{{a}, 1 - ({a})}}"
        queries.append(("steinberg", _zero_query(A, text)))
    for _ in range(100):           # s + swap(s)
        A = plain[rng.choice(sorted(plain))]
        u = unit_str(rng, nil_monos(A), A.nil_names)
        v = unit_str(rng, nil_monos(A), A.nil_names)
        queries.append(("skew", _skew_query(A, f"{{{u}, {v}}}")))
    for _ in range(100):           # first slot against last slot
        A = plain[rng.choice([(2, 3), (2, 4), (3, 3)])]
        arity = rng.choice([2, 3])
        nil = set(rng.sample(range(arity), 2))
        entries = [unit_str(rng, nil_monos(A), A.nil_names, const=i not in nil)
                   for i in range(arity)]
        queries.append(("slot", _slot_query(A, "{" + ", ".join(entries) + "}")))
    for _ in range(60):            # key identity, certified primitive
        s = rng.randint(2, 6)
        i = rng.randint(1, s - 1)
        c1, c2 = rng.choice(COEFFS), rng.choice(COEFFS)
        target = {((1, 0, s), (2,)): i * c1 * c2, ((0, 1, s), (1,)): (i - s) * c1 * c2}
        target = form_str(target, ["a", "b", "t"], ["t", "a", "b"])
        queries.append(("key", _key_query(ab[s + 1], ab_symbol(c1, i, c2, s - i),
                                          target, s)))
    for _ in range(60):            # filtration window: i + j >= p vanishes
        p = rng.randint(3, 7)
        i = rng.randint(1, p)
        j = rng.randint(max(1, p - i), p + 1)
        text = ab_symbol(rng.choice(COEFFS), i, rng.choice(COEFFS), j)
        queries.append(("filtration", _zero_query(ab[p], text)))
    for q in range(60):            # nonzero classes with a checked witness
        if q % 2:
            # i + j = p - 1: the key identity's class t^(p-1)(i a db - j b da)
            # is not closed, so it is not exact
            p = rng.randint(3, 7)
            i = rng.randint(1, p - 2)
            text = ab_symbol(rng.choice(COEFFS), i, rng.choice(COEFFS), p - 1 - i)
            queries.append(("nonzero", _nonzero_query(ab[p], text)))
            continue
        # independent linear parts x1, y1: d(x1 dy1) != 0, so not closed
        A = plain[rng.choice([(2, 3), (2, 4), (3, 3)])]
        higher = monomials(A.m, 2, A.N)
        lin = [tuple(int(k == v) for k in range(A.m)) for v in rng.sample(range(A.m), 2)]
        x, y = (poly_str({e: rng.choice(COEFFS)
                          for e in [e1] + rng.sample(higher, rng.randint(0, 2))},
                         A.nil_names) for e1 in lin)
        queries.append(("nonzero", _nonzero_query(A, f"{{1 + ({x}), 1 + ({y})}}")))
    rng.shuffle(queries)
    return queries


# -- oracle_gap ------------------------------------------------------------------

GAP_CURVE = {(4, 0): 1, (2, 3): 1, (0, 5): 1}
GAP_NESTED = (11, 15, 5, 1)      # dense-oracle dims A, B, C and correction


def _corpus(rng):
    """(label, m, N, ideal generators, relative generators or None)."""
    c = lambda: rng.choice(COEFFS)
    fermat = {(3, 0): c(), (0, 3): c()}
    gap = {(4, 0): c(), (2, 3): c(), (0, 5): c()}
    return [
        ("fermat3", 2, 5, [fermat], None),
        ("fermat3_rel", 2, 5, [fermat], [{(2, 0): c()}, {(0, 2): c()}]),
        ("gap_quotient", 2, 6, [gap], None),
        ("gap_jacobian", 2, 6, [partial(gap, 0), partial(gap, 1)], None),
        ("cusp", 2, 5, [{(2, 0): c(), (0, 3): c()}], None),
        ("plain_rel", 2, 4, [], [{(1, 0): c(), (0, 1): c()}]),
        ("power_rel", 1, 5, [], [{(rng.choice([2, 3, 4]),): c()}]),
        ("cubic_rel", 1, 6, [{(5,): 1}], [{(2,): c(), (3,): c()}]),
    ]


def _relative_form(rng, m, N, n, rel_gens):
    """A random raw n-form lying in the relative subspace, by construction."""
    words = list(combinations(range(m), n))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        word = rng.choice(words)
        if rel_gens is None:
            lo = 1 if n == 0 else 0
            e = rng.choice(monomials(m, lo, N))
            _add_term(terms, (e, word), rng.choice(COEFFS))
            continue
        g = rng.choice(rel_gens)
        u = {rng.choice(monomials(m, 0, N)): rng.choice(COEFFS)}
        if n and rng.random() < 0.5:      # u * dg ∧ dW'
            sub = rng.choice(list(combinations(range(m), n - 1)))
            for v in range(m):
                sign, new = wedge_in(v, sub)
                if sign:
                    for e, c2 in poly_mul(u, partial(g, v)).items():
                        _add_term(terms, (e, new), sign * c2)
        else:                              # u * g * dW
            for e, c2 in poly_mul(u, g).items():
                _add_term(terms, (e, word), c2)
    terms = truncate(terms, N)
    return terms or _relative_form(rng, m, N, n, rel_gens)


def _engine_rel(m, rel_gens):
    if rel_gens is None:
        return dr.FULL
    return dr.EXPLICIT([ps.polynomial_terms(poly_str(g, nil_names(m)), m) for g in rel_gens])


def _agreement_query(spec, model, m, rel_gens):
    def run():
        A = ps.algebra_from_json(spec)
        rows = [(r["degree"], r["dim"], r["dim_ker"], r["dim_im"], r["dim_h"])
                for r in dr.cohomology(A, _engine_rel(m, rel_gens)).rows]
        want = model.cohomology(rel_gens)
        return None if rows == want else f"cohomology {rows} != dense {want}"
    return run


def _probe_query(spec, model, m, n, raw, rel_gens, exact):
    names = nil_names(m)

    def run():
        A = ps.algebra_from_json(spec)
        form = ps.parse_form(form_str(raw, names), A)
        got = dr.is_exact(form, _engine_rel(m, rel_gens)).exact
        want = model.is_exact(n, raw, rel_gens)
        if got != want:
            return f"engine exact={got}, dense exact={want}"
        if exact and not got:
            return "d of a relative form not exact"
        return None
    return run


def _singular_query(f, mu, tau):
    text = poly_str(f, ["t1", "t2"])

    def run():
        rep = sg.singularity_report(ps.polynomial_terms(text))
        got = (rep.mu, rep.tau, rep.h_dim)
        return None if got == (mu, tau, mu - tau) else f"{text}: {got} != {(mu, tau)}"
    return run


def _sequence_query(f, N, dims):
    def run():
        A = ps.algebra_from_json(_spec(2, N))
        gens = [partial(f, 0), partial(f, 1)]
        inner = dr.EXPLICIT([ps.polynomial_terms(poly_str(g, ["t1", "t2"]), 2) for g in gens])
        rep = dr.verify_forms_sequence(A, inner, dr.FULL, degree=1)
        if not rep.passed:
            return "six-term sequence not exact"
        got = (rep.dim_inner_classes, rep.dim_outer_classes,
               rep.dim_quotient_classes, rep.correction_dim)
        return None if dims is None or got == dims else f"dims {got} != {dims}"
    return run


def oracle_gap(rng):
    """General ideals against the dense oracle, singularities, the sequence."""
    queries = []
    for label, m, N, ideal, rel_gens in _corpus(rng):
        spec = _spec(m, N, [poly_str(g, nil_names(m)) for g in ideal])
        model = dn.DenseModel(m, N, ideal)
        queries.append(("agreement", _agreement_query(spec, model, m, rel_gens)))
        for n in range(1, m + 1):
            for _ in range(4):
                exact = {}
                while not exact:
                    eta = _relative_form(rng, m, N, n - 1, rel_gens)
                    exact = truncate(form_d(eta, m), N)
                queries.append(("probe", _probe_query(spec, model, m, n, exact, rel_gens, True)))
                raw = _relative_form(rng, m, N, n, rel_gens)
                queries.append(("probe", _probe_query(spec, model, m, n, raw, rel_gens, False)))
    c = lambda: rng.choice(COEFFS)
    ade = [({(k + 1, 0): c(), (0, 2): c()}, k) for k in range(1, 8)]
    ade += [({(2, 1): c(), (0, k - 1): c()}, k) for k in range(4, 9)]
    ade += [({(3, 0): c(), (0, 4): c()}, 6), ({(3, 0): c(), (1, 3): c()}, 7),
            ({(3, 0): c(), (0, 5): c()}, 8)]
    for f, mu in ade:
        queries.append(("singular", _singular_query(f, mu, mu)))
    for _ in range(4):
        gap = {(4, 0): c(), (2, 3): c(), (0, 5): c()}
        queries.append(("singular", _singular_query(gap, 12, 11)))
    queries.append(("sequence", _sequence_query(GAP_CURVE, 6, GAP_NESTED)))
    for f, N in [({(3, 0): c(), (0, 4): c()}, 5), ({(2, 1): c(), (0, 3): c()}, 5)]:
        queries.append(("sequence", _sequence_query(f, N, None)))
    rng.shuffle(queries)
    return queries


WORKLOADS = {
    "cohom_ladder": cohom_ladder,
    "param_box": param_box,
    "bloch_queries": bloch_queries,
    "oracle_gap": oracle_gap,
}


def build(name, seed):
    """The workload's queries as a list of (kind, callable)."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
