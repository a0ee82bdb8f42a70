"""Seeded random instances for property tests and randomized verifiers.

Everything takes an explicit random.Random so runs are reproducible from a
seed; nothing here touches global RNG state. Sampled elements stay small:
coefficients have numerator and denominator a few digits, nilpotent parts
pick a handful of basis monomials.
"""

from fractions import Fraction

from .algebra import Algebra, monomials_below
from .linalg import vec_iadd
from . import ksymbols as ks


def random_rational(rng, nonzero=False, span=4):
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q or not nonzero:
            return q


def _nil_monos(A, min_degree=1):
    return [e for e in A.nil_basis if sum(e) >= min_degree]


def random_nilpotent(rng, A, max_terms=3, min_degree=1):
    """Random element of the ideal (t_1..t_m), possibly zero."""
    monos = _nil_monos(A, min_degree)
    if not monos:
        return A.zero()
    pexp = (0,) * A.n_params
    picks = rng.sample(monos, min(len(monos), rng.randint(1, max_terms)))
    return A.element({(pexp, e): random_rational(rng) for e in picks})


def random_unit(rng, A, max_terms=3):
    """c*(1+x) with c a nonzero rational and x nilpotent."""
    c = random_rational(rng, nonzero=True)
    return A.const(c) * (A.one() + random_nilpotent(rng, A, max_terms))


def random_symbol(rng, A, arity, nil_slots=1):
    """A symbol with at least nil_slots entries of the shape 1+x, x != 0."""
    entries = []
    forced = set(rng.sample(range(arity), nil_slots))
    for i in range(arity):
        if i in forced:
            entries.append(A.one() + _nonzero_nilpotent(rng, A))
        else:
            entries.append(random_unit(rng, A))
    return ks.symbol(*entries)


def random_form(rng, A, pres, n, max_terms=4):
    """Random combination of the relative subspace's spanning vectors."""
    from .forms import Form
    vecs = pres.rel_vectors(n)
    if not vecs:
        return Form(A, n, {})
    terms = {}
    for v in rng.sample(vecs, min(len(vecs), rng.randint(1, max_terms))):
        vec_iadd(terms, v, random_rational(rng, nonzero=True))
    return Form(A, n, terms)


def steinberg_instance(rng, A):
    """(a, x) with a in Q minus {0,1} and x a nonzero nilpotent."""
    while True:
        a = random_rational(rng, nonzero=True)
        if a != 1:
            break
    return A.const(a), _nonzero_nilpotent(rng, A)


def _nonzero_nilpotent(rng, A):
    """random_nilpotent until nonzero; ValueError when the nilpotent basis is empty."""
    if not _nil_monos(A):
        raise ValueError("the nilpotent basis is empty: every nilpotent is 0")
    while True:
        x = random_nilpotent(rng, A)
        if x:
            return x


def small_algebras(max_N=5, max_m=2):
    """Deterministic list of parameter-free truncations for random scans."""
    out = []
    for m in range(1, max_m + 1):
        for N in range(2, max_N + 1):
            out.append(Algebra(m, N))
    return out


def engine_corpus():
    """Instances given to both the blocked engine and the dense solver.

    Each entry: (label, m, N, ideal generators as {texp: coeff} dicts,
    relative ideal generators or None for the full nilpotent ideal). All
    stay at or below 60 monomials so the dense model runs in seconds.
    """
    entries = []
    for m, N in [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 4), (3, 3)]:
        entries.append((f"R_{N}_{m}", m, N, [], None))
    entries.append(("R_5_1_pow2", 1, 5, [], [{(2,): 1}]))
    entries.append(("R_5_1_pow4", 1, 5, [], [{(4,): 1}]))
    entries.append(("mono_t1sq", 2, 4, [{(2, 0): 1}], None))
    entries.append(("mono_mixed", 2, 5, [{(2, 1): 1}, {(0, 3): 1}], None))
    entries.append(("cusp_jac", 2, 5, [{(2, 0): 1}, {(0, 2): 1}], None))
    entries.append(("fermat3", 2, 5, [{(3, 0): 1, (0, 3): 1}], None))
    entries.append(("fermat3_rel", 2, 5, [{(3, 0): 1, (0, 3): 1}],
                    [{(2, 0): 1}, {(0, 2): 1}]))
    entries.append(("gk_quotient", 2, 6,
                    [{(4, 0): 1, (2, 3): 1, (0, 5): 1}], None))
    entries.append(("gk_jacobian", 2, 6,
                    [{(3, 0): 4, (1, 3): 2}, {(2, 2): 3, (0, 4): 5}], None))
    for label, m, N, gens, rel in entries:
        assert len(monomials_below(m, N)) <= 60, label
    return entries
