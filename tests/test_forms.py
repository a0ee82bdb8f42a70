import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilbloch.algebra import Algebra, RingMap
from nilbloch.forms import (Form, d, d_elem, dlog, euler_homotopy, form_block,
                            form_of_element, form_str, graded_component, graded_dims,
                            push_form, scale, wedge, zero_form, block_key)
from nilbloch.linalg import vec_iadd
from nilbloch import sampling as sp

A = Algebra(2, 4)
B = Algebra(1, 4, params=[("a", False), ("b", True)])

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def elem_strategy(alg, monos=None):
    if monos is None:
        monos = [((0,) * alg.n_params, e) for e in alg.nil_basis]
    return st.dictionaries(st.sampled_from(monos), coeffs, max_size=3).map(
        lambda t: alg.element(t))


elems = elem_strategy(A)
b_monos = [((i, j), (k,)) for i in range(2) for j in range(-1, 2) for k in range(4)]
b_elems = elem_strategy(B, b_monos)


def form_strategy(alg, n):
    from nilbloch.derham import relative, FULL
    vecs = relative(alg, FULL).rel_vectors(n)
    coords = [next(iter(v)) for v in vecs]
    return st.dictionaries(st.sampled_from(coords), coeffs, max_size=3).map(
        lambda t: Form(alg, n, t))


forms0 = form_strategy(A, 0)
forms1 = form_strategy(A, 1)


@given(f=elems)
def test_d_squared_is_zero(f):
    assert d(d(d_elem(f))) == zero_form(A, 3)
    assert d(d_elem(f)) == zero_form(A, 2)


@given(f=b_elems)
def test_d_squared_is_zero_parametric(f):
    assert d(d(d_elem(f))) == zero_form(B, 3)


@given(f=elems, g=elems)
def test_leibniz(f, g):
    assert d_elem(f * g) == f * d_elem(g) + g * d_elem(f)


@given(f=elems, w=forms1)
def test_d_is_a_derivation_on_forms(f, w):
    lhs = d(f * w)
    rhs = wedge(d_elem(f), w) + f * d(w)
    assert lhs == rhs


@given(w=forms1, v=forms1)
def test_wedge_anticommutes_in_degree_one(w, v):
    assert wedge(w, v) == -wedge(v, w)
    assert wedge(w, w) == zero_form(A, 2)


@given(x=elems, y=elems)
def test_dlog_of_product(x, y):
    u = A.one() + x.nil_part()
    v = A.one() + y.nil_part()
    assert dlog(u * v) == dlog(u) + dlog(v)


@given(x=b_elems)
def test_dlog_matches_d_of_log(x):
    u = B.one() + x.nil_part()
    assert dlog(u) == d_elem(B.log1p(x.nil_part()))


def test_dlog_of_invertible_parameter():
    b = B.var("b")
    w = dlog(b)
    assert form_str(w) == "1 * b^-1 * db"


def test_dlog_equals_inverse_times_d_on_random_units():
    """dlog u = dlog s + d log(1+x) against the definition u^-1 du."""
    rng = random.Random(9)
    gap = {(4, 0): 1, (2, 3): 1, (0, 5): 1}
    algebras = [Algebra(1, 5), Algebra(2, 4), Algebra(3, 3),
                Algebra(2, 6, ideal=[{(3, 0): 1, (0, 3): 1}]), Algebra(2, 8, ideal=[gap]),
                Algebra(1, 5, params=[("a", False), ("b", True)])]
    for C in algebras:
        zero = ((0,) * C.n_params, (0,) * C.m)
        pexps = [(i, j) for i in range(3) for j in range(-2, 3)] if C.n_params else [()]
        monos = [(p, e) for p in pexps for e in C.nil_basis if sum(e)]
        for _ in range(70):
            spexp = (0, rng.randint(-3, 3)) if C.n_params else ()
            s = C.element({(spexp, zero[1]): sp.random_rational(rng, nonzero=True)})
            x = C.element({mono: sp.random_rational(rng)
                           for mono in rng.sample(monos, rng.randint(0, 4))})
            u = s * (C.one() + x)
            assert dlog(u) == scale(C.invert(u), d_elem(u)), (C.describe(), u)


def test_homotopy_identity_small():
    C = Algebra(1, 3)
    t = C.nil(0)
    w = Form(C, 1, {(((), (1,)), (0,)): Fraction(1)})   # t dt, degree 2
    assert euler_homotopy(w) == form_of_element(t ** 2)
    lhs = d(euler_homotopy(w)) + euler_homotopy(d(w))
    assert lhs == 2 * w


def test_homotopy_requires_monomial_ideal():
    C = Algebra(2, 5, ideal=[{(3, 0): 1, (0, 3): 1}])
    w = d_elem(C.nil(0))
    with pytest.raises(ValueError, match="monomial-ideal"):
        euler_homotopy(w)


def test_homotopy_contracts_every_dt_slot():
    # i_E(t1 dt1 ^ dt2) = t1^2 dt2 - t1 t2 dt1 on Q[t1, t2]/m^4
    w = Form(A, 2, {(((), (1, 0)), (0, 1)): Fraction(1)})
    want = Form(A, 1, {(((), (2, 0)), (1,)): Fraction(1),
                       (((), (1, 1)), (0,)): Fraction(-1)})
    assert euler_homotopy(w) == want
    assert d(euler_homotopy(w)) + euler_homotopy(d(w)) == 3 * w


@given(f=b_elems)
def test_graded_components_sum_to_form(f):
    w = d_elem(f)
    total = zero_form(B, 1)
    for i in w.internal_degrees():
        total = total + graded_component(w, i)
    assert total == w


def test_graded_component_needs_monomial_mode():
    C = Algebra(2, 5, ideal=[{(3, 0): 1, (0, 3): 1}])
    w = d_elem(C.nil(0))
    with pytest.raises(ValueError, match="graded component"):
        graded_component(w, 1)


def test_block_key_counts_dt_and_params():
    key = block_key(B, ((1, 0), (2,)), (0, 2))
    # t^2 a dt db: internal degree 2+1, parameter degree (1, 1)
    assert key == (3, (1, 1))


def test_d_preserves_block_key():
    w = Form(B, 0, {(((1, 1), (2,)), ()): Fraction(1)})
    key = block_key(B, ((1, 1), (2,)), ())
    for (mono, word) in d(w).terms:
        assert block_key(B, mono, word) == key


@given(x=elems)
def test_push_form_commutes_with_d(x):
    target = Algebra(1, 4)
    t = target.nil(0)
    rmap = RingMap(A, target, {"t1": t, "t2": t ** 2})
    w = d_elem(x)
    assert push_form(rmap, w) == d_elem(rmap(x))


def test_relation_rows_kill_top_degree():
    C = Algebra(1, 3)
    t = C.nil(0)
    w = Form(C, 1, {(((), (2,)), (0,)): Fraction(1)})   # t^2 dt
    assert w == zero_form(C, 1)
    assert d_elem(t ** 2) == 2 * Form(C, 1, {(((), (1,)), (0,)): Fraction(1)})


def test_canonical_reduction_with_general_ideal():
    C = Algebra(2, 3, ideal=[{(2, 0): 1, (0, 2): 1}])
    t1, t2 = C.nil(0), C.nil(1)
    # 2 t1 dt1 = d(t1^2) = d(-t2^2) = -2 t2 dt2 in Omega^1
    lhs = d_elem(t1 * t1)
    rhs = -d_elem(t2 * t2)
    assert lhs == rhs


def test_form_str_layout():
    t1, t2 = A.nil(0), A.nil(1)
    w = d_elem(t1 * t2)
    assert form_str(w) == "1 * t1 * dt2 + 1 * t2 * dt1"
    assert form_str(zero_form(A, 1)) == "0"


def _reference_block(A, n, key):
    """Block (n, (i, pihat)) straight from the definition, parameters included.

    Coordinates are t^texp a^pexp dT ^ da_D of block key (i, pihat); the
    relations are u * d(g) ^ dT ^ da_D for g a monomial generator of J (the
    degree-N monomials too) and u any monomial, eliminated in one RowSpace.
    """
    from itertools import combinations
    from nilbloch.algebra import monomials_below, monomials_of_degree
    from nilbloch.forms import coord_sort_key, wedge_insert
    from nilbloch.linalg import RowSpace
    i, pihat = key
    P = A.n_params

    def words(size):
        for k in range(size + 1):
            for T in combinations(range(A.m), k):
                for D in combinations(range(P), size - k):
                    pexp = tuple(e - (j in D) for j, e in enumerate(pihat))
                    if all(e >= 0 or p.invertible for e, p in zip(pexp, A.params)):
                        yield T + tuple(A.m + j for j in D), pexp

    coords = {((pexp, texp), word) for word, pexp in words(n) for texp in A.nil_basis
              if block_key(A, (pexp, texp), word) == key}
    rows = RowSpace(order=coord_sort_key(A))
    gens = list(A.mono_gens) + monomials_of_degree(A.m, A.N)
    for word, pexp in words(n - 1) if n > 0 else ():
        for g in gens:
            for u in monomials_below(A.m, A.N):
                row = {}
                for v in range(A.m):
                    sign, new = wedge_insert(v, word)
                    if not g[v] or not sign:
                        continue
                    texp = tuple(x + y - (w == v) for w, (x, y) in enumerate(zip(u, g)))
                    for mono in A.normal_form({(pexp, texp): Fraction(g[v] * sign)}):
                        row[(mono, new)] = Fraction(g[v] * sign)
                if row and block_key(A, *next(iter(row))) == key:
                    assert set(row) <= coords
                    rows.insert(row)
    basis = sorted((c for c in coords if c not in rows.rows), key=coord_sort_key(A))
    return coords, rows, basis


PARAM_SETS = [[("a", False)], [("a", True)], [("a", False), ("b", True)]]


@pytest.mark.parametrize("m, N, ideal", [(1, 4, []), (2, 3, []), (3, 3, []),
                                         (2, 4, [{(1, 1): 1}, {(0, 3): 1}])],
                         ids=["m1", "m2", "m3", "monomial_ideal_m2"])
def test_parametric_block_matches_definition(m, N, ideal):
    from nilbloch.derham import _pihat_box, relative, FULL
    for params in PARAM_SETS:
        A = Algebra(m, N, ideal=ideal, params=params)
        pres = relative(A, FULL)
        bound = 2 if m < 3 else 1
        checked = 0
        for n in range(A.m + A.n_params + 1):
            for key in pres.block_keys(n, _pihat_box(A, bound)):
                coords, rows, basis = _reference_block(A, n, key)
                blk = form_block(A, n, key)
                assert set(blk.coords) == coords and len(blk.coords) == len(coords)
                assert blk.rows.rows == rows.rows and blk.rows.cols == rows.cols
                assert blk.basis == basis
                checked += bool(rows.rows)
        assert checked


def _assert_graded_dims_match_blocks(A):
    dims = graded_dims(A)
    keys = [(n, i) for n in range(A.m + 2) for i in range(A.N + A.m + 1)]
    assert set(dims) <= set(keys)
    for n, i in keys:
        assert dims.get((n, i), 0) == form_block(A, n, (i, ())).dim, (n, i)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 5), data=st.data())
def test_graded_dims_match_form_blocks(m, data):
    N = data.draw(st.integers(2, 8 if m < 5 else 5))
    exps = st.lists(st.integers(0, N), min_size=m, max_size=m).map(tuple).filter(any)
    gens = data.draw(st.lists(exps, max_size=3))
    _assert_graded_dims_match_blocks(Algebra(m, N, ideal=[{e: 1} for e in gens]))


@pytest.mark.parametrize("m, N, gens", [
    # pure powers: every coordinate capped at 7 = N, few profiles per generator
    (5, 7, [tuple(6 * (v == w) for v in range(5)) for w in range(5)]),
    # a squarefree generator beside a power: most fine degrees are divisible
    (6, 6, [(1, 1, 1, 0, 0, 0), (0, 0, 0, 5, 0, 0)]),
    # not minimal: (2, 2, 0, 0) and (3, 1, 1, 0) are multiples of (2, 1, 0, 0)
    (4, 6, [(2, 2, 0, 0), (2, 1, 0, 0), (3, 1, 1, 0), (0, 0, 2, 1)]),
    # degree >= N: (0, 0, 5) and (0, 4, 3) lie in m^N already
    (3, 5, [(0, 0, 5), (1, 1, 0), (0, 4, 3)]),
    # t1 and t5 in no generator
    (5, 6, [(0, 2, 0, 1, 0), (0, 0, 3, 0, 0), (0, 1, 1, 1, 0)]),
])
def test_graded_dims_match_form_blocks_on_hard_shapes(m, N, gens):
    _assert_graded_dims_match_blocks(Algebra(m, N, ideal=[{e: 1} for e in gens]))


def test_graded_dims_match_form_blocks_full_m5():
    _assert_graded_dims_match_blocks(Algebra(5, 6))


def test_graded_dims_closed_form_matches_form_blocks_full():
    for m in range(1, 5):
        for N in range(2, 9):
            _assert_graded_dims_match_blocks(Algebra(m, N))


def test_fine_dims_memo_is_shared_across_algebras(fresh_rings):
    from nilbloch.forms import _fine_dims, _graded_dims
    gens = [{(2, 1, 0): 1}, {(0, 1, 1): 1}]
    graded_dims(Algebra(3, 6, ideal=gens))
    misses = _fine_dims.cache_info().misses
    fresh_rings()
    _graded_dims.cache_clear()      # else again finds its graded dims counted
    again = Algebra(3, 6, ideal=gens)
    assert graded_dims(again) and again._form_cache == {}
    assert _fine_dims.cache_info().misses == misses


def test_graded_dims_memo_is_shared_by_parametric_rings():
    gens = [{(2, 1): 1}]
    plain = graded_dims(Algebra(2, 5, ideal=gens))
    assert graded_dims(Algebra(2, 5, ideal=gens, params=["a", ("b", True)])) is plain


def _whole_rows_per_term(A, n):
    """Degree-n relation rows from the unfiltered loop u * d(g) ^ dt_W over ideal generators
    and degree-N monomials g, one normal_form per term."""
    from itertools import combinations
    from nilbloch.algebra import monomials_of_degree
    from nilbloch.forms import coord_sort_key, wedge_insert
    from nilbloch.linalg import RowSpace, vec_iadd
    rows = RowSpace(order=coord_sort_key(A))
    gens = list(A.ideal_gens) + [{e: Fraction(1)} for e in monomials_of_degree(A.m, A.N)]
    for g in gens:
        for u in A.nil_basis:
            for W in combinations(range(A.m), n - 1):
                row = {}
                for a, ca in g.items():
                    for v in range(A.m):
                        if not a[v] or v in W:
                            continue
                        raw = tuple(x + y - (w == v) for w, (x, y) in enumerate(zip(u, a)))
                        if sum(raw) >= A.N:
                            continue
                        sign, word = wedge_insert(v, W)
                        nf = A.normal_form({((), raw): ca * a[v] * sign})
                        vec_iadd(row, {(mono, word): c for mono, c in nf.items()})
                if row:
                    rows.insert(row)
    return rows


def _explicit_quotient():
    """R/I of the relative explicit:2*t1-3*t2;t3^2 over Q[t1,t2,t3]/m^4."""
    from nilbloch.derham import EXPLICIT, relative
    rel = EXPLICIT([{(1, 0, 0): 2, (0, 1, 0): -3}, {(0, 0, 2): 1}])
    return relative(Algebra(3, 4), rel).quotient


GAP = {(4, 0): Fraction(2), (2, 3): Fraction(-3, 2), (0, 5): Fraction(1)}
NON_MONOMIAL_ALGEBRAS = {
    "fermat3": lambda: Algebra(2, 5, ideal=[{(3, 0): 2, (0, 3): Fraction(-1, 2)}]),
    "gap_quotient": lambda: Algebra(2, 6, ideal=[GAP]),
    "gap_jacobian": lambda: Algebra(2, 6, ideal=[{(3, 0): 8, (1, 3): -3},
                                                {(2, 2): Fraction(-9, 2), (0, 4): 5}]),
    "cusp": lambda: Algebra(2, 5, ideal=[{(2, 0): 3, (0, 3): -1}]),
    "explicit_quotient": lambda: _explicit_quotient(),
}


@pytest.mark.parametrize("name", sorted(NON_MONOMIAL_ALGEBRAS))
def test_whole_relation_rows_match_per_term_loop(name):
    from nilbloch.forms import block_grades, coord_sort_key
    from nilbloch.linalg import RowSpace
    Aw = NON_MONOMIAL_ALGEBRAS[name]()
    assert not Aw.monomial_ideal
    for n in range(1, Aw.m + 1):
        merged = RowSpace(order=coord_sort_key(Aw))
        for g in block_grades(Aw, n):
            merged.adopt(form_block(Aw, n, (g, ())).rows)
        ref = _whole_rows_per_term(Aw, n)
        assert merged.rows == ref.rows and merged.cols == ref.cols
        assert ref.rank


def _weight_block_algebras():
    return [Algebra(3, 4), Algebra(2, 5, ideal=[{(2, 1): 1}, {(0, 3): 1}]),
            Algebra(3, 5, ideal=[{(2, 0, 0): 1, (0, 3, 0): 1}]),
            Algebra(3, 4, ideal=[{(1, 1, 0): 1, (0, 0, 2): -1}])] + [
            f() for f in NON_MONOMIAL_ALGEBRAS.values()]


def test_weight_blocks_carry_their_key():
    from nilbloch.forms import block_grades
    for Aw in _weight_block_algebras():
        for n in range(Aw.m + 1):
            for g in block_grades(Aw, n):
                blk = form_block(Aw, n, (g, ()))
                assert blk.coords
                assert all(block_key(Aw, *c) == (g, ()) for c in blk.coords)
                for row in blk._relation_rows():
                    assert all(block_key(Aw, *c) == (g, ()) for c in row)


def test_weight_splits_quasi_homogeneous_degrees():
    from nilbloch.forms import block_grades
    A5 = Algebra(5, 7, ideal=[{(2, 0, 0, 0, 0): 1, (0, 3, 0, 0, 0): 1}])
    assert A5.weight == (3, 2, 1, 1, 1)
    assert len(block_grades(A5, 2)) > 1
    assert Algebra(3, 4, ideal=[{(2, 1, 0): 1}]).weight == (1, 1, 1)
    gap = NON_MONOMIAL_ALGEBRAS["gap_quotient"]()
    assert gap.weight == (0, 0)
    assert all(len(block_grades(gap, n)) == 1 for n in range(gap.m + 1))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 4), data=st.data())
def test_graded_dims_match_form_blocks_with_covers_dead_by_degree(m, data):
    # a squarefree g on S, |S| >= 2: alpha = g + (N - 1) e_v has the cover {v}, of
    # at most k = |alpha| - N = |S| - 1 elements, when (N - 1) e_v is alive
    N = data.draw(st.integers(2, 6))
    S = data.draw(st.sets(st.integers(0, m - 1), min_size=2))
    g = tuple(int(v in S) for v in range(m))
    exps = st.lists(st.integers(0, N), min_size=m, max_size=m).map(tuple).filter(any)
    A = Algebra(m, N, ideal=[{e: 1} for e in [g] + data.draw(st.lists(exps, max_size=2))])
    v = min(S)
    assume(g in A.mono_gens and not A._mono_dead(tuple((N - 1) * (w == v) for w in range(m))))
    _assert_graded_dims_match_blocks(A)


def _scale_per_term(elem, form):
    """The per-term product loop that scale was before it used wedge_terms."""
    A = form.algebra
    raw = {}
    for (mono, word), c in form.terms.items():
        prod = A.mul_terms(elem.terms, {mono: c})
        vec_iadd(raw, {(mono2, word): c2 for mono2, c2 in prod.items()})
    return Form(A, form.degree, raw)


def test_scale_matches_per_term_product_loop():
    """scale is one wedge_terms product canonicalized once; the relations form a
    dg-ideal, so it equals the per-term loop on every algebra kind."""
    rng = random.Random(20)
    gap = {(4, 0): 1, (2, 3): 1, (0, 5): 1}
    algebras = [Algebra(2, 5), Algebra(3, 4, ideal=[{(1, 1, 0): 1}]),
                Algebra(2, 6, ideal=[{(3, 0): 1, (0, 3): 1}]), Algebra(2, 8, ideal=[gap]),
                Algebra(2, 4, params=[("a", False), ("b", True)])]
    for C in algebras:
        pexps = [(i, j) for i in range(3) for j in range(-2, 3)] if C.n_params else [()]
        monos = [(p, e) for p in pexps for e in C.nil_basis]
        for n in range(C.m + C.n_params + 1):
            words = list(combinations(range(C.m + C.n_params), n))
            for _ in range(8):
                x = C.element({mono: sp.random_rational(rng)
                               for mono in rng.sample(monos, rng.randint(0, 4))})
                f = Form(C, n, {(rng.choice(monos), rng.choice(words)): sp.random_rational(rng)
                                for _ in range(rng.randint(0, 5))})
                assert scale(x, f) == _scale_per_term(x, f), (C.describe(), x, f)


def _typed(terms):
    return {k: (type(c), c) for k, c in terms.items()}


FORM_ALGEBRAS = {
    "monomial": lambda: Algebra(3, 5, ideal=[{(2, 1, 0): 1}, {(0, 0, 3): 1}]),
    "parametric": lambda: Algebra(2, 5, params=[("a", False), ("b", True)]),
    **NON_MONOMIAL_ALGEBRAS,
}


@pytest.mark.parametrize("name", sorted(FORM_ALGEBRAS))
def test_d_of_canonical_form_needs_no_normal_form(name):
    """d reduces the raw d_terms of a canonical form blockwise only: the same terms,
    each of the same type (an int where the full path gives one), as the full
    canonical_terms (_q, normal form, reduce)."""
    from nilbloch.forms import d_terms
    Aw = FORM_ALGEBRAS[name]()
    rng = random.Random(29)
    pexps = [(i, j) for i in range(3) for j in range(-2, 3)] if Aw.n_params else [()]
    monos = [(p, e) for p in pexps for e in Aw.nil_basis]
    gens = Aw.m + Aw.n_params
    nonzero = 0
    for n in range(gens):
        words = list(combinations(range(gens), n))
        for _ in range(12):
            f = Form(Aw, n, {(rng.choice(monos), rng.choice(words)):
                             rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-4, 3)])
                             for _ in range(rng.randint(1, 5))})
            got = d(f)
            assert _typed(got.terms) == _typed(Form(Aw, n + 1, d_terms(Aw, f.terms)).terms)
            assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)
            nonzero += bool(got)
    assert nonzero > 10


def test_integral_coefficients_after_reduction_are_ints():
    """The block reduce and the normal form over a non-monomial ideal add Fractions
    after _q; an integral one is stored as an int, as _q stores it."""
    from nilbloch.parser import parse_form
    cusp = Algebra(2, 5, ideal=[{(2, 0): 3, (0, 3): -1}])
    mono = Algebra(2, 6, ideal=[{(2, 1): 1}])
    for form, want in ((parse_form("-1/3*t2^3", cusp), -1), (d(parse_form("t2^4", cusp)), 8),
                       (parse_form("1/2*t1^2*dt2", mono), -1)):
        assert [(type(c), c) for c in form.terms.values()] == [(int, want)]
