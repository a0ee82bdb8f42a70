import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilbloch.algebra import Algebra
from nilbloch.linalg import vec_iadd
from nilbloch import forms as fm
from nilbloch.forms import Form, d, form_str, zero_form
from nilbloch.derham import FULL, quotient_class
from nilbloch.ksymbols import (SymbolSum, bloch, dlog_symbol,
                               filtration_strictness_witness, lambda_map,
                               map_symbol, phi_p, steinberg_element,
                               surjectivity_witnesses, swap_symbol, symbol,
                               theta_maps, verify_filtration_vanishing,
                               verify_key_identity, verify_skew)
from nilbloch import sampling as sp

R3 = Algebra(1, 3)
R32 = Algebra(2, 3)
DUAL = Algebra(1, 2, params=[("a", True), ("b", True)])


def test_symbol_sum_arithmetic():
    t = R3.nil(0)
    s = symbol(R3.one() + t, R3.const(2))
    u = 2 * s - s
    assert bloch(u).rep == bloch(s).rep
    assert str(s) == "{t+1, 2}"
    assert str(0 * s) == "0"
    with pytest.raises(ValueError, match="arity mismatch"):
        s + symbol(R3.one() + t)
    with pytest.raises(ValueError, match="entry not a unit"):
        symbol(t, R3.const(2))


def test_dlog_symbol_examples():
    t = R3.nil(0)
    w = dlog_symbol(symbol(R3.one() + t))
    assert form_str(w) == "-1 * t * dt + 1 * 1 * dt"
    assert dlog_symbol(symbol(R3.const(2))) == zero_form(R3, 1)
    A = Algebra(1, 2, params=[("a", False), ("b", True)])
    s = symbol(A.one() + A.var("a") * A.nil(0), A.var("b"))
    got = dlog_symbol(s)
    want = ("1 * b^-1*t * da∧db + 1 * a*b^-1 * dt∧db")
    assert form_str(got) == want


def test_bloch_dual_numbers_class():
    eps, a, b = DUAL.nil(0), DUAL.var("a"), DUAL.var("b")
    cl = bloch(symbol(DUAL.one() + a * b * eps, b))
    want = quotient_class(Form(DUAL, 1, {(((1, 0), (1,)), (2,)): Fraction(1)}),
                          FULL)
    assert cl.rep == want
    assert not cl.is_zero()


def test_bloch_arity_one_is_log():
    t = R3.nil(0)
    cl = bloch(symbol(R3.one() + t))
    want = quotient_class(Form(R3, 0, {(((), (1,)), ()): Fraction(1),
                                       (((), (2,)), ()): Fraction(-1, 2)}),
                          FULL)
    assert cl.rep == want


def test_bloch_exp_generator():
    A = Algebra(1, 3, params=[("b", True)])
    t, b = A.nil(0), A.var("b")
    cl = bloch(symbol(A.exp_nil(t * b), b))
    want = quotient_class(Form(A, 1, {(((0,), (1,)), (1,)): Fraction(1)}),
                          FULL)
    assert cl.rep == want


def test_bloch_reports_discarded_base():
    t = R3.nil(0)
    cl = bloch(symbol(R3.const(2) * (R3.one() + t), R3.const(3)))
    assert cl.base            # the 2 (x) 3 component has no nilpotent slot
    cl2 = bloch(symbol(R3.one() + t, R3.one() + t))
    assert not cl2.base


def test_steinberg_examples():
    t = R3.nil(0)
    z = steinberg_element(R3.const(2), t)
    assert str(z) == "{t+2, -t-1} - {2, -1}"
    assert bloch(z).is_zero()
    assert bloch(steinberg_element(R3.const(2), R3.zero())).is_zero()
    x = R32.nil(0) * R32.nil(1)
    assert bloch(steinberg_element(R32.const(Fraction(1, 2)), x)).is_zero()


def test_steinberg_validation():
    t = R3.nil(0)
    with pytest.raises(ValueError, match="not a unit"):
        steinberg_element(R3.const(1), t)
    with pytest.raises(ValueError, match="not a unit"):
        steinberg_element(R3.const(0), t)
    with pytest.raises(ValueError, match="nilpotent"):
        steinberg_element(R3.const(2), R3.one() + t)


def test_phi_p_examples():
    A = Algebra(1, 3, params=[("a", True), ("b", True)])
    t, a, b = A.nil(0), A.var("a"), A.var("b")
    s = phi_p(a, b, 2)
    assert str(s) == "{a*b*t^2+1, b}"
    cl = bloch(s)
    want = quotient_class(Form(A, 1, {(((1, 0), (2,)), (2,)): Fraction(1)}),
                          FULL)
    assert cl.rep == want
    assert bloch(phi_p(A.zero(), b, 2)).is_zero()
    B = Algebra(1, 2)
    assert bloch(phi_p(B.one(), B.const(2), 1)).is_zero()


def test_phi_p_validation():
    A = Algebra(1, 3, params=[("b", True)])
    with pytest.raises(ValueError, match="truncation too shallow"):
        phi_p(A.one(), A.var("b"), 3)
    with pytest.raises(ValueError, match="not a unit"):
        phi_p(A.one(), A.nil(0), 1)
    with pytest.raises(ValueError, match="single-nilpotent"):
        phi_p(R32.one(), R32.const(2), 1)


def test_key_identity_small_cases():
    assert verify_key_identity(1, 1).passed
    assert verify_key_identity(1, 2).passed
    rep = verify_key_identity(1, 1)
    assert rep.certificate.exact
    with pytest.raises(ValueError, match="invalid exponents"):
        verify_key_identity(0, 1)


def test_filtration_vanishing_and_strictness():
    assert verify_filtration_vanishing(2, 1, 1).vanishes
    assert verify_filtration_vanishing(1, 1, 1).vanishes
    assert verify_filtration_vanishing(3, 1, 2).vanishes
    with pytest.raises(ValueError, match="i\\+j < p"):
        verify_filtration_vanishing(3, 1, 1)
    wit = filtration_strictness_witness(3)
    assert wit is not None
    assert (wit["i"], wit["j"]) == (1, 1)
    assert not wit["certificate"].exact


def test_skew_examples():
    t = R3.nil(0)
    A = Algebra(1, 3, params=[("b", True)])
    assert verify_skew(symbol(A.one() + A.nil(0), A.var("b"))).passed
    B = Algebra(1, 3, params=[("a", False), ("b", False)])
    u = B.one() + B.var("a") * B.nil(0)
    v = B.one() + B.var("b") * B.nil(0)
    assert verify_skew(symbol(u, v)).passed
    assert verify_skew(symbol(R3.one() + t, R3.one() + t)).passed


def test_slot_choice_does_not_change_class():
    rng = random.Random(11)
    for _ in range(20):
        s = sp.random_symbol(rng, R32, 2, nil_slots=2)
        assert bloch(s, slot="first").rep == bloch(s, slot="last").rep


def test_swap_is_antisymmetric_on_classes():
    rng = random.Random(12)
    for _ in range(10):
        s = sp.random_symbol(rng, R32, 2, nil_slots=1)
        total = bloch(s + swap_symbol(s))
        assert total.is_zero()


def test_d_of_representative_is_dlog():
    rng = random.Random(13)
    for _ in range(30):
        A = rng.choice([R3, R32])
        s = sp.random_symbol(rng, A, 2, nil_slots=1)
        cl = bloch(s)
        assert d(cl.rep) == dlog_symbol(s)


def test_sampling_refuses_an_algebra_without_nilpotents():
    rng = random.Random(15)
    for A in (Algebra(2, 3, ideal=[{(1, 0): 1}, {(0, 1): 1}]), Algebra(1, 1)):
        assert sp.random_nilpotent(rng, A) == A.zero()
        with pytest.raises(ValueError, match="nilpotent basis is empty"):
            sp.random_symbol(rng, A, 2)
        with pytest.raises(ValueError, match="nilpotent basis is empty"):
            sp.steinberg_instance(rng, A)


def test_multiplicativity_in_one_slot():
    rng = random.Random(14)
    for _ in range(20):
        u = sp.random_unit(rng, R32)
        v = sp.random_unit(rng, R32)
        w = sp.random_unit(rng, R32)
        lhs = bloch(symbol(u * v, w))
        rhs = bloch(symbol(u, w) + symbol(v, w))
        assert lhs.rep == rhs.rep


def test_span_small_truncations():
    for (N, m, n, dim) in [(3, 1, 0, 2), (3, 2, 1, 3), (4, 1, 1, 0)]:
        rep = surjectivity_witnesses(Algebra(m, N), FULL, n)
        assert rep.dim_target == dim
        assert rep.full


def test_span_parametric_needs_symbols():
    A = Algebra(1, 2, params=[("b", True)])
    with pytest.raises(ValueError, match="explicit generator symbols"):
        surjectivity_witnesses(A, FULL, 1)
    eps, b = A.nil(0), A.var("b")
    syms = [symbol(A.one() + eps, b), symbol(A.one() + b * eps, b)]
    rep = surjectivity_witnesses(A, FULL, 1, symbols=syms)
    assert rep.full
    assert rep.dim_target == 2


def test_theta_difference_raises_degree():
    src = Algebra(1, 6, params=[("b", True), ("x", False)])
    tgt = Algebra(1, 6, params=[("b", True)])
    p, q = 2, 2
    th_q, th_0 = theta_maps(src, tgt, q)
    s = symbol(src.one() + src.var("x") * src.nil(0) ** p, src.var("b"))
    diff = bloch(map_symbol(th_q, s) + (-1) * map_symbol(th_0, s))
    assert diff.rep.terms
    assert min(diff.rep.internal_degrees()) >= p + q


def test_lambda_scales_depth():
    A = Algebra(1, 6, params=[("b", True)])
    lam = lambda_map(A, 2)
    s = symbol(A.one() + A.nil(0) ** 2, A.var("b"))
    moved = map_symbol(lam, s)
    cl = bloch(moved)
    assert min(cl.rep.internal_degrees()) >= 4


def _bloch_reference(s, slot="first"):
    """The Bloch map by its definition: every sub-tensor mask, dlog as u^-1 du."""
    A = s.algebra
    n = s.arity - 1
    raw = fm.zero_form(A, n)
    base = []
    for coeff, tup in s.terms:
        splits = [A.unit_split(u) for u in tup]
        for mask in range(1 << s.arity):
            entries = []
            nil_slots = []
            dead = False
            for i in range(s.arity):
                si, xi = splits[i]
                if (mask >> i) & 1:
                    if not xi.terms:
                        dead = True
                        break
                    entries.append(A.one() + xi)
                    nil_slots.append(i)
                else:
                    if si == A.one():
                        dead = True
                        break
                    entries.append(si)
            if dead:
                continue
            if not nil_slots:
                base.append((coeff, tuple(entries)))
                continue
            pick = nil_slots[0] if slot == "first" else nil_slots[-1]
            piece = fm.form_of_element(A.log1p(splits[pick][1]))
            for j, v in enumerate(entries):
                if j == pick:
                    continue
                piece = fm.wedge(piece, fm.scale(A.invert(v), fm.d_elem(v)))
            raw = raw + Fraction(coeff * (-1) ** pick) * piece
    return quotient_class(raw, FULL), base


REFERENCE_ALGEBRAS = [Algebra(1, 4), Algebra(2, 3),
                      Algebra(1, 3, params=[("a", False), ("b", True)]),
                      Algebra(2, 3, params=[("b", True)])]


@st.composite
def _unit(draw, A, s=None):
    """s*(1+x) with x nilpotent or 0; s, unless given, is c*b^e over the invertible parameters."""
    if s is None:
        spexp = tuple(draw(st.integers(-2, 2)) if p.invertible else 0 for p in A.params)
        s = A.element({(spexp, (0,) * A.m): draw(st.sampled_from([1, 1, 2, Fraction(-1, 3)]))})
    pexps = st.tuples(*(st.integers(-1 if p.invertible else 0, 1) for p in A.params))
    texps = st.sampled_from([e for e in A.nil_basis if sum(e)])
    x = draw(st.dictionaries(st.tuples(pexps, texps),
                             st.fractions(-2, 2, max_denominator=2), max_size=2))
    return s * (A.one() + A.element(x))


@st.composite
def _symbol_sum(draw):
    A = draw(st.sampled_from(REFERENCE_ALGEBRAS))
    arity = draw(st.integers(1, 4))
    terms = draw(st.lists(st.tuples(st.sampled_from([-2, -1, 1, 3]),
                                    st.tuples(*[_unit(A)] * arity)), min_size=1, max_size=2))
    return SymbolSum(A, arity, terms)


@settings(max_examples=60, deadline=None)
@given(s=_symbol_sum(), slot=st.sampled_from(["first", "last"]))
def test_bloch_matches_reference(s, slot):
    rep, base = _bloch_reference(s, slot)
    cl = bloch(s, slot)
    assert cl.rep == rep
    assert cl.base == base


@settings(max_examples=60, deadline=None)
@given(s=_symbol_sum())
def test_dlog_symbol_matches_wedge_of_canonical_dlogs(s):
    want = zero_form(s.algebra, s.arity)
    for c, (u, *rest) in s.terms:
        piece = fm.dlog(u)
        for v in rest:
            piece = fm.wedge(piece, fm.dlog(v))
        want = want + c * piece
    assert dlog_symbol(s) == want


@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("slot", ["first", "last"])
def test_bloch_takes_one_wedge_chain_per_slot(monkeypatch, arity, slot):
    """Every entry has s != 1 (with dlog s != 0) and x != 0, so all 2^(n+1) - 1 sub-tensors
    could contribute; the closed form wedges n factors onto each of the n+1 slot logs."""
    A = Algebra(2, 4, params=[("a", True), ("b", True)])
    a, b, t1, t2 = A.var("a"), A.var("b"), A.var("t1"), A.var("t2")
    units = (a * (1 + t1), 2 * b ** -1 * (1 - t2 + t1 * t2),
             a * b * (1 + t1 * t2 + t2 ** 2), -(b ** 2) * (1 + t1 ** 2))[:arity]
    s = SymbolSum(A, arity, [(1, units), (-2, units[::-1])])
    want = bloch(s, slot)
    calls = []
    wedge_terms = fm.wedge_terms
    monkeypatch.setattr(fm, "wedge_terms", lambda *args: calls.append(1) or wedge_terms(*args))
    got = bloch(SymbolSum(A, arity, s.terms), slot)
    n = arity - 1
    assert 0 < len(calls) <= len(s.terms) * (n + 1) * n
    assert (got.rep, got.base) == (want.rep, want.base) and got.rep


GAP = Algebra(2, 6, ideal=[{(4, 0): 1, (2, 3): 1, (0, 5): 1}])
READ_PATH_ALGEBRAS = [Algebra(2, 4), Algebra(3, 4, ideal=[{(1, 1, 0): 1}, {(0, 0, 2): 1}]),
                      Algebra(2, 3, params=[("b", True)]),
                      Algebra(2, 5, ideal=[{(2, 0): 1, (0, 3): 1}]), GAP]


def _bloch_canonical_steps(s, slot):
    """The Bloch class with every piece a canonical Form: log(1+x) wedge the dlogs."""
    A = s.algebra
    out = fm.zero_form(A, s.arity - 1)
    for coeff, tup in s.terms:
        splits = [A.unit_split(u) for u in tup]
        for nil in product((False, True), repeat=s.arity):
            picks = [i for i in range(s.arity) if nil[i]]
            if not picks or any(not splits[i][1].terms for i in picks):
                continue
            pick = picks[0] if slot == "first" else picks[-1]
            piece = fm.form_of_element(A.log1p(splits[pick][1]))
            for j, (sj, xj) in enumerate(splits):
                if j != pick:
                    piece = fm.wedge(piece, fm.dlog(A.one() + xj if nil[j] else sj))
            out = out + Fraction(coeff * (-1) ** pick) * piece
    return quotient_class(out, FULL)


@st.composite
def _read_path_symbol(draw):
    A = draw(st.sampled_from(READ_PATH_ALGEBRAS))
    arity = draw(st.integers(2, 3))
    terms = draw(st.lists(st.tuples(st.sampled_from([-2, -1, 1, 3]),
                                    st.tuples(*[_unit(A)] * arity)), min_size=1, max_size=2))
    return SymbolSum(A, arity, terms)


@settings(max_examples=80, deadline=None)
@given(s=_read_path_symbol(), slot=st.sampled_from(["first", "last"]))
def test_bloch_from_raw_parts_matches_canonical_steps(s, slot):
    assert bloch(s, slot).rep == _bloch_canonical_steps(s, slot)


def _wedge_per_term(A, f, g):
    raw = {}
    for (m1, w1), c1 in f.items():
        for (m2, w2), c2 in g.items():
            sign, word = fm.merge_words(w1, w2)
            if sign:
                prod = A.mul_terms({m1: c1}, {m2: c2 * sign})
                vec_iadd(raw, {(mono, word): c for mono, c in prod.items()})
    return raw


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wedge_terms_matches_per_term_product(data):
    A = data.draw(st.sampled_from(READ_PATH_ALGEBRAS))
    u, v = data.draw(_unit(A)), data.draw(_unit(A))
    log = fm.form_of_element(A.log1p(A.unit_split(u)[1])).terms
    dlog_u = fm.d_terms(A, log)     # raw, as bloch wedges it
    dlog_v = fm.dlog(v).terms
    for f, g in [(log, dlog_v), (dlog_u, dlog_v), (dlog_v, dlog_u),
                 (fm.wedge_terms(A, dlog_u, dlog_v), dlog_v)]:
        assert fm.wedge_terms(A, f, g) == _wedge_per_term(A, f, g)


def test_bloch_parts_are_split_once_per_symbol():
    A = Algebra(2, 4, params=[("b", True)])
    t1, t2, b = A.var("t1"), A.var("t2"), A.var("b")
    entries = (b * (1 + t1 + t2 ** 2), 1 - t1 * t2, 2 * b ** -1 * (1 + t2))
    s = SymbolSum(A, 3, [(1, entries), (-2, entries[::-1])])
    first = bloch(s, "first")
    memo = dict(s._parts)
    assert set(memo) == set(entries)
    last = bloch(s, "last")
    assert all(s._parts[u] is parts for u, parts in memo.items())   # not split again
    fresh = bloch(SymbolSum(A, 3, s.terms), "last")
    assert (last.rep, last.base) == (fresh.rep, fresh.base)
    assert last.rep == first.rep


def test_symbol_arithmetic_starts_an_empty_memo():
    A = Algebra(2, 4)
    t1, t2 = A.gens()
    s = symbol(1 + t1, 1 - t2 + t1 * t2)
    bloch(s)
    both = s + swap_symbol(s)
    assert s._parts and both._parts == {} and both._parts is not s._parts
    assert bloch(both).is_zero() and len(both._parts) == 2


_unit_parts = Algebra._unit_parts


def _unit_parts_by_product(A, u):
    """Algebra._unit_parts with x = u*s^-1 - 1 always formed by a product."""
    s, s_inv, _ = _unit_parts(A, u)
    return s, s_inv, u * s_inv - A.one()


def _bases(A, kind):
    """Unit parts s = 1, constants other than 1, and powers of the invertible parameter b."""
    if kind == "one":
        return [A.one()]
    if kind == "const":
        return [A.const(2), A.const(-1), A.const(Fraction(-1, 3))]
    b = A.var("b")
    return [b, 2 * b ** -2, Fraction(-1, 3) * b ** 2]


UNIT_ALGEBRAS = {"one": READ_PATH_ALGEBRAS, "const": READ_PATH_ALGEBRAS,
                 "param": [Algebra(1, 3, params=[("a", False), ("b", True)]),
                           Algebra(2, 3, params=[("b", True)])]}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(UNIT_ALGEBRAS)))
def test_unit_parts_shortcut_matches_product(data, kind):
    A = data.draw(st.sampled_from(UNIT_ALGEBRAS[kind]))
    bases = st.sampled_from(_bases(A, kind))
    units = data.draw(st.lists(bases.flatmap(lambda s: _unit(A, s)), min_size=2, max_size=3))
    terms = [(1, tuple(units)), (-2, tuple(units[::-1]))]

    def results():
        cl = bloch(SymbolSum(A, len(units), terms))
        return [A.unit_split(u) for u in units], [A.invert(u) for u in units], cl.rep, cl.base

    fast = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Algebra, "_unit_parts", _unit_parts_by_product)
        assert results() == fast


@pytest.mark.parametrize("arity", [0, -1])
def test_symbol_sum_refuses_arity_below_one(arity):
    """An arity-0 sum once printed the degree -1 class "[0] (zero)" under bloch while
    dlog_symbol failed to unpack it."""
    with pytest.raises(ValueError, match=f"arity at least 1, not {arity}"):
        SymbolSum(Algebra(2, 3), arity, [(1, ())] if arity == 0 else [])


@pytest.mark.parametrize("entries", [(2, 3), ()], ids=repr)
def test_symbol_needs_an_algebra_element(entries):
    """symbol() once took its algebra with a bare next(), so it raised StopIteration."""
    with pytest.raises(ValueError, match="needs an algebra element among its entries"):
        symbol(*entries)
