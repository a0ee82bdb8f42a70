import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilbloch.algebra import (MAX_FORM_COORDS, MAX_RINGS, Algebra, RingMap, _RINGS,
                              _ideal_rows, _q, monomials_below, poly_terms, power_algebra)
from nilbloch.linalg import RowSpace
from nilbloch.parser import algebra_from_json

A = Algebra(2, 4)
B = Algebra(1, 5, params=[("a", False), ("b", True)])

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def elem_strategy(alg, monos=None):
    if monos is None:
        monos = [((0,) * alg.n_params, e) for e in alg.nil_basis]
    return st.dictionaries(st.sampled_from(monos), coeffs, max_size=4).map(
        lambda d: alg.element(d))


elems = elem_strategy(A)
b_monos = [((i, j), (k,)) for i in range(2) for j in range(-1, 2) for k in range(5)]
b_elems = elem_strategy(B, b_monos)


@given(x=elems, y=elems, z=elems)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + A.zero() == x
    assert x * A.one() == x
    assert x - x == A.zero()


@given(x=b_elems, y=b_elems)
def test_parametric_ring_laws(x, y):
    assert x * y == y * x
    assert (x + y) - y == x


def test_truncation_kills_high_degrees():
    t1, t2 = A.nil(0), A.nil(1)
    assert t1 ** 4 == A.zero()
    assert (t1 * t2) ** 2 == A.zero()
    assert t1 ** 3 * t2 == A.zero()
    assert t1 ** 3 != A.zero()


def test_monomial_ideal_reduction():
    C = Algebra(2, 5, ideal=[{(2, 1): 1}, {(0, 3): 1}])
    assert C.monomial_ideal
    t1, t2 = C.nil(0), C.nil(1)
    assert t1 ** 2 * t2 == C.zero()
    assert t2 ** 3 == C.zero()
    assert t1 ** 2 != C.zero()
    assert t1 ** 2 * t2 ** 2 == C.zero()


def test_general_ideal_reduction():
    C = Algebra(2, 5, ideal=[{(3, 0): 1, (0, 3): 1}])
    assert not C.monomial_ideal
    t1, t2 = C.nil(0), C.nil(1)
    assert t1 ** 3 + t2 ** 3 == C.zero()
    assert t1 ** 3 == -(t2 ** 3)
    assert t1 ** 4 == -(t1 * t2 ** 3)


def test_augmentation_and_units():
    x = A.one() + A.nil(0)
    assert x.is_unit()
    assert not A.nil(0).is_unit()
    assert A.nil(0).is_nilpotent()
    assert not x.is_nilpotent()
    assert (A.const(3) * x).augmentation() == 3


@given(x=elems)
def test_invert_units(x):
    u = A.one() + x.nil_part()
    assert u * A.invert(u) == A.one()


def test_unit_split():
    t = B.nil(0)
    a, b = B.var("a"), B.var("b")
    u = B.const(2) * b * (B.one() + a * t)
    s, x = B.unit_split(u)
    assert s * (B.one() + x) == u
    assert x.is_nilpotent()
    with pytest.raises(ValueError, match="not a unit"):
        B.unit_split(a * t)
    with pytest.raises(ValueError, match="not a unit"):
        B.unit_split(a)   # non-invertible parameter


def test_invertible_parameter_powers():
    b = B.var("b")
    assert b.is_unit()
    assert b ** -1 * b == B.one()
    with pytest.raises(ValueError, match="negative exponent"):
        B.element({((-1, 0), (0,)): 1})


@given(x=elems, y=elems)
def test_log_of_product(x, y):
    u, v = x.nil_part(), y.nil_part()
    lhs = A.log1p(u) + A.log1p(v)
    rhs = A.log1p(u + v + u * v)
    assert lhs == rhs


@given(x=elems)
def test_exp_log_inverse(x):
    u = x.nil_part()
    assert A.exp_nil(A.log1p(u)) == A.one() + u
    assert A.log1p(A.exp_nil(u) - A.one()) == u


def test_log_exp_require_nilpotent():
    with pytest.raises(ValueError):
        A.log1p(A.one())
    with pytest.raises(ValueError):
        A.exp_nil(A.one() + A.nil(0))


@given(x=elems, y=elems)
def test_substitute_is_multiplicative(x, y):
    target = Algebra(1, 4)
    t = target.nil(0)
    rmap = RingMap(A, target, {"t1": t, "t2": t ** 2})
    assert rmap(x * y) == rmap(x) * rmap(y)
    assert rmap(x + y) == rmap(x) + rmap(y)


def test_substitute_rejects_non_nilpotent_images():
    target = Algebra(1, 4)
    with pytest.raises(ValueError, match="substitution"):
        A.substitute(A.nil(0), {"t1": target.one(), "t2": target.zero()},
                     target)


def test_constructor_validation():
    with pytest.raises(ValueError, match="degree-zero"):
        Algebra(1, 3, ideal=[{(0,): 1, (2,): 1}])
    with pytest.raises(ValueError, match="parametric mode requires"):
        Algebra(2, 4, ideal=[{(3, 0): 1, (0, 3): 1}], params=[("a", False)])
    with pytest.raises(ValueError, match="bad parameter name"):
        Algebra(1, 3, params=[("exp", False)])
    with pytest.raises(ValueError, match="begin with 'd'"):
        Algebra(1, 3, params=[("delta", False)])
    with pytest.raises(ValueError, match="duplicate"):
        Algebra(1, 3, params=[("t", False)])


def test_element_printing_descends_by_degree():
    t1, t2 = A.nil(0), A.nil(1)
    e = A.one() + t1 + 2 * t2 ** 2 - t1 * t2 ** 2
    assert str(e) == "-t1*t2^2+2*t2^2+t1+1"
    assert str(A.zero()) == "0"


def test_describe_round_trip_fields():
    d = B.describe()
    assert d["nilpotents"] == 1
    assert d["bound"] == 5
    assert d["params"] == [{"name": "a", "invertible": False},
                           {"name": "b", "invertible": True}]


def test_power_algebra():
    P = power_algebra(2, 3)
    assert P.m == 2
    assert P.N == 3
    assert len(P.nil_basis) == 6


def repeated_product(x, n):
    out = x.algebra.one()
    for _ in range(n):
        out = out * x
    return out


C = Algebra(2, 5, ideal=[{(3, 0): 1, (0, 3): 1}])
c_elems = elem_strategy(C)


@given(x=st.one_of(elems, b_elems, c_elems), n=st.integers(min_value=0, max_value=12))
def test_pow_matches_repeated_product(x, n):
    assert x ** n == repeated_product(x, n)


@given(x=st.one_of(elems, b_elems, c_elems), n=st.integers(min_value=1, max_value=12))
def test_negative_pow_of_units(x, n):
    u = x.algebra.one() + x.nil_part()
    assert u ** -n == repeated_product(x.algebra.invert(u), n)
    assert u ** -n * u ** n == x.algebra.one()


def test_pow_of_nilpotent_with_huge_exponent_is_zero():
    t = A.nil(0)
    assert t ** 30000000 == A.zero()
    assert (t + A.nil(1)) ** (10 ** 12) == A.zero()
    assert A.one() ** (10 ** 12) == A.one()


def test_form_coordinate_budget():
    assert MAX_FORM_COORDS == 2_000_000
    assert len(Algebra(8, 8).nil_basis) == 6435      # 2^8 * 6435 = 1,647,360 coordinates
    with pytest.raises(ValueError, match="have 12446720 coordinates, above the limit 2000000"):
        Algebra(9, 9)
    with pytest.raises(ValueError, match="over 2\\^1000000000 coordinates"):
        Algebra(10 ** 9, 10 ** 9)


def _untruncated_product(alg, u, v):
    """Reference u * v: every pair multiplied, nothing dropped, then one normal_form."""
    raw = {}
    for (p1, t1), c1 in u.items():
        for (p2, t2), c2 in v.items():
            k = (tuple(a + b for a, b in zip(p1, p2)), tuple(a + b for a, b in zip(t1, t2)))
            raw[k] = raw.get(k, 0) + c1 * c2
    return alg.normal_form({k: c for k, c in raw.items() if c})


def _random_normal_form(alg, rng, pexps):
    values = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    monos = [(p, t) for p in pexps for t in monomials_below(alg.m, alg.N)]
    return alg.element({rng.choice(monos): rng.choice(values)
                        for _ in range(rng.randint(0, 6))}).terms


@pytest.mark.parametrize("alg, pexps", [
    (Algebra(3, 4), [()]),
    (Algebra(2, 5, ideal=[{(2, 1): 1}, {(0, 3): 1}], params=[("a", False)]),
     [(0,), (1,), (2,)]),
    (Algebra(2, 5, ideal=[{(1, 2): 1}], params=[("a", False), ("b", True)]),
     [(i, j) for i in range(2) for j in range(-2, 3)]),
    (Algebra(2, 6, ideal=[{(2, 0): 1, (0, 3): 1}]), [()]),
    (Algebra(2, 7, ideal=[{(4, 0): 1, (2, 3): 1, (0, 5): 1}]), [()]),
])
def test_mul_terms_matches_normal_form_of_untruncated_product(alg, pexps):
    rng = random.Random(17)
    for _ in range(150):
        u = _random_normal_form(alg, rng, pexps)
        v = _random_normal_form(alg, rng, pexps)
        prod = alg.mul_terms(u, v)
        assert prod == _untruncated_product(alg, u, v)
        assert prod == alg.normal_form(prod)
        assert all(c and type(c) in (int, Fraction) for c in prod.values())


def test_mul_terms_products_that_cancel_to_zero():
    squares = Algebra(2, 5, ideal=[{(2, 0): 1}, {(0, 2): 1}])
    binomial = Algebra(2, 5, ideal=[{(2, 0): 1, (0, 2): -1}])
    for alg in (squares, binomial):
        # t1 t2 cancels inside the loop; t1^2 - t2^2 lies in the ideal
        t1, t2 = alg.nil(0), alg.nil(1)
        assert alg.mul_terms((t1 + t2).terms, (t1 - t2).terms) == {}
    C = Algebra(2, 5, ideal=[{(2, 1): 1}], params=[("b", True)])
    t1, t2, b = C.nil(0), C.nil(1), C.var("b")
    assert C.mul_terms((b * t1 ** 2).terms, (b ** -1 * t2).terms) == {}    # dead monomial
    assert C.mul_terms((t1 ** 3).terms, (t1 * t2).terms) == {}      # degree 5 = N
    u, v = (b + t1).terms, (b ** -1 - b ** -2 * t1).terms      # t1 b^-1 cancels
    assert C.mul_terms(u, v) == _untruncated_product(C, u, v)
    assert C.mul_terms(u, v) == (C.one() - b ** -2 * t1 ** 2).terms


def test_q_keeps_a_fraction_and_converts_the_rest():
    half = Fraction(1, 2)
    assert _q(half) is half
    assert _q(Fraction(4, 2)) == 2 and type(_q(Fraction(4, 2))) is int
    assert _q(0.5) == half and type(_q(0.5)) is Fraction
    assert _q(3) == 3 and type(_q(True)) is int


def _ideal_rows_every_u(m, gens, bound):
    """_ideal_rows as it would be with every monomial u below the bound listed."""
    rows = RowSpace(order=lambda e: (sum(e), e))
    for g in gens:
        for u in monomials_below(m, bound):
            rows.insert({tuple(x + y for x, y in zip(u, e)): c
                         for e, c in g.items() if sum(u) + sum(e) < bound})
    return rows


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ideal_rows_match_listing_every_monomial(data):
    m = data.draw(st.integers(1, 3))
    bound = data.draw(st.integers(2, 6))
    exps = st.tuples(*[st.integers(0, 3)] * m).filter(any)
    gen = st.dictionaries(exps, coeffs.filter(bool), min_size=2, max_size=3)
    gens = data.draw(st.lists(gen, min_size=1, max_size=3))
    unit = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    mixed = {unit[0]: 1, tuple(3 * x for x in unit[-1]): -2}       # degrees 1 and 3
    high = {tuple(bound * x for x in unit[0]): 1, tuple((bound + 1) * x for x in unit[-1]): 3}
    gens = [poly_terms(g) for g in gens + [mixed, high]]
    want = _ideal_rows_every_u(m, gens, bound)
    assert _ideal_rows(m, gens, bound).rows == want.rows


# -- one instance per ring ---------------------------------------------------------


def test_equal_specs_give_one_ring():
    cusp = [{(2, 0): 1, (0, 3): 1}]
    A = Algebra(2, 5, ideal=cusp)
    # an integral Fraction is the int, and a zero generator adds nothing
    assert Algebra(2, 5, ideal=[{(2, 0): Fraction(1), (0, 3): 1}, {(1, 1): 0}]) is A
    assert algebra_from_json({"nilpotents": 2, "bound": 5, "ideal": ["t1^2+t2^3"]}) is A
    P = Algebra(1, 3, params=[("a", False), ("b", True)])
    assert algebra_from_json({"nilpotents": 1, "bound": 3, "params": [
        {"name": "a"}, {"name": "b", "invertible": True}]}) is P
    assert Algebra(2, 5).nil(0) == Algebra(2, 5).nil(0)     # one ring, so equal elements


def test_different_specs_give_different_rings():
    g, h = {(2, 0): 1}, {(0, 3): 1}
    assert Algebra(2, 5, ideal=[g, h]) is not Algebra(2, 5, ideal=[h, g])
    rings = [Algebra(1, 3), Algebra(1, 3, params=[("a", False)]),
             Algebra(1, 3, params=[("a", True)]), Algebra(1, 3, params=[("b", False)])]
    assert len(set(map(id, rings))) == len(rings)


def test_ring_table_keeps_the_most_recent_rings():
    rings = [Algebra(1, N) for N in range(1, MAX_RINGS + 6)]
    assert len(_RINGS) <= MAX_RINGS
    assert all(r is not rings[0] for r in _RINGS.values())
    assert Algebra(1, MAX_RINGS + 5) is rings[-1]
    assert Algebra(1, 1) is not rings[0]        # the oldest was dropped


@pytest.mark.parametrize("gen", [{(1, 0, 1): 1}, {(1,): 1}], ids=["long", "short"])
def test_malformed_explicit_generators_are_refused(gen):
    """An EXPLICIT relative builds its R/I as an Algebra, so it gets the same check: the
    long generator once gave a table with degree-1 dim 15, the short one an IndexError."""
    from nilbloch.derham import EXPLICIT, cohomology
    with pytest.raises(ValueError, match=r"is not m = 2 nonnegative integers"):
        cohomology(Algebra(2, 4), EXPLICIT([gen]))


@pytest.mark.parametrize("kwargs, message", [
    (dict(params=[("d", False)]), "must not begin with 'd'"),
    (dict(ideal=[{(0, 0): 1, (1, 0): 1}]), "degree-zero ideal generators"),
    (dict(ideal=[{(1, 1): 1, (2, 0): 1}], params=[("a", False)]), "requires monomial ideal"),
    # malformed exponents: once a ring described as t1, an IndexError in describe(),
    # and a ring described as t1^-1*t2^2
    (dict(ideal=[{(1,): 1}]), "is not m = 2 nonnegative integers"),
    (dict(ideal=[{(1, 0, 5): 1, (0, 1): 1}]), "is not m = 2 nonnegative integers"),
    (dict(ideal=[{(-1, 2): 1}]), "is not m = 2 nonnegative integers"),
    (dict(ideal=[{(Fraction(1), 1): 1}]), "is not m = 2 nonnegative integers"),
], ids=["param_name", "degree_zero", "parametric_non_monomial",
        "exponent_short", "exponent_long", "exponent_negative", "exponent_fraction"])
def test_failed_construction_is_not_kept(kwargs, message):
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            Algebra(2, 5, **kwargs)


@pytest.mark.parametrize("key", [1, None, 2.5], ids=["int", "none", "float"])
def test_exponent_that_is_no_tuple_is_refused(key):
    """poly_terms once raised TypeError "'int' object is not iterable" here."""
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"exponent {key!r} is not a tuple of integers"):
            Algebra(1, 3, ideal=[{key: 1}])
    with pytest.raises(ValueError, match="is not a tuple of integers"):
        poly_terms({(1,): 2, key: 1})


@pytest.mark.parametrize("args, message", [
    ((0, 3), "need at least one nilpotent variable"),
    ((2, 0), "nilpotency bound must be at least 1"),
], ids=["no_nilpotent", "zero_bound"])
def test_degenerate_algebra_is_refused(args, message):
    before = list(_RINGS.items())
    with pytest.raises(ValueError, match=message):
        Algebra(*args)
    assert list(_RINGS.items()) == before


@pytest.mark.parametrize("args, kwargs, error", [
    ((2, 3.0), {}, TypeError),
    ((2, 3), dict(ideal=[{(1, 0): "x"}]), ValueError),
], ids=["float_bound", "text_coefficient"])
def test_input_without_a_ring_key_raises_and_is_not_kept(args, kwargs, error):
    before = list(_RINGS.items())
    for _ in range(2):
        with pytest.raises(error):
            Algebra(*args, **kwargs)
    assert list(_RINGS.items()) == before
