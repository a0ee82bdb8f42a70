from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilbloch import dense
from nilbloch.dense import (DenseModel, _eliminate, _in_echelon, _rank, milnor_number,
                            poly_diff, poly_mul, poly_truncate, quotient_dimension,
                            stabilized_quotient, tyurina_number)

CURVE = {(4, 0): 1, (2, 3): 1, (0, 5): 1}


def test_truncation_dims():
    model = DenseModel(1, 4, [])
    assert len(model.coords(0)) == 4
    assert len(model.coords(1)) == 4
    rows = model.cohomology(None)
    assert all(h == 0 for (_, _, _, _, h) in rows)


def test_full_relative_cohomology_vanishes_m2():
    model = DenseModel(2, 3, [])
    for (n, dim, dim_ker, dim_im, h) in model.cohomology(None):
        assert h == 0, n
    assert model.cohomology(None)[0][1] == 5


def test_power_relative_cohomology_vanishes():
    model = DenseModel(1, 5, [])
    rel = [{(3,): Fraction(1)}]
    for (n, dim, dim_ker, dim_im, h) in model.cohomology(rel):
        assert h == 0, n


def test_milnor_numbers_pinned():
    assert milnor_number({(2,): 1}, 1)[0] == 1
    for k in (2, 3, 4):
        assert milnor_number({(k + 1,): 1}, 1)[0] == k
    assert milnor_number({(3, 0): 1, (0, 3): 1}, 2)[0] == 4
    assert milnor_number(CURVE, 2)[0] == 12
    assert tyurina_number(CURVE, 2)[0] == 11
    assert milnor_number({(4, 0): 1, (1, 4): 1}, 2)[0] == 13
    assert tyurina_number({(4, 0): 1, (1, 4): 1}, 2)[0] == 13


def test_jacobian_quotient_dimension_truncated():
    gens = [{(3, 0): 4, (1, 3): 2}, {(2, 2): 3, (0, 4): 5}]
    assert quotient_dimension(2, 6, gens) == 12


def test_stabilization_monotone():
    gens = [{(3, 0): 4, (1, 3): 2}, {(2, 2): 3, (0, 4): 5}]
    dim, n_used, d_stab = stabilized_quotient(lambda N: gens, 2, 6, 24)
    assert dim == 12
    assert d_stab < n_used
    dim2, _, _ = stabilized_quotient(lambda N: gens, 2, n_used + 1, 24)
    assert dim2 == dim


def test_gap_quotient_h1():
    model = DenseModel(2, 7, [CURVE])
    rows = model.cohomology(None)
    by_deg = {n: h for (n, _, _, _, h) in rows}
    assert by_deg[1] == 1
    assert by_deg[0] == 0


def test_exactness_verdicts():
    model = DenseModel(1, 3, [])
    # 2t dt = d(t^2) and dt = d(t) with t, t^2 in (t)
    assert model.is_exact(1, {((1,), (0,)): Fraction(2)}, None)
    assert model.is_exact(1, {((0,), (0,)): Fraction(1)}, None)
    # dt is not d of a (t^2)-relative form
    assert not model.is_exact(1, {((0,), (0,)): Fraction(1)},
                              [{(2,): Fraction(1)}])


def test_quotient_dims_are_memoized():
    model = DenseModel(2, 4, [])
    gens = [{(2, 0): Fraction(1)}]
    first = model.quotient_dims(1, gens)
    assert model.quotient_dims(1, [dict(g) for g in gens]) is first
    assert model.quotient_dims(1, None) is not first
    assert model.is_exact(2, {((0, 0), (0, 1)): Fraction(1)}, None)
    assert model.quotient_dims(1, None) is model.quotient_dims(1, None)


def test_gens_key_ignores_number_type_and_zero_terms():
    model = DenseModel(1, 4, [])
    first = model.quotient_dims(0, [{(2,): 1}])
    assert model.quotient_dims(0, [{(2,): Fraction(1)}]) is first
    assert model.quotient_dims(0, [{(2,): Fraction(2, 2), (3,): 0}]) is first


# one model, FULL and EXPLICIT relatives with generators spelled several ways
PROBE_IDEAL = [{(3, 0): 1, (1, 2): Fraction(-2)}]
PROBE_RELS = [None, [{(1, 0): 1}], [{(1, 0): Fraction(1)}],
              [{(0, 2): Fraction(1)}, {(1, 1): 2}], [{(1, 1): 2}, {(0, 2): 1, (2, 0): 0}]]


def _exact_rows(model, n, rel_gens):
    """Relations plus d of every relative row one degree down, uneliminated."""
    rows = model.relation_rows(n)
    if n:
        rows = rows + [model.d_vec(n - 1, r) for r in model.relative_rows(n - 1, rel_gens)]
    return rows


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cached_is_exact_matches_rank_reference(data):
    model = DenseModel(2, 4, PROBE_IDEAL)
    probes = data.draw(st.lists(st.tuples(st.integers(0, 2),
                                          st.integers(0, len(PROBE_RELS) - 1)),
                                min_size=2, max_size=8))
    cut = data.draw(st.integers(0, len(probes)))
    coeffs = st.integers(-3, 3)
    for i, (n, r) in enumerate(probes):
        if i == cut:
            model.cohomology(PROBE_RELS[data.draw(st.integers(0, len(PROBE_RELS) - 1))])
        rel_gens = PROBE_RELS[r]
        rows = _exact_rows(model, n, rel_gens)
        ncols = len(model.coords(n))
        vec = [Fraction(0)] * ncols
        for j in data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
            c = data.draw(coeffs)
            vec = [x + c * y for x, y in zip(vec, rows[j])]
        for k in data.draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
            vec[k] += data.draw(coeffs)
        terms = {(model.monos[mono_i], w): c
                 for (mono_i, w), c in zip(model.coords(n), vec) if c}
        want = _rank(rows + [vec], ncols) == _rank(rows, ncols)
        assert model.is_exact(n, terms, rel_gens) == want, (n, rel_gens, i, cut)


def test_probes_of_one_span_eliminate_once(monkeypatch):
    calls = []
    eliminate = dense._eliminate

    def counted(rows, ncols):
        calls.append(ncols)
        return eliminate(rows, ncols)

    monkeypatch.setattr(dense, "_eliminate", counted)
    model = DenseModel(2, 4, [])
    spellings = [[{(2, 0): 1}], [{(2, 0): Fraction(1)}], [{(2, 0): Fraction(3, 3), (0, 1): 0}]]
    model.is_exact(1, {((1, 0), (0,)): Fraction(2)}, spellings[0])
    cold = len(calls)
    for i in range(19):
        # t1^a dt1 = d(t1^(a+1)/(a+1)) is (t1^2)-exact iff a >= 1; t1^a dt2 never is
        assert model.is_exact(1, {((i % 3, 0), (i % 2,)): Fraction(i + 1)},
                              spellings[i % 3]) is (i % 2 == 0 and i % 3 >= 1)
    assert len(calls) == cold


def test_relation_rows_differentiate_each_generator_once(monkeypatch):
    calls = []
    real = dense.poly_diff
    monkeypatch.setattr(dense, "poly_diff", lambda p, i: calls.append(i) or real(p, i))
    model = DenseModel(2, 5, [CURVE])
    model.relation_rows(1)
    assert len(calls) == 2 * len(model.all_gens)


def _relation_rows_every_u(model, n, extra_gens=()):
    """relation_rows with every monomial u listed, truncated products included."""
    rows = []
    for g in model.all_gens + [dict(g) for g in extra_gens]:
        dg = [poly_diff(g, i) for i in range(model.m)]
        for u in model.monos:
            prod = poly_truncate(poly_mul({u: 1}, g), model.N)
            for w in combinations(range(model.m), n):
                rows.append(model._vec(n, {(e, w): c for e, c in prod.items()}))
            for wp in combinations(range(model.m), n - 1) if n else ():
                terms = {}
                for i, dgi in enumerate(dg):
                    if i not in wp:
                        w, sign = tuple(sorted(wp + (i,))), (-1) ** sum(j < i for j in wp)
                        for e, c in poly_truncate(poly_mul({u: 1}, dgi), model.N).items():
                            terms[(e, w)] = terms.get((e, w), 0) + sign * c
                rows.append(model._vec(n, terms))
    return rows


FERMAT = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
RELATION_CASES = [(2, 7, [CURVE], ()), (3, 5, [FERMAT], ()),
                  (2, 6, [{(3, 0): 1, (1, 2): Fraction(-2)}],
                   [{(1, 0): 1, (0, 2): Fraction(1, 2)}, {(0, 5): 3}])]


@pytest.mark.parametrize("m, N, gens, extra", RELATION_CASES)
def test_relation_rows_match_listing_every_monomial(m, N, gens, extra):
    model = DenseModel(m, N, gens)
    for n in range(m + 1):
        ncols = len(model.coords(n))
        want = _eliminate(_relation_rows_every_u(model, n, extra), ncols)
        got = _eliminate(model.relation_rows(n, extra), ncols)
        assert [col for col, _ in got] == [col for col, _ in want], n
        assert all(_in_echelon(row, want) for _, row in got), n


def test_int_and_fraction_coefficients_give_one_model():
    rel = [{(1, 0): 1}, {(0, 2): Fraction(1)}]
    probes = [(1, {((1, 0), (0,)): 2}), (1, {((0, 0), (1,)): Fraction(1, 3)}),
              (2, {((0, 0), (0, 1)): 1}), (2, {((2, 0), (0, 1)): Fraction(5)})]
    as_int = DenseModel(2, 6, [CURVE, {(3, 0): 2, (1, 1): -1}])
    as_frac = DenseModel(2, 6, [{e: Fraction(c) for e, c in CURVE.items()},
                                {(3, 0): Fraction(4, 2), (1, 1): Fraction(-1)}])
    assert all(type(c) is int for g in as_frac.gens for c in g.values())
    for rel_gens in (None, rel):
        assert as_int.cohomology(rel_gens) == as_frac.cohomology(rel_gens)
        assert [as_int.is_exact(n, t, rel_gens) for n, t in probes] == \
            [as_frac.is_exact(n, t, rel_gens) for n, t in probes]


def test_eliminate_keeps_int_entries_of_a_monic_row():
    (c0, monic), (c1, scaled) = _eliminate([[1, 2, 0, -3], [2, 1, 1, 0]], 4)
    assert (c0, c1) == (0, 1)
    assert monic == [1, 2, 0, -3] and all(type(x) is int for x in monic)
    assert scaled == [0, 1, Fraction(-1, 3), -2] and type(scaled[1]) is Fraction
