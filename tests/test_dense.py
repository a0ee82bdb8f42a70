from fractions import Fraction

from nilbloch.dense import (DenseModel, milnor_number, quotient_dimension,
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
