import random
from fractions import Fraction

import pytest

from nilbloch import dense
from nilbloch import derham as dr
from nilbloch.algebra import Algebra
from nilbloch.parser import polynomial_terms
from nilbloch.singularities import (hypersurface_h_dim, jacobian, milnor_number,
                                    singularity_report, tyurina_number)

CURVE = {(4, 0): 1, (2, 3): 1, (0, 5): 1}
REIFFEN = {(4, 0): 1, (1, 4): 1}


def test_degenerate_plane_curve():
    mu, n_used, stab = milnor_number(CURVE)
    assert (mu, n_used, stab) == (12, 7, 6)
    tau, _ = tyurina_number(CURVE)
    assert tau == 11
    rep = singularity_report(CURVE)
    assert (rep.mu, rep.tau, rep.h_dim) == (12, 11, 1)
    assert rep.to_json()["gap"] == 1
    assert polynomial_terms(rep.f) == CURVE


def test_jacobian_keeps_the_nonzero_partials():
    assert jacobian(CURVE) == [{(3, 0): 4, (1, 3): 2}, {(2, 2): 3, (0, 4): 5}]
    assert jacobian({(3, 0): 1}) == [{(2, 0): 3}]
    assert jacobian({(0, 0, 2): 1, (1, 0, 0): 0}) == [{(0, 0, 1): 2}]
    assert jacobian({}) == []
    assert jacobian(polynomial_terms("t1^2*t2 - t1^2*t2")) == []


def test_reiffen_curve():
    assert milnor_number(REIFFEN)[0] == 13
    assert tyurina_number(REIFFEN)[0] == 13
    assert singularity_report(REIFFEN).h_dim == 0


def test_quasi_homogeneous_gap_zero():
    rep = singularity_report({(3, 0): 1, (0, 3): 1})
    assert (rep.mu, rep.tau, rep.h_dim) == (4, 4, 0)
    rep = singularity_report({(2, 0): 1, (0, 2): 1})
    assert (rep.mu, rep.tau, rep.h_dim) == (1, 1, 0)


def test_one_variable_powers():
    for k in range(1, 6):
        mu, _, _ = milnor_number({(k + 1,): 1})
        assert mu == k


def test_accepts_algebra_elements():
    A = Algebra(2, 6)
    t1, t2 = A.nil(0), A.nil(1)
    mu, _, _ = milnor_number(t1 ** 3 + t2 ** 3)
    assert mu == 4


def test_stabilized_value_insensitive_to_bound():
    assert milnor_number(CURVE, n_max=24)[0] == milnor_number(CURVE, n_max=12)[0]


def test_h_dim_stable_past_certified_truncation():
    assert hypersurface_h_dim(CURVE, 7) == hypersurface_h_dim(CURVE, 8) == 1


@pytest.mark.parametrize("f, h", [({(3, 0): 1, (0, 2): 1}, 0), ({(5, 0): 1, (0, 2): 1}, 0),
                                  ({(4, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, 0), (CURVE, 1)],
                         ids=["A2", "A4", "A3_m3", "gap_curve"])
def test_h_dim_solves_class_rows(monkeypatch, f, h):
    """h stays solved: for the quasi-homogeneous A_k, mu = tau is the theorem checked."""
    built = []
    real = dr._Relative.class_rows
    monkeypatch.setattr(dr._Relative, "class_rows",
                        lambda self, n, key: built.append(n) or real(self, n, key))
    assert hypersurface_h_dim(f, 7) == h
    assert built


def test_mu_dominates_tau():
    for f in [CURVE, REIFFEN, {(3, 0): 1, (0, 4): 1}, {(5,): 1}]:
        assert milnor_number(f)[0] >= tyurina_number(f)[0]


def test_rejects_non_critical_origin():
    with pytest.raises(ValueError, match="origin not critical"):
        milnor_number({(1, 0): 1, (0, 2): 1})
    with pytest.raises(ValueError, match="origin not critical"):
        milnor_number({(0, 0): 1, (2, 0): 1})
    with pytest.raises(ValueError, match="origin not critical"):
        milnor_number({})


def test_rejects_non_isolated():
    with pytest.raises(ValueError, match="isolated singularity not detected"):
        milnor_number({(2, 2): 1}, n_max=8)


def test_rejects_parameters():
    A = Algebra(1, 4, params=[("a", False)])
    with pytest.raises(ValueError, match="parameters"):
        milnor_number(A.var("a") * A.nil(0) ** 2)


def _ade_curves(rng):
    """Plane ADE normal forms and E_12, Z_11 with random nonzero rational coefficients,
    each also with random terms of higher weighted degree: semi-quasi-homogeneous, so
    isolated with the same mu. tau falls only where such a term holds the modulus
    monomial, which E_12 and Z_11 always get (ADE are quasi-homogeneous up to
    coordinates)."""
    q = lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
    families = [((k + 1, 0), (0, 2), ()) for k in range(1, 7)]                 # A_k
    families += [((2, 1), (0, k - 1), ()) for k in range(4, 8)]                # D_k
    families += [((3, 0), (0, 4), ()), ((3, 0), (1, 3), ()), ((3, 0), (0, 5), ())]
    families += [((3, 0), (0, 7), ((1, 5),)), ((3, 1), (0, 5), ((1, 4),))]     # E_12, Z_11
    for a, b, modulus in families:
        # weights w with w . a = w . b = 1; a monomial e lies above when w . e > 1
        det = a[0] * b[1] - a[1] * b[0]
        w = (Fraction(b[1] - a[1], det), Fraction(a[0] - b[0], det))
        above = [(i, j) for i in range(7) for j in range(7)
                 if i + j <= 7 and i * w[0] + j * w[1] > 1]
        yield {a: q(), b: q()}
        yield {**{e: q() for e in rng.sample(above, 3) + list(modulus)}, a: q(), b: q()}


def test_tau_from_milnor_algebra_matches_dense_oracle():
    """tau = mu - rank(f*M) in the certified Milnor algebra M equals the dense oracle's
    own stabilization over J_f + (f), on ADE curves, the gap curve, Reiffen and m = 3."""
    rng = random.Random(29)
    q = lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
    cases = [(f, 2) for f in _ade_curves(rng)]
    cases += [({e: q() for e in CURVE}, 2) for _ in range(3)] + [(CURVE, 2), (REIFFEN, 2)]
    cases += [({e: q() for e in REIFFEN}, 2),
              ({(4, 0, 0): q(), (0, 2, 0): q(), (0, 0, 2): q(), (2, 1, 1): q()}, 3),
              ({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): q()}, 3)]
    gaps = 0
    for f, m in cases:
        mu, n_used, _ = milnor_number(f)
        tau, n_tau = tyurina_number(f)
        assert n_tau == n_used
        assert tau == dense.tyurina_number(f, m)[0], f
        assert mu == dense.milnor_number(f, m)[0], f
        gaps += mu > tau
    assert gaps >= 6


def test_report_interns_the_milnor_algebra_and_r_prime_only(fresh_rings):
    from nilbloch.algebra import _RINGS
    rep = singularity_report(CURVE)
    assert (rep.mu, rep.tau, rep.h_dim, rep.N_used) == (12, 11, 1, 7)
    assert sorted((A.m, A.N, len(A.ideal_gens)) for A in _RINGS.values()) == [(2, 7, 1), (2, 7, 2)]
