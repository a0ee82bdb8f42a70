import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilbloch.algebra import Algebra, RingMap, monomials_below
from nilbloch.linalg import RowSpace, nullspace, vec_iadd
from nilbloch.parser import algebra_from_json
from nilbloch.forms import (Form, block_grades, block_key, coord_sort_key, d, d_elem,
                            euler_homotopy, form_block, form_str, push_form, scale,
                            split_blocks, zero_form)
from nilbloch.derham import (EXPLICIT, FULL, POWER, _pihat_box,
                             check_certificate,
                             cohomology, is_exact, quotient_class, relative,
                             relative_basis, sigma_report,
                             verify_forms_sequence)
from nilbloch.sampling import engine_corpus, random_rational

CURVE = {(4, 0): 1, (2, 3): 1, (0, 5): 1}
CURVE_JAC = [{(3, 0): 4, (1, 3): 2}, {(2, 2): 3, (0, 4): 5}]


def test_relative_dims_small():
    A = Algebra(2, 3)
    pres = relative(A, FULL)
    assert pres.dim(0) == 5          # t1, t2, t1^2, t1 t2, t2^2
    assert pres.dim(1) == 8
    assert pres.dim(2) == 3


def test_canonical_class_rep():
    A = Algebra(2, 3)
    t1, t2 = A.nil(0), A.nil(1)
    w = Form(A, 1, {(((), (2, 0)), (1,)): Fraction(1)})   # t1^2 dt2
    cl = quotient_class(w, FULL)
    assert cl.terms
    assert form_str(cl) == "-2 * t1*t2 * dt1"


def test_quotient_class_requires_relative_form():
    A = Algebra(2, 3)
    w = Form(A, 0, {(((), (0, 0)), ()): Fraction(1)})     # the constant 1
    with pytest.raises(ValueError, match="not relative"):
        quotient_class(w, FULL)


def test_vanishing_small_truncations():
    for m, N in [(1, 2), (1, 4), (2, 3), (3, 2)]:
        rep = cohomology(Algebra(m, N), FULL)
        assert rep.all_zero(), (m, N)


def test_cohomology_detects_gap_quotient():
    A = Algebra(2, 7, ideal=[CURVE])
    rep = cohomology(A, FULL)
    by_deg = {r["degree"]: r["dim_h"] for r in rep.rows}
    assert by_deg[1] == 1
    assert by_deg[0] == 0
    assert by_deg[2] == 0


def test_exactness_certificate_roundtrip():
    A = Algebra(1, 4)
    t = A.nil(0)
    w = d_elem(t ** 2 + t ** 3)
    cert = is_exact(w, FULL)
    assert cert.exact
    assert d(cert.primitive) == w
    assert check_certificate(cert, w, FULL)


def test_non_exact_certificate_roundtrip():
    A = Algebra(2, 7, ideal=[CURVE])
    rep = None
    for v in relative(A, FULL).rel_vectors(1):
        cl = quotient_class(Form(A, 1, v), FULL)
        if cl.terms:
            rep = cl
            break
    assert rep is not None
    cert = is_exact(rep, FULL)
    assert not cert.exact
    assert cert.witness is not None
    assert check_certificate(cert, rep, FULL)


def test_non_exact_explicit_certificate_roundtrip():
    A = Algebra(2, 6)
    pres = relative(A, EXPLICIT(CURVE_JAC))
    reps = [quotient_class(Form(A, 1, v, canonical=True), EXPLICIT(CURVE_JAC))
            for v in pres.rel_vectors(1)]
    rep = next(r for r in reps if r.terms)
    cert = is_exact(rep, EXPLICIT(CURVE_JAC))
    assert not cert.exact
    assert cert.witness_block == (0, ())   # the gap curve's Jacobian: w' = 0, one block
    assert all(block_key(pres.quotient, *c) == cert.witness_block for c in cert.witness)
    assert check_certificate(cert, rep, EXPLICIT(CURVE_JAC))
    assert not check_certificate(cert, zero_form(A, 1), EXPLICIT(CURVE_JAC))


def test_quasi_homogeneous_witness_checks_out():
    from nilbloch.ksymbols import bloch
    from nilbloch.parser import parse_symbol_sum
    A = algebra_from_json({"nilpotents": 3, "bound": 5, "ideal": ["t1^2+t2^3"]})
    assert A.weight == (3, 2, 1)
    rep = bloch(parse_symbol_sum("{1+t1+t3^2, 1+t2+t3}", A)).rep
    assert rep.terms
    cert = is_exact(rep, FULL)
    assert not cert.exact and cert.witness
    # the functional lives on the first failing weight block
    assert all(block_key(A, *coord) == cert.witness_block for coord in cert.witness)
    assert check_certificate(cert, rep, FULL)
    assert not check_certificate(cert, zero_form(A, 1), FULL)


def test_cutoff_drops_high_degrees():
    A = Algebra(1, 5)
    t = A.nil(0)
    w = d_elem(t ** 2) + d_elem(t ** 4)
    cert = is_exact(w, FULL, cutoff=2)
    assert cert.exact
    assert cert.primitive.internal_degrees() == [2]
    assert check_certificate(cert, w, FULL)


def test_cutoff_needs_graded_mode():
    A = Algebra(2, 5, ideal=[{(3, 0): 1, (0, 3): 1}])
    w = d_elem(A.nil(0) ** 2)
    with pytest.raises(ValueError, match="cutoff requires graded"):
        is_exact(w, FULL, cutoff=2)


def test_power_relative_subspace():
    A = Algebra(1, 5)
    pres = relative(A, POWER(3))
    assert pres.dim(0) == 2           # t^3, t^4
    assert pres.dim(1) == 2           # t^2 dt, t^3 dt
    w = d_elem(A.nil(0) ** 3)
    assert pres.is_relative(w)
    assert not pres.is_relative(d_elem(A.nil(0)))


def test_power_spec_validation():
    with pytest.raises(ValueError, match="invalid relative spec"):
        POWER(0)
    A = Algebra(2, 4)
    with pytest.raises(ValueError, match="invalid relative spec"):
        relative(A, POWER(2))
    B = Algebra(1, 3)
    with pytest.raises(ValueError, match="invalid relative spec"):
        relative(B, POWER(5))


@pytest.mark.parametrize("make, message", [
    (lambda: POWER(0), "power:k needs k >= 1, not 0"),
    (lambda: relative(Algebra(1, 3), POWER(99)), "power:99 needs k <= N = 3"),
    (lambda: relative(Algebra(2, 3), POWER(2)), "power:k needs m = 1, not m = 2"),
    (lambda: relative(Algebra(1, 4, ideal=[{(2,): 1, (3,): 1}]), POWER(2)),
     "power:k needs a monomial ideal"),
    (lambda: relative(Algebra(1, 3, params=[("a", False)]), EXPLICIT([{(1,): 1}])),
     "explicit generators need an algebra without parameters"),
], ids=["k_zero", "k_above_N", "two_nilpotents", "non_monomial", "explicit_parametric"])
def test_relative_spec_faults_are_named(make, message):
    with pytest.raises(ValueError, match="invalid relative spec: ") as err:
        make()
    assert str(err.value) == f"invalid relative spec: {message}"


def test_explicit_relative_membership():
    from nilbloch.forms import form_of_element
    A = Algebra(2, 6)
    pres = relative(A, EXPLICIT(CURVE_JAC))
    t1, t2 = A.nil(0), A.nil(1)
    g = 4 * t1 ** 3 + 2 * t1 * t2 ** 3
    assert pres.is_relative(form_of_element(g * t2))
    assert not pres.is_relative(form_of_element(t1))


def test_relative_basis_forms_are_relative():
    A = Algebra(1, 5)
    for rel in (FULL, POWER(2)):
        pres = relative(A, rel)
        for n in (0, 1):
            for w in relative_basis(A, rel, n):
                assert pres.is_relative(w)


def test_power_sequence_dimension_additivity():
    for N in (3, 4, 5):
        A = Algebra(1, N)
        rep = verify_forms_sequence(A, POWER(N - 1), FULL, degree=0)
        assert rep.passed
        assert rep.dim_inner_classes == 1
        assert rep.dim_outer_classes == N - 1
        assert rep.dim_quotient_classes == N - 2
        assert rep.correction_dim == 0
        for n in (1, 2):
            rep = verify_forms_sequence(A, POWER(N - 1), FULL, degree=n)
            assert rep.passed


def test_jacobian_sequence_with_correction():
    A = Algebra(2, 6)
    rep = verify_forms_sequence(A, EXPLICIT(CURVE_JAC), FULL, degree=1)
    assert rep.passed
    assert rep.dim_inner_classes == 11
    assert rep.dim_outer_classes == 15
    assert rep.dim_quotient_classes == 5
    assert rep.correction_dim == 1
    assert rep.alpha_injective
    # additivity: A = correction + B - C
    assert rep.dim_inner_classes == (rep.correction_dim
                                     + rep.dim_outer_classes
                                     - rep.dim_quotient_classes)


def test_sequence_rejects_parametric_mode():
    A = Algebra(1, 3, params=[("a", False)])
    with pytest.raises(ValueError, match="parameter-free"):
        verify_forms_sequence(A, POWER(2), FULL, degree=0)


def test_sigma_bijective_and_identity_case():
    for N in (2, 3, 4, 5):
        rep = sigma_report(N)
        assert rep.passed, N
    rows = sigma_report(3).rows
    assert all(r["bijective"] for r in rows)


def test_sigma_image_example():
    from nilbloch.algebra import RingMap
    from nilbloch.forms import push_form
    A2 = Algebra(1, 2)
    A3 = Algebra(1, 3)
    sigma = RingMap(A2, A3, {"t": A3.nil() ** 2})
    w = d_elem(A2.nil())
    assert form_str(push_form(sigma, w)) == "2 * t * dt"


def test_parametric_cohomology_blocks():
    A = Algebra(1, 3, params=[("a", False)])
    rep = cohomology(A, FULL, param_bound=2)
    assert rep.rows
    assert all(r["dim_h"] == 0 for r in rep.rows)
    assert {tuple(r["pihat"]) for r in rep.rows} == {(0,), (1,), (2,)}


@pytest.mark.parametrize("A, rel", [
    (Algebra(3, 5), FULL),
    (Algebra(3, 4, ideal=[{(2, 0, 0): 1}, {(0, 1, 1): 1}]), FULL),
    (Algebra(1, 6), POWER(3)),
    (Algebra(2, 6), EXPLICIT(CURVE_JAC)),
], ids=["full_R_3_5", "monomial_ideal_m3", "power3_m1", "explicit_jacobian"])
def test_rank_equals_merged_global_rank(A, rel):
    pres = relative(A, rel)
    ranks = [pres.rank(n) for n in range(A.m + 2)]
    assert ranks == [pres.global_class(n).rank for n in range(A.m + 2)]
    assert any(ranks)


def test_parametric_cohomology_two_nilpotents_invertible_param():
    rows = cohomology(Algebra(2, 3, params=[("a", True)]), FULL, param_bound=1).rows
    assert {tuple(r["pihat"]) for r in rows} == {(-1,), (0,), (1,)}
    assert any(r["dim"] for r in rows)
    assert all(r["dim_h"] == 0 for r in rows)


# An acyclic presentation counts its ranks instead of solving: the Euler
# contraction h satisfies dh + hd = i on block (i, pihat), so every relative
# block is acyclic. The tests below certify the identity and the count
# against the class_rows solve (solved_rank).

GRADED = ([Algebra(2, N) for N in range(2, 6)] + [Algebra(3, N) for N in range(2, 5)]
          + [Algebra(3, 4, ideal=[{(2, 0, 0): 1}, {(0, 1, 1): 1}])])
PARAMETRIC = Algebra(1, 4, params=[("a", False), ("b", True)])


@pytest.mark.parametrize("A, bound", [(A, 0) for A in GRADED] + [(PARAMETRIC, 2)],
                         ids=[f"m{A.m}_N{A.N}" for A in GRADED[:-1]]
                         + ["monomial_ideal_m3", "params_ab_bound2"])
def test_euler_homotopy_identity_on_every_block(A, bound):
    pres = relative(A, FULL)
    checked = 0
    for n in range(A.m + A.n_params + 1):
        for key in pres.block_keys(n, _pihat_box(A, bound)):
            for coord in form_block(A, n, key).basis:
                w = Form(A, n, {coord: 1})
                assert d(euler_homotopy(w)) + euler_homotopy(d(w)) == key[0] * w
                checked += 1
    assert checked


def test_rank_count_matches_solve_parametric():
    A = PARAMETRIC
    pres = relative(A, FULL)
    for p in _pihat_box(A, 2):
        for n in range(A.m + A.n_params + 2):
            assert pres.rank(n, [p]) == pres.solved_rank(n, [p])
    assert any(pres.rank(1, [p]) for p in _pihat_box(A, 2))


@pytest.mark.parametrize("N", range(2, 7))
def test_rank_count_matches_solve_every_power(N):
    A = Algebra(1, N)
    for k in range(1, N + 1):
        pres = relative(A, POWER(k))
        assert [pres.rank(n) for n in range(4)] == [pres.solved_rank(n) for n in range(4)]


@settings(max_examples=15, deadline=None)
@given(m=st.sampled_from([2, 3]), N=st.integers(3, 5), data=st.data())
def test_rank_count_matches_solve_monomial_ideal(m, N, data):
    exps = st.lists(st.integers(0, N - 1), min_size=m, max_size=m).map(tuple).filter(
        lambda e: 0 < sum(e) < N)
    gens = data.draw(st.lists(exps, min_size=1, max_size=3))
    A = Algebra(m, N, ideal=[{e: 1} for e in gens])
    pres = relative(A, FULL)
    assert [pres.rank(n) for n in range(m + 2)] == [pres.solved_rank(n) for n in range(m + 2)]


def test_graded_cohomology_builds_no_class_rows(fresh_rings):
    for A in [Algebra(3, 4), Algebra(1, 3, params=[("a", True)])]:
        rep = cohomology(A, FULL, param_bound=1 if A.n_params else None)
        assert rep.all_zero()
        assert relative(A, FULL)._class == {}
        assert "nil_basis" not in vars(A)   # no monomial listed
        if A.n_params:
            assert A._form_cache == {}      # counted from graded_dims
    big = algebra_from_json({"nilpotents": 8, "bound": 8, "ideal": ["t1*t2^3"]})
    assert "nil_basis" not in vars(big)


def test_parametric_table_and_class_build_no_other_ring(fresh_rings):
    """Parametric blocks and counted dims need no ring besides the algebra's own."""
    from nilbloch.algebra import _RINGS
    from nilbloch.ksymbols import bloch, symbol
    A = Algebra(2, 3, params=[("a", False), ("b", True)])
    assert cohomology(A, FULL, param_bound=1).all_zero()
    assert list(_RINGS.values()) == [A]
    fresh_rings()
    A = Algebra(1, 2, params=[("a", False), ("b", True)])
    eps, a, b = A.nil(0), A.var("a"), A.var("b")
    assert not bloch(symbol(A.one() + a * b * eps, b)).is_zero()
    assert list(_RINGS.values()) == [A]


@pytest.mark.parametrize("spec, rel", [
    ((3, 4), FULL),
    ((1, 6), POWER(2)),
    ((3, 4, [{(2, 0, 0): 1}, {(0, 1, 1): 1}]), FULL),
], ids=["full_m3", "power2_m1", "monomial_ideal_m3"])
def test_graded_cohomology_builds_no_form_block(spec, rel, fresh_rings):
    A = Algebra(*spec)
    assert cohomology(A, rel).all_zero()
    assert A._form_cache == {}          # dims counted per fine multidegree
    assert "nil_basis" not in vars(A)


@pytest.mark.parametrize("A, rel", [
    (Algebra(1, 4, params=[("a", False), ("b", True)]), FULL),
    (Algebra(2, 3, params=[("a", True)]), FULL),
    (Algebra(2, 4, ideal=[{(1, 1): 1}], params=[("a", False), ("b", False)]), FULL),
    (Algebra(1, 5, params=[("a", False), ("b", True)]), POWER(3)),
], ids=["m1_ab", "m2_b", "monomial_ideal_ab", "power3_ab"])
def test_counted_dim_and_rank_match_blocks(A, rel):
    pres = relative(A, rel)
    # a negative exponent on a non-invertible parameter holds no form
    negative = [tuple(-1 if not p.invertible else 0 for p in A.params)]
    if all(p.invertible for p in A.params):
        negative = []
    for p in _pihat_box(A, 2) + negative:
        for n in range(A.m + A.n_params + 2):
            listed = sum(len(pres._basis(n, key)) for key in pres.block_keys(n, [p]))
            assert pres.dim(n, [p]) == listed, (p, n)
            assert pres.rank(n, [p]) == pres.solved_rank(n, [p]), (p, n)
    assert all(pres.dim(n, negative) == 0 for n in range(A.m + A.n_params + 1))
    box = _pihat_box(A, 1)
    assert pres.dim(1, box) == sum(pres.dim(1, [p]) for p in box) > 0


# A positive weight w grades R and I for these: E_w gives dh + hd = w . alpha,
# so the tables count. w = (3, 2) for the cusp t1^2+t2^3, (1, 1) for t1^3+t2^3,
# w' = (2, 1, 1) for t1+t2^2 and w' = (1, 1, 1, 1) for t1*t2-t3^2; t4^2.
QUASI_HOMOGENEOUS = [
    (Algebra(2, 6, ideal=[{(2, 0): 1, (0, 3): 1}]), FULL),
    (Algebra(3, 5, ideal=[{(2, 0, 0): 1, (0, 3, 0): 1}]), FULL),
    (Algebra(4, 4, ideal=[{(2, 0, 0, 0): 1, (0, 3, 0, 0): 1}]), FULL),
    (Algebra(2, 7, ideal=[{(3, 0): 1, (0, 3): 1}]), FULL),
    (Algebra(3, 4, ideal=[{(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 2): -1}]), FULL),
    (Algebra(4, 4), EXPLICIT([{(1, 0, 0, 0): 1}])),
    (Algebra(3, 5), EXPLICIT([{(1, 0, 0): 1, (0, 2, 0): 1}])),
    (Algebra(4, 4), EXPLICIT([{(1, 1, 0, 0): 1, (0, 0, 2, 0): -1}, {(0, 0, 0, 2): 1}])),
    (Algebra(3, 5, ideal=[{(2, 0, 0): 1, (0, 3, 0): 1}]),
     EXPLICIT([{(1, 1, 0): 1}, {(0, 0, 2): 1}])),
]
# no positive weight: the gap curve (w = 0), its Jacobian as EXPLICIT, and
# t1+t2^2+t2^3 (w' = (0, 0, 1)) stay solved
SOLVED = [
    (Algebra(2, 7, ideal=[CURVE]), FULL),
    (Algebra(2, 6), EXPLICIT(CURVE_JAC)),
    (Algebra(3, 4), EXPLICIT([{(1, 0, 0): 1, (0, 2, 0): 1, (0, 3, 0): 1}])),
]


@pytest.mark.parametrize("A, rel", QUASI_HOMOGENEOUS + SOLVED, ids=[
    "cusp_m2", "cusp_m3", "cusp_m4", "t1^3+t2^3", "t1^3+t2^3-t3^2", "explicit_t1_m4",
    "explicit_t1+t2^2", "explicit_t1t2-t3^2;t4^2", "explicit_over_cusp",
    "gap_curve", "explicit_gap_jacobian", "explicit_t1+t2^2+t2^3"])
def test_counted_rank_matches_solve_or_falls_back(A, rel, fresh_rings):
    acyclic = (A, rel) in QUASI_HOMOGENEOUS
    A = Algebra(A.m, A.N, A.ideal_gens, A.params)     # a cold copy of the shared ring
    pres = relative(A, rel)
    assert pres.acyclic == acyclic
    rows = cohomology(A, rel).rows
    assert (pres._class == {}) == acyclic     # counted tables build no class rows
    degrees = range(A.m + 2)
    assert [pres.dim(n) for n in degrees] == [len(pres.rel_vectors(n)) for n in degrees]
    solved = [pres.solved_rank(n) for n in degrees]
    assert [pres.rank(n) for n in degrees] == solved and any(solved)
    assert [r["dim_im"] for r in rows] == solved[:-1]
    assert not acyclic or all(r["dim_h"] == 0 for r in rows)


@pytest.mark.parametrize("m, N", [(1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4)])
def test_memoized_rank_matches_alternating_sum(m, N):
    for k in range(1, 4):
        for n_inv in range(k + 1):
            A = Algebra(m, N, params=[(name, j < n_inv) for j, name in enumerate("abc"[:k])])
            pres = relative(A, FULL)
            for p in _pihat_box(A, 2):
                for n in range(m + k + 2):
                    alt = sum((-1) ** (n - 1 - j) * pres.dim(j, [p]) for j in range(n))
                    assert pres.rank(n, [p]) == alt, (p, n)


# EXPLICIT relatives are solved per weight block of R/I. The reference below
# is the whole-degree solve they replaced: one kernel over the sorted
# degree-n basis and one class space per degree. The blocks' reduced echelon
# bases are the whole one's, so dims, ranks, kernels, classes and primitives
# must agree exactly; only a witness may come from another failing block.

def _whole_degree_kernel(pres, n):
    """The kernel of restriction to R/I in degree n, as one nullspace."""
    A, Aq = pres.A, pres.quotient
    coords = sorted((c for g in block_grades(A, n) for c in form_block(A, n, (g, ())).basis),
                    key=coord_sort_key(A))
    images = [Form(Aq, n, {c: Fraction(1)}).terms for c in coords]
    return [{coords[i]: c for i, c in combo.items()}
            for combo in nullspace(images, order=coord_sort_key(Aq))]


def _whole_degree_class_rows(A, n, prev):
    """d-images of the whole (n-1)-kernel prev, tagged by index."""
    rows = RowSpace(order=coord_sort_key(A), track=True)
    for idx, v in enumerate(prev):
        rows.insert(d(Form(A, n - 1, v, canonical=True)).terms, tag=idx)
    return rows


def _random_explicit_spec(seed):
    """m <= 3, J zero, monomial or not, and one or two random generators of I."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    N = rng.randint(3, 6 - m)
    exps = monomials_below(m, N)[1:]        # every nonconstant monomial below N

    def poly(terms):
        return {rng.choice(exps): rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(terms)}

    ideal = rng.choice([[], [poly(1)], [poly(rng.randint(2, 3))]])
    gens = [poly(rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
    return Algebra(m, N, ideal=ideal), EXPLICIT(gens)


def _engine_corpus_explicit():
    out = []
    for label, m, N, ideal, rel in engine_corpus():
        # a FULL entry as EXPLICIT(t1, ..., tm), the same kernel
        gens = rel or [{tuple(int(v == i) for v in range(m)): 1} for i in range(m)]
        out.append(pytest.param(lambda m=m, N=N, ideal=ideal, gens=gens: (
            Algebra(m, N, ideal=ideal), EXPLICIT(gens)), id=label))
    return out


def _check_against_reference(form, rel, ref, prev):
    """is_exact agrees with the whole-degree solve, and its certificate checks out."""
    cert = is_exact(form, rel)
    combo = ref.solve(form.terms)
    assert cert.exact == (combo is not None)
    if cert.exact:
        primitive = {}
        for idx, c in combo.items():
            vec_iadd(primitive, prev[idx], c)
        assert cert.primitive.terms == primitive
    else:
        quotient = relative(form.algebra, rel).quotient
        assert all(block_key(quotient, *c) == cert.witness_block for c in cert.witness)
    assert check_certificate(cert, form, rel)


@pytest.mark.parametrize("make", _engine_corpus_explicit() + [
    pytest.param(lambda seed=seed: _random_explicit_spec(seed), id=f"seed{seed}")
    for seed in range(24)])
def test_explicit_blocks_match_whole_degree_solve(make):
    A, rel = make()
    pres = relative(A, rel)
    prev = []
    for n in range(A.m + 2):
        kernel = _whole_degree_kernel(pres, n)
        assert pres.dim(n) == len(kernel)
        assert sorted(map(sorted, pres.rel_vectors(n))) == sorted(map(sorted, kernel))
        ref = _whole_degree_class_rows(A, n, prev)
        assert pres.rank(n) == ref.rank
        for v in kernel:
            form = Form(A, n, v, canonical=True)
            cls = quotient_class(form, rel)
            assert cls.terms == ref.reduce(v)
            _check_against_reference(cls or form, rel, ref, prev)
        # one probe across every block: a witness from the first failing one
        mixed = {}
        for i, v in enumerate(kernel):
            vec_iadd(mixed, v, i + 1)
        _check_against_reference(Form(A, n, mixed, canonical=True), rel, ref, prev)
        prev = kernel


# The relations of Omega of R/I contain those of R under one coordinate order,
# so a canonical coordinate of R/I is one of R and restriction r fixes it. An
# EXPLICIT block's kernel is then c - r(c) over the coordinates that r moves;
# the reference below is the nullspace of the restriction images.

def _random_restriction_spec(seed):
    """m <= 4, N <= 6, J zero, one monomial or one polynomial of two or three terms,
    and one or two generators of I of up to three terms."""
    rng = random.Random(seed)
    m, N = rng.randint(1, 4), rng.randint(2, 6)
    exps = monomials_below(m, N)[1:]

    def poly(terms):
        return {rng.choice(exps): rng.choice([-3, -2, -1, 1, 2, 5, Fraction(1, 2)])
                for _ in range(terms)}

    ideal = rng.choice([[], [poly(1)], [poly(rng.randint(2, 3))]])
    gens = [poly(rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
    return Algebra(m, N, ideal=ideal), EXPLICIT(gens)


@pytest.mark.parametrize("seed", range(60))
def test_explicit_kernels_are_moved_coordinates_minus_their_restriction(seed):
    A, rel = _random_restriction_spec(seed)
    pres = relative(A, rel)
    Aq = pres.quotient
    for n in range(A.m + 1):
        basis = {c for g in block_grades(A, n) for c in form_block(A, n, (g, ())).basis}
        ref = {}
        for key, group in sorted(split_blocks(Aq, dict.fromkeys(basis, 1)).items()):
            coords = sorted(group, key=coord_sort_key(A))
            kernel = nullspace([Form(Aq, n, {c: 1}).terms for c in coords],
                               order=coord_sort_key(Aq))
            if kernel:
                ref[key] = [{coords[i]: c for i, c in v.items()} for v in kernel]
        assert list(pres._blocks(n)) == list(ref)
        assert all(pres._blocks(n)[key] == vecs for key, vecs in ref.items())
        for g in block_grades(Aq, n):
            for c in form_block(Aq, n, (g, ())).basis:
                assert c in basis
                assert pres.restrict(Form(A, n, {c: 1}, canonical=True)).terms == {c: 1}


# Restriction to R/I is canonicalization in the presentation's quotient. The
# reference is the image under the name-preserving projection A -> R/I, which
# canonicalizes the image of each term on its own.

def _random_form(rng, A, n, degrees):
    """Raw terms over the monomials below N (dead ones too) with nilpotent degree in degrees."""
    pexps = list(product(*(range(-2 if p.invertible else 0, 3) for p in A.params)))
    texps = [e for e in monomials_below(A.m, A.N) if sum(e) in degrees]
    words = list(combinations(range(A.m + A.n_params), n))
    return Form(A, n, {((rng.choice(pexps), rng.choice(texps)), rng.choice(words)):
                       random_rational(rng) for _ in range(rng.randint(0, 5))})


RESTRICTED = [
    (lambda: Algebra(2, 4), FULL),
    (lambda: Algebra(1, 4, params=[("a", False), ("b", True)]), FULL),
    (lambda: Algebra(2, 6, ideal=[{(3, 0): 1, (0, 3): 1}]), FULL),
    (lambda: Algebra(2, 7, ideal=[CURVE]), FULL),
    (lambda: Algebra(1, 6), POWER(3)),
    (lambda: Algebra(1, 5, params=[("a", False), ("b", True)]), POWER(2)),
    (lambda: Algebra(1, 8, ideal=[{(5,): 1}]), POWER(3)),
    (lambda: Algebra(3, 4), EXPLICIT([{(1, 0, 0): 2, (0, 1, 0): -3}, {(0, 0, 2): 1}])),
    (lambda: Algebra(3, 4), EXPLICIT([{(1, 1, 0): 1}])),
    (lambda: Algebra(2, 6, ideal=[{(2, 0): 1, (0, 3): 1}]), EXPLICIT([{(1, 1): 1}])),
    (lambda: Algebra(2, 6), EXPLICIT(CURVE_JAC)),
]


@pytest.mark.parametrize("make, rel", RESTRICTED)
def test_restrict_matches_push_through_projection(make, rel):
    rng = random.Random(20)
    A = make()
    pres = relative(A, rel)
    assert "quotient" not in pres.__dict__      # built on first use, not with the presentation
    assert pres.quotient is relative(A, rel).quotient
    proj = RingMap(A, pres.quotient, {})
    verdicts = set()
    for n in range(A.m + A.n_params + 1):
        for _ in range(12):
            k = getattr(pres, "k", 1)     # FULL and POWER: relative iff internal degree >= k
            f = _random_form(rng, A, n, rng.choice([range(k), range(k, A.N)]))
            assert pres.restrict(f) == push_form(proj, f)
            if rel.kind != "explicit":
                assert pres.is_relative(f) == (not pres.restrict(f))
                verdicts.add(pres.is_relative(f))
    assert rel.kind == "explicit" or verdicts == {True, False}


def test_counted_table_builds_no_quotient():
    for A, rel in ((Algebra(3, 4), FULL), (Algebra(1, 6), POWER(2)),
                   (Algebra(1, 4, params=[("a", False)]), FULL)):
        cohomology(A, rel, param_bound=1)
        assert "quotient" not in relative(A, rel).__dict__


# Algebra(...) hands every caller the same ring with its caches, so an answer
# from a ring warmed by other queries must be the one a cold ring gives.
WARM_COLD = [
    (lambda: Algebra(2, 7, ideal=[CURVE]), FULL, None),
    (lambda: Algebra(2, 6), EXPLICIT(CURVE_JAC), None),
    (lambda: Algebra(1, 4, params=[("a", False), ("b", True)]), FULL, 1),
]


def _rows_and_certificates(A, rel, bound):
    rows = cohomology(A, rel, param_bound=bound).rows
    if A.n_params:
        t, a, b = A.nil(), A.var("a"), A.var("b")
        forms = [d_elem(a * t ** 2), scale(t, d_elem(a)), scale(t ** 2 / b, d_elem(b)),
                 scale(t ** 2, d_elem(t))]
    else:
        forms = [d(f) for f in relative_basis(A, rel, 0)[:4]]
        forms += relative_basis(A, rel, 1)[:8] + relative_basis(A, rel, 2)[:8]
    return rows, [is_exact(f, rel).to_json() for f in forms]


def test_warm_ring_answers_like_a_cold_one(fresh_rings):
    rings, cold = [], []
    for build, rel, bound in WARM_COLD:      # distinct rings, each new to the table
        rings.append(build())
        cold.append(_rows_and_certificates(rings[-1], rel, bound))
    for m, N, ideal in [(2, 5, [{(3, 0): 1, (0, 3): 1}]), (3, 3, []), (2, 6, CURVE_JAC)]:
        cohomology(Algebra(m, N, ideal=ideal), FULL)
    for i in reversed(range(len(WARM_COLD))):
        build, rel, bound = WARM_COLD[i]
        A = build()
        assert A is rings[i]
        assert _rows_and_certificates(A, rel, bound) == cold[i]
