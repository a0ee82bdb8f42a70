"""Seeded differential tests: the fast paths of the read path against the generic
code or a naive reference.

- to_elem folds a product of literals, variables and nonnegative powers of
  variables into one term; the product of its factors, each built by to_elem
  alone, must be equal, and every other product keeps its generic errors.
- vec_iadd, mul_terms and d_terms store a key's first contribution as given;
  the references add it to an implicit 0, as the accumulate used to.
- is_unit and unit_split find the base term in one scan; the references go
  through augmentation().
"""

import json
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from nilbloch import cli
from nilbloch.algebra import Algebra
from nilbloch.forms import d_terms, wedge_insert
from nilbloch.linalg import vec_iadd
from nilbloch.parser import _monomial, algebra_to_json, parse_element, parse_expr, to_elem

SEEDS = [3, 11, 29]

RINGS = [
    Algebra(1, 5, params=[("a", True), ("b", False)]),
    Algebra(2, 5, params=[("a", True), ("b", False)]),
    Algebra(3, 4, ideal=[{(1, 1, 0): 1}, {(0, 0, 2): 1}]),
    Algebra(2, 6, ideal=[{(2, 0): 1, (0, 3): -1}]),      # not monomial: generic normal form
]

LITERALS = ["0", "1", "2", "7", "1/2", "3/4", "5/3", "6/3"]


def _names(A):
    return list(A.nil_index) + list(A.param_index)      # t and t1 both, when m = 1


def _monomial_text(rng, A):
    factors = []
    for _ in range(rng.randint(2, 6)):
        roll = rng.random()
        if roll < 0.25:
            factors.append(rng.choice(LITERALS))
        elif roll < 0.6:
            factors.append(rng.choice(_names(A)))
        else:
            factors.append(f"{rng.choice(_names(A))}^{rng.randint(0, 3)}")
    return "*".join(factors)


def _same_terms(x, y):
    """Equal dicts, in the same order, with the same value types."""
    assert list(x.items()) == list(y.items())
    assert [type(c) for c in x.values()] == [type(c) for c in y.values()]


@pytest.mark.parametrize("seed", SEEDS)
def test_folded_monomial_products_match_the_generic_product(seed):
    rng = random.Random(seed)
    for A in RINGS:
        for _ in range(60):
            text = _monomial_text(rng, A)
            ast = parse_expr(text)
            assert ast[0] == "prod" and _monomial(ast[1], A) is not None, text
            generic = reduce(mul, (to_elem(node, A) for node in ast[1]))
            assert to_elem(ast, A) == generic, text


def test_folded_products_cover_zero_and_rationals():
    A = RINGS[0]
    assert parse_element("t^0*t1^0*a^0", A) == A.one()
    assert not parse_element("3*t*0*a", A)
    assert not parse_element("t^2*t1^3*a", A)                   # degree 5 = N
    assert parse_element("6/3*t*1/4", A) == A.const(Fraction(1, 2)) * A.nil()
    assert parse_element("a^1000000*t", A).terms == {((1000000, 0), (1,)): 1}
    # a negative power takes the generic path, which allows it on an invertible parameter
    assert parse_element("t*a^-2*b", A) == A.nil() * A.var("a") ** -2 * A.var("b")


@pytest.mark.parametrize("text, message", [
    ("2*t*c", "unknown variable 'c'"),
    ("c*t^-1", "unknown variable 'c'"),          # the first error in the text wins
    ("t*b^-1*a", "negative exponent on non-invertible variable"),
    ("b^-2*c", "negative exponent on non-invertible variable"),
    ("t*a^-1*c", "unknown variable 'c'"),
])
def test_products_off_the_fast_path_keep_their_errors(tmp_path, capsys, text, message):
    A = RINGS[0]
    with pytest.raises(ValueError, match=message):
        parse_element(text, A)
    spec = tmp_path / "alg.json"
    spec.write_text(json.dumps(algebra_to_json(A)))
    code = cli.main(["bloch", "--algebra", str(spec), "--symbol", "{1+" + text + ", a}"])
    assert code == 2 and f"error: {message}" in capsys.readouterr().err


# -- accumulates ---------------------------------------------------------------------

def _ref_iadd(u, v, c=1):
    out = dict(u)
    for k, a in v.items():
        b = out.get(k, 0) + (a if c == 1 else c * a)
        if b:
            out[k] = b
        else:
            out.pop(k, None)
    return out


def _coeff(rng):
    return rng.choice([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                       Fraction(2, 1), Fraction(-2, 3)])


def _elem(rng, A, size):
    """A random normal form; few monomials and coefficients, so products cancel."""
    terms = {}
    for _ in range(size):
        texp = tuple(rng.randint(0, 2) for _ in range(A.m))
        pexp = tuple(rng.randint(-1 if p.invertible else 0, 1) for p in A.params)
        terms[(pexp, texp)] = _coeff(rng)
    return A.element(terms)


@pytest.mark.parametrize("seed", SEEDS)
def test_vec_iadd_matches_the_naive_accumulate(seed):
    rng = random.Random(seed)
    cancelled = 0
    for _ in range(300):
        u = {rng.randint(0, 5): _coeff(rng) for _ in range(rng.randint(0, 5))}
        v = {rng.randint(0, 5): _coeff(rng) for _ in range(rng.randint(0, 5))}
        c = rng.choice([1, -1, 2, Fraction(1), Fraction(1, 3)])
        ref = _ref_iadd(u, v, c)
        got = vec_iadd(dict(u), v, c)
        _same_terms(got, ref)
        cancelled += len(ref) < len(set(u) | set(v))
    assert cancelled > 5


@pytest.mark.parametrize("seed", SEEDS)
def test_mul_terms_matches_the_naive_product(seed):
    rng = random.Random(seed)
    cancelled = 0
    for A in RINGS:
        for _ in range(40):
            u, v = _elem(rng, A, rng.randint(1, 6)), _elem(rng, A, rng.randint(1, 6))
            full = {}
            for (p1, t1), c1 in u.terms.items():
                for (p2, t2), c2 in v.terms.items():
                    key = (tuple(map(sum, zip(p1, p2))), tuple(map(sum, zip(t1, t2))))
                    full = _ref_iadd(full, {key: c1 * c2})
            ref = A.normal_form(full)
            _same_terms(A.mul_terms(u.terms, v.terms), ref)
            cancelled += len(full) < len(u.terms) * len(v.terms)
    assert cancelled > 10


def _ref_d_terms(A, terms):
    raw = {}
    for ((pexp, texp), word), c in terms.items():
        exps = texp + pexp
        for g, e in enumerate(exps):
            if not e:
                continue
            sign, new = wedge_insert(g, word)
            if not sign:
                continue
            low = exps[:g] + (e - 1,) + exps[g + 1:]
            k = ((low[A.m:], low[:A.m]), new)
            raw[k] = raw.get(k, 0) + c * e * sign
    return raw


@pytest.mark.parametrize("seed", SEEDS)
def test_d_terms_matches_the_naive_derivative(seed):
    rng = random.Random(seed)
    zeros = 0
    for A in RINGS[:3]:
        width = A.m + A.n_params
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                mono = next(iter(_elem(rng, A, 1).terms), None)
                if mono:
                    word = tuple(sorted(rng.sample(range(width), rng.randint(0, 1))))
                    terms[(mono, word)] = _coeff(rng)
            if rng.random() < 0.5:      # an exact form: its d cancels to stored zeros
                terms = {k: c for k, c in _ref_d_terms(A, terms).items() if c}
            ref = _ref_d_terms(A, terms)
            _same_terms(d_terms(A, terms), ref)
            zeros += sum(not c for c in ref.values())
    assert zeros


# -- units -----------------------------------------------------------------------------

def _ref_is_unit(A, u):
    aug = u.augmentation().terms
    if len(aug) != 1:
        return False
    (pexp, _), c = next(iter(aug.items()))
    return bool(c) and all(e == 0 or A.params[i].invertible for i, e in enumerate(pexp))


@pytest.mark.parametrize("seed", SEEDS)
def test_is_unit_and_unit_split_match_the_augmentation(seed):
    rng = random.Random(seed)
    units = 0
    for A in RINGS[:2]:
        for _ in range(150):
            u = _elem(rng, A, rng.randint(0, 4))
            if rng.random() < 0.6:      # one base term c*a^i*b^j, i possibly negative
                base = ((rng.randint(-3, 3), rng.choice([0, 0, 1])), (0,) * A.m)
                u = u - u.augmentation() + A.element({base: _coeff(rng)})
            assert A.is_unit(u) == u.is_unit() == _ref_is_unit(A, u)
            if not _ref_is_unit(A, u):
                with pytest.raises(ValueError, match="not a unit"):
                    A.unit_split(u)
                continue
            units += 1
            s, x = A.unit_split(u)
            assert s == u.augmentation() and x.is_nilpotent()
            assert s * (1 + x) == u
            assert u * A.invert(u) == A.one()
    assert units > 100
