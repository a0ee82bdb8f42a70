"""Milnor K-symbols and their Bloch images.

A SymbolSum is an integer combination of unit tuples {u_0,...,u_n}. The Bloch
map splits each entry as u_j = s_j*(1+x_j), s_j in the base and x_j nilpotent,
and evaluates {1+x, v_1, ..} |-> log(1+x) * dlog v_1 ^ .. multilinearly: taking
each sub-tensor at its first nilpotent slot i, the choices left of i are s_j
and those right of it sum to u_j, so there is one term per slot with x_i != 0:

    {u_0,..,u_n} |-> sum_i (-1)^i log(1+x_i) * wedge_{j<i} dlog s_j
                                             * wedge_{j>i} dlog u_j

Sub-tensors with no nilpotent entry and no literal 1 are reported as the
discarded base component. Over Q dlog(1+x) = d log(1+x) exactly, so each
distinct entry costs one forms.unit_logs per symbol, kept in its memo. Nothing
is evaluated once the arity exceeds m + params + 1, where Omega^n = 0. The
terms are wedged and summed raw, then canonicalized once in
Omega^n/d(Omega^{n-1}) relative to the full nilpotent ideal; the relations form
a dg-ideal, so this gives the same class. Evaluating at the last nilpotent slot
(dlog u_j left of i, dlog s_j right of it) is kept as an independence check.
"""

from fractions import Fraction

from .linalg import independent, vec_iadd
from .algebra import Algebra, AlgElem, Record, RingMap, signed_sum
from . import forms as fm
from .forms import Form, block_key
from . import derham as dr


class SymbolSum:
    """Integer combination of unit tuples of one arity."""

    __slots__ = ("algebra", "arity", "terms", "_parts")

    def __init__(self, algebra, arity, terms):
        if arity < 1:
            raise ValueError(f"a symbol needs arity at least 1, not {arity}")
        self.algebra = algebra
        self.arity = arity
        self._parts = {}        # entry -> forms.unit_logs(entry), filled by _logs
        clean = []
        for coeff, tup in terms:
            if len(tup) != arity:
                raise ValueError("arity mismatch")
            entries = []
            for u in tup:
                if isinstance(u, (int, Fraction)):
                    u = algebra.const(u)
                if not algebra.is_unit(u):
                    raise ValueError("entry not a unit")
                entries.append(u)
            if coeff:
                clean.append((int(coeff), tuple(entries)))
        self.terms = tuple(clean)

    def _logs(self, u):
        """forms.unit_logs(u) of an entry, once per symbol: bloch and dlog_symbol share it."""
        got = self._parts.get(u)
        if got is None:
            got = self._parts[u] = fm.unit_logs(u)
        return got

    def __add__(self, other):
        if not isinstance(other, SymbolSum):
            return NotImplemented
        if other.algebra is not self.algebra:
            raise ValueError("symbols live in different algebras")
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        return SymbolSum(self.algebra, self.arity, list(self.terms) + list(other.terms))

    def __neg__(self):
        return SymbolSum(self.algebra, self.arity,
                         [(-c, tup) for c, tup in self.terms])

    def __sub__(self, other):
        if not isinstance(other, SymbolSum):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return SymbolSum(self.algebra, self.arity,
                         [(k * c, tup) for c, tup in self.terms])

    __mul__ = __rmul__

    def __str__(self):
        return signed_sum(((c, ("" if abs(c) == 1 else f"{abs(c)}*")
                            + "{" + ", ".join(map(str, tup)) + "}") for c, tup in self.terms), " ")

    __repr__ = __str__


def symbol(*entries):
    """The single symbol {e_1,...,e_k}; entries are algebra elements."""
    first = next((e for e in entries if isinstance(e, AlgElem)), None)
    if first is None:
        raise ValueError("a symbol needs an algebra element among its entries")
    return SymbolSum(first.algebra, len(entries), [(1, tuple(entries))])


def dlog_symbol(s):
    """Sum of wedge products of dlogs, wedged raw and canonicalized once (the relations
    form a dg-ideal); a closed form of degree = arity."""
    A = s.algebra
    raw = {}
    for c, (u, *rest) in s.terms:
        piece = s._logs(u)[4]
        for v in rest:
            piece = fm.wedge_terms(A, piece, s._logs(v)[4]) if piece else piece
        vec_iadd(raw, piece, c)
    return Form(A, s.arity, raw)


class BlochClass(Record):
    _fields = ("algebra", "degree", "rep", "base", "slot")

    def __init__(self, algebra, degree, rep, base, slot="first"):
        self.algebra = algebra
        self.degree = degree
        self.rep = rep          # canonical Form representative
        self.base = base        # discarded sub-tensors with no nilpotent entry
        self.slot = slot

    def is_zero(self):
        return not self.rep.terms

    def __str__(self):
        verdict = "zero" if self.is_zero() else "nonzero"
        return f"[{fm.form_str(self.rep)}] ({verdict})"


def bloch(s, slot="first"):
    """Bloch image of a symbol sum, canonical in Omega^n/d relative full."""
    A = s.algebra
    n = s.arity - 1
    first = slot == "first"
    raw = {}
    base = []
    one = A.one()
    live = s.arity <= A.m + A.n_params + 1      # Omega^n = 0 above
    for coeff, tup in s.terms:
        entries = [s._logs(u) for u in tup]     # (s, x, log(1+x), dlog s, dlog u)
        if all(e[0] != one for e in entries):
            base.append((coeff, tuple(e[0] for e in entries)))
        if not live:
            continue
        for i, e in enumerate(entries):
            factors = [f[3] if (j < i) == first else f[4] for j, f in enumerate(entries) if j != i]
            piece = e[2] if all(factors) else {}    # log(1+x_i), empty when x_i = 0
            for g in factors:
                piece = fm.wedge_terms(A, piece, g) if piece else piece
            vec_iadd(raw, piece, coeff * (-1) ** i)
    rep = dr.quotient_class(Form(A, n, raw), dr.FULL)
    return BlochClass(A, n, rep, base, slot)


def steinberg_element(a, x):
    """zeta(a,x) = (a+x) tensor (1-a-x) minus a tensor (1-a)."""
    A = x.algebra
    if isinstance(a, (int, Fraction)):
        a = A.const(a)
    if not x.is_nilpotent():
        raise ValueError("x must be nilpotent")
    one = A.one()
    if not (A.is_unit(a) and A.is_unit(one - a)):
        raise ValueError("a or 1-a not a unit")
    if not x.terms:
        return SymbolSum(A, 2, [])
    return SymbolSum(A, 2, [(1, (a + x, one - a - x)), (-1, (a, one - a))])


def phi_p(a, b, p):
    """The symbol {1 + a*b*t^p, b}."""
    A = b.algebra
    if isinstance(a, (int, Fraction)):
        a = A.const(a)
    if A.m != 1 or not A.monomial_ideal:
        raise ValueError("phi_p requires single-nilpotent graded mode")
    if A.N <= p:
        raise ValueError("truncation too shallow")
    if not A.is_unit(b):
        raise ValueError("b not a unit")
    u = A.one() + a * b * A.nil() ** p
    return SymbolSum(A, 2, [(1, (u, b))])


def map_symbol(rmap, s):
    """Apply a ring map entrywise."""
    return SymbolSum(rmap.target, s.arity,
                     [(c, tuple(rmap(u) for u in tup)) for c, tup in s.terms])


def swap_symbol(s):
    if s.arity != 2:
        raise ValueError("arity mismatch")
    return SymbolSum(s.algebra, 2, [(c, (v, u)) for c, (u, v) in s.terms])


# -- verifiers -------------------------------------------------------------------


class KeyIdentityReport(Record):
    _fields = ("i", "j", "passed", "cutoff", "bloch_rep", "target_rep", "certificate")


def _ab_symbol(N, i, j):
    """Q[a,b][t]/t^N and the symbol {1+a t^i, 1+b t^j} in it."""
    A = Algebra(1, N, params=[("a", False), ("b", False)])
    a, b, t = A.var("a"), A.var("b"), A.nil()
    return A, symbol(A.one() + a * t ** i, A.one() + b * t ** j)


def verify_key_identity(i, j):
    """(i+j)*{1+a t^i, 1+b t^j} against the class of t^(i+j)(ia db - jb da).

    Checked modulo internal degree > i+j; the primitive certificate for the
    difference is returned.
    """
    if i < 1 or j < 1:
        raise ValueError("invalid exponents")
    A, s = _ab_symbol(i + j + 1, i, j)
    cls = bloch(s)
    cut = i + j
    target = Form(A, 1, {
        (((1, 0), (i + j,)), (2,)): Fraction(i),
        (((0, 1), (i + j,)), (1,)): Fraction(-j),
    })
    diff = (i + j) * cls.rep - target
    cert = dr.is_exact(diff, dr.FULL, cutoff=cut)
    target_cls = dr.quotient_class(target, dr.FULL, cutoff=cut)
    return KeyIdentityReport(i, j, cert.exact, cut,
                             fm.form_str(cls.rep), fm.form_str(target_cls), cert)


class FiltrationReport(Record):
    _fields = ("p", "i", "j", "vanishes", "rep")


def verify_filtration_vanishing(p, i, j):
    """bloch{1+a t^i, 1+b t^j} = 0 in Q[a,b][t]/t^p whenever i+j >= p."""
    if i < 1 or j < 1:
        raise ValueError("invalid exponents")
    if i + j < p:
        raise ValueError("i+j < p")
    cls = bloch(_ab_symbol(p, i, j)[1])
    return FiltrationReport(p, i, j, cls.is_zero(), fm.form_str(cls.rep))


def filtration_strictness_witness(p):
    """A pair i+j = p-1 whose Bloch class is certified nonzero in Q[a,b][t]/t^p."""
    if p < 3:
        raise ValueError("no witness below p = 3")
    for i in range(1, p - 1):
        j = p - 1 - i
        A, s = _ab_symbol(p, i, j)
        cls = bloch(s)
        if not cls.is_zero():
            cert = dr.is_exact(cls.rep, dr.FULL)
            return {"p": p, "i": i, "j": j, "rep": fm.form_str(cls.rep),
                    "certificate": cert, "symbol": str(s), "algebra": A}
    return None


class SkewReport(Record):
    _fields = ("passed", "rep")


def verify_skew(s):
    """bloch(s + swap(s)) = 0 for arity-2 symbol sums."""
    cls = bloch(s + swap_symbol(s))
    return SkewReport(cls.is_zero(), fm.form_str(cls.rep))


class SpanReport(Record):
    _fields = ("degree", "dim_target", "rank", "count", "full")

    def to_json(self):
        return {"degree": self.degree, "dim_target": self.dim_target,
                "rank": self.rank, "symbols_used": self.count, "full": self.full}


def _default_generators(A, n):
    """Unit tuples (1+w_0, 1+w_1, ...) over nilpotent basis monomials."""
    nil_monos = [e for e in A.nil_basis if sum(e)]
    units = [A.element({((0,) * A.n_params, e): 1}) + A.one() for e in nil_monos]
    tuples = [()]
    for _ in range(n + 1):
        tuples = [tup + (u,) for tup in tuples for u in units]
    return [SymbolSum(A, n + 1, [(1, tup)]) for tup in tuples]


def surjectivity_witnesses(A, rel, n, symbols=None):
    """Check that Bloch images of generator symbols span Omega^n_rel / d.

    In parametric mode the target is the class space in the parameter
    multidegrees that the classes reach.
    """
    pres = dr.relative(A, rel)
    if symbols is None:
        if A.n_params:
            raise ValueError("parametric mode needs explicit generator symbols")
        symbols = _default_generators(A, n)
    classes = [bloch(s).rep for s in symbols]
    rank = len(independent(rep.terms for rep in classes))
    pihats = None
    if A.n_params:
        pihats = sorted({block_key(A, *coord)[1] for rep in classes for coord in rep.terms})
    target = pres.dim(n, pihats) - pres.rank(n, pihats)
    return SpanReport(n, target, rank, len(symbols), rank == target)


# -- the auxiliary-parameter substitutions ----------------------------------------


def theta_maps(A_with_x, target, q):
    """theta_q: x -> t^q and theta_0: x -> 0, out of the x-augmented algebra."""
    tq = target.nil() ** q
    return (RingMap(A_with_x, target, {"x": tq}),
            RingMap(A_with_x, target, {"x": target.zero()}))


def lambda_map(A, p):
    """t -> t^p on a single-nilpotent algebra."""
    return RingMap(A, A, {A.nil_names[0]: A.nil() ** p})
