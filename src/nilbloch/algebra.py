"""Truncated nilpotent polynomial algebras over the rationals.

An algebra here is R = S[t_1..t_m]/J where S = Q[a_1..a_P] (some parameters
optionally inverted) and J is an ideal in the nilpotent variables containing
every monomial of degree N. Elements carry exact rational coefficients (int
where integral, else Fraction: _q) and are kept in normal form: in
monomial-ideal mode a term survives iff its nilpotent part is not divisible
by a generator and has degree < N, otherwise terms are rewritten against a
row-reduced presentation of the ideal.

Monomials are pairs (pexp, texp) of integer exponent tuples; parameter
exponents may be negative only on parameters declared invertible.
"""

from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm
from operator import add, mul

from .linalg import RowSpace, nullspace, vec_add, vec_iadd

_RESERVED = {"exp", "log"}

# Omega^* of Q[t_1..t_m]/m^N has 2^m * C(N - 1 + m, m) coordinates. Algebra
# rejects a larger one before it lists a monomial, so oversized input fails
# at once instead of hanging: m = N = 8 (1.65M) still runs, m = N = 9 (12.4M)
# does not
MAX_FORM_COORDS = 2_000_000

# how many rings Algebra(...) keeps with their caches: the most recently used
MAX_RINGS = 32


def compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def monomials_of_degree(m, d):
    return list(compositions(d, m))

def monomials_below(m, N):
    out = []
    for d in range(N):
        out.extend(compositions(d, m))
    return out


def form_coords(m, N):
    """2^m * C(N - 1 + m, m), or None from m = 21 on, where 2^m alone passes
    MAX_FORM_COORDS: checking m first keeps C cheap to form, whatever N is."""
    return 2 ** m * comb(N - 1 + m, m) if m < MAX_FORM_COORDS.bit_length() else None


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _q(c):
    """c as an exact rational: an int when integral, else a Fraction (kept as given)."""
    if type(c) is not int:
        if type(c) is not Fraction:
            c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def signed_sum(parts, sep=""):
    """Text of a sum of (coefficient, body) pairs, each sign from its coefficient:
    'a+b-c', or 'a + b - c' with sep=" "; '0' when there are no parts."""
    bits = []
    for c, body in parts:
        if bits:
            bits.append(f"{sep}{'+' if c > 0 else '-'}{sep}{body}")
        else:
            bits.append(body if c > 0 else "-" + body)
    return "".join(bits) or "0"


def _ideal_rows(m, gens, bound):
    """Span of the multiples u*g (u a monomial, g in gens) cut to degree < bound."""
    rows = RowSpace(order=lambda e: (sum(e), e))
    for g in gens:
        for u in monomials_below(m, bound - min(map(sum, g))):   # u*g is cut past this
            rows.insert({tuple(x + y for x, y in zip(u, e)): c
                         for e, c in g.items() if sum(u) + sum(e) < bound})
    return rows


class Record:
    """A plain record: the fields named in _fields, an __init__ taking each of them
    by position or keyword, field-wise __eq__, no hash, and the repr
    Name(field=value, ...). A record built per query or per ring key writes its
    own __init__ (and, when frozen, __eq__ and __hash__)."""

    _fields = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name in names[len(args):]:
            setattr(self, name, kwargs[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._fields
        return [getattr(self, f) for f in names] == [getattr(other, f) for f in names]

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_json(self):
        """Each field by name; a value with a to_json of its own goes through it."""
        values = {f: getattr(self, f) for f in self._fields}
        return {f: v.to_json() if hasattr(v, "to_json") else v for f, v in values.items()}

    def _frozen(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")


class ParamSpec(Record):
    _fields = ("name", "invertible")
    __setattr__ = __delattr__ = Record._frozen

    def __init__(self, name, invertible=False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "invertible", invertible)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.invertible) == (other.name, other.invertible)

    def __hash__(self):
        return hash((self.name, self.invertible))


def _param_spec(p):
    return (ParamSpec(p.name, p.invertible) if isinstance(p, ParamSpec)
            else ParamSpec(*p) if isinstance(p, tuple) else ParamSpec(p))


class AlgElem:
    """Element of a truncated algebra, always held in normal form."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, AlgElem):
            if other.algebra is not self.algebra:
                raise ValueError("elements of different algebras")
            return other
        if isinstance(other, (int, Fraction)):
            return self.algebra.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.algebra, vec_add(self.terms, o.terms))

    __radd__ = __add__

    def __neg__(self):
        return AlgElem(self.algebra, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.algebra, vec_add(self.terms, o.terms, -1))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.algebra.zero()
            return AlgElem(self.algebra, {k: c * other for k, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.algebra, self.algebra.mul_terms(self.terms, o.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * self.algebra.invert(o)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.algebra.invert(self) ** (-n)
        # square-and-multiply; a nilpotent base reaches 0 within log2(N) squarings
        out = self.algebra.one()
        base = self
        while n:
            if n & 1:
                out = out * base
                if not out:
                    return out
            n >>= 1
            if n:
                base = base * base
                if not base:
                    return base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.const(other)
        if not isinstance(other, AlgElem):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def augmentation(self):
        """The image in S, i.e. the terms with trivial nilpotent part."""
        zero_t = (0,) * self.algebra.m
        return AlgElem(self.algebra,
                       {k: c for k, c in self.terms.items() if k[1] == zero_t})

    def nil_part(self):
        return self - self.augmentation()

    def is_nilpotent(self):
        return all(any(texp) for _, texp in self.terms)

    def is_unit(self):
        return self.algebra.is_unit(self)

    def constant(self):
        """The rational value of a constant element."""
        zero = ((0,) * self.algebra.n_params, (0,) * self.algebra.m)
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {zero}:
            raise ValueError("element is not a rational constant")
        return self.terms[zero]

    def __str__(self):
        return self.algebra.elem_str(self)

    __repr__ = __str__


def poly_terms(f):
    """A polynomial in the nilpotent variables as {texp: coefficient}, each by _q.

    f is an AlgElem without parameters or a dict {texp: coefficient};
    equal exponents merge and zero coefficients drop.
    """
    if isinstance(f, AlgElem):
        if any(any(pexp) for pexp, _ in f.terms):
            raise ValueError("polynomial must not involve parameters")
        f = {texp: c for (_, texp), c in f.terms.items()}
    out = {}
    for k, c in dict(f).items():
        try:
            texp = tuple(k)
        except TypeError:
            raise ValueError(f"exponent {k!r} is not a tuple of integers") from None
        vec_iadd(out, {texp: _q(c)})
    return out


_RINGS = {}     # ring key -> Algebra, least recently used first


class _OneRingPerKey(type):
    """Algebra(...) constructs a ring only when its key is not in _RINGS, and keeps
    only a construction that succeeds (see Algebra)."""

    def __call__(cls, nilpotents, bound, ideal=(), params=()):
        try:
            ideal = tuple(ideal)
            key = (nilpotents, bound, tuple(tuple(g.items()) for g in map(poly_terms, ideal) if g),
                   tuple(map(_param_spec, params)))
            hash(key)
        except (TypeError, ValueError):     # bad input: __init__ raises its own error
            key = None
        # 5.0 == 5: a float must not find the ring of an int bound
        if key is None or type(nilpotents) is not int or type(bound) is not int:
            return super().__call__(nilpotents, bound, ideal, params)
        ring = _RINGS.pop(key, None)
        if ring is None:
            ring = super().__call__(nilpotents, bound, ideal, params)
        _RINGS[key] = ring
        if len(_RINGS) > MAX_RINGS:
            del _RINGS[next(iter(_RINGS))]
        return ring


class Algebra(metaclass=_OneRingPerKey):
    """R = S[t_1..t_m]/J with S = Q[params] and (t_1..t_m)^N contained in J.

    ideal lists extra generators (dicts {texp: coeff} or AlgElem-like term
    dicts) in the nilpotent variables; the degree-N power of the nilpotent
    ideal is adjoined automatically.

    There is one instance per ring: equal (m, N, nonzero generators after
    poly_terms in the given order, params as (name, invertible)) return the
    same object with its caches, so a repeated ring reuses its blocks, class
    rows and R/I. The MAX_RINGS = 32 most recently used rings are kept.
    Elements and forms compare algebras by identity, so elements built from
    two Algebra(2, 5) calls are equal.
    """

    def __init__(self, nilpotents, bound, ideal=(), params=()):
        if nilpotents < 1:
            raise ValueError("need at least one nilpotent variable")
        if bound < 1:
            raise ValueError("nilpotency bound must be at least 1")
        coords = form_coords(nilpotents, bound)
        if coords is None or coords > MAX_FORM_COORDS:
            raise ValueError(f"the forms of m = {nilpotents}, N = {bound} have "
                             f"{coords or f'over 2^{nilpotents}'} coordinates, "
                             f"above the limit {MAX_FORM_COORDS}")
        self.m = nilpotents
        self.N = bound
        self.params = tuple(map(_param_spec, params))
        self.n_params = len(self.params)
        self.nil_names = ("t",) if self.m == 1 else tuple(f"t{i+1}" for i in range(self.m))
        # with one nilpotent, t1 is another name for t
        self.nil_index = {"t": 0, "t1": 0} if self.m == 1 else {
            n: i for i, n in enumerate(self.nil_names)}
        self._check_names()
        self.param_index = {p.name: i for i, p in enumerate(self.params)}

        gens = [g for g in map(poly_terms, ideal) if g]     # zero generators add nothing
        for g in gens:
            for texp in g:
                if len(texp) != self.m or any(not isinstance(e, int) or e < 0 for e in texp):
                    raise ValueError(f"ideal generator exponent {texp} is not "
                                     f"m = {self.m} nonnegative integers")
                if sum(texp) == 0:
                    raise ValueError("degree-zero ideal generators are not supported")
        self.monomial_ideal = all(len(g) == 1 for g in gens)
        if self.n_params and not self.monomial_ideal:
            raise ValueError("parametric mode requires monomial ideal")

        if self.monomial_ideal:
            exps = [next(iter(g)) for g in gens]
            exps = [e for e in exps if sum(e) < self.N]
            # minimal generating set; degree >= N handled by the bound itself
            self.mono_gens = tuple(sorted(
                e for e in set(exps)
                if not any(f != e and _divides(f, e) for f in set(exps))))
            self._ring_rows = None
        else:
            self.mono_gens = ()
            rows = _ideal_rows(self.m, gens, self.N)
            self._ring_rows = rows
            # the rows list every monomial anyway, so the basis comes with them
            self.nil_basis = tuple(e for e in monomials_below(self.m, self.N)
                                   if e not in rows.rows)
        self.ideal_gens = tuple(dict(g) for g in gens)
        self._form_cache = {}

    @cached_property
    def nil_basis(self):
        """The surviving nilpotent monomials, listed on first use: counted tables
        never read them, so a monomial-ideal algebra costs no listing."""
        return tuple(e for e in monomials_below(self.m, self.N) if not self._mono_dead(e))

    @cached_property
    def weight(self):
        """Sum of the reduced integer basis of {w : w.(a - a') = 0, a, a' exponents of one
        generator}: all ones for a monomial ideal; lazy, as monomial tables never grade."""
        diffs = [[x - y for x, y in zip(a, next(iter(g)))] for g in self.ideal_gens for a in g]
        w = [0] * self.m
        for vec in nullspace([{j: d[v] for j, d in enumerate(diffs) if d[v]}
                              for v in range(self.m)]):
            scale = lcm(*(c.denominator for c in vec.values()))    # an entry is 1: primitive
            for v, c in vec.items():
                w[v] += int(c * scale)
        return tuple(w)

    def grade(self, texp, word=()):
        """weight . alpha, alpha = texp + 1_(nilpotent indices of a wedge word)."""
        return sum(map(mul, self.weight, texp)) + sum(self.weight[v] for v in word if v < self.m)

    @cached_property
    def _basis_by_grade(self):
        out = {}
        for e in self.nil_basis:
            out.setdefault(self.grade(e), []).append(e)
        return out

    # -- construction helpers -------------------------------------------------

    def _check_names(self):
        seen = set(self.nil_index)
        for p in self.params:
            name = p.name
            if not name.isidentifier() or name in _RESERVED:
                raise ValueError(f"bad parameter name {name!r}")
            if name.startswith("d"):
                raise ValueError("parameter names must not begin with 'd'")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)

    def _mono_dead(self, texp):
        if sum(texp) >= self.N:
            return True
        return any(_divides(e, texp) for e in self.mono_gens)

    # -- normal forms ----------------------------------------------------------

    def mono_key(self, mono):
        """Sort key; graded-lex on nilpotent exponents, then lex on parameters."""
        pexp, texp = mono
        return (sum(texp), texp, pexp)

    def normal_form(self, terms):
        for (pexp, texp) in terms:
            for i, e in enumerate(pexp):
                if e < 0 and not self.params[i].invertible:
                    raise ValueError(
                        f"negative exponent on non-invertible parameter {self.params[i].name!r}")
        if self.monomial_ideal:
            return {k: c for k, c in terms.items()
                    if c and not self._mono_dead(k[1])}
        # no parameters over a non-monomial ideal: every pexp is ()
        red = self._ring_rows.reduce({texp: c for (_, texp), c in terms.items()
                                      if sum(texp) < self.N})
        return {((), texp): _q(c) for texp, c in red.items()}      # reduce drops zeros

    def element(self, terms):
        clean = {}
        for (pexp, texp), c in terms.items():
            vec_iadd(clean, {(tuple(pexp), tuple(texp)): _q(c)})
        return AlgElem(self, self.normal_form(clean))

    def mul_terms(self, u, v):
        """Normal form of u * v, for normal forms u, v (every caller's are): a monomial
        ideal drops dead products as they form and needs no normal_form pass."""
        N, gens = self.N, self.mono_gens
        out = {}
        get = out.get
        vs = [(p2, t2, sum(t2), c2) for (p2, t2), c2 in v.items()]
        for (p1, t1), c1 in u.items():
            room = N - sum(t1)
            for p2, t2, d2, c2 in vs:
                if d2 >= room:
                    continue
                t = tuple(map(add, t1, t2))
                if gens and any(_divides(e, t) for e in gens):
                    continue
                k = (tuple(map(add, p1, p2)) if p1 else p1, t)
                c = c1 * c2
                b = get(k)
                if b is not None:       # as in vec_iadd: only a repeated key adds
                    c = b + c
                if c:
                    out[k] = c
                elif b is not None:
                    del out[k]
        return out if self.monomial_ideal else self.normal_form(out)

    # -- element constructors ----------------------------------------------------

    def zero(self):
        return AlgElem(self, {})

    def const(self, c):
        c = _q(c)
        if not c:
            return self.zero()
        return AlgElem(self, {((0,) * self.n_params, (0,) * self.m): c})

    def one(self):
        return self.const(1)

    def var(self, name):
        if name in self.nil_index:
            texp = tuple(1 if i == self.nil_index[name] else 0 for i in range(self.m))
            return self.element({((0,) * self.n_params, texp): 1})
        if name in self.param_index:
            pexp = tuple(1 if i == self.param_index[name] else 0 for i in range(self.n_params))
            return self.element({(pexp, (0,) * self.m): 1})
        raise ValueError(f"unknown variable {name!r}")

    def nil(self, i=0):
        return self.var(self.nil_names[i])

    def gens(self):
        return [self.var(n) for n in self.nil_names]

    # -- units and series ---------------------------------------------------------

    def _base_term(self, u):
        """The one term ((pexp, texp), c) of u with trivial nilpotent part, when u has
        exactly one and it is nonzero with pexp a unit of S; else None. One scan."""
        base = [(k, c) for k, c in u.terms.items() if not any(k[1])]
        if len(base) != 1 or not base[0][1]:
            return None
        return base[0] if all(e == 0 or self.params[i].invertible
                              for i, e in enumerate(base[0][0][0])) else None

    def is_unit(self, u):
        return self._base_term(u) is not None

    def _unit_parts(self, u):
        """u = s*(1+x) with s a unit of S and x nilpotent; returns (s, s^-1, x)."""
        found = self._base_term(u)
        if found is None:
            raise ValueError("not a unit")
        (pexp, texp), c = found
        s = AlgElem(self, {(pexp, texp): c})
        s_inv = AlgElem(self, {(tuple(-e for e in pexp), texp): _q(Fraction(1, c))})
        return s, s_inv, (u if c == 1 and not any(pexp) else u * s_inv) - self.one()

    def unit_split(self, u):
        """u = s*(1+x) with s a unit of S and x nilpotent; returns (s, x)."""
        s, _, x = self._unit_parts(u)
        return s, x

    def _series(self, x, coeff):
        """sum over k >= 0 of coeff(k) * x^k; stops at the first x^k = 0."""
        out = self.const(coeff(0)).terms      # raw dicts; one AlgElem at the end
        p = x.terms
        k = 1
        while p:
            vec_iadd(out, p, coeff(k))
            p = self.mul_terms(p, x.terms)
            k += 1
        return AlgElem(self, out)

    def invert(self, u):
        _, s_inv, x = self._unit_parts(u)
        return s_inv * self._series(x, lambda k: (-1) ** k)

    def log1p(self, x):
        """log(1+x) for nilpotent x, by the truncating alternating series."""
        if not x.is_nilpotent():
            raise ValueError("log1p requires a nilpotent argument")
        return self._series(x, lambda k: _q(Fraction((-1) ** (k + 1), k)) if k else 0)

    def exp_nil(self, y):
        """exp(y) = sum y^k / k! for nilpotent y."""
        if not y.is_nilpotent():
            raise ValueError("exp_nil requires a nilpotent argument")
        return self._series(y, lambda k: _q(Fraction(1, factorial(k))))

    # -- substitution -----------------------------------------------------------

    def substitute(self, elem, images, target):
        """Apply the ring map sending each named variable to images[name].

        Unmapped variables go to the same-named variable of the target.
        Nilpotent variables must land on nilpotents and invertible parameters
        on units.
        """
        imgs = {}
        for name in self.nil_names + tuple(p.name for p in self.params):
            if name in images:
                img = images[name]
                if not isinstance(img, AlgElem) or img.algebra is not target:
                    raise ValueError(f"image of {name!r} is not an element of the target")
            else:
                img = target.var(name)
            imgs[name] = img
        for name in self.nil_names:
            if not imgs[name].is_nilpotent():
                raise ValueError("substitution violates nilpotency or unit constraints")
        for p in self.params:
            if p.invertible and not target.is_unit(imgs[p.name]):
                raise ValueError("substitution violates nilpotency or unit constraints")
        cache = {}

        def power(name, e):
            key = (name, e)
            if key not in cache:
                cache[key] = imgs[name] ** e
            return cache[key]

        out = target.zero()
        for (pexp, texp), c in elem.terms.items():
            piece = target.const(c)
            for i, e in enumerate(texp):
                if e:
                    piece = piece * power(self.nil_names[i], e)
            for i, e in enumerate(pexp):
                if e:
                    piece = piece * power(self.params[i].name, e)
            out = out + piece
        return out

    # -- printing -----------------------------------------------------------------

    def mono_str(self, mono):
        pexp, texp = mono
        parts = []
        for i, e in enumerate(pexp):
            if e == 1:
                parts.append(self.params[i].name)
            elif e:
                parts.append(f"{self.params[i].name}^{e}")
        for i, e in enumerate(texp):
            if e == 1:
                parts.append(self.nil_names[i])
            elif e:
                parts.append(f"{self.nil_names[i]}^{e}")
        return "*".join(parts)

    def elem_str(self, elem):
        def body(mono, c):
            return f"{c}*{mono}" if mono and c != 1 else mono or str(c)

        keys = sorted(elem.terms, key=self.mono_key, reverse=True)
        return signed_sum((elem.terms[k], body(self.mono_str(k), abs(elem.terms[k])))
                          for k in keys)

    def describe(self):
        return {
            "nilpotents": self.m,
            "bound": self.N,
            "ideal": [self.elem_str(AlgElem(self, {(((0,) * self.n_params), k): c
                                                   for k, c in g.items()}))
                      for g in self.ideal_gens],
            "params": [{"name": p.name, "invertible": p.invertible} for p in self.params],
        }


class RingMap(Record):
    """Named-variable substitution map between algebras."""
    _fields = ("source", "target", "images")

    def __call__(self, elem):
        return self.source.substitute(elem, self.images, self.target)


def power_algebra(m, N, params=()):
    """The plain truncation S[t_1..t_m]/(t_1..t_m)^N."""
    return Algebra(m, N, ideal=(), params=params)
