"""Differential forms over truncated nilpotent algebras.

A degree-n form is stored as a sparse combination of coordinates
(coefficient monomial, wedge word); wedge words are ascending tuples of
generator indices, nilpotent variables first (index i < m means dt_i, index
m+j means d of the j-th parameter). Coordinates are canonical: coefficient
monomials are normal-form basis monomials and every form is reduced against
the d(ideal)-relation rows of its presentation.

Every algebra is presented in blocks. The coordinate t^beta dt_I ^ da_D
has alpha = beta + 1_I, and the weight w of the algebra (Algebra.weight)
makes J + m^N spanned by w-homogeneous f, so the relation rows
d(f) ^ dt_T and d preserve the block key (w . alpha, pihat), pihat the
parameter multidegree (da_j counts e_j). Blocks are built and cached one
at a time, per ring: Algebra keeps one instance per ring, so a repeated
ring finds its blocks built. A monomial ideal has w = (1, ..., 1): its
key is (internal degree, pihat). The gap curve t1^4+t1^2 t2^3+t2^5 has
w = 0, one block per degree.

Parameters are passive. With S = Q[a, b^±1, ...], Omega of S[t]/J is
Omega_S tensor Omega of Q[t]/J, so every relation row is d(f) ^ dt_T ^ da_D
with f parameter-free. Block (n, (i, pihat)) is the sum, over the words D
whose da_j may occur at pihat (free_params), of the coordinates
((pihat - e_D, texp), T + D) with |T| = n - |D|, and FormBlock builds it
from those rows like any other block.

Graded block dimensions are counted, not eliminated (graded_dims). In
Q[t]/J with J monomial, the coordinate t^beta dt_I has fine multidegree
alpha = beta + 1_I in N^m. The relations and d both preserve alpha, and
block (n, (i, ())) is the sum of the fine blocks with |alpha| = i. Let S =
supp alpha and s = |S|. In fine degree alpha the n-coordinates are the
subsets I of S with |I| = n, and I is alive iff alpha - 1_I is not in J;
the dead subsets form a down-set Delta_alpha. Every relation row u da^dT
has the same alive terms as d(t^(alpha - 1_T))^dT for a dead T with
|T| = n - 1 (the terms where u or a keeps its t_v lie in J). Rescaling
e_I by prod_{v in I} alpha_v turns these rows into the unweighted signed
coboundary sum_{v in S - T} +-e_{T+v}. So dim_alpha(n) = #alive n-subsets
- rank depends only on (s, Delta_alpha): it is C(s, n) when alpha is
alive, 0 when alpha - 1_S is dead, and otherwise one small exact
elimination, _fine_dims(s, k, covers), kept in one bounded process-wide
memo as its key names no algebra: I is dead iff |I| <= k = |alpha| - N or
I lies in a cover {v in S: alpha_v > g_v} of a generator g dividing alpha
(the key keeps the maximal covers of more than k elements alone). Without
J no alpha is listed: C(m, s) C(i - 1, s - 1) of them have |supp alpha| =
s and |alpha| = i (s <= i <= N - 1 + s), all with one key. J sees alpha
only through its capped profile gamma_v = min(alpha_v, c_v), c_v = 1 +
max_g g_v, which fixes S, the generators dividing alpha, their covers and
whether alpha - 1_S is alive. So graded_dims lists, for each generator g,
the gamma >= g with |gamma - 1_S| < N; with u coordinates at their cap,
gamma stands for C(i - |gamma| + u - 1, u - 1) alpha of degree i, all with
one key, whose J-free share it takes off and whose own it adds.
FormBlock stays the only source of bases and canonical coordinates.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from operator import mul

from .linalg import RowSpace, independent, vec_add, vec_iadd, vec_scale
from .algebra import MAX_RINGS, AlgElem, _divides, _q, monomials_of_degree, signed_sum

# the most coordinates of one degree over a non-monomial ideal or in an EXPLICIT kernel
MAX_WHOLE_COORDS = 450_000


def wedge_insert(idx, word):
    """Sign and word for e_idx wedge word; (0, None) when idx repeats."""
    if idx in word:
        return 0, None
    pos = sum(1 for w in word if w < idx)
    out = tuple(sorted(word + (idx,)))
    return (-1) ** pos, out


def merge_words(w1, w2):
    if set(w1) & set(w2):
        return 0, None
    inv = sum(1 for a in w1 for b in w2 if a > b)
    return (-1) ** inv, tuple(sorted(w1 + w2))


def block_key(algebra, mono, word):
    """(w . alpha, parameter multidegree) of a coordinate, alpha = texp + 1_(nilpotent word)."""
    pexp, texp = mono
    m, weight = algebra.m, algebra.weight
    i = sum(map(mul, weight, texp))     # Algebra.grade inlined: every canonical form splits
    pihat = list(pexp)
    for v in word:
        if v < m:
            i += weight[v]
        else:
            pihat[v - m] += 1
    return (i, tuple(pihat))


def internal_degree(algebra, coord):
    """|alpha|: the nilpotent degree of the coefficient plus the dt's of the word."""
    (_, texp), word = coord
    return sum(texp) + sum(1 for v in word if v < algebra.m)


def block_grades(algebra, n):
    """The w . alpha of the degree-n coordinates of a parameter-free algebra, ascending."""
    if n < 0:
        return []
    return sorted({g + algebra.grade((), T) for T in combinations(range(algebra.m), n)
                   for g in algebra._basis_by_grade})


def coord_sort_key(algebra):
    mk = algebra.mono_key
    return lambda coord: (mk(coord[0]), coord[1])


class FormBlock:
    """Presentation of one block of the degree-n form module."""

    def __init__(self, algebra, n, key):
        self.algebra = algebra
        self.n = n
        self.key = key
        self.order = coord_sort_key(algebra)
        self.words = param_words(algebra, key[1], n)
        self.coords = self._coords()
        self.rows = RowSpace(order=self.order)
        for row in self._relation_rows() if self.coords else ():
            self.rows.insert(row)
        self.basis = [c for c in sorted(self.coords, key=self.order)
                      if c not in self.rows.rows]

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        return self.rows.reduce(vec)

    def _coords(self):
        A = self.algebra
        if self.n >= 0 and not A.monomial_ideal:
            whole_budget(A, self.n)
        # the word dT has weight w . 1_T, so texp has grade key - w . 1_T
        return [((pexp, texp), T + dword) for pexp, dword in self.words
                for T in combinations(range(A.m), self.n - len(dword))
                for texp in A._basis_by_grade.get(self.key[0] - A.grade((), T), ())]

    def _relation_rows(self):
        """d(a^pexp f) ^ dt_T ^ da_D for each word D, each (n-|D|-1)-subset T and each f
        of grade key - w . 1_T, pexp = pihat - e_D."""
        A = self.algebra
        for pexp, dword in self.words:
            r = self.n - 1 - len(dword)
            for T in combinations(range(A.m), r) if r >= 0 else ():
                for df in _relation_diffs(A, self.key[0] - A.grade((), T), pexp):
                    row = {}
                    for v, partial in df:
                        sign, word = wedge_insert(v, T + dword)
                        if sign:    # distinct v give distinct words, so no coord repeats
                            row.update(((mono, word), c * sign) for mono, c in partial.items())
                    if row:
                        yield row


def _relation_diffs(algebra, grade, pexp):
    """The nilpotent part of d(a^pexp f) for the f of this grade in a w-homogeneous
    basis of J + m^N, as nonzero partials [(v, {mono: c})] in normal form; cached.
    Monomial ideal: the border monomials (dead, with an alive t^(e - e_v)); else the
    reduced ideal rows, which are homogeneous as a graded span's reduced echelon
    basis is unique, then the degree-N monomials."""
    A = algebra
    cache = A.__dict__.setdefault("_relation_diffs", {})
    if (grade, pexp) not in cache:
        if A.monomial_ideal:
            border = {e[:v] + (e[v] + 1,) + e[v + 1:] for v in range(A.m)
                      for e in A._basis_by_grade.get(grade - A.weight[v], ())}
            polys = [{e: 1} for e in sorted(border) if A._mono_dead(e)]
        else:
            by_grade = A.__dict__.get("_relation_polys")
            if by_grade is None:    # bucketed once, in row order, then monomial order
                by_grade = A.__dict__["_relation_polys"] = {}
                top = ({e: 1} for e in monomials_of_degree(A.m, A.N))
                for f in chain(A._ring_rows.rows.values(), top):
                    by_grade.setdefault(A.grade(next(iter(f))), []).append(f)
            polys = by_grade.get(grade, ())
        diffs = ([(v, A.normal_form({(pexp, a[:v] + (a[v] - 1,) + a[v + 1:]): c * a[v]
                                     for a, c in f.items() if a[v]})) for v in range(A.m)]
                 for f in polys)
        cache[(grade, pexp)] = [[(v, partial) for v, partial in df if partial] for df in diffs]
    return cache[(grade, pexp)]


def whole_budget(algebra, n):
    """Refuse degree n >= 0 of more than MAX_WHOLE_COORDS coordinates (checked where a
    non-monomial ideal builds a block or an EXPLICIT kernel, or before such a table)."""
    count = comb(algebra.m, n) * len(algebra.nil_basis)
    if count > MAX_WHOLE_COORDS:
        ideal = ", ".join(algebra.describe()["ideal"])
        raise ValueError(f"degree {n} of m = {algebra.m}, N = {algebra.N}"
                         f"{f' with ideal ({ideal})' if ideal else ''} has {count} "
                         f"coordinates, above the limit {MAX_WHOLE_COORDS}")


def free_params(algebra, pihat):
    """The j whose da_j may occur at parameter multidegree pihat (a_j invertible or
    pihat_j >= 1), or None when pihat holds no form (a negative exponent on a
    non-invertible parameter)."""
    free = []
    for j, (e, p) in enumerate(zip(pihat, algebra.params)):
        if p.invertible or e >= 1:
            free.append(j)
        elif e < 0:
            return None
    return free


def param_words(algebra, pihat, n):
    """[(pihat - e_D, da_D)] for the parameter words D of at most n letters allowed at
    pihat (free_params): [((), ())] without parameters, [] when n < 0."""
    if not pihat:       # no parameters: most blocks, so free_params is skipped
        return [((), ())] if n >= 0 else []
    free = free_params(algebra, pihat)
    return [(tuple(e - (j in D) for j, e in enumerate(pihat)), tuple(algebra.m + j for j in D))
            for s in range(min(n, len(free)) + 1 if free is not None else 0)
            for D in combinations(free, s)]


def graded_dims(algebra):
    """{(n, i): dim of block (n, (i, ()))} of Q[t]/J, J the monomial ideal of algebra
    without its parameters, counted per capped profile."""
    if not algebra.monomial_ideal:
        raise ValueError("graded dims need a monomial ideal")
    return _graded_dims(algebra.m, algebra.N, algebra.mono_gens)


@lru_cache(maxsize=MAX_RINGS)
def _graded_dims(m, N, gens):
    """graded_dims of Q[t_1..t_m]/(gens, m^N), in one bounded process-wide memo: the
    key names no ring, so a parametric ring shares the count of its parameter-free one."""
    # how many alpha have each (|alpha|, _fine_dims key); first without J
    counts = Counter({(0, (0, -1, frozenset())): 1})
    for s in range(1, m + 1):
        for i in range(s, N + s):
            counts[(i, (s, max(i - N, -1), frozenset()))] += comb(m, s) * comb(i - 1, s - 1)
    # then each profile gamma = min(alpha, cap) a generator divides, counted once
    cap = [1 + max(col) for col in zip(*gens)]
    for g in gens:
        for gamma in _profiles(g, cap, N - 1):
            divs = [h for h in gens if _divides(h, gamma)]
            if divs[0] != g:
                continue        # counted with an earlier generator
            S = [v for v, a in enumerate(gamma) if a]
            s, low, u = len(S), sum(gamma), sum(a == c for a, c in zip(gamma, cap))
            covers = {sum(1 << b for b, v in enumerate(S) if gamma[v] > h[v]) for h in divs}
            covers = frozenset(U for U in covers         # the maximal ones
                               if not any(U != W and U | W == W for W in covers))
            for i in range(low, N + s if u else low + 1):
                # the alpha >= gamma of degree i that raise only the capped coordinates
                times = comb(i - low + u - 1, u - 1) if u else 1
                k = max(i - N, -1)
                counts[(i, (s, k, frozenset()))] -= times
                if (1 << s) - 1 not in covers:    # beta = alpha - 1_S alive
                    # a cover of at most k elements holds subsets dead by degree only
                    live = frozenset(U for U in covers if U.bit_count() > k)
                    counts[(i, (s, k, live))] += times
    dims = Counter()
    for (i, key), times in counts.items():
        for n, dim in enumerate(_fine_dims(*key) if times else ()):
            dims[(n, i)] += times * dim
    return {k: dim for k, dim in dims.items() if dim}


def _profiles(g, cap, budget):
    """The gamma with g <= gamma <= cap and |gamma - 1_(supp gamma)| <= budget, each
    coordinate pruned against the least that the coordinates after it add."""
    rest = [sum(max(e - 1, 0) for e in g[v:]) for v in range(len(g) + 1)]
    layer = [((), 0)]
    for v, top in enumerate(cap):
        room = budget - rest[v + 1]
        layer = [(p + (x,), b + max(x - 1, 0)) for p, b in layer
                 for x in range(g[v], top + 1) if b + max(x - 1, 0) <= room]
    return [p for p, _ in layer]


@lru_cache(maxsize=4096)
def _fine_dims(s, k, covers):
    """dim_alpha(n) for n = 0..s: alive n-subsets minus the rank of the dead rows.

    Subsets I of S are bitmasks; I is dead iff |I| <= k or I lies in a cover.
    S itself is alive, so a dead I has |I| < s.
    """
    dead = [I.bit_count() <= k or any(not I & ~U for U in covers) for I in range(1 << s)]
    dims = [0] * (s + 1)
    rows = [[] for _ in range(s + 1)]
    for I, gone in enumerate(dead):
        n = I.bit_count()
        if not gone:
            dims[n] += 1
        else:
            # d(t^(alpha - 1_I)) ^ dt_I, rescaled: the signed coboundary of e_I
            rows[n + 1].append({I | 1 << v: (-1) ** (I & ((1 << v) - 1)).bit_count()
                                for v in range(s) if not I >> v & 1 and not dead[I | 1 << v]})
    return tuple(dim - len(independent(r)) for dim, r in zip(dims, rows))


def form_block(algebra, n, key):
    cache = algebra._form_cache
    if (n, key) not in cache:
        cache[(n, key)] = FormBlock(algebra, n, key)
    return cache[(n, key)]


def split_blocks(algebra, terms):
    """Terms grouped by block_key, keys in order of first appearance."""
    blocks = {}
    for coord, c in terms.items():
        blocks.setdefault(block_key(algebra, *coord), {})[coord] = c
    return blocks


def canonical_terms(algebra, n, raw):
    """Normal-form coefficients, then reduce blockwise against relations."""
    by_word = {}
    for (mono, word), c in raw.items():
        if c:
            by_word.setdefault(word, {})[mono] = _q(c)
    flat = {}
    for word, poly in by_word.items():
        for mono, c in algebra.normal_form(poly).items():
            flat[(mono, word)] = c
    return _reduce_blocks(algebra, n, flat)


def _reduce_blocks(algebra, n, flat):
    out = {}
    for key, vec in split_blocks(algebra, flat).items():
        out.update((k, _q(c)) for k, c in form_block(algebra, n, key).reduce(vec).items())
    return out


class Form:
    """Canonical differential form of fixed degree."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra, degree, raw_terms, canonical=False):
        self.algebra = algebra
        self.degree = degree
        self.terms = dict(raw_terms) if canonical else canonical_terms(algebra, degree, raw_terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.algebra is other.algebra and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.algebra), self.degree, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if not isinstance(other, Form) or other.algebra is not self.algebra \
                or other.degree != self.degree:
            return NotImplemented
        return Form(self.algebra, self.degree, vec_add(self.terms, other.terms),
                    canonical=True)

    def __neg__(self):
        return Form(self.algebra, self.degree,
                    {k: -c for k, c in self.terms.items()}, canonical=True)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Form(self.algebra, self.degree, vec_scale(self.terms, other),
                        canonical=True)
        if isinstance(other, AlgElem):
            return scale(other, self)
        return NotImplemented

    __mul__ = __rmul__

    def internal_degrees(self):
        return sorted({internal_degree(self.algebra, coord) for coord in self.terms})

    def __str__(self):
        return form_str(self)

    __repr__ = __str__


def zero_form(algebra, n):
    return Form(algebra, n, {}, canonical=True)


def form_of_element(elem):
    return Form(elem.algebra, 0, {(mono, ()): c for mono, c in elem.terms.items()},
                canonical=True)


def d_terms(algebra, terms):
    """Raw (not yet canonical) terms of d of a term dict. Its coefficients divide the
    input's, so normal-form input gives normal-form coefficients (see d), as
    wedge_terms requires."""
    m = algebra.m
    raw = {}
    for ((pexp, texp), word), c in terms.items():
        exps = texp + pexp      # indexed like wedge words: dt_v, then da_j
        for g, e in enumerate(exps):
            if not e:
                continue
            sign, new = wedge_insert(g, word)
            if not sign:
                continue
            low = exps[:g] + (e - 1,) + exps[g + 1:]
            k = ((low[m:], low[:m]), new)
            a = c * (e * sign)      # one Fraction product, not two
            b = raw.get(k)
            raw[k] = a if b is None else b + a
    return raw


def d(form):
    """Exterior derivative. Normal-form monomials are closed under division (the pivots
    of J + m^N are its leading monomials, an upper set), so the raw terms of d of a
    canonical form need only _q and the blockwise reduce, not a second normal form."""
    A, n = form.algebra, form.degree + 1
    raw = {k: _q(c) for k, c in d_terms(A, form.terms).items() if c}
    return Form(A, n, _reduce_blocks(A, n, raw), canonical=True)


def d_elem(elem):
    return d(form_of_element(elem))


def wedge_terms(algebra, f, g):
    """Raw (not yet canonical) terms of the wedge of two term dicts, one mul_terms per
    pair of wedge words. Each word's coefficients must be a normal form, as mul_terms
    requires, or the ideal non-monomial: mul_terms then normalizes its product."""
    f_words, g_words = {}, {}
    for by_word, terms in ((f_words, f), (g_words, g)):
        for (mono, word), c in terms.items():
            by_word.setdefault(word, {})[mono] = c
    raw = {}
    for w1, p1 in f_words.items():
        for w2, p2 in g_words.items():
            sign, word = merge_words(w1, w2)
            if sign:
                prod = algebra.mul_terms(p1, p2)
                vec_iadd(raw, {(mono, word): c for mono, c in prod.items()}, sign)
    return raw


def wedge(f, g):
    if f.algebra is not g.algebra:
        raise ValueError("forms over different algebras")
    return Form(f.algebra, f.degree + g.degree, wedge_terms(f.algebra, f.terms, g.terms))


def scale(elem, form):
    A = form.algebra
    return Form(A, form.degree, wedge_terms(A, form_of_element(elem).terms, form.terms))


def unit_logs(u):
    """(s, x, log(1+x), dlog s, dlog u) for a unit u = s*(1+x), the forms as raw terms.

    dlog s = sum_j e_j a_j^-1 da_j for s = c*a^e of the base (0 without parameters),
    and dlog u = dlog s + d log(1+x): over Q the truncating log series gives
    d log(1+x) = dx/(1+x) exactly, with no inverse."""
    A = u.algebra
    s, x = A.unit_split(u)
    log = form_of_element(A.log1p(x)).terms
    ((pexp, texp), _), = s.terms.items()
    dlog_s = {((tuple(-1 if k == j else 0 for k in range(A.n_params)), texp), (A.m + j,)): e
              for j, e in enumerate(pexp) if e}
    dlog_x = d_terms(A, log)
    return s, x, log, dlog_s, vec_add(dlog_s, dlog_x) if dlog_s else dlog_x


def dlog(u):
    """du/u for a unit u, canonical; its raw terms are unit_logs(u)[4]."""
    return Form(u.algebra, 1, unit_logs(u)[4])


def euler_homotopy(form):
    """Contraction with the Euler field E = sum t_v d/dt_v (parameters weight 0).

    i_E(t^a dt_W ^ da_D) = sum_s (-1)^s t_{w_s} t^a dt_{W - w_s} ^ da_D over the
    dt-positions s. E preserves a monomial ideal; dh + hd = internal degree.
    """
    A = form.algebra
    if not A.monomial_ideal:
        raise ValueError("homotopy requires graded (monomial-ideal) mode")
    raw = {}
    for ((pexp, texp), word), c in form.terms.items():
        for s, v in enumerate(word):
            if v >= A.m:
                break
            k = ((pexp, texp[:v] + (texp[v] + 1,) + texp[v + 1:]), word[:s] + word[s + 1:])
            raw[k] = raw.get(k, 0) + (-1) ** s * c
    return Form(A, form.degree - 1, raw)


def graded_component(form, i):
    A = form.algebra
    if not A.monomial_ideal:
        raise ValueError("graded component requires monomial-ideal mode")
    keep = {coord: c for coord, c in form.terms.items() if internal_degree(A, coord) == i}
    return Form(A, form.degree, keep, canonical=True)


def push_form(rmap, form):
    """Image of a form under a ring map, sending c*dW to map(c)*d(map(W))."""
    src, tgt = rmap.source, rmap.target
    out = zero_form(tgt, form.degree)
    names = src.nil_names + tuple(p.name for p in src.params)
    for (mono, word), c in form.terms.items():
        piece = form_of_element(rmap(AlgElem(src, {mono: c})))
        for w in word:
            name = names[w]     # dt_v for w < m, else d of parameter w - m
            img = rmap.images[name] if name in rmap.images else tgt.var(name)
            piece = wedge(piece, d_elem(img))
        out = out + piece
    return out


def form_str(form):
    """Serialize as 'c * mono * dW' terms joined by ' + ', wedges by '∧'."""
    A = form.algebra
    names = list(A.nil_names) + [p.name for p in A.params]

    def body(coord):
        mono, word = coord
        part = f"{abs(form.terms[coord])} * {A.mono_str(mono) or '1'}"
        return part + " * " + "∧".join("d" + names[w] for w in word) if word else part

    coords = sorted(form.terms, key=coord_sort_key(A), reverse=True)
    return signed_sum(((form.terms[c], body(c)) for c in coords), " ")
