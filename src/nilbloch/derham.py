"""Relative de Rham cohomology with certificates.

A relative subspace of the degree-n forms is named by a RelativeSpec: the
kernel of restriction to R/I, for I the full nilpotent ideal (FULL), (t^k)
in single-nilpotent graded mode (POWER(k)) or an arbitrary nilpotent ideal
(EXPLICIT(gens), parameter-free). Every presentation owns R/I, and
restriction to R/I is canonicalization there: a form is relative iff its
canonical form in R/I is 0. FULL and POWER(k) test the same predicate by
coordinates (internal degree >= k), which is cheaper.

Every spec is presented one way: as a direct sum of blocks that d
preserves, with quotient classes mod d and exactness questions solved
block by block. FULL and POWER(k) span the coordinates of internal
degree >= 1 (resp. >= k) in the weight blocks (w . alpha, pihat) of forms
(BlockedRelative). EXPLICIT is blocked by the weight w' of the quotient
R/I = Q[t]/(J + I + m^N) instead (WholeRelative): w' is zero on the
exponent differences of the generators of J and of I, so restriction r to
R/I and d keep the key (w' . alpha, ()). A canonical coordinate of R/I is
one of R (its relations contain R's, in one coordinate order), fixed by r,
so a block's relative basis is {c - r(c)} over the c that r moves: no solve.
A witness comes from the first failing block in split order
(forms.split_blocks). A degree cutoff, monomial ideals only, discards the
coordinates of internal degree above the cutoff; certificates re-verify
against what was kept.

Ranks are counted, not solved, wherever a positive weight w grades R and
I (acyclic): the Euler contraction h (forms.euler_homotopy for w = 1) has
dh + hd = w . alpha on every relative block, so over Q the relative
complex is acyclic and rank(n) = dim(n - 1) - rank(n - 1), memoized. So
FULL and POWER over a monomial ideal (w = 1), FULL with min(Algebra.weight)
> 0 and EXPLICIT with min(w') > 0 count. The gap curve (w = 0) and a w'
with a zero entry stay on solved_rank, the class_rows solve, which also
gives the h that `singular` checks against mu - tau.

EXPLICIT dims come by restriction: Omega^n_A -> Omega^n_{R/I} is onto and
keeps the key, so dim Omega^n_rel is the FULL dim of A minus that of R/I.

Graded dimensions are counted too. The parameter-free relative dimension
dim0(n) is the sum of forms.graded_dims over the internal degrees of
degree n (see forms), with no elimination of any block. Parameters are
passive: at a multidegree pihat where f parameters may carry a da_j
(forms.free_params, the rule the blocks follow), dim Omega^n_rel is
sum_s C(f, s) dim0(n - s), and 0 when pihat has a negative exponent on a
non-invertible parameter. So a FULL/POWER table builds no FormBlock at
all; FormBlock serves bases, canonical coordinates and class solves.
"""

from functools import cached_property
from itertools import product
from math import comb, prod

from .linalg import RowSpace, independent, nullspace, vec_add, vec_dot, vec_iadd
from .algebra import Algebra, Record, RingMap, poly_terms
from . import forms as fm
from .forms import Form, form_block, coord_sort_key, internal_degree


class RelativeSpec(Record):
    _fields = ("kind", "k", "gens")
    __setattr__ = __delattr__ = Record._frozen

    def __init__(self, kind, k=1, gens=()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "gens", gens)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.k, self.gens) == (other.kind, other.k, other.gens)

    def __hash__(self):
        return hash((self.kind, self.k, self.gens))

    def label(self):
        if self.kind == "full":
            return "full"
        if self.kind == "power":
            return f"power({self.k})"
        return "explicit(" + "; ".join(
            "+".join(f"{c}*{e}" for e, c in g) for g in self.gens) + ")"


FULL = RelativeSpec("full")

MAX_TABLE_ROWS = 500_000     # a table is held and printed whole, about 2 KB a row


def POWER(k):
    if k < 1:
        raise ValueError(f"invalid relative spec: power:k needs k >= 1, not {k}")
    return RelativeSpec("power", k=k)


def EXPLICIT(gens):
    return RelativeSpec("explicit", gens=tuple(tuple(sorted(poly_terms(g).items()))
                                               for g in gens))


def _lift(combo, vecs):
    """sum of c * vecs[idx] over the (idx, c) pairs of combo."""
    out = {}
    for idx, c in combo.items():
        vec_iadd(out, vecs[idx], c)
    return out


class _Relative:
    """Relative forms as a direct sum of blocks, with per-block class solves.

    d maps block (n-1, key) into block (n, key), so the classes mod d of a
    block are solved against the d-images of that block's relative
    (n-1)-basis alone. A subclass supplies five hooks: the block layout
    (block_keys, and _split of a form into blocks), the relative basis of
    a block as a list of vectors (_basis), the dimension of degree n at f
    free parameters (_dim) and whether the complex is acyclic (acyclic).
    Ranks are counted when it is, else solved. R/I (quotient) is one per
    presentation, and restrict canonicalizes a form there; is_relative asks
    that this be 0.
    """

    counted = False

    def __init__(self, algebra, rel):
        self.A = algebra
        self.rel = rel
        self._class, self._ranks = {}, {}

    @cached_property
    def quotient(self):
        """R/I: the base S for FULL (J lies in m), else A/(J + I), I = (t^k) for POWER."""
        A, rel = self.A, self.rel
        if rel.kind == "full":
            return Algebra(A.m, 1, params=A.params)
        gens = [{(rel.k,): 1}] if rel.kind == "power" else [dict(g) for g in rel.gens]
        return Algebra(A.m, A.N, ideal=list(A.ideal_gens) + gens, params=A.params)

    def restrict(self, form):
        """The image of a form in Omega of R/I: its canonical form there."""
        return Form(self.quotient, form.degree, form.terms)

    def is_relative(self, form):
        return not self.restrict(form)

    def rel_vectors(self, n):
        return [v for key in self.block_keys(n) for v in self._basis(n, key)]

    def dim(self, n, pihats=None):
        return sum(self._dim(n, self._free(p)) for p in self._pihats(pihats))

    def rank(self, n, pihats=None):
        """Rank of d into degree n: counted when acyclic, else solved_rank."""
        if not self.acyclic:
            return self.solved_rank(n, pihats)
        return sum(self._rank(n, self._free(p)) for p in self._pihats(pihats))

    def solved_rank(self, n, pihats=None):
        """Rank of d into degree n from the class rows; blocks partition the coordinates."""
        return sum(self.class_rows(n, key).rank for key in self.block_keys(n, pihats))

    def _rank(self, n, f):
        """rank(n) = dim(n - 1) - rank(n - 1), memoized like _dim."""
        if n > 0 and f is not None and (n, f) not in self._ranks:
            self._ranks[(n, f)] = self._dim(n - 1, f) - self._rank(n - 1, f)
        return self._ranks.get((n, f), 0)

    def _pihats(self, pihats):
        if pihats is None:
            if self.A.n_params:
                raise ValueError("parametric mode needs explicit multidegree blocks")
            return [(0,) * self.A.n_params]
        return pihats

    def _free(self, pihat):
        """The count f of j with da_j allowed at pihat; None if pihat holds no form."""
        free = fm.free_params(self.A, pihat)
        return None if free is None else len(free)

    def class_rows(self, n, key):
        """d-images of the relative (n-1)-basis of this block, tagged by basis index."""
        if (n, key) not in self._class:
            rows = RowSpace(order=coord_sort_key(self.A), track=True)
            for idx, v in enumerate(self._basis(n - 1, key)):
                rows.insert(fm.d(Form(self.A, n - 1, v, canonical=True)).terms, tag=idx)
            self._class[(n, key)] = rows
        return self._class[(n, key)]

    def global_class(self, n):
        """All class rows into degree n merged into one space."""
        rows = RowSpace(order=coord_sort_key(self.A))
        for key in self.block_keys(n):     # blocks share no coordinate
            rows.adopt(self.class_rows(n, key))
        return rows

    def truncate(self, form, cutoff):
        if not self.counted:
            raise ValueError("cutoff requires graded mode")
        keep = {coord: c for coord, c in form.terms.items()
                if internal_degree(self.A, coord) <= cutoff}
        return Form(self.A, form.degree, keep, canonical=True)

    def _split(self, form):
        return fm.split_blocks(self.A, form.terms)

    def reduce_class(self, form):
        out = {}
        for key, vec in self._split(form).items():
            out.update(self.class_rows(form.degree, key).reduce(vec))
        return Form(self.A, form.degree, out, canonical=True)

    def solve_class(self, form):
        """(primitive, None), or (None, (block, witness)) at the first failing block."""
        n = form.degree
        eta = {}
        for key, vec in self._split(form).items():
            rows = self.class_rows(n, key)
            combo = rows.solve(vec)
            if combo is None:
                return None, (key, rows.witness(vec))
            vec_iadd(eta, _lift(combo, self._basis(n - 1, key)))
        return Form(self.A, n - 1, eta, canonical=True), None


class BlockedRelative(_Relative):
    """FULL and POWER: the coordinates of internal degree >= k, blocked by (w . alpha, pihat)."""

    def __init__(self, algebra, rel):
        super().__init__(algebra, rel)
        self.k = 1 if rel.kind == "full" else rel.k
        self.counted = algebra.monomial_ideal
        self.acyclic = self.counted or min(algebra.weight) > 0
        self._dims = {}

    def block_keys(self, n, pihats=None):
        if not self.counted:
            return [(g, ()) for g in fm.block_grades(self.A, n)]
        top = self.A.N + min(n, self.A.m) if n >= 0 else self.k
        return [(i, p) for p in self._pihats(pihats) for i in range(self.k, top)]

    def _dim(self, n, f):
        """sum_s C(f, s) dim(n - s, 0): dim(n, 0) is counted by forms.graded_dims over a
        monomial ideal, else the sum of the blocks' relative bases (f = 0 there)."""
        if f is None:
            return 0
        if (n, f) not in self._dims:
            if f:
                dim = sum(comb(f, s) * self._dim(n - s, 0) for s in range(f + 1))
            elif self.counted:
                dim = sum(d for (deg, i), d in fm.graded_dims(self.A).items()
                          if deg == n and i >= self.k)
            else:
                dim = sum(len(self._basis(n, key)) for key in self.block_keys(n))
            self._dims[(n, f)] = dim
        return self._dims[(n, f)]

    def _basis(self, n, key):
        return [{c: 1} for c in form_block(self.A, n, key).basis
                if internal_degree(self.A, c) >= self.k]

    def is_relative(self, form):
        """The restriction to R/I is 0 iff every coordinate has internal degree >= k."""
        return all(internal_degree(self.A, coord) >= self.k for coord in form.terms)


class WholeRelative(_Relative):
    """EXPLICIT: the kernel of restriction r to R/I, blocked by (w' . alpha, ()), w' the
    weight of R/I (J and I are w'-homogeneous, so r and d keep the key). r fixes R/I's
    canonical coordinates, which are R's, so a block's basis is c - r(c) over the moved c."""

    def __init__(self, algebra, rel):
        super().__init__(algebra, rel)
        self._kernels = {}

    @cached_property
    def acyclic(self):
        return min(self.quotient.weight) > 0

    def _dim(self, n, f):
        """Restriction onto Omega of R/I is onto and keeps the key: a difference of FULL dims."""
        return relative(self.A, FULL).dim(n) - relative(self.quotient, FULL).dim(n)

    def block_keys(self, n, pihats=None):
        return list(self._blocks(n))

    def _split(self, form):
        return fm.split_blocks(self.quotient, form.terms)

    def _basis(self, n, key):
        return self._blocks(n).get(key, [])

    def _blocks(self, n):
        """{key: c - r(c) for the block's coordinates c outside the R/I block basis}."""
        if n not in self._kernels:
            A, Aq, basis = self.A, self.quotient, {}
            if n >= 0:
                fm.whole_budget(A, n)
                basis = {c: 1 for g in fm.block_grades(A, n)
                         for c in form_block(A, n, (g, ())).basis}
            kernels = {}
            for key, group in sorted(fm.split_blocks(Aq, basis).items()):
                fixed = set(form_block(Aq, n, key).basis)
                moved = [c for c in sorted(group, key=coord_sort_key(A)) if c not in fixed]
                if moved:
                    kernels[key] = [vec_add({c: 1}, Form(Aq, n, {c: 1}).terms, -1) for c in moved]
            self._kernels[n] = kernels
        return self._kernels[n]


def _spec_fault(A, rel):
    """Why rel names no relative presentation of A, or None."""
    if rel.kind == "power":
        if A.m != 1:
            return f"power:k needs m = 1, not m = {A.m}"
        if not A.monomial_ideal:
            return "power:k needs a monomial ideal"
        if rel.k > A.N:
            return f"power:{rel.k} needs k <= N = {A.N}"
    elif rel.kind == "explicit":
        if A.n_params:
            return "explicit generators need an algebra without parameters"
    elif rel.kind != "full":
        return f"unknown kind {rel.kind!r}"
    return None


def relative(algebra, rel):
    cache = algebra.__dict__.setdefault("_rel_cache", {})
    if rel not in cache:
        fault = _spec_fault(algebra, rel)
        if fault:
            raise ValueError(f"invalid relative spec: {fault}")
        cache[rel] = (WholeRelative if rel.kind == "explicit" else BlockedRelative)(algebra, rel)
    return cache[rel]


def relative_basis(algebra, rel, n):
    pres = relative(algebra, rel)
    return [Form(algebra, n, v, canonical=True) for v in pres.rel_vectors(n)]


class ExactnessCertificate(Record):
    _fields = ("exact", "degree", "cutoff", "primitive", "witness", "witness_block")

    def __init__(self, exact, degree, cutoff, primitive=None, witness=None, witness_block=None):
        self.exact = exact
        self.degree = degree
        self.cutoff = cutoff
        self.primitive = primitive          # Form with d(primitive) = form (mod cutoff)
        self.witness = witness              # dual functional as {coord: Fraction}
        self.witness_block = witness_block

    def to_json(self):
        out = {"exact": self.exact, "degree": self.degree, "cutoff": self.cutoff}
        if self.primitive is not None:
            out["primitive"] = fm.form_str(self.primitive)
        if self.witness is not None:
            out["witness"] = {_coord_str(k): str(v) for k, v in self.witness.items()}
        return out


def _coord_str(coord):
    mono, word = coord
    return f"{mono}|{word}"


def quotient_class(form, rel, cutoff=None):
    pres = relative(form.algebra, rel)
    work = pres.truncate(form, cutoff) if cutoff is not None else form
    if not pres.is_relative(work):
        raise ValueError("form not relative")
    return pres.reduce_class(work)


def is_exact(form, rel, cutoff=None):
    pres = relative(form.algebra, rel)
    work = pres.truncate(form, cutoff) if cutoff is not None else form
    if not pres.is_relative(work):
        raise ValueError("form not relative")
    eta, bad = pres.solve_class(work)
    if eta is None:
        key, w = bad
        return ExactnessCertificate(False, form.degree, cutoff,
                                    witness=w, witness_block=key)
    return ExactnessCertificate(True, form.degree, cutoff, primitive=eta)


def check_certificate(cert, form, rel):
    """Re-verify a certificate from scratch; used by the test suite."""
    pres = relative(form.algebra, rel)
    work = pres.truncate(form, cert.cutoff) if cert.cutoff is not None else form
    if cert.exact:
        return fm.d(cert.primitive) == work and pres.is_relative(cert.primitive)
    w = cert.witness
    if vec_dot(w, work.terms) == 0:
        return False
    rows = pres.class_rows(form.degree, cert.witness_block).rows.values()
    return all(vec_dot(w, row) == 0 for row in rows)


class CohomologyReport(Record):
    _fields = ("algebra", "relative_spec", "rows")

    def __init__(self, algebra, relative_spec, rows):
        self.algebra = algebra
        self.relative_spec = relative_spec
        self.rows = rows

    def all_zero(self):
        return all(r["dim_h"] == 0 for r in self.rows)

    def to_json(self):
        return {"algebra": self.algebra, "relative": self.relative_spec,
                "rows": self.rows}


def _pihat_box(algebra, bound):
    ranges = []
    for p in algebra.params:
        lo = -bound if p.invertible else 0
        ranges.append(range(lo, bound + 1))
    return [tuple(v) for v in product(*ranges)]


def cohomology(algebra, rel=FULL, param_bound=None):
    """dim H^n per degree up to m + params, and per parameter multidegree in parametric mode."""
    n_max = algebra.m + algebra.n_params
    b = param_bound or 0
    count = (n_max + 1) * prod(2 * b + 1 if p.invertible else b + 1 for p in algebra.params)
    if count > MAX_TABLE_ROWS:
        raise ValueError(f"the table has {count} rows, above the limit {MAX_TABLE_ROWS}")
    pres = relative(algebra, rel)
    # before a degree is built: kernels if solved, else the blocks that non-monomial dims
    # sum, of A and (EXPLICIT) of R/I; FULL and POWER tables never build their R/I
    for B in (algebra, pres.quotient) if rel.kind == "explicit" else (algebra,):
        for n in range(n_max + 1) if not (pres.acyclic and B.monomial_ideal) else ():
            fm.whole_budget(B, n)
    box = [(p, pres._free(p)) for p in _pihat_box(algebra, b)]   # [((), 0)] without parameters
    rows = []
    for n in range(n_max + 1):
        for p, f in box:
            dim = pres._dim(n, f)
            if pres.acyclic:
                dim_im, dim_ker = pres._rank(n, f), dim - pres._rank(n + 1, f)
            else:
                dim_im, dim_ker = pres.solved_rank(n, [p]), dim - pres.solved_rank(n + 1, [p])
            row = {"degree": n, "dim": dim, "dim_ker": dim_ker,
                   "dim_im": dim_im, "dim_h": dim_ker - dim_im}
            if algebra.n_params:
                row["pihat"] = list(p)
            rows.append(row)
    return CohomologyReport(algebra.describe(), rel.label(), rows)


# -- the six-term sequence -----------------------------------------------------


def _class_basis(pres, algebra, n):
    """Independent canonical representatives of Omega^n_rel / d Omega^{n-1}_rel."""
    reds = [pres.reduce_class(Form(algebra, n, v, canonical=True)).terms
            for v in pres.rel_vectors(n)]
    return [Form(algebra, n, v, canonical=True) for v in independent(reds)]


def _h_basis(pres, algebra, n):
    """Representatives of H^n of the relative complex."""
    if n < 0:
        return []
    vecs = pres.rel_vectors(n)
    images = [fm.d(Form(algebra, n, v, canonical=True)).terms for v in vecs]
    kernel = nullspace(images, order=coord_sort_key(algebra))
    cycles = [_lift(combo, vecs) for combo in kernel]
    return [Form(algebra, n, v, canonical=True)
            for v in independent(cycles, pres.global_class(n))]


class SequenceReport(Record):
    _fields = ("algebra", "inner", "outer", "degree", "degreewise", "dim_inner_classes",
               "dim_outer_classes", "dim_quotient_classes", "h_prev_outer", "h_prev_quotient",
               "rank_alpha", "rank_beta", "rank_inclusion", "rank_projection",
               "correction_dim", "alpha_injective", "additivity_ok", "exact_at_h",
               "exact_at_inner", "exact_at_outer", "surjective", "passed")


def verify_forms_sequence(algebra, inner, outer=FULL, degree=1):
    """Check the six-term class-level sequence and the degreewise one.

    inner names J, outer names I with J inside I; currently the outer ideal
    must be the full nilpotent ideal. Writing R' = R/J, the sequence is

      H^{n-1}(R,I) -> H^{n-1}(R',I') -> Om^n_J/d -> Om^n_I/d -> Om^n_{R',I'}/d -> 0

    with the middle arrow the connecting map alpha (lift, differentiate,
    take the class in the J-relative quotient).
    """
    if outer.kind != "full":
        raise ValueError("not nested ideals")
    if algebra.n_params:
        raise ValueError("sequence report requires parameter-free mode")
    if degree > algebra.m + 1:
        raise ValueError(f"degree above m + 1 = {algebra.m + 1}: every term is 0")
    A = algebra
    n = degree
    presJ = relative(A, inner)
    presI = relative(A, outer)
    Aq, push = presJ.quotient, presJ.restrict
    presQ = relative(Aq, FULL)
    degreewise = []
    seq4_ok = True
    for kdeg in range(0, n + 1):
        vecsJ = presJ.rel_vectors(kdeg)
        dimJ = len(vecsJ)       # the solved kernel: a counted dim is dimI - dimQ
        dimI = presI.dim(kdeg)
        dimQ = presQ.dim(kdeg)
        formsJ = [Form(A, kdeg, v, canonical=True) for v in vecsJ]
        inclusion_ok = all(map(presI.is_relative, formsJ))
        comp_zero = not any(map(push, formsJ))
        rank_push = len(independent(push(Form(A, kdeg, v, canonical=True)).terms
                                    for v in presI.rel_vectors(kdeg)))
        row = {"degree": kdeg, "dim_inner": dimJ, "dim_outer": dimI,
               "dim_quotient": dimQ,
               "inclusion_ok": inclusion_ok,
               "composite_zero": comp_zero,
               "surjective": rank_push == dimQ,
               "dims_additive": dimJ + dimQ == dimI}
        degreewise.append(row)
        seq4_ok = seq4_ok and all(row[k] for k in
                                  ("inclusion_ok", "composite_zero",
                                   "surjective", "dims_additive"))

    repsJ = _class_basis(presJ, A, n)
    repsI = _class_basis(presI, A, n)
    repsQ = _class_basis(presQ, Aq, n)
    A_dim, B_dim, C_dim = len(repsJ), len(repsI), len(repsQ)

    rank_incl = len(independent(presI.reduce_class(rep).terms for rep in repsJ))
    rank_proj = len(independent(presQ.reduce_class(push(rep)).terms for rep in repsI))
    comp_zero_classes = all(not presQ.reduce_class(push(rep)).terms for rep in repsJ)

    h_prev = _h_basis(presI, A, n - 1)
    h_quot = _h_basis(presQ, Aq, n - 1)

    # a class of Om^{n-1}_{R',I'} lifts to its own terms over R: each canonical coordinate
    # of R' is one of R, fixed by restriction to R', and relative to the full ideal I
    alpha_images = []
    for rep in h_quot:
        deta = fm.d(Form(A, n - 1, rep.terms, canonical=True))
        if presJ.is_relative(deta):
            alpha_images.append(presJ.reduce_class(deta))
    alpha_ok = len(alpha_images) == len(h_quot)
    rank_alpha = len(independent(img.terms for img in alpha_images))
    iota_alpha_zero = all(not presI.reduce_class(img).terms for img in alpha_images)
    rank_beta = len(independent((push(rep).terms for rep in h_prev),
                                presQ.global_class(n - 1)))

    correction = len(h_quot) - rank_beta
    exact_at_h = rank_alpha == correction
    exact_at_inner = (A_dim - rank_incl == rank_alpha) and iota_alpha_zero and alpha_ok
    exact_at_outer = (B_dim - rank_proj == rank_incl) and comp_zero_classes
    surjective = rank_proj == C_dim
    additivity = A_dim == correction + B_dim - C_dim
    passed = all([seq4_ok, exact_at_h, exact_at_inner, exact_at_outer,
                  surjective, additivity])
    return SequenceReport(
        algebra=A.describe(), inner=inner.label(), outer=outer.label(),
        degree=n, degreewise=degreewise,
        dim_inner_classes=A_dim, dim_outer_classes=B_dim,
        dim_quotient_classes=C_dim,
        h_prev_outer=len(h_prev), h_prev_quotient=len(h_quot),
        rank_alpha=rank_alpha, rank_beta=rank_beta,
        rank_inclusion=rank_incl, rank_projection=rank_proj,
        correction_dim=correction,
        alpha_injective=rank_alpha == len(h_quot),
        additivity_ok=additivity,
        exact_at_h=exact_at_h, exact_at_inner=exact_at_inner,
        exact_at_outer=exact_at_outer, surjective=surjective,
        passed=passed)


# -- the substitution isomorphism ------------------------------------------------


class SigmaReport(Record):
    _fields = ("N", "rows", "passed")


def sigma_report(N, degrees=(0, 1, 2)):
    """t |-> t^(N-1) from R_2 onto the (t^(N-1))-relative forms of R_N."""
    if N < 2:
        raise ValueError("N must be at least 2")
    A2 = Algebra(1, 2)
    AN = Algebra(1, N)
    sigma = RingMap(A2, AN, {"t": AN.nil() ** (N - 1)})
    dom = relative(A2, FULL)
    tgt = relative(AN, POWER(N - 1))
    rows = []
    passed = True
    for n in degrees:
        basis = dom.rel_vectors(n)
        imgs = [fm.push_form(sigma, Form(A2, n, v, canonical=True)) for v in basis]
        landed = all(tgt.is_relative(img) for img in imgs)
        rank = len(independent(img.terms for img in imgs))
        dim_dom = len(basis)
        dim_tgt = tgt.dim(n)
        bij = landed and rank == dim_dom == dim_tgt
        rows.append({"degree": n, "dim_domain": dim_dom, "dim_target": dim_tgt,
                     "rank": rank, "bijective": bij})
        passed = passed and bij
    return SigmaReport(N, rows, passed)
