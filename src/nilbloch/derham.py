"""Relative de Rham cohomology with certificates.

A relative subspace of the degree-n forms is named by a RelativeSpec:
FULL is the kernel of restriction to R/I for the full nilpotent ideal,
POWER(k) the kernel for (t^k) in single-nilpotent graded mode, and
EXPLICIT(gens) the kernel for an arbitrary nilpotent ideal, found by
presenting both form modules and solving for the kernel (parameter-free).

In graded (monomial-ideal) mode FULL and POWER(k) are exactly the spans of
the internal-degree >= 1 (resp. >= k) coordinates, and the differential
preserves each (internal degree, parameter multidegree) block, so quotient
classes mod d and exactness questions split into small independent solves.
A degree cutoff discards the blocks of internal degree above the cutoff
before solving; certificates re-verify exactly against what was kept.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .linalg import RowSpace, nullspace, vec_dot, vec_iadd
from .algebra import Algebra, AlgElem, RingMap
from . import forms as fm
from .forms import Form, WHOLE, form_block, block_key, coord_sort_key


@dataclass(frozen=True)
class RelativeSpec:
    kind: str
    k: int = 1
    gens: tuple = ()

    def label(self):
        if self.kind == "full":
            return "full"
        if self.kind == "power":
            return f"power({self.k})"
        return "explicit(" + "; ".join(
            "+".join(f"{c}*{e}" for e, c in g) for g in self.gens) + ")"


FULL = RelativeSpec("full")


def POWER(k):
    if k < 1:
        raise ValueError("invalid relative spec")
    return RelativeSpec("power", k=k)


def EXPLICIT(gens):
    frozen = []
    for g in gens:
        if isinstance(g, AlgElem):
            items = {}
            for (pexp, texp), c in g.terms.items():
                if any(pexp):
                    raise ValueError("invalid relative spec")
                items[texp] = items.get(texp, 0) + c
        else:
            items = {tuple(k): Fraction(v) for k, v in dict(g).items()}
        frozen.append(tuple(sorted((e, Fraction(c)) for e, c in items.items() if c)))
    return RelativeSpec("explicit", gens=tuple(frozen))


def _zero_pihat(A):
    return (0,) * A.n_params


def _lift(combo, vecs):
    """sum of c * vecs[idx] over the (idx, c) pairs of combo."""
    out = {}
    for idx, c in combo.items():
        vec_iadd(out, vecs[idx], c)
    return out


class BlockedRelative:
    """FULL/POWER presentation in graded mode: per-block spans and solves."""

    def __init__(self, algebra, rel):
        self.A = algebra
        self.rel = rel
        self.k = 1 if rel.kind == "full" else rel.k
        self._class = {}

    def block_keys(self, n, pihats=None):
        if pihats is None:
            if self.A.n_params:
                raise ValueError("parametric mode needs explicit multidegree blocks")
            pihats = [_zero_pihat(self.A)]
        top = self.A.N + min(n, self.A.m) if n >= 0 else self.k
        return [(i, p) for p in pihats for i in range(self.k, top)]

    def rel_vectors(self, n):
        out = []
        for key in self.block_keys(n):
            for coord in form_block(self.A, n, key).basis:
                out.append({coord: Fraction(1)})
        return out

    def dim(self, n):
        return sum(form_block(self.A, n, key).dim for key in self.block_keys(n))

    def is_relative(self, form):
        return all(block_key(self.A, *coord)[0] >= self.k for coord in form.terms)

    def truncate(self, form, cutoff):
        keep = {coord: c for coord, c in form.terms.items()
                if block_key(self.A, *coord)[0] <= cutoff}
        return Form(self.A, form.degree, keep, canonical=True)

    def class_rows(self, n, key):
        """d-images of the relative (n-1)-basis of this block, tagged by coord."""
        if (n, key) not in self._class:
            rows = RowSpace(order=coord_sort_key(self.A), track=True)
            if key[0] >= self.k:
                for coord in form_block(self.A, n - 1, key).basis:
                    df = fm.d(Form(self.A, n - 1, {coord: Fraction(1)}, canonical=True))
                    rows.insert(df.terms, tag=coord)
            self._class[(n, key)] = rows
        return self._class[(n, key)]

    def _split(self, form, cutoff):
        blocks = {}
        for coord, c in form.terms.items():
            key = block_key(self.A, *coord)
            if cutoff is not None and key[0] > cutoff:
                continue
            blocks.setdefault(key, {})[coord] = c
        return blocks

    def reduce_class(self, form, cutoff=None):
        out = {}
        for key, vec in self._split(form, cutoff).items():
            out.update(self.class_rows(form.degree, key).reduce(vec))
        return Form(self.A, form.degree, out, canonical=True)

    def solve_class(self, form, cutoff=None):
        eta = {}
        for key, vec in self._split(form, cutoff).items():
            rows = self.class_rows(form.degree, key)
            combo = rows.solve(vec)
            if combo is None:
                return None, (key, rows.witness(vec))
            vec_iadd(eta, combo)
        return Form(self.A, form.degree - 1, eta, canonical=True), None

    def rank(self, n):
        """Rank of d into degree n; blocks partition the coordinates."""
        return sum(self.class_rows(n, key).rank for key in self.block_keys(n))

    def global_class(self, n):
        rows = RowSpace(order=coord_sort_key(self.A))
        for key in self.block_keys(n):
            for row in self.class_rows(n, key).rows.values():
                rows.insert(dict(row))
        return rows


class WholeRelative:
    """Whole-space presentation: EXPLICIT kernels and the non-graded FULL case."""

    def __init__(self, algebra, rel):
        if algebra.n_params:
            raise ValueError("invalid relative spec")
        self.A = algebra
        self.rel = rel
        self._vectors = {}
        self._member = {}
        self._class = {}
        if rel.kind == "explicit":
            extra = [dict(g) for g in rel.gens]
            self.quotient = Algebra(algebra.m, algebra.N,
                                    ideal=list(algebra.ideal_gens) + extra)
        else:
            self.quotient = None

    def coords(self, n):
        if n < 0:
            return []
        if self.A.monomial_ideal:
            out = []
            key0 = _zero_pihat(self.A)
            for i in range(0, self.A.N + min(n, self.A.m)):
                out.extend(form_block(self.A, n, (i, key0)).basis)
            return out
        return list(form_block(self.A, n, WHOLE).basis)

    def rel_vectors(self, n):
        if n not in self._vectors:
            coords = self.coords(n)
            if self.rel.kind == "full":
                if n == 0:
                    vecs = [{c: Fraction(1)} for c in coords if sum(c[0][1]) >= 1]
                else:
                    vecs = [{c: Fraction(1)} for c in coords]
            else:
                images = []
                Aq = self.quotient
                for (mono, word) in coords:
                    img = Form(Aq, n, {(mono, word): Fraction(1)})
                    images.append(img.terms)
                kern = nullspace(images, order=coord_sort_key(Aq))
                vecs = [{coords[idx]: c for idx, c in combo.items()} for combo in kern]
            self._vectors[n] = vecs
        return self._vectors[n]

    def dim(self, n):
        return len(self.rel_vectors(n))

    def _membership(self, n):
        if n not in self._member:
            rows = RowSpace(order=coord_sort_key(self.A))
            for v in self.rel_vectors(n):
                rows.insert(dict(v))
            self._member[n] = rows
        return self._member[n]

    def is_relative(self, form):
        if not form.terms:
            return True
        return self._membership(form.degree).contains(form.terms)

    def truncate(self, form, cutoff):
        raise ValueError("cutoff requires graded mode")

    def class_rows(self, n):
        if n not in self._class:
            rows = RowSpace(order=coord_sort_key(self.A), track=True)
            for idx, v in enumerate(self.rel_vectors(n - 1)):
                df = fm.d(Form(self.A, n - 1, v, canonical=True))
                rows.insert(df.terms, tag=idx)
            self._class[n] = rows
        return self._class[n]

    def reduce_class(self, form, cutoff=None):
        if cutoff is not None:
            raise ValueError("cutoff requires graded mode")
        red = self.class_rows(form.degree).reduce(form.terms)
        return Form(self.A, form.degree, red, canonical=True)

    def solve_class(self, form, cutoff=None):
        if cutoff is not None:
            raise ValueError("cutoff requires graded mode")
        rows = self.class_rows(form.degree)
        combo = rows.solve(form.terms)
        if combo is None:
            return None, (None, rows.witness(form.terms))
        eta = _lift(combo, self.rel_vectors(form.degree - 1))
        return Form(self.A, form.degree - 1, eta, canonical=True), None

    def rank(self, n):
        return self.class_rows(n).rank

    def global_class(self, n):
        return self.class_rows(n)


def relative(algebra, rel):
    cache = getattr(algebra, "_rel_cache", None)
    if cache is None:
        cache = algebra._rel_cache = {}
    if rel not in cache:
        if rel.kind == "power":
            if algebra.m != 1 or not algebra.monomial_ideal or rel.k > algebra.N:
                raise ValueError("invalid relative spec")
            cache[rel] = BlockedRelative(algebra, rel)
        elif rel.kind == "full":
            if algebra.monomial_ideal:
                cache[rel] = BlockedRelative(algebra, rel)
            else:
                cache[rel] = WholeRelative(algebra, rel)
        elif rel.kind == "explicit":
            cache[rel] = WholeRelative(algebra, rel)
        else:
            raise ValueError("invalid relative spec")
    return cache[rel]


def relative_basis(algebra, rel, n):
    pres = relative(algebra, rel)
    return [Form(algebra, n, v, canonical=True) for v in pres.rel_vectors(n)]


@dataclass
class ExactnessCertificate:
    exact: bool
    degree: int
    cutoff: object
    primitive: object = None       # Form with d(primitive) = form (mod cutoff)
    witness: object = None         # dual functional as {coord: Fraction}
    witness_block: object = None

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
    if cert.witness_block is not None:
        rows = pres.class_rows(form.degree, cert.witness_block)
    else:
        rows = pres.global_class(form.degree)
    probe = rows.rows.values()
    return all(vec_dot(w, dict(row)) == 0 for row in probe)


@dataclass
class CohomologyReport:
    algebra: dict
    relative_spec: str
    rows: list

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


def cohomology(algebra, rel=FULL, n_max=None, param_bound=None):
    pres = relative(algebra, rel)
    if n_max is None:
        n_max = algebra.m + (algebra.n_params if algebra.n_params else 0)
    rows = []
    if algebra.n_params:
        if not isinstance(pres, BlockedRelative):
            raise ValueError("invalid relative spec")
        bound = 0 if param_bound is None else param_bound
        pihats = _pihat_box(algebra, bound)
        for n in range(n_max + 1):
            for p in pihats:
                keys = [(i, p) for i in range(pres.k, algebra.N + min(n + 1, algebra.m))]
                dim = sum(form_block(algebra, n, key).dim for key in keys)
                dim_im = sum(pres.class_rows(n, key).rank for key in keys)
                rank_out = sum(pres.class_rows(n + 1, key).rank for key in keys)
                dim_ker = dim - rank_out
                rows.append({"degree": n, "pihat": list(p), "dim": dim,
                             "dim_ker": dim_ker, "dim_im": dim_im,
                             "dim_h": dim_ker - dim_im})
    else:
        for n in range(n_max + 1):
            dim = pres.dim(n)
            dim_im = pres.rank(n)
            rank_out = pres.rank(n + 1)
            dim_ker = dim - rank_out
            rows.append({"degree": n, "dim": dim, "dim_ker": dim_ker,
                         "dim_im": dim_im, "dim_h": dim_ker - dim_im})
    return CohomologyReport(algebra.describe(), rel.label(), rows)


# -- the six-term sequence -----------------------------------------------------


def _quotient_setup(algebra, rel):
    """The quotient algebra R/J together with its full relative spec."""
    if rel.kind == "full":
        Aq = Algebra(algebra.m, 1, params=[(p.name, p.invertible) for p in algebra.params])
    elif rel.kind == "power":
        gens = [{e: Fraction(1)} for e in algebra.mono_gens]
        Aq = Algebra(algebra.m, rel.k, ideal=gens,
                     params=[(p.name, p.invertible) for p in algebra.params])
    else:
        extra = [dict(g) for g in rel.gens]
        Aq = Algebra(algebra.m, algebra.N, ideal=list(algebra.ideal_gens) + extra)
    return Aq


def _class_basis(pres, algebra, n):
    """Independent canonical representatives of Omega^n_rel / d Omega^{n-1}_rel."""
    span = RowSpace(order=coord_sort_key(algebra))
    reps = []
    for v in pres.rel_vectors(n):
        red = pres.reduce_class(Form(algebra, n, v, canonical=True))
        if red.terms and span.insert(dict(red.terms)) is not None:
            reps.append(red)
    return reps


def _h_basis(pres, algebra, n):
    """Representatives of H^n of the relative complex."""
    if n < 0:
        return []
    vecs = pres.rel_vectors(n)
    images = [fm.d(Form(algebra, n, v, canonical=True)).terms for v in vecs]
    kernel = nullspace(images, order=coord_sort_key(algebra))
    span = RowSpace(order=coord_sort_key(algebra))
    for row in pres.global_class(n).rows.values():
        span.insert(dict(row))
    reps = []
    for combo in kernel:
        vec = _lift(combo, vecs)
        if span.insert(dict(vec)) is not None:
            reps.append(Form(algebra, n, vec, canonical=True))
    return reps


@dataclass
class SequenceReport:
    algebra: dict
    inner: str
    outer: str
    degree: int
    degreewise: list
    dim_inner_classes: int
    dim_outer_classes: int
    dim_quotient_classes: int
    h_prev_outer: int
    h_prev_quotient: int
    rank_alpha: int
    rank_beta: int
    rank_inclusion: int
    rank_projection: int
    correction_dim: int
    alpha_injective: bool
    additivity_ok: bool
    exact_at_h: bool
    exact_at_inner: bool
    exact_at_outer: bool
    surjective: bool
    passed: bool

    def to_json(self):
        return {k: v for k, v in self.__dict__.items()}


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
    A = algebra
    n = degree
    presJ = relative(A, inner)
    presI = relative(A, outer)
    Aq = _quotient_setup(A, inner)
    presQ = relative(Aq, FULL)
    proj = RingMap(A, Aq, {})

    def push(form):
        return fm.push_form(proj, form)

    degreewise = []
    seq4_ok = True
    for kdeg in range(0, n + 1):
        dimJ = presJ.dim(kdeg)
        dimI = presI.dim(kdeg)
        dimQ = presQ.dim(kdeg)
        vecsJ = presJ.rel_vectors(kdeg)
        inclusion_ok = all(presI.is_relative(Form(A, kdeg, v, canonical=True))
                           for v in vecsJ)
        comp_zero = all(not push(Form(A, kdeg, v, canonical=True)).terms
                        for v in vecsJ)
        span = RowSpace(order=coord_sort_key(Aq))
        for v in presI.rel_vectors(kdeg):
            span.insert(push(Form(A, kdeg, v, canonical=True)).terms)
        row = {"degree": kdeg, "dim_inner": dimJ, "dim_outer": dimI,
               "dim_quotient": dimQ,
               "inclusion_ok": inclusion_ok,
               "composite_zero": comp_zero,
               "surjective": span.rank == dimQ,
               "dims_additive": dimJ + dimQ == dimI}
        degreewise.append(row)
        seq4_ok = seq4_ok and all(row[k] for k in
                                  ("inclusion_ok", "composite_zero",
                                   "surjective", "dims_additive"))

    repsJ = _class_basis(presJ, A, n)
    repsI = _class_basis(presI, A, n)
    repsQ = _class_basis(presQ, Aq, n)
    A_dim, B_dim, C_dim = len(repsJ), len(repsI), len(repsQ)

    span = RowSpace(order=coord_sort_key(A))
    rank_incl = 0
    incl_images = []
    for rep in repsJ:
        img = presI.reduce_class(rep)
        incl_images.append(img)
        if img.terms and span.insert(dict(img.terms)) is not None:
            rank_incl += 1

    span = RowSpace(order=coord_sort_key(Aq))
    rank_proj = 0
    comp_zero_classes = True
    for rep in repsI:
        img = presQ.reduce_class(push(rep))
        if img.terms and span.insert(dict(img.terms)) is not None:
            rank_proj += 1
    for rep in repsJ:
        if presQ.reduce_class(push(rep)).terms:
            comp_zero_classes = False

    h_prev = _h_basis(presI, A, n - 1)
    h_quot = _h_basis(presQ, Aq, n - 1)

    # lift classes of Om^{n-1}_{R',I'} through the surjection and differentiate
    lift = RowSpace(order=coord_sort_key(Aq), track=True)
    vecsI = presI.rel_vectors(n - 1)
    for idx, v in enumerate(vecsI):
        lift.insert(push(Form(A, n - 1, v, canonical=True)).terms, tag=idx)
    alpha_images = []
    alpha_ok = True
    for rep in h_quot:
        combo = lift.solve(rep.terms)
        if combo is None:
            alpha_ok = False
            continue
        eta = _lift(combo, vecsI)
        deta = fm.d(Form(A, n - 1, eta, canonical=True))
        if not presJ.is_relative(deta):
            alpha_ok = False
            continue
        alpha_images.append(presJ.reduce_class(deta))
    span = RowSpace(order=coord_sort_key(A))
    rank_alpha = sum(1 for img in alpha_images
                     if img.terms and span.insert(dict(img.terms)) is not None)
    iota_alpha_zero = all(not presI.reduce_class(img).terms for img in alpha_images)

    base = RowSpace(order=coord_sort_key(Aq))
    for row in presQ.global_class(n - 1).rows.values():
        base.insert(dict(row))
    rank_beta = 0
    for rep in h_prev:
        if base.insert(push(rep).terms) is not None:
            rank_beta += 1

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


@dataclass
class SigmaReport:
    N: int
    rows: list
    passed: bool

    def to_json(self):
        return {"N": self.N, "rows": self.rows, "passed": self.passed}


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
        span = RowSpace(order=coord_sort_key(AN))
        landed = True
        for v in basis:
            img = fm.push_form(sigma, Form(A2, n, v, canonical=True))
            if not tgt.is_relative(img):
                landed = False
            span.insert(dict(img.terms))
        dim_dom = len(basis)
        dim_tgt = tgt.dim(n)
        bij = landed and span.rank == dim_dom == dim_tgt
        rows.append({"degree": n, "dim_domain": dim_dom, "dim_target": dim_tgt,
                     "rank": span.rank, "bijective": bij})
        passed = passed and bij
    return SigmaReport(N, rows, passed)
