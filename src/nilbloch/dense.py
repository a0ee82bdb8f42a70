"""Dense whole-space reference solver.

Everything in this module works on raw coordinate vectors over the full
monomial basis of Q[t_1..t_m] below the truncation bound, with no grading,
no normal forms and no sparsity tricks: rows are full-length lists, and the
only work skipped is multiplication by zero.  It exists as an independent route
to the same dimensions and exactness verdicts that the blocked sparse
engine computes, and as the oracle that pins regression constants before
they are frozen into tests.

Each matrix is eliminated once per model: the echelon forms of the
relation rows of each degree and of the exact forms of each (degree,
relative generators) pair are cached, and exactness probes and
stabilization monomials are reduced against them.

Only parameter-free algebras are supported here; the coefficient field is
Q throughout.  Polynomials are dicts {exponent tuple: int or Fraction}; integral
coefficients are kept as ints.
"""

import itertools
from fractions import Fraction


def monomials_below(m, N):
    """All exponent tuples of length m with total degree < N, in a fixed order."""
    out = []
    for total in range(N):
        for combo in itertools.combinations_with_replacement(range(m), total):
            exps = [0] * m
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def monomials_of_degree(m, d):
    return [e for e in monomials_below(m, d + 1) if sum(e) == d]


def poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def poly_truncate(p, N):
    return {e: c for e, c in p.items() if sum(e) < N}


def poly_diff(p, i):
    out = {}
    for e, c in p.items():
        if e[i] > 0:
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e2] = out.get(e2, 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def _eliminate(rows, ncols):
    """Plain Gaussian elimination, pivoting left to right in column order.

    Mutates nothing; returns the echelon form as a list of (pivot column,
    row) pairs in increasing pivot order, each row scaled to 1 at its pivot
    and zero left of it.  Its length is the rank.
    """
    work = [list(r) for r in rows]
    echelon = []
    for col in range(ncols):
        for i, r in enumerate(work):
            if r[col]:
                break
        else:
            continue
        pivot_row = work.pop(i)
        support = [k for k in range(col, ncols) if pivot_row[k]]
        if pivot_row[col] != 1:
            inv = Fraction(1) / pivot_row[col]
            for k in support:
                pivot_row[k] *= inv
        for r in work:
            f = r[col]
            if f:
                for k in support:
                    r[k] -= f * pivot_row[k]
        echelon.append((col, pivot_row))
    return echelon


def _rank(rows, ncols):
    return len(_eliminate(rows, ncols))


def _in_echelon(vec, echelon):
    """Whether vec lies in the span of an echelon form from _eliminate."""
    v = list(vec)
    for col, row in echelon:
        f = v[col]
        if f:
            for k in range(col, len(v)):
                if row[k]:
                    v[k] -= f * row[k]
    return not any(v)


def _in_span(vec, rows, ncols):
    return _in_echelon(vec, _eliminate(rows, ncols))


def _gens_key(gens):
    """Order-free key of a generator list; equal coefficients give equal keys
    whatever their number type, and zero terms and generators are dropped."""
    polys = (tuple(sorted((e, Fraction(c)) for e, c in g.items() if c)) for g in gens)
    return tuple(sorted(p for p in polys if p))


class DenseModel:
    """Raw presentation of the de Rham complex of Q[t_1..t_m]/(gens + m^N).

    Coordinates of the degree-n space are pairs (monomial of degree < N,
    n-element subset of {dt_1..dt_m}); the actual module is the quotient of
    that free space by the span of the relation rows.
    """

    def __init__(self, m, N, gens):
        self.m = m
        self.N = N
        self.gens = [{e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                      for e, c in g.items()} for g in gens]
        self.monos = monomials_below(m, N)
        self.mono_index = {e: i for i, e in enumerate(self.monos)}
        cutoff = [{e: 1} for e in monomials_of_degree(m, N)]
        self.all_gens = self.gens + cutoff
        self._coords = {}
        self._coord_index = {}
        self._rel_rows = {}
        self._rel_echelon = {}
        self._quotient = {}

    def coords(self, n):
        if n not in self._coords:
            wedges = list(itertools.combinations(range(self.m), n))
            self._coords[n] = [(i, w) for i in range(len(self.monos)) for w in wedges]
        return self._coords[n]

    def coord_index(self, n):
        if n not in self._coord_index:
            self._coord_index[n] = {c: i for i, c in enumerate(self.coords(n))}
        return self._coord_index[n]

    def _insert_sign(self, i, wedge):
        # sign of sorting dt_i into an increasing wedge word, None if repeated
        if i in wedge:
            return None, None
        pos = sum(1 for j in wedge if j < i)
        new = tuple(sorted(wedge + (i,)))
        return (-1) ** pos, new

    def _vec(self, n, terms):
        idx = self.coord_index(n)
        row = [0] * len(self.coords(n))
        for (e, w), c in terms.items():
            if sum(e) < self.N and c:
                row[idx[(self.mono_index[e], w)]] += c
        return row

    def relation_rows(self, n, extra_gens=()):
        """Rows spanning (J*F + dJ^F') inside the free degree-n space."""
        key = (n, _gens_key(extra_gens))
        if key in self._rel_rows:
            return self._rel_rows[key]
        gens = self.all_gens + [dict(g) for g in extra_gens]
        rows = []
        wedges = list(itertools.combinations(range(self.m), n))
        sub_wedges = list(itertools.combinations(range(self.m), n - 1)) if n else []
        for g in gens:
            dg = [poly_diff(g, i) for i in range(self.m)]
            low = min(map(sum, g), default=self.N)
            for u in self.monos:
                if sum(u) + low > self.N:   # monos ascend: u*g, u*dg cut from here on
                    break
                prod = poly_truncate(poly_mul({u: 1}, g), self.N)
                if prod:
                    for w in wedges:
                        rows.append(self._vec(n, {(e, w): c for e, c in prod.items()}))
                if n == 0:
                    continue
                for wp in sub_wedges:
                    terms = {}
                    for i, dgi in enumerate(dg):
                        if not dgi:
                            continue
                        sign, w = self._insert_sign(i, wp)
                        if sign is None:
                            continue
                        part = poly_truncate(poly_mul({u: 1}, dgi), self.N)
                        for e, c in part.items():
                            terms[(e, w)] = terms.get((e, w), 0) + sign * c
                    if any(terms.values()):
                        rows.append(self._vec(n, terms))
        rows = [r for r in rows if any(r)]
        self._rel_rows[key] = rows
        return rows

    def relation_echelon(self, n):
        """Echelon form of relation_rows(n), eliminated once per degree."""
        if n not in self._rel_echelon:
            self._rel_echelon[n] = _eliminate(self.relation_rows(n), len(self.coords(n)))
        return self._rel_echelon[n]

    def d_row(self, n, coord):
        """Coordinates of d applied to one degree-n basis coordinate."""
        mono_i, wedge = coord
        e = self.monos[mono_i]
        terms = {}
        for i in range(self.m):
            if e[i] == 0:
                continue
            sign, w = self._insert_sign(i, wedge)
            if sign is None:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            terms[(e2, w)] = terms.get((e2, w), 0) + sign * e[i]
        return self._vec(n + 1, terms)

    def d_vec(self, n, row):
        """Coordinates of d applied to a degree-n coordinate vector."""
        out = [0] * len(self.coords(n + 1))
        for coord, c in zip(self.coords(n), row):
            if c:
                for k, v in enumerate(self.d_row(n, coord)):
                    if v:
                        out[k] += c * v
        return out

    def relative_rows(self, n, rel_gens):
        """Rows spanning Ker(Omega^n_R -> Omega^n_{R/I'}) in the free space.

        rel_gens is None for the full augmentation ideal, else a list of
        generator polys of the sub-ideal I'.
        """
        if rel_gens is None:
            rows = []
            idx = self.coord_index(n)
            for (mono_i, w) in self.coords(n):
                if n >= 1 or sum(self.monos[mono_i]) >= 1:
                    row = [0] * len(self.coords(n))
                    row[idx[(mono_i, w)]] = 1
                    rows.append(row)
            return rows + self.relation_rows(n)
        return self.relation_rows(n, extra_gens=rel_gens)

    def quotient_dims(self, n, rel_gens):
        """(dim of the relative degree-n space, rank of d on it, echelon of
        the degree-(n+1) relations plus that image).

        The echelon spans the forms of degree n+1 that are zero or d of a
        relative form; is_exact reduces its probes against it.
        """
        key = (n, None if rel_gens is None else _gens_key(rel_gens))
        if key not in self._quotient:
            self._quotient[key] = self._quotient_dims(n, rel_gens)
        return self._quotient[key]

    def _quotient_dims(self, n, rel_gens):
        ncols = len(self.coords(n))
        w_ech = _eliminate(self.relative_rows(n, rel_gens), ncols)
        dim_rel = len(w_ech) - len(self.relation_echelon(n))
        d_rows = [self.d_vec(n, row) for _, row in w_ech]
        exact_ech = _eliminate(self.relation_rows(n + 1) + d_rows, len(self.coords(n + 1)))
        r_next = len(exact_ech) - len(self.relation_echelon(n + 1))
        return dim_rel, r_next, exact_ech

    def cohomology(self, rel_gens, n_max=None):
        """[(n, dim_rel, dim_ker, dim_im, dim_h)] for the relative complex."""
        if n_max is None:
            n_max = self.m
        report = []
        prev_rank = 0
        for n in range(n_max + 1):
            dim_rel, r_next, _ = self.quotient_dims(n, rel_gens)
            dim_ker = dim_rel - r_next
            report.append((n, dim_rel, dim_ker, prev_rank, dim_ker - prev_rank))
            prev_rank = r_next
        return report

    def classes_dim(self, n, rel_gens):
        """dim of Omega^n_rel / d Omega^{n-1}_rel."""
        dim_rel, _, _ = self.quotient_dims(n, rel_gens)
        if n == 0:
            return dim_rel
        _, r_prev, _ = self.quotient_dims(n - 1, rel_gens)
        return dim_rel - r_prev

    def is_exact(self, n, terms, rel_gens):
        """Whether the degree-n form given by raw terms is d of a relative form."""
        ech = self.quotient_dims(n - 1, rel_gens)[2] if n else self.relation_echelon(0)
        return _in_echelon(self._vec(n, terms), ech)


def quotient_dimension(m, N, gens):
    """dim_Q of Q[t_1..t_m]/(gens + m^N), by raw row reduction."""
    model = DenseModel(m, N, gens)
    return len(model.monos) - len(model.relation_echelon(0))


def stabilized_quotient(gens_of, m, start_N, N_max):
    """Increase the truncation until all monomials of some degree d < N lie in
    the ideal span; that certifies the dimension of the power-series quotient.

    gens_of(N) must return the generator list to use at truncation N.
    Returns (dim, N_used, stabilization_degree) or None if not reached.
    """
    for N in range(start_N, N_max + 1):
        model = DenseModel(m, N, gens_of(N))
        ech = model.relation_echelon(0)
        ncols = len(model.monos)
        for d in range(1, N):
            degree_monos = monomials_of_degree(m, d)
            ok = True
            for e in degree_monos:
                vec = [0] * ncols
                vec[model.mono_index[e]] = 1
                if not _in_echelon(vec, ech):
                    ok = False
                    break
            if ok:
                dim = ncols - len(ech)
                return dim, N, d
    return None


def milnor_number(f, m, N_max=24):
    """(mu, N_used, stabilization degree) for an isolated singularity at 0."""
    partials = [poly_diff(f, i) for i in range(m)]
    start = max(max((sum(e) for e in f), default=0) + 2, 4)
    result = stabilized_quotient(lambda N: partials, m, start, N_max)
    if result is None:
        raise ValueError("isolated singularity not detected up to N_max")
    return result


def tyurina_number(f, m, N_max=24):
    partials = [poly_diff(f, i) for i in range(m)]
    start = max(max((sum(e) for e in f), default=0) + 2, 4)
    result = stabilized_quotient(lambda N: partials + [f], m, start, N_max)
    if result is None:
        raise ValueError("isolated singularity not detected up to N_max")
    return result[0], result[1]
