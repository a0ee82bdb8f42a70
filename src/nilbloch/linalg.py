"""Sparse exact row reduction over ordered coordinate keys.

Rows are dicts mapping hashable coordinate keys to exact rationals (int
or Fraction). A RowSpace keeps an inter-reduced echelon basis of
everything inserted into it; the pivot of a row is its largest key under
the supplied order, so reducing a vector eliminates largest terms first
and the reduced representative of a coset is unique. Rows are monic: one
whose lead is 1 is stored as given, ints staying ints; a lead -1 negates.

A RowSpace also keeps a column index over the non-pivot keys: for every
key k that some row holds and that is not itself a pivot, cols[k] is
exactly the set of pivots whose row holds k; no other key is in cols. (A
pivot key sits only in its own row, so indexing it would say nothing.)
Inserting a row with a new pivot back-reduces just the rows in that key's
column instead of scanning the whole basis.

The helpers around it are the one sparse-vector accumulate of the package
(vec_iadd in place, vec_add as a copy, vec_scale) and the one span test
(independent: which vectors extend a span, in order). The accumulate
stores a key's first contribution as given, without adding it to an
implicit 0, and adds only when the key repeats: 0 + Fraction(p, q) would
build a new Fraction of the same value, so values and types (an int stays
an int) are those of the sum, at less cost.
"""

from fractions import Fraction


def vec_iadd(u, v, c=1):
    """u += c*v in place, dropping zeros; returns u."""
    one = c == 1
    get = u.get
    for k, a in v.items():
        if not one:
            a = c * a
        b = get(k)
        if b is not None:       # only a repeated key adds: a first one is stored as given
            a = b + a
        if a:
            u[k] = a
        elif b is not None:
            del u[k]
    return u


def vec_add(u, v, c=1):
    """u + c*v as a new dict, dropping zeros."""
    return vec_iadd(dict(u), v, c)


def vec_scale(u, c):
    if not c:
        return {}
    return {k: c * a for k, a in u.items()}


def vec_dot(u, v):
    if len(v) < len(u):
        u, v = v, u
    return sum((a * v[k] for k, a in u.items() if k in v), Fraction(0))


class RowSpace:
    """Inter-reduced row span with largest-key pivots.

    order(key) must return something totally ordered; ties are not allowed
    between distinct keys of the same space.
    """

    def __init__(self, order=None, track=False):
        self.order = order or (lambda k: k)
        self.rows = {}      # pivot key -> monic row, fully reduced
        self.cols = {}      # non-pivot key -> set of pivots whose row holds it
        self.track = track
        self.combos = {}    # pivot key -> {tag: Fraction}

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec, want_combo=False):
        res = {k: c for k, c in vec.items() if c}
        combo = {}
        track = want_combo and self.track
        hits = [k for k in res if k in self.rows]
        # row tails never contain pivot keys, so one descending pass suffices
        hits.sort(key=self.order, reverse=True)
        for k in hits:
            c = res.get(k)
            if not c:
                continue
            vec_iadd(res, self.rows[k], -c)
            if track:
                vec_iadd(combo, self.combos[k], c)
        return res, combo

    def reduce(self, vec):
        """Canonical representative of vec modulo the row span."""
        res, _ = self._reduce(vec)
        return res

    def contains(self, vec):
        return not self.reduce(vec)

    def insert(self, vec, tag=None):
        """Add vec to the span; returns the new pivot key or None if dependent."""
        res, combo = self._reduce(vec, want_combo=True)
        if not res:
            return None
        piv = max(res, key=self.order)
        lead = res[piv]
        # res is a fresh dict, so a monic one is stored as it is
        row = res if lead == 1 else vec_scale(res, -1 if lead == -1 else Fraction(1) / lead)
        if self.track:
            cmb = vec_scale(combo, Fraction(-1) / lead)
            if tag is not None:
                cmb = vec_add(cmb, {tag: Fraction(1) / lead})
            self.combos[piv] = cmb
        # keep the basis in reduced echelon form: clear piv from the rows
        # holding it; the new row's tail is indexed first, so every key a
        # back-reduction touches already has a (never emptied) pivot set
        cols = self.cols
        holders = cols.pop(piv, ())
        tail = [(k, a) for k, a in row.items() if k != piv]
        for k, _ in tail:
            cols.setdefault(k, set()).add(piv)
        for p in holders:
            other = self.rows[p]
            c = other.pop(piv)
            for k, a in tail:
                b = other.get(k, 0) - c * a
                if b:
                    if k not in other:
                        cols[k].add(p)
                    other[k] = b
                else:
                    del other[k]
                    cols[k].discard(p)
            if self.track:
                vec_iadd(self.combos[p], self.combos[piv], -c)
        self.rows[piv] = row
        return piv

    def adopt(self, other):
        """Add copies of the rows of another untracked space, without eliminating.

        other must hold no key this space holds: echelon bases on disjoint
        keys together form one.
        """
        for piv, row in other.rows.items():
            self.rows[piv] = dict(row)
        for k, pivs in other.cols.items():
            self.cols[k] = set(pivs)

    def solve(self, vec):
        """Tags combination with vec = sum(c[tag] * inserted[tag]), or None.

        Only meaningful when track=True and every insert carried a tag.
        """
        res, combo = self._reduce(vec, want_combo=True)
        if res:
            return None
        return combo

    def witness(self, vec):
        """Linear functional (as a sparse dict) vanishing on the span but not on vec.

        Returns None when vec lies in the span. Pair it with vec_dot.
        """
        res = self.reduce(vec)
        if not res:
            return None
        kappa = max(res, key=self.order)
        w = {kappa: Fraction(1)}
        # kappa survived reduction, so it is no pivot: cols lists its rows
        for p in self.cols.get(kappa, ()):
            w[p] = -self.rows[p][kappa]
        return w


def independent(vectors, base=None):
    """The vectors that extend the span of base and of the ones before them.

    base is a RowSpace (fresh by default) and grows with every kept vector;
    zero vectors never extend a span.
    """
    span = RowSpace() if base is None else base
    return [v for v in vectors if span.insert(v) is not None]


def nullspace(vectors, order=None):
    """Basis of the kernel of the 'stack these rows' map.

    vectors is a list of sparse dicts (images of the domain basis e_0..e_k);
    returns sparse dicts over domain indices spanning the relations among them.
    """
    span = RowSpace(order=order, track=True)
    kernel = []
    for idx, v in enumerate(vectors):
        combo = span.solve(v)
        if combo is None:
            span.insert(v, tag=idx)
        else:
            kernel.append(vec_add({idx: Fraction(1)}, combo, -1))
    return kernel
