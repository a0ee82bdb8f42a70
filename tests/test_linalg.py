from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from nilbloch.linalg import (RowSpace, nullspace, vec_add, vec_dot, vec_iadd,
                             vec_scale)

def clean(v):
    return {k: c for k, c in v.items() if c}


entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)
vectors = st.dictionaries(st.integers(min_value=0, max_value=5), entries,
                          max_size=5).map(clean)


@given(u=vectors, v=vectors)
def test_vec_add_is_componentwise(u, v):
    w = vec_add(u, v)
    keys = set(u) | set(v)
    for k in keys:
        assert w.get(k, 0) == u.get(k, 0) + v.get(k, 0)
    assert all(c for c in w.values())


@given(u=vectors, v=vectors, c=entries)
def test_vec_iadd_updates_in_place(u, v, c):
    want = vec_add(u, v, c)
    got = dict(u)
    assert vec_iadd(got, v, c) is got
    assert got == want
    assert list(got) == list(want)


@given(u=vectors, c=entries)
def test_vec_scale(u, c):
    w = vec_scale(u, c)
    for k in clean(u):
        assert w.get(k, 0) == c * u[k]


@given(vs=st.lists(vectors, max_size=6))
def test_rank_at_most_dimension(vs):
    rows = RowSpace()
    for v in vs:
        rows.insert(v)
    assert rows.rank <= 6
    assert rows.rank <= len([v for v in vs if clean(v)])


@given(vs=st.lists(vectors, max_size=6), w=vectors)
def test_reduce_idempotent(vs, w):
    rows = RowSpace()
    for v in vs:
        rows.insert(v)
    r = rows.reduce(w)
    assert rows.reduce(r) == r


@given(vs=st.lists(vectors, max_size=6))
def test_inserted_vectors_are_contained(vs):
    rows = RowSpace()
    for v in vs:
        rows.insert(v)
    for v in vs:
        assert rows.contains(v)


@given(vs=st.lists(vectors, min_size=1, max_size=5))
def test_solve_reconstructs_combination(vs):
    rows = RowSpace(track=True)
    for i, v in enumerate(vs):
        rows.insert(v, tag=i)
    target = {}
    for v in vs:
        target = vec_add(target, v, Fraction(1))
    combo = rows.solve(target)
    assert combo is not None
    rebuilt = {}
    for tag, c in combo.items():
        rebuilt = vec_add(rebuilt, vs[tag], c)
    assert clean(rebuilt) == clean(target)


def test_solve_fails_outside_span():
    rows = RowSpace(track=True)
    rows.insert({0: Fraction(1), 1: Fraction(2)}, tag="a")
    assert rows.solve({2: Fraction(1)}) is None


def test_witness_separates():
    rows = RowSpace(track=True)
    rows.insert({0: Fraction(1), 1: Fraction(1)}, tag="a")
    v = {0: Fraction(1), 1: Fraction(-1)}
    w = rows.witness(v)
    assert vec_dot(w, v) != 0
    assert vec_dot(w, {0: Fraction(1), 1: Fraction(1)}) == 0


@given(vs=st.lists(vectors, max_size=5))
def test_witness_orthogonal_to_rowspace(vs):
    rows = RowSpace(track=True)
    for i, v in enumerate(vs):
        rows.insert(v, tag=i)
    probe = {0: Fraction(1), 3: Fraction(1, 2)}
    if rows.contains(probe):
        return
    w = rows.witness(probe)
    assert vec_dot(w, probe) != 0
    for v in vs:
        assert vec_dot(w, v) == 0


@given(vs=st.lists(vectors, max_size=6))
def test_nullspace_kills_exactly_the_relations(vs):
    order = None
    kernel = nullspace(vs, order)
    for combo in kernel:
        total = {}
        for idx, c in combo.items():
            total = vec_add(total, vs[idx], c)
        assert clean(total) == {}
    rows = RowSpace()
    for v in vs:
        rows.insert(v)
    assert len(kernel) == len(vs) - rows.rank


class FullScanRowSpace:
    """Reference RowSpace: back-reduces by scanning every pivot row."""

    def __init__(self, track=False):
        self.rows = {}
        self.combos = {}
        self.track = track

    def reduce(self, vec, want_combo=False):
        res = clean(vec)
        combo = {}
        for k in sorted((k for k in res if k in self.rows), reverse=True):
            c = res.get(k)
            if c:
                res = vec_add(res, self.rows[k], -c)
                if want_combo and self.track:
                    combo = vec_add(combo, self.combos[k], c)
        return res, combo

    def insert(self, vec, tag=None):
        res, combo = self.reduce(vec, want_combo=True)
        if not res:
            return None
        piv = max(res)
        lead = Fraction(res[piv])
        row = vec_scale(res, 1 / lead)
        if self.track:
            cmb = vec_scale(combo, -1 / lead)
            if tag is not None:
                cmb = vec_add(cmb, {tag: 1 / lead})
            self.combos[piv] = cmb
        for p, other in self.rows.items():
            c = other.get(piv)
            if c:
                self.rows[p] = vec_add(other, row, -c)
                if self.track:
                    self.combos[p] = vec_add(self.combos[p], self.combos[piv], -c)
        self.rows[piv] = row
        return piv

    def witness(self, vec):
        res, _ = self.reduce(vec)
        if not res:
            return None
        kappa = max(res)
        w = {kappa: Fraction(1)}
        for p, row in self.rows.items():
            if row.get(kappa):
                w[p] = -row[kappa]
        return w


def column_index_of(rows):
    """Non-pivot key -> set of pivots whose row holds it."""
    cols = {}
    for p, row in rows.items():
        for k in row:
            if k not in rows:
                cols.setdefault(k, set()).add(p)
    return cols


wide_vectors = st.dictionaries(st.integers(min_value=0, max_value=9), entries,
                               max_size=6).map(clean)


@given(vs=st.lists(wide_vectors, max_size=10), probe=wide_vectors, track=st.booleans())
def test_column_index_matches_full_scan_reference(vs, probe, track):
    rows = RowSpace(track=track)
    ref = FullScanRowSpace(track=track)
    for i, v in enumerate(vs):
        tag = i if track else None
        assert rows.insert(v, tag=tag) == ref.insert(v, tag=tag)
        assert rows.rows == ref.rows
        assert list(rows.rows) == list(ref.rows)
        assert rows.combos == ref.combos
        assert rows.cols == column_index_of(rows.rows)
    assert rows.witness(probe) == ref.witness(probe)
    assert rows.reduce(probe) == ref.reduce(probe)[0]


unit_lead_entries = st.one_of(st.sampled_from([1, -1, 1, -1, 2, -3]), entries)
mixed_vectors = st.dictionaries(st.integers(min_value=0, max_value=7), unit_lead_entries,
                                max_size=6).map(clean)


@given(vs=st.lists(mixed_vectors, max_size=8), probe=mixed_vectors)
def test_rows_stored_as_given_match_rescaled_reference(vs, probe):
    """int and Fraction rows, leads +-1 or not: FullScanRowSpace rescales every row."""
    rows = RowSpace(track=True)
    ref = FullScanRowSpace(track=True)
    kernel = []
    for i, v in enumerate(vs):
        res, combo = ref.reduce(v, want_combo=True)
        assert rows.solve(v) == (None if res else combo)
        if not res:
            kernel.append(vec_add({i: Fraction(1)}, combo, -1))
        assert rows.insert(v, tag=i) == ref.insert(v, tag=i)
        assert rows.rows == ref.rows
        assert rows.combos == ref.combos
    assert nullspace(vs) == kernel
    assert rows.reduce(probe) == ref.reduce(probe)[0]
    assert rows.witness(probe) == ref.witness(probe)


def test_int_rows_with_unit_lead_stay_int():
    rows = RowSpace()
    rows.insert({0: 2, 1: -3, 2: 1})
    rows.insert({0: 1, 3: -1})
    rows.insert({1: 1, 4: 2})
    assert rows.rows[2] == {0: 2, 1: -3, 2: 1} and rows.rows[3] == {0: -1, 3: 1}
    assert all(type(c) is int for p in (2, 3) for c in rows.rows[p].values())
    assert rows.rows[4] == {1: Fraction(1, 2), 4: 1}
    assert all(type(c) is Fraction for c in rows.rows[4].values())
