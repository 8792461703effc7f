import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rank3 import linalg
from rank3.fields import GF3, field_create

GF9 = field_create(3, 2)
FIELDS = [GF3, GF9]
DET_FIELDS = [GF3, field_create(5, 1), field_create(7, 1), GF9,
              field_create(3, 3)]


def vectors(F, n):
    return st.tuples(*[st.integers(min_value=0, max_value=F.q - 1)] * n)


@st.composite
def matrices(draw, F):
    """1-3 random rows of length 1-4, then up to two random combinations
    of them, shuffled: small matrices that often have dependent rows."""
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(vectors(F, n), min_size=1, max_size=3))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        rows.append(linalg.vec_mat(F, draw(vectors(F, len(rows))), rows))
    return tuple(draw(st.permutations(rows)))


def prefix_spans(F, rows):
    """The span of each prefix of rows, as a set, by brute force."""
    span = {(0,) * len(rows[0])}
    out = [span]
    for r in rows:
        span = {linalg.vec_add(F, s, linalg.vec_scale(F, c, r))
                for s in span for c in F.elements()}
        out.append(span)
    return out


def is_reduced_echelon(rows, pivots):
    if list(pivots) != sorted(set(pivots)) or len(rows) != len(pivots):
        return False
    for i, (row, p) in enumerate(zip(rows, pivots)):
        if any(row[:p]) or row[p] != 1:
            return False
        if any(other[p] for j, other in enumerate(rows) if j != i):
            return False
    return True


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_echelon_add_against_the_brute_force_span(F):
    @settings(max_examples=60, deadline=None)
    @given(matrices(F), st.data())
    def check(A, data):
        spans = prefix_spans(F, A)
        E = linalg.Echelon(F)
        for r, before, after in zip(A, spans, spans[1:]):
            assert E.add(r) == (r not in before)
            assert is_reduced_echelon(E.rows, E.pivots)
            assert len(after) == F.q ** len(E.rows)
        span = spans[-1]
        v = data.draw(vectors(F, len(A[0])))
        w = tuple(E.reduce(v))
        assert linalg.vec_sub(F, v, w) in span
        assert not any(w[p] for p in E.pivots)
        assert (not any(w)) == (v in span)
        assert E.add(v) == (v not in span)
    check()


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_coordinates_rebuild_vectors_in_the_callers_basis(F):
    @settings(max_examples=60, deadline=None)
    @given(matrices(F), st.data())
    def check(A, data):
        E = linalg.Echelon(F)
        basis = [r for r in A if E.add(r)]
        if not basis:
            return
        coords = E.coordinates(basis)
        span = prefix_spans(F, A)[-1]
        for v in span:
            assert linalg.vec_mat(F, coords(v), basis) == v
        v = data.draw(vectors(F, len(A[0])))
        if v not in span:
            assert coords(v) is None
        if len(A) > len(basis):
            with pytest.raises(ValueError):
                E.coordinates(A)
    check()


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_rref_rank_solve_row_and_nullspace_agree_with_the_kernel(F):
    @settings(max_examples=60, deadline=None)
    @given(matrices(F), st.data())
    def check(A, data):
        R, pivots = linalg.rref(F, A)
        E = linalg.Echelon(F, A)
        assert R == tuple(E.rows) and pivots == E.pivots
        assert is_reduced_echelon(R, pivots)
        assert linalg.rank(F, A) == len(R)
        span = prefix_spans(F, A)[-1]
        for b in (A[-1], data.draw(vectors(F, len(A[0])))):
            x = linalg.solve_row(F, A, b)
            if b in span:
                assert linalg.vec_mat(F, x, A) == b
            else:
                assert x is None
        null = linalg.nullspace_rows(F, A)
        assert len(null) == len(A) - len(R)
        for y in null:
            assert not any(linalg.vec_mat(F, y, A))
        assert linalg.rank(F, null) == len(null)
    check()


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_span_vectors_in_product_order(F):
    combos = [c for c in itertools.product(F.elements(), repeat=3) if any(c)]
    assert list(linalg.span_vectors(F, linalg.identity(3))) == combos
    assert list(linalg.span_vectors(F, ())) == []
    # dependent rows: every coefficient tuple still yields one vector
    assert len(list(linalg.span_vectors(F, ((1, 2), (1, 2))))) == F.q ** 2 - 1


def _reference_det(F, A):
    """Gaussian elimination with row swaps, the loop det ran before it ran
    on Echelon; kept as its oracle."""
    rows = [list(r) for r in A]
    n = len(rows)
    d = 1
    for col in range(n):
        sel = None
        for i in range(col, n):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            return 0
        if sel != col:
            rows[col], rows[sel] = rows[sel], rows[col]
            d = F.neg(d)
        d = F.mul(d, rows[col][col])
        inv = F.inv(rows[col][col])
        for i in range(col + 1, n):
            if rows[i][col]:
                c = F.mul(inv, rows[i][col])
                rows[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(rows[i], rows[col])]
    return d


@pytest.mark.parametrize("F", DET_FIELDS, ids=repr)
def test_det_matches_the_row_swap_elimination(F):
    rng = random.Random(F.q)
    singular = 0
    for n in range(7):
        for trial in range(40):
            A = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
            if n and trial % 2:
                # row i becomes a combination of the other rows
                i = rng.randrange(n)
                coeffs = [0 if r == i else rng.randrange(F.q) for r in range(n)]
                A[i] = linalg.vec_mat(F, coeffs, A)
            A = linalg.mat_from_rows(A)
            d = linalg.det(F, A)
            assert d == _reference_det(F, A)
            singular += d == 0
        # permutation matrices, whose det is their sign
        for _ in range(10):
            perm = rng.sample(range(n), n)
            P = linalg.perm_matrix(perm)
            assert linalg.det(F, P) == _reference_det(F, P)
    assert singular >= 6 * 20
