import bisect
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rank3 import geometry, groups, linalg, meataxe
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


def echelon(F, n, rows=()):
    """The Echelon of row length n spanned by rows, added one at a time."""
    E = linalg.Echelon(F, n)
    for r in rows:
        E.add_packed(E.pack(r))
    return E


def added(E, v):
    """Add v to the span of E: whether it was outside it."""
    return E.add_packed(E.pack(v)) is not None


def reduced(E, v):
    """v minus its component in the span of E, as a tuple."""
    return E.unpack(E._reduce(E.pack(v)))


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
        E = linalg.Echelon(F, len(A[0]))
        for r, before, after in zip(A, spans, spans[1:]):
            assert added(E, r) == (r not in before)
            assert is_reduced_echelon(E.rows, E.pivots)
            assert len(after) == F.q ** len(E.rows)
        span = spans[-1]
        v = data.draw(vectors(F, len(A[0])))
        w = reduced(E, v)
        assert linalg.vec_sub(F, v, w) in span
        assert not any(w[p] for p in E.pivots)
        assert (not any(w)) == (v in span)
        assert added(E, v) == (v not in span)
    check()


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_coordinates_rebuild_vectors_in_the_callers_basis(F):
    @settings(max_examples=60, deadline=None)
    @given(matrices(F), st.data())
    def check(A, data):
        E = linalg.Echelon(F, len(A[0]))
        basis = [r for r in A if added(E, r)]
        if not basis:
            return
        coords, free = E.solve([E.pack(b) for b in basis])
        assert free == {}
        span = prefix_spans(F, A)[-1]
        for v in span:
            assert linalg.vec_mat(F, coords(E.pack(v)), basis) == v
        v = data.draw(vectors(F, len(A[0])))
        if v not in span:
            assert coords(E.pack(v)) is None
        # the rows of A beyond the basis are the free ones
        assert len(E.solve([E.pack(r) for r in A])[1]) == len(A) - len(basis)
    check()


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_rref_rank_solve_row_and_nullspace_agree_with_the_kernel(F):
    @settings(max_examples=60, deadline=None)
    @given(matrices(F), st.data())
    def check(A, data):
        R, pivots = linalg.rref(F, A)
        E = echelon(F, len(A[0]), A)
        assert R == tuple(E.rows) and pivots == E.pivots
        assert is_reduced_echelon(R, pivots)
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
        assert len(linalg.rref(F, null)[0]) == len(null)
    check()


def _reference_nullspace(F, A):
    """linalg.nullspace_rows as it ran before one echelon pass over
    (A | I): rref of the transpose, then back substitution from each free
    column; kept as its oracle."""
    R, pivots = linalg.rref(F, linalg.transpose(A))
    basis = []
    for f in (j for j in range(len(A)) if j not in pivots):
        v = [0] * len(A)
        v[f] = 1
        for rowi, pc in enumerate(pivots):
            v[pc] = F.neg(R[rowi][f])
        basis.append(tuple(v))
    return tuple(basis)


def _nullspace_inputs(F, rng):
    """Zero-row, zero-column, full-rank and all-dependent matrices, then
    random ones up to 6 x 6, half of them of low rank."""
    yield ()
    yield ((),) * 3
    yield linalg.identity(4)
    yield ((1, 2, 0, 1, 1), (0, 1, 2, 2, 0), (0, 0, 0, 1, 2))
    yield ((0,) * 3,) * 4
    yield ((1, 2, 0),) * 4
    for _ in range(60):
        m, n, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
        rows = [tuple(rng.randrange(F.q) for _ in range(n))
                for _ in range(r if rng.randrange(2) else m)]
        yield tuple(linalg.vec_mat(F, [rng.randrange(F.q) for _ in rows], rows)
                    for _ in range(m))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_nullspace_is_the_transposed_rref_basis(F):
    rng = random.Random(F.q)
    for A in _nullspace_inputs(F, rng):
        null = linalg.nullspace_rows(F, A)
        assert null == _reference_nullspace(F, A), A
        # the free rows of one solve over the same rows, packed
        E = linalg.Echelon(F, len(A[0]) if A else 0)
        assert tuple(E.solve([E.pack(r) for r in A])[1].values()) == null


@pytest.mark.parametrize("n", [13, 36, 81])
def test_nullspace_of_large_gf3_matrices(n):
    rng = random.Random(n)
    for rank in (0, 1, n // 3, n - 1, n):
        rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(rank)]
        A = tuple(linalg.vec_mat(GF3, [rng.randrange(3) for _ in rows], rows)
                  if rows else (0,) * n for _ in range(n))
        E = linalg.Echelon(GF3, n)
        null = tuple(E.solve([E.pack(r) for r in A])[1].values())
        assert null == linalg.nullspace_rows(GF3, A) == _reference_nullspace(GF3, A)
        assert len(null) == n - len(linalg.rref(GF3, A)[0])


def _check_solve(F, A, rng):
    """Echelon.solve over the rows of A against the oracles: free is the
    reference nullspace, keyed by each row's index, and coords take the
    vectors of the span to an x with x . A = v and zeros at the free rows,
    and every other vector to None."""
    n = len(A[0]) if A else 3
    E = linalg.Echelon(F, n)
    coords, free = E.solve([E.pack(r) for r in A])
    assert tuple(free.values()) == _reference_nullspace(F, A), A
    assert all(y[i] == 1 and not any(y[i + 1:]) for i, y in free.items())
    span = echelon(F, n, A)
    vs = [(0,) * n] + [tuple(rng.randrange(F.q) for _ in range(n))
                       for _ in range(10)]
    vs += [linalg.vec_mat(F, [rng.randrange(F.q) for _ in A], A)
           for _ in range(10 if A else 0)]
    for v in vs:
        x = coords(E.pack(v))
        if any(reduced(span, v)):
            assert x is None, (A, v)
        else:
            assert len(x) == len(A) and not any(x[i] for i in free)
            assert (linalg.vec_mat(F, x, A) if A else (0,) * n) == v, (A, v)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_solve_gives_the_nullspace_and_the_coordinates(F):
    rng = random.Random(F.q)
    for A in _nullspace_inputs(F, rng):
        _check_solve(F, A, rng)


@pytest.mark.parametrize("n", [13, 36, 81])
def test_solve_on_large_gf3_matrices(n):
    rng = random.Random(n)
    for rank in (0, 1, n // 3, n - 1, n):
        rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(rank)]
        A = tuple(linalg.vec_mat(GF3, [rng.randrange(3) for _ in rows], rows)
                  if rows else (0,) * n for _ in range(n))
        _check_solve(GF3, A, rng)


@pytest.mark.parametrize("F", DET_FIELDS, ids=repr)
def test_mat_inv_inverts_and_refuses_what_it_cannot(F):
    rng = random.Random(F.q)
    for n in range(7):
        A = ((0,) * n,) * n
        while n and linalg.det(F, A) == 0:
            A = tuple(tuple(rng.randrange(F.q) for _ in range(n))
                      for _ in range(n))
        inv = linalg.mat_inv(F, A)
        assert linalg.mat_mul(F, A, inv) == linalg.mat_mul(F, inv, A) == \
            linalg.identity(n)
    with pytest.raises(ValueError, match="singular"):
        linalg.mat_inv(F, ((1, 2), (2, 4 % F.p)))
    # it returned "inverses" of these
    for A in (((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (1, 1)), ((1, 2),),
              ((1, 0), (0, 1, 0))):
        with pytest.raises(ValueError, match="not square"):
            linalg.mat_inv(F, A)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_solve_row_refuses_a_length_mismatch(F):
    # it cut b to the row length, and solved any b with an empty A
    for A, b in ((((1, 0),), (1, 0, 2)), (((1, 0, 2),), (1, 0)),
                 (((1, 0), (0, 1, 1)), (1, 1))):
        with pytest.raises(ValueError, match="length"):
            linalg.solve_row(F, A, b)
    assert linalg.solve_row(F, (), (1, 2)) is None
    assert linalg.solve_row(F, (), (0, 0)) == ()
    assert linalg.solve_row(F, ((1, 0), (0, 2)), (1, 1)) == (1, F.inv(2))


@pytest.mark.parametrize("F", [GF3, field_create(5, 1)], ids=repr)
def test_subquotient_refuses_rows_that_span_no_submodule(F):
    # the 3-cycle permutes the coordinates: e_0 spans no submodule, nor
    # does span(e_0, e_1) mod span(e_0), since e_1 maps to e_2
    G = groups.MatrixGroup(F, 3, (linalg.perm_matrix((1, 2, 0)),))
    for sub, rad in (([(1, 0, 0)], ()), ([(1, 0, 0), (0, 1, 0)], [(1, 0, 0)])):
        with pytest.raises(ValueError, match="vector is outside the subspace"):
            linalg.subquotient(G, sub, rad)
    # span(1, 1, 1) is one, and its coords refuse the vectors off it
    basis, gens, coords = linalg.subquotient(G, [(1, 1, 1)], ())
    assert basis == [(1, 1, 1)] and gens == (((1,),),)
    assert coords((2, 2, 2)) == (2,)
    with pytest.raises(ValueError, match="vector is outside the subspace"):
        coords((1, 0, 0))
    # rows of another length than the group's dim
    for sub, rad in (([(1, 1)], ()), ([(1, 1, 1, 1)], ()),
                     ([(1, 1, 1)], [(0, 0)])):
        with pytest.raises(ValueError, match="length"):
            linalg.subquotient(G, sub, rad)


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


class _ReferenceEchelon:
    """The per-entry Echelon that ran over every field before GF(3) rows
    were packed into masks; kept as the oracle of the packed one."""

    def __init__(self, F, rows=()):
        self.F = F
        self.rows = []
        self.pivots = []
        for r in rows:
            self.add(r)

    def _axpy(self, v, c, row):
        return [(x - c * y) % 3 for x, y in zip(v, row)]

    def reduce(self, v):
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                v = self._axpy(v, v[p], row)
        return v

    def add(self, v):
        return self._join(self.reduce(v)) is not None

    def _join(self, w):
        F = self.F
        col = next((j for j, x in enumerate(w) if x), None)
        if col is None:
            return None
        lead = w[col]
        w = linalg.vec_scale(F, F.inv(lead), w)
        for i, row in enumerate(self.rows):
            if row[col]:
                self.rows[i] = tuple(self._axpy(row, row[col], w))
        at = bisect.bisect(self.pivots, col)
        self.rows.insert(at, w)
        self.pivots.insert(at, col)
        return F.neg(lead) if (len(self.pivots) - 1 - at) % 2 else lead

    def coordinates(self, basis):
        F = self.F
        inv = linalg.mat_inv(F, tuple(tuple(b[p] for p in self.pivots)
                                      for b in basis))

        def coords(v):
            if len(self.pivots) < len(v) and any(self.reduce(v)):
                return None
            x = tuple(v[p] for p in self.pivots)
            return linalg.vec_mat(F, x, inv) if x else ()

        return coords


def _gf3_inputs(rng, n, rank):
    """A zero vector, then in random order: rank random vectors of length
    n and 2 * n + 2 vectors that are zero or combinations of them."""
    rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(rank)]
    out = [(0,) * n]
    for _ in range(2 * n + 2):
        if rng.randrange(4) == 0:
            out.append((0,) * n)
        else:
            k = rng.randrange(1, len(rows) + 1)
            coeffs = [rng.randrange(3) for _ in range(k)]
            out.append(linalg.vec_mat(GF3, coeffs, rows[:k]))
    out[1:1] = rows
    return out[:1] + rng.sample(out[1:], len(out) - 1)


@pytest.mark.parametrize("n", [1, 13, 27, 81])
def test_packed_echelon_matches_the_per_entry_one(n):
    rng = random.Random(n)
    for rank in (1, n // 3 + 1, n) * 2:
        E, R = linalg.Echelon(GF3, n), _ReferenceEchelon(GF3)
        basis = []
        for v in _gf3_inputs(rng, n, rank):
            # the signed lead that det multiplies, then the rows
            lead = E._join(E._reduce(E.pack(v)))
            assert lead == R._join(R.reduce(v))
            assert E.rows == R.rows and E.pivots == R.pivots
            if lead is not None:
                basis.append(v)
        assert len(basis) == len(E.rows) <= rank
        coords, free = E.solve([E.pack(b) for b in basis])
        ref = R.coordinates(basis)
        assert free == {}
        for _ in range(20):
            x = tuple(rng.randrange(3) for _ in basis)
            inside = linalg.vec_mat(GF3, x, basis) if basis else (0,) * n
            u = tuple(rng.randrange(3) for _ in range(n))
            assert coords(E.pack(inside)) == ref(inside) == x
            assert coords(E.pack(u)) == ref(u)
            assert list(reduced(E, u)) == R.reduce(u)
        assert linalg.rref(GF3, basis) == (tuple(R.rows), R.pivots)


@pytest.mark.parametrize("F", DET_FIELDS, ids=repr)
def test_det_refuses_a_matrix_that_is_not_square(F):
    # det((1, 2, 0), (0, 1, 1)) was 1: the rows were read as a basis of
    # their span, whatever its length; a zero row came back 0 before the
    # rows after it were looked at
    for A in (((1, 2, 0), (0, 1, 1)), ((1, 0), (0, 1), (1, 1)),
              ((0, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match="length"):
            linalg.det(F, A)


@pytest.mark.parametrize("n", [13, 27, 81])
def test_det_of_large_gf3_matrices(n):
    rng = random.Random(n)
    for trial in range(4):
        # shuffled rows of an upper triangular matrix with a nonzero
        # diagonal, then one row made a repeat of another, zero, or a
        # combination of the others
        A = [[0] * i + [rng.randrange(1, 3)] +
             [rng.randrange(3) for _ in range(n - 1 - i)] for i in range(n)]
        rng.shuffle(A)
        i, j = rng.sample(range(n), 2)
        A[i] = (A[i], A[j], [0] * n, linalg.vec_mat(
            GF3, [0 if r == i else rng.randrange(3) for r in range(n)], A))[trial]
        A = linalg.mat_from_rows(A)
        d = linalg.det(GF3, A)
        assert d == _reference_det(GF3, A) and (d == 0) == (trial > 0)
        P = linalg.perm_matrix(rng.sample(range(n), n))
        assert linalg.det(GF3, P) == _reference_det(GF3, P) != 0


def test_gf3_rows_refuse_entries_outside_the_field():
    for bad in ((0, 3, 1), (0, -1, 1), (2, 2, 255), (0, 0, 256)):
        with pytest.raises(ValueError, match="GF\\(3\\) entries"):
            linalg.Echelon(GF3, 3).pack(bad)
        with pytest.raises(ValueError):
            linalg.det(GF3, ((1, 0, 0), (0, 1, 0), bad))
        E = echelon(GF3, 3, [(1, 0, 0)])
        with pytest.raises(ValueError):
            added(E, bad)
        assert E.rows == [(1, 0, 0)]
    # entries 1 and 2 may come in any int type
    assert echelon(GF3, 3, [(True, 0, 2)]).rows == [(1, 0, 2)]


def test_rows_over_other_fields_refuse_entries_outside_the_field():
    # over GF(5) they were taken as they came, and over GF(9) an entry
    # past 8 raised IndexError in the arithmetic
    GF5 = field_create(5, 1)
    for F, bad in ((GF5, (0, 5, 1)), (GF5, (0, -1, 1)), (GF9, (0, 9, 1)),
                   (GF9, (12, 0, 0))):
        with pytest.raises(ValueError, match="entries"):
            linalg.Echelon(F, 3).pack(bad)
        with pytest.raises(ValueError, match="entries"):
            linalg.det(F, ((1, 0, 0), (0, 1, 0), bad))
    for F, g in ((GF5, ((6,),)), (GF5, ((-1,),)), (GF9, ((12,),))):
        with pytest.raises(ValueError, match="entries"):
            groups.MatrixGroup(F, 1, (g,))
    with pytest.raises(ValueError, match="entries"):
        geometry.QuadraticSpace(GF5, ((7,),))
    assert linalg.Echelon(GF9, 3).pack((8, 0, 1)) == (8, 0, 1)


def test_the_row_length_is_fixed_at_construction():
    # unpack read the length of the last row packed, so it cut rows short
    for F in (GF3, field_create(5, 1), GF9):
        E = echelon(F, 5, [(1, 0, 2, 0, 1)])
        for v in ((1, 2), (1, 0, 2, 0, 1, 1)):
            with pytest.raises(ValueError, match="length"):
                E.pack(v)
        assert E.rows == [(1, 0, 2, 0, 1)]
        assert E.unpack(E.pack((0, 2, 0, 0, 1))) == (0, 2, 0, 0, 1)
        assert linalg.Echelon(F, 3).rows == []


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_solve_reads_rows_packed_by_another_echelon(F):
    # solve read the GF(3) e_i part from bit 0 when no pack had fixed the
    # row length, so rows packed by another Echelon got wrong answers
    P = linalg.Echelon(F, 2)
    rows = [P.pack((1, 0)), P.pack((2, 0))]
    coords, free = linalg.Echelon(F, 2).solve(rows)
    assert free == {1: (1, 1)} and coords(P.pack((1, 0))) == (1, 0)
    # coordinates in rows that are not in echelon form
    E = linalg.Echelon(F, 3)
    coords, free = E.solve([E.pack((1, 1, 1)), E.pack((0, 1, 1))])
    assert free == {} and coords(E.pack((1, 2, 2))) == (1, 1)
    assert coords(E.pack((0, 0, 1))) is None
    # with no rows only the zero vector has coordinates
    coords, free = linalg.Echelon(F, 2).solve([])
    assert free == {} and coords(P.pack((0, 0))) == ()
    assert coords(P.pack((0, 1))) is None


@pytest.mark.parametrize("F", DET_FIELDS, ids=repr)
def test_solve_refuses_rows_packed_at_another_length(F):
    # over GF(3) the masks of a longer row spilled into the e_i bits, so
    # the independent (1, 0, 1) and (0, 0, 1) came out dependent
    P = linalg.Echelon(F, 3)
    with pytest.raises(ValueError, match="row 0"):
        linalg.Echelon(F, 2).solve([P.pack((1, 0, 1)), P.pack((0, 0, 1))])
    # a packed GF(3) row is its masks, so only a nonzero entry past the
    # last column shows, in the 2s as in the 1s; elsewhere the length does
    rows = [P.pack((1, 0, 0)), P.pack((0, 0, 2))]
    with pytest.raises(ValueError, match="row 1" if F.q == 3 else "row 0"):
        linalg.Echelon(F, 2).solve(rows)
    short = [linalg.Echelon(F, 1).pack((1,))]
    if F.q == 3:
        assert linalg.Echelon(F, 2).solve(rows[:1] + short)[1] == {1: (2, 1)}
    else:
        with pytest.raises(ValueError, match="length 1, not 2"):
            linalg.Echelon(F, 2).solve(short)
    # coords(v) makes the same test: unchecked, over GF(3) the wider
    # (1, 0, 1) and (0, 0, 1) would read (0,) and (2,)
    E = linalg.Echelon(F, 2)
    coords, _ = E.solve([E.pack((1, 0))])
    for v in ((1, 0, 1), (0, 0, 1)):
        with pytest.raises(ValueError, match="wider than 2|length 3, not 2"):
            coords(P.pack(v))


def _reference_spin(F, gens, seeds):
    """meataxe.spin as it ran before rows were packed, one field entry at
    a time; kept as its oracle."""
    span = _ReferenceEchelon(F, seeds)
    frontier = list(span.rows)
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = linalg.vec_mat(F, v, g)
                if span.add(w):
                    new.append(w)
        frontier = new
    return list(span.rows)


@pytest.mark.parametrize("n", [8, 9])
def test_spin_matches_the_per_entry_spin(n):
    rng = random.Random(n)
    perms = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
    U = meataxe.permutation_module(n, perms)
    T = meataxe.tensor_module(U, U)

    def tensor(sign):
        """A random x, x_ij at row i * n + j; with sign 1 or 2 it is a
        symmetric or an alternating tensor, x_ji = sign * x_ij."""
        x = [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
        if sign:
            for i in range(n):
                x[i][i] *= sign == 1
                for j in range(i):
                    x[i][j] = sign * x[j][i] % 3
        return tuple(itertools.chain(*x))

    seeds = [[tensor(0)], [tensor(1)], [tensor(2)], [(1,) * n * n],
             [tensor(1), tensor(2)], [tensor(1), (1,) * n * n]]
    dims = set()
    for s in seeds:
        rows = meataxe.spin(T, s).rows
        assert rows == _reference_spin(GF3, T.gens, s)
        dims.add(len(rows))
    assert len(dims) >= 4, dims
