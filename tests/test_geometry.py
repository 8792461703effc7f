import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank3 import constructions, geometry, groups, linalg
from rank3.fields import GF3, field_create
from rank3.geometry import (MINUS, PLUS, ZERO, QuadraticSpace, canonical_point,
                            count_norm_vectors, decode_codes, nonsingular_points,
                            point_type, q_value_counts, sign_of_space,
                            standard_space, type_of_qvalue)

GF5 = field_create(5, 1)
GF9 = field_create(3, 2)


def test_standard_space_basics():
    sp = standard_space(5, GF3)
    assert sp.n == 5
    assert sp.gram == tuple(tuple(r) for r in linalg.identity(5))
    assert sp.q_value((1, 0, 0, 0, 0)) == 2  # Q = 2^{-1} f(v,v) = 2 in GF(3)
    assert sp.q_value((1, 1, 0, 0, 0)) == 1
    assert sp.q_value((1, 1, 1, 0, 0)) == 0


@pytest.mark.parametrize("call", [
    lambda sp: sp.q_value((1,)),
    lambda sp: sp.q_value((5, 0, 0, 0, 0)),
    lambda sp: point_type(sp, (1,)),
    lambda sp: groups.reflection(sp, (1,)),
    lambda sp: sp.q_value((0,) * 5 + (1,)),
    lambda sp: sp.form((1, 0, 0, 0, 0), (1, 0, 0, 0, 3)),
], ids=["short", "entry-5", "type-short", "reflection-short", "long",
        "form-second"])
def test_form_refuses_a_vector_of_the_wrong_length_or_entries(call):
    # the entry points read a vector through form, which checks its length
    # and its entries: a short vector is not zero-padded, an entry 5 is not
    # read as 2 and a long vector raises no IndexError
    with pytest.raises(ValueError):
        call(standard_space(5, GF3))


def test_degenerate_form_rejected():
    gram = ((1, 0), (0, 0))
    with pytest.raises((ValueError, AssertionError)):
        QuadraticSpace(GF3, gram)


def test_polarization_identity():
    sp = standard_space(4, GF3)

    @settings(max_examples=100)
    @given(st.tuples(*[st.integers(0, 2)] * 4), st.tuples(*[st.integers(0, 2)] * 4))
    def check(u, v):
        s = tuple(GF3.add(a, b) for a, b in zip(u, v))
        lhs = GF3.sub(sp.q_value(s), GF3.add(sp.q_value(u), sp.q_value(v)))
        assert lhs == sp.form(u, v)
    check()


def test_q_scales_by_square():
    sp = standard_space(5, GF3)
    for v in [(1, 0, 0, 0, 0), (1, 2, 0, 1, 0), (2, 2, 2, 1, 1)]:
        w = tuple(GF3.mul(2, x) for x in v)
        assert sp.q_value(w) == GF3.mul(sp.q_value(v), GF3.mul(2, 2))


def test_canonical_point():
    assert canonical_point(GF3, (2, 1, 0)) == (1, 2, 0)
    assert canonical_point(GF3, (0, 2, 2)) == (0, 1, 1)
    v = (1, 0, 2)
    assert canonical_point(GF3, v) == v
    with pytest.raises(ValueError):
        canonical_point(GF3, (0, 0, 0))


@pytest.mark.parametrize("n", range(1, 8))
def test_counts_match_exhaustive_gf3(n):
    sp = standard_space(n, GF3)
    counts = q_value_counts(sp)
    assert sum(counts.values()) == 3 ** n
    for gamma in GF3.elements():
        res = count_norm_vectors(sp, gamma)
        assert res.mode == "both"
        assert res.closed_form == counts[gamma]


@pytest.mark.parametrize("n", range(1, 5))
def test_counts_match_exhaustive_gf9(n):
    sp = standard_space(n, GF9)
    counts = q_value_counts(sp)
    for gamma in GF9.elements():
        assert count_norm_vectors(sp, gamma).closed_form == counts[gamma]


def test_odd_dim_count_formula():
    # #{Q = gamma} = q^{2k} + rho*q^k for gamma != 0, dim 2k+1
    for m in (1, 2, 3):
        sp = standard_space(2 * m + 1, GF3)
        for gamma in (1, 2):
            rho = 1 if type_of_qvalue(sp, gamma) == PLUS else -1
            expected = 3 ** (2 * m) + rho * 3 ** m
            assert count_norm_vectors(sp, gamma).closed_form == expected


def test_even_dim_sign():
    # diag(1,1) has disc 1 ~ -1*(-1): plus type over GF(3)
    assert sign_of_space(standard_space(2, GF3)) == "-"
    gram = ((0, 1), (1, 0))
    assert sign_of_space(QuadraticSpace(GF3, gram)) == "+"


def test_point_type_invariance():
    sp = standard_space(5, GF3)
    for v in [(1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 1, 1, 0, 0)]:
        w = tuple(GF3.mul(2, x) for x in v)
        if any(v):
            if sp.q_value(v) == 0:
                assert point_type(sp, v) == ZERO
            else:
                assert point_type(sp, v) == point_type(sp, w)
                assert point_type(sp, v) == type_of_qvalue(sp, sp.q_value(v))


@pytest.mark.parametrize("m,xi,size", [
    (2, "+", 45), (2, "-", 36), (3, "+", 378), (3, "-", 351)])
def test_point_set_sizes(m, xi, size):
    sp = standard_space(2 * m + 1, GF3)
    pts = nonsingular_points(sp, xi)
    assert len(pts) == size
    # all canonical, all of the right type
    for v in pts[:20]:
        assert v == canonical_point(GF3, v)
        assert point_type(sp, v) == (PLUS if xi == "+" else MINUS)


@pytest.mark.parametrize("n", [5, 7])
def test_nonsingular_points_order(n):
    # leading 1 moves right; behind it the first coordinate varies fastest
    sp = standard_space(n, GF3)
    for xi, want in (("+", PLUS), ("-", MINUS)):
        reference = []
        for lead in range(n):
            for tail in itertools.product(range(3), repeat=n - lead - 1):
                v = (0,) * lead + (1,) + tail[::-1]
                if sp.q_value(v) != 0 and point_type(sp, v) == want:
                    reference.append(v)
        pts = nonsingular_points(sp, xi)
        assert pts == reference
        assert geometry.first_nonsingular_point(sp, xi) == pts[0]
        powers = geometry.code_powers(n)
        assert list(geometry.nonsingular_codes(sp, xi)) == sorted(
            sum(int(x) * int(p) for x, p in zip(v, powers)) for v in pts)


def check_enumerator(sp):
    """Compare every enumerator with a plain itertools.product reference."""
    F, n = sp.field, sp.n
    q = {v: sp.q_value(v) for v in itertools.product(F.elements(), repeat=n)}
    assert q_value_counts(sp) == {g: list(q.values()).count(g)
                                  for g in F.elements()}
    if n % 2 == 0:
        return
    powers = geometry.code_powers(n, F.p)
    for xi, want in (("+", PLUS), ("-", MINUS)):
        # leading 1 moves right; behind it the first coordinate varies fastest
        reference = []
        for lead in range(n):
            for tail in itertools.product(F.elements(), repeat=n - lead - 1):
                v = (0,) * lead + (1,) + tail[::-1]
                if q[v] != 0 and type_of_qvalue(sp, q[v]) == want:
                    reference.append(v)
        assert nonsingular_points(sp, xi) == reference
        codes = geometry.nonsingular_codes(sp, xi)
        assert codes.tolist() == sorted(
            sum(int(x) * int(w) for x, w in zip(v, powers)) for v in reference)
        assert decode_codes(codes, n, F.p).tolist() == sorted(
            list(v) for v in reference)
        if reference:
            assert geometry.first_nonsingular_point(sp, xi) == reference[0]


@pytest.mark.parametrize("field,n", [(GF3, n) for n in range(1, 10)]
                         + [(GF5, n) for n in range(1, 6)])
def test_enumerator_matches_product_reference(field, n):
    # n = 1 splits into an empty first half
    for disc in ("square", "nonsquare"):
        check_enumerator(standard_space(n, field, disc))


@pytest.mark.parametrize("field", [GF3, GF5])
def test_enumerator_non_diagonal_gram(field):
    big = standard_space(7, field)
    basis = big.perp_basis([(1, 1, 0, 0, 0, 0, 0), (0, 1, 2, 1, 0, 0, 0)])
    gram = tuple(tuple(big.form(u, v) for v in basis) for u in basis)
    sp = QuadraticSpace(field, gram)
    assert sp.n == 5
    assert any(gram[i][j] for i in range(5) for j in range(5) if i != j)
    check_enumerator(sp)


def _first_point_spaces():
    """Standard spaces of both discriminants over GF(3) in odd dims 1-13 and
    over GF(5) and GF(7) in dims 3 and 5, and the non-diagonal dim-13
    space of sp6-lambda2."""
    from rank3.constructions import symplectic_lambda2_module
    GF7 = field_create(7, 1)
    fields_dims = [(GF3, n) for n in range(1, 14, 2)] + [
        (F, n) for F in (GF5, GF7) for n in (3, 5)]
    return [standard_space(n, F, disc) for F, n in fields_dims
            for disc in ("square", "nonsquare")] + [
        symplectic_lambda2_module().space]


def test_first_nonsingular_point_is_the_first_of_the_enumeration():
    for sp in _first_point_spaces():
        for xi in ("+", "-"):
            pts = nonsingular_points(sp, xi)
            if pts:
                assert geometry.first_nonsingular_point(sp, xi) == pts[0]
            else:  # dim 1 has points of one type only
                assert sp.n == 1
                with pytest.raises(ValueError, match="no point"):
                    geometry.first_nonsingular_point(sp, xi)


def test_first_nonsingular_point_reads_the_masks_in_blocks(monkeypatch):
    # blocks of 7 tails, which do not divide 3^t, and every tail a block
    sp = _first_point_spaces()[-1]
    first = [geometry.first_nonsingular_point(sp, xi) for xi in ("+", "-")]
    for block in (7, 1):
        monkeypatch.setattr(geometry, "_FIRST_BLOCK", block)
        assert [geometry.first_nonsingular_point(sp, xi)
                for xi in ("+", "-")] == first


def test_nonsingular_points_needs_prime_field():
    sp = standard_space(3, GF9)
    for enumerate_points in (nonsingular_points, geometry.nonsingular_codes,
                             geometry.first_nonsingular_point):
        with pytest.raises(ValueError, match="prime field"):
            enumerate_points(sp, "+")
    with pytest.raises(ValueError, match="prime field"):
        geometry.singular_codes(sp)


def _reference_q_value_counts(space):
    """The per-vector loop that q_value_counts ran over extension fields."""
    counts = dict.fromkeys(space.field.elements(), 0)
    for v in itertools.product(space.field.elements(), repeat=space.n):
        counts[space.q_value(v)] += 1
    return counts


def _random_space(field, n, rng):
    """A seeded random non-degenerate gram, non-diagonal for n > 1."""
    while True:
        upper = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
        gram = tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(n))
                     for i in range(n))
        if (n == 1 or any(gram[0][1:])) and linalg.det(field, gram):
            return QuadraticSpace(field, gram)


@pytest.mark.parametrize("p,a,dims", [(7, 1, 4), (3, 2, 4), (5, 2, 2),
                                      (3, 3, 3)])
def test_q_table_matches_q_value_over_every_field(p, a, dims):
    # the table is indexed by the code base q, first coordinate most
    # significant: the order of itertools.product
    F = field_create(p, a)
    rng = random.Random(24)
    for n in range(1, dims + 1):
        spaces = [standard_space(n, F, "square"),
                  standard_space(n, F, "nonsquare"), _random_space(F, n, rng)]
        for sp in spaces:
            vs = itertools.product(F.elements(), repeat=n)
            assert geometry._q_table(sp).tolist() == [sp.q_value(v) for v in vs]
            assert q_value_counts(sp) == _reference_q_value_counts(sp)


def test_q_value_counts_reads_no_vector(monkeypatch):
    def refuse(self, v):
        raise AssertionError("q_value called")
    monkeypatch.setattr(QuadraticSpace, "q_value", refuse)
    sp = standard_space(4, GF9)
    assert q_value_counts(sp) == {
        g: count_norm_vectors(sp, g).closed_form for g in GF9.elements()}


def test_q_table_of_a_large_prime_field_does_not_overflow():
    # Q(v) = v^2 / 2 in GF(p)^1; as integers, v^2 (p + 1) / 2 passes 2^63
    # once p > 2.64e6, so the table must reduce mod p before it multiplies
    p = 2650007
    sp = standard_space(1, field_create(p, 1))
    vs = [1, 2, p // 2, p - 1]
    assert geometry._q_table(sp)[vs].tolist() == [sp.q_value((v,)) for v in vs]


@pytest.mark.parametrize("p,a,n,block", [(10007, 1, 1, 1000), (101, 1, 2, 7),
                                         (3, 2, 2, 2), (3, 1, 5, 4),
                                         (101, 1, 2, 7 * 101), (3, 2, 2, 18),
                                         (3, 1, 5, 4 * 9)])
def test_q_table_built_in_blocks_matches_the_whole_one(p, a, n, block,
                                                       monkeypatch):
    # blocks of y that do not divide the number of y, with and without
    # cross terms and over an extension field, give the table of one block;
    # a block is _Q_BLOCK entries, all p^s values of x times some of y
    F = field_create(p, a)
    spaces = [standard_space(n, F, "nonsquare"),
              _random_space(F, n, random.Random(27))]
    whole = [geometry._q_table(sp) for sp in spaces]
    monkeypatch.setattr(geometry, "_Q_BLOCK", block)
    for sp, table in zip(spaces, whole):
        sp._qtable = None
        assert np.array_equal(geometry._q_table(sp), table)
        vs = itertools.product(F.elements(), repeat=n)
        assert table.tolist() == [sp.q_value(v) for v in vs]


def test_q_table_peak_memory_over_a_large_prime_field():
    # one int64 array over all 4782961 values of y would alone take 2 tables
    sp = standard_space(1, field_create(4782961, 1))
    tracemalloc.start()
    try:
        table = geometry._q_table(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.uint32
    assert peak <= 2.5 * table.nbytes


def test_q_table_peak_memory_over_a_prime_field_squared():
    # over GF(2179)^2 the p^s = 2179 values of x times all 2179 of y, as
    # int64, would alone take 4 tables
    sp = standard_space(2, field_create(2179, 1), "nonsquare")
    tracemalloc.start()
    try:
        table = geometry._q_table(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.uint16
    assert peak <= 2.5 * table.nbytes
    vs = [0, 1, 2179, 2180, 2179 * 1000 + 17, 2179 ** 2 - 1]
    assert table[vs].tolist() == [sp.q_value(divmod(v, 2179)) for v in vs]


@pytest.mark.parametrize("p,a,n", [(65521, 1, 1), (3, 10, 1), (3, 7, 2)])
def test_large_field_counts_are_checked_exhaustively(p, a, n):
    # a (q, q) table of the field would have 4.3e9 entries at q = 65521
    sp = standard_space(n, field_create(p, a))
    counts = q_value_counts(sp)
    assert sum(counts.values()) == p ** (a * n)
    for gamma in sp.field.elements():
        res = count_norm_vectors(sp, gamma)
        assert res.mode == "both" and res.exhaustive == counts[gamma]


def test_counts_index_the_bincount_without_a_dict(monkeypatch):
    # count_norm_vectors and sign_of_space read the cached count array; a
    # dict of it would hold one int object per field element
    def refuse(space):
        raise AssertionError("q_value_counts called")
    sp = standard_space(1, field_create(65521, 1))
    monkeypatch.setattr(geometry, "q_value_counts", refuse)
    counts = Counter(geometry._q_table(sp).tolist())
    for gamma in sp.field.elements():
        res = count_norm_vectors(sp, gamma)
        assert res.mode == "both" and res.exhaustive == counts[gamma]
    # -1 is a nonsquare mod 251, so x^2 + y^2 is anisotropic: sign -
    assert sign_of_space(standard_space(2, field_create(251, 1))) == "-"


def test_measured_parameters_small():
    sp = standard_space(5, GF3)
    assert geometry.measured_rank3_parameters(sp, "+") == (45, 12, 32, 3, 3)
    assert geometry.measured_rank3_parameters(sp, "-") == (36, 15, 20, 6, 6)


@pytest.mark.parametrize("n,xi,size", [(5, "+", 45), (5, "-", 36),
                                       (7, "+", 378), (7, "-", 351)])
def test_delta_graph_square_matches_the_integer_product(n, xi, size):
    A, A2 = geometry._delta_graph(standard_space(n, GF3), xi)
    assert len(A) == size
    assert A.dtype == bool and A2.dtype == np.min_scalar_type(size)
    assert np.array_equal(A2, A.astype(np.int64) @ A.astype(np.int64))


def _parabolic_space(alpha, s):
    return QuadraticSpace(GF3, constructions._parabolic_gram(alpha, s))


# the four ledger graphs, two non-diagonal Gram matrices (f pairs e_i with
# f_i) and another prime field, which takes the integer product
_DELTA_SPACES = {"std5": lambda: standard_space(5, GF3),
                 "std7": lambda: standard_space(7, GF3),
                 "par5": lambda: _parabolic_space(2, 1),
                 "par7": lambda: _parabolic_space(3, 1),
                 "gf5": lambda: standard_space(5, GF5)}


@pytest.mark.parametrize("name", sorted(_DELTA_SPACES))
@pytest.mark.parametrize("xi", ["+", "-"])
def test_delta_graph_adjacency_is_perpendicularity(name, xi):
    sp = _DELTA_SPACES[name]()
    P = np.array(nonsingular_points(sp, xi), dtype=np.int64)
    G = np.array(sp.gram, dtype=np.int64)
    A, A2 = geometry._delta_graph(sp, xi)
    want = (P @ G @ P.T) % sp.field.p == 0
    assert not want.diagonal().any()  # f(v, v) = 2 Q(v) is nonzero on E_xi
    assert A.dtype == bool and np.array_equal(A, want)
    assert A2.dtype == np.min_scalar_type(len(P))
    assert np.array_equal(A2, want.astype(np.int64) @ want.astype(np.int64))
    N, k = geometry.measured_rank3_parameters(sp, xi)[:2]
    assert (N, k) == (len(P), int(want[0].sum()))


@pytest.mark.parametrize("xi,params", [("+", (325, 60, 264, 15, 10)),
                                       ("-", (300, 65, 234, 10, 15))])
@pytest.mark.parametrize("edge", [True, False])
def test_one_wrong_square_entry_is_refused(xi, params, edge, monkeypatch):
    # over GF(5) lambda and mu differ, both ways round; an entry of A^2 one
    # up at an edge or a non-edge away from point 0, where they are read
    sp = standard_space(5, GF5)
    A, A2 = geometry._delta_graph(sp, xi)
    assert geometry.measured_rank3_parameters(sp, xi) == params
    i = 7
    j = int(np.flatnonzero(A[i] == edge)[-1])
    assert j != i and A2[i, j] == params[3 if edge else 4]
    bad = A2.copy()
    bad[i, j] += 1
    monkeypatch.setattr(geometry, "_delta_graph", lambda space, xi: (A, bad))
    with pytest.raises(AssertionError, match="intersection numbers"):
        geometry.measured_rank3_parameters(sp, xi)


def test_common_neighbours_matches_the_integer_product_on_random_graphs():
    # N runs across several multiples of 64, where the packed rows gain a word
    rng = np.random.default_rng(22)
    for N in range(1, 201):
        upper = np.triu(rng.integers(0, 2, (N, N), dtype=np.int64), 1)
        A = upper + upper.T
        assert np.array_equal(geometry._common_neighbours(A), A @ A), N
