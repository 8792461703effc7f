import copy
import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank3 import geometry, groups, linalg, meataxe
from rank3.fields import GF3, NONSQUARE, SQUARE, field_create
from rank3.geometry import QuadraticSpace, decode_codes, standard_space
from rank3.groups import (MatrixGroup, cd_parameters, eichler,
                          find_vector_with_q, omega_generators, omega_order,
                          orbit, orbit_codes, preserves_form, reflection,
                          spinor_norm)

GF9 = field_create(3, 2)
GF27 = field_create(3, 3)


def test_omega_orders():
    assert omega_order(3, 3) == 12
    assert omega_order(5, 3) == 25920
    assert omega_order(3, 9) == 360
    assert omega_order(3, 27) == 9828


def test_matrix_group_validation():
    sp = standard_space(3, GF3)
    singular = ((1, 0, 0), (0, 1, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        MatrixGroup(GF3, 3, (singular,), gram=sp.gram)
    not_isometry = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        MatrixGroup(GF3, 3, (not_isometry,), gram=sp.gram)


def test_matrix_group_refuses_a_generator_of_the_wrong_shape():
    ident = linalg.identity(3)
    for g in (linalg.identity(2), ident[:2], ident[:2] + ((0, 0, 1, 0),)):
        with pytest.raises(ValueError, match="wrong shape"):
            MatrixGroup(GF3, 3, (ident, g))
    # the module name the MeatAxe uses is the same class
    with pytest.raises(ValueError, match="wrong shape"):
        meataxe.GModule(GF3, 3, (linalg.identity(4),))
    assert meataxe.GModule is MatrixGroup


def test_orbit_scans_check_a_group_tagged_with_another_form(monkeypatch):
    # wreath-n7's group preserves its own form, not the parabolic one
    from rank3.constructions import build_case
    para, wreath = build_case("parabolic-n7-a1"), build_case("wreath-n7")
    assert wreath.group.gram is not None
    assert wreath.group.gram != para.space.gram
    v = para.base_points[0][0]
    for scan in (cd_parameters, orbit_codes):
        with pytest.raises(ValueError, match="does not preserve the form"):
            scan(para.space, wreath.group, v)
    # a group tagged with the space's own form is not checked again
    calls = []
    monkeypatch.setattr(groups, "preserves_form",
                        lambda *args: calls.append(args) or True)
    assert cd_parameters(para.space, para.group, v).size == 135
    assert calls == []


@pytest.mark.parametrize("n", [3, 5])
def test_reflection_properties(n):
    sp = standard_space(n, GF3)

    @settings(max_examples=60)
    @given(st.tuples(*[st.integers(0, 2)] * n))
    def check(u):
        if sp.q_value(u) == 0:
            return
        r = reflection(sp, u)
        assert preserves_form(GF3, r, sp.gram)
        assert linalg.mat_mul(GF3, r, r) == tuple(tuple(x) for x in linalg.identity(n))
        # u is negated, u-perp is fixed
        assert linalg.vec_mat(GF3, u, r) == tuple(GF3.neg(x) for x in u)
    check()


def test_eichler_in_omega():
    sp = QuadraticSpace(GF3, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    u = (1, 0, 0)  # singular
    assert sp.q_value(u) == 0
    v = (0, 0, 1)
    E = eichler(sp, u, v)
    assert preserves_form(GF3, E, sp.gram)
    assert linalg.det(GF3, E) == 1
    assert spinor_norm(sp, E) == "square"


def test_spinor_norm_of_reflection_pairs():
    sp = standard_space(5, GF3)
    u = find_vector_with_q(sp, 1)
    w = find_vector_with_q(sp, 2)
    ru, rw = reflection(sp, u), reflection(sp, w)
    # r_u r_u' has square spinor norm iff Q(u)Q(u') is a square
    assert spinor_norm(sp, linalg.mat_mul(GF3, ru, ru)) == "square"
    assert spinor_norm(sp, linalg.mat_mul(GF3, ru, rw)) == "nonsquare"


@pytest.mark.parametrize("q", [3, 5, 9, 27])
def test_spinor_norm_matches_reflection_products(q):
    # Wall form against the definition: a product of an even number of
    # reflections r_u has spinor norm the class of the product of the Q(u)
    F = field_create(*{3: (3, 1), 5: (5, 1), 9: (3, 2), 27: (3, 3)}[q])
    rng = random.Random(q)
    for n in range(2, 8):
        for disc in (SQUARE, NONSQUARE):
            sp = standard_space(n, F, disc)
            for _ in range(4):
                g, prod = linalg.identity(n), 1
                for _ in range(rng.choice((2, 4))):
                    u = tuple(rng.randrange(F.q) for _ in range(n))
                    if sp.q_value(u) == 0:
                        u = find_vector_with_q(sp, rng.choice(list(F.nonzero())))
                    g = linalg.mat_mul(F, g, reflection(sp, u))
                    prod = F.mul(prod, sp.q_value(u))
                assert spinor_norm(sp, g) == F.square_class(prod)


def test_spinor_norm_rejects_non_rotations():
    sp = standard_space(3, GF3)
    r = reflection(sp, (1, 0, 0))
    with pytest.raises(ValueError, match="det-1"):
        spinor_norm(sp, r)
    with pytest.raises(ValueError, match="isometry"):
        spinor_norm(sp, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    assert spinor_norm(sp, linalg.identity(3)) == SQUARE


@pytest.mark.parametrize("n", range(3, 14))
def test_eichler_generators_have_square_spinor_norm(n):
    sp = standard_space(n, GF3)
    for g in omega_generators(sp).gens:
        assert spinor_norm(sp, g) == SQUARE


@pytest.mark.parametrize("n,q", [(3, 3), (5, 3), (3, 9), (3, 27)])
def test_omega_generators_group_order(n, q):
    F = {3: GF3, 9: GF9, 27: GF27}[q]
    sp = standard_space(n, F)
    G = omega_generators(sp)
    for g in G.gens:
        assert preserves_form(F, g, sp.gram)
        assert linalg.det(F, g) == 1
        assert spinor_norm(sp, g) == "square"
    size = len(groups.group_closure(F, G.gens))
    assert size == omega_order(n, q)
    if q == 3:
        # the certificate's order on the 4 conic or 40 singular points,
        # where Omega_n(3) acts faithfully, against the enumeration
        perms = groups.point_perms(G.gens, geometry.singular_codes(sp))
        assert len(perms[0]) == {3: 4, 5: 40}[n]
        assert groups.schreier_sims_order(perms, size,
                                          random.Random(0)) == size


def _reference_closure(F, gens):
    """The pure-Python enumeration group_closure replaced: matrices over
    GF(q) as tuples, one mat_mul per element and generator."""
    ident = linalg.identity(len(gens[0]))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                m = linalg.mat_mul(F, h, g)
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    return seen


def _closure_key(F, m):
    """m's key in group_closure: its n^2 entries, row-major, base q."""
    return int(geometry.code_powers(len(m) ** 2, F.q) @ np.ravel(m))


@pytest.mark.parametrize("p,a", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2),
                                 (3, 3)])
def test_group_closure_matches_reference(p, a):
    F = field_create(p, a)
    gens = omega_generators(standard_space(3, F)).gens
    ref = _reference_closure(F, gens)
    assert len(ref) == omega_order(3, F.q)
    # every element and nothing else, each key once, in order
    assert groups.group_closure(F, gens).tolist() == sorted(
        _closure_key(F, m) for m in ref)


@pytest.mark.parametrize("F", [GF9, GF27], ids=repr)
def test_row_tables_agree_with_vec_mat(F):
    rng = random.Random(F.q)
    gens = omega_generators(standard_space(3, F)).gens + (
        tuple(tuple(rng.randrange(F.q) for _ in range(3)) for _ in range(3)),)
    w = geometry.code_powers(3, F.q)
    vs = list(itertools.product(F.elements(), repeat=3))
    R = groups._row_tables(F, gens)
    assert R.shape == (len(gens), F.q ** 3)
    for g, table in zip(gens, R):
        assert table[np.array(vs) @ w].tolist() == [
            int(w @ linalg.vec_mat(F, v, g)) for v in vs]


def test_group_closure_cap(monkeypatch):
    gens = omega_generators(standard_space(3, GF27)).gens
    monkeypatch.setattr(groups, "CLOSURE_CAP", 100)
    with pytest.raises(RuntimeError, match="cap"):
        groups.group_closure(GF27, gens)


def test_group_closure_refuses_int64_overflow():
    F = field_create(2147483647, 1)  # q^(n^2) = p^9 keys pass 2^63
    with pytest.raises(ValueError, match=r"2\^63"):
        groups.group_closure(F, [linalg.identity(3)])


def test_omega3_check_rejects_a_proper_subgroup(monkeypatch):
    sp = standard_space(3, GF27)
    gens = omega_generators(sp).gens
    assert len(groups.group_closure(GF27, gens[:2])) == 12
    # with c = 1 in place of a primitive element, the set is its first two
    # generators twice over
    monkeypatch.setattr(GF27, "primitive", 1)
    monkeypatch.setattr(groups, "_OMEGA_CACHE", {})
    with pytest.raises(RuntimeError, match="got 12, want 9828"):
        omega_generators(sp)


def _draw0_pair(gens, rng=None):
    """The words of certified_words' draw t, picked as it picks them from
    rng = random.Random(t); t = 0 unless rng is given."""
    rng = rng or random.Random(0)
    words = []
    for _ in range(2):
        m = linalg.identity(len(gens[0]))
        for _ in range(8):
            m = linalg.mat_mul(GF3, m, gens[rng.randrange(len(gens))])
        words.append(m)
    return tuple(words)


def test_certificate_rejects_the_proper_subgroup_of_draw0():
    from rank3.constructions import _omega7_pair, orbit_partition
    nat, pair = _omega7_pair()
    draw0 = _draw0_pair(omega_generators(nat).gens)
    # the words generate a proper subgroup: it splits the 378 plus points
    G0 = MatrixGroup(GF3, 7, draw0, gram=nat.gram)
    assert sorted(r.size for r in orbit_partition(nat, G0, "+")) == [27, 351]
    order = omega_order(7, 3)
    perms = groups.point_perms(draw0, geometry.singular_codes(nat))
    assert groups.schreier_sims_order(perms, order, random.Random(0)) < order
    # so the wedge and symmetric squares use a later draw
    assert pair != draw0 and len(pair) == 2
    assert len(orbit_partition(nat, MatrixGroup(GF3, 7, pair, gram=nat.gram),
                               "+")) == 1


class _CountingRandom(random.Random):
    """random.Random on its own stream that counts its random() calls, one
    per sift of schreier_sims_order."""
    calls = 0

    def random(self):
        self.calls += 1
        return super().random()

    def getrandbits(self, k):  # keeps randrange on Random's own stream
        return super().getrandbits(k)


def test_certificate_stops_early_once_the_chain_stops_growing():
    from rank3.constructions import _omega7_pair
    nat, pair = _omega7_pair()
    gens = omega_generators(nat).gens
    codes, order = geometry.singular_codes(nat), omega_order(7, 3)
    # draw 0 as certified_words runs it: the words, then the certificate,
    # on one rng; its chain stops growing well before the last sift
    rng = _CountingRandom(0)
    perms = groups.point_perms(_draw0_pair(gens, rng), codes)
    assert rng.calls == 0
    assert groups.schreier_sims_order(perms, order, rng) < order
    assert rng.calls < groups._CERT_SIFTS
    # draw 1 still certifies, and is still the pair certified_words picks
    rng = _CountingRandom(1)
    perms = groups.point_perms(_draw0_pair(gens, rng), codes)
    assert groups.schreier_sims_order(perms, order, rng) >= order
    assert rng.calls < groups._CERT_SIFTS
    assert pair == _draw0_pair(gens, random.Random(1))


def test_certificate_rejects_the_frame_stabilizer():
    sp, G = _wreath7()
    codes = geometry.singular_codes(sp)
    order = omega_order(7, 3)
    perms = groups.point_perms(G.gens, codes)
    assert groups.schreier_sims_order(perms, order, random.Random(0)) < order
    with pytest.raises(RuntimeError, match="no certified pair"):
        groups.certified_words(G.gens, codes, order)


def test_point_perms_refuses_a_matrix_that_moves_the_points_off_the_set():
    sp = standard_space(5, GF3)
    shear = tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(5))
                  for i in range(5))
    with pytest.raises(ValueError, match="point set"):
        groups.point_perms([shear], geometry.singular_codes(sp))


def _dense_point_perms(gens, codes):
    """The map point_perms replaced: decode every point, multiply by the
    dense matrices and take the smaller code of the image and its
    negative."""
    n = len(gens[0])
    w = geometry.code_powers(n)
    images = decode_codes(codes, n) @ (np.array(gens) % 3) % 3
    canon = np.minimum(images @ w, (-images % 3) @ w)
    perms = np.searchsorted(codes, canon)
    assert (codes.take(perms, mode="clip") == canon).all()
    return perms


def _omega_points(n):
    sp = standard_space(n, GF3)
    return omega_generators(sp).gens, geometry.singular_codes(sp)


def _omega7_words_points():
    # the certified pair, as certified_words draws them: numpy matrices
    from rank3.constructions import _omega7_pair
    nat, pair = _omega7_pair()
    words = [np.array(m) for m in _draw0_pair(omega_generators(nat).gens)]
    return list(pair) + words, geometry.singular_codes(nat)


def _sp6_points():
    # the certified words on the 364 points of PG(5,3)
    from rank3.constructions import _sp6_data
    return _sp6_data()[1], np.concatenate([3 ** t + np.arange(3 ** t)
                                           for t in range(6)])


def _frame7_points():
    sp, G = _wreath7()
    return G.gens, geometry.singular_codes(sp)


@pytest.mark.parametrize("make", [
    functools.partial(_omega_points, 5), functools.partial(_omega_points, 7),
    _omega7_words_points, _sp6_points, _frame7_points],
    ids=["omega5", "omega7", "omega7-words", "sp6", "frame7"])
def test_point_perms_match_the_dense_map(make):
    gens, codes = make()
    perms = groups.point_perms(gens, codes)
    assert perms.shape == (len(gens), len(codes))
    assert perms.dtype == np.min_scalar_type(len(codes))
    assert perms.tolist() == _dense_point_perms(gens, codes).tolist()


def test_omega_certificate_rejects_a_proper_subgroup(monkeypatch):
    # the Eichler set over all but the last vector of <e, f>-perp fixes that
    # vector, so it generates a proper subgroup of Omega_7(3)
    perp_basis = QuadraticSpace.perp_basis
    monkeypatch.setattr(QuadraticSpace, "perp_basis",
                        lambda self, vs: perp_basis(self, vs)[:-1])
    monkeypatch.setattr(groups, "_OMEGA_CACHE", {})
    with pytest.raises(RuntimeError, match=r"Omega_7\(3\) certificate"):
        omega_generators(standard_space(7, GF3))


def test_omega_transitive_on_types():
    sp = standard_space(5, GF3)
    G = omega_generators(sp)
    for gamma, expected in ((1, 36), (2, 45)):
        v = find_vector_with_q(sp, gamma)
        assert len(orbit(G, v, space=sp)) == expected


def test_orbit_codes_roundtrip():
    sp = standard_space(5, GF3)
    G = omega_generators(sp)
    v = find_vector_with_q(sp, 2)
    size, d, codes = orbit_codes(sp, G, v)
    assert size == 45 == len(set(codes.tolist())) == len(codes)
    V = decode_codes(codes, 5)
    assert sorted(tuple(int(x) for x in row) for row in V) == orbit(G, v, space=sp)


def test_orbit_codes_refuses_other_fields():
    # the packed-code scan works mod 3; on Omega_3(9) it would silently
    # return an orbit of size 1
    sp = standard_space(3, GF9)
    G = omega_generators(sp)
    assert cd_parameters(sp, G, (3, 0, 0)).size == 45
    with pytest.raises(ValueError, match=r"GF\(3\^2\)"):
        orbit_codes(sp, G, (3, 0, 0))


def test_cd_parameters_full_group():
    # for the full Omega-orbit: c = k and d = l? No: M = Omega is transitive,
    # so xM covers all of E_xi; c = |Gamma(x)| = l, d = |Delta(x)| = k.
    from rank3.higman import odd_orthogonal_params
    sp = standard_space(5, GF3)
    G = omega_generators(sp)
    for gamma, xi in ((2, "+"), (1, "-")):
        v = find_vector_with_q(sp, gamma)
        rep = cd_parameters(sp, G, v)
        p = odd_orthogonal_params(2, xi)
        assert rep.size == p.total
        assert rep.d == p.k and rep.c == p.l


def _small_support_reference(F, n):
    """The three hand-written loops that _small_support_vectors replaced."""
    units = list(F.nonzero())
    for i in range(n):
        for a in units:
            v = [0] * n
            v[i] = a
            yield tuple(v)
    for i, j in itertools.combinations(range(n), 2):
        for a in units:
            for b in units:
                v = [0] * n
                v[i], v[j] = a, b
                yield tuple(v)
    for i, j, k in itertools.combinations(range(n), 3):
        for a in units:
            for b in units:
                for c in units:
                    v = [0] * n
                    v[i], v[j], v[k] = a, b, c
                    yield tuple(v)


@pytest.mark.parametrize("F", [GF3, GF9], ids=repr)
def test_small_support_vectors_keep_their_order(F):
    # the order fixes the parabolic base points and the ingest start points
    for n in range(3, 8):
        assert (list(groups._small_support_vectors(F, n))
                == list(_small_support_reference(F, n)))


def _find_vector_reference(space, gamma):
    """The search find_vector_with_q replaced: Q of one vector at a time, in
    _small_support_vectors order, then over GF(q)^n up to 3^12 vectors."""
    F = space.field
    for v in groups._small_support_vectors(F, space.n):
        if space.q_value(v) == gamma:
            return v
    if F.q ** space.n <= 3 ** 12:
        for v in itertools.product(F.elements(), repeat=space.n):
            if any(v) and space.q_value(v) == gamma:
                return tuple(v)
    return None


def _random_gram(F, n, rng):
    """A seeded non-degenerate symmetric n x n matrix over F."""
    while True:
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                A[i][j] = A[j][i] = rng.randrange(F.q)
        if linalg.det(F, A) != 0:
            return A


@pytest.mark.parametrize("F", [GF3, field_create(5, 1), field_create(7, 1),
                               GF9, GF27], ids=repr)
def test_find_vector_with_q_matches_the_search_it_replaced(F):
    # the first vector fixes the hyperbolic pair, so the Omega generators
    # and the construct digests
    rng = random.Random(F.q)
    for n in range(1, {3: 13, 5: 6, 7: 5, 9: 5, 27: 4}[F.q] + 1):
        for sp in (standard_space(n, F), standard_space(n, F, NONSQUARE),
                   QuadraticSpace(F, _random_gram(F, n, rng))):
            for gamma in F.elements():
                want = _find_vector_reference(sp, gamma)
                # support <= 3 reaches every gamma at n >= 3
                assert want is not None or n < 3
                if want is None:
                    with pytest.raises(ValueError, match="no vector"):
                        find_vector_with_q(sp, gamma)
                else:
                    assert find_vector_with_q(sp, gamma) == want


@pytest.mark.parametrize("v", [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1),
                               (1,), (0,) * 5, (3, 0, 0, 0, 0),
                               (-1, 0, 0, 0, 0)])
def test_malformed_starts_are_refused_over_gf3(v):
    # once a 5-point orbit, an IndexError and a one-point orbit of zero
    sp, G = _wreath(5)
    for scan in (lambda: orbit(G, v), lambda: cd_parameters(sp, G, v),
                 lambda: orbit_codes(sp, G, v)):
        with pytest.raises(ValueError):
            scan()
    with pytest.raises(ValueError, match="needs 5 entries|0, 1 or 2|zero"):
        groups.point_codes(G, [v])


@pytest.mark.parametrize("v", [(1,), (1, 0, 0, 0), (10, 0, 0), (9, 0, 0),
                               (0, 0, 0)])
def test_malformed_starts_are_refused_over_gf9(v):
    # once a 46-point orbit, or an IndexError
    sp = standard_space(3, GF9)
    G = omega_generators(sp)
    for scan in (lambda: orbit(G, v, space=sp),
                 lambda: cd_parameters(sp, G, v)):
        with pytest.raises(ValueError):
            scan()


def test_point_codes_match_the_canonical_points():
    sp, G = _wreath(7)
    V = np.array(list(groups._small_support_vectors(GF3, 7)))
    assert groups.point_codes(G, V).tolist() == [
        int(geometry.code_powers(7) @ geometry.canonical_point(GF3, v))
        for v in V.tolist()]


def test_cd_rejects_singular_base():
    sp = standard_space(5, GF3)
    G = omega_generators(sp)
    with pytest.raises(ValueError):
        cd_parameters(sp, G, (1, 1, 1, 0, 0))


def test_orbit_cap(monkeypatch):
    sp = standard_space(5, GF3)
    G = omega_generators(sp)
    v = find_vector_with_q(sp, 2)
    monkeypatch.setattr(groups, "ORBIT_CAP", 10)
    with pytest.raises(groups.OrbitCapExceeded):
        cd_parameters(sp, G, v)


def test_orbit_tuples_cap(monkeypatch):
    sp = standard_space(5, GF3)
    G = omega_generators(sp)
    v = find_vector_with_q(sp, 2)
    monkeypatch.setattr(groups, "ORBIT_TUPLES_CAP", 45)
    assert len(orbit(G, v, space=sp)) == 45
    # one point over the cap raises before any code is decoded
    monkeypatch.setattr(groups, "ORBIT_TUPLES_CAP", 44)

    def no_decode(*args):
        raise AssertionError("codes decoded")

    monkeypatch.setattr(geometry, "decode_codes", no_decode)
    with pytest.raises(groups.OrbitCapExceeded, match="as tuples"):
        orbit(G, v, space=sp)


def _sorted_codes(codes, n):
    """The codes of a scan or a CodeSet as a sorted list: a sorted set's in
    their own order, which they keep; a byte map's, which have none, by
    sorted(), once they are checked distinct."""
    codes = codes.tolist()
    if n <= groups._DENSE_MAX_DIM:
        assert len(set(codes)) == len(codes)
        return sorted(codes)
    return codes


def _perm_group(n, perms, signs=()):
    """Permutation matrices, plus diagonal sign changes, on GF(3)^n with the
    identity form."""
    gens = []
    for perm in perms:
        gens.append(tuple(tuple(1 if perm[i] == j else 0 for j in range(n))
                          for i in range(n)))
    for flips in signs:
        gens.append(tuple(tuple((2 if i in flips else 1) if i == j else 0
                                for j in range(n)) for i in range(n)))
    sp = standard_space(n, GF3)
    return sp, MatrixGroup(GF3, n, tuple(gens), gram=sp.gram)


def _wreath(n):
    from rank3.constructions import wreath_o1_subgroup
    case = wreath_o1_subgroup(n)
    return case.space, case.group


def _wreath7():
    return _wreath(7)


def _cycles21():
    # 21-cycle, a 3-cycle and a sign change: the orbit of (1, 1, 0, ...) is
    # every signed pair, 420 points, on the sorted-merge seen-set
    n = 21
    return _perm_group(n, [tuple(range(1, n)) + (0,),
                           (1, 2, 0) + tuple(range(3, n))], signs=[{0, 1}])


def _no_generators5():
    return _perm_group(5, [])


def _dense_invertible(n):
    rng = np.random.default_rng(n)
    while True:
        P = rng.integers(0, 3, (n, n))
        if linalg.det(GF3, P.tolist()) != 0:
            return P


def _dense_conjugate(n, extra=()):
    """P^-1 g P for the n-cycle, the permutations extra and a sign change
    g, by a dense invertible P, with the form P^-1 P^-T they preserve.
    Orbits stay small (2n and 4n points from _dense_starts, with no extra),
    but every image sums nonzero terms across all digit chunks and mask
    pieces."""
    P = _dense_invertible(n)
    Pinv = np.array(linalg.mat_inv(GF3, P.tolist()))
    _, perms = _perm_group(n, [tuple(range(1, n)) + (0,)] + list(extra),
                           signs=[{0}])
    gens = tuple(tuple(map(tuple, (Pinv @ np.array(g) @ P % 3).tolist()))
                 for g in perms.gens)
    gram = tuple(map(tuple, (Pinv @ Pinv.T % 3).tolist()))
    return QuadraticSpace(GF3, gram), MatrixGroup(GF3, n, gens)


def _dense_starts(n):
    """Images under P of two sparse points, so the starts are dense too."""
    P = _dense_invertible(n)
    us = [(1, 1) + (0,) * (n - 2), (1, 2, 0, 1) + (0,) * (n - 4)]
    return [tuple((np.array(u) @ P % 3).tolist()) for u in us]


@pytest.mark.parametrize("make,starts", [
    (_wreath7, [(1, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0),
                (1, 2, 1, 1, 0, 0, 0), (0, 1, 1, 1, 1, 2, 0)]),
    (_cycles21, [(1, 1) + (0,) * 19, (2, 1, 0, 1) + (0,) * 17]),
    (_no_generators5, [(2, 1, 0, 0, 0)]),
] + [pytest.param(functools.partial(_dense_conjugate, n), _dense_starts(n),
                   id="dense-%d" % n) for n in (13, 15, 16, 27, 39)])
def test_scan_matches_generic_oracle(make, starts):
    sp, G = make()
    for v in starts:
        size, codes = groups._scan(G, v)
        d = groups._count_d(G, v, sp.gram, codes)
        seen, d_ref = groups._orbit_generic(sp, G.gens, v)
        assert (size, d) == (len(seen), d_ref)
        assert _sorted_codes(codes, sp.n) == sorted(set(codes.tolist()))
        assert {tuple(int(x) for x in row)
                for row in decode_codes(codes, sp.n)} == seen


@pytest.mark.parametrize("n", [39, 40])
def test_packed_code_dim_limit(n):
    sp, G = _perm_group(n, [tuple(range(1, n)) + (0,)])
    v = (1, 1) + (0,) * (n - 2)
    if n <= groups.MAX_CODE_DIM:
        pts = orbit(G, v, space=sp)
        assert len(pts) == n and v in pts
    else:
        with pytest.raises(ValueError, match="dim <= 39"):
            orbit(G, v, space=sp)
        with pytest.raises(ValueError, match="dim <= 39"):
            cd_parameters(sp, G, v)


@pytest.mark.parametrize("n,sizes", [(13, [7, 6]), (16, [6, 5, 5]),
                                     (21, [7, 7, 7]), (27, [7, 7, 7, 6]),
                                     (39, [7, 7, 7, 6, 6, 6])])
def test_image_tables_match_vector_products(n, sizes):
    chunks = groups._digit_chunks(n)
    assert [b - a for a, b in chunks] == sizes
    assert chunks[0][0] == 0 and chunks[-1][1] == n
    rng = np.random.default_rng(n)
    G = rng.integers(0, 3, (3, n, n))
    gx = rng.integers(0, 3, n)
    bits = 1 << np.arange(n)
    tables = groups._image_tables(G, chunks)
    f_tables = groups._f_tables(gx, chunks)
    # the last chunk is the shortest, tripled past its size when shorter
    # than the first; test both on every digit pattern
    for c in {0, len(chunks) - 1}:
        a, b = chunks[c]
        T1, T2 = tables[c]
        V = np.zeros((3 ** (b - a), n), dtype=np.int64)
        V[:, a:b] = decode_codes(np.arange(3 ** (b - a)), b - a)
        assert (f_tables[c] == V @ gx % 3).all()
        images = np.einsum("pi,kij->pkj", V, G) % 3
        assert (T1 == (images == 1) @ bits).all()
        assert (T2 == (images == 2) @ bits).all()
        # and the digits of a code index them
        codes = V @ geometry.code_powers(n)
        assert (groups._chunk_digits(codes, chunks)[c]
                == np.arange(3 ** (b - a))).all()


def _members(s, queries):
    """A bool mask of which queries are in the CodeSet s, read off codes()
    of a copy, so that s keeps its buffer and the spare room in it."""
    return np.isin(queries, copy.deepcopy(s).codes())


def _check_code_set(s, ref, queries):
    for q in queries:
        assert _members(s, q).tolist() == [c in ref for c in q.tolist()]


def _join(s, codes):
    """Join distinct codes to a CodeSet as a level of one chunk, the images
    of one generator."""
    return s.join([s.admit(np.asarray(codes, dtype=np.int64)[:, None])])


@pytest.mark.parametrize("n", [7, 13, 14, 21])
def test_code_set_matches_python_sets(n):
    # a byte map at dims 7 and 13, sorted codes at dims 14 and 21
    assert groups._DENSE_MAX_DIM == 13
    rng = np.random.default_rng(20)
    last = 2 * 3 ** (n - 1) - 1  # the code of (1, 2, ..., 2)
    # repeats and no order
    small = np.concatenate([rng.integers(0, 200, 60),
                            [9, 8, 15, 9, 8, 199, 0, 15]])
    rng.shuffle(small)
    wide = rng.integers(0, last + 1, 300)
    ends = np.array([last, 0, last])  # the first and last point codes
    queries = [small, wide, ends, rng.integers(0, last + 1, 500),
               np.empty(0, dtype=np.int64)]
    _check_code_set(groups.CodeSet(n, np.empty(0, dtype=np.int64)), set(),
                    queries)
    ref = {24, 31}  # codes added before stay in the set
    s = groups.CodeSet(n, np.array(sorted(ref)))
    for batch in (small, wide, ends):
        new = sorted(set(batch.tolist()) - ref)
        # a byte map's column is distinct, as a generator's images are
        assert sorted(_join(s, np.unique(batch)).tolist()) == new
        ref |= set(new)
        assert _sorted_codes(s.codes(), n) == sorted(ref)
        _check_code_set(s, ref, queries)


def test_image_tables_are_built_once_per_group(monkeypatch):
    from rank3.constructions import orbit_partition
    sp, G = _wreath7()
    calls = []
    build = groups._image_tables

    def counted(*args):
        calls.append(len(args[0]))
        return build(*args)

    monkeypatch.setattr(groups, "_image_tables", counted)
    parts = orbit_partition(sp, G, "+")
    assert len(parts) > 1 and calls == [3]
    # a new group with the same generators builds its own tables, once
    H = MatrixGroup(GF3, 7, G.gens, gram=sp.gram)
    reports = [cd_parameters(sp, H, v) for v in
               [(1, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0)]]
    assert [(r.c, r.d) for r in reports] == [(0, 6), (20, 21)]
    assert calls == [3, 3]


def test_cd_parameters_and_orbit_on_a_group_with_no_generators():
    sp, G = _no_generators5()
    v = (2, 1, 0, 0, 0)
    rep = cd_parameters(sp, G, v)
    assert (rep.size, rep.c, rep.d) == (1, 0, 0)
    assert orbit(G, v, space=sp) == [(1, 2, 0, 0, 0)]


def test_orbit_and_the_omega_self_check_count_no_d(monkeypatch):
    # only the (c, d) reports read f(w, start); a form-free orbit and the
    # Omega orbit-size check never build the f tables
    def no_f_tables(*args):
        raise AssertionError("_f_tables built")

    monkeypatch.setattr(groups, "_f_tables", no_f_tables)
    sp, G = _wreath7()
    H = MatrixGroup(GF3, 7, G.gens)  # no form, and no space given
    assert len(orbit(H, (1, 1, 0, 0, 0, 0, 0))) == 42
    monkeypatch.setattr(groups, "_OMEGA_CACHE", {})
    assert len(omega_generators(standard_space(9, GF3)).gens) == 14
    with pytest.raises(AssertionError, match="_f_tables built"):
        cd_parameters(sp, G, (1, 1, 0, 0, 0, 0, 0))


def test_scan_tables_leave_group_equality_and_hash_alone():
    sp, G = _wreath7()
    H = MatrixGroup(G.field, G.dim, G.gens, G.label, G.gram)
    before = hash(G)
    cd_parameters(sp, G, (1, 1, 0, 0, 0, 0, 0))
    assert "_gf3_tables" in vars(G) and "_gf3_tables" not in vars(H)
    assert G == H and hash(G) == hash(H) == before


def _admit_chunk_at_once(self, images):
    """CodeSet.admit for byte maps, but every column is looked up before any
    is marked, so a point two generators reach joins the level twice."""
    new = images.ravel().compress(~self._map[images].ravel())
    self._map[new] = True
    return new


def test_scan_asserts_its_codes_are_strictly_increasing(monkeypatch):
    # sorted layout: a _distinct that keeps duplicates lets one point into
    # a level twice
    sp, G = _cycles21()
    with monkeypatch.context() as m:
        m.setattr(groups, "_distinct", np.sort)
        with pytest.raises(AssertionError, match="strictly increasing"):
            groups._scan(G, (1, 1) + (0,) * 19)
    # byte map: so does an admission that marks a chunk's columns at once,
    # and the map then marks fewer codes than its levels list
    sp, G = _wreath7()
    monkeypatch.setattr(groups.CodeSet, "admit", _admit_chunk_at_once)
    with pytest.raises(AssertionError, match="levels list a code twice"):
        groups._scan(G, (1, 1, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("n,starts", [
    (7, [(1, 1, 0, 0, 0, 0, 0), (1, 2, 1, 1, 0, 0, 0),
         (0, 1, 1, 1, 1, 2, 0)]),
    (13, [(1, 1) + (0,) * 11, (0, 1, 2, 0, 1, 1) + (0,) * 7])])
def test_dense_scan_matches_generic_oracle_over_many_chunks(n, starts,
                                                           monkeypatch):
    # three generators, so a level's points are reached by more than one;
    # a few frontier rows per chunk, so levels and d span several chunks
    sp, G = _wreath(n)
    assert len(G.gens) == 3 and n <= groups._DENSE_MAX_DIM
    monkeypatch.setattr(groups, "_CHUNK_ENTRIES", 3 * n * 8)
    rows = max(1, groups._CHUNK_ENTRIES // (3 * n))
    for v in starts:
        size, codes = groups._scan(G, v)
        d = groups._count_d(G, v, sp.gram, codes)
        seen, d_ref = groups._orbit_generic(sp, G.gens, v)
        assert size > 4 * rows
        assert (size, d) == (len(seen), d_ref)
        assert _sorted_codes(codes, n) == sorted(
            int(geometry.code_powers(n) @ np.array(w)) for w in seen)


@pytest.mark.parametrize("n", [7, 13, 21])
def test_scan_of_a_singular_start_leaves_the_start_out_of_d(n, monkeypatch):
    # f(start, start) = 0 for a singular start, which the d count over the
    # whole orbit has to take back out
    sp, G = _cycles21() if n == 21 else _wreath(n)
    monkeypatch.setattr(groups, "_CHUNK_ENTRIES", len(G.gens) * n * 8)
    v = (1, 1, 1) + (0,) * (n - 3)
    assert sp.q_value(v) == 0
    size, codes = groups._scan(G, v)
    d = groups._count_d(G, v, sp.gram, codes)
    seen, d_ref = groups._orbit_generic(sp, G.gens, v)
    assert (size, d) == (len(seen), d_ref) and d > 0
    assert _sorted_codes(codes, n) == sorted(
        int(geometry.code_powers(n) @ np.array(w)) for w in seen)


@pytest.mark.parametrize("n", [7, 14])
def test_code_set_admits_each_new_code_once(n):
    rng = np.random.default_rng(n)
    last = 2 * 3 ** (n - 1) - 1
    s = groups.CodeSet(n, np.array([5, 40]))
    # each column distinct, as a generator's images of distinct points
    # are; the columns overlap each other and the set
    cols = [rng.permutation(60)[:30] for _ in range(3)] + [
        np.concatenate([[last, 0], np.arange(2, 30)])]
    images = np.stack(cols, axis=1)
    part = s.admit(images)
    want = sorted(set(images.ravel().tolist()) - {5, 40})
    if n <= groups._DENSE_MAX_DIM:
        # the byte map holds them now, so a second admit finds none new;
        # join records them as a level
        assert sorted(part.tolist()) == want and len(part) == len(want)
        assert not s.admit(images).size
    else:
        # sorted codes come back sorted, with their insertion points, for
        # join; the set is unchanged until then
        new, points = part
        assert new.tolist() == want and not _members(s, new).any()
        assert points.tolist() == np.searchsorted([5, 40], want).tolist()
    assert sorted(s.join([part]).tolist()) == want
    assert _members(s, images).all()
    assert _sorted_codes(s.codes(), n) == sorted(want + [5, 40])


@pytest.mark.parametrize("n,supports", [(14, [2, 3]), (21, [2, 3]),
                                        (27, [2])])
def test_sorted_scan_matches_generic_oracle_over_many_chunks_and_blocks(
        n, supports, monkeypatch):
    # the n-cycle, a 3-cycle and a sign change, conjugated dense: a point
    # is reached by more than one generator, and from more than one chunk
    # of a level; a few frontier rows per chunk and a few codes per merge
    # block, so levels span several chunks and merges several blocks
    sp, G = _dense_conjugate(n, extra=[(1, 2, 0) + tuple(range(3, n))])
    assert len(G.gens) == 3 and n > groups._DENSE_MAX_DIM
    monkeypatch.setattr(groups, "_CHUNK_ENTRIES", 3 * n * 8)
    monkeypatch.setattr(groups, "_MERGE_BLOCK", 16)
    joins, merges = [], []
    distinct, merge = groups._distinct, groups.CodeSet._merge

    def spied_distinct(codes, points=None):
        joins.append(points is not None)
        return distinct(codes, points)

    def spied_merge(self, new, points):
        # the codes a merge moves: those above the first new code
        if new.size:
            merges.append(int((self._buf[:self._size] > new[0]).sum()))
        return merge(self, new, points)

    monkeypatch.setattr(groups, "_distinct", spied_distinct)
    monkeypatch.setattr(groups.CodeSet, "_merge", spied_merge)
    P = _dense_invertible(n)
    for k in supports:
        v = tuple((np.array((1, 2, 1)[:k] + (0,) * (n - k)) @ P % 3).tolist())
        size, codes = groups._scan(G, v)
        d = groups._count_d(G, v, sp.gram, codes)
        seen, d_ref = groups._orbit_generic(sp, G.gens, v)
        assert size == len(seen) == 2 ** (k - 1) * math.comb(n, k)
        assert d == d_ref
        assert codes.tolist() == sorted(
            int(geometry.code_powers(n) @ np.array(w)) for w in seen)
    # levels of several chunks, joined, and merges that moved several
    # blocks of codes
    assert any(joins) and max(merges) > 4 * groups._MERGE_BLOCK


def _union_cases(last):
    """Batches of codes added one after another: before the first code and
    after the last (0 and the last code among them), a run of codes that
    share one insertion point, an empty level, one that outgrows the
    buffer, and a few that fit in its spare room."""
    rng = np.random.default_rng(last % 1000)
    return [np.array([0, 1, 50, 500, last]),
            np.array([101, 102, 103, 104, 105, 106, 107]),
            np.empty(0, dtype=np.int64),
            rng.integers(0, last + 1, 300),
            np.array([2, last - 1]),
            np.array([108, 99, 3]),
            rng.integers(0, last + 1, 40)]


@pytest.mark.parametrize("n", [14, 27])
@pytest.mark.parametrize("block", [3, 1 << 18])
@pytest.mark.parametrize("start", [[], [100, 200, 300, 400]])
@pytest.mark.parametrize("chunked", [False, True])
def test_code_set_merge_matches_union1d(n, block, start, chunked,
                                        monkeypatch):
    # a level of one chunk, whose admitted codes and points are merged as
    # they are, or of chunks that overlap, windows of four codes two apart,
    # which join sorts together; merges of one block and of many
    monkeypatch.setattr(groups, "_MERGE_BLOCK", block)
    last = 2 * 3 ** (n - 1) - 1
    ref = np.array(start, dtype=np.int64)
    s = groups.CodeSet(n, ref.copy())
    grew = []
    for batch in _union_cases(last):
        want = sorted(set(batch.tolist()) - set(ref.tolist()))
        cap = s._buf.size
        if chunked:
            parts = [s.admit(batch[lo:lo + 4, None])
                     for lo in range(0, batch.size + 1, 2)]
            assert s.join(parts).tolist() == want
        else:
            new, points = s.admit(batch[:, None])
            assert new.tolist() == want
            s._merge(new, points)
        if want:
            grew.append(s._buf.size > cap)
        ref = np.union1d(ref, batch)
        assert _members(s, ref).all()
        assert _members(s, np.array([last + 1 - 3, 4, 5])).tolist() == [
            c in ref for c in (last - 2, 4, 5)]
    # the buffer grew, and some levels fit in its spare room
    assert any(grew) and not all(grew)
    assert s.codes().tolist() == ref.tolist()


@pytest.mark.parametrize("n", [14, 21])
def test_code_set_never_writes_into_a_given_array(n):
    last = 2 * 3 ** (n - 1) - 1
    # a set made from a slice of a larger array, with room after it
    base = np.array([100, 200, 300, 400, 7, 7, 7, 7])
    s = groups.CodeSet(n, base[:4])
    for batch in _union_cases(last):
        s.join([s.admit(batch[:, None])])
    assert base.tolist() == [100, 200, 300, 400, 7, 7, 7, 7]
    # nor into the images handed to admit, nor the parts handed to join
    images = np.array([[250], [150], [250]])
    parts = [s.admit(images), s.admit(images[::-1])]
    kept = [(new.copy(), points.copy()) for new, points in parts]
    given = list(parts)
    assert s.join(parts).tolist() == [150, 250]
    assert images.tolist() == [[250], [150], [250]]
    for (new, points), (new0, points0) in zip(given, kept):
        assert (new == new0).all() and (points == points0).all()


@pytest.mark.parametrize("n", [14, 21])
def test_code_set_codes_are_not_overwritten_by_later_adds(n):
    last = 2 * 3 ** (n - 1) - 1
    s = groups.CodeSet(n, np.array([100, 200, 300, 400]))
    _join(s, [0, 150, last])
    codes = s.codes()
    want = codes.tolist()
    # a small join, which a buffer with spare room would take in place,
    # and one that outgrows any buffer so far
    _join(s, [160, 170])
    assert codes.tolist() == want
    _join(s, np.arange(1000, 3000))
    assert codes.tolist() == want
    assert s.codes().tolist() == sorted(
        want + [160, 170] + list(range(1000, 3000)))


@pytest.mark.parametrize("n", [7, 14])
def test_code_set_join_empties_its_parts(n):
    # so that a level's chunks are freed before a sorted set merges them
    s = groups.CodeSet(n, np.array([5, 40]))
    parts = [s.admit(np.array([[3, 1], [5, 2]])),
             s.admit(np.array([[4, 2], [40, 6]]))]
    new = s.join(parts)
    assert parts == [] and sorted(new.tolist()) == [1, 2, 3, 4, 6]
    assert _sorted_codes(s.codes(), n) == [1, 2, 3, 4, 5, 6, 40]
