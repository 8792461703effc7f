import pytest
from hypothesis import given, settings, strategies as st

from rank3 import groups, linalg
from rank3.fields import GF3, field_create
from rank3.geometry import QuadraticSpace, standard_space
from rank3.groups import (MatrixGroup, cd_parameters, decode_codes, eichler,
                          find_vector_with_q, omega_generators, omega_order,
                          orbit, orbit_codes, preserves_form, reflection,
                          reflection_decompose, spinor_norm)

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


def test_reflection_decompose_roundtrip():
    sp = standard_space(4, GF3)
    u = find_vector_with_q(sp, 1)
    w = find_vector_with_q(sp, 2)
    g = linalg.mat_mul(GF3, reflection(sp, u), reflection(sp, w))
    vecs = reflection_decompose(sp, g)
    prod = linalg.identity(4)
    for v in reversed(vecs):
        prod = linalg.mat_mul(GF3, prod, reflection(sp, v))
    assert tuple(tuple(r) for r in prod) == tuple(tuple(r) for r in g)


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
    assert size == 45 == len(codes)
    assert sorted(codes) == list(codes)
    V = decode_codes(codes, 5)
    assert sorted(tuple(int(x) for x in row) for row in V) == orbit(G, v, space=sp)


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


def test_cd_rejects_singular_base():
    sp = standard_space(5, GF3)
    G = omega_generators(sp)
    with pytest.raises(ValueError):
        cd_parameters(sp, G, (1, 1, 1, 0, 0))


def test_orbit_cap():
    sp = standard_space(5, GF3)
    G = omega_generators(sp)
    v = find_vector_with_q(sp, 2)
    with pytest.raises(groups.OrbitCapExceeded):
        cd_parameters(sp, G, v, cap=10)


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


def _wreath7():
    from rank3.constructions import wreath_o1_subgroup
    case = wreath_o1_subgroup(7)
    return case.space, case.group


def _cycles21():
    # 21-cycle, a 3-cycle and a sign change: the orbit of (1, 1, 0, ...) is
    # every signed pair, 420 points, on the sorted-merge seen-set
    n = 21
    return _perm_group(n, [tuple(range(1, n)) + (0,),
                           (1, 2, 0) + tuple(range(3, n))], signs=[{0, 1}])


def _no_generators5():
    return _perm_group(5, [])


@pytest.mark.parametrize("make,starts", [
    (_wreath7, [(1, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0),
                (1, 2, 1, 1, 0, 0, 0), (0, 1, 1, 1, 1, 2, 0)]),
    (_cycles21, [(1, 1) + (0,) * 19, (2, 1, 0, 1) + (0,) * 17]),
    (_no_generators5, [(2, 1, 0, 0, 0)]),
])
def test_scan_matches_generic_oracle(make, starts):
    sp, G = make()
    for v in starts:
        size, d, codes = groups._scan(G.gens, v, sp.gram, groups.ORBIT_CAP)
        seen, d_ref = groups._orbit_generic(sp, G.gens, v, groups.ORBIT_CAP)
        assert (size, d) == (len(seen), d_ref)
        assert list(codes) == sorted(set(codes))
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
