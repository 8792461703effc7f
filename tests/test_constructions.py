import random

import numpy as np
import pytest

from rank3 import constructions, fields, geometry, groups
from rank3.constructions import (CASE_BUILDERS, build_case,
                                 deleted_module_closed_forms,
                                 deleted_permutation_module,
                                 field_extension_subgroup, orbit_partition,
                                 parabolic_subgroup, square_matrix,
                                 sym_gram, trace_form_disc_class,
                                 wreath_o1_subgroup,
                                 wreath_pinned_cd)
from rank3.fields import GF3
from rank3.geometry import standard_space
from rank3 import linalg


def sizes(case, xi):
    return sorted(r.size for r in orbit_partition(case.space, case.group, xi))


def test_registry_labels_build():
    fast = ["wreath-n5", "parabolic-n7-a1", "deleted-n10", "imprim-o3s3",
            "substab-n7-w3", "tensor-3x5"]
    for label in fast:
        case = build_case(label)
        assert case.label == label
        assert case.group.gram == case.space.gram
    with pytest.raises(ValueError):
        build_case("no-such-case")
    assert set(fast) <= set(CASE_BUILDERS)


def test_wreath_n5_orbits_and_cd():
    case = wreath_o1_subgroup(5)
    assert sizes(case, "+") == [5, 40]
    assert sizes(case, "-") == [16, 20]
    pinned = wreath_pinned_cd(5)
    for name, (v, _t) in zip(("x1", "x1+x2"), case.base_points):
        rep = groups.cd_parameters(case.space, case.group, v)
        assert (rep.c, rep.d) == pinned[name]


def test_wreath_eq1_truth_table():
    # equation (1) holds on every orbit exactly at (5,+,t), (5,-,s), (7,+,t)
    verdicts = {}
    for n in (5, 7):
        case = wreath_o1_subgroup(n)
        for xi in ("+", "-"):
            parts = orbit_partition(case.space, case.group, xi)
            for r in ("s", "t"):
                verdicts[(n, xi, r)] = all(p.eq1[r] for p in parts)
    holds = {key for key, ok in verdicts.items() if ok}
    assert holds == {(5, "+", "t"), (5, "-", "s"), (7, "+", "t")}


def test_parabolic_orbit_sizes():
    case = parabolic_subgroup(7, 1)
    assert sizes(case, "+") == [135, 243]
    assert sizes(case, "-") == [108, 243]
    assert sum(sizes(case, "+")) == 378


def test_parabolic_alpha_m_is_rejected():
    with pytest.raises(ValueError, match=r"1 <= alpha <= m - 1 = 2"):
        parabolic_subgroup(7, 3)
    assert "parabolic-n7-a3" not in CASE_BUILDERS


def test_parabolic_alpha2():
    case = parabolic_subgroup(7, 2)
    for xi in ("+", "-"):
        total = 378 if xi == "+" else 351
        assert sum(sizes(case, xi)) == total


def test_sp6_lambda2_orbit_partition():
    case = constructions.symplectic_lambda2_module()
    assert len(case.group.gens) == 2
    got = {xi: [(r.base_point, r.size, r.c, r.d)
                for r in orbit_partition(case.space, case.group, xi)]
           for xi in ("+", "-")}
    assert got == {
        "+": [((0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0), 110565, 73952, 36612),
              ((0, 0, 0, 1, 0, 0, 1, 1, 1, 2, 0, 0, 0), 155520, 103922, 51597)],
        "-": [((0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0), 265356, 176660, 88695)],
    }


def _alphabet_case(label, monkeypatch):
    """The case as built before its words were certified: from the whole
    alphabet of the words, 12 transvections or 10 Eichler images."""
    with monkeypatch.context() as m:
        m.setattr(groups, "certified_words", lambda gens, codes, order: gens)
        return build_case(label)


def test_sp6_lambda2_words_match_the_transvections(monkeypatch):
    old = _alphabet_case("sp6-lambda2", monkeypatch)
    new = build_case("sp6-lambda2")
    assert (len(old.group.gens), len(new.group.gens)) == (12, 2)
    assert old.space.gram == new.space.gram
    for xi in ("+", "-"):
        reports = [[dict(r.to_json(), seconds=0) for r in
                    orbit_partition(case.space, case.group, xi)]
                   for case in (old, new)]
        assert reports[0] == reports[1]


@pytest.mark.parametrize("label", ["wedge-n7", "sym-n7-d27"])
def test_omega7_words_match_the_eichler_set(label, monkeypatch):
    old = _alphabet_case(label, monkeypatch)
    new = build_case(label)
    assert (len(old.group.gens), len(new.group.gens)) == (10, 2)
    assert old.space.gram == new.space.gram
    assert old.base_points == new.base_points
    cds = [sorted((rep.c, rep.d) for rep in
                  (groups.cd_parameters(case.space, case.group, v)
                   for v, _t in case.base_points))
           for case in (old, new)]
    assert cds[0] == cds[1]


def test_field_extension():
    case = field_extension_subgroup()
    assert sizes(case, "+") == [1053, 1134, 1134]
    parts = orbit_partition(case.space, case.group, "+") + \
        orbit_partition(case.space, case.group, "-")
    assert all(p.eq2 for p in parts)  # c - 2d = xi*3^4 - 1 on every orbit
    assert trace_form_disc_class(case.space) == "square"


@pytest.mark.parametrize("n", [10, 15])
def test_deleted_module_closed_forms(n):
    case = deleted_permutation_module(n)
    for name, (v, _t) in zip(("v", "w"), case.base_points):
        size, c, d = deleted_module_closed_forms(n, name)
        rep = groups.cd_parameters(case.space, case.group, v)
        assert (rep.size, rep.c, rep.d) == (size, c, d)


def test_deleted_module_dimension():
    assert deleted_permutation_module(10).space.n == 9
    assert deleted_permutation_module(15).space.n == 13  # 3 | 15


def test_functor_matrices_are_homomorphisms():
    sp = standard_space(4, GF3)
    G = groups.omega_generators(sp)
    a, b = G.gens[0], G.gens[1]
    ab = linalg.mat_mul(GF3, a, b)
    for sign in (-1, 1):  # wedge and symmetric squares
        assert square_matrix(GF3, ab, sign) == linalg.mat_mul(
            GF3, square_matrix(GF3, a, sign), square_matrix(GF3, b, sign))


def test_functor_grams_invariant():
    sp = standard_space(4, GF3)
    G = groups.omega_generators(sp)
    # the Gram matrix of the wedge square is the wedge square of the Gram
    # matrix: both are the 2 x 2 minors
    for sign, gram in ((-1, square_matrix(GF3, sp.gram, -1)),
                       (1, sym_gram(GF3, sp.gram))):
        for g in G.gens:
            assert groups.preserves_form(GF3, square_matrix(GF3, g, sign),
                                         gram)


def _wedge_matrix(F, g):
    """The former wedge_matrix, a reference for square_matrix(F, g, -1)."""
    idx = constructions._pairs(len(g), True)
    return tuple(tuple(F.sub(F.mul(g[i][k], g[j][l]), F.mul(g[i][l], g[j][k]))
                       for (k, l) in idx) for (i, j) in idx)


def _sym_matrix(F, g):
    """The former sym_matrix, a reference for square_matrix(F, g, 1)."""
    idx = constructions._pairs(len(g), False)

    def entry(i, j, k, l):
        if i == j:
            return F.mul(g[i][k], g[i][l])
        if k == l:
            return F.mul(2, F.mul(g[i][k], g[j][k]))
        return F.add(F.mul(g[i][k], g[j][l]), F.mul(g[i][l], g[j][k]))

    return tuple(tuple(entry(i, j, k, l) for (k, l) in idx)
                 for (i, j) in idx)


@pytest.mark.parametrize("p,a", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_square_matrix_matches_the_former_functors(p, a):
    F = fields.field_create(p, a)
    rng = random.Random(p * 10 + a)
    for n in range(1, 7):
        for _ in range(5):
            g = tuple(tuple(rng.randrange(F.q) for _ in range(n))
                      for _ in range(n))
            assert square_matrix(F, g, -1) == _wedge_matrix(F, g)
            assert square_matrix(F, g, 1) == _sym_matrix(F, g)


def _sym_gram_entrywise(F, gram):
    """The symmetric-square Gram matrix, entry by entry (the former
    sym_gram), as a reference for square_matrix with doubled columns."""
    idx = constructions._pairs(len(gram), False)

    def entry(p, q):
        (i, j), (k, l) = p, q
        if i == j and k == l:
            return F.mul(gram[i][k], gram[i][k])
        if i == j:
            return F.mul(2, F.mul(gram[i][k], gram[i][l]))
        if k == l:
            return F.mul(2, F.mul(gram[i][k], gram[j][k]))
        return F.mul(2, F.add(F.mul(gram[i][k], gram[j][l]),
                              F.mul(gram[i][l], gram[j][k])))

    return tuple(tuple(entry(p, q) for q in idx) for p in idx)


def test_sym_gram_matches_the_entrywise_formula():
    cases = [(GF3, constructions._sp6_data()[0]),
             (GF3, constructions._parabolic_gram(3, 1)),
             (GF3, standard_space(4, GF3).gram)]
    rng = random.Random(0)
    for F in (GF3, fields.field_create(3, 2)):
        for n in range(1, 8):
            for _ in range(6):
                cases.append((F, tuple(tuple(rng.randrange(F.q)
                                             for _ in range(n))
                                       for _ in range(n))))
    for F, gram in cases:
        assert sym_gram(F, gram) == _sym_gram_entrywise(F, gram)


def test_bound_cases_violate_eq4():
    for builder in (constructions.tensor_product_subgroup,
                    constructions.c7_wreath_subgroup,
                    constructions.imprimitive_o3_wr_s3):
        case = builder()
        for v, _t in case.base_points:
            rep = groups.cd_parameters(case.space, case.group, v)
            assert rep.eq4 is False
            assert 2 * rep.size < 3 ** rep.m + 1


def test_imprimitive_orbit_data():
    case = constructions.imprimitive_o3_wr_s3()
    reps = [groups.cd_parameters(case.space, case.group, v)
            for v, _t in case.base_points]
    assert sorted((r.c, r.d) for r in reps) == [(0, 8), (4, 13)]
    assert sorted(r.size for r in reps) == [9, 18]


def test_subspace_stabilizer_cd():
    case = constructions.subspace_stabilizer_n7_w3()
    rep = groups.cd_parameters(case.space, case.group, case.base_points[0][0])
    assert (rep.c, rep.d) == (4, 1)


def test_base_points_are_nonsingular():
    for label in ("wreath-n5", "deleted-n10", "tensor-3x5", "c7wreath-d25"):
        case = build_case(label)
        for v, _t in case.base_points:
            assert case.space.q_value(v) != 0


@pytest.mark.parametrize("label", ["wreath-n7", "parabolic-n7-a1"])
def test_orbit_partition_one_scan_per_orbit(label, monkeypatch):
    from rank3.higman import odd_orthogonal_params
    calls = []
    scan = groups.orbit_codes

    def counted(*args, **kwargs):
        calls.append(args[2])
        return scan(*args, **kwargs)

    monkeypatch.setattr(groups, "orbit_codes", counted)
    case = build_case(label)
    for xi in ("+", "-"):
        calls.clear()
        parts = orbit_partition(case.space, case.group, xi)
        m = (case.space.n - 1) // 2
        assert sum(p.size for p in parts) == odd_orthogonal_params(m, xi).total
        assert all(p.size == 1 + p.c + p.d for p in parts)
        assert calls == [p.base_point for p in parts]


def test_orbit_partition_checks_the_closed_form_count(monkeypatch):
    scan = groups.orbit_codes

    def one_point_too_many(*args):
        size, d, codes = scan(*args)
        return size + 1, d, codes

    monkeypatch.setattr(groups, "orbit_codes", one_point_too_many)
    case = build_case("wreath-n7")
    with pytest.raises(AssertionError,
                       match=r"type \+ add up to \d+, not \|E_\+\| = 378"):
        orbit_partition(case.space, case.group, "+")


def test_orbit_partition_refuses_other_fields():
    # the unvisited points are a mask over the GF(3) point codes
    sp = standard_space(5, fields.field_create(5, 1))
    with pytest.raises(ValueError, match=r"GF\(3\) only, got GF\(5\)"):
        orbit_partition(sp, groups.omega_generators(sp), "+")


@pytest.mark.parametrize("fault", ["foreign code", "first orbit again"])
def test_orbit_partition_refuses_an_orbit_off_the_unvisited_points(
        fault, monkeypatch):
    case = build_case("wreath-n7")
    scan = groups.orbit_codes
    foreign = geometry.nonsingular_codes(case.space, "-")[:1]
    first = []

    def faulty(*args):
        size, d, codes = scan(*args)
        if fault == "foreign code":
            return size + 1, d, np.union1d(codes, foreign)
        first.append((size, d, codes))
        return first[0]

    monkeypatch.setattr(groups, "orbit_codes", faulty)
    with pytest.raises(AssertionError, match="leaves the unvisited points"):
        orbit_partition(case.space, case.group, "+")


def test_orbit_partition_stops_when_no_point_leaves_the_unvisited_set(
        monkeypatch):
    # with an orbit that omits its start, the start walk finds the same
    # start after every scan; the guard turns that endless loop into a
    # failure, and the cap on scans below turns a missing guard into a
    # fast failure too
    case = build_case("wreath-n7")
    powers = geometry.code_powers(case.space.n)
    scan, calls = groups.orbit_codes, []

    def capped(*args):
        calls.append(args[2])
        if len(calls) > 3:
            raise RuntimeError("orbit_partition makes no progress")
        size, d, codes = scan(*args)
        return size - 1, d, codes[codes != powers @ np.array(args[2])]

    monkeypatch.setattr(groups, "orbit_codes", capped)
    with pytest.raises(AssertionError, match="is still unvisited"):
        orbit_partition(case.space, case.group, "+")
    assert len(calls) == 1


def test_orbit_partition_of_a_group_with_no_generators_is_every_point():
    # one orbit per point, so the start walk visits every code of the type
    sp = standard_space(5, GF3)
    G = groups.MatrixGroup(GF3, 5, (), gram=sp.gram)
    powers = geometry.code_powers(5)
    for xi, total in (("+", 45), ("-", 36)):
        parts = orbit_partition(sp, G, xi)
        assert [p.size for p in parts] == [1] * total
        assert ([int(powers @ np.array(p.base_point)) for p in parts]
                == geometry.nonsingular_codes(sp, xi).tolist())
