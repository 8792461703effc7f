import pytest

from rank3 import constructions, groups
from rank3.constructions import (CASE_BUILDERS, build_case,
                                 deleted_module_closed_forms,
                                 deleted_permutation_module,
                                 field_extension_subgroup, orbit_partition,
                                 parabolic_subgroup, sym_gram, sym_matrix,
                                 trace_form_disc_class, wedge_gram,
                                 wedge_matrix, wreath_o1_subgroup,
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
    for functor in (wedge_matrix, sym_matrix):
        assert functor(GF3, ab) == linalg.mat_mul(
            GF3, functor(GF3, a), functor(GF3, b))


def test_functor_grams_invariant():
    sp = standard_space(4, GF3)
    G = groups.omega_generators(sp)
    for functor_m, functor_g in ((wedge_matrix, wedge_gram),
                                 (sym_matrix, sym_gram)):
        gram = functor_g(GF3, sp.gram)
        for g in G.gens:
            assert groups.preserves_form(GF3, functor_m(GF3, g), gram)


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
