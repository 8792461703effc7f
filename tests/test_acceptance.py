"""Twelve end-to-end acceptance checks, one test per criterion.

Each test prints a single "CRITERION n: PASS" line on success and
enforces its runtime budget.  Criterion 12 is skipped when ./ingest is
absent.
"""

import os
import time

import pytest

from rank3 import constructions, geometry, groups, higman, meataxe, partitions
from rank3.fields import GF3, field_create
from rank3.geometry import standard_space


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, \
                "criterion %s took %.1fs (budget %ds)" % (
                    self.criterion, elapsed, self.seconds)
            print("CRITERION %s: PASS (%.1fs)" % (self.criterion, elapsed))


def orbit_sizes(case, xi):
    return sorted(r.size for r in constructions.orbit_partition(
        case.space, case.group, xi))


def test_criterion_1_counting_oracle():
    with Budget(1, 5):
        for q, a, dims in ((3, 1, range(1, 10)), (9, 2, range(1, 5))):
            F = field_create(3, a)
            for n in dims:
                sp = standard_space(n, F)
                counts = geometry.q_value_counts(sp)
                for gamma in F.elements():
                    res = geometry.count_norm_vectors(sp, gamma)
                    assert res.closed_form == counts[gamma]
                    assert res.mode == "both"


def test_criterion_2_parameter_oracle():
    with Budget(2, 30):
        for m in (2, 3):
            sp = standard_space(2 * m + 1, GF3)
            for xi in ("+", "-"):
                p = higman.odd_orthogonal_params(m, xi)
                measured = geometry.measured_rank3_parameters(sp, xi)
                assert measured == (p.total, p.k, p.l, p.lam, p.mu)
        p = higman.odd_orthogonal_params(3, "+")
        assert (p.total, p.k, p.l, p.lam, p.mu) == (378, 117, 260, 36, 36)


def test_criterion_3_srg_spectrum():
    with Budget(3, 60):
        for m in (2, 3):
            sp = standard_space(2 * m + 1, GF3)
            for xi in ("+", "-"):
                rep = higman.srg_verify(sp, xi)
                p = higman.odd_orthogonal_params(m, xi)
                assert rep.ok, rep.failure
                assert (rep.f_s, rep.f_t) == (p.f_s, p.f_t)
                assert 1 + rep.f_s + rep.f_t == p.total


def test_criterion_4_wreath():
    with Budget(4, 30):
        c5 = constructions.wreath_o1_subgroup(5)
        assert orbit_sizes(c5, "+") == [5, 40]
        assert orbit_sizes(c5, "-") == [16, 20]
        c7 = constructions.wreath_o1_subgroup(7)
        assert orbit_sizes(c7, "+") == [42, 336]
        eq1 = {}
        for n, case in ((5, c5), (7, c7)):
            pinned = constructions.wreath_pinned_cd(n)
            for name, (v, _t) in zip(("x1", "x1+x2"), case.base_points):
                rep = groups.cd_parameters(case.space, case.group, v)
                assert (rep.c, rep.d) == pinned[name]
            for xi in ("+", "-"):
                parts = constructions.orbit_partition(case.space, case.group, xi)
                for r in ("s", "t"):
                    eq1[(n, xi, r)] = all(p.eq1[r] for p in parts)
        assert {k for k, ok in eq1.items() if ok} == \
            {(5, "+", "t"), (7, "+", "t"), (5, "-", "s")}


def test_criterion_5_parabolic():
    with Budget(5, 60):
        case = constructions.parabolic_subgroup(7, 1)
        plus = orbit_sizes(case, "+")
        assert plus == [135, 243]
        assert sum(plus) == 378
        assert len(orbit_sizes(case, "-")) == 2


def test_criterion_6_field_extension():
    with Budget(6, 120):
        case = constructions.field_extension_subgroup()
        assert orbit_sizes(case, "+") == [1053, 1134, 1134]
        for xi in ("+", "-"):
            parts = constructions.orbit_partition(case.space, case.group, xi)
            assert len(parts) == 3
            assert all(p.eq2 for p in parts)  # c - 2d = xi*3^4 - 1


def test_criterion_7_deleted_modules():
    with Budget(7, 600):
        pinned_w = {10: (438, 191), 14: (1970, 1032),
                    15: (2618, 1476), 16: (3396, 2063)}
        for n in (10, 14, 15, 16):
            case = constructions.deleted_permutation_module(n)
            for name, (v, _t) in zip(("v", "w"), case.base_points):
                size, c, d = constructions.deleted_module_closed_forms(n, name)
                rep = groups.cd_parameters(case.space, case.group, v)
                assert (rep.size, rep.c, rep.d) == (size, c, d)
                if name == "w":
                    assert (rep.c, rep.d) == pinned_w[n]


def test_criterion_8_meataxe_pipeline():
    with Budget(8, 120):
        res = meataxe.s8_pipeline()
        assert 13 in res["factor_dims"]
        small = res["small"]
        pairs = {xi: set(small[xi]) for xi in ("+", "-")}
        published = {(230, 84), (212, 102)}
        assert published <= (pairs["+"] | pairs["-"])
        assert len(published & pairs["+"]) == 1
        assert len(published & pairs["-"]) == 1


def test_criterion_9_defining_characteristic():
    with Budget(9, 600):
        wedge = constructions.wedge_square_rep()
        got = sorted((groups.cd_parameters(wedge.space, wedge.group, v).c,
                      groups.cd_parameters(wedge.space, wedge.group, v).d)
                     for v, _t in wedge.base_points)
        assert got == [(13040, 9072), (26324, 17901)]
        lam2 = constructions.symplectic_lambda2_module()
        n_orbits = {xi: len(constructions.orbit_partition(
            lam2.space, lam2.group, xi)) for xi in ("+", "-")}
        assert n_orbits == {"+": 2, "-": 1}


def test_criterion_9_heavy_tier():
    with Budget("9-heavy", 3600):
        case = constructions.symplectic_sym2_module()
        heavy = case.base_points[-1][0]
        rep = groups.cd_parameters(case.space, case.group, heavy)
        assert (rep.c, rep.d) == (7075430, 3538809)


def test_criterion_10_mullineux():
    with Budget(10, 30):
        table = [((4, 2), (2, 2, 1, 1)), ((5, 2), (3, 2, 1, 1)),
                 ((5, 1, 1), (3, 2, 2)), ((7, 1), (4, 3, 1)),
                 ((6, 2), (3, 3, 1, 1)), ((6, 1, 1), (3, 3, 2)),
                 ((7, 1, 1), (4, 3, 2)), ((8, 1), (4, 4, 1))]
        for lam, mu in table:
            assert partitions.mullineux_map(lam) == mu
        for n in range(1, 21):
            for lam in partitions.p_regular_partitions(n):
                img = partitions.mullineux_map(lam)
                assert sum(img) == n
                assert partitions.mullineux_map(img) == lam
        hits = [n for n in range(5, 61)
                if partitions.is_mullineux_fixed((n - 2, 1, 1))]
        assert hits == [5, 6]


def test_criterion_11_bound_violations():
    with Budget(11, 300):
        for builder in (constructions.tensor_product_subgroup,
                        constructions.c7_wreath_subgroup,
                        constructions.imprimitive_o3_wr_s3):
            case = builder()
            for v, _t in case.base_points:
                rep = groups.cd_parameters(case.space, case.group, v)
                assert rep.eq4 is False
                assert 2 * rep.size < 3 ** rep.m + 1


@pytest.mark.skipif(not os.path.isdir("ingest"),
                    reason="no ./ingest directory with generator files")
def test_criterion_12_ingest_tier():
    from rank3 import expected
    with Budget(12, 3600):
        report = expected.run_reproduction_suite("ingest")
        ingest_cases = [c for c in report["cases"]
                        if c["case"].startswith("ingest-")]
        assert ingest_cases
        for c in ingest_cases:
            assert c.get("skipped") or c["match"], c
