"""Embedded expected-value tables and the one-shot reproduction suite.

Each case recomputes a published-style numeric fact from scratch and
compares it with the pinned expected value; the suite report is a JSON
document with one entry per case plus a pass/fail/skip summary.

Tiers: "core" (always), "heavy" (adds the 10.6M-point symplectic
orbit), "ingest" (adds user-supplied generator files from ./ingest).
"""

import os
import time
from dataclasses import dataclass

import numpy as np

from . import constructions, fields, genfile, geometry, groups, higman
from . import meataxe, partitions

GF3 = fields.GF3
INGEST_DIR = "ingest"
# an ingest case scans the orbits of at most this many start points
INGEST_MAX_STARTS = 60


class SkipCase(Exception):
    """Raised by a case that cannot run here; the message is the reason."""


@dataclass
class CaseResult:
    label: str
    citation: str
    expected: object
    computed: object
    match: bool
    seconds: float
    skipped: bool = False
    reason: str | None = None  # why the case was skipped
    error: dict | None = None  # {"type", "message"} when the case raised

    def to_json(self):
        d = {"case": self.label, "citation": self.citation,
             "expected": self.expected, "computed": self.computed,
             "match": self.match, "seconds": round(self.seconds, 3)}
        if self.skipped:
            d["skipped"] = True
            d["reason"] = self.reason
        if self.error is not None:
            d["error"] = self.error
        return d


# ---------------------------------------------------------------------------
# core cases

def _case_counting():
    expected, computed = {}, {}
    for q, a, dims in ((3, 1, range(1, 10)), (9, 2, range(1, 5))):
        F = fields.field_create(3, a)
        for n in dims:
            space = geometry.standard_space(n, F)
            counts = geometry.q_value_counts(space)
            for gamma in F.elements():
                key = "q%d n%d g%d" % (q, n, gamma)
                res = geometry.count_norm_vectors(space, gamma)
                expected[key] = res.closed_form
                computed[key] = counts.get(gamma, 0)
    return expected, computed


def _case_lemma_params():
    expected, computed = {}, {}
    for m in (2, 3):
        space = geometry.standard_space(2 * m + 1, GF3)
        for xi in ("+", "-"):
            p = higman.odd_orthogonal_params(m, xi)
            expected["m%d%s" % (m, xi)] = [p.total, p.k, p.l, p.lam, p.mu]
            computed["m%d%s" % (m, xi)] = list(
                geometry.measured_rank3_parameters(space, xi))
    return expected, computed


def _case_srg_spectrum():
    expected, computed = {}, {}
    for m in (2, 3):
        space = geometry.standard_space(2 * m + 1, GF3)
        for xi in ("+", "-"):
            p = higman.odd_orthogonal_params(m, xi)
            rep = higman.srg_verify(space, xi)
            key = "m%d%s" % (m, xi)
            expected[key] = {"ok": True, "f_s": p.f_s, "f_t": p.f_t,
                             "sum": p.total}
            computed[key] = {"ok": rep.ok or {"failure": rep.failure},
                             "f_s": rep.f_s, "f_t": rep.f_t,
                             "sum": 1 + rep.f_s + rep.f_t}
    return expected, computed


_WREATH_EQ1 = {5: {"+": ["t"], "-": ["s"]}, 7: {"+": ["t"], "-": []}}
_WREATH_ORBITS = {5: {"+": [5, 40], "-": [16, 20]},
                  7: {"+": [42, 336], "-": [7, 64, 280]}}


def _case_wreath(n):
    def run():
        case = constructions.wreath_o1_subgroup(n)
        exp_cd = constructions.wreath_pinned_cd(n)
        expected = {"orbits": _WREATH_ORBITS[n],
                    "cd": {k: list(v) for k, v in exp_cd.items()},
                    "eq1": _WREATH_EQ1[n]}
        computed = {"orbits": {}, "cd": {}, "eq1": {}}
        for xi in ("+", "-"):
            parts = constructions.orbit_partition(case.space, case.group, xi)
            computed["orbits"][xi] = sorted(p.size for p in parts)
            computed["eq1"][xi] = [r for r in ("s", "t")
                                   if all(p.eq1[r] for p in parts)]
        for name, (v, _t) in zip(("x1", "x1+x2"), case.base_points):
            rep = groups.cd_parameters(case.space, case.group, v)
            computed["cd"][name] = [rep.c, rep.d]
        return expected, computed
    return run


def _case_parabolic():
    case = constructions.parabolic_subgroup(7, 1)
    expected = {"+": [135, 243], "-": [108, 243]}
    computed = {xi: sorted(r.size for r in constructions.orbit_partition(
        case.space, case.group, xi)) for xi in ("+", "-")}
    return expected, computed


def _case_fieldext():
    case = constructions.field_extension_subgroup()
    expected = {"+": [1053, 1134, 1134], "-": [1053, 1053, 1134],
                "eq2": {"+": [True] * 3, "-": [True] * 3},
                "disc": "square"}
    computed = {"eq2": {}, "disc": constructions.trace_form_disc_class(case.space)}
    for xi in ("+", "-"):
        parts = constructions.orbit_partition(case.space, case.group, xi)
        parts.sort(key=lambda p: p.size)
        computed[xi] = [p.size for p in parts]
        computed["eq2"][xi] = [p.eq2 for p in parts]
    return expected, computed


def _case_deleted(n):
    def run():
        case = constructions.deleted_permutation_module(n)
        expected, computed = {}, {}
        for name, (v, _t) in zip(("v", "w"), case.base_points):
            expected[name] = list(constructions.deleted_module_closed_forms(n, name))
            rep = groups.cd_parameters(case.space, case.group, v)
            computed[name] = [rep.size, rep.c, rep.d]
        return expected, computed
    return run


def _case_meataxe_s8():
    res = meataxe.s8_pipeline()
    dims = res["factor_dims"]
    pairs = {xi: sorted(res["small"][xi]) for xi in ("+", "-")}
    has_230 = [xi for xi in ("+", "-") if (230, 84) in pairs[xi]]
    has_212 = [xi for xi in ("+", "-") if (212, 102) in pairs[xi]]
    one_each = len(has_230) == 1 and len(has_212) == 1 and has_230 != has_212
    expected = {"has_dim13": True, "pairs_found_one_per_type": True}
    # a failing value is its witness: the factor dims, or the (c, d) pairs
    # of the 315-point orbits found per type
    computed = {"has_dim13": 13 in dims or {"factor_dims": dims},
                "pairs_found_one_per_type": one_each or {
                    xi: [list(p) for p in pairs[xi]] for xi in pairs}}
    return expected, computed


def _sorted_cd(case):
    reps = (groups.cd_parameters(case.space, case.group, v)
            for v, _t in case.base_points)
    return sorted([rep.c, rep.d] for rep in reps)


def _case_wedge():
    case = constructions.wedge_square_rep()
    expected = sorted([[13040, 9072], [26324, 17901]])
    return expected, _sorted_cd(case)


def _case_sym27():
    case = constructions.sym_square_o7_rep()
    expected = sorted([[13850, 8262], [26324, 17901]])
    return expected, _sorted_cd(case)


def _case_sp6_lambda2():
    case = constructions.symplectic_lambda2_module()
    expected = {"+": 2, "-": 1}
    computed = {xi: len(constructions.orbit_partition(case.space, case.group, xi))
                for xi in ("+", "-")}
    return expected, computed


def _case_bounds_eq4():
    expected, computed = {}, {}
    for builder in (constructions.tensor_product_subgroup,
                    constructions.c7_wreath_subgroup,
                    constructions.imprimitive_o3_wr_s3):
        case = builder()
        expected[case.label] = [False] * len(case.base_points)
        computed[case.label] = [
            groups.cd_parameters(case.space, case.group, v).eq4
            for v, _t in case.base_points]
    return expected, computed


def _case_substab():
    case = constructions.subspace_stabilizer_n7_w3()
    rep = groups.cd_parameters(case.space, case.group, case.base_points[0][0])
    return {"cd": [4, 1]}, {"cd": [rep.c, rep.d]}


_TABLE5 = [((4, 2), (2, 2, 1, 1)), ((5, 2), (3, 2, 1, 1)),
           ((5, 1, 1), (3, 2, 2)), ((7, 1), (4, 3, 1)),
           ((6, 2), (3, 3, 1, 1)), ((6, 1, 1), (3, 3, 2)),
           ((7, 1, 1), (4, 3, 2)), ((8, 1), (4, 4, 1))]


def _case_mullineux():
    expected = {"table": [list(m) for _l, m in _TABLE5],
                "involution_n20": True, "hooks": [5, 6]}
    computed = {"table": [list(partitions.mullineux_map(l)) for l, _m in _TABLE5]}
    ok, images, symbols = True, {}, {}
    for n in range(1, 21):
        # M is an involution here, and each image obeys the rim-symbol rule;
        # a failure reads the first partition that breaks either
        img = {lam: partitions.mullineux_map(lam, images)
               for lam in partitions.p_regular_partitions(n)}
        sym = {lam: partitions.mullineux_symbol(lam, symbols) for lam in img}
        for lam, m in img.items():
            if ok is True and img.get(m) != lam:
                ok = {"partition": list(lam), "failed": "involution"}
            elif ok is True and sym.get(m) != partitions.image_symbol(sym[lam]):
                ok = {"partition": list(lam), "failed": "symbol rule"}
    computed["involution_n20"] = ok
    computed["hooks"] = [n for n in range(5, 61)
                         if partitions.is_mullineux_fixed((n - 2, 1, 1))]
    return expected, computed


# ---------------------------------------------------------------------------
# heavy and ingest cases

def _case_sp6_sym2_heavy():
    case = constructions.symplectic_sym2_module()
    expected = {"cd": [7075430, 3538809]}
    for v, _t in case.base_points:
        rep = groups.cd_parameters(case.space, case.group, v)
        if [rep.c, rep.d] == expected["cd"]:
            return expected, {"cd": [rep.c, rep.d]}
    return expected, {"cd": [rep.c, rep.d]}


def _ingest_case(filename, expected_cd):
    def run():
        path = os.path.join(INGEST_DIR, filename)
        if not os.path.exists(path):
            raise SkipCase("%s not found" % path)
        group = genfile.parse_generator_file(path)
        if group.field.q != 3:
            raise ValueError("ingest cases scan GF(3) only, got %r"
                             % group.field)
        if group.gram is None:
            kind, B = meataxe.invariant_bilinear_form(group)
            if kind != "symmetric":
                raise ValueError("no invariant symmetric form for %s" % filename)
            group = groups.MatrixGroup.unchecked(group.field, group.dim,
                                                 group.gens, filename, B)
        space = geometry.QuadraticSpace(group.field, group.gram)
        # non-singular small-support starts; todo: those in no scanned orbit
        V = np.array(list(groups._small_support_vectors(GF3, group.dim)))
        V = V[np.einsum("ij,jk,ik->i", V, np.array(group.gram), V) % 3 != 0]
        starts = groups.point_codes(group, V)
        todo, observed, i = np.ones(starts.size, dtype=bool), [], 0
        while len(observed) < INGEST_MAX_STARTS and todo[i:].any():
            i += int(todo[i:].argmax())
            v = tuple(V[i].tolist())
            t0 = time.perf_counter()
            size, d, codes = groups.orbit_codes(space, group, v)
            rep = groups.make_report(space, v, size, d,
                                     time.perf_counter() - t0)
            observed.append([rep.c, rep.d])
            if [rep.c, rep.d] == list(expected_cd):
                return {"cd": list(expected_cd)}, {"cd": [rep.c, rep.d]}
            codes.sort()
            todo[codes.take(np.searchsorted(codes, starts), mode="clip")
                 == starts] = False
        return {"cd": list(expected_cd)}, {"cd": "not found", "observed": observed}
    return run


CASES = [
    ("count-closed-forms", "core", "norm-count closed forms", _case_counting),
    ("point-action-params", "core", "non-singular point action parameters",
     _case_lemma_params),
    ("srg-spectrum", "core", "Delta-graph spectrum and multiplicities",
     _case_srg_spectrum),
    ("wreath-n5", "core", "frame stabilizer, n=5", _case_wreath(5)),
    ("wreath-n7", "core", "frame stabilizer, n=7", _case_wreath(7)),
    ("parabolic-n7-a1", "core", "singular-point stabilizer, n=7",
     _case_parabolic),
    ("fieldext-n9", "core", "scalar restriction from GF(27)", _case_fieldext),
    ("deleted-n10", "core", "deleted module, n=10", _case_deleted(10)),
    ("deleted-n14", "core", "deleted module, n=14", _case_deleted(14)),
    ("deleted-n15", "core", "deleted module, n=15", _case_deleted(15)),
    ("deleted-n16", "core", "deleted module, n=16", _case_deleted(16)),
    ("meataxe-s8-dim13", "core", "S8 tensor-square dim-13 factor",
     _case_meataxe_s8),
    ("wedge-n7", "core", "wedge square of the natural dim-7 module",
     _case_wedge),
    ("sym-n7-d27", "core", "symmetric-square section, dim 27", _case_sym27),
    ("sp6-lambda2", "core", "symplectic dim-13 section orbit counts",
     _case_sp6_lambda2),
    ("bounds-eq4", "core", "orbit-size bound violations", _case_bounds_eq4),
    ("substab-n7-w3", "core", "orthogonal-sum stabilizer (c,d)",
     _case_substab),
    ("mullineux-suite", "core", "rim-symbol involution suite",
     _case_mullineux),
    ("sp6-sym2-heavy", "heavy", "symplectic symmetric square, 10.6M orbit",
     _case_sp6_sym2_heavy),
    ("ingest-l213-dim13", "ingest", "ingested dim-13 generator file",
     _ingest_case("l213-dim13.gen", (734, 357))),
    ("ingest-mcl-dim21", "ingest", "ingested dim-21 generator file",
     _ingest_case("mcl-dim21.gen", (12194, 10080))),
]


def run_case(label, tier, citation, fn):
    """Run one case.  A case that raises SkipCase is skipped with its
    message as the reason; any other exception becomes a failed result
    carrying its type and message, so the rest of the suite still runs."""
    t0 = time.perf_counter()
    try:
        expected, computed = fn()
    except SkipCase as e:
        return CaseResult(label, citation, None, None, True,
                          time.perf_counter() - t0, skipped=True,
                          reason=str(e))
    except Exception as e:
        return CaseResult(label, citation, None, None, False,
                          time.perf_counter() - t0,
                          error={"type": type(e).__name__, "message": str(e)})
    return CaseResult(label, citation, expected, computed,
                      expected == computed, time.perf_counter() - t0)


def run_reproduction_suite(tier="core"):
    if tier not in ("core", "heavy", "ingest", "all"):
        raise ValueError("tier must be core, heavy, ingest, or all")
    selected = [c for c in CASES if c[1] == "core"
                or (tier in ("heavy", "all") and c[1] == "heavy")
                or (tier in ("ingest", "all") and c[1] == "ingest")]
    results = [run_case(*c) for c in selected]
    results.sort(key=lambda r: r.label)
    summary = {"passed": sum(1 for r in results if r.match and not r.skipped),
               "failed": sum(1 for r in results if not r.match),
               "skipped": sum(1 for r in results if r.skipped)}
    return {"cases": [r.to_json() for r in results], "summary": summary}
