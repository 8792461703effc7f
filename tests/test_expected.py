import copy
import json

import numpy as np
import pytest

from rank3 import expected


FAST_LABELS = {"wreath-n5", "substab-n7-w3", "mullineux-suite",
               "point-action-params"}


def skip_demo():
    raise expected.SkipCase("demo input not found")


@pytest.fixture
def fast_registry(monkeypatch):
    fast = [c for c in expected.CASES if c[0] in FAST_LABELS]
    fast.append(("skipped-demo", "ingest", "always skipped", skip_demo))
    monkeypatch.setattr(expected, "CASES", fast)
    return fast


def strip_seconds(report):
    r = copy.deepcopy(report)
    for c in r["cases"]:
        c.pop("seconds")
    return r


def test_report_schema_and_order(fast_registry):
    report = expected.run_reproduction_suite("core")
    labels = [c["case"] for c in report["cases"]]
    assert labels == sorted(labels)
    for c in report["cases"]:
        assert set(c) >= {"case", "citation", "expected", "computed",
                          "match", "seconds"}
        assert c["citation"]
    s = report["summary"]
    assert s == {"passed": len(FAST_LABELS), "failed": 0, "skipped": 0}
    json.dumps(report)  # JSON-serializable


def test_skip_semantics(fast_registry):
    report = expected.run_reproduction_suite("ingest")
    skipped = [c for c in report["cases"] if c.get("skipped")]
    assert [c["case"] for c in skipped] == ["skipped-demo"]
    assert skipped[0]["reason"] == "demo input not found"
    assert report["summary"]["skipped"] == 1
    assert report["summary"]["failed"] == 0


def test_missing_ingest_file_skips_with_reason(monkeypatch, tmp_path, capsys):
    from rank3 import cli

    monkeypatch.chdir(tmp_path)  # no ./ingest here
    ingest = [c for c in expected.CASES if c[1] == "ingest"]
    monkeypatch.setattr(expected, "CASES", ingest)
    report = expected.run_reproduction_suite("ingest")
    reasons = {c["case"]: c["reason"] for c in report["cases"]
               if c.get("skipped")}
    assert reasons == {"ingest-l213-dim13": "ingest/l213-dim13.gen not found",
                       "ingest-mcl-dim21": "ingest/mcl-dim21.gen not found"}
    assert cli.main(["reproduce", "ingest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith("ingest-l213-dim13") and "SKIPPED" in line)
    assert lines[i + 1] == "    ingest/l213-dim13.gen not found"


def test_deterministic_across_runs_and_threads(fast_registry):
    first = expected.run_reproduction_suite("core")
    second = expected.run_reproduction_suite("core")
    assert strip_seconds(first) == strip_seconds(second)
    assert json.dumps(strip_seconds(first), sort_keys=True) == \
        json.dumps(strip_seconds(second), sort_keys=True)


def test_bad_tier_rejected():
    with pytest.raises(ValueError):
        expected.run_reproduction_suite("nope")


def test_raising_case_is_reported_as_failed(fast_registry, monkeypatch, capsys):
    from rank3 import cli, groups

    def raises():
        raise groups.OrbitCapExceeded("orbit exceeds the cap of 10 points")

    monkeypatch.setattr(expected, "CASES", expected.CASES + [
        ("raising-demo", "core", "always raises", raises)])
    report = expected.run_reproduction_suite("core")
    case = next(c for c in report["cases"] if c["case"] == "raising-demo")
    assert case["match"] is False
    assert case["error"] == {"type": "OrbitCapExceeded",
                             "message": "orbit exceeds the cap of 10 points"}
    assert report["summary"] == {"passed": len(FAST_LABELS), "failed": 1,
                                 "skipped": 0}
    assert all("error" not in c for c in report["cases"] if c is not case)

    assert cli.main(["reproduce", "--json"]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["summary"]["failed"] == 1
    assert "Traceback" not in out.err


def export_to_ingest(tmp_path, monkeypatch, case, filename):
    from rank3 import genfile
    genfile.write_generator_file(str(tmp_path / filename), case.group,
                                 form=case.space.gram)
    monkeypatch.setattr(expected, "INGEST_DIR", str(tmp_path))


def signed_cycles(n):
    # the n-cycle and a 3-cycle on the coordinates, and the sign change of
    # a pair: at dim 21 the orbits of e_1 and e_1 + e_2 have 21 and 420
    # points
    from rank3 import constructions, fields, geometry, groups, linalg
    sp = geometry.standard_space(n, fields.GF3)
    flip = [list(r) for r in linalg.identity(n)]
    flip[0][0] = flip[1][1] = 2
    gens = (linalg.perm_matrix(tuple(range(1, n)) + (0,)),
            linalg.perm_matrix((1, 2, 0) + tuple(range(3, n))),
            tuple(map(tuple, flip)))
    group = groups.MatrixGroup(fields.GF3, n, gens, gram=sp.gram)
    return constructions.ConstructedCase("cycles-n%d" % n, sp, group, (),
                                         "signed coordinate permutations")


def cycles21():
    # dim 21 takes the sorted codes and the small-support starts
    return signed_cycles(21)


def wreath13():
    from rank3 import constructions
    return constructions.build_case("wreath-n13")


# the (c, d) of every wreath-n13 orbit on the non-singular points, in the
# order of their smallest codes: at dim 13 an ingest case walks them all
WREATH13_OBSERVED = [[0, 12], [44, 111], [3772, 1947], [13850, 6741],
                     [73346, 36477], [109700, 55035], [97780, 48651],
                     [53306, 26565], [2730, 1365]]


def test_wreath13_orbits_cover_the_nonsingular_points():
    # 1 + c + d is an orbit's size; dim 13 has 3^12 non-singular points
    assert sum(1 + c + d for c, d in WREATH13_OBSERVED) == 3 ** 12


@pytest.mark.parametrize("make,pin,computed", [
    pytest.param(wreath13, (44, 111), {"cd": [44, 111]}, id="pin0-computed0"),
    pytest.param(wreath13, (1, 1), {"cd": "not found",
                                    "observed": WREATH13_OBSERVED},
                 id="pin1-computed1"),
    pytest.param(cycles21, (1, 1), {"cd": "not found",
                                    "observed": [[0, 20], [76, 343]]},
                 id="dim21-not-found"),
])
def test_ingest_case_scans_each_orbit_once(tmp_path, monkeypatch, make, pin,
                                           computed):
    # every point at dim 13 and small-support starts at dim 21: each start
    # in an orbit already scanned is skipped
    export_to_ingest(tmp_path, monkeypatch, make(), "demo.gen")
    result = expected.run_case("ingest-demo", "ingest", "exported group",
                               expected._ingest_case("demo.gen", pin))
    assert result.expected == {"cd": list(pin)}
    assert result.computed == computed
    assert result.match == (computed == {"cd": list(pin)})
    assert result.error is None


def test_ingest_without_form_on_a_reducible_group_fails_undecided(
        tmp_path, monkeypatch):
    # S5 on its permutation module is reducible (trivial + dim 4), so the
    # form computed for a file without a form block cannot be decided
    from rank3 import fields, genfile, groups, linalg
    perms = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    group = groups.MatrixGroup(fields.GF3, 5, tuple(
        linalg.perm_matrix(p) for p in perms), label="s5-perm")
    genfile.write_generator_file(str(tmp_path / "s5.gen"), group)
    monkeypatch.setattr(expected, "INGEST_DIR", str(tmp_path))
    result = expected.run_case("ingest-demo", "ingest", "S5 permutations",
                               expected._ingest_case("s5.gen", (1, 1)))
    assert not result.match and not result.skipped
    assert result.error["type"] == "Undecided"


def test_ingest_case_names_a_field_other_than_gf3(tmp_path, monkeypatch):
    from rank3 import constructions, fields, geometry, groups
    sp = geometry.standard_space(3, fields.field_create(3, 2))
    case = constructions.ConstructedCase("o3-9", sp, groups.omega_generators(sp),
                                         (), "Omega_3(9)")
    export_to_ingest(tmp_path, monkeypatch, case, "o3-9.gen")
    result = expected.run_case("ingest-demo", "ingest", "GF(9) file",
                               expected._ingest_case("o3-9.gen", (1, 1)))
    assert result.match is False
    assert result.error["type"] == "ValueError"
    assert "GF(3^2)" in result.error["message"]


def test_ingest_refuses_another_field_before_it_looks_for_a_form(
        tmp_path, monkeypatch):
    # a GF(9) file with no form block: no form is computed for it
    from rank3 import fields, genfile, geometry, groups, meataxe
    sp = geometry.standard_space(3, fields.field_create(3, 2))
    om = groups.omega_generators(sp)
    genfile.write_generator_file(str(tmp_path / "o3-9.gen"),
                                 groups.MatrixGroup(om.field, 3, om.gens))
    monkeypatch.setattr(expected, "INGEST_DIR", str(tmp_path))

    def no_form(*args):
        raise AssertionError("invariant_bilinear_form called")

    monkeypatch.setattr(meataxe, "invariant_bilinear_form", no_form)
    result = expected.run_case("ingest-demo", "ingest", "GF(9) file",
                               expected._ingest_case("o3-9.gen", (1, 1)))
    assert result.error["type"] == "ValueError"
    assert "GF(3^2)" in result.error["message"]


@pytest.mark.parametrize("make,observed", [
    (wreath13, WREATH13_OBSERVED), (cycles21, [[0, 20], [76, 343]])],
    ids=["dim13", "dim21"])
@pytest.mark.parametrize("max_starts", [1, 60])
def test_ingest_case_scans_once_per_observed_entry(tmp_path, monkeypatch,
                                                   make, observed,
                                                   max_starts):
    from rank3 import groups
    export_to_ingest(tmp_path, monkeypatch, make(), "demo.gen")
    monkeypatch.setattr(expected, "INGEST_MAX_STARTS", max_starts)
    scans, scan = [], groups.orbit_codes
    monkeypatch.setattr(groups, "orbit_codes",
                        lambda *args: scans.append(args[2]) or scan(*args))
    result = expected.run_case("ingest-demo", "ingest", "exported group",
                               expected._ingest_case("demo.gen", (1, 1)))
    assert result.computed == {"cd": "not found",
                               "observed": observed[:max_starts]}
    # one scan per entry, each from a start of its own
    assert len(scans) == len(set(scans)) == len(observed[:max_starts])


@pytest.mark.parametrize("make", [wreath13, cycles21], ids=["dim13", "dim21"])
@pytest.mark.parametrize("fault,message", [
    pytest.param("first orbit again", "leaves the unvisited points",
                 id="first-orbit-again"),
    pytest.param("orbit without its start", "is still unvisited",
                 id="start-omitted")])
def test_ingest_case_fails_on_a_scan_that_breaks_the_walk(
        tmp_path, monkeypatch, make, fault, message):
    # the ingest case walks its starts with orbit_partition's walk, so a
    # scan that hands back an orbit already walked, or one that omits its
    # start, fails the case instead of looping or reading "not found"
    from rank3 import geometry, groups
    case = make()
    export_to_ingest(tmp_path, monkeypatch, case, "demo.gen")
    powers = geometry.code_powers(case.space.n)
    scan, first = groups.orbit_codes, []

    def faulty(*args):
        size, d, codes = scan(*args)
        if fault == "first orbit again":
            first.append((size, d, codes))
            return first[0]
        return size - 1, d, codes[codes != powers @ np.array(args[2])]

    monkeypatch.setattr(groups, "orbit_codes", faulty)
    result = expected.run_case("ingest-demo", "ingest", "exported group",
                               expected._ingest_case("demo.gen", (1, 1)))
    assert result.error["type"] == "AssertionError"
    assert message in result.error["message"]


def test_ingest_case_walks_every_point_of_an_even_dim_file(tmp_path,
                                                           monkeypatch):
    # even dims have no point types; at dim <= 13 the walk still covers
    # every non-singular point
    from rank3 import geometry
    case = signed_cycles(8)
    export_to_ingest(tmp_path, monkeypatch, case, "demo.gen")
    result = expected.run_case("ingest-demo", "ingest", "exported group",
                               expected._ingest_case("demo.gen", (1, 1)))
    assert result.error is None and result.computed["cd"] == "not found"
    points = (3 ** 8 - 1) // 2 - geometry.singular_codes(case.space).size
    assert sum(1 + c + d for c, d in result.computed["observed"]) == points


def l213_dim13_group():
    """PSL_2(13) on the 14 points of P^1(13), generated by x -> x + 1 and
    x -> -1/x, on its deleted permutation module over GF(3): the sum-zero
    vectors, dim 13, in the basis e_i - e_(i+1)."""
    from rank3 import constructions, fields, groups, linalg
    n = 14  # the points 0, ..., 12 and infinity, which is 13
    shift = tuple((x + 1) % 13 for x in range(13)) + (13,)
    invert = (13,) + tuple(-pow(x, -1, 13) % 13 for x in range(1, 13)) + (0,)
    E = [tuple(1 if k == i else 2 if k == i + 1 else 0 for k in range(n))
         for i in range(n - 1)]
    _space, gens, _coords = constructions._subquotient(
        fields.GF3, linalg.identity(n),
        [linalg.perm_matrix(p) for p in (shift, invert)], E, [])
    return groups.MatrixGroup(fields.GF3, n - 1, gens, label="l213-dim13")


def write_l213_dim13(path):
    """Write the L2(13) generator file of the ingest tier, with no form
    block, to path."""
    from rank3 import genfile
    genfile.write_generator_file(path, l213_dim13_group())


def test_ingest_l213_file_without_a_form_matches(tmp_path, monkeypatch):
    # (734, 357) lies in both point types, but in no orbit of the first 20
    # small-support starts; walking every point of dim 13 finds it
    write_l213_dim13(str(tmp_path / "l213-dim13.gen"))
    monkeypatch.setattr(expected, "INGEST_DIR", str(tmp_path))
    case = next(c for c in expected.CASES if c[0] == "ingest-l213-dim13")
    result = expected.run_case(*case)
    assert result.error is None
    assert result.match and result.computed == {"cd": [734, 357]}


def test_s8_case_fails_with_its_witnesses(monkeypatch):
    # a failing boolean of the S8 case becomes what it was decided on: the
    # factor dims, or the (c, d) pairs of the 315-point orbits per type
    from rank3 import meataxe
    case = next(c for c in expected.CASES if c[0] == "meataxe-s8-dim13")
    bad = {"factor_dims": [1, 1, 7, 7, 7, 7, 21],
           "small": {"+": [(230, 84), (212, 102)], "-": []}}
    monkeypatch.setattr(meataxe, "s8_pipeline", lambda: bad)
    result = expected.run_case(*case)
    assert result.error is None and not result.match
    assert result.computed == {
        "has_dim13": {"factor_dims": [1, 1, 7, 7, 7, 7, 21]},
        "pairs_found_one_per_type": {"+": [[212, 102], [230, 84]], "-": []}}
    json.dumps(result.to_json())
    # each value stays True where its check passes
    good = dict(bad, factor_dims=[1, 1, 7, 7, 7, 7, 13, 21])
    monkeypatch.setattr(meataxe, "s8_pipeline", lambda: good)
    assert expected.run_case(*case).computed["has_dim13"] is True
    good["small"] = {"+": [(212, 102)], "-": [(230, 84)]}
    result = expected.run_case(*case)
    assert result.match and result.computed == result.expected
