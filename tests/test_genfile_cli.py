import contextlib
import hashlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from rank3 import cli, genfile, groups
from rank3.constructions import CASE_BUILDERS, build_case
from rank3.fields import field_create
from rank3.genfile import (ParseError, format_generator_file,
                           parse_generator_lines, parse_generator_file,
                           write_generator_file)


def roundtrip(case):
    text = format_generator_file(case.group, form=case.space.gram)
    group, _ = parse_generator_lines(text.splitlines())
    assert group.dim == case.group.dim
    assert group.gens == case.group.gens
    assert group.gram == case.space.gram
    return text


@pytest.mark.parametrize("label", ["wreath-n5", "parabolic-n7-a1",
                                   "deleted-n10", "imprim-o3s3"])
def test_roundtrip_bit_exact(label):
    case = build_case(label)
    text = roundtrip(case)
    # a second pass is byte-identical
    group, _ = parse_generator_lines(text.splitlines())
    assert format_generator_file(group, form=group.gram) == text


def test_gf27_modulus_line():
    F27 = field_create(3, 3)
    gens = (tuple(tuple(2 if i == j else 0 for j in range(2)) for i in range(2)),)
    g = groups.MatrixGroup(F27, 2, gens, label="scalar")
    text = format_generator_file(g)
    assert "modulus 1 2 0 1" in text  # x^3 - x + 1
    back, _ = parse_generator_lines(text.splitlines())
    assert back.field == F27
    assert back.gens == gens


def test_comments_skipped():
    case = build_case("wreath-n5")
    text = format_generator_file(case.group, form=case.space.gram,
                                 comments=("hello", "world"))
    assert text.startswith("# hello\n# world\n")
    assert parse_generator_lines(text.splitlines())[0].gens == case.group.gens


def bad_lines(mutate):
    case = build_case("imprim-o3s3")
    lines = format_generator_file(case.group, form=case.space.gram).splitlines()
    return mutate(lines)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_generator_lines(["rank3gen v2", "dim 2 field 3 gens 1"])
    assert e.value.line_no == 1

    lines = bad_lines(lambda ls: ls)
    # singular generator: overwrite a gen row to duplicate the previous row
    idx = lines.index("gen 1") + 1
    broken = list(lines)
    broken[idx + 1] = broken[idx]
    with pytest.raises(ParseError):
        parse_generator_lines(broken)

    # out-of-range entry
    broken = list(lines)
    broken[idx] = "7 " + broken[idx][2:]
    with pytest.raises(ParseError) as e:
        parse_generator_lines(broken)
    assert e.value.line_no == idx + 1


def test_field_size_is_factored_up_to_its_square_root():
    t0 = time.perf_counter()
    group, _ = parse_generator_lines(["rank3gen v1",
                                      "dim 1 field 100000007 gens 0"])
    assert time.perf_counter() - t0 < 1.0
    assert (group.field.p, group.field.a) == (100000007, 1)
    with pytest.raises(ParseError, match="12 is not a prime power"):
        parse_generator_lines(["rank3gen v1", "dim 1 field 12 gens 0"])
    with pytest.raises(ParseError, match="bad field size 1"):
        parse_generator_lines(["rank3gen v1", "dim 1 field 1 gens 0"])


def test_field_sizes_past_the_limits_are_refused_at_once():
    too_large = (["rank3gen v1", "dim 1 field 100000000000031 gens 0"],
                 ["rank3gen v1", "dim 1 field 177147 gens 0",  # 3^11
                  "modulus " + " ".join(["1"] + ["0"] * 10 + ["1"])])
    for lines, limit in zip(too_large, (r"2\^31", r"2\^16")):
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match=limit):
            parse_generator_lines(lines)
        assert time.perf_counter() - t0 < 0.1
    assert exit_code("count", "3", "177147") == 2


def test_trailing_garbage_rejected():
    lines = bad_lines(lambda ls: ls + ["stray"])
    with pytest.raises(ParseError):
        parse_generator_lines(lines)


def test_write_and_read_file(tmp_path):
    case = build_case("wreath-n5")
    path = tmp_path / "w5.gen"
    write_generator_file(str(path), case.group, form=case.space.gram)
    assert parse_generator_file(str(path)).gens == case.group.gens


# ---------------------------------------------------------------------------
# CLI surface

def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_higman(capsys):
    assert run_cli("higman", "3", "+") == 0
    assert capsys.readouterr().out.strip() == \
        "(378, 117, 260, 36, 36, 9, -9, 182, 195)"


def test_cli_check_eq(capsys):
    assert run_cli("check-eq", "2", "+", "0", "4") == 0
    assert capsys.readouterr().out.splitlines()[0] == "r=t: HOLDS; r=s: fails"


def test_cli_mullineux(capsys):
    assert run_cli("mullineux", "8,1") == 0
    assert capsys.readouterr().out.strip() == "4,4,1"
    assert run_cli("mullineux", "--json", "4,2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["image"] == [2, 2, 1, 1]


def test_cli_count_json(capsys):
    assert run_cli("count", "--json", "3", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    counts = {r["gamma"]: r["count"] for r in payload["counts"]}
    assert counts == {0: 9, 1: 12, 2: 6}


def test_cli_count_refuses_q_past_the_limit(capsys):
    t0 = time.perf_counter()
    assert exit_code("count", "1", "100003") == 2
    assert time.perf_counter() - t0 < 0.1
    assert "2^16" in capsys.readouterr().err
    assert run_cli("count", "--json", "3", "27") == 0
    counts = [r["count"] for r in json.loads(capsys.readouterr().out)["counts"]]
    assert len(counts) == 27 and sum(counts) == 27 ** 3


@pytest.mark.parametrize("n", ["0", "-1"])
def test_cli_count_refuses_a_dim_below_1(n, capsys):
    # the empty Gram matrix is refused, with no traceback from the Q table
    assert exit_code("count", n, "3") == 2
    assert capsys.readouterr().err == (
        "error: gram matrix is empty: dim must be at least 1\n")


def test_cli_construct_and_cd(tmp_path, capsys):
    path = tmp_path / "case.gen"
    assert run_cli("export", "wreath-n5", str(path)) == 0
    capsys.readouterr()
    assert run_cli("cd", "--json", str(path), "1,1,0,0,0") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["c"], payload["d"]) == (12, 7)
    assert run_cli("orbit", str(path), "1,0,0,0,0") == 0
    assert "orbit size 5" in capsys.readouterr().out


def test_cli_orbit_and_cd_share_one_report(tmp_path, capsys):
    path = tmp_path / "case.gen"
    assert run_cli("export", "wreath-n5", str(path)) == 0
    capsys.readouterr()
    payloads = []
    for cmd in ("orbit", "cd"):
        assert run_cli(cmd, "--json", str(path), "1,1,0,0,0") == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["seconds"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["size"] == 20 and "visited" not in payloads[0]


# sha256 of `rank3 construct <label>`.  A change to any generator, Gram
# matrix, base point or citation changes the digest: update it, and name
# the label in CHANGES.md.
CONSTRUCT_SHA256 = {
    "c7wreath-d25": "70352b97108bf6ccb49f3657dca83dde231394db2137587f3097d0cdd24e67e1",
    "deleted-n10": "6939bcb4c1ffda9a2bf45976fe0af655665c053f44c3b721585a4ce527734299",
    "deleted-n11": "1c62aa30d5dfeaae8f4bcfaf2d4b3f8c2ce0c72066ef508921e2ad73e5184edd",
    "deleted-n12": "fb43e889075befd6be5d7c484e8e557fe36ca77aba2b30c87f348b97fcf07077",
    "deleted-n13": "63773558dd54c7d8c42e3c0b788099febbbab1f12611b1fc1beb5ef025ce5b62",
    "deleted-n14": "dc5f7d4b4c07fa3794e601f43afaa8d257dd4f8b8ab3070aa367f89536bdc656",
    "deleted-n15": "40a57dd5a5903be257bfb6fecb94f11912486d4ca1a32b6fd2e5dc90f5952660",
    "deleted-n16": "9c3591bb0b6ab27cb9786d45fe98fb06200f7299477c070fc221e5443f3a7871",
    "fieldext-n9": "a53c0913dcbb8f2763fa9f506565e99b5605ebf454cdcf6138860c53c0dd3bef",
    "imprim-o3s3": "ee121c50907d4cbd4c2d041b879fbe661bcad644369b32d10fb1b5ad40410375",
    "parabolic-n7-a1": "fe9bd921aba95869ff05abe829fde14a2ff135ee40de881866e5b7411750c397",
    "parabolic-n7-a2": "77900c4152e2a4d25f63fac967f2ab64d2332ab0d9fd4d56c07169c40e8770dc",
    "sp6-lambda2": "c89e28ac8041427f732071c145c1c67a34e7e4e25931fe73c37c9516efd229e6",
    "sp6-sym2": "2c2225f8c21f8845413effd166968c80c424e50e99fd1e5b3e458014b4ba0b46",
    "substab-n7-w3": "47aea55e51b6f8915a0bc6de811d24b6358d3a168c300d90fdf383c434bd50d7",
    "sym-n7-d27": "6d9bef2a12304ab43f0c32a718cbc7a421f2a4bd45f3898fd4032d7ab337105d",
    "tensor-3x5": "ba1fd97ced9ec048b05207585ae010603052bb9e0a6f53a0c90041062a1dc717",
    "wedge-n7": "503b25c644d875be9902ced4909626f836d997825a938576f725123dade73dc5",
    "wreath-n11": "ab6d4ea4a56339e25daa7e4a966e897302283fbb9ebed03e732717786bec0993",
    "wreath-n13": "70da22042f71de9c29ecf3c97a2628c881a8db08b1e919295d47ae63b117534e",
    "wreath-n5": "7b97c881c354c284737eb04d4c5201f265c537e975ebcd1d1d894e5ef69904ad",
    "wreath-n7": "a7a6eb080ea3c8252cfcecc665b601e82c691a7289e14e2a95c2d4b40b72cf6b",
    "wreath-n9": "bbaf5002bb3e7ea5fa267617a6c674e00fa9ae57cadd0079db6e292d493e715f",
}


@pytest.mark.parametrize("label", sorted(CASE_BUILDERS))
def test_cli_construct_every_label(label, capsys):
    case = build_case(label)
    assert run_cli("construct", label) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_SHA256[label]
    group, _ = parse_generator_lines(out.splitlines())
    assert group.gens == case.group.gens
    assert group.gram == case.space.gram


def test_cli_split(tmp_path, capsys):
    case = build_case("imprim-o3s3")
    path = tmp_path / "g.gen"
    write_generator_file(str(path), case.group, form=case.space.gram)
    assert run_cli("split", "--json", str(path)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(d * m for d, m in payload["dims"]) == 9


@pytest.mark.parametrize("n", [1, 4])
def test_cli_split_on_a_file_with_no_generators(n, tmp_path, capsys):
    # with no generators every line is a submodule: n trivial factors
    path = tmp_path / "g0.gen"
    path.write_text("rank3gen v1\ndim %d field 3 gens 0\n" % n)
    assert run_cli("split", str(path)) == 0
    assert capsys.readouterr().out == "dim 1  multiplicity %d\n" % n


def exit_code(*argv):
    try:
        return run_cli(*argv)
    except SystemExit as e:
        return e.code


def test_cli_computations_that_give_up_exit_3(tmp_path, capsys, monkeypatch):
    # a 3-cycle on GF(1009)^3 is reducible (it fixes the all-ones line), but
    # the MeatAxe finds no singular algebra element in its tries
    cycle = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    path = tmp_path / "c1009.gen"
    write_generator_file(str(path), groups.MatrixGroup(
        field_create(1009, 1), 3, (cycle,)))
    assert exit_code("split", str(path)) == 3
    assert capsys.readouterr().err == (
        "error: no singular algebra element found in 200 tries\n")
    # an orbit past the point cap
    gf3 = tmp_path / "w5.gen"
    assert run_cli("export", "wreath-n5", str(gf3)) == 0
    monkeypatch.setattr(groups, "ORBIT_CAP", 3)
    capsys.readouterr()
    for command in ("orbit", "cd"):
        assert exit_code(command, str(gf3), "1,1,0,0,0") == 3
        assert capsys.readouterr().err.startswith(
            "error: orbit exceeds the cap of 3 points")


def test_cli_usage_errors(capsys):
    assert exit_code("mullineux", "2,3") == 2
    assert exit_code("mullineux", "1,1,1") == 2  # not 3-regular
    assert exit_code("frobnicate") == 2
    assert exit_code("cd", "/nonexistent.gen", "1,0") == 2


def test_cli_construct_unknown_label(capsys):
    assert exit_code("construct", "nope") == 2


def test_cli_export_unknown_label(tmp_path, capsys):
    assert exit_code("construct", "nope") == 2
    construct_err = capsys.readouterr().err
    assert exit_code("export", "nope", str(tmp_path / "x.gen")) == 2
    err = capsys.readouterr().err
    assert err == construct_err
    assert "unknown construction 'nope'; known: " in err
    assert not (tmp_path / "x.gen").exists()


@pytest.mark.parametrize("command", ["orbit", "cd"])
def test_cli_refuses_vector_entries_outside_the_field(tmp_path, capsys,
                                                      command):
    F9 = field_create(3, 2)
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    gf9 = tmp_path / "gf9.gen"
    write_generator_file(str(gf9), groups.MatrixGroup(F9, 3, (swap,),
                                                      gram=ident))
    gf3 = tmp_path / "gf3.gen"
    assert run_cli("export", "wreath-n5", str(gf3)) == 0
    capsys.readouterr()
    for path, vector in ((gf9, "10,0,0"), (gf9, "9,0,0"), (gf9, "-1,0,0"),
                         (gf3, "4,0,0,0,0"), (gf3, "1,0,0,0,-2")):
        assert exit_code(command, "--", str(path), vector) == 2
        assert "out of range [0, %d)" % (9 if path == gf9 else 3) in \
            capsys.readouterr().err
    # the largest entries are still read
    assert run_cli(command, str(gf9), "8,0,0") == 0
    assert run_cli(command, str(gf3), "2,0,0,0,0") == 0


@pytest.mark.parametrize("command", ["orbit", "cd"])
def test_cli_rejects_dims_past_the_packed_code_limit(tmp_path, capsys, command):
    n = 40
    cycle = tuple(tuple(1 if (i + 1) % n == j else 0 for j in range(n))
                  for i in range(n))
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    path = tmp_path / "cycle40.gen"
    write_generator_file(str(path), groups.MatrixGroup(
        field_create(3, 1), n, (cycle,), gram=ident), form=ident)
    vector = ",".join(["1", "1"] + ["0"] * (n - 2))
    assert exit_code(command, str(path), vector) == 2
    assert "dim <= 39" in capsys.readouterr().err


_FUZZ_SEED = format_generator_file(build_case("wreath-n5").group,
                                   form=build_case("wreath-n5").space.gram)
_TOKENS = st.one_of(
    st.sampled_from(["rank3gen", "v1", "dim", "field", "gens", "modulus",
                     "form", "gen", "#", ""]),
    st.integers(-3, 30).map(str), st.text(max_size=6))


@st.composite
def generator_texts(draw):
    """Arbitrary text, or a valid generator file with a few lines deleted,
    duplicated, inserted or with one token replaced."""
    if draw(st.booleans()):
        return draw(st.text(max_size=300))
    lines = _FUZZ_SEED.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "insert", "token"]))
        if kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "insert":
            lines.insert(i, draw(st.text(max_size=40)))
        else:
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(_TOKENS)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(generator_texts())
def test_parser_raises_only_parse_errors(text):
    try:
        parse_generator_lines(text.splitlines(True))
    except ParseError:
        pass


@settings(max_examples=40, deadline=None)
@given(generator_texts())
def test_cli_orbit_on_malformed_files_exits_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.gen")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        try:
            parse_generator_file(path)
            return  # still a valid file
        except ParseError:
            pass
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = exit_code("orbit", path, "1,0,0,0,0")
    assert code == 2
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
