import json

import pytest

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


@pytest.mark.parametrize("label", sorted(CASE_BUILDERS))
def test_cli_construct_every_label(label, capsys):
    case = build_case(label)
    assert run_cli("construct", label) == 0
    group, _ = parse_generator_lines(capsys.readouterr().out.splitlines())
    assert group.gens == case.group.gens
    assert group.gram == case.space.gram


def test_cli_split(tmp_path, capsys):
    case = build_case("imprim-o3s3")
    path = tmp_path / "g.gen"
    write_generator_file(str(path), case.group, form=case.space.gram)
    assert run_cli("split", "--json", str(path)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(d * m for d, m in payload["dims"]) == 9


def exit_code(*argv):
    try:
        return run_cli(*argv)
    except SystemExit as e:
        return e.code


def test_cli_usage_errors(capsys):
    assert exit_code("mullineux", "2,3") == 2
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
