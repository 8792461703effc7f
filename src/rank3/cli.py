"""Command line interface: `rank3 <subcommand> [...]`.

Exit codes: 0 success, 1 reproduction failure, 2 usage or parse error.
"""

import argparse
import json
import sys

from . import constructions, expected, fields, genfile, geometry, groups
from . import higman, meataxe, partitions


def _emit(args, payload, text_fn):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        text_fn(payload)
    return 0


def _parse_vector(text, n):
    try:
        v = tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise SystemExit2("vector must be comma-separated integers")
    if len(v) != n:
        raise SystemExit2("vector has %d entries, expected %d" % (len(v), n))
    return v


class SystemExit2(SystemExit):
    def __init__(self, msg):
        print("error: %s" % msg, file=sys.stderr)
        super().__init__(2)


def _load_group(path):
    try:
        group = genfile.parse_generator_file(path)
    except (OSError, genfile.ParseError) as e:
        raise SystemExit2(str(e))
    if group.gram is None:
        raise SystemExit2("file %s carries no form block; use `split` or add "
                          "a form" % path)
    return group, geometry.QuadraticSpace(group.field, group.gram)


# ---------------------------------------------------------------------------
# subcommands

def cmd_count(args):
    p, a = genfile._factor_prime_power(args.q)
    F = fields.field_create(p, a)
    space = geometry.standard_space(args.n, F)
    rows = []
    for gamma in F.elements():
        res = geometry.count_norm_vectors(space, gamma)
        rows.append({"gamma": gamma, "count": res.closed_form,
                     "checked": res.mode})
    payload = {"n": args.n, "q": args.q, "counts": rows}

    def text(pl):
        print("#{v in GF(%d)^%d : Q(v) = gamma}" % (args.q, args.n))
        for r in pl["counts"]:
            print("  gamma=%d  %d  (%s)" % (r["gamma"], r["count"], r["checked"]))
    return _emit(args, payload, text)


def cmd_higman(args):
    p = higman.odd_orthogonal_params(args.m, args.xi)
    tup = (p.total, p.k, p.l, p.lam, p.mu, p.s, p.t, p.f_s, p.f_t)
    payload = {"m": args.m, "xi": args.xi, "total": p.total, "k": p.k,
               "l": p.l, "lambda": p.lam, "mu": p.mu, "s": p.s, "t": p.t,
               "f_s": p.f_s, "f_t": p.f_t}
    return _emit(args, payload, lambda pl: print(str(tup)))


def cmd_check_eq(args):
    p = higman.odd_orthogonal_params(args.m, args.xi)
    cd = higman.CdPair(args.c, args.d, args.xi)
    verdict = {"t": higman.check_eq1(p, p.t, cd),
               "s": higman.check_eq1(p, p.s, cd)}
    extra = {"eq2": higman.eq2_holds(args.m, args.xi, cd),
             "eq3": higman.eq3_holds(args.m, args.xi, cd),
             "eq4": higman.eq4_holds(args.m, cd)}
    payload = {"m": args.m, "xi": args.xi, "c": args.c, "d": args.d,
               "eq1": verdict, **extra}

    def text(pl):
        print("r=t: %s; r=s: %s" % tuple(
            "HOLDS" if verdict[r] else "fails" for r in ("t", "s")))
        for k in ("eq2", "eq3", "eq4"):
            print("%s: %s" % (k, "HOLDS" if extra[k] else "fails"))
    return _emit(args, payload, text)


def _build_case(label):
    """The named construction and its generator-file comment lines."""
    if label not in constructions.CASE_BUILDERS:
        raise SystemExit2("unknown construction %r; known: %s"
                          % (label, ", ".join(sorted(constructions.CASE_BUILDERS))))
    case = constructions.build_case(label)
    comments = [case.citation] + [
        "base point (%s): %s" % (t or "auto", ",".join(str(x) for x in v))
        for v, t in case.base_points]
    return case, comments


def cmd_construct(args):
    case, comments = _build_case(args.label)
    sys.stdout.write(genfile.format_generator_file(
        case.group, form=case.space.gram, comments=comments))
    return 0


def _orbit_report(args):
    """The OrbitReport of the vector argument under the file's group."""
    group, space = _load_group(args.file)
    v = _parse_vector(args.vector, group.dim)
    return groups.cd_parameters(space, group, v)


def cmd_orbit(args):
    rep = _orbit_report(args)
    return _emit(args, rep.to_json(), lambda pl: print(
        "orbit size %d, base point of type %s" % (rep.size, rep.xi)))


def cmd_cd(args):
    rep = _orbit_report(args)

    def text(pl):
        print("size=%d c=%d d=%d type=%s" % (rep.size, rep.c, rep.d, rep.xi))
        if rep.eq1:
            print("eq1: r=t %s, r=s %s" % (rep.eq1["t"], rep.eq1["s"]))
            print("eq2: %s  eq3: %s  eq4: %s" % (rep.eq2, rep.eq3, rep.eq4))
    return _emit(args, rep.to_json(), text)


def cmd_mullineux(args):
    try:
        lam = partitions.parse_partition(args.partition)
        m = partitions.mullineux_map(lam)
    except ValueError as e:
        raise SystemExit2(str(e))
    payload = {"partition": list(lam), "image": list(m),
               "fixed": partitions.is_mullineux_fixed(lam),
               "symbol": [list(r) for r in partitions.mullineux_symbol(lam)]}
    return _emit(args, payload,
                 lambda pl: print(",".join(str(x) for x in m)))


def cmd_split(args):
    try:
        group = genfile.parse_generator_file(args.file)
    except (OSError, genfile.ParseError) as e:
        raise SystemExit2(str(e))
    M = meataxe.GModule(group.field, group.dim, group.gens)
    factors = meataxe.composition_factors(M, seed=args.seed)
    payload = {"dims": [[f.dim, mult] for f, mult in factors]}

    def text(pl):
        for f, mult in factors:
            print("dim %d  multiplicity %d" % (f.dim, mult))
    return _emit(args, payload, text)


def cmd_reproduce(args):
    report = expected.run_reproduction_suite(args.tier)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for case in report["cases"]:
            if case.get("skipped"):
                verdict = "SKIPPED"
            else:
                verdict = "PASS" if case["match"] else "FAIL"
            print("%-22s %-7s %6.1fs  %s"
                  % (case["case"], verdict, case["seconds"], case["citation"]))
            if "error" in case:
                print("    %s: %s" % (case["error"]["type"],
                                      case["error"]["message"]))
        s = report["summary"]
        print("passed %d, failed %d, skipped %d"
              % (s["passed"], s["failed"], s["skipped"]))
    return 1 if report["summary"]["failed"] else 0


def cmd_export(args):
    case, comments = _build_case(args.label)
    genfile.write_generator_file(args.path, case.group,
                                 form=case.space.gram, comments=comments)
    print("wrote %s" % args.path)
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(
        prog="rank3",
        description="Orbit and character computations for odd-dimensional "
                    "orthogonal groups over GF(3).")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        p.set_defaults(fn=fn)
        return p

    p = add("count", cmd_count, "norm-value counts on GF(q)^n")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)

    p = add("higman", cmd_higman, "rank-3 parameters for dim 2m+1 over GF(3)")
    p.add_argument("m", type=int)
    p.add_argument("xi", choices=["+", "-"])

    p = add("check-eq", cmd_check_eq, "test the orbit equations for (c, d)")
    p.add_argument("m", type=int)
    p.add_argument("xi", choices=["+", "-"])
    p.add_argument("c", type=int)
    p.add_argument("d", type=int)

    p = add("construct", cmd_construct, "print a named construction as a "
            "generator file")
    p.add_argument("label")

    p = add("orbit", cmd_orbit, "orbit of a point under a generator file")
    p.add_argument("file")
    p.add_argument("vector", help="comma-separated coordinates")

    p = add("cd", cmd_cd, "(c, d) parameters and equation verdicts")
    p.add_argument("file")
    p.add_argument("vector", help="comma-separated coordinates")

    p = add("mullineux", cmd_mullineux, "image of a 3-regular partition")
    p.add_argument("partition", help="comma-separated parts, e.g. 8,1")

    p = add("split", cmd_split, "composition factors of a generator file")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)

    p = add("reproduce", cmd_reproduce, "run the reproduction suite")
    p.add_argument("tier", nargs="?", default="core",
                   choices=["core", "heavy", "ingest", "all"])

    p = add("export", cmd_export, "write a construction to a generator file")
    p.add_argument("label")
    p.add_argument("path")

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (ValueError, genfile.ParseError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
