"""Command-line interface.

Exit codes: 0 on success (all checks pass), 1 when a verification check
fails, 2 on usage, input or output errors.  Files are read and written
as UTF-8; a label that standard output cannot encode is an output error.
"""

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache

from . import families, graphs, pig, semigroups, skeletal, spectral, verify
from .errors import MalformedDocument, PigError, SizeMismatch
from .green import l_classes, r_classes


def _read_json(path: str):
    """The parsed document; any decoding failure is a MalformedDocument."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise MalformedDocument(f"{path} is not JSON: {exc}") from None


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


FAMILIES = {
    "isn": lambda a: families.symmetric_inverse(a.n),
    "brandt": lambda a: families.brandt(
        families.cyclic_group(a.group_order), a.indices),
    "semilattice": lambda a: families.subset_meet_semilattice(a.n),
    "cyclic": lambda a: families.cyclic_group(a.n),
    "leftzero": lambda a: families.left_zero(a.n),
}


def cmd_build(args) -> int:
    s = FAMILIES[args.family](args)
    if args.adjoin_zero:
        s = semigroups.adjoin_zero(s)
    _write(semigroups.to_json(s), args.out)
    print(f"order={s.order} zero={s.zero} identity={s.identity} "
          f"idempotents={len(s.idempotents)}", file=sys.stderr)
    return 0


FORMATS = {
    "dot": graphs.to_dot,
    "json": graphs.to_json,
    "edges": graphs.to_edge_list,
}


def _build_graph(s, side, variant):
    g = pig.left_pig(s) if side == "left" else pig.right_pig(s)
    if variant == "spig":
        g, _ = (pig.s_left_pig if side == "left" else pig.s_right_pig)(s, g)
    return g


def cmd_graph(args) -> int:
    s = semigroups.from_json_dict(_read_json(args.input))
    g = _build_graph(s, args.side, args.variant)
    _write(FORMATS[args.format](g), args.out)
    return 0


def cmd_stats(args) -> int:
    g = graphs.from_json_dict(_read_json(args.graph))
    st = graphs.graph_stats(g)
    print(json.dumps({"order": g.order, **asdict(st)}, indent=2))
    return 0


def cmd_classes(args) -> int:
    s = semigroups.from_json_dict(_read_json(args.input))
    part = l_classes(s) if args.side == "left" else r_classes(s)
    _write("".join(f"class {cid}: {', '.join(map(s.label, cls))}\n"
                   for cid, cls in enumerate(part.classes)), None)
    return 0


def cmd_skeletal(args) -> int:
    if args.op == "check" and args.map is None:
        build_parser().error("--op check requires --map")
    g = graphs.from_json_dict(_read_json(args.graph))
    if args.op == "check":
        doc = _read_json(args.map)
        raw = doc.get("map") if isinstance(doc, dict) else None
        if not (isinstance(raw, list) and all(type(v) is int for v in raw)):
            raise MalformedDocument("map must be a list of integers")
        if len(raw) != g.order:
            raise SizeMismatch(
                f"map has {len(raw)} entries for a graph of order {g.order}")
        # a negative or missing id raises NotSurjective here
        phi = graphs.VertexMap(tuple(raw))
        h = skeletal.quotient_by_partition(g, phi)
        report = skeletal.verify_skeletal(g, h, phi)
        print(json.dumps(asdict(report), indent=2))
        return 0 if report.is_skeletal else 1
    if args.op == "max":
        h, phi = skeletal.max_skeletal(g)
        print(json.dumps({
            "graph": graphs.to_json_dict(h),
            "map": list(phi.map),
        }, indent=2))
        return 0
    if args.op == "is-skeleton":
        result = skeletal.is_skeleton(g)
        print("skeleton" if result else "has a proper skeletal")
        return 0
    result = skeletal.brute_force_has_proper_skeletal(g)
    print("proper skeletal found" if result else "no proper skeletal")
    return 0


def cmd_spectral(args) -> int:
    g = graphs.from_json_dict(_read_json(args.graph))
    if args.twin_report:
        report = spectral.twin_spectral_report(g)
        print(json.dumps({
            "all_pass": report.all_pass,
            "classes": [asdict(c) for c in report.classes],
        }, indent=2))
        return 0 if report.all_pass else 1
    m = spectral.graph_matrix(g, args.matrix)
    if args.lam is None:
        print(json.dumps({"matrix": args.matrix,
                          "rank": spectral.integer_rank(m)}))
    else:
        mult = spectral.eigen_multiplicity(m, args.lam)
        print(json.dumps({"matrix": args.matrix, "eigenvalue": args.lam,
                          "multiplicity": mult}))
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, n=args.n,
                               group_order=args.group_order,
                               indices=args.indices, seed=args.seed)
    for suite in results:
        for check in suite.checks:
            mark = "PASS" if check.passed else "FAIL"
            detail = f"  ({check.detail})" if check.detail else ""
            print(f"[{mark}] {suite.suite}: {check.name}{detail}")
    ok = all(suite.passed for suite in results)
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by main."""
    parser = argparse.ArgumentParser(
        prog="pig",
        description="Build finite semigroups, their principal ideal "
                    "graphs and class quotients, and verify their "
                    "structural properties exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a semigroup family")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--group-order", type=int, default=1)
    p.add_argument("--indices", type=int, default=1)
    p.add_argument("--adjoin-zero", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("graph", help="build an ideal graph from a semigroup")
    p.add_argument("--input", required=True)
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--variant", choices=["pig", "spig"], default="pig")
    p.add_argument("--format", choices=list(FORMATS),
                   default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("stats", help="print statistics of a graph file")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("classes", help="print L or R classes")
    p.add_argument("--input", required=True)
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("skeletal", help="skeletal checks on a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--op", required=True,
                   choices=["check", "max", "is-skeleton", "brute"])
    p.add_argument("--map")
    p.set_defaults(func=cmd_skeletal)

    p = sub.add_parser("spectral", help="exact eigenvalue multiplicities")
    p.add_argument("--graph", required=True)
    p.add_argument("--matrix", choices=["A", "L", "Q"], default="A")
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--twin-report", action="store_true")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=list(verify.SUITES))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--group-order", type=int, default=2)
    p.add_argument("--indices", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PigError, OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
