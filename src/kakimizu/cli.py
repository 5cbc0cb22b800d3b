"""Command-line front end.

Inputs are single system files in the JSON format of
:mod:`kakimizu.systems`; generators write such files rather than piping, so
every artifact stays reproducible and diffable.  Exit codes: 0 success or
all-pass, 1 verification failure, 2 usage or parse error, 3 inconclusive
results only.
"""
from __future__ import annotations

import argparse
import random
import sys

from .complexes import build_complex, homology_h1, is_k_large, simplex_listing, to_dot
from .homotopy import _replays_to_point, reduce_cycle_homotopy
from .systems import (BackendContractError, SystemFormatError, UnsupportedBackend,
                      geodesic, graph_to_system, lattice_model, line_model,
                      load_system, random_connected_graph, save_system)
from .verify import ReductionBounds, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_system(fh.read())
    except OSError as exc:
        raise SystemFormatError(f"cannot read {path}: {exc.strerror}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kakimizu",
        description="covering spread, disjointness complexes, and claim verification "
                    "for abstract Seifert surface systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a system file against the schema")
    p.add_argument("file")

    for name, text in (("spread", "covering spread of a vertex pair"),
                       ("distance", "distance of a vertex pair (covering spread + 1)"),
                       ("geodesic", "construct a geodesic between two vertices")):
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        p.add_argument("-u", required=True, metavar="ID")
        p.add_argument("-v", required=True, metavar="ID")

    p = sub.add_parser("complex", help="build the disjointness complex and export it")
    p.add_argument("file")
    p.add_argument("--export-dot", metavar="PATH")
    p.add_argument("--export-simplices", metavar="PATH")
    p.add_argument("--max-dim", type=int, default=3)

    p = sub.add_parser("links", help="print the link of a simplex")
    p.add_argument("file")
    p.add_argument("-s", required=True, metavar="ID[,ID...]",
                   help="comma-separated simplex vertices")

    p = sub.add_parser("klarge", help="diagonal-criterion largeness check")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("h1", help="first integral homology of the complex")
    p.add_argument("file")

    p = sub.add_parser("reduce", help="search for a null-homotopy of a cycle")
    p.add_argument("file")
    p.add_argument("--cycle", required=True, metavar="ID,ID,...")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=100_000)

    p = sub.add_parser("gen", help="generate a system file")
    gen = p.add_subparsers(dest="generator", required=True)
    g = gen.add_parser("line", help="linearly stacked family")
    g.add_argument("--min", type=int, required=True)
    g.add_argument("--max", type=int, required=True)
    g = gen.add_parser("lattice", help="triangular-lattice family")
    g.add_argument("--width", type=int, required=True)
    g.add_argument("--height", type=int, required=True)
    g.add_argument("--a0", type=int, default=0)
    g.add_argument("--b0", type=int, default=0)
    g = gen.add_parser("graph", help="random connected graph family")
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--edge-prob", type=float, default=0.2)
    for g_parser in gen.choices.values():
        g_parser.add_argument("-o", "--output", required=True, metavar="PATH")
        g_parser.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run claim verification suites")
    p.add_argument("file")
    p.add_argument("--suite", choices=["all", "distance", "girth", "sc", "contractible"],
                   default="all")
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p.add_argument("--max-cycle-len", type=int, default=8)
    p.add_argument("--max-steps", type=int, default=100_000)

    return parser


def _cmd_validate(args) -> int:
    system = _load(args.file)
    print(f"ok: {len(system.vertex_ids())} vertices, "
          f"{len(system.stored_patterns())} stored patterns")
    return EXIT_OK


def _pair(args, system):
    ids = set(system.vertex_ids())
    for x in (args.u, args.v):
        if x not in ids:
            raise SystemFormatError(f"unknown vertex {x!r}")
    return args.u, args.v


def _cmd_spread(args) -> int:
    system = _load(args.file)
    u, v = _pair(args, system)
    if u == v:
        raise SystemFormatError("spread needs two distinct vertices")
    print(system.spread(u, v))
    return EXIT_OK


def _cmd_distance(args) -> int:
    # the effective distance algorithm: covering spread plus one
    system = _load(args.file)
    u, v = _pair(args, system)
    print(0 if u == v else system.spread(u, v) + 1)
    return EXIT_OK


def _cmd_geodesic(args) -> int:
    system = _load(args.file)
    u, v = _pair(args, system)
    path = geodesic(system, u, v)
    print(" ".join(path))
    return EXIT_OK


def _cmd_complex(args) -> int:
    system = _load(args.file)
    X = build_complex(system, max_dim=args.max_dim)
    counts = " ".join(f"dim{d}:{len(X.simplices(d))}" for d in range(X.dim + 1))
    print(f"vertices {len(X.vertices)} edges {len(X.edges)} "
          f"dim {X.dim}{'+' if X.dim_is_capped() else ''} {counts}".rstrip())
    if args.export_dot:
        dot = to_dot(X)  # before the file opens, so a refused id leaves none
        with open(args.export_dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    if args.export_simplices:
        with open(args.export_simplices, "w", encoding="utf-8") as fh:
            fh.write(simplex_listing(X))
    return EXIT_OK


def _cmd_links(args) -> int:
    system = _load(args.file)
    X = build_complex(system, max_dim=3)
    simplex = tuple(args.s.split(","))
    lk = X.link(simplex)
    print("vertices: " + (" ".join(lk.vertices) if lk.vertices else "(none)"))
    edges = " ".join(f"{a}-{b}" for a, b in sorted(lk.edges))
    print("edges: " + (edges if edges else "(none)"))
    return EXIT_OK


def _cmd_klarge(args) -> int:
    system = _load(args.file)
    X = build_complex(system, max_dim=3)
    ok, witness = is_k_large(X, args.k)
    if ok:
        print(f"{args.k}-large: true")
        return EXIT_OK
    print(f"{args.k}-large: false")
    print("witness: " + " ".join(witness))
    return EXIT_FAIL


def _cmd_h1(args) -> int:
    system = _load(args.file)
    X = build_complex(system, max_dim=3)
    print(f"H1 = {homology_h1(X)}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    system = _load(args.file)
    X = build_complex(system, max_dim=1)
    cycle = tuple(args.cycle.split(","))
    result = reduce_cycle_homotopy(X, cycle, args.max_len, args.max_steps)
    if result.reduced:
        if not _replays_to_point(X, cycle, result):
            print("failed: witness failed to replay")
            return EXIT_FAIL
        print(f"reduced in {len(result.moves)} moves ({result.reason})")
        for mv in result.moves:
            print(" ".join(str(x) for x in mv))
        return EXIT_OK
    print(f"inconclusive: {result.reason}")
    return EXIT_INCONCLUSIVE


def _cmd_gen(args) -> int:
    if args.generator == "line":
        system = line_model(args.min, args.max)
    elif args.generator == "lattice":
        system = lattice_model(args.width, args.height, args.a0, args.b0)
    else:
        rng = random.Random(args.seed)
        edges = random_connected_graph(args.vertices, args.edge_prob, rng)
        system = graph_to_system(args.vertices, edges)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(save_system(system))
    return EXIT_OK


def _cmd_verify(args) -> int:
    system = _load(args.file)
    bounds = ReductionBounds(max_cycle_len=args.max_cycle_len,
                             max_len=2 * args.max_cycle_len,
                             max_steps=args.max_steps)
    report = run_suite(system, args.suite, bounds)
    sys.stdout.write(report.to_table())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if report.verdict == "fail":
        return EXIT_FAIL
    if report.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "spread": _cmd_spread,
    "distance": _cmd_distance,
    "geodesic": _cmd_geodesic,
    "complex": _cmd_complex,
    "links": _cmd_links,
    "klarge": _cmd_klarge,
    "h1": _cmd_h1,
    "reduce": _cmd_reduce,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (UnsupportedBackend, BackendContractError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
