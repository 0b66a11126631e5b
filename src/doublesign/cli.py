"""Command-line shell over the library.

Subcommands: ``gen`` writes instances, ``census`` / ``spectrum`` /
``construct`` analyze one instance, ``verify`` runs a claim check.  Exit
codes follow one convention everywhere: 0 success or pass, 1 a violation
or refusal, 2 a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import combinations
from pathlib import Path

from . import io_gen, lemma_lab, oracle, solver
from .census import k4_key, k4_pattern, triangle_census
from .graph import SignedCompleteGraph
from .group import ELEMENTS
from .switching import normalize_at


def _instance_options(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("instance source (pick one)")
    src.add_argument("--in", dest="infile", metavar="FILE",
                     help="read an instance file ('-' for stdin)")
    src.add_argument("--named", metavar="NAME",
                     help="a named fixture: share_vertex_k4, triangle_k4, identity(N)")
    src.add_argument("--random", type=int, metavar="N",
                     help="a seeded random instance on N vertices")
    p.add_argument("--seed", type=int, default=0, help="seed for --random (default 0)")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _load_instance(args: argparse.Namespace) -> SignedCompleteGraph:
    picked = [x for x in (args.infile, args.named, args.random) if x is not None]
    if len(picked) != 1:
        raise SystemExit2("exactly one of --in / --named / --random is required")
    if args.infile is not None:
        text = sys.stdin.read() if args.infile == "-" else Path(args.infile).read_text()
        return io_gen.parse(text)
    if args.named is not None:
        return io_gen.named_instance(args.named)
    return io_gen.gen_random(args.random, args.seed)


class SystemExit2(Exception):
    """Usage error; mapped to exit code 2."""


def _cmd_gen(args: argparse.Namespace) -> int:
    # build or validate the source before opening --out, so that a usage
    # error leaves an existing file as it was
    picked = [x for x in (args.exhaustive_normalized, args.random, args.named) if x is not None]
    if len(picked) != 1:
        raise SystemExit2("exactly one of --exhaustive-normalized / --random / --named is required")
    if args.exhaustive_normalized is not None:
        if args.exhaustive_normalized > 6:
            # the n = 7 family alone is 4^15 records, about 160 GB of text
            raise SystemExit2("--exhaustive-normalized streams N <= 6 (4^10 records at most)")
        family = io_gen.gen_exhaustive_normalized(args.exhaustive_normalized)
        records = (f"# index {i}\n{io_gen.serialize(g)}\n" for i, g in enumerate(family))
    elif args.random is not None:
        records = [io_gen.serialize(io_gen.gen_random(args.random, args.seed))]
    else:
        records = [io_gen.serialize(io_gen.named_instance(args.named))]
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.writelines(records)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


#: The largest n ``census`` scans; it looks up all C(n, 4) K4s one by one.
MAX_CENSUS_N = 100


def _cmd_census(args: argparse.Namespace) -> int:
    g = _load_instance(args)
    if args.normalize is not None:
        # moves only the common-triple counts: triple shapes are read as given
        g, _ = normalize_at(g, args.normalize)
    if g.n > MAX_CENSUS_N:
        raise SystemExit2(f"census scans n <= MAX_CENSUS_N={MAX_CENSUS_N}, got n={g.n}")
    census = triangle_census(g)
    all_distinct = 0
    with_triple = {"star": 0, "triangle": 0}
    for quad in combinations(g.vertices(), 4):
        pattern = k4_pattern(k4_key(g.rows, quad))
        if pattern.all_distinct:
            all_distinct += 1
            if pattern.triple is not None:
                with_triple[pattern.triple.shape] += 1
    payload = {
        "n": g.n,
        "diversity": census.diversity,
        "triangle_counts": {s.render(): census.counts[s] for s in ELEMENTS},
        "k4": {
            "total": math.comb(g.n, 4),
            "all_distinct": all_distinct,
            "common_triple_star": with_triple["star"],
            "common_triple_triangle": with_triple["triangle"],
        },
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"n={g.n} diversity={census.diversity}")
        print("triangles:", " ".join(f"{s.render()}={census.counts[s]}" for s in ELEMENTS))
        k4 = payload["k4"]
        print(
            f"k4: {k4['all_distinct']}/{k4['total']} all-distinct "
            f"({k4['common_triple_star']} star triples, "
            f"{k4['common_triple_triangle']} triangle triples)"
        )
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.random is not None:
        # refuse before generating: the graph alone grows as N^2
        oracle.check_bound(args.random)
    g = _load_instance(args)
    spec = oracle.hamiltonian_spectrum(g, witnesses=args.witness)
    payload = {
        "n": g.n,
        "counts": {s.render(): spec.counts[s] for s in ELEMENTS},
        "realized": sorted(s.render() for s in spec.realized),
    }
    if args.witness:
        payload["witnesses"] = {
            s.render(): list(c.vertices) for s, c in (spec.witnesses or {}).items()
        }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"n={g.n} circles={spec.total}")
        print("counts:", " ".join(f"{s.render()}={spec.counts[s]}" for s in ELEMENTS))
        print("realized:", " ".join(payload["realized"]))
        if args.witness:
            for s in ELEMENTS:
                if spec.witnesses and s in spec.witnesses:
                    cyc = " ".join(map(str, spec.witnesses[s].vertices))
                    print(f"witness {s.render()}: {cyc}")
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    g = _load_instance(args)
    try:
        ws = solver.construct_witnesses(g)
    except (solver.RestrictedSpectrumError, solver.UnsupportedSizeError) as exc:
        if args.json:
            print(json.dumps({"refused": str(exc)}))
        else:
            print(f"refused: {exc}", file=sys.stderr)
        return 1
    except solver.CounterexampleCandidateError as exc:
        print(f"counterexample candidate: {exc}", file=sys.stderr)
        return 1
    payload = {
        "n": g.n,
        "witnesses": [
            {"sign": s.render(), "circle": list(c.vertices)} for c, s in ws.witnesses
        ],
        "trace": ws.trace,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for c, s in ws.witnesses:
            print(f"witness {s.render()}: {' '.join(map(str, c.vertices))}")
        if args.trace:
            print(f"trace: {ws.trace}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = lemma_lab.verify(args.lemma, args.scope, seed=args.seed)
    except (KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(report.summary())
        for v in report.violations:
            print(f"  violation: {v}")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="doublesign",
        description="Hamiltonian label spectra of complete graphs with Klein four-group edge labels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument("--exhaustive-normalized", type=int, metavar="N")
    p.add_argument("--random", type=int, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--named", metavar="NAME")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("census", help="triangle census and K4 classification")
    _instance_options(p)
    p.add_argument("--normalize", type=int, metavar="V", default=None,
                   help="normalize vertex V before any analysis")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("spectrum", help="exact Hamiltonian label spectrum")
    _instance_options(p)
    p.add_argument("--witness", action="store_true",
                   help="emit one canonical circle per realized label")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("construct", help="build four distinct-label Hamiltonian circles")
    _instance_options(p)
    p.add_argument("--trace", action="store_true", help="print the construction path")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="machine-check a structural claim")
    p.add_argument("--lemma", required=True, choices=lemma_lab.lemma_ids())
    p.add_argument("--scope", required=True,
                   help="exhaustive_k4 | exhaustive_group | exhaustive_normalized:N | random:N:COUNT")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (io_gen.ParseError, ValueError, OSError) as exc:
        # OSError: --in or --out names a missing file, a directory, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
