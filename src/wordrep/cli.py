"""Command-line front end.

Exit status contract, stable across subcommands:
  0 verified / constructed / found
  1 refuted / not found
  2 usage or parse error
  3 search budget exhausted (outcome unknown)
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from . import catalog as cat
from . import fileio
from ._kernels import HAVE_EXT
from .construct import (
    ConstructionError,
    SplitPartition,
    comp_ind_partition,
    comp_plus_ind_word,
    double_word,
    mycielski_cycle_word,
    remove_edge_sets,
    remove_matching,
    split_word,
    three_perm_graph,
)
from .core import Graph, Word
from .graph6 import parse_graph6, write_graph6
from .orient import (
    BudgetExceeded,
    Orientation,
    directed_paths_with_arcs,
    find_shortcut,
    is_acyclic,
    is_semi_transitive,
    is_transitive,
    search_semi_transitive,
    search_transitive,
)
from .search import census_from_graph6, census_non_word_representable
from .verify import verify_k11


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _default_max_nodes() -> int | None:
    raw = os.environ.get("WORDREP_MAX_NODES")
    if raw is None:
        return None
    try:
        limit = int(raw)
        if limit > 0:
            return limit
    except ValueError:
        pass
    raise CliError(f"bad WORDREP_MAX_NODES value {raw!r}")


def _load_graph(spec: str) -> Graph:
    name = spec.removeprefix("catalog:")
    try:
        return cat.get(name).graph
    except ValueError:
        pass
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"{spec!r} is neither a catalog name nor a file")
    return fileio.parse_graph(path.read_text())


def _load_orientation(spec: str) -> Orientation:
    name = spec.removeprefix("catalog:")
    try:
        entry = cat.get(name)
    except ValueError:
        entry = None
    if entry is not None:
        if not entry.golden_orientations:
            raise CliError(f"catalog entry {name!r} has no stored orientation")
        return entry.golden_orientations[0]
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"{spec!r} is neither a catalog name nor a file")
    return fileio.parse_orientation(path.read_text())


def _load_word(spec: str, alphabet: tuple[str, ...] | None) -> Word:
    if spec.startswith("catalog:"):
        entry = cat.get(spec.removeprefix("catalog:"))
        if not entry.golden_words:
            raise CliError(f"catalog entry {entry.name!r} has no stored word")
        return entry.golden_words[0][0]
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"word file {spec!r} not found")
    text = path.read_text()
    if alphabet is None:
        tokens = text.split()
        alphabet = tuple(dict.fromkeys(tokens))
    words = fileio.parse_words(text, alphabet)
    if len(words) != 1:
        raise CliError(f"expected exactly one word in {spec!r}, found {len(words)}")
    return words[0]


def _print_word(word: Word, compact: bool):
    print(word.compact_str() if compact else str(word))


def _split_list(arg: str) -> list[str]:
    return [tok for tok in arg.replace(",", " ").split() if tok]


# -- subcommands -------------------------------------------------------


def _cmd_verify(args) -> int:
    G = _load_graph(args.graph)
    w = _load_word(args.word, G.labels)
    verdict = verify_k11(w, G, args.k)
    if verdict:
        if not args.quiet:
            print(f"verified: word is a {args.k}-11-representant")
        return 0
    if not args.quiet:
        x, y, c, rel = verdict.witness
        print(f"refuted: pair {{{x},{y}}} is a {rel} but has {c} occurrence(s) of 11")
    return 1


def _cmd_orient(args) -> int:
    if args.action == "paths":
        if len(args.rest) != 2:
            raise CliError("usage: orient paths <arc-count> <orientation>")
        try:
            args.length = int(args.rest[0])
        except ValueError:
            raise CliError(f"bad arc count {args.rest[0]!r}")
        args.target = args.rest[1]
    else:
        if len(args.rest) != 1:
            raise CliError(f"orient {args.action} takes exactly one target")
        args.target = args.rest[0]
    if args.action == "check":
        D = _load_orientation(args.target)
        if not is_acyclic(D):
            print("not semi-transitive: orientation has a directed cycle")
            return 1
        witness = find_shortcut(D)
        if witness is None:
            print("semi-transitive")
            return 0
        print(
            "not semi-transitive: shortcut along "
            + " -> ".join(witness.path)
            + f" with non-adjacent pair {{{witness.missing[0]},{witness.missing[1]}}}"
        )
        return 1
    if args.action == "check-transitive":
        D = _load_orientation(args.target)
        if is_transitive(D):
            print("transitive")
            return 0
        print("not transitive")
        return 1
    if args.action == "paths":
        D = _load_orientation(args.target)
        paths = directed_paths_with_arcs(D, args.length)
        for p in paths:
            print(" -> ".join(p))
        print(f"{len(paths)} path(s) with {args.length} arcs")
        return 0
    search, refuted = {
        "search": (search_semi_transitive, "not word-representable"),
        "search-transitive": (search_transitive, "not a comparability graph"),
    }[args.action]
    D = search(_load_graph(args.target), max_nodes=_default_max_nodes())
    if D is None:
        print(f"none ({refuted})")
        return 1
    print(fileio.print_orientation(D), end="")
    return 0


def _cmd_construct(args) -> int:
    need = 2 if args.kind == "remove-edges" else 1
    most = 2 if args.kind in ("remove-edges", "remove-matching") else 1
    if len(args.inputs) < need:
        raise CliError(f"construct {args.kind} needs {need} input(s), got {len(args.inputs)}")
    if len(args.inputs) > most:
        raise CliError(f"construct {args.kind} takes at most {most} input(s), got {len(args.inputs)}")
    compact = args.compact
    if args.kind == "mycielski-word":
        word = mycielski_cycle_word(int(args.inputs[0]))
        _print_word(word, compact)
        print("verified: 0-11-represents the Mycielski cycle graph minus its apex")
        return 0
    if args.kind == "three-perm":
        path = Path(args.inputs[0])
        if not path.is_file():
            raise CliError(f"word file {args.inputs[0]!r} not found")
        text = path.read_text()
        alphabet = tuple(dict.fromkeys(text.split()))
        perms = fileio.parse_words(text, alphabet)
        if len(perms) != 3:
            raise CliError("three-perm needs a file with exactly three permutations")
        G = three_perm_graph(*perms)
        word = perms[0].concat(perms[1], perms[2])
        _print_word(word, compact)
        print("verified: 1-11-represents the graph below")
        print(fileio.print_graph(G), end="")
        return 0
    if args.kind == "double":
        w = _load_word(args.inputs[0], None)
        word = double_word(w, args.variant)
        _print_word(word, compact)
        print("verified: 1-11-represents the same graph as the input word")
        return 0
    if args.kind == "split":
        G = _load_graph(args.inputs[0])
        if not (args.clique is not None and args.independent is not None):
            raise CliError("split needs --clique and --independent")
        P = SplitPartition(G, tuple(_split_list(args.clique)), tuple(_split_list(args.independent)))
        word = split_word(P)
        _print_word(word, compact)
        print("verified: permutational 1-11-representant")
        return 0
    if args.kind == "comp-ind":
        G = _load_graph(args.inputs[0])
        if not (args.comp is not None and args.independent is not None):
            raise CliError("comp-ind needs --comp and --independent")
        P = comp_ind_partition(G, _split_list(args.comp), _split_list(args.independent))
        word = comp_plus_ind_word(P)
        _print_word(word, compact)
        print("verified: permutational 1-11-representant")
        return 0
    if args.kind == "remove-edges":
        G = _load_graph(args.inputs[0])
        w = _load_word(args.inputs[1], G.labels)
        parts = [_split_list(p) for p in args.part or []]
        word = remove_edge_sets(G, w, parts, short=args.short)
        _print_word(word, compact)
        print("verified: 1-11-represents the graph minus the internal part edges")
        return 0
    if args.kind == "remove-matching":
        H = _load_graph(args.inputs[0])
        if args.inputs[1:]:
            w = _load_word(args.inputs[1], H.labels)
        elif args.word is not None:
            w = _load_word(args.word, H.labels)
        else:
            raise CliError("remove-matching needs a uniform representant word")
        matching = [tuple(_split_list(e)) for e in args.edge or []]
        for e in matching:
            if len(e) != 2:
                raise CliError("--edge needs exactly two endpoints")
        word = remove_matching(H, matching, w, short=args.short)
        _print_word(word, compact)
        print("verified: 1-11-represents the graph without the matching")
        return 0
    raise CliError(f"unknown construct kind {args.kind!r}")


def _cmd_census(args) -> int:
    if args.graph6 is not None:
        if args.graph6 == "-":
            lines = sys.stdin.read().splitlines()
        else:
            try:
                lines = Path(args.graph6).read_text().splitlines()
            except OSError as exc:
                raise CliError(f"cannot read {args.graph6!r}: {exc.strerror}")
    out = None
    if args.emit_graph6:
        # opened before the census, so that a bad path fails at once
        try:
            out = sys.stdout if args.emit_graph6 == "-" else open(args.emit_graph6, "w")
        except OSError as exc:
            raise CliError(f"cannot write {args.emit_graph6!r}: {exc.strerror}")
    try:
        if args.graph6 is not None:
            result = census_from_graph6(lines, jobs=args.jobs)
        else:
            result = census_non_word_representable(args.n, jobs=args.jobs)
        print(f"n={result.n}: examined {result.examined} graphs, "
              f"{len(result.non_word_representable)} non-word-representable")
        if out is not None:
            for G in result.non_word_representable:
                print(write_graph6(G), file=out)
    finally:
        if out not in (None, sys.stdout):
            out.close()
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in cat.names():
            print(name)
        return 0
    if args.action == "verify":
        report = cat.verify_catalog()
        for entry, artifact, ok, detail in report.checks:
            line = f"{'PASS' if ok else 'FAIL'}  {entry}: {artifact}"
            if detail:
                line += f"  ({detail})"
            print(line)
        return 0 if report.all_ok else 1
    if args.action == "export":
        if args.name is None:
            raise CliError("usage: catalog export <name>")
        entry = cat.get(args.name)
        if args.format == "graph6":
            print(write_graph6(entry.graph))
        else:
            print(fileio.print_graph(entry.graph), end="")
        return 0
    raise CliError(f"unknown catalog action {args.action!r}")


# -- argument parsing --------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description="Word-representation and k-11-representation toolkit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (kernels: {'compiled' if HAVE_EXT else 'pure'})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a word against a graph at level k")
    p.add_argument("graph")
    p.add_argument("word")
    p.add_argument("-k", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("orient", help="orientation checks and searches")
    p.add_argument("action", choices=["check", "check-transitive", "search", "search-transitive", "paths"])
    p.add_argument("rest", nargs="+", help="[arc-count] graph-or-orientation")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("construct", help="representant constructions (self-verified)")
    p.add_argument(
        "kind",
        choices=["three-perm", "double", "remove-edges", "remove-matching", "split", "comp-ind", "mycielski-word"],
    )
    p.add_argument("inputs", nargs="*")
    p.add_argument("--variant", choices=["ww", "rpw"], default="ww")
    p.add_argument("--part", action="append")
    p.add_argument("--edge", action="append")
    p.add_argument("--word")
    p.add_argument("--clique")
    p.add_argument("--independent")
    p.add_argument("--comp")
    p.add_argument("--short", action="store_true")
    p.add_argument("--compact", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("census", help="classify small graphs by word-representability")
    p.add_argument("n", type=int, nargs="?", default=6)
    p.add_argument("--graph6", help="read graphs from a graph6 stream ('-' for stdin)")
    p.add_argument("--emit-graph6", help="dump non-word-representable graphs ('-' for stdout)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("catalog", help="named graphs and golden artifacts")
    p.add_argument("action", choices=["list", "verify", "export"])
    p.add_argument("name", nargs="?")
    p.add_argument("--format", choices=["graphfile", "graph6"], default="graphfile")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 3
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (fileio.ParseError, ConstructionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
