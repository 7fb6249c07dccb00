"""Command-line front end.

argparse declares every operand: each ``orient`` and ``catalog`` action and
each ``construct`` kind is a subparser with its own operands and flags, and
``census`` takes N or ``--graph6``, not both. A usage error prints one
``error: <command>: ...`` line and exits 2, like a parse or file error.

Exit status contract, stable across subcommands:
  0 verified / constructed / found
  1 refuted / not found
  2 usage, parse or file error
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
    _verified,
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
from .graph6 import write_graph6
from .orient import (
    BudgetExceeded,
    Orientation,
    directed_paths_with_arcs,
    find_shortcut,
    is_acyclic,
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError, so that main() prints one line."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


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


def _entry(spec: str) -> cat.CatalogEntry | None:
    """The catalog entry an operand names, or None for a file: a ``catalog:``
    or ``mycielski-c:`` operand names an entry only (a bad one raises the
    catalog's own error), any other one if the catalog has that name."""
    name = spec.removeprefix("catalog:")
    if name == spec and not name.startswith("mycielski-c:") and name not in cat.names():
        return None
    return cat.get(name)


def _read(spec: str) -> str:
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"{spec!r} is neither a catalog name nor a file")
    return path.read_text()


def _load_graph(spec: str) -> Graph:
    entry = _entry(spec)
    if entry is None:
        return fileio.parse_graph(_read(spec))
    return entry.graph


def _load_orientation(spec: str) -> Orientation:
    entry = _entry(spec)
    if entry is None:
        return fileio.parse_orientation(_read(spec))
    if not entry.golden_orientations:
        raise CliError(f"catalog entry {entry.name!r} has no stored orientation")
    return entry.golden_orientations[0]


def _load_words(spec: str, alphabet: tuple[str, ...] | None, count: int) -> list[Word]:
    """Exactly ``count`` words from a file; with no alphabet, its tokens in first-seen order."""
    words = fileio.parse_words(_read(spec), alphabet)
    if len(words) != count:
        raise CliError(f"expected exactly {count} word(s) in {spec!r}, found {len(words)}")
    return words


def _load_word(spec: str, alphabet: tuple[str, ...] | None) -> Word:
    entry = _entry(spec)
    if entry is None:
        return _load_words(spec, alphabet, 1)[0]
    if not entry.golden_words:
        raise CliError(f"catalog entry {entry.name!r} has no stored word")
    return entry.golden_words[0][0]


def _split_list(arg: str) -> list[str]:
    return [tok for tok in arg.replace(",", " ").split() if tok]


def _edge(arg: str) -> tuple[str, ...]:
    edge = tuple(_split_list(arg))
    if len(edge) != 2:
        raise argparse.ArgumentTypeError(f"{arg!r} is not two endpoints")
    return edge


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
    if args.action in ("search", "search-transitive"):
        G = _load_graph(args.target)
        if args.action == "search":
            D, refuted = search_semi_transitive(G, max_nodes=_default_max_nodes()), "not word-representable"
        else:
            D, refuted = search_transitive(G), "not a comparability graph"
        if D is None:
            print(f"none ({refuted})")
            return 1
        print(fileio.print_orientation(D), end="")
        return 0
    D = _load_orientation(args.target)
    if args.action == "check":
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
        if is_transitive(D):
            print("transitive")
            return 0
        print("not transitive")
        return 1
    paths = directed_paths_with_arcs(D, args.arcs)
    for p in paths:
        print(" -> ".join(p))
    print(f"{len(paths)} path(s) with {args.arcs} arcs")
    return 0


def _cmd_construct(args) -> int:
    after = ""  # printed below the verified line
    if args.kind == "mycielski-word":
        word = mycielski_cycle_word(args.n)
        claim = "0-11-represents the Mycielski cycle graph minus its apex"
    elif args.kind == "three-perm":
        perms = _load_words(args.file, None, 3)
        G = three_perm_graph(*perms)
        word = _verified(perms[0].concat(perms[1], perms[2]), G, 1)
        claim = "1-11-represents the graph below"
        after = fileio.print_graph(G)
    elif args.kind == "double":
        word = double_word(_load_word(args.word, None), args.variant)
        claim = "1-11-represents the same graph as the input word"
    elif args.kind == "split":
        P = SplitPartition(_load_graph(args.graph), tuple(args.clique), tuple(args.independent))
        word = split_word(P)
        claim = "permutational 1-11-representant"
    elif args.kind == "comp-ind":
        P = comp_ind_partition(_load_graph(args.graph), args.comp, args.independent)
        word = comp_plus_ind_word(P)
        claim = "permutational 1-11-representant"
    elif args.kind == "remove-edges":
        G = _load_graph(args.graph)
        word = remove_edge_sets(G, _load_word(args.word, G.labels), args.part, short=args.short)
        claim = "1-11-represents the graph minus the internal part edges"
    else:  # remove-matching
        H = _load_graph(args.graph)
        word = remove_matching(H, args.edge, _load_word(args.word, H.labels), short=args.short)
        claim = "1-11-represents the graph without the matching"
    print(word.compact_str() if args.compact else str(word))
    print(f"verified: {claim}")
    print(after, end="")
    return 0


def _cmd_census(args) -> int:
    if args.graph6 == "-":
        lines = sys.stdin.read().splitlines()
    elif args.graph6 is not None:
        lines = Path(args.graph6).read_text().splitlines()
    out = None
    if args.emit_graph6 == "-":
        out = sys.stdout
    elif args.emit_graph6:
        # before the census, so that a bad path fails at once; appending keeps
        # what the file holds until the census has succeeded
        out = open(args.emit_graph6, "a")
    try:
        if args.graph6 is not None:
            result = census_from_graph6(lines, jobs=args.jobs)
        else:
            result = census_non_word_representable(args.n, jobs=args.jobs)
        print(f"n={result.n}: examined {result.examined} graphs, "
              f"{len(result.non_word_representable)} non-word-representable")
        if out is not None:
            if out is not sys.stdout and os.path.isfile(args.emit_graph6):
                out.truncate(0)  # a pipe or a device cannot be truncated
            for G in result.non_word_representable:
                print(write_graph6(G), file=out)
    finally:
        if out not in (None, sys.stdout):
            try:
                out.close()
            except OSError as exc:  # a flush on close names no file
                raise OSError(exc.errno, exc.strerror, args.emit_graph6) from exc
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
    entry = cat.get(args.name)  # export
    if args.format == "graph6":
        print(write_graph6(entry.graph))
    else:
        print(fileio.print_graph(entry.graph), end="")
    return 0


# -- argument parsing --------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("check", "check-transitive", "search", "search-transitive"):
        actions.add_parser(action).add_argument("target")
    a = actions.add_parser("paths")
    a.add_argument("arcs", type=int)
    a.add_argument("target")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("construct", help="representant constructions (self-verified)")
    kinds = p.add_subparsers(dest="kind", required=True)

    def kind(name: str, *operands: str) -> argparse.ArgumentParser:
        k = kinds.add_parser(name)
        for operand in operands:
            k.add_argument(operand)
        k.add_argument("--compact", action="store_true")
        return k

    kind("mycielski-word").add_argument("n", type=int)
    kind("three-perm", "file")
    kind("double", "word").add_argument("--variant", choices=["ww", "rpw"], default="ww")
    k = kind("split", "graph")
    k.add_argument("--clique", type=_split_list, required=True)
    k.add_argument("--independent", type=_split_list, required=True)
    k = kind("comp-ind", "graph")
    k.add_argument("--comp", type=_split_list, required=True)
    k.add_argument("--independent", type=_split_list, required=True)
    k = kind("remove-edges", "graph", "word")
    k.add_argument("--part", type=_split_list, action="append", default=[])
    k.add_argument("--short", action="store_true")
    k = kind("remove-matching", "graph")
    k.add_argument("--word", required=True)
    k.add_argument("--edge", type=_edge, action="append", default=[])
    k.add_argument("--short", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("census", help="classify small graphs by word-representability")
    source = p.add_mutually_exclusive_group()
    source.add_argument("n", type=int, nargs="?", default=6)
    source.add_argument("--graph6", help="read graphs from a graph6 stream ('-' for stdin)")
    p.add_argument("--emit-graph6", help="dump non-word-representable graphs ('-' for stdout)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("catalog", help="named graphs and golden artifacts")
    actions = p.add_subparsers(dest="action", required=True)
    actions.add_parser("list")
    actions.add_parser("verify")
    a = actions.add_parser("export")
    a.add_argument("name")
    a.add_argument("--format", choices=["graphfile", "graph6"], default="graphfile")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 3
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (fileio.ParseError, ConstructionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
