"""Command line front end.

Each command's arguments are one table, ``_SUBCOMMANDS``.  A well-formed
command line is read straight from it and never imports argparse: a
known command, then only its exact flags, each value in its own token,
integers in ASCII digits, and each positional once.  argparse, built from
the same table, answers every other line: help, usage, refusals,
abbreviations, "--" and "--flag=value".

Exit codes: 0 success, 1 internal inconsistency, 2 bad input or resource
cap, 3 a checked mathematical claim failed on the given instance.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import coxeter
from .acceptance import CRITERIA, run_criterion, theorem_report
from .construction import build_C, verify_L4_is_S5
from .coxeter import coxeter_to_json_dict
from .errors import (EnumerationCapExceeded, FalsificationError,
                     InternalInconsistencyError, PreconditionError)
from .graphs import (FiniteGraph, f_reduce, graph_from_json_dict,
                     graph_from_text, graph_to_json_dict, graph_to_text)
from .homomorphisms import (presentation_of, presentation_to_json_dict,
                            presentation_to_text)
from .oracles import DEFAULT_RADIUS, SWEEP_MAX_RADIUS, check_radius
from .parabolics import classify_s5_classes
from .reconstruction import k_graph

if TYPE_CHECKING:
    import argparse


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        import argparse
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc


def _load_irreflexive_graph(path: str) -> FiniteGraph:
    text = _read_source(path)
    if text.lstrip().startswith("{"):
        # ValueError also covers integers past Python's digit limit
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise PreconditionError(f"bad JSON in {path}: {exc}") from exc
        g = graph_from_json_dict(data)
    else:
        g = graph_from_text(text)
    if not isinstance(g, FiniteGraph) or g.reflexive:
        raise PreconditionError(
            "this command needs a plain irreflexive graph")
    return g


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


# --- subcommands -----------------------------------------------------------


def _cmd_reduce_f(args) -> int:
    g = _load_irreflexive_graph(args.graph)
    pointed = f_reduce(g)
    if args.json:
        _emit(json.dumps(graph_to_json_dict(pointed), indent=2), args.output)
    else:
        _emit(graph_to_text(pointed), args.output)
    return 0


def _cmd_emit_presentation(args) -> int:
    g = _load_irreflexive_graph(args.graph)
    pres = presentation_of(build_C(g).matrix)
    if args.json:
        _emit(json.dumps(presentation_to_json_dict(pres), indent=2),
              args.output)
    else:
        _emit(presentation_to_text(pres), args.output)
    return 0


def _cmd_build_coxeter(args) -> int:
    g = _load_irreflexive_graph(args.graph)
    C = build_C(g).matrix
    if args.json:
        _emit(json.dumps(coxeter_to_json_dict(C), indent=2), args.output)
        return 0
    lines = [f"rank {C.n}", "generators: " + " ".join(C.names),
             "finite labels (all unlisted pairs are unbounded):"]
    for i in range(C.n):
        for j in range(i + 1, C.n):
            m = C.label(i, j)
            if m != coxeter.INFINITE:
                lines.append(f"  {C.names[i]} {C.names[j]} {m}")
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_ks_classes(args) -> int:
    g = _load_irreflexive_graph(args.graph)
    system = build_C(g)
    classes = classify_s5_classes(system)
    names = system.matrix.names
    if args.json:
        payload = {"classes": [
            sorted(sorted(names[i] for i in member) for member in cls.members)
            for cls in classes]}
        _emit(json.dumps(payload, indent=2), args.output)
        return 0
    lines = []
    for v, cls in enumerate(classes):
        parts = sorted("{" + ",".join(sorted(names[i] for i in member)) + "}"
                       for member in cls.members)
        lines.append(f"class {v}: " + " ".join(parts))
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_k_graph(args) -> int:
    g = _load_irreflexive_graph(args.graph)
    kg = k_graph(g)
    names = kg.system.matrix.names

    def word_names(word):
        return [names[i] for i in word]

    if args.json:
        payload = graph_to_json_dict(kg.graph)
        payload["witnesses"] = {
            f"{u}-{v}": [word_names(wa), word_names(wb)]
            for (u, v), (wa, wb) in sorted(kg.witnesses.items())}
        _emit(json.dumps(payload, indent=2), args.output)
        return 0
    lines = [graph_to_text(kg.graph).rstrip("\n")]
    for (u, v), (wa, wb) in sorted(kg.witnesses.items()):
        lines.append(f"w {u} {v}: " + " ".join(word_names(wa))
                     + " | " + " ".join(word_names(wb)))
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_verify_l4(args) -> int:
    report = verify_L4_is_S5()
    print(f"order {report.order}")
    print(f"nonabelian {report.nonabelian}")
    print(f"even subgroup order {report.even_order}")
    print(f"even subgroup closed {report.even_is_subgroup}")
    print(f"even subgroup simple {report.even_is_simple}")
    return 0


def _cmd_check_theorem(args) -> int:
    report = theorem_report(args.max_vertices,
                            inject_fault=args.inject_fault)
    print(f"graphs: {report.graph_count}")
    print(f"ordered pairs: {report.pair_count}")
    print(f"epimorphisms: {report.epimorphisms}")
    for i, j, message in report.failures:
        print(f"pair {i} -> {j}: {message}")
    if report.failures:
        print("verdict: FAIL")
        return 3
    print("verdict: PASS")
    return 0


def _cmd_acceptance(args) -> int:
    known = [num for num, _, _ in CRITERIA]
    numbers = args.criterion or known
    for num in numbers:
        if num not in known:
            raise PreconditionError(f"no criterion {num}; have {known}")
    results = [run_criterion(num, args.radius) for num in numbers]
    for res in results:
        print(res.line())
    if all(res.passed for res in results):
        return 0
    if any(res.falsified for res in results):
        return 3
    return 1


# --- arguments -------------------------------------------------------------


class _Arg(NamedTuple):
    """One argument of a command: its flags, then what add_argument takes.

    A positional has its name as its one flag; an option lists its long
    flag last.  Every argument with a type is an integer."""
    flags: tuple[str, ...]
    help: str | None = None
    type: Callable[[str], int] | None = None
    default: object = None
    action: str | None = None  # "store_true" or "append"; None stores

    @property
    def dest(self) -> str:
        """The attribute argparse sets: the name, or the long flag."""
        return self.flags[-1].lstrip("-").replace("-", "_")


_UNUSED_RADIUS = (f"checked to lie in 0..{SWEEP_MAX_RADIUS}, otherwise "
                  "unused: the normaliser certificate needs no radius")
_RADIUS = _Arg(("--radius",), _UNUSED_RADIUS, _nonnegative_int,
               DEFAULT_RADIUS)
_GRAPH_IO = (
    _Arg(("graph",), "graph file (text or JSON), '-' for stdin"),
    _Arg(("-o", "--output"), "write to this file instead of stdout"),
    _Arg(("--json",), "emit JSON instead of text", default=False,
         action="store_true"),
)

# name: (help, handler, arguments), in the order --help lists them
_SUBCOMMANDS = {
    "reduce-f": ("complement the graph, add loops and a dominating base "
                 "vertex", _cmd_reduce_f, _GRAPH_IO),
    "emit-presentation": ("print the reflection presentation of the block "
                          "system over a graph", _cmd_emit_presentation,
                          _GRAPH_IO),
    "build-coxeter": ("print the label matrix of the block system",
                      _cmd_build_coxeter, _GRAPH_IO),
    "ks-classes": ("conjugacy classes of the block subgroups",
                   _cmd_ks_classes, _GRAPH_IO),
    "k-graph": ("reconstruct the graph from the block system",
                _cmd_k_graph, (*_GRAPH_IO, _RADIUS)),
    "verify-l4": ("check the one-block group is the expected order-120 "
                  "group with a simple even half", _cmd_verify_l4, ()),
    "check-theorem": ("count every epimorphism between small graphs, lift "
                      "each pair's first and check its round trip",
                      _cmd_check_theorem, (
                          _Arg(("--max-vertices",), None, _nonnegative_int,
                               2),
                          _RADIUS,
                          _Arg(("--inject-fault",),
                               "corrupt one lifted map to confirm the "
                               "relator check can fail", default=False,
                               action="store_true"))),
    "acceptance": ("run the acceptance criteria", _cmd_acceptance, (
        _Arg(("--criterion",), "run only this criterion (repeatable)", int,
             action="append"),
        _RADIUS._replace(help=None))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with only the named one.

    A parser for one command still lists them all in its usage line, so
    its messages read byte for byte as the full parser's would.  The full
    parser keeps argparse's own listing, which names the argument
    "command" when it refuses an unknown one."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="epicox",
        description="finite-graph reduction through right-angled-ish "
                    "reflection groups, with verification tooling")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_SUBCOMMANDS) + "}")
    for name, (help_text, func, arguments) in _SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for arg in arguments:
                p.add_argument(*arg.flags, **{
                    key: value for key, value in arg._asdict().items()
                    if key != "flags" and value is not None})
            p.set_defaults(func=func)
    return parser


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for a well-formed command line, or
    None for any other.

    Well formed: a command, then its exact flags, each value in the token
    after its flag and not starting with "-", an integer value in ASCII
    digits that its type takes, and the command's positionals (tokens not
    starting with "-", or "-" itself), none missing and none extra.  Help,
    abbreviations, "--", "--flag=value" and every refusal are left to
    argparse."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, func, arguments = _SUBCOMMANDS[argv[0]]
    values = {arg.dest: arg.default for arg in arguments}
    options = {flag: arg for arg in arguments for flag in arg.flags
               if flag.startswith("-")}
    positionals = [arg.dest for arg in arguments
                   if not arg.flags[0].startswith("-")]
    tokens = iter(argv[1:])
    for token in tokens:
        arg = options.get(token)
        if arg is None:
            if token.startswith("-") and token != "-" or not positionals:
                return None
            values[positionals.pop(0)] = token
            continue
        if arg.action == "store_true":
            values[arg.dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if arg.type is not None:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = arg.type(value)
            except ValueError:  # past Python's int-string digit limit
                return None
        if arg.action == "append":
            values[arg.dest] = [*(values[arg.dest] or ()), value]
        else:
            values[arg.dest] = value
    if positionals:
        return None
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv)
    if args is None:
        # argparse answers, with a parser for the command named first, or
        # the full one for anything else (--help, no arguments, an unknown
        # command)
        command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = build_parser(command).parse_args(argv)
    try:
        # one refusal of the radius, before any command reads its input
        check_radius(getattr(args, "radius", 0))
        return args.func(args)
    except PreconditionError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except FalsificationError as exc:
        print(f"claim falsified: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
