"""Command-line front end.

Subcommands mirror the two spaces: `cm ...` for the Calogero-Moser side,
`hilb ...` for the Hilbert scheme, `part info` for raw partition data and
`verify` for the named invariant checks.  Exit codes: 0 success, 1 a
verification or computation failure, 2 a usage error.  Exponent tables
and closure graphs are computed whole, so that a fault prints nothing, and
then written row by row.
"""

from __future__ import annotations

import functools
import os
import sys
from itertools import chain, islice
from types import SimpleNamespace

from .exactalg import LaurentPolynomial, NonPolynomialError
from .orbits import (
    CALOGERO_MOSER,
    closure_graph,
    cm_orbit,
    hilb_orbit,
    is_borel_stable,
    monomial_ideal,
)
from .partitions import (
    CapExceededError,
    Partition,
    all_hooks_odd,
    diagonals,
    dim_irrep,
    enumerate_partitions,
    hook_lengths,
    hook_polynomial,
    is_staircase,
    is_steep,
    n_stat,
    parse_int,
    parse_partition,
    transpose,
    triangular_index,
    u_map,
)
from .sl2 import (
    NotACharacterError,
    exponent_runs,
    exponent_string,
    sl2_fixed_set,
    tangent_character,
    weights_all_odd,
)
from .symfun import regular_fiber_character


# Cells allowed in a partition argument: hook polynomials and closure data
# of larger shapes take seconds and grow without bound, so they are refused.
PARTITION_CELL_CAP = 200

# Largest staircase index `cm char-L` accepts: the m = 20 staircase has
# 210 cells, in line with PARTITION_CELL_CAP.
STAIRCASE_CAP = 20

# Largest staircase index of an exponent table: `cm exponents` refuses
# n > 36 = 8*9/2 and `verify` refuses --max-m > 8.  The n = 36 table takes
# 6-13 s and 350 MB as text, CSV or JSON (2-core shared box); n = 45 would
# hold 89,134 characters of up to 241 terms.
EXPONENT_STAIRCASE_CAP = 8
EXPONENT_SIZE_CAP = EXPONENT_STAIRCASE_CAP * (EXPONENT_STAIRCASE_CAP + 1) // 2

# Each command's argparse parser by its command words ("cm", "tangent"), filled by build_parser.
_COMMAND_PARSERS: dict = {}


class UsageError(Exception):
    """A refused command line: by an argument's validator, or by a handler after placement."""


def _json_dump(obj, pad="\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True) of a reply value, chosen by its type: an int, a bool, a list or
    tuple, a dict with str keys that need no escape, a Partition (its parts) or a LaurentPolynomial (its
    [[exponent, "coefficient"], ...] terms, one format per term).  Any other type raises TypeError."""
    kind, inner = type(obj), pad + "  "
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is Partition:
        return _json_ints(obj.parts, pad)
    if kind is LaurentPolynomial:
        term = f'{inner}[{inner}  %d,{inner}  "%d"{inner}]'
        return f"[{','.join([term % t for t in obj.sorted_terms()])}{pad}]" if obj else "[]"
    if kind is list or kind is tuple:
        body = ",".join([inner + _json_dump(x, inner) for x in obj])
        return f"[{body}{pad}]" if obj else "[]"
    if kind is dict:
        body = ",".join([f'{inner}"{key}": {_json_dump(obj[key], inner)}' for key in sorted(obj)])
        return f"{{{body}{pad}}}" if obj else "{}"
    raise TypeError(f"cannot write {kind.__name__} {obj!r:.40} as JSON")


def _json_ints(values, pad: str) -> str:
    """_json_dump of a list or tuple of ints, its closing bracket after pad."""
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(map(str, values))}{pad}]" if values else "[]"


def _print_kv(pairs):
    width = max(len(k) for k, _ in pairs)
    sys.stdout.write("".join([f"{key:<{width}}  {value}\n" for key, value in pairs]))


def _partition_arg(text: str) -> Partition:
    try:
        lam = parse_partition(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if lam.size > PARTITION_CELL_CAP:
        raise UsageError(f"partition of {lam.size} cells exceeds the cap {PARTITION_CELL_CAP}")
    return lam


def _size_arg(text: str, cap: int | None = None, triangular: bool = False) -> int:
    """A size or a bound, which must be a positive integer, at most `cap`
    if one is given, and m(m+1)/2 for some m if `triangular`: size 0 holds
    only the empty partition, a bound below 1 leaves nothing to check, and
    only triangular sizes carry a staircase fiber."""
    try:
        value = parse_int(text)
    except ValueError:
        raise UsageError(f"invalid integer {text!r}") from None
    if value < 1:
        raise UsageError(f"must be at least 1, got {value}")
    if cap is not None and value > cap:
        raise UsageError(f"{value} exceeds the cap {cap}")
    if triangular and triangular_index(value) is None:
        raise UsageError(f"{value} is not a triangular number m(m+1)/2")
    return value


def _text(value) -> str:
    """A reply value as a key-value report prints it: a polynomial by its text form, a tuple of ints in comma form."""
    if type(value) is LaurentPolynomial:
        return value.to_text()
    if type(value) is tuple:
        return ",".join(map(str, value))
    return str(value)


def _cmd_part_info(args) -> int:
    lam = args.partition
    rows = [  # (text label, JSON key, value)
        ("partition", "partition", lam),
        ("size", "size", lam.size),
        ("transpose", "transpose", transpose(lam)),
        ("steep", "is_steep", is_steep(lam)),
        ("staircase", "is_staircase", is_staircase(lam)),
        ("all hooks odd", "all_hooks_odd", all_hooks_odd(lam)),
        ("hooks", "hooks", hook_lengths(lam)),
        ("hook polynomial", "hook_polynomial", hook_polynomial(lam)),
        ("n statistic", "n_stat", n_stat(lam)),
        ("irreducible dim", "dim_irrep", dim_irrep(lam)),
        ("diagonals", "diagonals", diagonals(lam)),
        ("u_map", "u_map", u_map(lam)),
        ("Borel stable", "is_borel_stable", is_borel_stable(lam)),
    ]
    if args.format == "json":
        print(_json_dump({"length": len(lam), **{key: value for _, key, value in rows}}))
    else:
        _print_kv([(label, _text(value)) for label, _, value in rows])
    return 0


def _cmd_cm_tangent(args) -> int:
    lam = args.partition
    chi = tangent_character(lam)
    if args.format == "json":
        print(_json_dump({"partition": lam, "character": chi, "weights_all_odd": weights_all_odd(chi)}))
    else:
        print(chi.to_text())
        print(f"all weights odd: {weights_all_odd(chi)}")
    return 0


def _cmd_orbit(args) -> int:
    rep = (cm_orbit if args.words[0] == "cm" else hilb_orbit)(args.partition)
    if args.format == "json":
        print(_reply_json(rep))
    else:
        _print_kv([(key.replace("_", " "), f"{value} (model P1)" if key == "boundary" else value)
                   for key, value in zip(rep._fields, rep) if value is not None])
    return 0


def _write_exponents_json(n: int, rows) -> None:
    """Prints json.dumps({"n": n, "rows": [{"exponents": runs, "partition": parts}, ...]}, indent=2,
    sort_keys=True) row by row, as closure graphs are written: _json_dump of the whole table takes 5-8x the time
    and 34 MB more at n = 28."""
    sys.stdout.write('{\n  "n": %d,\n  "rows": [' % n)
    for i, (lam, runs) in enumerate(rows):
        exponents = ",\n".join("        [\n          %d,\n          %d\n        ]" % run for run in runs)
        sys.stdout.write('%s\n    {\n      "exponents": [\n%s\n      ],\n      "partition": %s\n    }'
                         % ("," if i else "", exponents, _json_ints(lam.parts, "\n      ")))
    sys.stdout.write("\n  ]\n}\n")


def _cmd_cm_exponents(args) -> int:
    rows = [(lam, exponent_runs(lam)) for lam in enumerate_partitions(args.n)]
    if args.format == "json":
        _write_exponents_json(args.n, rows)
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["partition", "exponents"])
        for lam, runs in rows:
            writer.writerow([str(lam), " ".join(f"{value}^{count}" for value, count in runs)])
    else:
        width = max(len(str(lam)) for lam, _ in rows)
        for lam, runs in rows:
            print(f"{str(lam):<{width}} | {exponent_string(runs)}")
    return 0


def _cmd_cm_char_l(args) -> int:
    chi = regular_fiber_character(args.m)
    if args.format == "json":
        print(_json_dump({"m": args.m, "character": chi, "dimension": chi.coefficient_sum()}))
    else:
        print(chi.to_text())
        print(f"dimension: {chi.coefficient_sum()}")
    return 0


def _cmd_cm_fixed(args) -> int:
    fixed = sorted(sl2_fixed_set(args.n), key=lambda p: p.parts)
    if args.format == "json":
        print(_json_dump({"n": args.n, "fixed": fixed}))
    else:
        if fixed:
            for lam in fixed:
                print(lam)
        else:
            print("(empty)")
    return 0


def _cmd_hilb_ideal(args) -> int:
    ideal = monomial_ideal(args.partition)
    if args.format == "json":
        print(_json_dump(ideal._asdict()))
    else:
        _print_kv([
            ("partition", str(ideal.shape)),
            ("generators", ", ".join(ideal.generator_strings())),
            ("graded dims", _text(ideal.graded_dims)),
        ])
    return 0


def _report_writer(pad: str):
    """A writer of one orbit report's fields as json.dumps(..., indent=2, sort_keys=True) writes them, the closing
    brace after pad; the formats are made once per pad, and each report fills them in one pass."""
    inner, deeper = pad + "  ", pad + "    "
    report = (f'{{%s{inner}"closed": %s,%s{inner}"orbit_model": "%s",{inner}"partition": %s,%s'
              f'{inner}"space": "%s",{inner}"stabilizer": "%s"{pad}}}')
    boundary = f'{inner}"boundary": {{{deeper}"model": "P1",{deeper}"partition": %s{inner}}},'
    orbit_id, partner = f'{inner}"orbit_id": "%s",', f'{inner}"partner": %s,'

    def write(rep) -> str:
        return report % (
            "" if rep.boundary is None else boundary % _json_ints(rep.boundary.parts, deeper),
            "true" if rep.closed else "false",
            orbit_id % rep.orbit_id if rep.space == CALOGERO_MOSER else "",
            rep.orbit_model, _json_ints(rep.partition.parts, inner),
            "" if rep.partner is None else partner % _json_ints(rep.partner.parts, inner),
            rep.space, rep.stabilizer,
        )
    return write


# an orbit report as a reply, and as a node of the closure JSON
_reply_json, _node_json = _report_writer("\n"), _report_writer("\n    ")


def _closure_json(graph):
    """Yields json.dumps({"edges": [[src, dst], ...], "n": n, "nodes": [report, ...], "space": space}, indent=2,
    sort_keys=True) edge by edge and node by node, each node by _node_json: at n = 45 the whole document took
    286 MB, where the graph alone holds 59 MB."""
    pad = "\n      "
    yield '{\n  "edges": ['
    for i, (src, dst) in enumerate(graph.edges):
        yield ('%s\n    [\n      %s,\n      %s\n    ]'
               % ("," if i else "", _json_ints(src.parts, pad), _json_ints(dst.parts, pad)))
    yield '%s],\n  "n": %d,\n  "nodes": [' % ("\n  " if graph.edges else "", graph.n)
    for i, node in enumerate(graph.nodes):
        yield (",\n    " if i else "\n    ") + _node_json(node)
    yield '\n  ],\n  "space": "%s"\n}\n' % graph.space  # a graph has a node, () at n = 0


def _write_chunked(pieces) -> None:
    """Writes the strings pieces to stdout 256 to a write: a write per piece costs
    about 1 us, and one join of them all would hold the whole document."""
    pieces = iter(pieces)
    while chunk := list(islice(pieces, 256)):
        sys.stdout.write("".join(chunk))


def _cmd_hilb_closure(args) -> int:
    # the graph is built whole first, so that a fault prints nothing, and then written piece by piece
    graph = closure_graph(args.n, args.space)
    if args.format == "json":
        pieces = _closure_json(graph)
    elif args.format == "dot":
        shapes = {True: "doublecircle", False: "circle"}
        pieces = chain(["digraph closure {\n"],
                       (f'  "{node.partition}" [shape={shapes[node.closed]}];\n' for node in graph.nodes),
                       (f'  "{src}" -> "{dst}";\n' for src, dst in graph.edges), ["}\n"])
    else:
        pieces = (f"{src} -> {dst}\n" for src, dst in graph.edges) if graph.edges else ["(no edges)\n"]
    _write_chunked(pieces)
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # the check suite loads only for this command

    if args.list:
        for name in verify.CHECKS:
            print(name)
        return 0
    unknown = [c for c in args.checks if c != "all" and c not in verify.CHECKS]
    if unknown:
        raise UsageError(
            f"unknown check {unknown[0]!r}; run `cmhilb verify --list` for names"
        )
    selected = list(verify.CHECKS) if "all" in args.checks else args.checks
    # the layered fiber identity lists no partitions, only multiplies polynomials, and stops where `cm char-L`
    # does (about 1 s at m = 20); every other check stops where exponent tables do
    cap = STAIRCASE_CAP if set(selected) == {"fiber-layer-factorization"} else EXPONENT_STAIRCASE_CAP
    if args.max_m > cap:
        raise CapExceededError(f"--max-m {args.max_m} exceeds the cap {cap} of the checks selected")
    ok = verify.run_checks(selected, verify.Limits(max_n=args.max_n, max_m=args.max_m))
    return 0 if ok else 1


def _format(*choices):
    """The --format option of a command, text by default."""
    return {"--format": ("format", choices or ("text", "json"), "text", "output format (default text)")}


_PARTITION, _SIZE = [("partition", _partition_arg, None)], [("n", _size_arg, None)]

# Each command once, by its words: help, handler, positionals as (dest, validator, help) and options by flag as
# (dest, choices, default, help).  _placed places a well-formed line by it without argparse, and build_parser
# builds the full tree from it.  verify's arguments take several words or none, so it has None here:
# build_parser adds them, and every verify line goes through the full tree.
COMMANDS = {
    ("part", "info"): ("hooks, diagonals, rectification and statistics", _cmd_part_info,
                       [("partition", _partition_arg, 'comma form, e.g. "4,3,3,1,1"')], _format()),
    ("cm", "tangent"): ("tangent-space character at a fixed point", _cmd_cm_tangent, _PARTITION, _format()),
    ("cm", "orbit"): ("orbit and stabilizer of a fixed point", _cmd_orbit, _PARTITION, _format()),
    ("cm", "exponents"): ("exponent table for all partitions of n", _cmd_cm_exponents,
                          [("n", functools.partial(_size_arg, cap=EXPONENT_SIZE_CAP, triangular=True), None)],
                          _format("text", "json", "csv")),
    ("cm", "char-L"): ("graded character of the staircase fiber", _cmd_cm_char_l,
                       [("m", functools.partial(_size_arg, cap=STAIRCASE_CAP), None)], _format()),
    ("cm", "fixed"): ("partitions of n fixed by the full group action", _cmd_cm_fixed, _SIZE, _format()),
    ("hilb", "orbit"): ("orbit, stabilizer and boundary of a fixed point", _cmd_orbit, _PARTITION, _format()),
    ("hilb", "ideal"): ("monomial ideal generators and graded dimensions", _cmd_hilb_ideal, _PARTITION, _format()),
    ("hilb", "closure"): ("orbit-closure graph over all partitions of n", _cmd_hilb_closure, _SIZE,
                          {"--space": ("space", ("hilbert", "calogero-moser"), "hilbert", None),
                           **_format("text", "json", "dot")}),
    ("verify",): ("run named invariant checks", _cmd_verify, None, {}),
}
_GROUP_HELP = {"part": "partition combinatorics", "cm": "Calogero-Moser space",
               "hilb": "Hilbert scheme of points in the plane"}


@functools.cache
def build_parser():
    """The argparse tree of COMMANDS, built on the first call and then reused for the life of the process.  Only
    lines that _placed declines (help, refusals, verify) and refusals after placement need it, so argparse loads
    here.  Each command parser's defaults are its handler (`func`) and its `words`, bound when the tree is
    built: tests patch what a handler calls instead, such as `verify.run_checks`."""
    import argparse

    def typed(check):
        def argparse_type(text):  # a validator's refusal, worded as argparse words a type's
            try:
                return check(text)
            except UsageError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return argparse_type

    parser = argparse.ArgumentParser(
        prog="cmhilb",
        description="Exact hook, character and orbit computations for "
        "torus-fixed points on Hilbert schemes and Calogero-Moser spaces.",
    )
    groups = {(): parser.add_subparsers(dest="group", required=True)}
    for words, (help, func, positionals, options) in COMMANDS.items():
        if words[:-1] not in groups:
            group = groups[()].add_parser(words[0], help=_GROUP_HELP[words[0]])
            groups[words[:-1]] = group.add_subparsers(dest="command", required=True)
        p = _COMMAND_PARSERS[words] = groups[words[:-1]].add_parser(words[-1], help=help)
        p.set_defaults(func=func, words=words)
        for dest, check, text in positionals or ():
            p.add_argument(dest, type=typed(check), help=text)
        for flag, (_, choices, default, text) in options.items():
            p.add_argument(flag, choices=choices, default=default, help=text)
    ver = _COMMAND_PARSERS[("verify",)]
    ver.add_argument("checks", nargs="*", default=("all",), help='check names, or "all" (default)')
    ver.add_argument("--max-n", type=typed(_size_arg), default=20, help="combinatorial size bound (default 20)")
    ver.add_argument("--max-m", type=typed(_size_arg), default=4,
                     help="staircase bound for character identities (default 4)")
    ver.add_argument("--list", action="store_true", help="list check names and exit")
    return parser


def _placed(words, rest):
    """The namespace that the command parser of `words` gives for the rest of the line, or None for a line that
    the table cannot place exactly as argparse would: help, `--opt=value`, `--`, any other word that starts with
    `-` where a value belongs, a positional missing or over, or a value that its validator or choices refuse."""
    _, func, positionals, options = COMMANDS[words]
    if positionals is None:
        return None
    values, rest, placed = {"func": func, "words": words}, iter(rest), 0
    for dest, _, default, _ in options.values():
        values[dest] = default
    for word in rest:
        if word in options:
            dest, choices, _, _ = options[word]
            if (value := next(rest, None)) not in choices:  # also a missing value
                return None
        elif placed < len(positionals) and not word.startswith("-"):  # argparse reads that as an option
            (dest, check, _), placed = positionals[placed], placed + 1
            try:
                value = check(word)
            except (UsageError, TypeError, ValueError):  # the refusals argparse words
                return None
        else:
            return None
        values[dest] = value
    return SimpleNamespace(**values) if placed == len(positionals) else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Place the rest of a named command's line by its table entry; a line the table declines, or that names no
    # command, goes through the full tree, which words its help and every refusal.
    words = tuple(argv[:2]) if tuple(argv[:2]) in COMMANDS else tuple(argv[:1])
    args = _placed(words, argv[len(words):]) if words in COMMANDS else None
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CapExceededError) as exc:
        build_parser()  # the command's parser words the refusal, as it words one made while parsing
        _COMMAND_PARSERS[args.words].error(str(exc))
    except (NonPolynomialError, NotACharacterError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: the computation outgrew this process; "
              "try a smaller size", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
