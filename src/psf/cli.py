"""Command-line front end.

Subcommands: ``info`` (enumerative and singularity report), ``check``
(normality verification), ``build`` (replay a build script with its
g-ledger), ``decompose`` (run the decomposition engine and write the
tree), ``verify-identities`` (randomized identity sweep).

Exit codes: 0 ok, 1 check failure, 2 parse error, unreadable input or
unwritable output, 3 unknown verdict, 4 ledger mismatch or inadmissible
build step, 5 not optimal, 6 irreducible base encountered.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .complexes import Complex, ComplexError
from .build import fold_deltas
from .buildscript import ScriptError, dump_script, load_script, replay
from .decompose import (
    MODES,
    MODE_EDGE,
    DecompositionError,
    NotOptimal,
    UnknownSingularity,
    decompose,
)
from .enumeration import f_vector, g1, g2, g3, h_vector
from .fileio import ParseError, format_complex, parse_complex
from .verify import _classify_normal_vertices, is_normal_pseudomanifold

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_UNKNOWN_VERDICT = 3
EXIT_LEDGER = 4
EXIT_NOT_OPTIMAL = 5
EXIT_IRREDUCIBLE = 6


class Inaccessible(Exception):
    """An input file that cannot be read as text, or an unwritable output."""


def _read_text(path: str) -> str:
    """The file's text with its line endings as written (see ``psf.fileio``)."""
    try:
        with open(path, newline="") as f:
            return f.read()
    except OSError as exc:
        raise Inaccessible(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise Inaccessible(f"cannot read {path}: not {exc.encoding} text ({exc.reason})") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise Inaccessible(f"cannot write {path}: {exc.strerror}") from exc


def _read_complex(path: str) -> Complex:
    return parse_complex(_read_text(path))


def _verdicts(k: Complex) -> tuple[str, str]:
    """The ``singular:`` line and the unknown vertices of a normal complex."""
    verdicts = _classify_normal_vertices(k)
    singular, unknown = (" ".join(str(v) for v in sorted(verdicts) if verdicts[v].status == s)
                         for s in ("singular", "unknown"))
    return f"singular: {singular or 'none'}", unknown


def cmd_info(args) -> int:
    k = _read_complex(args.path)
    report = is_normal_pseudomanifold(k)  # first, so f_vector reads the face tables it counts
    fv = f_vector(k)
    print(f"dimension: {k.dim}")
    print(f"vertices: {len(k.vertices)}")
    print("f =", " ".join(str(x) for x in fv.entries))
    if k.is_pure:
        hv = h_vector(k)
        print("h =", " ".join(str(x) for x in hv.h))
        if k.dim >= 1:
            print(f"g1 = {g1(k)}")
        if k.dim >= 2:
            print(f"g2 = {g2(k)}")
        if k.dim >= 3:
            print(f"g3 = {g3(k)}")
    print(f"normal pseudomanifold: {'yes' if report.normal else 'no'}")
    if k.dim in (3, 4) and report.normal:
        singular, unknown = _verdicts(k)
        print(singular)
        if unknown:
            print("unknown:", unknown)
    return EXIT_OK


def cmd_check(args) -> int:
    k = _read_complex(args.path)
    report = is_normal_pseudomanifold(k)
    if not report.normal:
        print("not a normal pseudomanifold")
        for key, items in report.witnesses.items():
            print(f"  {key}: {items}")
        flags = {
            "pure": report.pure,
            "ridge_degrees": report.ridge_degrees_ok,
            "strongly_connected": report.strongly_connected,
            "links_connected": report.links_connected,
        }
        print("  flags:", ", ".join(f"{k}={v}" for k, v in flags.items()))
        return EXIT_CHECK_FAILED
    print("normal pseudomanifold")
    if args.strict and k.dim in (3, 4):
        singular, unknown = _verdicts(k)
        if unknown:
            print("unknown singularity verdicts at:", unknown)
            return EXIT_UNKNOWN_VERDICT
        print(singular)
    return EXIT_OK


def cmd_build(args) -> int:
    doc = load_script(_read_text(args.script))
    try:
        result = replay(doc)
    except ScriptError:
        raise  # a malformed step is a parse error
    except ComplexError as exc:
        print(f"build failed: {exc}")
        return EXIT_LEDGER
    print(f"{'step':>4} {'op':<22} {'g2':>6} {'g3':>6}  delta(g2,g3)  check")
    for row in result.ledger:
        delta = (
            f"({row.delta_g2},{row.delta_g3})" if row.delta_g2 is not None else "-"
        )
        check = "ok" if row.ok else "MISMATCH" if row.checked else "-"
        g2s = "-" if row.g2 is None else str(row.g2)
        g3s = "-" if row.g3 is None else str(row.g3)
        print(f"{row.step:>4} {row.op:<22} {g2s:>6} {g3s:>6}  {delta:<12}  {check}")
    if args.output:
        _write_text(args.output, format_complex(result.final))
        print(f"wrote {args.output}")
    if not result.ledger_ok:
        print("g-ledger mismatch")
        return EXIT_LEDGER
    return EXIT_OK


def cmd_decompose(args) -> int:
    k = _read_complex(args.path)
    try:
        tree = decompose(k, args.vertex, mode=args.mode)
    except NotOptimal as exc:
        print(f"not optimal: {exc}")
        return EXIT_NOT_OPTIMAL
    except UnknownSingularity as exc:
        print(f"unknown singularity verdict: {exc}")
        return EXIT_UNKNOWN_VERDICT
    except DecompositionError as exc:
        print(f"decomposition failed: {exc}")
        return EXIT_CHECK_FAILED
    counters = tree.counters
    m, n, base_g2, total = tree.g2_accounting()
    print(
        "counters:",
        f"edge_folds={m}",
        f"vertex_folds={n}",
        f"connected_sums={counters['connected_sums']}",
        f"inverse_subdivisions={counters['inverse_subdivisions']}",
    )
    edge, vertex = (fold_deltas(op, k.dim)[0] for op in ("edge_fold", "vertex_fold"))
    print(f"g2 accounting: {edge}*{m} + {vertex}*{n} + {base_g2} = {total}, g2(input) = {g2(k)}")
    if args.output:
        _write_text(args.output, dump_script(tree.to_dict()))
        print(f"wrote {args.output}")
    if counters["irreducible"]:
        print("irreducible base encountered")
        return EXIT_IRREDUCIBLE
    return EXIT_OK


def cmd_verify_identities(args) -> int:
    from .identities import run_identity_suite  # only this command needs the module

    report = run_identity_suite(
        scripts=args.seeds, max_ops=args.ops, base_seed=args.base_seed
    )
    for line in report.summary_lines():
        print(line)
    for failure in report.failures:
        print("FAIL:", failure)
    if not report.ok:
        return EXIT_CHECK_FAILED
    print(f"{args.seeds} scripts: all identities exact")
    return EXIT_OK


def at_least_one(text: str) -> int:
    """An argparse type for counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psf",
        description="Construct, verify and decompose normal pseudomanifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="enumerative and singularity report for a facet file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("check", help="verify the normal pseudomanifold conditions")
    p.add_argument("path")
    p.add_argument("--strict", action="store_true", help="require decided singularity verdicts")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("build", help="replay a JSON build script with its g-ledger")
    p.add_argument("script")
    p.add_argument("-o", "--output", help="write the resulting facet file here")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("decompose", help="decompose an optimal normal 4-pseudomanifold")
    p.add_argument("path")
    p.add_argument("--vertex", type=int, required=True, help="tracked singular vertex")
    p.add_argument("--mode", choices=MODES, default=MODE_EDGE)
    p.add_argument("-o", "--output", help="write the decomposition tree JSON here")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify-identities", help="randomized identity sweep")
    p.add_argument("--seeds", type=at_least_one, default=100, help="number of random scripts")
    p.add_argument("--ops", type=at_least_one, default=12, help="operations per script")
    p.add_argument("--base-seed", type=int, default=2024)
    p.set_defaults(fn=cmd_verify_identities)
    return parser


# Parsing leaves the parser unchanged, so one instance serves every call.
_PARSER = make_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ScriptError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Inaccessible as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except ComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
