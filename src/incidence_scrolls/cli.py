"""Command-line interface: enumeration, classification, tables, and raw
products of special Schubert classes on the Grassmannian of lines G(1,n).

`analyze --tree` prints the degeneration witness as a node table, one line
(or, in json, one row) per distinct sub-base, children before parents and
the root last; `invariants.node_table` defines the rows.  It needs
`--format text` or `json`: with `csv` or `md` it exits 2.  `product` takes
only `--format text` or `json`.

Exit codes: 0 success, 2 invalid input, 4 a cross-check of the engine's
results failed, such as the ring degree against the degeneration witness, the
genus against adjunction or a join yielding a base that does not impose 2n-3
conditions, 141 the reader of stdout exited before reading all the output, as
in `scrolls ... | head` (the status a shell reports for a process killed by
SIGPIPE).  The checks also run under python -O.

`main(argv)` is the in-process API that tests and tools call: it returns 0,
2 or 4, and lets BrokenPipeError (the reader of stdout is gone) and
argparse's SystemExit (`--help` and usage errors) through; it neither flushes
nor touches a file descriptor.  `run()` is the process entry point of the
`scrolls` script and of `python -m incidence_scrolls.cli`, and it alone ends
the process: it calls `main`, takes the code of SystemExit, flushes stdout and
stderr, turns a BrokenPipeError from either step into 141, and calls
`os._exit`.  That skips the interpreter's teardown, which frees the witness,
the kernel memo and every loaded module: about 8-10 ms per process on a
2-vCPU x86-64 host (Python 3.11).  Nothing else is skipped, because the
package writes only to stdout and stderr and registers no atexit handler;
output added later, such as statistics or logging, must be flushed in `run`.
Uncaught exceptions and KeyboardInterrupt still reach the interpreter.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .bases import IncidenceBase, enumerate_bases, format_base
from .grassmann import product_of_specials, render
from .invariants import (
    InvariantError,
    ScrollReport,
    classify,
    degeneration_tree,
    node_table,
)


def _render_rows(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2)
    grid = [columns] + [[str(row[c]) for c in columns] for row in rows]
    if fmt == "csv":
        import csv  # only this format needs the module
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(grid)
        return buf.getvalue().rstrip("\n")
    widths = [max(map(len, column)) for column in zip(*grid)]
    padded = [[cell.ljust(w) for cell, w in zip(line, widths)] for line in grid]
    if fmt == "md":
        lines = ["| " + " | ".join(line) + " |" for line in padded]
        lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
        return "\n".join(lines)
    return "\n".join("  ".join(line) for line in padded)


def _report_row(report: ScrollReport) -> dict:
    return {
        "base": format_base(report.base),
        "span": report.span,
        "degree": report.degree,
        "genus": report.genus,
        "h1": report.h1,
        "special": report.special,
        "directrix": "; ".join(f"C^{d}_{report.genus} in P^{a}"
                               for a, d in report.directrix),
    }


REPORT_COLUMNS = ["base", "span", "degree", "genus", "h1", "special", "directrix"]


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse dimension list {text!r}") from exc


def cmd_enumerate(args: argparse.Namespace) -> int:
    bases = enumerate_bases(args.ambient,
                            nondegenerate_only=args.nondegenerate,
                            contains_dim=args.contains_dim)
    if args.contains_dim != 0:
        # a base point sweeps a plane pencil, not a surface scroll
        bases = [b for b in bases if 0 not in b.dims]
    reports = [classify(base) for base in bases]
    if args.genus is not None:
        reports = [r for r in reports if r.genus == args.genus]
    print(_render_rows([_report_row(r) for r in reports], REPORT_COLUMNS, args.format))
    return 0


def _render_witness(table: dict) -> str:
    lines = []
    for row in table["nodes"]:
        line = f"#{row['id']} {row['action']} {row['base']}"
        if row["action"] == "join":
            pair = ",".join(map(str, row["pair"]))
            line += f" pair=({pair}) m={row['m']} kappa={row['kappa']}"
        line += f" -> d={row['degree']} g={row['genus']}"
        if row["children"]:
            line += " children=" + ",".join(f"#{c}" for c in row["children"])
        lines.append(line)
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.tree and args.format in ("csv", "md"):
        # the witness lines would break the table's csv or markdown syntax
        raise ValueError("--tree needs --format text or json")
    base = IncidenceBase(args.ambient, _parse_dims(args.base))
    report = classify(base)
    # the memoized witness that classify checked the ring degree against
    table = node_table(degeneration_tree(report.base)) if args.tree else None
    if args.format == "json":
        out = report.to_dict()
        if table:
            out["tree"] = table
        print(json.dumps(out, indent=2))
    else:
        print(_render_rows([_report_row(report)], REPORT_COLUMNS, args.format))
        if table:
            print(_render_witness(table))
    return 0


TABLE_COLUMNS = ["scroll", "base", "degree", "genus", "directrix", "star",
                 "engine", "status"]


def cmd_table(args: argparse.Namespace) -> int:
    from . import closed_forms  # only this command reads the table fixtures
    rows = []
    deviations = 0
    for table_row in closed_forms.table(args.id):
        record = table_row.record
        report = classify(record.base)
        fixed_dim = {"p1s": 1, "p2s": 2, "p3s": 3}[record.family]
        engine_dir = dict(report.directrix).get(fixed_dim)
        problems = []
        if (report.degree, report.genus) != (table_row.printed_degree,
                                             table_row.printed_genus):
            problems.append(f"degree/genus ({report.degree},{report.genus})")
        if report.special != table_row.star:
            problems.append(f"star (h1={report.h1})")
        if table_row.printed_directrix is not None and \
                engine_dir != table_row.printed_directrix:
            problems.append(f"directrix {engine_dir} vs printed "
                            f"{table_row.printed_directrix}")
        status = "ok"
        if problems:
            deviations += 1
            status = "DEVIATION: " + "; ".join(problems)
            if table_row.note:
                status += f" ({table_row.note})"
        engine = f"d={report.degree} g={report.genus} h1={report.h1}"
        if engine_dir is not None:
            engine += f" dir={engine_dir}"
        rows.append({
            "scroll": table_row.label,
            "base": format_base(record.base),
            "degree": table_row.printed_degree,
            "genus": table_row.printed_genus,
            "directrix": table_row.printed_directrix
            if table_row.printed_directrix is not None else "-",
            "star": "*" if table_row.star else "",
            "engine": engine,
            "status": status,
        })
    print(_render_rows(rows, TABLE_COLUMNS, args.format))
    if deviations and args.format not in ("json", "csv"):
        print(f"# {deviations} deviation(s) against the printed table")
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    if args.format not in ("text", "json"):
        raise ValueError("product needs --format text or json")
    pair = _parse_dims(args.grassmann)
    if len(pair) != 2:
        raise ValueError(f"--grassmann must be l,n, got {args.grassmann!r}")
    l, n = pair
    if l != 1:
        raise ValueError(
            f"products of special cycles are exposed for lines only, got l={l}")
    result = product_of_specials(n, _parse_dims(args.specials))
    text = render(result)
    if args.format == "json":
        print(json.dumps({"grassmann": [l, n], "product": text}))
    else:
        print(text)
        if list(result) == [(0, 1)]:
            print(result[(0, 1)])
    return 0


COMMANDS = {"enumerate": cmd_enumerate, "analyze": cmd_analyze,
            "table": cmd_table, "product": cmd_product}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrolls",
        description="Classify incidence scrolls in projective n-space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json", "csv", "md"), default="text")

    p_enum = sub.add_parser("enumerate", help="list and classify all bases in P^n")
    p_enum.add_argument("-n", "--ambient", type=int, required=True)
    p_enum.add_argument("--nondegenerate", action="store_true")
    p_enum.add_argument("--contains-dim", type=int, default=None)
    p_enum.add_argument("--genus", type=int, default=None)
    p_enum.add_argument("--force", action="store_true",
                        help="accepted and ignored: enumerate has no ambient cap")
    add_common(p_enum)

    p_analyze = sub.add_parser("analyze", help="classify one base")
    p_analyze.add_argument("-n", "--ambient", type=int, required=True)
    p_analyze.add_argument("--base", required=True,
                           help="comma-separated base dimensions, e.g. 2,3,3,3,3,3")
    p_analyze.add_argument("--tree", action="store_true",
                           help="include the degeneration witness")
    add_common(p_analyze)

    p_table = sub.add_parser("table", help="reproduce a published table")
    p_table.add_argument("--id", type=int, required=True, metavar="{1,2,3}")
    add_common(p_table)

    p_product = sub.add_parser("product", help="multiply special Schubert cycles")
    p_product.add_argument("--grassmann", required=True,
                           help="1,n for lines in P^n, e.g. 1,5")
    p_product.add_argument("--specials", required=True,
                           help="comma-separated special parameters")
    p_product.add_argument("--format", default="text", metavar="{text,json}")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse's wording of an invalid choice differs between CPython releases
        if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
            raise ValueError(f"unknown command {argv[0]!r}, choose from "
                             + ", ".join(COMMANDS))
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run `main` on the process's arguments and end the process; never returns."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse: --help or a usage error
            code = exc.code
        # either stream is None when the process starts with it closed
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError:  # the reader of stdout exited early
        code = 141
    os._exit(code)


if __name__ == "__main__":
    run()
