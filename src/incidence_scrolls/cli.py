"""Command-line interface: enumeration, classification, tables, and raw
products of special Schubert classes on the Grassmannian of lines G(1,n).

`analyze --tree` prints the degeneration witness as a node table, one line
(or, in json, one row) per distinct sub-base, children before parents and
the root last; `invariants.node_table` defines the rows.  It needs
`--format text` or `json`: with `csv` or `md` it exits 2.  `product` takes
only `--format text` or `json`.

Exit codes: 0 success, 2 invalid input or input too large to compute (an
`enumerate -n` above MAX_ENUMERATE_AMBIENT is refused before any work), 4 a
cross-check of the engine's results failed, such as the ring degree against
the degeneration witness, the genus against adjunction, a join yielding a
base that does not impose 2n-3 conditions or a `table` row's closed form
against the engine, 74 the output could not be written, as on a full disk,
141 the reader of stdout exited before reading all the output, as in
`scrolls ... | head` (the status a shell reports for a process killed by
SIGPIPE).  The checks also run under python -O.

Each `cmd_*` returns its whole output as one string and writes nothing.
`main(argv)` is the in-process API that tests and tools call: for any argv
it returns 0 (after printing that string once, or argparse's `--help`), 2 or
4, and it lets only an OSError of that print or argparse's through, such as
BrokenPipeError (stdout's reader is gone); it neither flushes nor touches a
file descriptor.  `run()` is the process entry point of the `scrolls` script
and of `python -m incidence_scrolls.cli`, and it alone ends the process: it
calls `main`, flushes stdout and stderr, turns a BrokenPipeError from either
step into 141 and any other OSError into 74, and calls `os._exit`.  That
skips the interpreter's teardown, which frees the witness, the kernel memo
and every loaded module: about 8-10 ms per process on a 2-vCPU x86-64 host
(Python 3.11).  Nothing else is skipped, because the package writes only to
stdout and stderr and registers no atexit handler; output added later, such
as statistics or logging, must be flushed in `run`.
Uncaught exceptions and KeyboardInterrupt still reach the interpreter.
"""

from __future__ import annotations

import argparse
import io
import json
import operator
import os
import re
import sys

from .bases import IncidenceBase, enumerate_bases, format_base, is_nondegenerate
from .grassmann import product_of_specials, render
from .invariants import (
    InvariantError,
    ScrollReport,
    classify,
    degeneration_tree,
    node_table,
)


def _render_rows(rows, columns: list[str], fmt: str) -> str:
    """Rows of str, int and bool cells in the order of `columns` (no brace in a
    name).  json is json.dumps([dict(zip(columns, row)) ...], indent=2), but a
    row at a time: indent makes json run its pure-Python encoder up to 3.12."""
    if fmt == "json":
        esc = json.encoder.encode_basestring_ascii  # json.dumps's C string escaper
        item = "  {{\n%s\n  }}" % ",\n".join(f"    {esc(c)}: {{}}" for c in columns)
        items = [item.format(*[esc(v) if isinstance(v, str) else
                               "true" if v is True else "false" if v is False else v
                               for v in row]) for row in rows]
        return "[\n%s\n]" % ",\n".join(items) if items else "[]"
    grid = [columns] + [[str(cell) for cell in row] for row in rows]
    if fmt == "csv":
        import csv  # only this format needs the module
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(grid)
        return buf.getvalue().rstrip("\n")
    widths = [max(map(len, column)) for column in zip(*grid)]
    sep, frame = ("  ", "{}") if fmt == "text" else (" | ", "| {} |")
    lines = [frame.format(sep.join(map(str.ljust, line, widths))) for line in grid]
    if fmt == "md":
        lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines)


# the scalar fields of a report, in their output order in every format
REPORT_FIELDS = ("span", "degree", "genus", "h1", "special")
REPORT_COLUMNS = ["base", *REPORT_FIELDS, "directrix"]
_report_fields = operator.attrgetter(*REPORT_FIELDS)


def _report_cells(report: ScrollReport) -> tuple:
    """The values of a report's REPORT_COLUMNS, in their order."""
    return (format_base(report.base), *_report_fields(report),
            "; ".join(f"C^{d}_{report.genus} in P^{a}" for a, d in report.directrix))


def _report_json(report: ScrollReport) -> dict:
    (ambient, dims), genus = report.base, report.genus
    return {"ambient": ambient, "dims": list(dims),
            **{field: getattr(report, field) for field in REPORT_FIELDS},
            "directrix": [{"space_dim": a, "curve_degree": d, "curve_genus": genus}
                          for a, d in report.directrix]}


def _parse_int(text: str) -> int:
    """An ASCII integer, `-?[0-9]+`: int() would also take "+1", " 1", "0_2"
    and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_parse_int, text.split(",")))
    except argparse.ArgumentTypeError:
        raise ValueError(f"cannot parse dimension list {text!r}") from None


# enumerate -n above this is refused, to keep a process under 1 GiB: at 26 it
# peaks at 506-616 MiB (json lowest, md highest; Python 3.11, x86-64), and the
# number of bases, and so the memory, grows by 39% to 27
MAX_ENUMERATE_AMBIENT = 26


def cmd_enumerate(args: argparse.Namespace) -> str:
    if args.ambient > MAX_ENUMERATE_AMBIENT:
        raise ValueError(f"input too large: enumerate -n is capped at "
                         f"{MAX_ENUMERATE_AMBIENT}, got {args.ambient}")
    dim, genus = args.contains_dim, args.genus
    rows = (_report_cells(report) for base in enumerate_bases(args.ambient)
            # a base point sweeps a plane pencil, not a surface scroll
            if (dim == 0 or 0 not in base.dims)
            and (dim is None or dim in base.dims)
            and (is_nondegenerate(base) or not args.nondegenerate)
            for report in [classify(base)]
            if genus is None or report.genus == genus)
    return _render_rows(rows, REPORT_COLUMNS, args.format)


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


def cmd_analyze(args: argparse.Namespace) -> str:
    if args.tree and args.format in ("csv", "md"):
        # the witness lines would break the table's csv or markdown syntax
        raise ValueError("--tree needs --format text or json")
    base = IncidenceBase(args.ambient, _parse_dims(args.base))
    report = classify(base)
    # the memoized witness that classify checked the ring degree against
    table = node_table(degeneration_tree(report.base)) if args.tree else None
    if args.format == "json":
        out = _report_json(report)
        if table:
            out["tree"] = table
        return json.dumps(out, indent=2)
    text = _render_rows([_report_cells(report)], REPORT_COLUMNS, args.format)
    return f"{text}\n{_render_witness(table)}" if table else text


def cmd_table(args: argparse.Namespace) -> str:
    from . import closed_forms  # only this command reads the table fixtures
    rows = []
    for table_row in closed_forms.table(args.id):
        record, printed = table_row.record, table_row.printed_directrix
        report = classify(record.base)
        engine = closed_forms.check(record, report)
        _, e = record.directrix
        problems = []
        if (report.degree, report.genus) != (table_row.printed_degree,
                                             table_row.printed_genus):
            problems.append(f"degree/genus ({report.degree},{report.genus})")
        if report.special != table_row.star:
            problems.append(f"star (h1={report.h1})")
        if printed not in (None, e):
            # check compared e on these spanning bases: the printed value is the odd one
            problems.append(
                f"directrix {e} vs printed {printed} (printed directrix "
                f"degree {printed} disagrees with the closed form and the cycle "
                f"product (both give {e}); suspected misprint)")
        rows.append({
            "scroll": f"R^{table_row.printed_degree}_{table_row.printed_genus} "
                      f"in P^{record.base.ambient}",
            "base": format_base(record.base),
            "degree": table_row.printed_degree,
            "genus": table_row.printed_genus,
            "directrix": "-" if printed is None else printed,
            "star": "*" if table_row.star else "",
            "engine": engine,
            "status": "DEVIATION: " + "; ".join(problems) if problems else "ok",
        })
    # every table has rows: the first one names the columns
    text = _render_rows(map(dict.values, rows), list(rows[0]), args.format)
    deviations = sum(row["status"] != "ok" for row in rows)
    if deviations and args.format not in ("json", "csv"):
        text += f"\n# {deviations} deviation(s) against the printed table"
    return text


def cmd_product(args: argparse.Namespace) -> str:
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
        return json.dumps({"grassmann": [l, n], "product": text})
    if list(result) == [(0, 1)]:
        text += f"\n{result[(0, 1)]}"
    return text


COMMANDS = {"enumerate": cmd_enumerate, "analyze": cmd_analyze,
            "table": cmd_table, "product": cmd_product}
FORMATS = ("text", "json", "csv", "md")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose failed writes reach `run`; argparse drops them."""

    def _print_message(self, message, file=None):
        file = file or sys.stderr
        if message and file is not None:  # None: the stream started closed
            file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scrolls",
        description="Classify incidence scrolls in projective n-space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # no choices=: argparse's wording of an invalid choice differs
        # between CPython releases, so main rejects an unknown format itself
        p.add_argument("--format", default="text", metavar="{" + ",".join(FORMATS) + "}")

    p_enum = sub.add_parser("enumerate", help="list and classify all bases in P^n")
    p_enum.add_argument("-n", "--ambient", type=_parse_int, required=True)
    p_enum.add_argument("--nondegenerate", action="store_true")
    p_enum.add_argument("--contains-dim", type=_parse_int, default=None)
    p_enum.add_argument("--genus", type=_parse_int, default=None)
    p_enum.add_argument("--force", action="store_true",
                        help="accepted and ignored; it does not lift the -n cap")
    add_common(p_enum)

    p_analyze = sub.add_parser("analyze", help="classify one base")
    p_analyze.add_argument("-n", "--ambient", type=_parse_int, required=True)
    p_analyze.add_argument("--base", required=True,
                           help="comma-separated base dimensions, e.g. 2,3,3,3,3,3")
    p_analyze.add_argument("--tree", action="store_true",
                           help="include the degeneration witness")
    add_common(p_analyze)

    p_table = sub.add_parser("table", help="reproduce a published table")
    p_table.add_argument("--id", type=_parse_int, required=True, metavar="{1,2,3}")
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
        if args.format not in FORMATS:
            raise ValueError(f"unknown format {args.format!r}, choose from "
                             + ", ".join(FORMATS))
        text = COMMANDS[args.command](args)
    except (InvariantError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, InvariantError) else 2
    except (MemoryError, OverflowError) as exc:  # str(MemoryError()) is empty
        cause = ("ran out of memory" if isinstance(exc, MemoryError)
                 else "needs an integer larger than Python allows")
        print(f"error: input too large: the computation {cause}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse: --help or a usage error
        return exc.code
    print(text)
    return 0


def run() -> None:
    """Run `main` on the process's arguments and end the process; never returns."""
    try:
        code = main()
        # either stream is None when the process starts with it closed
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError:  # the reader of stdout exited early
        code = 141
    except OSError as exc:  # any other failed write, such as a full disk
        code = 74
        try:
            print(f"error: cannot write the output: {exc}", file=sys.stderr,
                  flush=True)
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
