import csv
import errno
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incidence_scrolls import cli, closed_forms
from incidence_scrolls.bases import enumerate_bases, format_base, is_nondegenerate
from incidence_scrolls.cli import REPORT_COLUMNS, _render_rows, _report_cells, main
from incidence_scrolls.invariants import classify
from golden_replay import GOLDEN, replay
from oracles import checkout_env, random_bases, run_optimized


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    """Exit code, stdout and stderr of `main`."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command_id(command):
    """The command line with each run of k equal values written v^k."""
    def runs(word):
        counted = [(value, len(list(group)))
                   for value, group in itertools.groupby(word.split(","))]
        return ",".join(value if k == 1 else f"{value}^{k}" for value, k in counted)
    return " ".join(map(runs, command.split()))


def buffered_env():
    """checkout_env with stdout block-buffered, as in a plain shell, and
    argparse's messages as wide as in the golden corpus."""
    env = dict(checkout_env(), COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    return env


def write_through_env():
    """checkout_env with stdout written through on every write."""
    return dict(checkout_env(), PYTHONUNBUFFERED="1")


def cli_process(*argv, env=checkout_env, **kwargs):
    """Start the command line in a fresh interpreter on this checkout, in the
    environment that `env()` returns."""
    return subprocess.Popen([sys.executable, "-m", "incidence_scrolls.cli", *argv],
                            env=env(), **kwargs)


def body_rows(out):
    """Data lines of a text-format table (skip the header)."""
    return [line for line in out.rstrip("\n").splitlines()[1:] if line.strip()]


class TestEnumerate:
    def test_p3(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "3")
        assert code == 0
        rows = body_rows(out)
        assert len(rows) == 1
        assert "n=3 dims=1,1,1" in rows[0]

    def test_p4_nondegenerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "4", "--nondegenerate")
        assert code == 0
        rows = body_rows(out)
        assert len(rows) == 2
        assert "n=4 dims=1,2,2,2" in rows[0]
        assert "n=4 dims=2,2,2,2,2" in rows[1]

    def test_contains_dim(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "5", "--nondegenerate",
                           "--contains-dim", "2")
        assert code == 0
        assert len(body_rows(out)) == 3

    def test_genus_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "5", "--nondegenerate",
                           "--genus", "3")
        assert code == 0
        rows = body_rows(out)
        assert len(rows) == 1
        assert "n=5 dims=2,3,3,3,3,3" in rows[0]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "4", "--nondegenerate",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [row["degree"] for row in data] == [3, 5]
        assert data[1]["genus"] == 1

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "3", "--format", "csv")
        assert code == 0
        lines = out.rstrip("\n").splitlines()
        assert lines[0].startswith("base,span,degree,genus,h1,special")
        assert len(lines) == 2

    def test_md_format(self, capsys):
        code, out, err = run(capsys, "enumerate", "-n", "4", "--format", "md")
        assert (code, err) == (0, "")
        assert out == (
            "| base               | span | degree | genus | h1 | special "
            "| directrix                  |\n"
            "|--------------------|------|--------|-------|----|---------"
            "|----------------------------|\n"
            "| n=4 dims=1,1,2     | 3    | 2      | 0     | 0  | False   "
            "| C^1_0 in P^1               |\n"
            "| n=4 dims=1,2,2,2   | 4    | 3      | 0     | 0  | False   "
            "| C^1_0 in P^1; C^2_0 in P^2 |\n"
            "| n=4 dims=2,2,2,2,2 | 4    | 5      | 1     | 0  | False   "
            "| C^3_1 in P^2               |\n")
        # no row: each column is as wide as its name
        assert run(capsys, "enumerate", "-n", "4", "--genus", "7", "--format", "md") == (
            0, "| base | span | degree | genus | h1 | special | directrix |\n"
               "|------|------|--------|-------|----|---------|-----------|\n", "")

    @pytest.mark.parametrize("n", ["200", str(10**30)])
    def test_cap_comes_before_any_allocation(self, n):
        # no address-space limit: past the cap, enumerate_bases would grow
        # until the host runs out of memory; the timeout kills such a process
        proc = subprocess.run(
            [sys.executable, "-m", "incidence_scrolls.cli", "enumerate", "-n", n],
            env=checkout_env(), capture_output=True, text=True, timeout=1)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: input too large: enumerate -n is capped at 26, got {n}\n"

    def test_deterministic(self, capsys):
        first = run(capsys, "enumerate", "-n", "6", "--nondegenerate")
        second = run(capsys, "enumerate", "-n", "6", "--nondegenerate")
        assert first == second

    @pytest.mark.parametrize("n", range(3, 9))
    def test_filters_one_at_a_time(self, capsys, n):
        # every combination of the filters against applying them one by one
        for nondegenerate, dim, genus in itertools.product(
                [False, True], [None, 0, 1, n - 2], [None, 0, 1]):
            argv = ["enumerate", "-n", str(n), "--format", "csv"]
            bases = enumerate_bases(n)
            if dim is None or dim:
                bases = [b for b in bases if 0 not in b.dims]
            if dim is not None:
                argv += ["--contains-dim", str(dim)]
                bases = [b for b in bases if dim in b.dims]
            if nondegenerate:
                argv.append("--nondegenerate")
                bases = [b for b in bases if is_nondegenerate(b)]
            if genus is not None:
                argv += ["--genus", str(genus)]
                bases = [b for b in bases if classify(b).genus == genus]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert [row["base"] for row in csv.DictReader(io.StringIO(out))] == \
                list(map(format_base, bases))


# cells of every type a row holds, without a line break: text and md lines
# end at "\n", and a csv with lineterminator "\n" leaves a lone "\r" unquoted
grid_cells = st.one_of(st.text(st.characters(blacklist_characters="\r\n")),
                       st.integers(), st.booleans())


@st.composite
def grid_tables(draw):
    """Rows and their columns; column names hold no space and no "|"."""
    columns = draw(st.lists(st.text("abxyz_%", min_size=1, max_size=8),
                            min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries(dict.fromkeys(columns, grid_cells)),
                         max_size=6))
    return rows, columns


class TestGrid:
    @settings(max_examples=200, deadline=None)
    @given(grid_tables())
    def test_csv_reads_back(self, table):
        rows, columns = table
        out = _render_rows(([row[c] for c in columns] for row in rows), columns, "csv")
        assert list(csv.DictReader(io.StringIO(out, newline=""))) == [
            {c: str(row[c]) for c in columns} for row in rows]

    @settings(max_examples=200, deadline=None)
    @given(grid_tables(), st.sampled_from(["text", "md"]))
    def test_cells_start_under_their_header(self, table, fmt):
        rows, columns = table
        lines = _render_rows([[row[c] for c in columns] for row in rows], columns,
                             fmt).split("\n")
        header, body = lines[0], lines[2 if fmt == "md" else 1:]
        if fmt == "md":
            assert set(lines[1]) == {"|", "-"}
        assert len(body) == len(rows)
        assert len({len(line) for line in lines}) == 1
        offsets = [m.start() for m in re.finditer(r"[^ |]+", header)]
        assert [header[o:o + len(c)] for o, c in zip(offsets, columns)] == columns
        assert len(offsets) == len(columns)
        for line, row in zip(body, rows):
            cells = [str(row[c]) for c in columns]
            assert [line[o:o + len(cell)] for o, cell in zip(offsets, cells)] == cells

    @settings(max_examples=200, deadline=None)
    @given(grid_tables())
    def test_json_is_json_dumps(self, table):
        # the writer's oracle: json.dumps(indent=2) of the rows as dicts
        rows, columns = table
        out = _render_rows(([row[c] for c in columns] for row in rows), columns, "json")
        assert out == json.dumps([{c: row[c] for c in columns} for row in rows], indent=2)

    @pytest.mark.parametrize("fmt", ["text", "md", "json"])
    def test_render_memory(self, fmt):
        # the cells and the finished lines come to about 3.7 times the output
        # on these rows, json's objects and their join to 3.5; one more full
        # copy of the cells passes 4.5
        rows = [_report_cells(classify(b)) for b in enumerate_bases(13)]
        tracemalloc.start()
        try:
            out = _render_rows(rows, REPORT_COLUMNS, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * len(out)


class TestJsonReports:
    # the json writer against its oracle, json.dumps(indent=2) of each report
    # as a dict row, the way enumerate once wrote it
    @staticmethod
    def oracle(bases):
        return json.dumps([dict(zip(REPORT_COLUMNS, _report_cells(classify(b))))
                           for b in bases], indent=2)

    @staticmethod
    def written(bases):
        return _render_rows((_report_cells(classify(b)) for b in bases),
                            REPORT_COLUMNS, "json")

    @pytest.mark.parametrize("n", range(3, 14))
    def test_every_base(self, n):
        bases = enumerate_bases(n)  # points too: their directrix string is empty
        assert self.written(bases) == self.oracle(bases)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(random_bases(max_n=16), max_size=4))
    def test_drawn_bases(self, bases):
        assert self.written(bases) == self.oracle(bases)

    def test_no_rows(self, capsys):
        assert run(capsys, "enumerate", "-n", "6", "--genus", "999",
                   "--format", "json") == (0, "[]\n", "")


class TestGoldenCorpus:
    @pytest.mark.parametrize("command", GOLDEN, ids=command_id)
    def test_in_process(self, command):
        assert replay(command) == GOLDEN[command]

    def test_under_optimize(self):
        # -O strips every assert: the whole corpus replays the same without them
        proc = run_optimized(str(ROOT / "tests" / "golden_replay.py"))
        count = f"{len(GOLDEN)} of {len(GOLDEN)}"
        assert (proc.returncode, proc.stderr, proc.stdout) == (
            0, "", f"{sys.version.split()[0]}: {count} golden entries match\n")

    # each output format and exit path, the largest outputs, ended by cli.run
    # with stdout block-buffered, once into a pipe and once into a file
    PROCESS = [
        "enumerate -n 14 --format json",  # ~385 kB, more than a pipe buffers
        "enumerate -n 13 --force --format json",
        "analyze -n 6 --base 2,3,3,4,4 --tree",
        "table --id 2 --format md",
        next(c for c in GOLDEN if c.startswith("analyze -n 20 ")),
        "product --grassmann 1,5 --specials 2,3,3,3,3,3,3",
        next(c for c in GOLDEN if c.startswith("analyze -n 300 ")),
        "--help",
        "bogus",
        "analyze -n 5 --base 2,3",
        "analyze -n 6 --base 2,3,3,4,4 --tree --format csv",
    ]
    # the -O replay above calls main in process; these also run piped through
    # `python -O -m incidence_scrolls.cli`
    OPTIMIZED = ["enumerate -n 13 --format json", "table --id 1 --format json",
                 "table --id 2 --format json", "table --id 3 --format json"]

    @pytest.mark.parametrize("command, sink", [
        pytest.param(command, sink, id=f"{sink}-{command_id(command)}")
        for sink, commands in [("pipe", PROCESS), ("file", PROCESS), ("optimize", OPTIMIZED)]
        for command in commands])
    def test_through_the_process_entry_point(self, tmp_path, command, sink):
        flags = ["-O"] if sink == "optimize" else []
        argv = [sys.executable, *flags, "-m", "incidence_scrolls.cli", *command.split()]
        if sink != "file":
            proc = subprocess.run(argv, env=buffered_env(), capture_output=True,
                                  timeout=120)
            out = proc.stdout
        else:
            path = tmp_path / "stdout"
            with path.open("wb") as sink_file:
                proc = subprocess.run(argv, env=buffered_env(), stdout=sink_file,
                                      stderr=subprocess.PIPE, timeout=120)
            out = path.read_bytes()
        assert {"stdout_sha256": hashlib.sha256(out).hexdigest(),
                "stderr": proc.stderr.decode(), "exit": proc.returncode} == \
            GOLDEN[command]


class TestAnalyze:
    def test_seven_solids_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "-n", "5", "--base",
                           "3,3,3,3,3,3,3", "--format", "json", "--tree")
        assert code == 0
        data = json.loads(out)
        assert (data["degree"], data["genus"], data["h1"]) == (14, 8, 6)
        assert data["special"] is True
        assert list(data)[-1] == "tree"
        root = data["tree"]["nodes"][data["tree"]["root"]]
        assert root["action"] == "join"
        assert root["kappa"] == 5

    def test_tree_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "-n", "4", "--base", "2,2,2,2,2",
                           "--tree")
        assert code == 0
        assert out.splitlines()[2:] == [
            "#0 leaf n=4 dims=0,2,2 -> d=1 g=0",
            "#1 leaf n=3 dims=0,1 -> d=1 g=0",
            "#2 leaf n=2 dims=0 -> d=1 g=0",
            "#3 join n=3 dims=1,1,1 pair=(1,1) m=0 kappa=1 -> d=2 g=0 children=#1,#2",
            "#4 join n=4 dims=1,2,2,2 pair=(1,2) m=0 kappa=1 -> d=3 g=0 children=#0,#3",
            "#5 join n=4 dims=2,2,2,2,2 pair=(2,2) m=1 kappa=2 -> d=5 g=1 "
            "children=#4,#3",
        ]

    @pytest.mark.parametrize("n,count", [(10, 45), (11, 55), (12, 66)])
    def test_witness_lists_distinct_nodes(self, capsys, n, count):
        dims = ",".join([str(n - 2)] * (2 * n - 3))
        code, out, _ = run(capsys, "analyze", "-n", str(n), "--base", dims,
                           "--tree", "--format", "json")
        assert code == 0
        table = json.loads(out)["tree"]
        assert len(table["nodes"]) == count
        code, out, _ = run(capsys, "analyze", "-n", str(n), "--base", dims, "--tree")
        assert code == 0
        lines = out.splitlines()[2:]
        assert [line.split()[:2] for line in lines] == \
            [[f"#{row['id']}", row["action"]] for row in table["nodes"]]

    def test_md_format(self, capsys):
        assert run(capsys, "analyze", "-n", "5", "--base", "2,3,3,3,3,3",
                   "--format", "md") == (0, (
                       "| base                 | span | degree | genus | h1 | special "
                       "| directrix                  |\n"
                       "|----------------------|------|--------|-------|----|---------"
                       "|----------------------------|\n"
                       "| n=5 dims=2,3,3,3,3,3 | 5    | 9      | 3     | 1  | True    "
                       "| C^4_3 in P^2; C^6_3 in P^3 |\n"), "")

    # int() takes surrounding whitespace; the golden corpus splits its command
    # lines on spaces, so these inputs are pinned here (it pins the Arabic-Indic
    # digits, the underscore and the sign that int() also takes)
    @pytest.mark.parametrize("dims", [" 1,1,1", "1,1,1 "])
    def test_dims_are_ascii_integers(self, capsys, dims):
        assert run(capsys, "analyze", "-n", "3", "--base", dims) == (
            2, "", f"error: cannot parse dimension list {dims!r}\n")


class TestTable:
    def test_printed_degree_and_star_deviations(self, capsys, monkeypatch):
        # table 1 with one printed degree too high and one row starred: the
        # engine agrees with every closed form, so the rows deviate and exit 0
        rows = closed_forms.table(1)
        rows[0] = rows[0]._replace(printed_degree=rows[0].printed_degree + 1)
        rows[1] = rows[1]._replace(star=True)
        monkeypatch.setattr(closed_forms, "table", lambda table_id: rows)
        statuses = ["DEVIATION: degree/genus (2,0)", "DEVIATION: star (h1=0)"] + \
            ["ok"] * 5
        footer = "# 2 deviation(s) against the printed table"
        for fmt, first_row in [("text", 1), ("md", 2)]:
            code, out, err = run(capsys, "table", "--id", "1", "--format", fmt)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert lines[-1] == footer
            column = lines[0].index("status")
            assert [line[column:].rstrip(" |") for line in lines[first_row:-1]] == \
                statuses
        code, out, err = run(capsys, "table", "--id", "1", "--format", "json")
        assert (code, err) == (0, "")
        assert [row["status"] for row in json.loads(out)] == statuses
        code, out, err = run(capsys, "table", "--id", "1", "--format", "csv")
        assert (code, err) == (0, "")
        assert [row["status"] for row in csv.DictReader(io.StringIO(out))] == statuses
        assert "deviation(s)" not in out


class TestProduct:
    def test_pencil_class(self, capsys):
        code, out, _ = run(capsys, "product", "--grassmann", "1,5",
                           "--specials", "2,3,3,3,3,3")
        assert code == 0
        assert out.splitlines() == ["9*w(0,2)"]

    def test_long_product_in_linear_time(self):
        # the reader slices each slot from P's bytes; a shift of all of P per
        # slot read took about 4.7 s here on a 2-vCPU x86-64 host
        proc = subprocess.run(
            [sys.executable, "-m", "incidence_scrolls.cli", "product",
             "--grassmann", "1,100000", "--specials", "0"],
            env=checkout_env(), capture_output=True, text=True, timeout=1.5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1*w(0,100000)\n", "")


class TestCommands:
    # one command line per command; a command added without one fails here
    ARGV = {
        "enumerate": ["enumerate", "-n", "5", "--format", "json"],
        "analyze": ["analyze", "-n", "6", "--base", "2,3,3,4,4", "--tree"],
        "table": ["table", "--id", "3"],
        "product": ["product", "--grassmann", "1,5", "--specials", "2,3,3,3,3,3,3"],
    }

    @pytest.mark.parametrize("name", cli.COMMANDS)
    def test_returns_its_text_and_writes_nothing(self, capsys, name):
        argv = self.ARGV[name]
        text = cli.COMMANDS[name](cli.build_parser().parse_args(argv))
        assert isinstance(text, str)
        assert capsys.readouterr() == ("", "")
        # main prints it once
        assert run(capsys, *argv) == (0, text + "\n", "")

    # int() takes surrounding whitespace; the golden corpus splits its command
    # lines on spaces, so these inputs are pinned here
    @pytest.mark.parametrize("argv, flag", [
        (["enumerate", "-n", " 3"], "-n/--ambient"),
        (["analyze", "-n", "3 ", "--base", "1,1,1"], "-n/--ambient"),
        (["table", "--id", " 1"], "--id"),
        (["enumerate", "-n", "5", "--genus", "3\n"], "--genus"),
        (["enumerate", "-n", "5", "--contains-dim", "\t2"], "--contains-dim"),
    ])
    def test_integers_are_ascii_digits(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: invalid int value: "
                            f"{argv[argv.index(flag.split('/')[0]) + 1]!r}\n")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_argv_exits_cleanly(self, data):
        # n <= 12 keeps every enumeration fast; a malformed number, option or
        # format is a usage error and a number too large to compute with is
        # invalid input, never a traceback
        small = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(
            ["", "x", "+3", " 3", "0_3", "\u0663", "3.0", "-", "1,2"]))
        number = st.one_of(small, st.just(str(10**30)))
        dims = st.lists(number, min_size=1, max_size=8).map(",".join)
        fmt = st.sampled_from(["text", "json", "csv", "md", "xml", ""])
        command = data.draw(st.sampled_from(list(cli.COMMANDS)))
        if command == "enumerate":
            argv = ["enumerate", "-n", data.draw(number)]
            for option in data.draw(st.sets(st.sampled_from(
                    ["--nondegenerate", "--contains-dim", "--genus", "--force"]))):
                argv.append(option)
                if option in ("--contains-dim", "--genus"):
                    argv.append(data.draw(number))
        elif command == "analyze":
            argv = ["analyze", "-n", data.draw(number), "--base", data.draw(dims)]
            argv += ["--tree"] * data.draw(st.booleans())
        elif command == "table":
            argv = ["table", "--id", data.draw(number)]
        else:
            argv = ["product", "--grassmann", "1," + data.draw(number),
                    "--specials", data.draw(dims)]
        if data.draw(st.booleans()):
            argv += ["--format", data.draw(fmt)]
        change = data.draw(st.sampled_from([None, None, "drop", "add"]))
        if change == "drop":  # one argument missing, or one too many
            del argv[data.draw(st.integers(1, len(argv) - 1))]
        elif change == "add":
            argv.insert(data.draw(st.integers(1, len(argv))),
                        data.draw(st.sampled_from(["-h", "--bogus", "7"])))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 4)
        assert out.getvalue() == "" or code == 0


class TestExitCodes:
    def test_run_exits_4_under_optimize(self):
        # the kernel + 1 fault of tests/test_faults.py, through the process entry point
        code = (
            "import sys\n"
            "from incidence_scrolls import cli, grassmann\n"
            "kernel = grassmann._point_coefficient\n"
            "grassmann._point_coefficient = lambda n, hs: kernel(n, hs) + 1\n"
            "sys.argv[1:] = ['analyze', '-n', '5', '--base', '3,3,3,3,3,3,3']\n"
            "cli.run()\n"
        )
        proc = run_optimized("-c", code, env=buffered_env)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    def test_out_of_memory_exits_2(self):
        # the kernel's integer for n = 10**15 has about 10**15 bytes; under a
        # 1 GiB address space its allocation fails at once
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = cli_process("analyze", "-n", str(10**15), "--base", "0,1",
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           preexec_fn=cap_address_space)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (
            2, b"", b"error: input too large: the computation ran out of memory\n")

    def test_deep_line_family_ignores_frame_limit(self):
        # the witness of the line family is n levels deep, far more than the
        # interpreter's frame limit here; the engine runs it on its own stack
        n = 300
        dims = ",".join(["1"] + [str(n - 2)] * (n - 1))
        code = (
            "import sys\n"
            "from incidence_scrolls import cli\n"
            "sys.setrecursionlimit(100)\n"
            f"sys.exit(cli.main(['analyze', '-n', '{n}', '--base', '{dims}',"
            " '--tree', '--format', 'json']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        data = json.loads(proc.stdout)
        assert (data["degree"], data["genus"], data["h1"]) == (n - 1, 0, 0)
        assert len(data["tree"]["nodes"]) == 2 * n - 3

    @pytest.mark.parametrize("env", [write_through_env, buffered_env],
                             ids=["write-through", "buffered"])
    def test_reader_exits_early(self, env):
        # enumerate -n 12 prints ~140 kB of json, more than a pipe buffers, so
        # the writer is still writing when the pipe is closed: the broken pipe
        # surfaces in a print inside main, not in run's final flush
        proc = cli_process("enumerate", "-n", "12", "--format", "json", env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"[\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""

    def test_main_leaves_fd_1_alone(self, monkeypatch):
        # an in-process caller owns its stdout: main lets the broken pipe
        # through and points no file descriptor elsewhere
        class GoneReader(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

            def fileno(self):  # so that a redirect of stdout would reach os.dup2
                return 1

        def no_dup2(*args):
            pytest.fail(f"main called os.dup2{args}")

        # patched for the call only: pytest's own capture calls os.dup2
        with monkeypatch.context() as patch, pytest.raises(BrokenPipeError):
            patch.setattr(sys, "stdout", GoneReader())
            patch.setattr(os, "dup2", no_dup2)
            main(["enumerate", "-n", "12", "--format", "json"])

    @pytest.mark.parametrize("argv", [["enumerate", "-n", "3"],
                                      ["analyze", "-n", "3", "--base", "1,1,1"]])
    def test_cache_option_is_gone(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--cache", str(tmp_path / "cache.txt"))
        assert code == 2
        assert "unrecognized arguments: --cache" in err
        assert list(tmp_path.iterdir()) == []

    def test_stdout_closed_at_start(self):
        proc = cli_process("enumerate", "-n", "3", stderr=subprocess.PIPE,
                           preexec_fn=lambda: os.close(1))
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")


ENUMERATE = ["enumerate", "-n", "12", "--format", "json"]


class TestProcessExit:
    """`python -m incidence_scrolls.cli` ends through `cli.run`, which flushes
    and calls os._exit; TestGoldenCorpus compares its output with `main`'s."""

    def test_reader_gone_before_help(self):
        # the help fits in stdout's buffer and main returns 0, so cli.run's
        # flush is the first write to the pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen([sys.executable, "-m", "incidence_scrolls.cli", "--help"],
                                stdout=write_end, stderr=subprocess.PIPE,
                                env=buffered_env())
        os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("flags, argv, env", [
        ([], ENUMERATE, write_through_env),
        ([], ENUMERATE, buffered_env),
        (["-O"], ENUMERATE, buffered_env),
        ([], ["--help"], write_through_env),
        ([], ["--help"], buffered_env),
        ([], ["enumerate", "--help"], write_through_env),
    ], ids=["write-through", "buffered", "optimize", "help-write-through",
            "help-buffered", "subcommand-help-write-through"])
    def test_failed_write_exits_74(self, flags, argv, env):
        # every write to /dev/full fails with ENOSPC: with write-through stdout
        # in main's print or argparse's, with buffered stdout in cli.run's flush
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "incidence_scrolls.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env(), timeout=120)
        error = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert (proc.returncode, proc.stderr.decode()) == \
            (74, f"error: cannot write the output: {error}\n")

    def test_registers_no_atexit_handler(self):
        # os._exit in cli.run would skip it, and whatever it was to flush
        code = (
            "import atexit, contextlib, io\n"
            "before = atexit._ncallbacks()\n"
            "from incidence_scrolls import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['table', '--id', '3'])\n"
            "    cli.main(['analyze', '-n', '6', '--base', '2,3,3,4,4', '--tree'])\n"
            "    cli.main(['product', '--grassmann', '1,5', '--specials', '2,3'])\n"
            "print(atexit._ncallbacks() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    def test_script_entry_point_is_run(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, _, name = scripts["scrolls"].partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run


class TestStartup:
    @staticmethod
    def loaded_after_import(module, names):
        code = (f"import sys, {module}; "
                f"print([m for m in {names!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    def test_import_skips_unneeded_modules(self):
        # every process pays for what `import incidence_scrolls.cli` loads;
        # closed_forms is imported by `table` alone, csv by `--format csv` alone
        unneeded = ["ast", "csv", "dataclasses", "incidence_scrolls.closed_forms",
                    "inspect"]
        assert self.loaded_after_import("incidence_scrolls.cli", unneeded) == "[]\n"

    def test_closed_forms_skips_unneeded_modules(self):
        # every `scrolls table` process pays for what closed_forms loads
        unneeded = ["ast", "dataclasses", "inspect"]
        assert self.loaded_after_import("incidence_scrolls.closed_forms",
                                        unneeded) == "[]\n"
