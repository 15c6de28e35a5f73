import csv
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incidence_scrolls
from incidence_scrolls import cli, invariants
from incidence_scrolls.cli import _render_rows, main
from golden_replay import GOLDEN, replay


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    """Exit code, stdout and stderr of `main`; the code of argparse's SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command_id(command):
    """The command line with each run of k equal values written v^k."""
    def runs(word):
        counted = [(value, len(list(group)))
                   for value, group in itertools.groupby(word.split(","))]
        return ",".join(value if k == 1 else f"{value}^{k}" for value, k in counted)
    return " ".join(map(runs, command.split()))


def checkout_env():
    """Environment whose PYTHONPATH puts this checkout's package first."""
    src = str(Path(incidence_scrolls.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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

    def test_no_ambient_cap(self, capsys):
        code, out, err = run(capsys, "enumerate", "-n", "13")
        assert (code, err) == (0, "")
        assert len(body_rows(out)) == 1060
        # --force is still accepted, and changes nothing
        assert run(capsys, "enumerate", "-n", "13", "--force") == (0, out, "")

    def test_small_ambient_rejected(self, capsys):
        assert run(capsys, "enumerate", "-n", "2") == \
            (2, "", "error: need ambient n >= 3, got 2\n")

    def test_deterministic(self, capsys):
        first = run(capsys, "enumerate", "-n", "6", "--nondegenerate")
        second = run(capsys, "enumerate", "-n", "6", "--nondegenerate")
        assert first == second


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
        out = _render_rows(rows, columns, "csv")
        assert list(csv.DictReader(io.StringIO(out, newline=""))) == [
            {c: str(row[c]) for c in columns} for row in rows]

    @settings(max_examples=200, deadline=None)
    @given(grid_tables(), st.sampled_from(["text", "md"]))
    def test_cells_start_under_their_header(self, table, fmt):
        rows, columns = table
        lines = _render_rows(rows, columns, fmt).split("\n")
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


class TestGoldenStdout:
    # sha256 and size of stdout, pinned from the json.dumps writer and the
    # engine before its keys were built sorted; -O strips every assert
    @pytest.mark.parametrize("argv, digest, size", [
        (["enumerate", "-n", "13", "--format", "json"],
         "2db936f3cb5aed0bfea8dc6bdea63e7936a64fcb8097f87ca352997831320bb5", 233895),
        (["table", "--id", "1", "--format", "json"],
         "9a344cee12967707932002785a572c21eaf01f2def8b6d2df7ea65efa1b3a5df", 1396),
        (["table", "--id", "2", "--format", "json"],
         "3112c2cd1813114ee2aaad9a953dfd849f0c976e37712c1fe09342d42c9de769", 2985),
        (["table", "--id", "3", "--format", "json"],
         "af622ba905e4c548e362f7b453b82b3318a82c18e480c6936d6e509fc9e22b00", 2980),
    ], ids=["enumerate-13", "table-1", "table-2", "table-3"])
    def test_under_optimize(self, argv, digest, size):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "incidence_scrolls.cli", *argv],
            env=checkout_env(), capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(proc.stdout) == size
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


class TestGoldenCorpus:
    @pytest.mark.parametrize("command", GOLDEN, ids=command_id)
    def test_in_process(self, command):
        assert replay(command) == GOLDEN[command]

    # each output format and exit path, the largest outputs, ended by cli.run
    # with stdout block-buffered, once into a pipe and once into a file
    @pytest.mark.parametrize("command", [
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
    ], ids=command_id)
    @pytest.mark.parametrize("sink", ["pipe", "file"])
    def test_through_the_process_entry_point(self, tmp_path, command, sink):
        argv = [sys.executable, "-m", "incidence_scrolls.cli", *command.split()]
        if sink == "pipe":
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
    def test_quadric(self, capsys):
        code, out, _ = run(capsys, "analyze", "-n", "3", "--base", "1,1,1")
        assert code == 0
        row = body_rows(out)[0]
        assert "n=3 dims=1,1,1" in row
        assert "False" in row  # not special

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

    @pytest.mark.parametrize("fmt", ["csv", "md"])
    def test_tree_needs_text_or_json(self, capsys, fmt):
        # the witness lines would not parse as a csv or markdown table
        assert run(capsys, "analyze", "-n", "6", "--base", "2,3,3,4,4", "--tree",
                   "--format", fmt) == \
            (2, "", "error: --tree needs --format text or json\n")

    def test_md_format(self, capsys):
        assert run(capsys, "analyze", "-n", "5", "--base", "2,3,3,3,3,3",
                   "--format", "md") == (0, (
                       "| base                 | span | degree | genus | h1 | special "
                       "| directrix                  |\n"
                       "|----------------------|------|--------|-------|----|---------"
                       "|----------------------------|\n"
                       "| n=5 dims=2,3,3,3,3,3 | 5    | 9      | 3     | 1  | True    "
                       "| C^4_3 in P^2; C^6_3 in P^3 |\n"), "")

    def test_ambient_below_two(self, capsys):
        assert run(capsys, "analyze", "-n", "1", "--base", "0") == (
            2, "", "error: ambient projective dimension must be >= 2, got 1\n")

    def test_not_a_base(self, capsys):
        assert run(capsys, "analyze", "-n", "5", "--base", "2,3") == (
            2, "", "error: n=5 dims=2,3 is not an incidence-scroll base: "
            "conditions=3, required 7\n")

    def test_bad_dims(self, capsys):
        code, _, err = run(capsys, "analyze", "-n", "5", "--base", "2,x")
        assert code == 2
        assert "cannot parse" in err


class TestTable:
    def test_table1(self, capsys):
        code, out, _ = run(capsys, "table", "--id", "1")
        assert code == 0
        rows = [line for line in body_rows(out) if not line.startswith("#")]
        assert len(rows) == 7
        assert all("ok" in row for row in rows)

    def test_table2(self, capsys):
        code, out, _ = run(capsys, "table", "--id", "2")
        assert code == 0
        rows = [line for line in body_rows(out) if not line.startswith("#")]
        assert len(rows) == 15
        assert "DEVIATION" not in out

    def test_table3_single_deviation(self, capsys):
        code, out, _ = run(capsys, "table", "--id", "3")
        assert code == 0
        rows = [line for line in body_rows(out) if not line.startswith("#")]
        assert len(rows) == 14
        deviating = [row for row in rows if "DEVIATION" in row]
        assert len(deviating) == 1
        assert "R^10_3" in deviating[0]
        assert "misprint" in deviating[0]
        assert "# 1 deviation(s)" in out


class TestProduct:
    def test_point_multiple(self, capsys):
        code, out, _ = run(capsys, "product", "--grassmann", "1,5",
                           "--specials", "2,3,3,3,3,3,3")
        assert code == 0
        assert out.splitlines() == ["9*w(0,1)", "9"]

    def test_pencil_class(self, capsys):
        code, out, _ = run(capsys, "product", "--grassmann", "1,5",
                           "--specials", "2,3,3,3,3,3")
        assert code == 0
        assert out.splitlines() == ["9*w(0,2)"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "product", "--grassmann", "1,4",
                           "--specials", "2,2,2,2,2,2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"grassmann": [1, 4], "product": "5*w(0,1)"}

    @pytest.mark.parametrize("fmt", ["csv", "md"])
    def test_only_text_or_json(self, capsys, fmt):
        assert run(capsys, "product", "--grassmann", "1,5", "--specials",
                   "2,3,3,3,3,3,3", "--format", fmt) == \
            (2, "", "error: product needs --format text or json\n")

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "product", "--grassmann", "1,4",
                           "--specials", "3")
        assert code == 2
        assert err

    @pytest.mark.parametrize("grassmann", ["0,5", "2,5", "1,1"])
    def test_lines_only(self, capsys, grassmann):
        code, out, err = run(capsys, "product", "--grassmann", grassmann,
                             "--specials", "0")
        assert code == 2
        assert out == "" and err

    @pytest.mark.parametrize("grassmann", ["1", "1,5,2"])
    def test_grassmann_needs_two_values(self, capsys, grassmann):
        code, out, err = run(capsys, "product", "--grassmann", grassmann,
                             "--specials", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: --grassmann must be l,n, got {grassmann!r}\n"


class TestExitCodes:
    def test_invariant_error(self, capsys, monkeypatch):
        ring_degree = invariants.degree
        monkeypatch.setattr(invariants, "degree", lambda base: ring_degree(base) + 1)
        code, out, err = run(capsys, "analyze", "-n", "3", "--base", "1,1,1")
        assert code == 4
        assert out == ""
        assert "disagrees" in err

    def test_wrong_genus_exits_4(self, capsys, monkeypatch):
        # kappa + 1 on the joins with m > 0: every degree holds, the genus does not
        shared = invariants.kappa
        monkeypatch.setattr(invariants, "kappa",
                            lambda parts: shared(parts) + (parts.m > 0))
        assert run(capsys, "analyze", "-n", "5", "--base", "3,3,3,3,3,3,3") == (
            4, "", "error: adjunction gives 2g - 2 = 14, not the degeneration "
            "genus 12, for n=5 dims=3,3,3,3,3,3,3\n")

    def test_wrong_kernel_is_caught_under_optimize(self):
        # the tree degree adds leaves and never asks the kernel, so an
        # off-by-one kernel trips the ring-vs-tree or the m=0 => kappa=1 check
        code = (
            "import sys\n"
            "from incidence_scrolls import cli, grassmann\n"
            "kernel = grassmann._point_coefficient\n"
            "grassmann._point_coefficient = lambda n, hs: kernel(n, hs) + 1\n"
            "sys.exit(cli.main(['analyze', '-n', '5', '--base', '3,3,3,3,3,3,3']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=checkout_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    def test_run_exits_4_under_optimize(self):
        # the same off-by-one kernel, through the process entry point
        code = (
            "import sys\n"
            "from incidence_scrolls import cli, grassmann\n"
            "kernel = grassmann._point_coefficient\n"
            "grassmann._point_coefficient = lambda n, hs: kernel(n, hs) + 1\n"
            "sys.argv[1:] = ['analyze', '-n', '5', '--base', '3,3,3,3,3,3,3']\n"
            "cli.run()\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=buffered_env(),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

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
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cache", str(tmp_path / "cache.txt")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_stdout_closed_at_start(self):
        proc = cli_process("enumerate", "-n", "3", stderr=subprocess.PIPE,
                           preexec_fn=lambda: os.close(1))
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")


class TestProcessExit:
    """`python -m incidence_scrolls.cli` ends through `cli.run`, which flushes
    and calls os._exit; TestGoldenCorpus compares its output with `main`'s."""

    def test_reader_gone_before_help(self):
        # argparse prints the help and raises SystemExit, so cli.run's flush is
        # the first write to the pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen([sys.executable, "-m", "incidence_scrolls.cli", "--help"],
                                stdout=write_end, stderr=subprocess.PIPE,
                                env=buffered_env())
        os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")

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
