"""Which seeded faults the runtime cross-checks catch.

Each fault replaces one name of the engine; each command runs through
`cli.main` in process on cold memos, once clean and once under each fault.
A cell reads `caught` (exit 4, no stdout, one `error: ` line), `escapes`
(exit 0, stdout changed) or `-` (the clean run's exit code, stdout and
stderr, exactly).  The table runs again under `python -O`, whose child
imports this module and prints `measure()` as JSON.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from incidence_scrolls import bases, cli, closed_forms, grassmann, invariants
from oracles import run_optimized


COMMANDS = {
    "enum9": ["enumerate", "-n", "9", "--format", "csv"],
    "table1": ["table", "--id", "1"],
    "table2": ["table", "--id", "2"],
    "table3": ["table", "--id", "3"],
    "tree": ["analyze", "-n", "6", "--base", "2,3,3,4,4", "--tree", "--format", "json"],
    "p1s40": ["analyze", "-n", "40", "--base", ",".join(["1"] + ["38"] * 39)],
    "product": ["product", "--grassmann", "1,6", "--specials", "2,4,4,4,4"],
}

# the kernel memo, cleared through this object whatever name a fault replaces
KERNEL = grassmann._point_coefficient
directrix_degree, kappa, degree = (invariants.directrix_degree, invariants.kappa,
                                   invariants.degree)
ScrollReport, derived, satisfies_is = (invariants.ScrollReport, bases._derived,
                                       bases.satisfies_is)
node_table, product_of_specials = cli.node_table, cli.product_of_specials
p2s, p3s = closed_forms.p2s, closed_forms.p3s


class H1PlusTwo(ScrollReport):
    __slots__ = ()

    @property
    def h1(self):
        return super().h1 + 2


class NegativeH1(ScrollReport):
    __slots__ = ()
    h1 = -3


def kappa_plus_one_on_join_rows(root):
    table = node_table(root)
    for row in table["nodes"]:
        if "kappa" in row:
            row["kappa"] += 1
    return table


def lowest_term_plus_one(n, hs):
    terms = product_of_specials(n, hs)
    terms[min(terms)] += 1
    return terms


def more_genus(record, by=1):
    return record._replace(genus=record.genus + by)


# name: (module, attribute, replacement); cli binds node_table and
# product_of_specials by name, so those are patched where cli looks them up
FAULTS = {
    "e_(s-2) + 1": (invariants, "directrix_degree",
                    lambda base, a: directrix_degree(base, a) + (a == base.ambient - 2)),
    "every e_a + 1": (invariants, "directrix_degree",
                      lambda base, a: directrix_degree(base, a) + 1),
    "kappa + 1 if m > 0": (invariants, "kappa",
                           lambda dot: kappa(dot) + (dot.dims[0] > 0)),
    "kernel + 1": (grassmann, "_point_coefficient", lambda n, hs: KERNEL(n, hs) + 1),
    "kernel = 0": (grassmann, "_point_coefficient", lambda n, hs: 0),
    "kappa = 2": (invariants, "kappa", lambda dot: 2),
    "ring degree + 1": (invariants, "degree", lambda base: degree(base) + 1),
    "h1 + 2": (invariants, "ScrollReport", H1PlusTwo),
    "h1 = -3": (invariants, "ScrollReport", NegativeH1),
    "join drops P^m in P^4": (bases, "_derived", lambda ambient, dims, step: derived(
        ambient, dims[1:] if ambient == 4 else dims, step)),
    "no base in P^4": (bases, "satisfies_is",
                       lambda base: base.ambient != 4 and satisfies_is(base)),
    "node_table kappa + 1": (cli, "node_table", kappa_plus_one_on_join_rows),
    "product + 1": (cli, "product_of_specials", lowest_term_plus_one),
    "p2s genus + 1": (closed_forms, "p2s", lambda n, i: more_genus(p2s(n, i))),
    "p3s genus + 1 at (1, 0)": (closed_forms, "p3s", lambda n, j, i: more_genus(
        p3s(n, j, i), (j, i) == (1, 0))),
}

EXPECTED = """
                         enum9   table1  table2  table3  tree    p1s40   product
e_(s-2) + 1              escapes caught  caught  caught  escapes escapes -
every e_a + 1            caught  caught  caught  caught  caught  caught  -
kappa + 1 if m > 0       caught  -       caught  caught  caught  -       -
kernel + 1               caught  caught  caught  caught  caught  caught  -
kernel = 0               caught  caught  caught  caught  caught  caught  -
kappa = 2                caught  caught  caught  caught  caught  caught  -
ring degree + 1          caught  caught  caught  caught  caught  caught  -
h1 + 2                   escapes escapes escapes escapes escapes escapes -
h1 = -3                  caught  caught  caught  caught  caught  caught  -
join drops P^m in P^4    caught  caught  caught  caught  caught  caught  -
no base in P^4           caught  caught  caught  caught  caught  caught  -
node_table kappa + 1     -       -       -       -       escapes -       -
product + 1              -       -       -       -       -       -       escapes
p2s genus + 1            -       -       caught  -       -       -       -
p3s genus + 1 at (1, 0)  -       -       -       caught  -       -       -
"""
HEADER, *ROWS = EXPECTED.strip("\n").splitlines()
GRID = {name: cells for name, *cells in (row.rsplit(maxsplit=len(COMMANDS))
                                         for row in ROWS)}

# the error line of a caught cell, after "error: ", where it is pinned
PINNED = {
    ("kappa + 1 if m > 0", "table3"): "adjunction gives 2g - 2 = 14, not the "
        "degeneration genus 12, for n=5 dims=3,3,3,3,3,3,3",
    ("kernel = 0", "tree"): "kappa must be positive, got 0",
    ("kappa = 2", "tree"): "m=0 join must share one generator, got 2",
    ("ring degree + 1", "tree"): "ring degree 8 disagrees with degeneration "
        "bookkeeping 7 for n=6 dims=2,3,3,4,4",
    ("h1 = -3", "tree"): "negative speciality h1=-3 for (n=6, d=7, g=1); scroll "
        "cannot be linearly normal",
    ("join drops P^m in P^4", "table1"): "join produced n=4 dims=2,2, which is "
        "not an incidence-scroll base",
    ("no base in P^4", "table3"): "join produced n=4 dims=2,2,2,2,2, which is not "
        "an incidence-scroll base",
    ("no base in P^4", "enum9"): "restrict_to_span produced n=4 dims=1,1,2, which "
        "is not an incidence-scroll base",
    ("no base in P^4", "table1"): "p1s closed form produced n=4 dims=1,2,2,2, "
        "which is not an incidence-scroll base",
    ("p3s genus + 1 at (1, 0)", "table3"): "the p3s closed form gives d=10 g=4 "
        "dir=6, the engine d=10 g=3 h1=1 dir=6, for n=6 dims=2,3,4,4,4,4",
}


def clear_memos():
    invariants._nodes.clear()
    KERNEL.cache_clear()


def run(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` on cold memos; a faulty
    value must not seed the next run."""
    out, err = io.StringIO(), io.StringIO()
    clear_memos()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        clear_memos()
    return code, out.getvalue(), err.getvalue()


def cell(clean, faulty):
    """[cell, the caught error line after "error: "]; a result that is none of
    the three cells reads [the exit code, stderr]."""
    code, out, err = faulty
    caught = re.fullmatch("error: (.*)\n", err)  # one line: "." stops at "\n"
    if code == 4 and out == "" and caught:
        return ["caught", caught[1]]
    if faulty == clean:
        return ["-", ""]
    if code == 0 and out != clean[1]:
        return ["escapes", ""]
    return [code, err]


def measure():
    """{fault: [cell(...) for each command]}, every patch restored."""
    clean = {name: run(argv) for name, argv in COMMANDS.items()}
    grid = {}
    for name, (module, attribute, replacement) in FAULTS.items():
        unpatched = getattr(module, attribute)
        setattr(module, attribute, replacement)
        try:
            grid[name] = [cell(clean[command], run(argv))
                          for command, argv in COMMANDS.items()]
        finally:
            setattr(module, attribute, unpatched)
    return grid


def check(grid):
    assert {name: [c for c, _ in cells] for name, cells in grid.items()} == GRID
    commands = list(COMMANDS)
    assert {key: grid[key[0]][commands.index(key[1])][1] for key in PINNED} == PINNED


@pytest.fixture(scope="module")
def grid():
    return measure()


def test_table_cannot_drift():
    assert HEADER.split() == list(COMMANDS)
    assert list(GRID) == list(FAULTS)


def test_grid(grid):
    check(grid)


def test_grid_under_optimize(grid):
    code = (f"import json, sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import test_faults\nprint(json.dumps([__debug__, test_faults.measure()]))\n")
    proc = run_optimized("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    debug, optimized = json.loads(proc.stdout)
    assert debug is False
    check(optimized)
    assert optimized == grid
