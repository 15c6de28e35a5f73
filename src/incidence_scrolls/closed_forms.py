"""Closed-form invariants for the three fixed-space families of incidence
scrolls, plus the published classification tables used as fixtures.

The families fix a line, a plane, or a 3-space in the base:

* line family:   {P^1, (n-1) P^(n-2)}                    (rational normal scrolls)
* plane family:  {P^2, i P^(n-3), (n-2i) P^(n-2)}
* solid family:  {P^3, j P^(n-4), i P^(n-3), (n+1-3j-2i) P^(n-2)}

These formulas are independent of the generic Schubert/degeneration engine
and serve as its cross-validation oracle: `check`, run by `scrolls table` and
the tests, compares a record's degree, genus and (k, e) with the engine, so
a printed value that disagrees with the engine is a suspected misprint.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .bases import InvariantError, _derived, format_base, is_nondegenerate


ClosedFormRecord = namedtuple(
    "ClosedFormRecord", "family base degree genus directrix")
ClosedFormRecord.__doc__ = """Closed-form invariants of one family member.

family is "p1s", "p2s" or "p3s"; directrix is (k, e), e the degree of the
directrix curve on the fixed P^k, as in ScrollReport.directrix.  The ambient
is base.ambient; the base is degenerate when `is_nondegenerate(base)` fails."""


def check(record: ClosedFormRecord, report) -> str:
    """The engine's `d= g= h1= dir=` text of `report`, its ScrollReport on
    record.base; raises InvariantError unless the degree and genus agree and,
    on a nondegenerate base, e on P^k (restriction to the span cuts P^k down)."""
    k, e = record.directrix
    engine_dir = dict(report.directrix).get(k)
    engine = f"d={report.degree} g={report.genus} h1={report.h1} dir={engine_dir}"
    if (report.degree, report.genus) != (record.degree, record.genus) or \
            is_nondegenerate(record.base) and engine_dir != e:
        raise InvariantError(
            f"the {record.family} closed form gives d={record.degree} g={record.genus} "
            f"dir={e}, the engine {engine}, for {format_base(record.base)}")
    return engine


def p1s(n: int) -> ClosedFormRecord:
    """Scroll with a directrix line: the rational normal scroll of degree n-1."""
    if n < 3:
        raise ValueError(f"line family needs n >= 3, got {n}")
    base = _derived(n, (1,) + (n - 2,) * (n - 1), "p1s closed form")
    return ClosedFormRecord(
        family="p1s", base=base, degree=n - 1, genus=0, directrix=(1, 1))


def p2s(n: int, i: int) -> ClosedFormRecord:
    """Scroll with a base plane, i spaces of dimension n-3 in the base.

    Degree C(n-i,2)+i-1, genus C(n-i-2,2), plane directrix of degree n-i-1.
    Some corners are degenerate (e.g. n=4, i=2, whose scroll spans a P^3).
    """
    if n < 4:
        raise ValueError(f"plane family needs n >= 4, got {n}")
    if not 0 <= 2 * i <= n:
        raise ValueError(f"need 0 <= i <= n/2, got i={i} for n={n}")
    base = _derived(n, sorted((2,) + (n - 3,) * i + (n - 2,) * (n - 2 * i)),
                    "p2s closed form")
    return ClosedFormRecord(
        family="p2s", base=base,
        degree=comb(n - i, 2) + i - 1,
        genus=comb(n - i - 2, 2),
        directrix=(2, n - i - 1),
    )


def p3s(n: int, j: int, i: int) -> ClosedFormRecord:
    """Scroll with a P^3 in the base, j spaces of dimension n-4 and i of n-3.

    With q = n - i - 2j:
    degree    C(q+1,3) - q + (i+j)q + j - 1,
    genus     C(q,3) + C(q-1,3) - 2q + (i+j)(q-2) + 4,
    directrix C(q,2) + i + j - 1  (curve inside the P^3).
    """
    if n < 5:
        raise ValueError(f"solid family needs n >= 5, got {n}")
    if not 0 <= 3 * j <= n + 1:
        raise ValueError(f"need 0 <= j <= (n+1)/3, got j={j} for n={n}")
    if not 0 <= 2 * i <= n + 1 - 3 * j:
        raise ValueError(f"need 0 <= i <= (n+1-3j)/2, got i={i} for n={n}, j={j}")
    q = n - i - 2 * j
    base = _derived(n, sorted(
        (3,) + (n - 4,) * j + (n - 3,) * i + (n - 2,) * (n + 1 - 3 * j - 2 * i)),
        "p3s closed form")
    return ClosedFormRecord(
        family="p3s", base=base,
        degree=comb(q + 1, 3) - q + (i + j) * q + j - 1,
        genus=comb(q, 3) + comb(q - 1, 3) - 2 * q + (i + j) * (q - 2) + 4,
        directrix=(3, comb(q, 2) + i + j - 1),
    )


TableRow = namedtuple(
    "TableRow", "record printed_degree printed_genus star printed_directrix")
TableRow.__doc__ = """One printed row of a classification table, with its fixture values;
printed_directrix is None when the row prints no such curve."""


def table(table_id: int) -> list[TableRow]:
    """The rows of one of the three published classification tables."""
    if table_id == 1:
        rows = [TableRow(p1s(n), n - 1, 0, False, 1) for n in range(3, 10)]
    elif table_id == 2:
        # The n=3 quadric carries a plane directrix conic but no base plane;
        # it is the line-family scroll printed again.
        rows = [
            TableRow(p1s(3), 2, 0, False, None),
            TableRow(p2s(4, 1), 3, 0, False, 2),
            TableRow(p2s(5, 2), 4, 0, False, 2),
            TableRow(p2s(6, 3), 5, 0, False, 2),
            TableRow(p2s(4, 0), 5, 1, False, 3),
            TableRow(p2s(5, 1), 6, 1, False, 3),
            TableRow(p2s(6, 2), 7, 1, False, 3),
            TableRow(p2s(7, 3), 8, 1, False, 3),
            TableRow(p2s(8, 4), 9, 1, False, 3),
            TableRow(p2s(5, 0), 9, 3, True, 4),
            TableRow(p2s(6, 1), 10, 3, True, 4),
            TableRow(p2s(7, 2), 11, 3, True, 4),
            TableRow(p2s(8, 3), 12, 3, True, 4),
            TableRow(p2s(9, 4), 13, 3, True, 4),
            TableRow(p2s(10, 5), 14, 3, True, 4),
        ]
    elif table_id == 3:
        # printed directrix degrees come from the "Directrix in P^3" column;
        # the R^10_3 row prints 5 where the closed form gives 6, kept verbatim
        rows = [
            TableRow(p3s(5, 0, 0), 14, 8, True, 9),
            TableRow(p3s(6, 1, 2), 5, 0, False, 3),
            TableRow(p3s(6, 1, 1), 7, 1, False, 4),
            TableRow(p3s(6, 1, 0), 10, 3, True, 5),
            TableRow(p3s(6, 0, 3), 9, 2, False, 5),
            TableRow(p3s(6, 0, 2), 13, 5, True, 7),
            TableRow(p3s(6, 0, 1), 19, 11, True, 10),
            TableRow(p3s(6, 0, 0), 28, 22, True, 14),
            TableRow(p3s(7, 2, 1), 6, 0, False, 3),
            TableRow(p3s(7, 2, 0), 8, 1, False, 4),
            TableRow(p3s(7, 1, 2), 10, 2, False, 5),
            TableRow(p3s(7, 1, 1), 14, 5, True, 7),
            TableRow(p3s(7, 1, 0), 20, 11, True, 10),
            TableRow(p3s(7, 0, 4), 12, 3, False, 6),
        ]
    else:
        raise ValueError(f"table id must be 1, 2 or 3, got {table_id}")
    return rows
