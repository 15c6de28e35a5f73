"""Closed-form invariants for the three fixed-space families of incidence
scrolls, plus the published classification tables used as fixtures.

The families fix a line, a plane, or a 3-space in the base:

* line family:   {P^1, (n-1) P^(n-2)}                    (rational normal scrolls)
* plane family:  {P^2, i P^(n-3), (n-2i) P^(n-2)}
* solid family:  {P^3, j P^(n-4), i P^(n-3), (n+1-3j-2i) P^(n-2)}

These formulas are independent of the generic Schubert/degeneration engine
and serve as its cross-validation oracle.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .bases import _derived, is_nondegenerate


ClosedFormRecord = namedtuple(
    "ClosedFormRecord",
    "family n base degree genus directrix_degree extras degenerate",
    defaults=(None, False))
ClosedFormRecord.__doc__ = """Closed-form invariants of one family member.

family is "p1s", "p2s" or "p3s"; extras holds the Table-1 columns of the
line family and is None for the others."""


def p1s(n: int) -> ClosedFormRecord:
    """Scroll with a directrix line: the rational normal scroll of degree n-1.

    Extras carry the Table-1 columns: the invariant e of the normalized
    ruled surface, the degree of the twisting divisor of the embedding, and
    the number of minimum directrix curves (None means infinitely many).
    """
    if n < 3:
        raise ValueError(f"line family needs n >= 3, got {n}")
    base = _derived(n, (1,) + (n - 2,) * (n - 1), "p1s closed form")
    return ClosedFormRecord(
        family="p1s", n=n, base=base,
        degree=n - 1, genus=0, directrix_degree=1,
        extras={
            "e": max(n - 3, 0),
            "deg_b": n - 2,
            "min_directrix_count": None if n == 3 else 1,
        },
        degenerate=not is_nondegenerate(base),
    )


def p2s(n: int, i: int) -> ClosedFormRecord:
    """Scroll with a base plane, i spaces of dimension n-3 in the base.

    Degree C(n-i,2)+i-1, genus C(n-i-2,2), plane directrix of degree n-i-1.
    Degenerate corners (e.g. n=4, i=2) are flagged.
    """
    if n < 4:
        raise ValueError(f"plane family needs n >= 4, got {n}")
    if not 0 <= 2 * i <= n:
        raise ValueError(f"need 0 <= i <= n/2, got i={i} for n={n}")
    base = _derived(n, sorted((2,) + (n - 3,) * i + (n - 2,) * (n - 2 * i)),
                    "p2s closed form")
    return ClosedFormRecord(
        family="p2s", n=n, base=base,
        degree=comb(n - i, 2) + i - 1,
        genus=comb(n - i - 2, 2),
        directrix_degree=n - i - 1,
        degenerate=not is_nondegenerate(base),
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
        family="p3s", n=n, base=base,
        degree=comb(q + 1, 3) - q + (i + j) * q + j - 1,
        genus=comb(q, 3) + comb(q - 1, 3) - 2 * q + (i + j) * (q - 2) + 4,
        directrix_degree=comb(q, 2) + i + j - 1,
        degenerate=not is_nondegenerate(base),
    )


TableRow = namedtuple(
    "TableRow",
    "label record star printed_degree printed_genus printed_directrix note")
TableRow.__doc__ = """One printed row of a classification table, with its fixture values.

label reads e.g. "R^14_8 in P^5"; printed_directrix is None when the row
prints no such curve."""


def _row(label, record, *, star=False, directrix=None, note=None) -> TableRow:
    d, g = (int(p) for p in label.removeprefix("R^").split(" ")[0].split("_"))
    return TableRow(label=label, record=record, star=star,
                    printed_degree=d, printed_genus=g,
                    printed_directrix=directrix, note=note)


def table(table_id: int) -> list[TableRow]:
    """The rows of one of the three published classification tables."""
    if table_id == 1:
        return [_row(f"R^{n - 1}_0 in P^{n}", p1s(n), directrix=1)
                for n in range(3, 10)]

    if table_id == 2:
        # The n=3 quadric carries a plane directrix conic but no base plane;
        # it is the line-family scroll printed again.
        spec_rows = [
            ("R^2_0 in P^3", p1s(3), False, None),
            ("R^3_0 in P^4", p2s(4, 1), False, 2),
            ("R^4_0 in P^5", p2s(5, 2), False, 2),
            ("R^5_0 in P^6", p2s(6, 3), False, 2),
            ("R^5_1 in P^4", p2s(4, 0), False, 3),
            ("R^6_1 in P^5", p2s(5, 1), False, 3),
            ("R^7_1 in P^6", p2s(6, 2), False, 3),
            ("R^8_1 in P^7", p2s(7, 3), False, 3),
            ("R^9_1 in P^8", p2s(8, 4), False, 3),
            ("R^9_3 in P^5", p2s(5, 0), True, 4),
            ("R^10_3 in P^6", p2s(6, 1), True, 4),
            ("R^11_3 in P^7", p2s(7, 2), True, 4),
            ("R^12_3 in P^8", p2s(8, 3), True, 4),
            ("R^13_3 in P^9", p2s(9, 4), True, 4),
            ("R^14_3 in P^10", p2s(10, 5), True, 4),
        ]
        return [_row(label, record, star=star, directrix=directrix)
                for label, record, star, directrix in spec_rows]

    if table_id == 3:
        # printed directrix degrees come from the "Directrix in P^3" column;
        # the R^10_3 row prints 5 where the family formula (and the cycle
        # product) give 6 -- kept verbatim and annotated as a misprint.
        spec_rows = [
            ("R^14_8 in P^5", p3s(5, 0, 0), True, 9, None),
            ("R^5_0 in P^6", p3s(6, 1, 2), False, 3, None),
            ("R^7_1 in P^6", p3s(6, 1, 1), False, 4, None),
            ("R^10_3 in P^6", p3s(6, 1, 0), True, 5,
             "printed directrix degree 5 disagrees with the closed form "
             "and the cycle product (both give 6); suspected misprint"),
            ("R^9_2 in P^6", p3s(6, 0, 3), False, 5, None),
            ("R^13_5 in P^6", p3s(6, 0, 2), True, 7, None),
            ("R^19_11 in P^6", p3s(6, 0, 1), True, 10, None),
            ("R^28_22 in P^6", p3s(6, 0, 0), True, 14, None),
            ("R^6_0 in P^7", p3s(7, 2, 1), False, 3, None),
            ("R^8_1 in P^7", p3s(7, 2, 0), False, 4, None),
            ("R^10_2 in P^7", p3s(7, 1, 2), False, 5, None),
            ("R^14_5 in P^7", p3s(7, 1, 1), True, 7, None),
            ("R^20_11 in P^7", p3s(7, 1, 0), True, 10, None),
            ("R^12_3 in P^7", p3s(7, 0, 4), False, 6, None),
        ]
        return [_row(label, record, star=star, directrix=directrix, note=note)
                for label, record, star, directrix, note in spec_rows]

    raise ValueError(f"table id must be 1, 2 or 3, got {table_id}")
