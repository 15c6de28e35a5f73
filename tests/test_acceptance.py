"""Acceptance gate: one pass/fail line per criterion, all exact arithmetic.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
from contextlib import contextmanager
from math import factorial

from incidence_scrolls.bases import (
    IncidenceBase,
    enumerate_bases,
    is_nondegenerate,
    join,
    restrict_to_span,
)
from incidence_scrolls.closed_forms import p2s, p3s, table
from incidence_scrolls.grassmann import product_of_specials
from incidence_scrolls.invariants import classify, degeneration_tree, kappa
from oracles import point_coefficient, separate


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL ({title})")
        raise
    print(f"CRITERION {number}: PASS ({title})")


def test_criterion_1_line_family_table():
    with criterion(1, "line-directrix table, n=3..9"):
        rows = table(1)
        assert len(rows) == 7
        for row, n in zip(rows, range(3, 10)):
            record = row.record
            assert record.base == IncidenceBase(n, (1,) + (n - 2,) * (n - 1))
            report = classify(record.base)
            assert report.degree == n - 1 == row.printed_degree
            assert report.genus == 0 == row.printed_genus
            assert dict(report.directrix)[1] == 1


def test_criterion_2_plane_family_table():
    with criterion(2, "plane-directrix table"):
        rows = table(2)
        assert len(rows) == 15
        for row in rows:
            report = classify(row.record.base)
            assert report.degree == row.printed_degree
            assert report.genus == row.printed_genus
            assert report.special == (report.h1 > 0) == row.star
            if row.printed_directrix is not None:
                effective = restrict_to_span(row.record.base)
                directrix = dict(report.directrix)
                assert directrix[2 if 2 in effective.dims else
                                 min(effective.dims)] == row.printed_directrix


def test_criterion_3_solid_family_table():
    with criterion(3, "solid-directrix table, one documented deviation"):
        rows = table(3)
        assert len(rows) == 14
        deviations = []
        for row in rows:
            report = classify(row.record.base)
            assert report.degree == row.printed_degree
            assert report.genus == row.printed_genus
            assert report.special == row.star
            directrix = dict(report.directrix)
            if directrix[3] != row.printed_directrix:
                deviations.append(row)
        assert len(deviations) == 1
        assert deviations[0].label == "R^10_3 in P^6"
        assert deviations[0].note is not None
        assert deviations[0].record.directrix_degree == 6
        assert deviations[0].printed_directrix == 5


def test_criterion_4_closed_form_sweeps():
    with criterion(4, "closed forms vs engine, n <= 12"):
        for n in range(4, 13):
            for i in range(0, n // 2 + 1):
                record = p2s(n, i)
                assert 2 * record.genus == (n - i - 2) * (n - i - 3)
                report = classify(record.base)
                assert (report.degree, report.genus) == \
                    (record.degree, record.genus)
                if is_nondegenerate(record.base):
                    assert dict(report.directrix)[2] == record.directrix_degree
        for n in range(5, 13):
            for j in range(0, (n + 1) // 3 + 1):
                for i in range(0, (n + 1 - 3 * j) // 2 + 1):
                    record = p3s(n, j, i)
                    report = classify(record.base)
                    assert (report.degree, report.genus) == \
                        (record.degree, record.genus)
                    if is_nondegenerate(record.base):
                        assert dict(report.directrix)[3] == record.directrix_degree


def test_criterion_5_pieri_proof_chains():
    with criterion(5, "Pieri proof-chain identities"):
        for n in range(3, 11):
            assert point_coefficient(n, [1] + [n - 2] * n) == n - 1
        for n in range(5, 11):
            assert point_coefficient(
                n, [2, n - 3] + [n - 2] * (n - 1)) == (n - 1) * (n - 2) // 2
        assert point_coefficient(5, [2] + [3] * 6) == 9


def test_criterion_6_catalan_oracle():
    with criterion(6, "Plucker degrees are Catalan numbers"):
        expected = {3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429}
        for n in range(3, 9):
            catalan = factorial(2 * n - 2) // (factorial(n - 1) * factorial(n))
            assert catalan == expected[n]
            assert product_of_specials(n, [n - 2] * (2 * n - 2)) == \
                {(0, 1): catalan}


def test_criterion_7_degeneration_bookkeeping():
    with criterion(7, "degeneration bookkeeping, exhaustive pair sweep"):
        def check(node):
            if node.action == "join":
                dot, ddot = node.children
                assert node.kappa >= 1
                if node.m == 0:
                    assert node.kappa == 1
                assert node.degree == dot.degree + ddot.degree
                assert node.genus == dot.genus + ddot.genus + node.kappa - 1
            for child in node.children:
                check(child)

        # the engine always joins the two smallest spaces; forcing the first
        # join onto every pair (all are admissible on a nondegenerate base)
        # must give the same degree and genus
        for n in range(3, 8):
            for base in enumerate_bases(n, nondegenerate_only=True):
                reference = degeneration_tree(base)
                check(reference)
                for i, j in itertools.combinations(range(len(base.dims)), 2):
                    result = join(base, i, j)
                    shared = kappa(result)
                    assert shared >= 1
                    if result.m == 0:
                        assert shared == 1
                    dot = degeneration_tree(result.dot)
                    ddot = degeneration_tree(result.ddot)
                    check(dot)
                    check(ddot)
                    assert (dot.degree + ddot.degree,
                            dot.genus + ddot.genus + shared - 1) == \
                        (reference.degree, reference.genus)


def test_criterion_8_enumeration_counts():
    with criterion(8, "nondegenerate base counts 1, 2, 5"):
        for n, count in [(3, 1), (4, 2), (5, 5)]:
            bases = enumerate_bases(n, nondegenerate_only=True)
            assert len(bases) == count
            # independent exhaustion over all dimension multisets
            brute = set()
            for size in range(1, 2 * n - 2):
                for dims in itertools.combinations_with_replacement(
                        range(n - 1), size):
                    if sum(n - 1 - d for d in dims) != 2 * n - 3:
                        continue
                    if any(a + b < n - 1 for a, b in
                           itertools.combinations(dims, 2)):
                        continue
                    brute.add(IncidenceBase(n, dims))
            assert set(bases) == brute


def test_criterion_9_round_trip_and_restrict():
    with criterion(9, "separate/join round trip; restriction to span"):
        for n in range(3, 8):
            for base in enumerate_bases(n, nondegenerate_only=True):
                for i, j in itertools.combinations(range(len(base.dims)), 2):
                    if base.dims[i] + base.dims[j] != n:
                        continue
                    lifted = separate(base, i, j)
                    di, dj = base.dims[i], base.dims[j]
                    li = lifted.dims.index(di)
                    lj = lifted.dims.index(dj) if dj != di else li + 1
                    back = join(lifted, li, lj)
                    assert back.m == 0
                    assert back.ddot == base
        assert restrict_to_span(IncidenceBase(4, (2, 1, 1))) == \
            IncidenceBase(3, (1, 1, 1))
