"""Acceptance gate: one pass/fail line per criterion, all exact arithmetic.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import io
import itertools
from contextlib import contextmanager, redirect_stdout
from math import factorial

from incidence_scrolls.bases import IncidenceBase, enumerate_bases, restrict_to_span
from incidence_scrolls.cli import main
from incidence_scrolls.closed_forms import check, p2s, p3s, table
from incidence_scrolls.grassmann import product_of_specials
from incidence_scrolls.invariants import classify, degeneration_tree, node_table
from oracles import (
    brute_force_bases,
    check_witness,
    forced_invariants,
    nondegenerate_bases,
    nondegenerate_oracle,
    plane_records,
    point_coefficient,
    round_trip,
    separable_pairs,
    solid_records,
)


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
                assert (row.record.directrix[0], row.printed_directrix) in report.directrix


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
            if (row.record.directrix[0], row.printed_directrix) not in report.directrix:
                deviations.append(row)
        assert len(deviations) == 1
        assert (deviations[0].printed_degree, deviations[0].printed_genus,
                deviations[0].record.base.ambient) == (10, 3, 6)
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["table", "--id", "3"]) == 0
        annotated = [line for line in out.getvalue().splitlines()
                     if "DEVIATION" in line]
        assert len(annotated) == 1
        assert annotated[0].startswith("R^10_3 in P^6 ")
        assert "directrix 6 vs printed 5" in annotated[0]
        assert annotated[0].endswith("suspected misprint)")
        assert deviations[0].record.directrix == (3, 6)
        assert deviations[0].printed_directrix == 5


def test_criterion_4_closed_form_sweeps():
    with criterion(4, "closed forms vs engine, n <= 20"):
        records = [*plane_records(20), *solid_records(20)]
        assert len(records) == 505
        for record in records:
            check(record, classify(record.base))
        # the check compares no directrix on these, whose span cuts P^k down
        assert [record for record in records if not nondegenerate_oracle(record.base)] \
            == [p2s(4, 2), p3s(5, 1, 1), p3s(5, 2, 0), p3s(6, 2, 0)]


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
        # the engine always joins the two smallest spaces; the oracle forces
        # the first join onto every pair (all are admissible on a
        # nondegenerate base), which must give the same degree and genus
        for n in range(3, 8):
            for base in nondegenerate_bases(n):
                reference = degeneration_tree(base)
                check_witness(base, node_table(reference))
                for i, j in itertools.combinations(range(len(base.dims)), 2):
                    assert forced_invariants(base, i, j) == \
                        (reference.degree, reference.genus)


def test_criterion_8_enumeration_counts():
    with criterion(8, "nondegenerate base counts 1, 2, 5"):
        for n, count in [(3, 1), (4, 2), (5, 5)]:
            bases = nondegenerate_bases(n)
            assert len(bases) == count
            # independent exhaustion over all dimension multisets
            assert set(bases) == set(filter(nondegenerate_oracle, brute_force_bases(n)))


def test_criterion_9_round_trip_and_restrict():
    with criterion(9, "separate/join round trip; restriction to span"):
        routes = {round_trip(base, i, j)
                  for n in range(3, 8) for base in enumerate_bases(n)
                  for i, j in separable_pairs(base)}
        assert routes == {"join", "oracle"}, routes
        assert restrict_to_span(IncidenceBase(4, (2, 1, 1))) == \
            IncidenceBase(3, (1, 1, 1))
