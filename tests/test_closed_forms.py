import sys
import traceback

import pytest

from incidence_scrolls.bases import is_nondegenerate, join, restrict_to_span
from incidence_scrolls.closed_forms import ClosedFormRecord, p1s, p2s, p3s, table
from incidence_scrolls.invariants import classify
from oracles import B


def plane_records(max_n):
    for n in range(4, max_n + 1):
        for i in range(0, n // 2 + 1):
            yield p2s(n, i)


def solid_records(max_n):
    for n in range(5, max_n + 1):
        for j in range(0, (n + 1) // 3 + 1):
            for i in range(0, (n + 1 - 3 * j) // 2 + 1):
                yield p3s(n, j, i)


def assert_engine_agrees(record):
    """Degree, genus and the fixed space's directrix degree match the engine."""
    report = classify(record.base)
    assert (report.degree, report.genus) == (record.degree, record.genus)
    if is_nondegenerate(record.base):
        fixed_dim = {"p1s": 1, "p2s": 2, "p3s": 3}[record.family]
        assert dict(report.directrix)[fixed_dim] == record.directrix_degree


class TestLineFamily:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_invariants(self, n):
        record = p1s(n)
        assert record.base == B(n, 1, *([n - 2] * (n - 1)))
        assert record.degree == n - 1
        assert record.genus == 0
        assert record.directrix_degree == 1
        assert is_nondegenerate(record.base)

    def test_range(self):
        with pytest.raises(ValueError):
            p1s(2)


def test_record_stores_no_derived_field():
    # the ambient is base.ambient, and degeneracy is is_nondegenerate(base)
    assert ClosedFormRecord._fields == (
        "family", "base", "degree", "genus", "directrix_degree")


class TestPlaneFamily:
    @pytest.mark.parametrize("n,i,d,g,dd", [
        (4, 0, 5, 1, 3),
        (4, 1, 3, 0, 2),
        (5, 0, 9, 3, 4),
        (5, 1, 6, 1, 3),
        (5, 2, 4, 0, 2),
        (6, 1, 10, 3, 4),
        (8, 3, 12, 3, 4),
    ])
    def test_invariants(self, n, i, d, g, dd):
        record = p2s(n, i)
        assert record.degree == d
        assert record.genus == g
        assert record.directrix_degree == dd

    def test_base_shape(self):
        assert p2s(6, 2).base == B(6, 2, 3, 3, 4, 4)

    def test_genus_identity(self):
        # 2g = (n-i-2)(n-i-3) for every admissible pair
        for n in range(4, 13):
            for i in range(0, n // 2 + 1):
                assert 2 * p2s(n, i).genus == (n - i - 2) * (n - i - 3)

    def test_degenerate_corner(self):
        record = p2s(4, 2)
        assert not is_nondegenerate(record.base)
        assert record.base == B(4, 1, 1, 2)
        assert restrict_to_span(record.base) == B(3, 1, 1, 1)
        assert (record.degree, record.genus) == (2, 0)

    def test_engine_agreement(self):
        for record in plane_records(12):
            assert_engine_agrees(record)

    def test_embeds_in_next_family(self):
        # pushing the plane and one P^{n-2} into a hyperplane recovers the
        # same family one ambient down
        for n in range(5, 10):
            for i in range(0, (n - 1) // 2 + 1):
                base = p2s(n, i).base
                result = join(base, 0, len(base.dims) - 1)
                assert result.ddot == p2s(n - 1, i).base

    def test_range(self):
        with pytest.raises(ValueError):
            p2s(3, 0)
        with pytest.raises(ValueError):
            p2s(6, 4)


class TestSolidFamily:
    @pytest.mark.parametrize("n,j,i,d,g,dd", [
        (5, 0, 0, 14, 8, 9),
        (6, 1, 2, 5, 0, 3),
        (6, 1, 1, 7, 1, 4),
        (6, 1, 0, 10, 3, 6),
        (6, 0, 3, 9, 2, 5),
        (6, 0, 2, 13, 5, 7),
        (6, 0, 1, 19, 11, 10),
        (6, 0, 0, 28, 22, 14),
        (7, 2, 1, 6, 0, 3),
        (7, 1, 1, 14, 5, 7),
        (7, 0, 4, 12, 3, 6),
    ])
    def test_invariants(self, n, j, i, d, g, dd):
        record = p3s(n, j, i)
        assert record.degree == d
        assert record.genus == g
        assert record.directrix_degree == dd

    def test_base_shape(self):
        assert p3s(6, 1, 1).base == B(6, 2, 3, 3, 4, 4)
        assert p3s(5, 0, 0).base == B(5, 3, 3, 3, 3, 3, 3, 3)

    def test_small_q_reductions(self):
        # q = n - i - 2j; the closed forms collapse to linear expressions at
        # the rational (q=2) and elliptic (q=3) corners of the family
        for n in range(5, 12):
            for j in range(0, (n + 1) // 3 + 1):
                for q, d_fn, g_fn in [
                    (2, lambda i, j: 2 * i + 3 * j - 2, lambda i, j: 0),
                    (3, lambda i, j: 3 * i + 4 * j, lambda i, j: i + j - 1),
                ]:
                    i = n - q - 2 * j
                    if i < 0 or 2 * i > n + 1 - 3 * j:
                        continue
                    record = p3s(n, j, i)
                    assert record.degree == d_fn(i, j)
                    assert record.genus == g_fn(i, j)

    def test_engine_agreement(self):
        for record in solid_records(12):
            assert_engine_agrees(record)

    def test_range(self):
        with pytest.raises(ValueError):
            p3s(4, 0, 0)
        with pytest.raises(ValueError):
            p3s(6, 3, 0)
        with pytest.raises(ValueError):
            p3s(6, 1, 3)


class TestTables:
    def test_row_counts(self):
        assert len(table(1)) == 7
        assert len(table(2)) == 15
        assert len(table(3)) == 14

    def test_table1_families(self):
        for row, n in zip(table(1), range(3, 10)):
            assert row.record.family == "p1s"
            assert row.record.base.ambient == n
            assert not row.star

    def test_table2_stars(self):
        starred = [row for row in table(2) if row.star]
        assert len(starred) == 6
        assert all(row.printed_genus == 3 for row in starred)

    def test_table3_stars(self):
        assert sum(row.star for row in table(3)) == 7

    def test_table3_misprint_is_annotated(self):
        noted = [row for row in table(3) if row.note]
        assert len(noted) == 1
        assert noted[0].label == "R^10_3 in P^6"
        assert noted[0].printed_directrix == 5
        assert noted[0].record.directrix_degree == 6

    def test_labels_carry_invariants(self):
        for table_id in (1, 2, 3):
            for row in table(table_id):
                head = row.label.removeprefix("R^").split(" ")[0]
                d, g = (int(p) for p in head.split("_"))
                assert (row.printed_degree, row.printed_genus) == (d, g)

    def test_bad_id(self):
        with pytest.raises(ValueError):
            table(4)


def test_engine_agreement_to_20():
    # acceptance criterion 4 stops at n = 12; this runs both families to n = 20
    records = [*plane_records(20), *solid_records(20)]
    assert len(records) == 505
    for record in records:
        assert_engine_agrees(record)


def test_engine_agreement_deep_line_family():
    # the witness of the line family is n levels deep; 100 frames above this
    # one must do, so no level of it may cost an interpreter frame
    record = p1s(300)
    assert (record.degree, record.genus, record.directrix_degree) == (299, 0, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(sum(1 for _ in traceback.walk_stack(None)) + 100)
    try:
        assert_engine_agrees(record)
    finally:
        sys.setrecursionlimit(limit)
