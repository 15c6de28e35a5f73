import sys
import traceback

import pytest

from incidence_scrolls.bases import is_nondegenerate, restrict_to_span
from incidence_scrolls.closed_forms import ClosedFormRecord, check, p1s, p2s, p3s
from incidence_scrolls.invariants import classify
from oracles import B, forced_join


class TestLineFamily:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_invariants(self, n):
        record = p1s(n)
        assert record.base == B(n, 1, *([n - 2] * (n - 1)))
        assert record.degree == n - 1
        assert record.genus == 0
        assert record.directrix == (1, 1)
        assert is_nondegenerate(record.base)

    def test_range(self):
        with pytest.raises(ValueError):
            p1s(2)


def test_record_stores_no_derived_field():
    # the ambient is base.ambient, and degeneracy is is_nondegenerate(base)
    assert ClosedFormRecord._fields == (
        "family", "base", "degree", "genus", "directrix")


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
        assert record.directrix == (2, dd)

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

    def test_embeds_in_next_family(self):
        # pushing the plane and one P^{n-2} into a hyperplane recovers the
        # same family one ambient down
        for n in range(5, 10):
            for i in range(0, (n - 1) // 2 + 1):
                base = p2s(n, i).base
                (_, ddot, _), _ = forced_join(base, 0, len(base.dims) - 1)
                assert ddot == p2s(n - 1, i).base

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
        assert record.directrix == (3, dd)

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

    def test_range(self):
        with pytest.raises(ValueError):
            p3s(4, 0, 0)
        with pytest.raises(ValueError):
            p3s(6, 3, 0)
        with pytest.raises(ValueError):
            p3s(6, 1, 3)


def test_engine_agreement_deep_line_family():
    # the witness of the line family is n levels deep; 100 frames above this
    # one must do, so no level of it may cost an interpreter frame
    record = p1s(300)
    assert (record.degree, record.genus, record.directrix) == (299, 0, (1, 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(sum(1 for _ in traceback.walk_stack(None)) + 100)
    try:
        check(record, classify(record.base))
    finally:
        sys.setrecursionlimit(limit)
