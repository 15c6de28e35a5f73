import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import incidence_scrolls
from incidence_scrolls import invariants
from incidence_scrolls.bases import (
    IncidenceBase,
    enumerate_bases,
    is_nondegenerate,
    join,
    restrict_to_span,
)
from incidence_scrolls.grassmann import product_of_specials
from incidence_scrolls.invariants import (
    InvariantError,
    classify,
    degeneration_tree,
    degree,
    directrix_degree,
    genus,
    kappa,
    speciality,
)


def B(ambient, *dims):
    return IncidenceBase(ambient, dims)


class TestDegree:
    def test_quadric(self):
        assert degree(B(3, 1, 1, 1)) == 2

    def test_cubic_scroll(self):
        assert degree(B(4, 1, 2, 2, 2)) == 3

    def test_quintic(self):
        assert degree(B(4, 2, 2, 2, 2, 2)) == 5

    def test_seven_solids(self):
        assert degree(B(5, 3, 3, 3, 3, 3, 3, 3)) == 14

    def test_degenerate_base(self):
        # the product still counts generators even when the scroll spans less
        assert degree(B(4, 1, 1, 2)) == 2

    def test_not_a_base(self):
        with pytest.raises(ValueError):
            degree(B(5, 2, 3))


class TestKappa:
    def test_seven_solids(self):
        assert kappa(B(5, 3, 3, 3, 3, 3, 3, 3), 0, 1) == 5

    def test_m_zero_forces_one(self):
        base = B(6, 2, 3, 3, 4, 4)
        assert base.dims[0] + base.dims[1] - base.ambient + 1 == 0
        assert kappa(base, 0, 1) == 1

    def test_five_planes(self):
        assert kappa(B(4, 2, 2, 2, 2, 2), 0, 1) == 2

    def test_inadmissible_pair(self):
        with pytest.raises(ValueError):
            kappa(B(6, 2, 2, 3, 4), 0, 1)  # m = 2+2-6+1 < 0


class TestGenus:
    @pytest.mark.parametrize("base,g", [
        (B(3, 1, 1, 1), 0),
        (B(4, 1, 2, 2, 2), 0),
        (B(4, 2, 2, 2, 2, 2), 1),
        (B(5, 2, 2, 2, 3), 0),
        (B(5, 2, 3, 3, 3, 3, 3), 3),
        (B(5, 3, 3, 3, 3, 3, 3, 3), 8),
        (B(6, 2, 3, 3, 4, 4), 1),
    ])
    def test_values(self, base, g):
        value, node = genus(base)
        assert value == g
        assert node.genus == g

    def test_degenerate_base(self):
        # {P^2, P^2, P^3, P^4} in P^6 spans only a P^5
        value, node = genus(B(6, 2, 2, 3, 4))
        assert node.action == "restrict"
        assert value == genus(B(5, 2, 2, 2, 3))[0] == 0


class TestDegenerationTree:
    def test_worked_example(self):
        node = degeneration_tree(B(6, 2, 3, 3, 4, 4))
        assert node.action == "join"
        assert node.pair == (2, 3)
        assert node.m == 0 and node.kappa == 1
        assert (node.degree, node.genus) == (7, 1)
        dot, ddot = node.children
        assert dot.base == B(6, 0, 3, 4, 4) and dot.action == "leaf"
        assert ddot.base == B(5, 2, 2, 3, 3, 3)

    def test_leaf_cases(self):
        leaf = degeneration_tree(B(3, 0, 1))
        assert leaf.action == "leaf"
        assert (leaf.degree, leaf.genus) == (1, 0)

    def test_bookkeeping_invariants(self):
        def walk(node):
            if node.action == "join":
                dot, ddot = node.children
                assert node.degree == dot.degree + ddot.degree
                assert node.genus == dot.genus + ddot.genus + node.kappa - 1
                assert node.kappa >= 1
                if node.m == 0:
                    assert node.kappa == 1
            elif node.action == "restrict":
                (child,) = node.children
                assert (node.degree, node.genus) == (child.degree, child.genus)
            else:
                assert (node.degree, node.genus) == (1, 0)
                assert not node.children
            for child in node.children:
                walk(child)

        for n in range(3, 7):
            for base in enumerate_bases(n):
                walk(degeneration_tree(base))

    def test_forced_first_pair_agrees(self):
        # any admissible starting pair must yield the same invariants
        for n in range(3, 7):
            for base in enumerate_bases(n, nondegenerate_only=True):
                reference = degeneration_tree(base)
                for i, j in itertools.combinations(range(len(base.dims)), 2):
                    if base.dims[i] + base.dims[j] - n + 1 < 0:
                        continue
                    forced = degeneration_tree(base, first_pair=(i, j))
                    assert (forced.degree, forced.genus) == \
                        (reference.degree, reference.genus)

    def test_degree_matches_ring(self):
        for n in range(3, 7):
            for base in enumerate_bases(n):
                assert degeneration_tree(base).degree == degree(base)

    def test_to_dict(self):
        d = degeneration_tree(B(4, 2, 2, 2, 2, 2)).to_dict()
        assert d["action"] == "join"
        assert d["base"] == "n=4 dims=2,2,2,2,2"
        assert len(d["children"]) == 2


class TestDirectrixDegree:
    def test_line_directrix(self):
        assert directrix_degree(B(4, 1, 2, 2, 2), 0) == 1

    def test_plane_quartic(self):
        assert directrix_degree(B(5, 2, 3, 3, 3, 3, 3), 0) == 4

    def test_solid_family(self):
        assert directrix_degree(B(5, 3, 3, 3, 3, 3, 3, 3), 0) == 9

    def test_point_rejected(self):
        with pytest.raises(ValueError):
            directrix_degree(B(3, 0, 1), 0)


class TestSpeciality:
    def test_nonspecial(self):
        assert speciality(4, 3, 0) == 0
        assert speciality(5, 6, 1) == 0

    def test_special(self):
        assert speciality(5, 9, 3) == 1
        assert speciality(5, 14, 8) == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            speciality(3, 5, 0)


class TestClassify:
    def test_quadric(self):
        report = classify(B(3, 1, 1, 1))
        assert (report.degree, report.genus, report.h1) == (2, 0, 0)
        assert not report.special
        assert report.directrix == ((1, 1, 0),)

    def test_seven_solids(self):
        report = classify(B(5, 3, 3, 3, 3, 3, 3, 3))
        assert (report.degree, report.genus) == (14, 8)
        assert report.h1 == 6 and report.special
        assert report.directrix == ((3, 9, 8),)

    def test_table_row_p6(self):
        report = classify(B(6, 2, 3, 3, 4, 4))
        assert (report.degree, report.genus, report.h1) == (7, 1, 0)
        assert report.span == 6
        assert report.directrix == ((2, 3, 1), (3, 4, 1), (4, 5, 1))

    def test_degenerate_base_spans_less(self):
        report = classify(B(6, 2, 2, 3, 4))
        assert report.span == 5
        assert (report.degree, report.genus) == (4, 0)
        # directrix curves are read off the restricted configuration
        assert report.directrix == \
            classify(B(5, 2, 2, 2, 3)).directrix

    def test_hyperplanes_dropped(self):
        with_hyperplane = classify(B(5, 2, 3, 3, 3, 3, 3, 4))
        without = classify(B(5, 2, 3, 3, 3, 3, 3))
        assert (with_hyperplane.degree, with_hyperplane.genus) == \
            (without.degree, without.genus)
        assert with_hyperplane.base == without.base

    def test_to_dict(self):
        d = classify(B(4, 1, 2, 2, 2)).to_dict(include_tree=True)
        assert d["dims"] == [1, 2, 2, 2]
        assert d["degree"] == 3 and d["h1"] == 0
        assert d["tree"]["action"] == "join"

    def test_speciality_consistency(self):
        # h1 recomputed from span/degree/genus on every base through P^7
        for n in range(3, 8):
            for base in enumerate_bases(n):
                report = classify(base)
                assert report.h1 == report.span - report.degree + \
                    2 * report.genus - 1
                assert report.special == (report.h1 > 0)


class TestRingConsistency:
    def test_point_coefficient_equals_pencil(self):
        # one extra hyperplane condition takes each pencil class to a point;
        # degree() reads the point coefficient of the longer product
        for n in range(3, 9):
            bases = enumerate_bases(n)
            assert any(0 in base.dims for base in bases)
            assert any(not is_nondegenerate(base) for base in bases)
            for base in bases:
                d = degree(base)
                assert product_of_specials(n, base.dims) == {(0, 2): d}
                assert product_of_specials(n, list(base.dims) + [n - 2]) == {(0, 1): d}


RING_DEGREE_OFF_BY_ONE = """
from incidence_scrolls import invariants
from incidence_scrolls.bases import IncidenceBase

print("debug", __debug__)
ring_degree = invariants.degree
invariants.degree = lambda base: ring_degree(base) + 1
try:
    invariants.classify(IncidenceBase(4, (1, 2, 2, 2)))
except invariants.InvariantError as exc:
    print("InvariantError:", exc)
"""


class TestCrossChecks:
    def test_ring_degree_check_survives_optimize(self):
        src = str(Path(incidence_scrolls.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", RING_DEGREE_OFF_BY_ONE],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "debug False",
            "InvariantError: ring degree 4 disagrees with degeneration "
            "bookkeeping 3 for n=4 dims=1,2,2,2",
        ]

    def test_kappa_must_be_positive(self, monkeypatch):
        monkeypatch.setattr(invariants, "intersection_number", lambda n, hs: 0)
        with pytest.raises(InvariantError):
            kappa(B(5, 3, 3, 3, 3, 3, 3, 3), 0, 1)

    def test_m_zero_join_shares_one_generator(self, monkeypatch):
        monkeypatch.setattr(invariants, "kappa", lambda base, i, j: 2)
        with pytest.raises(InvariantError):
            degeneration_tree(B(6, 2, 3, 3, 4, 4), first_pair=(0, 1))
