import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import incidence_scrolls
from incidence_scrolls import grassmann, invariants
from incidence_scrolls.bases import (
    IncidenceBase,
    enumerate_bases,
    format_base,
    is_nondegenerate,
    join,
    restrict_to_span,
    satisfies_is,
)
from incidence_scrolls.closed_forms import p1s
from incidence_scrolls.invariants import (
    DegenerationNode,
    InvariantError,
    ScrollReport,
    classify,
    degeneration_tree,
    degree,
    directrix_degree,
    kappa,
    node_table,
    speciality,
)
from oracles import (
    B,
    adjunction_genus,
    k_theory_genus,
    parse_base,
    pieri_fold,
    point_coefficient,
    random_bases,
    separate,
)


def check_witness(base, table):
    """Re-verify every row of a witness node table from local arithmetic only.

    Each join row must join the two smallest spaces of its base, recorded as
    its pair, and list exactly the two bases `join` makes of them, with the
    recorded m and kappa; each restrict row the base
    `restrict_to_span` makes; degrees and genera must add up row by row, and
    the root's degree must be the ring degree of `base`.
    """
    nodes = table["nodes"]
    assert [row["id"] for row in nodes] == list(range(len(nodes)))
    assert table["root"] == len(nodes) - 1
    assert len({row["base"] for row in nodes}) == len(nodes)
    for row in nodes:
        node_base = parse_base(row["base"])
        assert all(child < row["id"] for child in row["children"])
        children = [nodes[child] for child in row["children"]]
        d, g = row["degree"], row["genus"]
        if row["action"] == "leaf":
            assert children == [] and (d, g) == (1, 0)
            assert node_base.ambient <= 2 or 0 in node_base.dims
        elif row["action"] == "restrict":
            (child,) = children
            assert child["base"] == format_base(restrict_to_span(node_base))
            assert (d, g) == (child["degree"], child["genus"])
        else:
            assert row["action"] == "join"
            assert row["pair"] == list(node_base.dims[:2])
            result = join(node_base, 0, 1)
            dot, ddot = children
            assert [dot["base"], ddot["base"]] == \
                [format_base(result.dot), format_base(result.ddot)]
            assert row["m"] == result.m
            assert row["kappa"] == kappa(result)
            assert d == dot["degree"] + ddot["degree"]
            assert g == dot["genus"] + ddot["genus"] + row["kappa"] - 1
    root = nodes[table["root"]]
    assert root["base"] == format_base(base)
    assert root["degree"] == degree(base)


def forced_join(base, i, j):
    """Degree and genus of `base` with its first join forced to spaces i, j.

    The two components come from `join`, their witnesses from
    `degeneration_tree` and the shared generators from `kappa`, so every
    join pair of a nondegenerate base must give the engine's own numbers.
    """
    result = join(base, i, j)
    shared = kappa(result)
    assert shared >= 1
    if result.m == 0:
        assert shared == 1
    dot, ddot = degeneration_tree(result.dot), degeneration_tree(result.ddot)
    return dot.degree + ddot.degree, dot.genus + ddot.genus + shared - 1


def node_table_oracle(root):
    """node_table by recursion, one interpreter frame per level of the witness."""
    ids = {}
    nodes = []

    def visit(node):
        if node.base not in ids:
            children = [visit(child) for child in node.children]
            row = {"id": len(nodes), "base": format_base(node.base),
                   "action": node.action, "degree": node.degree,
                   "genus": node.genus}
            if node.action == "join":
                row["pair"] = list(node.base.dims[:2])
                row["m"] = node.m
                row["kappa"] = node.kappa
            row["children"] = children
            ids[node.base] = row["id"]
            nodes.append(row)
        return ids[node.base]

    return {"root": visit(root), "nodes": nodes}


def witness_base(n):
    """{P^n; (2n-3) P^(n-2)}: few distinct sub-bases, a huge expanded tree."""
    return IncidenceBase(n, (n - 2,) * (2 * n - 3))


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
    """kappa takes the result of `join`, so a bad pair is refused before it."""

    def test_seven_solids(self):
        assert kappa(join(B(5, 3, 3, 3, 3, 3, 3, 3), 0, 1)) == 5

    def test_m_zero_forces_one(self):
        base = B(6, 2, 3, 3, 4, 4)
        assert base.dims[0] + base.dims[1] - base.ambient + 1 == 0
        assert kappa(join(base, 0, 1)) == 1

    def test_five_planes(self):
        assert kappa(join(B(4, 2, 2, 2, 2, 2), 0, 1)) == 2

    def test_inadmissible_pair(self):
        with pytest.raises(ValueError):
            kappa(join(B(6, 2, 2, 3, 4), 0, 1))  # m = 2+2-6+1 < 0

    @pytest.mark.parametrize("i,j", [(-1, 3), (0, 5), (1, 1)])
    def test_bad_pair_rejected(self, i, j):
        with pytest.raises(ValueError, match=rf"pair \({i}, {j}\) is not two "
                                             r"distinct spaces of n=6 dims=2,3,3,4,4"):
            kappa(join(B(6, 2, 3, 3, 4, 4), i, j))

    def test_point_cannot_be_pushed(self):
        with pytest.raises(ValueError, match="^cannot push a point into the hyperplane$"):
            kappa(join(B(4, 0, 2, 2), 1, 2))


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
        assert degeneration_tree(base).genus == g

    def test_adjunction_on_every_base(self):
        bases = [base for n in range(3, 14) for base in enumerate_bases(n)]
        # the sweep covers degenerate bases and bases with a point
        assert any(0 in base.dims for base in bases)
        assert any(not is_nondegenerate(base) for base in bases)
        for base in bases:
            genus = classify(base).genus
            assert adjunction_genus(base) == genus, base
            assert k_theory_genus(base) == genus, base

    def test_degenerate_base(self):
        # {P^2, P^2, P^3, P^4} in P^6 spans only a P^5
        node = degeneration_tree(B(6, 2, 2, 3, 4))
        assert node.action == "restrict"
        assert node.genus == degeneration_tree(B(5, 2, 2, 2, 3)).genus == 0


class TestDegenerationTree:
    def test_worked_example(self):
        node = degeneration_tree(B(6, 2, 3, 3, 4, 4))
        assert node.action == "join"
        assert node_table(node)["nodes"][-1]["pair"] == [2, 3]
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
        # every pair of a nondegenerate base is admissible, and any starting
        # pair must yield the same invariants
        for n in range(3, 7):
            for base in enumerate_bases(n, nondegenerate_only=True):
                reference = degeneration_tree(base)
                for i, j in itertools.combinations(range(len(base.dims)), 2):
                    assert forced_join(base, i, j) == \
                        (reference.degree, reference.genus)

    def test_degree_matches_ring(self):
        for n in range(3, 7):
            for base in enumerate_bases(n):
                assert degeneration_tree(base).degree == degree(base)

    def test_node_table(self):
        table = node_table(degeneration_tree(B(4, 2, 2, 2, 2, 2)))
        assert table["root"] == 5
        assert table["nodes"][5] == {
            "id": 5, "base": "n=4 dims=2,2,2,2,2", "action": "join",
            "degree": 5, "genus": 1, "pair": [2, 2], "m": 1, "kappa": 2,
            "children": [4, 3]}
        assert table["nodes"][0] == {
            "id": 0, "base": "n=4 dims=0,2,2", "action": "leaf",
            "degree": 1, "genus": 0, "children": []}

    def test_witness_checks_on_small_bases(self):
        for n in range(3, 9):
            for base in enumerate_bases(n):
                check_witness(base, node_table(degeneration_tree(base)))

    @pytest.mark.parametrize("n,count", [(10, 45), (11, 55), (12, 66)])
    def test_witness_grows_with_distinct_nodes(self, n, count):
        table = node_table(degeneration_tree(witness_base(n)))
        assert len(table["nodes"]) == count
        check_witness(witness_base(n), table)

    @pytest.mark.parametrize("row,field,value", [
        (5, "kappa", 3),        # kappa no longer matches the kernel
        (5, "genus", 2),        # genus does not add up
        (5, "children", [3, 4]),  # children out of join order
        (4, "pair", [2, 2]),    # a pair whose join makes other bases
        (1, "degree", 2),       # a leaf of degree 2
        (3, "children", [1, 4]),  # a child listed after its parent
    ])
    def test_witness_check_rejects_tampering(self, row, field, value):
        base = B(4, 2, 2, 2, 2, 2)
        table = node_table(degeneration_tree(base))
        table["nodes"][row][field] = value
        with pytest.raises(AssertionError):
            check_witness(base, table)

    def test_node_table_matches_recursive_oracle(self):
        roots = [degeneration_tree(base)
                 for n in range(3, 10) for base in enumerate_bases(n)]
        roots += [degeneration_tree(witness_base(n)) for n in (10, 11, 12)]
        for root in roots:
            assert node_table(root) == node_table_oracle(root)

    def test_a_point_ends_the_recursion_and_is_degenerate(self):
        # every base of P^2 is {P^0} (a P^1 is a hyperplane there and imposes
        # no condition), so a leaf needs no test of the ambient
        plane = {B(2, *dims) for k in range(6)
                 for dims in itertools.combinations_with_replacement((0, 1), k)
                 if satisfies_is((2, tuple(d for d in dims if d == 0)))}
        assert plane == {B(2, 0)}
        nodes, stack = set(), [degeneration_tree(base)
                               for n in range(3, 13) for base in enumerate_bases(n)]
        while stack:
            node = stack.pop()
            if node.base not in nodes:
                nodes.add(node.base)
                stack.extend(node.children)
        assert B(2, 0) in nodes
        assert all(base.ambient >= 3 for base in nodes if base != B(2, 0))
        # a point and a space d make 0 + d >= n - 1 only if d is a hyperplane
        for n in range(3, 15):
            with_point = enumerate_bases(n, contains_dim=0)
            assert with_point and not any(map(is_nondegenerate, with_point))

    def test_failed_build_keeps_only_completed_nodes(self, monkeypatch):
        kernel_kappa = invariants.kappa
        calls = []

        def failing_kappa(*args):
            calls.append(args)
            if len(calls) == 5:
                raise InvariantError("fifth kappa fails")
            return kernel_kappa(*args)

        base = B(5, 2, 3, 3, 3, 3, 3)
        monkeypatch.setattr(invariants, "kappa", failing_kappa)
        with pytest.raises(InvariantError, match="fifth kappa fails"):
            classify(base)
        monkeypatch.undo()
        assert invariants._nodes
        after_failure = classify(base)
        after_failure_tree = node_table(degeneration_tree(base))
        invariants._nodes.clear()
        assert classify(base) == after_failure
        assert node_table(degeneration_tree(base)) == after_failure_tree


class TestDirectrixDegree:
    """directrix_degree takes a dimension of the base, not a space index."""

    def test_line_directrix(self):
        assert directrix_degree(B(4, 1, 2, 2, 2), 1) == 1

    def test_plane_quartic(self):
        assert directrix_degree(B(5, 2, 3, 3, 3, 3, 3), 2) == 4

    def test_solid_family(self):
        assert directrix_degree(B(5, 3, 3, 3, 3, 3, 3, 3), 3) == 9

    def test_point_rejected(self):
        with pytest.raises(ValueError, match="^a point carries no directrix curve$"):
            directrix_degree(B(3, 0, 1), 0)

    # 0 is a point no space of the base is; 5 is the dimension of a hyperplane,
    # which the base drops
    @pytest.mark.parametrize("a", [-1, 0, 1, 5, 6])
    def test_absent_dimension_rejected(self, a):
        with pytest.raises(ValueError, match=rf"^no space of n=6 dims=2,3,3,4,4 "
                                             rf"has dimension {a}$"):
            directrix_degree(B(6, 2, 3, 3, 4, 4), a)


class TestEngineSeams:
    def test_classify_runs_on_the_public_functions(self, monkeypatch):
        # per-layer tracing wraps these functions under every name the
        # package binds them to; classify must reach each of them there
        calls = dict.fromkeys(["degree", "kappa", "directrix_degree",
                               "degeneration_tree", "join", "restrict_to_span"], 0)
        modules = (invariants, incidence_scrolls.bases)
        for name in calls:
            original = getattr(invariants, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        for base in enumerate_bases(8):
            classify(base)
        assert all(calls.values()), calls

    def test_one_pair_per_join_step(self, monkeypatch):
        # join checks the pair and kappa reads its key off join's result, so
        # the enumerate -n 13 sweep works out each of its 1532 pairs once
        pairs = []
        pair = incidence_scrolls.bases._pair

        def counted(*args):
            pairs.append(args)
            return pair(*args)

        for module in (invariants, incidence_scrolls.bases):
            if getattr(module, "_pair", None) is pair:
                monkeypatch.setattr(module, "_pair", counted)
        for base in enumerate_bases(13):
            classify(base)
        joins = [node for node in invariants._nodes.values() if node.action == "join"]
        assert len(pairs) == len(joins) == 1532


def sent_keys(steps):
    """Every (n, hs) that running `steps` sends to the engine's kernel memo."""
    sent = []
    kernel = grassmann._point_coefficient

    def recording(n, hs):
        sent.append((n, hs))
        return kernel(n, hs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grassmann, "_point_coefficient", recording)
        steps()
    return sent


def assert_sorted(keys):
    assert keys
    for n, hs in keys:
        assert type(hs) is tuple and hs == tuple(sorted(hs)), (n, hs)


def assert_one_directrix_per_dimension(base):
    """directrix_degree of each nonzero dimension sends the kernel sorted keys,
    and equals the sorting kernel on the key lowered at every space of that
    dimension, not only at the first."""
    n, dims = base
    values = {}
    assert_sorted(sent_keys(lambda: values.update(
        (a, directrix_degree(base, a)) for a in set(dims) - {0})))
    for which, a in enumerate(dims):
        if a:
            lowered = dims[:which] + (a - 1,) + dims[which + 1:]
            assert values[a] == point_coefficient(n, lowered)


class TestSortedKernelKeys:
    """The kernel memo skips the sort: every engine key is sorted as built."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_sweep(self, n):
        assert_sorted(sent_keys(lambda: [classify(base) for base in enumerate_bases(n)]))

    def test_line_family(self):
        assert_sorted(sent_keys(lambda: classify(p1s(60).base)))

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10))
    def test_random_bases(self, base):
        assert_sorted(sent_keys(lambda: classify(base)))
        assert_one_directrix_per_dimension(base)

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10))
    def test_kappa_of_every_pair(self, base):
        # P^m keeps its place among the other traces wherever it falls
        pairs = [(i, j) for i, j in itertools.combinations(range(len(base.dims)), 2)
                 if base.dims[i] + base.dims[j] >= base.ambient - 1
                 and 0 not in base.dims[:i] + base.dims[i + 1:j] + base.dims[j + 1:]]
        assume(pairs)
        assert_sorted(sent_keys(lambda: [kappa(join(base, i, j)) for i, j in pairs]))

    @pytest.mark.parametrize("bases", [
        [base for n in range(3, 13) for base in enumerate_bases(n)],
        [p1s(60).base],
    ])
    def test_directrix_degree_is_one_per_dimension(self, bases):
        for base in bases:
            assert_one_directrix_per_dimension(base)


class TestSpeciality:
    def test_nonspecial(self):
        assert speciality(4, 3, 0) == 0
        assert speciality(5, 6, 1) == 0

    def test_special(self):
        assert speciality(5, 9, 3) == 1
        assert speciality(5, 14, 8) == 6

    def test_negative_rejected(self):
        with pytest.raises(InvariantError, match="negative speciality h1=-3"):
            speciality(3, 5, 0)


class TestClassify:
    def test_quadric(self):
        report = classify(B(3, 1, 1, 1))
        assert (report.degree, report.genus, report.h1) == (2, 0, 0)
        assert not report.special
        assert report.directrix == ((1, 1),)

    def test_seven_solids(self):
        report = classify(B(5, 3, 3, 3, 3, 3, 3, 3))
        assert (report.degree, report.genus) == (14, 8)
        assert report.h1 == 6 and report.special
        assert report.directrix == ((3, 9),)

    def test_table_row_p6(self):
        report = classify(B(6, 2, 3, 3, 4, 4))
        assert (report.degree, report.genus, report.h1) == (7, 1, 0)
        assert report.span == 6
        assert report.directrix == ((2, 3), (3, 4), (4, 5))

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
        base = B(4, 1, 2, 2, 2)
        d = classify(base).to_dict()
        assert d["dims"] == [1, 2, 2, 2]
        assert d["degree"] == 3 and d["h1"] == 0
        assert d["special"] is False
        # a directrix curve is a section of the scroll: it has the scroll's genus
        assert classify(B(6, 2, 3, 3, 4, 4)).to_dict()["directrix"] == [
            {"space_dim": a, "curve_degree": e, "curve_genus": 1}
            for a, e in ((2, 3), (3, 4), (4, 5))]
        assert "tree" not in d
        table = node_table(degeneration_tree(base))
        assert table["nodes"][table["root"]]["action"] == "join"
        check_witness(base, table)

    def test_records_store_no_derived_field(self):
        assert ScrollReport._fields == (
            "base", "span", "degree", "genus", "h1", "directrix")
        assert DegenerationNode._fields == (
            "base", "action", "degree", "genus", "m", "kappa", "children")
        report = classify(B(5, 3, 3, 3, 3, 3, 3, 3))
        with pytest.raises(AttributeError):
            report.special = False
        assert report._replace(h1=0).special is False

    def test_report_is_plain_data(self):
        report = classify(B(4, 1, 2, 2, 2))
        assert not hasattr(report, "__dict__")
        assert not hasattr(report, "tree")
        with pytest.raises(AttributeError):
            report.tree = degeneration_tree(report.base)
        with pytest.raises(TypeError):
            report.to_dict(True)
        with pytest.raises(TypeError):
            report.to_dict(include_tree=True)

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
                assert pieri_fold(n, base.dims) == {(0, 2): d}
                assert pieri_fold(n, list(base.dims) + [n - 2]) == {(0, 1): d}


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


BASE_CHECKS_WITHOUT_IS = """
from incidence_scrolls import bases, closed_forms
from incidence_scrolls.bases import IncidenceBase, InvariantError

print("debug", __debug__)
# the inputs are built first: the constructor checks the 2n-3 condition too
seven_solids = IncidenceBase(5, (3,) * 7)
degenerate = IncidenceBase(6, (2, 2, 3, 4))
bases.satisfies_is = lambda base: False
steps = [
    lambda: bases.join(seven_solids, 0, 1),
    lambda: bases.restrict_to_span(degenerate),
    lambda: closed_forms.p1s(4),
]
for step in steps:
    try:
        step()
    except InvariantError as exc:
        print("InvariantError:", exc)
"""


SECOND_JOIN_CHECK = """
from incidence_scrolls import bases
from incidence_scrolls.bases import IncidenceBase, InvariantError

print("debug", __debug__)
seven_solids = IncidenceBase(5, (3,) * 7)
is_base = bases.satisfies_is
# the first component of the join stays in P^5, the second lies in P^4
bases.satisfies_is = lambda base: base.ambient != 4 and is_base(base)
try:
    bases.join(seven_solids, 0, 1)
except InvariantError as exc:
    print("InvariantError:", exc)
"""


CORRUPTED_JOIN = """
from incidence_scrolls import bases, invariants
from incidence_scrolls.bases import IncidenceBase

print("debug", __debug__)
pair = bases._pair


def drop_a_space(n, dims, i, j):
    # a P^m as large as a hyperplane imposes no condition: the first
    # component of the join loses a space
    di, dj, m, others = pair(n, dims, i, j)
    return di, dj, n - 1, others


bases._pair = drop_a_space
try:
    invariants.classify(IncidenceBase(4, (2, 2, 2, 2, 2)))
except invariants.InvariantError as exc:
    print("InvariantError:", exc)
"""


def run_optimized(code):
    """Run `code` under `python -O`, which strips every assert."""
    src = str(Path(incidence_scrolls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestCrossChecks:
    def test_ring_degree_check_survives_optimize(self):
        assert run_optimized(RING_DEGREE_OFF_BY_ONE) == [
            "debug False",
            "InvariantError: ring degree 4 disagrees with degeneration "
            "bookkeeping 3 for n=4 dims=1,2,2,2",
        ]

    def test_kappa_must_be_positive(self, monkeypatch):
        monkeypatch.setattr(grassmann, "_point_coefficient", lambda n, hs: 0)
        base = B(5, 3, 3, 3, 3, 3, 3, 3)
        for step in (lambda: kappa(join(base, 0, 1)), lambda: degeneration_tree(base),
                     lambda: classify(base)):
            with pytest.raises(InvariantError, match="kappa must be positive"):
                step()

    def test_m_zero_join_shares_one_generator(self, monkeypatch):
        monkeypatch.setattr(invariants, "kappa", lambda parts: 2)
        with pytest.raises(InvariantError, match="m=0 join must share one"):
            degeneration_tree(B(6, 2, 3, 3, 4, 4))

    def test_genus_is_checked_by_adjunction(self, monkeypatch):
        # one generator too many on every join with m > 0 raises the witness
        # genus of the seven solids from 8 to 12 while every degree holds
        shared = invariants.kappa

        def one_more(parts):
            return shared(parts) + (parts.m > 0)

        monkeypatch.setattr(invariants, "kappa", one_more)
        base = B(5, 3, 3, 3, 3, 3, 3, 3)
        assert degeneration_tree(base).genus == 12
        with pytest.raises(InvariantError, match=r"^adjunction gives 2g - 2 = 14, not "
                           r"the degeneration genus 12, for n=5 dims=3,3,3,3,3,3,3$"):
            classify(base)

    def test_corrupted_join_survives_optimize(self):
        assert run_optimized(CORRUPTED_JOIN) == [
            "debug False",
            "InvariantError: join produced n=4 dims=2,2,2, which is not an "
            "incidence-scroll base",
        ]

    def test_base_checks_survive_optimize(self):
        assert run_optimized(BASE_CHECKS_WITHOUT_IS) == [
            "debug False",
            "InvariantError: join produced n=5 dims=2,3,3,3,3,3, which is "
            "not an incidence-scroll base",
            "InvariantError: restrict_to_span produced n=5 dims=2,2,2,3, "
            "which is not an incidence-scroll base",
            "InvariantError: p1s closed form produced n=4 dims=1,2,2,2, which "
            "is not an incidence-scroll base",
        ]

    def test_second_join_component_is_checked_under_optimize(self):
        assert run_optimized(SECOND_JOIN_CHECK) == [
            "debug False",
            "InvariantError: join produced n=4 dims=2,2,2,2,2, which is not an "
            "incidence-scroll base",
        ]


class TestRandomBases:
    """Properties of the engine on random bases beyond the exhaustive sweeps."""

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10))
    def test_tree_degree_is_ring_degree(self, base):
        assert degeneration_tree(base).degree == degree(base)

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10), st.data())
    def test_genus_independent_of_first_pair(self, base, data):
        effective = restrict_to_span(base)
        assume(0 not in effective.dims)
        pair = data.draw(st.sampled_from(
            list(itertools.combinations(range(len(effective.dims)), 2))))
        reference = degeneration_tree(base)
        assert forced_join(effective, *pair) == (reference.degree, reference.genus)
        result = join(effective, *pair)
        for part in (result.dot, result.ddot):
            check_witness(part, node_table(degeneration_tree(part)))

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10))
    def test_genus_by_adjunction(self, base):
        assert adjunction_genus(base) == classify(base).genus

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10))
    def test_genus_by_k_theory(self, base):
        assert k_theory_genus(base) == classify(base).genus

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10))
    def test_speciality_nonnegative_on_span(self, base):
        report = classify(base)
        assert report.h1 == report.span - report.degree + 2 * report.genus - 1
        assert report.h1 >= 0

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10))
    def test_restrict_to_span_idempotent(self, base):
        effective = restrict_to_span(base)
        assert satisfies_is(effective) and is_nondegenerate(effective)
        assert restrict_to_span(effective) == effective

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10), st.data())
    def test_separate_join_round_trip(self, base, data):
        pairs = [(i, j) for i, j in itertools.combinations(range(len(base.dims)), 2)
                 if base.dims[i] + base.dims[j] == base.ambient]
        assume(pairs)
        i, j = data.draw(st.sampled_from(pairs))
        lifted = separate(base, i, j)
        low = lifted.dims.index(base.dims[i])
        high = lifted.dims.index(base.dims[j], low + 1)
        back = join(lifted, low, high)
        assert back.m == 0
        assert back.ddot == base

    @settings(max_examples=150, deadline=None)
    @given(random_bases())
    def test_directrix_pairs_follow_the_span(self, base):
        # one pair per distinct nonzero dimension of the spanning base, in
        # strictly increasing order of dimension
        dims = [a for a, _ in classify(base).directrix]
        assert all(x < y for x, y in zip(dims, dims[1:]))
        assert set(dims) == set(restrict_to_span(base).dims) - {0}
