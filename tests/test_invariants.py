import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import incidence_scrolls
from incidence_scrolls import invariants
from incidence_scrolls.bases import (
    IncidenceBase,
    enumerate_bases,
    format_base,
    is_nondegenerate,
    join,
    restrict_to_span,
    satisfies_is,
)
from incidence_scrolls.cli import _report_json
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
)
from oracles import (
    B,
    adjunction_genus,
    check_witness,
    forced_invariants,
    forced_join,
    k_theory_genus,
    nondegenerate_bases,
    pieri_fold,
    point_coefficient,
    random_bases,
    round_trip,
    sent_keys,
    separable_pairs,
)


def node_table_oracle(root):
    """node_table by recursion, one interpreter frame per level of the witness.

    A node's action is read off its number of children, and a join's m and
    kappa off its first component: its smallest space and the kernel's
    count on it.
    """
    ids = {}
    nodes = []

    def visit(node):
        if node.base not in ids:
            children = [visit(child) for child in node.children]
            row = {"id": len(nodes), "base": format_base(node.base),
                   "action": ["leaf", "restrict", "join"][len(children)],
                   "degree": node.degree, "genus": node.genus}
            if len(children) == 2:
                dot = node.children[0].base
                row["pair"] = list(node.base.dims[:2])
                row["m"] = dot.dims[0]
                row["kappa"] = kappa(dot)
            row["children"] = children
            ids[node.base] = row["id"]
            nodes.append(row)
        return ids[node.base]

    return {"root": visit(root), "nodes": nodes}


def witness_base(n):
    """{P^n; (2n-3) P^(n-2)}: few distinct sub-bases, a huge expanded tree."""
    return IncidenceBase(n, (n - 2,) * (2 * n - 3))


class TestForcedJoinOracle:
    """`oracles.forced_join` on the pair (0, 1) is `join` and `kappa`, built
    without them."""

    @staticmethod
    def assert_agrees(base):
        try:
            dot, ddot = join(base)
        except ValueError:
            with pytest.raises(ValueError):
                forced_join(base, 0, 1)
        else:
            assert forced_join(base, 0, 1) == ((dot, ddot, dot.dims[0]), kappa(dot))

    def test_every_base(self):
        bases = [base for n in range(3, 10)
                 for base in nondegenerate_bases(n)]
        assert len(bases) > 100
        for base in bases:
            self.assert_agrees(base)

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10))
    def test_random_bases(self, base):
        # the base may be degenerate or hold a point: then both refuse it
        self.assert_agrees(base)
        self.assert_agrees(restrict_to_span(base))


class TestGenus:
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
        assert len(node.children) == 1  # a restriction
        assert node.genus == degeneration_tree(B(5, 2, 2, 2, 3)).genus == 0


class TestDegenerationTree:
    def test_worked_example(self):
        node = degeneration_tree(B(6, 2, 3, 3, 4, 4))
        root = node_table(node)["nodes"][-1]
        assert root["action"] == "join" and root["pair"] == [2, 3]
        assert root["m"] == 0 and root["kappa"] == 1
        assert (node.degree, node.genus) == (7, 1)
        dot, ddot = node.children
        assert dot.base == B(6, 0, 3, 4, 4) and dot.children == ()
        assert kappa(dot.base) == 1
        assert ddot.base == B(5, 2, 2, 3, 3, 3)

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
            with_point = [base for base in enumerate_bases(n) if 0 in base.dims]
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
        # kappa reads its key off join's first component, so the enumerate
        # -n 13 sweep joins each of its 1532 pairs once
        calls = []

        def counted(base):
            calls.append(base)
            return join(base)

        monkeypatch.setattr(invariants, "join", counted)
        for base in enumerate_bases(13):
            classify(base)
        joins = [node for node in invariants._nodes.values() if len(node.children) == 2]
        assert len(calls) == len(joins) == 1532


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
    def test_kappa_of_every_pair(self, base):
        # P^m, the smallest space of the join's first component, leads the key
        effective = restrict_to_span(base)
        assume(0 not in effective.dims)
        dot, _ = join(effective)
        keys = sent_keys(lambda: kappa(dot))
        assert_sorted(keys)
        (_, hs), = keys
        assert hs[0] == dot.dims[0] == sum(effective.dims[:2]) - effective.ambient + 1

    @pytest.mark.parametrize("bases", [
        [base for n in range(3, 13) for base in enumerate_bases(n)],
        [p1s(60).base],
    ])
    def test_directrix_degree_is_one_per_dimension(self, bases):
        for base in bases:
            assert_one_directrix_per_dimension(base)


def h1(n, d, g):
    """The speciality property of a report that spans P^n with degree d and genus g."""
    return ScrollReport(base=None, span=n, degree=d, genus=g, directrix=()).h1


class TestSpeciality:
    def test_nonspecial(self):
        assert h1(4, 3, 0) == 0
        assert h1(5, 6, 1) == 0

    def test_special(self):
        assert h1(5, 9, 3) == 1
        assert h1(5, 14, 8) == 6

    def test_negative_value(self):
        assert h1(3, 5, 0) == -3


class TestClassify:
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

    def test_report_json(self):
        base = B(4, 1, 2, 2, 2)
        d = _report_json(classify(base))
        assert d["dims"] == [1, 2, 2, 2]
        assert d["degree"] == 3 and d["h1"] == 0
        assert d["special"] is False
        # a directrix curve is a section of the scroll: it has the scroll's genus
        assert _report_json(classify(B(6, 2, 3, 3, 4, 4)))["directrix"] == [
            {"space_dim": a, "curve_degree": e, "curve_genus": 1}
            for a, e in ((2, 3), (3, 4), (4, 5))]
        assert "tree" not in d
        table = node_table(degeneration_tree(base))
        assert table["nodes"][table["root"]]["action"] == "join"
        check_witness(base, table)

    def test_records_store_no_derived_field(self):
        assert ScrollReport._fields == ("base", "span", "degree", "genus", "directrix")
        assert DegenerationNode._fields == ("base", "degree", "genus", "children")
        report = classify(B(5, 3, 3, 3, 3, 3, 3, 3))
        for derived in ("h1", "special"):
            with pytest.raises(AttributeError):
                setattr(report, derived, 0)
        # h1 = 5 - 14 + 2g - 1 reads 0 at genus 5
        assert (report.h1, report.special) == (6, True)
        nonspecial = report._replace(genus=5)
        assert (nonspecial.h1, nonspecial.special) == (0, False)

    def test_report_is_plain_data(self):
        report = classify(B(4, 1, 2, 2, 2))
        assert not hasattr(report, "__dict__")
        assert not hasattr(report, "tree")
        with pytest.raises(AttributeError):
            report.tree = degeneration_tree(report.base)
        # its json form is built by the command line that prints it
        assert not hasattr(report, "to_dict")



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


class TestCrossChecks:
    def test_no_check_is_stripped_by_optimize(self):
        # python -O drops every assert statement and every `if __debug__:` block
        package = Path(incidence_scrolls.__file__).resolve().parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                where = f"{path.name}:{getattr(node, 'lineno', '?')}"
                assert not isinstance(node, ast.Assert), where
                assert not (isinstance(node, ast.Name) and node.id == "__debug__"), where


class TestRandomBases:
    """Properties of the engine on random bases beyond the exhaustive sweeps."""

    @settings(max_examples=150, deadline=None)
    @given(random_bases(10), st.data())
    def test_genus_independent_of_first_pair(self, base, data):
        effective = restrict_to_span(base)
        assume(0 not in effective.dims)
        pair = data.draw(st.sampled_from(
            list(itertools.combinations(range(len(effective.dims)), 2))))
        reference = degeneration_tree(base)
        assert forced_invariants(effective, *pair) == (reference.degree, reference.genus)
        (dot, ddot, _), _ = forced_join(effective, *pair)
        for part in (dot, ddot):
            check_witness(part, node_table(degeneration_tree(part)))

    def test_separate_join_round_trip(self):
        routes = set()

        @settings(max_examples=150, deadline=None)
        @given(random_bases(10), st.data())
        def check(base, data):
            pairs = separable_pairs(base)
            assume(pairs)
            routes.add(round_trip(base, *data.draw(st.sampled_from(pairs))))

        check()
        assert routes == {"join", "oracle"}, routes

    @settings(max_examples=150, deadline=None)
    @given(random_bases())
    def test_directrix_pairs_follow_the_span(self, base):
        # one pair per distinct nonzero dimension of the spanning base, in
        # strictly increasing order of dimension
        dims = [a for a, _ in classify(base).directrix]
        assert all(x < y for x, y in zip(dims, dims[1:]))
        assert set(dims) == set(restrict_to_span(base).dims) - {0}
