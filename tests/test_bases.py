import itertools
import re

import pytest
from hypothesis import given, settings

from incidence_scrolls.bases import (
    IncidenceBase,
    conditions_count,
    enumerate_bases,
    format_base,
    is_nondegenerate,
    join,
    restrict_to_span,
    satisfies_is,
)
from oracles import (
    B,
    brute_force_bases,
    forced_join,
    nondegenerate_bases,
    nondegenerate_oracle,
    parse_base,
    random_bases,
    separate,
)


def partition_count(total, largest):
    """Partitions of `total` into parts <= `largest`, one part size at a time."""
    ways = [1] + [0] * total
    for part in range(1, largest + 1):
        for k in range(part, total + 1):
            ways[k] += ways[k - part]
    return ways[total]


def restriction_pair_oracle(base):
    """Dimensions of the failing pair with the smallest span, or None."""
    failing = [(x + y, x, y) for x, y in itertools.combinations(base.dims, 2)
               if x + y <= base.ambient - 2]
    return min(failing)[1:] if failing else None


def restrict_oracle(base):
    """restrict_to_span by all-pairs scans."""
    current = base
    while (pair := restriction_pair_oracle(current)) is not None:
        x, y = pair
        rest = list(current.dims)
        rest.remove(x)
        rest.remove(y)
        span = x + y + 1
        shrunk = [d - (current.ambient - span) for d in rest]
        current = IncidenceBase(span, (x, y, *shrunk))
    return current


def join_pair_oracle(base):
    """Indices of the pair with minimal (m, d_i, d_j), the first (i, j) on
    ties, trying every pair; None when no pair has m >= 0."""
    n = base.ambient
    best = None
    for i, j in itertools.combinations(range(len(base.dims)), 2):
        cand = (base.dims[i] + base.dims[j] - n + 1, base.dims[i], base.dims[j])
        if cand[0] >= 0 and (best is None or cand < best[0]):
            best = (cand, (i, j))
    return None if best is None else best[1]


def assert_pair_rules_agree(base):
    """The rules read off the sorted dims give what the all-pairs scans give."""
    assert is_nondegenerate(base) == nondegenerate_oracle(base)
    assert restriction_pair_oracle(base) in (None, base.dims[:2])
    assert restrict_to_span(base) == restrict_oracle(base)
    if is_nondegenerate(base) and 0 not in base.dims:
        # the bases the genus recursion joins: it takes the two smallest
        assert join_pair_oracle(base) == (0, 1)


class TestConditionsCount:
    def test_three_lines(self):
        assert conditions_count(B(3, 1, 1, 1)) == 3

    def test_plane_family(self):
        assert conditions_count(B(5, 2, 3, 3, 3, 3, 3)) == 7

    def test_empty(self):
        assert conditions_count((7, ())) == 0


class TestSatisfiesIs:
    def test_seven_solids(self):
        assert satisfies_is(B(5, 3, 3, 3, 3, 3, 3, 3))

    def test_too_few_conditions(self):
        assert not satisfies_is((5, (2, 3)))

    def test_line_and_planes(self):
        assert satisfies_is(B(4, 1, 2, 2, 2))


class TestNondegeneracy:
    def test_two_lines_and_plane(self):
        assert not is_nondegenerate(B(4, 1, 1, 2))

    def test_two_planes_in_p6(self):
        assert not is_nondegenerate(B(6, 2, 2, 3, 4))

    def test_table_row(self):
        assert is_nondegenerate(B(6, 2, 3, 3, 4, 4))


class TestPairRulesAgainstAllPairs:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_every_base(self, n):
        # points and degenerate bases included
        for base in enumerate_bases(n):
            assert_pair_rules_agree(base)

    @settings(max_examples=300, deadline=None)
    @given(random_bases())
    def test_random_bases(self, base):
        assert_pair_rules_agree(base)


class TestEnumeration:
    def test_p3(self):
        assert nondegenerate_bases(3) == [B(3, 1, 1, 1)]

    def test_p4(self):
        assert nondegenerate_bases(4) == \
            [B(4, 1, 2, 2, 2), B(4, 2, 2, 2, 2, 2)]

    def test_p5(self):
        assert nondegenerate_bases(5) == [
            B(5, 1, 3, 3, 3, 3),
            B(5, 2, 2, 2, 3),
            B(5, 2, 2, 3, 3, 3),
            B(5, 2, 3, 3, 3, 3, 3),
            B(5, 3, 3, 3, 3, 3, 3, 3),
        ]

    @pytest.mark.parametrize("n", range(3, 8))
    def test_complete_against_brute_force(self, n):
        assert set(enumerate_bases(n)) == brute_force_bases(n)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_complete_by_partition_count(self, n):
        # a space of dimension d in [0, n-2] imposes n - 1 - d conditions, so
        # the bases are the partitions of 2n - 3 into parts <= n - 1: distinct
        # valid bases, as many as those partitions, are all of them
        bases = enumerate_bases(n)
        assert all(satisfies_is(base) for base in bases)
        assert len(set(bases)) == len(bases) == partition_count(2 * n - 3, n - 1)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_listed_in_sorted_order(self, n):
        # the enumerator builds dims in lexicographic order: no sort is needed
        bases = enumerate_bases(n)
        assert bases == sorted(bases)

    def test_contains_dim_filter(self):
        # the filter of `enumerate -n 5 --nondegenerate --contains-dim 2`
        bases = [b for b in nondegenerate_bases(5) if 2 in b.dims]
        assert bases == [B(5, 2, 2, 2, 3), B(5, 2, 2, 3, 3, 3), B(5, 2, 3, 3, 3, 3, 3)]

    def test_every_enumerated_base_is_is(self):
        for n in range(3, 8):
            for base in enumerate_bases(n):
                assert satisfies_is(base)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            enumerate_bases(2)


class TestJoin:
    # the meet P^m of the joined pair is the smallest space of dot
    def test_seven_solids(self):
        dot, ddot = join(B(5, 3, 3, 3, 3, 3, 3, 3))
        assert dot.dims[0] == 2
        assert dot == B(5, 2, 3, 3, 3, 3, 3)
        assert ddot == B(4, 2, 2, 2, 2, 2)

    def test_five_planes(self):
        dot, ddot = join(B(4, 2, 2, 2, 2, 2))
        assert dot.dims[0] == 1
        assert dot == B(4, 1, 2, 2, 2)
        assert ddot == B(3, 1, 1, 1)

    def test_m_zero(self):
        base = B(7, 2, 4, 4, 4, 5)
        dot, ddot = join(base)
        assert dot.dims[0] == 0
        assert dot == B(7, 0, 4, 4, 5)
        assert ddot == B(6, 2, 3, 3, 4, 4)

    def test_no_specialization(self):
        with pytest.raises(ValueError, match=r"^P\^2 and P\^2 of n=6 dims=2,2,3,4 already "
                                             r"lie in a hyperplane of P\^6 generically$"):
            join(B(6, 2, 2, 3, 4))  # 2+2-6+1 < 0

    def test_one_space_rejected(self):
        with pytest.raises(ValueError, match="^n=2 dims=0 has fewer than two spaces to join$"):
            join(B(2, 0))

    def test_point_cannot_be_pushed(self):
        # a point and any other space lie in a hyperplane: m < 0
        with pytest.raises(ValueError, match=r"^P\^0 and P\^2 of n=4 dims=0,2,2 "):
            join(B(4, 0, 2, 2))

    def test_children_satisfy_is(self):
        # the oracle joins every admissible pair; the constructor checks
        # 2n-3 on both components
        for n in range(3, 7):
            for base in nondegenerate_bases(n):
                for i, j in itertools.combinations(range(len(base.dims)), 2):
                    if base.dims[i] + base.dims[j] - n + 1 < 0:
                        continue
                    (dot, ddot, _), _ = forced_join(base, i, j)
                    assert satisfies_is(dot)
                    assert satisfies_is(ddot)
                dot, ddot = join(base)
                assert satisfies_is(dot)
                assert satisfies_is(ddot)


class TestSeparate:
    def test_plane_family_lift(self):
        base = B(6, 2, 3, 3, 4, 4)
        lifted = separate(base, 0, 3)  # the plane and a P^4
        assert lifted == B(7, 2, 4, 4, 4, 5)

    def test_wrong_sum(self):
        with pytest.raises(ValueError):
            separate(B(3, 1, 1, 1), 0, 1)


class TestRestrictToSpan:
    def test_plane_and_two_lines(self):
        assert restrict_to_span(B(4, 1, 1, 2)) == B(3, 1, 1, 1)

    def test_two_planes_in_p6(self):
        assert restrict_to_span(B(6, 2, 2, 3, 4)) == B(5, 2, 2, 2, 3)

    def test_idempotent_on_nondegenerate(self):
        for n in range(3, 7):
            for base in nondegenerate_bases(n):
                assert restrict_to_span(base) == base

    @pytest.mark.parametrize("base", [(5, (1, 1)), (5, (3, 3)), (9, (1, 2, 3))])
    def test_rejects_non_scroll_input(self, base):
        # the constructor rejects what restrict_to_span cannot take, with
        # ValueError (exit 2), never the engine-fault class InvariantError
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{format_base(base)} is not an incidence-scroll base")):
            IncidenceBase(*base)

    def test_preserves_is(self):
        # no space of an incidence-scroll base empties on the way to its span
        for n in range(3, 13):
            for base in enumerate_bases(n):
                restricted = restrict_to_span(base)
                assert satisfies_is(restricted)
                assert is_nondegenerate(restricted)
                assert restrict_to_span(restricted) == restricted


class TestCanonicalize:
    def test_drops_hyperplanes(self):
        assert B(5, 2, 3, 3, 3, 3, 3, 4) == B(5, 2, 3, 3, 3, 3, 3)
        assert IncidenceBase(5, (4,) + (3,) * 7) == IncidenceBase(5, (3,) * 7)

    def test_sorts(self):
        assert IncidenceBase(6, (4, 2, 3, 4, 3)).dims == (2, 3, 3, 4, 4)

    @pytest.mark.parametrize("dims", [(2, 3), (4, 3, 2, 4)])
    def test_rejects_non_scroll_input(self, dims):
        # the message names the base without its hyperplanes
        with pytest.raises(ValueError, match="^" + re.escape(
                "n=5 dims=2,3 is not an incidence-scroll base: conditions=3, "
                "required 7") + "$"):
            IncidenceBase(5, dims)

    def test_make_skips_the_checks(self):
        assert IncidenceBase._make((5, (3, 2, 4))) == (5, (3, 2, 4))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            IncidenceBase(5, (5,))

    def test_rejects_ambient_below_two(self):
        with pytest.raises(ValueError, match="^ambient projective dimension must be "
                                             ">= 2, got 1$"):
            IncidenceBase(1, ())
        assert IncidenceBase(2, (0,)) == (2, (0,))

    @pytest.mark.parametrize("ambient, dims, bad", [
        (5, (3.0,) * 7, "base space dimension must be an integer, got 3.0"),
        (5.0, (3,) * 7, "ambient projective dimension must be an integer, got 5.0"),
        (3, "111", "base space dimension must be an integer, got '1'"),
    ], ids=["float-dimension", "float-ambient", "string"])
    def test_rejects_non_integers(self, ambient, dims, bad):
        # a float would otherwise reach classify and fail there with AttributeError
        with pytest.raises(ValueError, match="^" + re.escape(bad) + "$"):
            IncidenceBase(ambient, dims)

    def test_stores_plain_ints(self):
        base = IncidenceBase(3, (True,) * 3)
        assert base == (3, (1, 1, 1))
        assert {type(d) for d in base.dims} == {int}
        assert format_base(base) == "n=3 dims=1,1,1"


class TestTextFormat:
    def test_format(self):
        assert format_base(B(6, 2, 3, 3, 4, 4)) == "n=6 dims=2,3,3,4,4"

    def test_parse(self):
        assert parse_base("n=6 dims=2,3,3,4,4") == B(6, 2, 3, 3, 4, 4)

    def test_round_trip(self):
        for base in enumerate_bases(5):
            assert parse_base(format_base(base)) == base

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_base("dims=1,2")
