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
from oracles import B, parse_base, random_bases, separate


def partition_count(total, largest):
    """Partitions of `total` into parts <= `largest`, one part size at a time."""
    ways = [1] + [0] * total
    for part in range(1, largest + 1):
        for k in range(part, total + 1):
            ways[k] += ways[k - part]
    return ways[total]


def nondegenerate_oracle(base):
    """Every pair of base spaces spans the ambient, trying every pair."""
    return all(x + y >= base.ambient - 1
               for x, y in itertools.combinations(base.dims, 2))


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


def brute_force_bases(n):
    """Independent exhaustion: every multiset of dims in [0, n-2] imposing
    exactly 2n-3 conditions."""
    found = set()
    max_size = 2 * n - 3  # each space imposes at least one condition
    for size in range(1, max_size + 1):
        for dims in itertools.combinations_with_replacement(range(n - 1), size):
            if sum(n - 1 - d for d in dims) == 2 * n - 3:
                found.add(IncidenceBase(n, dims))
    return found


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
        assert enumerate_bases(3, nondegenerate_only=True) == [B(3, 1, 1, 1)]

    def test_p4(self):
        assert enumerate_bases(4, nondegenerate_only=True) == \
            [B(4, 1, 2, 2, 2), B(4, 2, 2, 2, 2, 2)]

    def test_p5(self):
        assert enumerate_bases(5, nondegenerate_only=True) == [
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
        bases = enumerate_bases(5, nondegenerate_only=True, contains_dim=2)
        assert all(2 in b.dims for b in bases)
        assert len(bases) == 3

    def test_every_enumerated_base_is_is(self):
        for n in range(3, 8):
            for base in enumerate_bases(n):
                assert satisfies_is(base)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            enumerate_bases(2)


class TestJoin:
    def test_seven_solids(self):
        result = join(B(5, 3, 3, 3, 3, 3, 3, 3), 0, 1)
        assert result.m == 2
        assert result.dot == B(5, 2, 3, 3, 3, 3, 3)
        assert result.ddot == B(4, 2, 2, 2, 2, 2)

    def test_five_planes(self):
        result = join(B(4, 2, 2, 2, 2, 2), 0, 1)
        assert result.m == 1
        assert result.dot == B(4, 1, 2, 2, 2)
        assert result.ddot == B(3, 1, 1, 1)

    def test_m_zero(self):
        base = B(7, 2, 4, 4, 4, 5)
        result = join(base, 0, 1)
        assert result.m == 0
        assert result.dot == B(7, 0, 4, 4, 5)
        assert result.ddot == B(6, 2, 3, 3, 4, 4)

    def test_no_specialization(self):
        with pytest.raises(ValueError):
            join(B(6, 2, 2, 3, 4), 0, 1)  # 2+2-6+1 < 0

    @pytest.mark.parametrize("i,j", [(-1, 3), (0, 5), (1, 1)])
    def test_bad_pair_rejected(self, i, j):
        with pytest.raises(ValueError, match=rf"pair \({i}, {j}\) is not two "
                                             r"distinct spaces of n=6 dims=2,3,3,4,4"):
            join(B(6, 2, 3, 3, 4, 4), i, j)

    def test_point_cannot_be_pushed(self):
        with pytest.raises(ValueError, match="^cannot push a point into the hyperplane$"):
            join(B(4, 0, 2, 2), 1, 2)

    def test_children_satisfy_is(self):
        for n in range(3, 7):
            for base in enumerate_bases(n, nondegenerate_only=True):
                for i, j in itertools.combinations(range(len(base.dims)), 2):
                    if base.dims[i] + base.dims[j] - n + 1 < 0:
                        continue
                    result = join(base, i, j)
                    assert satisfies_is(result.dot)
                    assert satisfies_is(result.ddot)


class TestSeparate:
    def test_plane_family_lift(self):
        base = B(6, 2, 3, 3, 4, 4)
        lifted = separate(base, 0, 3)  # the plane and a P^4
        assert lifted == B(7, 2, 4, 4, 4, 5)

    def test_round_trip(self):
        for n in range(3, 7):
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
            for base in enumerate_bases(n, nondegenerate_only=True):
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
