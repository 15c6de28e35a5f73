import itertools
import random
import sys
from collections import defaultdict
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incidence_scrolls import bases, grassmann, invariants
from incidence_scrolls.bases import IncidenceBase, enumerate_bases
from incidence_scrolls.grassmann import product_of_specials, render
from incidence_scrolls.invariants import classify, degeneration_tree, node_table
from oracles import pieri_fold, point_coefficient


def pieri_oracle(n, hs):
    """Fold of Pieri's rule by exhaustive enumeration of each step's (b0, b1)."""
    terms = {(n - 1, n): 1}
    for h in hs:
        out = {}
        for (a0, a1), coeff in terms.items():
            target = a0 + a1 - (n - 1 - h)
            for b in itertools.product(range(0, a0 + 1), range(a0 + 1, a1 + 1)):
                if sum(b) == target:
                    out[b] = out.get(b, 0) + coeff
        terms = out
    return terms


def kostka_oracle(n, hs):
    """Point coefficient of the product of special classes, by Jacobi-Trudi.

    With codimensions c_i = n-1-h_i it is the two-row Kostka number
    K_{(n-1,n-1), c} = [t^(n-1)]P - [t^n]P, P = prod(1 + t + ... + t^c_i)
    (Fulton, Young Tableaux, 2.2 and 9.4), and 0 unless the c_i add up to
    dim G(1,n) = 2(n-1).  No step of Pieri's rule is used.
    """
    cs = [n - 1 - h for h in hs]
    if sum(cs) != 2 * (n - 1):
        return 0
    poly = [1]  # coefficients of P, truncated past t^n
    for c in cs:
        poly = [sum(poly[max(0, k - c):k + 1])
                for k in range(min(len(poly) + c, n + 1))]
    poly += [0] * (n + 1 - len(poly))
    return poly[n - 1] - poly[n]


@st.composite
def point_products(draw, max_n=25):
    """(n, hs) whose special classes have total codimension dim G(1,n)."""
    n = draw(st.integers(2, max_n))
    remaining = 2 * (n - 1)
    hs = []
    while remaining:
        c = draw(st.integers(1, min(remaining, n - 1)))
        hs.append(n - 1 - c)
        remaining -= c
    return n, hs


@st.composite
def runs_of_equal_factors(draw, max_n=40):
    """(n, hs) of total codimension dim G(1,n), drawn as runs of one equal h."""
    n = draw(st.integers(2, max_n))
    remaining = 2 * (n - 1)
    hs = []
    while remaining:
        c = draw(st.integers(1, min(remaining, n - 1)))
        run = draw(st.integers(1, remaining // c))
        hs += [n - 1 - c] * run
        remaining -= c * run
    return n, hs


def kernel_keys(bases):
    """The distinct (n, sorted hs) keys that classifying `bases` asks the kernel for."""
    keys = set()
    kernel = grassmann._point_coefficient

    def recording(ambient, hs):
        hs = tuple(sorted(hs))
        keys.add((ambient, hs))
        return kernel(ambient, hs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grassmann, "_point_coefficient", recording)
        for base in bases:
            classify(base)
    return keys


def codimension_of(n, index):
    a0, a1 = index
    return 2 * (n - 1) - (a0 + a1 - 1)


class TestCodimension:
    # the special class of parameter h is w(h, n), of codimension n - 1 - h
    def test_hyperplane_class(self):
        assert product_of_specials(4, [2]) == {(2, 4): 1}
        assert codimension_of(4, (2, 4)) == 1

    def test_small(self):
        assert product_of_specials(3, [1]) == {(1, 3): 1}
        assert codimension_of(3, (1, 3)) == 1
        assert product_of_specials(6, [3]) == {(3, 6): 1}
        assert codimension_of(6, (3, 6)) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            product_of_specials(4, [4])
        with pytest.raises(ValueError):
            product_of_specials(4, [-1])


class TestSpec:
    def test_dim(self):
        # dim G(1,4) = 6: six hyperplane classes reach the point, a seventh is zero
        assert list(product_of_specials(4, [2] * 6)) == [(0, 1)]
        assert product_of_specials(4, [2] * 7) == {}

    def test_invalid(self):
        with pytest.raises(ValueError):
            product_of_specials(1, [])


class TestPieri:
    def test_basic(self):
        # w(1,3) is the special class of h=1 in G(1,3)
        assert product_of_specials(3, [1, 1]) == {(0, 3): 1, (1, 2): 1}

    def test_g16(self):
        # w(2,6) is the special class of h=2 in G(1,6)
        assert product_of_specials(6, [2, 4]) == {(1, 6): 1, (2, 5): 1}

    def test_empty_sum(self):
        assert product_of_specials(6, [1, 1, 1, 1, 1, 1]) == {}

    def test_h_out_of_range(self):
        with pytest.raises(ValueError):
            product_of_specials(4, [1, 4])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_multiset_matches_the_fold(self, n):
        # up to 2n + 1 factors: the empty product (the fundamental class),
        # every class down to the point, and products past it, which vanish
        classes, vanishing = set(), 0
        for k in range(2 * n + 2):
            for hs in itertools.combinations_with_replacement(range(n - 1), k):
                product = product_of_specials(n, hs)
                assert product == pieri_fold(n, hs)
                classes |= product.keys()
                vanishing += not product
        assert len(classes) == n * (n + 1) // 2
        assert vanishing

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_oracle(self, data):
        n = data.draw(st.integers(2, 9))
        hs = data.draw(st.lists(st.integers(0, n - 2), max_size=2 * n))
        assert product_of_specials(n, hs) == pieri_oracle(n, hs)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_homogeneous_output(self, data):
        n = data.draw(st.integers(2, 8))
        hs = data.draw(st.lists(st.integers(0, n - 2), max_size=2 * n))
        expected = sum(n - 1 - h for h in hs)
        for index in product_of_specials(n, hs):
            assert 0 <= index[0] < index[1] <= n
            assert codimension_of(n, index) == expected
        # one Pieri step from a special class is multiplicity-free
        h1, h2 = data.draw(st.integers(0, n - 2)), data.draw(st.integers(0, n - 2))
        assert set(product_of_specials(n, [h1, h2]).values()) <= {1}


class TestMultiplySum:
    def test_linear(self):
        # each term of a sum is multiplied separately, with its coefficient
        assert product_of_specials(6, [2, 4, 4, 4, 4]) == {(0, 4): 6, (1, 3): 4}
        assert product_of_specials(6, [2, 4, 4, 4, 4, 2]) == {(0, 1): 6}

    def test_zero(self):
        # past the point class the product vanishes and stays zero
        assert product_of_specials(5, [3] * 9) == {}
        assert product_of_specials(5, [3] * 9 + [0]) == {}
        assert product_of_specials(5, [3] * 10**5) == {}

    def test_proof_chain_g15(self):
        # w(2,5) times five special cycles of a solid passes through 9*w(0,2);
        # one more ends at 9*w(0,1)
        assert product_of_specials(5, [2, 3, 3, 3, 3, 3]) == {(0, 2): 9}
        assert product_of_specials(5, [2, 3, 3, 3, 3, 3, 3]) == {(0, 1): 9}


class TestProductOfSpecials:
    def test_catalan_g14(self):
        assert product_of_specials(4, [2] * 6) == {(0, 1): 5}

    def test_quadric_degree(self):
        assert product_of_specials(3, [1] * 4) == {(0, 1): 2}

    def test_solid_family_seed(self):
        assert product_of_specials(5, [2, 3, 3, 3, 3, 3, 3]) == {(0, 1): 9}

    def test_returns_a_new_dict_on_every_call(self):
        hs = [2, 3, 3, 3, 3, 3, 3]
        product_of_specials(5, hs)[(0, 1)] = 0
        product_of_specials(5, sorted(hs)).clear()
        assert product_of_specials(5, hs) == {(0, 1): 9}

    def test_permutation_invariant(self):
        hs = [1, 2, 2, 3, 4, 4, 3, 2]
        reference = product_of_specials(6, hs)
        rng = random.Random(0)
        for _ in range(8):
            shuffled = hs[:]
            rng.shuffle(shuffled)
            assert product_of_specials(6, shuffled) == reference

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_nonnegative_coefficients(self, data):
        n = data.draw(st.integers(3, 7))
        hs = data.draw(st.lists(st.integers(0, n - 2), min_size=0, max_size=2 * n - 2))
        for coeff in product_of_specials(n, hs).values():
            assert coeff > 0

    def test_range_check(self):
        with pytest.raises(ValueError):
            product_of_specials(4, [3])

    @settings(max_examples=200, deadline=None)
    @given(point_products())
    def test_point_coefficient_matches_kostka(self, case):
        n, hs = case
        assert product_of_specials(n, hs).get((0, 1), 0) == kostka_oracle(n, hs)

    def test_accepts_any_iterable(self):
        assert product_of_specials(4, iter([2] * 6)) == {(0, 1): 5}


class TestCoefficientOf:
    def test_quadric_cone_base(self):
        # lines meeting two lines and a plane in P^4 sweep the quadric in P^3
        assert product_of_specials(4, [1, 1, 2]) == {(0, 2): 2}


class TestIntersectionNumber:
    def test_plane_family_directrix(self):
        assert point_coefficient(4, [1, 2, 2, 2, 2]) == 3

    def test_solid_family_seed(self):
        assert point_coefficient(5, [2, 3, 3, 3, 3, 3, 3]) == 9

    @pytest.mark.parametrize("n", range(3, 11))
    def test_line_and_hyperplane_traces(self, n):
        assert point_coefficient(n, [1] + [n - 2] * n) == n - 1

    @pytest.mark.parametrize("n", range(5, 11))
    def test_solid_trace(self, n):
        hs = [2, n - 3] + [n - 2] * (n - 1)
        assert point_coefficient(n, hs) == (n - 1) * (n - 2) // 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            point_coefficient(4, [2, 2])


class TestKernelMemo:
    @settings(max_examples=200, deadline=None)
    @given(point_products(), st.data())
    def test_matches_oracle_shuffled(self, case, data):
        # the kernel evaluates the Kostka identity, so the reference is Pieri's
        n, hs = case
        expected = pieri_oracle(n, hs).get((0, 1), 0)
        assert point_coefficient(n, data.draw(st.permutations(hs))) == expected
        assert point_coefficient(n, data.draw(st.permutations(hs))) == expected

    def test_invalid_input_raises_with_a_warm_cache(self):
        assert point_coefficient(4, [2] * 6) == 5
        for _ in range(2):
            with pytest.raises(ValueError, match="3 out of range"):
                point_coefficient(4, [3] + [2] * 6)  # h = n - 1, codimension 0
            with pytest.raises(ValueError, match="-1 out of range"):
                point_coefficient(4, [-1, 2, 2])  # h < 0, codimension n
            with pytest.raises(ValueError, match="total codimension 5 "):
                point_coefficient(4, [2] * 5)
        assert point_coefficient(2, [0, 0]) == 1  # one line through two points
        for _ in range(2):
            with pytest.raises(ValueError, match="need n >= 2"):
                point_coefficient(1, [])  # passes the codimension check
        assert grassmann._point_coefficient.cache_info().currsize == 2

    @pytest.mark.parametrize("n, hs, message", [
        (4, [-1, 2, 2], "special parameter -1 out of range [0, 2]"),
        (4, [2, 2, 2, 3, 2, 2, 2], "special parameter 3 out of range [0, 2]"),
        # several bad h: the smallest is named
        (4, [3, 3, -1, 2, 2], "special parameter -1 out of range [0, 2]"),
        (1, [], "need n >= 2 for G(1, n), got n=1"),
        (4, [2] * 5, "total codimension 5 != dim G(1,4) = 6"),
    ])
    def test_error_messages(self, n, hs, message):
        # the range check reads only the ends of the sorted key, and on a
        # failure runs the full check for its message
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                point_coefficient(n, hs)
            assert str(exc.value) == message

    def test_memo_traffic_of_the_sweep(self):
        # the enumerate -n 13 sweep: 6115 kernel calls on 2325 distinct keys
        for base in enumerate_bases(13):
            if 0 not in base.dims:
                classify(base)
        info = grassmann._point_coefficient.cache_info()
        assert (info.misses, info.hits) == (2325, 3790)

    def test_restrictions_of_the_sweep(self, monkeypatch):
        # classify reads a restrict root's restriction off its witness, so the
        # sweep restricts each base once and derives each base once
        calls = dict.fromkeys(["restrict_to_span", "_derived"], 0)
        for module, name in [(invariants, "restrict_to_span"), (bases, "_derived")]:
            def counted(*args, name=name, fn=getattr(module, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counted)
        for base in enumerate_bases(13):
            if 0 not in base.dims:
                classify(base)
        assert calls == {"restrict_to_span": 1237, "_derived": 4179}

    @pytest.mark.parametrize("n", range(3, 14))
    def test_every_sweep_key_matches_the_fold(self, n):
        keys = kernel_keys(enumerate_bases(n))
        assert keys
        for key in keys:
            assert point_coefficient(*key) == pieri_fold(*key).get((0, 1), 0)

    def test_every_line_family_key_matches_the_fold(self):
        # {P^1, (n-1) P^(n-2)}: about n codim-1 factors per key, so one long
        # run of equal h and slots about n bits wide
        n = 300
        keys = kernel_keys([IncidenceBase(n, (1,) + (n - 2,) * (n - 1))])
        assert len(keys) > n
        for key in keys:
            assert point_coefficient(*key) == pieri_fold(*key).get((0, 1), 0)

    @settings(max_examples=100, deadline=None)
    @given(runs_of_equal_factors())
    def test_runs_of_equal_factors_match_oracle(self, case):
        n, hs = case
        assert point_coefficient(n, hs) == pieri_oracle(n, hs).get((0, 1), 0)

    def test_classify_cold_equals_warm(self):
        bases = enumerate_bases(9)
        warm = [classify(base) for base in bases]
        warm_trees = [node_table(degeneration_tree(base)) for base in bases]
        cold, cold_trees = [], []
        for base in bases:
            invariants._nodes.clear()
            grassmann._point_coefficient.cache_clear()
            cold.append(classify(base))
            cold_trees.append(node_table(degeneration_tree(base)))
        assert cold == warm
        assert cold_trees == warm_trees

    def test_one_cache_serves_every_caller(self, monkeypatch):
        asked = defaultdict(set)  # caller name -> keys it asked for
        kernel = grassmann._point_coefficient

        def recording(n, hs):
            asked[sys._getframe(1).f_code.co_name].add((n, tuple(sorted(hs))))
            return kernel(n, hs)

        monkeypatch.setattr(grassmann, "_point_coefficient", recording)
        for base in enumerate_bases(8):
            classify(base)
        info = kernel.cache_info()
        assert info.hits > 0
        assert set(asked) == {"degree", "directrix_degree", "kappa"}
        keys = set().union(*asked.values())
        assert info.misses == info.currsize == len(keys)
        # some multisets are asked for by two different callers
        assert sum(len(k) for k in asked.values()) > len(keys)


class TestCatalanOracle:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_plucker_degree(self, n):
        catalan = factorial(2 * n - 2) // (factorial(n - 1) * factorial(n))
        assert product_of_specials(n, [n - 2] * (2 * n - 2)) == {(0, 1): catalan}

    def test_kernel_plucker_degree(self):
        # P = (1 + t)^(2n-2): its central coefficient comes nearest the slot width
        for n in range(2, 81):
            catalan = factorial(2 * n - 2) // (factorial(n - 1) * factorial(n))
            assert point_coefficient(n, [n - 2] * (2 * n - 2)) == catalan


class TestRender:
    def test_point_multiple(self):
        assert render({(0, 1): 9}) == "9*w(0,1)"

    def test_sorted_terms(self):
        assert render({(1, 2): 1, (0, 3): 1}) == "1*w(0,3) + 1*w(1,2)"

    def test_zero(self):
        assert render({}) == "0"


def test_fundamental_and_point_classes():
    # the empty product is the fundamental class w(n-1, n); the point class is w(0, 1)
    assert product_of_specials(5, []) == {(4, 5): 1}
    assert list(product_of_specials(5, [3] * 8)) == [(0, 1)]
