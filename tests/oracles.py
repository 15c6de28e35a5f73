"""Helpers shared by the test modules that the package itself does not need."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from incidence_scrolls import grassmann
from incidence_scrolls.bases import (
    IncidenceBase,
    enumerate_bases,
    format_base,
    is_nondegenerate,
    join,
    restrict_to_span,
)
from incidence_scrolls.closed_forms import p2s, p3s
from incidence_scrolls.invariants import degeneration_tree, degree, kappa


def B(ambient, *dims):
    return IncidenceBase(ambient, dims)


def checkout_env():
    """Environment whose PYTHONPATH puts this checkout's package first."""
    src = str(Path(grassmann.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_optimized(*args, env=checkout_env):
    """`python -O *args` in a fresh interpreter on this checkout, in the
    environment that `env()` returns; -O strips every assert."""
    return subprocess.run([sys.executable, "-O", *args], env=env(),
                          capture_output=True, text=True, timeout=120)


def sent_keys(steps):
    """Every (n, hs), in order, that running `steps` sends to the engine's
    kernel memo `grassmann._point_coefficient`."""
    sent = []
    kernel = grassmann._point_coefficient

    def recording(n, hs):
        sent.append((n, hs))
        return kernel(n, hs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grassmann, "_point_coefficient", recording)
        steps()
    return sent


def nondegenerate_bases(n):
    """The bases of P^n whose scroll spans P^n, in `enumerate_bases` order."""
    return [base for base in enumerate_bases(n) if is_nondegenerate(base)]


def nondegenerate_oracle(base):
    """Every pair of base spaces spans the ambient, trying every pair."""
    return all(x + y >= base.ambient - 1
               for x, y in itertools.combinations(base.dims, 2))


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


@st.composite
def random_bases(draw, max_n=20):
    """A base of P^n, n <= max_n, built one space at a time from its cost."""
    n = draw(st.integers(3, max_n))
    remaining = 2 * n - 3
    dims = []
    while remaining:
        d = draw(st.integers(max(0, n - 1 - remaining), n - 2))
        dims.append(d)
        remaining -= n - 1 - d
    return IncidenceBase(n, tuple(dims))


def point_coefficient(n, hs):
    """The kernel memo `grassmann._point_coefficient` on hs in any order.

    The memo is looked up at call time, so a patched kernel is seen here too.
    """
    return grassmann._point_coefficient(n, tuple(sorted(hs)))


def parse_base(text):
    """Inverse of `format_base`: "n=6 dims=2,3,3,4,4" back to its IncidenceBase."""
    try:
        n_part, dims_part = text.split()
        ambient = int(n_part.removeprefix("n="))
        body = dims_part.removeprefix("dims=")
        dims = tuple(int(d) for d in body.split(",")) if body else ()
    except (ValueError, AttributeError) as exc:
        raise ValueError(f"cannot parse base {text!r}") from exc
    return IncidenceBase(ambient, dims)


def pieri_fold(n, hs):
    """Product of special classes on G(1, n) by Pieri's rule, as {(a0, a1): coeff}.

    Folds from the fundamental class: w(a0, a1) times the special class of h
    is the sum of w(b0, b1) over 0 <= b0 <= a0 < b1 <= a1 with
    b0 + b1 = a0 + a1 - (n - 1 - h).  Zero coefficients are never stored.
    """
    terms = {(n - 1, n): 1}
    for h in hs:
        out = {}
        for (a0, a1), coeff in terms.items():
            s = a0 + a1 - (n - 1 - h)
            for b0 in range(max(0, s - a1), min(a0, s - a0 - 1) + 1):
                key = (b0, s - b0)
                out[key] = out.get(key, 0) + coeff
        terms = out
    return terms


def separate(base, i, j):
    """Inverse of an m=0 join: lift the configuration one ambient dimension up.

    Requires d_i + d_j = ambient; the pair keeps its dimensions while every
    other base space grows by one.
    """
    if i == j:
        raise ValueError("separate needs two distinct base spaces")
    n = base.ambient
    di, dj = base.dims[i], base.dims[j]
    if di + dj != n:
        raise ValueError(f"separate needs d_i + d_j = ambient, got {di}+{dj} != {n}")
    others = tuple(d for k, d in enumerate(base.dims) if k not in (i, j))
    return IncidenceBase(n + 1, tuple(d + 1 for d in others) + (di, dj))


def forced_join(base, i, j):
    """Join spaces i and j of `base`, any admissible pair, without `bases.join`:
    ((dot, ddot, m), kappa).

    Both components come from the public IncidenceBase constructor, which
    sorts, drops hyperplanes and checks the 2n-3 condition; a point among the
    other spaces has no trace in the hyperplane, so ddot refuses it.  kappa
    counts the lines of the hyperplane through P^m that meet every other
    trace.
    """
    n, dims = base
    if i == j or not (0 <= i < len(dims) and 0 <= j < len(dims)):
        raise ValueError(f"({i}, {j}) is not a pair of spaces of {base}")
    di, dj = dims[i], dims[j]
    m = di + dj - n + 1
    if m < 0:
        raise ValueError(f"P^{di} and P^{dj} already lie in a hyperplane of P^{n}")
    traces = [d - 1 for k, d in enumerate(dims) if k not in (i, j)]
    dot = IncidenceBase(n, [d + 1 for d in traces] + [m])
    ddot = IncidenceBase(n - 1, traces + [di, dj])
    return (dot, ddot, m), point_coefficient(n - 1, traces + [m])


def forced_invariants(base, i, j):
    """Degree and genus of `base` with its first join forced to spaces i, j.

    The two components and the shared generators come from the oracle
    `forced_join`, their witnesses from `degeneration_tree`, so every join
    pair of a nondegenerate base must give the engine's own numbers.
    """
    (dot, ddot, m), shared = forced_join(base, i, j)
    assert shared >= 1
    if m == 0:
        assert shared == 1
    dot, ddot = degeneration_tree(dot), degeneration_tree(ddot)
    return dot.degree + ddot.degree, dot.genus + ddot.genus + shared - 1


def separable_pairs(base):
    """The pairs (i, j), i < j, of spaces of `base` that `separate` takes."""
    return [(i, j) for i, j in itertools.combinations(range(len(base.dims)), 2)
            if base.dims[i] + base.dims[j] == base.ambient]


def round_trip(base, i, j):
    """Separate spaces i and j of `base`, join the lifted pair again, and
    assert that the join meets in a point and gives back `base`.

    The engine joins the lifted pair when it is the two smallest spaces, as
    on every nondegenerate base; the oracle `forced_join` joins any other
    pair.  Returns the route taken, "join" or "oracle".
    """
    lifted = separate(base, i, j)
    di, dj = base.dims[i], base.dims[j]
    if lifted.dims[:2] == (di, dj):
        route = "join"
        dot, ddot = join(lifted)
        m = dot.dims[0]
    else:
        route = "oracle"
        low = lifted.dims.index(di)
        (_, ddot, m), _ = forced_join(lifted, low, lifted.dims.index(dj, low + 1))
    assert (m, ddot) == (0, base)
    return route


def check_witness(base, table):
    """Re-verify every row of a witness node table from local arithmetic only.

    Each join row must join the two smallest spaces of its base, recorded as
    its pair, and list exactly the two bases `join` makes of them, with m
    the dimension of the pair's meet and kappa the kernel's count on the
    first of them, at least 1 and exactly 1 when m = 0; each restrict row
    the base `restrict_to_span` makes; degrees and genera must add up row
    by row, and the root's degree must be the ring degree of `base`.
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
            dot_base, ddot_base = join(node_base)
            dot, ddot = children
            assert [dot["base"], ddot["base"]] == \
                [format_base(dot_base), format_base(ddot_base)]
            d0, d1 = row["pair"]
            assert row["m"] == d0 + d1 - node_base.ambient + 1 == dot_base.dims[0]
            assert row["kappa"] == kappa(dot_base)
            assert row["kappa"] == 1 if row["m"] == 0 else row["kappa"] >= 1
            assert d == dot["degree"] + ddot["degree"]
            assert g == dot["genus"] + ddot["genus"] + row["kappa"] - 1
    root = nodes[table["root"]]
    assert root["base"] == format_base(base)
    assert root["degree"] == degree(base)


def plane_records(max_n):
    for n in range(4, max_n + 1):
        for i in range(0, n // 2 + 1):
            yield p2s(n, i)


def solid_records(max_n):
    for n in range(5, max_n + 1):
        for j in range(0, (n + 1) // 3 + 1):
            for i in range(0, (n + 1 - 3 * j) // 2 + 1):
                yield p3s(n, j, i)


def adjunction_genus(base):
    """Genus of the scroll of a base by adjunction, without the recursion.

    The curve of lines lifts to a complete intersection in the fibre product
    of r copies of P(S) over G(1,n), so 2g - 2 = (r - n - 1) d + sum over the
    r canonical spaces of (c_j - 1) e_j, with c_j = n - 1 - h_j and e_j the
    intersection number with h_j lowered by one (0 for a point).
    """
    n, dims = base
    total = (len(dims) - n - 1) * point_coefficient(n, dims + (n - 2,))
    for j, h in enumerate(dims):
        if h:
            e = point_coefficient(n, dims[:j] + (h - 1,) + dims[j + 1:])
            total += (n - 2 - h) * e
    assert total % 2 == 0, (base, total)
    return total // 2 + 1


def k_theory_genus(base):
    """Genus of the scroll of a base from K-theory, without the kernel or the recursion.

    The structure sheaf of the curve of lines is the product of the classes
    O_(p) of its special Schubert varieties, p = n - 1 - d for a space P^d
    (Brion), and every Schubert variety has Euler characteristic 1, so
    1 - g is the sum of the product's coefficients.  Lenart's K-Pieri rule
    on two rows, inside the 2 x (n - 1) box: O_l O_(p) is the sum of O_m
    over the horizontal strips m/l of size p, minus the sum over the strips
    of size p + 1 that touch both rows.
    """
    n, dims = base
    terms = {(0, 0): 1}
    for d in dims:
        p = n - 1 - d
        out = {}
        for (l1, l2), coeff in terms.items():
            for m2 in range(l2, l1 + 1):  # a horizontal strip: m2 <= l1
                for size, sign in ((p, 1), (p + 1, -1)):
                    m1 = l1 + size - (m2 - l2)
                    if l1 <= m1 <= n - 1 and (sign > 0 or (m1 > l1 and m2 > l2)):
                        out[m1, m2] = out.get((m1, m2), 0) + sign * coeff
        terms = {key: coeff for key, coeff in out.items() if coeff}
    return 1 - sum(terms.values())
