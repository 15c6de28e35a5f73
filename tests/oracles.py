"""Helpers shared by the test modules that the package itself does not need."""

from hypothesis import strategies as st

from incidence_scrolls import grassmann
from incidence_scrolls.bases import IncidenceBase


def B(ambient, *dims):
    return IncidenceBase(ambient, dims)


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
