"""Products of special Schubert classes on the Grassmannian G(1, n) of lines.

A Schubert class of G(1, n) is w(a0, a1) with 0 <= a0 < a1 <= n: the lines
meeting a fixed P^a0 and lying in a P^a1 through it.  Its dimension is
a0 + a1 - 1; the fundamental class is w(n-1, n) and the point class w(0, 1).
The special class of parameter h, the lines meeting a fixed P^h, is w(h, n)
of codimension n - 1 - h.  All coefficients are exact Python integers.
`product_of_specials` folds Pieri's rule into the whole class, while
`intersection_number` gives only the point coefficient, from one integer product.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable


def _check_parameters(n: int, hs: Iterable[int]) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2 for G(1, n), got n={n}")
    for h in hs:
        if not 0 <= h <= n - 2:
            raise ValueError(f"special parameter {h} out of range [0, {n - 2}]")


def product_of_specials(n: int, hs: Iterable[int]) -> dict[tuple[int, int], int]:
    """Product of the special classes of parameters hs, as {(a0, a1): coeff}.

    Folds Pieri's rule from the fundamental class: w(a0, a1) times the
    special class of h is the sum of w(b0, b1) over 0 <= b0 <= a0 < b1 <= a1
    with b0 + b1 = a0 + a1 - (n - 1 - h).  Zero coefficients are never stored.
    """
    hs = list(hs)
    _check_parameters(n, hs)
    terms = {(n - 1, n): 1}
    for h in hs:
        out: dict[tuple[int, int], int] = {}
        for (a0, a1), coeff in terms.items():
            s = a0 + a1 - (n - 1 - h)
            for b0 in range(max(0, s - a1), min(a0, s - a0 - 1) + 1):
                key = (b0, s - b0)
                out[key] = out.get(key, 0) + coeff
        terms = out
    return terms


def intersection_number(n: int, hs: Iterable[int]) -> int:
    """Coefficient of the point class w(0, 1) in a zero-dimensional product.

    The two-row Kostka number K_{(n-1,n-1), c}, c_i = n - 1 - h_i (Fulton, Young
    Tableaux, 2.2 and 9.4), read off the integer prod(1 + t + ... + t^c_i) at
    t = 2^b; memoized on n and the sorted hs for degree, directrix and kappa.
    """
    return _point_coefficient(n, tuple(sorted(hs)))


@functools.cache
def _point_coefficient(n: int, hs: tuple[int, ...]) -> int:
    # an exception is never cached, so invalid input raises on every call
    total = (n - 1) * len(hs) - sum(hs)
    if total != 2 * (n - 1):
        raise ValueError(
            f"total codimension {total} != dim G(1,{n}) = {2 * (n - 1)}")
    _check_parameters(n, hs)
    # K = [t^(n-1)]P - [t^n]P for P = prod(1 + t + ... + t^c_i), read off P(2^b):
    # each coefficient is below P(1) = prod(c_i + 1) <= 2^b: no b-bit slot carries
    b = sum((n - 1 - h).bit_length() for h in hs)
    mask = (1 << b) - 1
    p = 1
    for h, run in itertools.groupby(hs):
        p *= (((1 << b * (n - h)) - 1) // mask) ** len(list(run))
    return ((p >> b * (n - 1)) & mask) - ((p >> b * n) & mask)


def render(terms: dict[tuple[int, int], int]) -> str:
    """Canonical text form, e.g. "9*w(0,1)" or "1*w(0,3) + 1*w(1,2)"."""
    if not terms:
        return "0"
    return " + ".join(f"{coeff}*w({a0},{a1})"
                      for (a0, a1), coeff in sorted(terms.items()))
