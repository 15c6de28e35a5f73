"""Products of special Schubert classes on the Grassmannian G(1, n) of lines.

A Schubert class of G(1, n) is w(a0, a1) with 0 <= a0 < a1 <= n: the lines
meeting a fixed P^a0 and lying in a P^a1 through it.  Its dimension is
a0 + a1 - 1; the fundamental class is w(n-1, n) and the point class w(0, 1).
The special class of parameter h, the lines meeting a fixed P^h, is w(h, n)
of codimension c = n - 1 - h.  Every coefficient of a product is a two-row
Kostka number, read off the integer prod(1 + t + ... + t^c_i) at t = 2^b.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections.abc import Callable, Iterable


def _check_parameters(n: int, hs: Iterable[int]) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2 for G(1, n), got n={n}")
    for h in hs:
        if not 0 <= h <= n - 2:
            raise ValueError(f"special parameter {h} out of range [0, {n - 2}]")


def _coefficients(n: int, hs: tuple[int, ...]) -> Callable[[int], int]:
    """Reader of [t^k]P for P = prod(1 + t + ... + t^c_i), hs sorted.

    P is evaluated at t = 2^b with 2^b > P(1) = prod(c_i + 1), so no b-bit
    slot carries: [t^k]P is slot k of the int.  b is a whole number of
    bytes, so slot k is a slice of P's bytes and a read costs its slot, not
    a shift of P.
    """
    runs, whole, start = [], 1, 0  # (c_i + 1, multiplicity) of each run of equal h; P(1)
    while start < len(hs):
        end = bisect_right(hs, hs[start], start)
        runs.append((n - hs[start], end - start))
        whole *= runs[-1][0] ** runs[-1][1]
        start = end
    b = (whole.bit_length() + 7) // 8 * 8  # bits per slot, whole bytes
    mask = (1 << b) - 1
    p = 1
    for width, count in runs:
        p *= (((1 << b * width) - 1) // mask) ** count
    size, raw = b // 8, p.to_bytes((p.bit_length() + 7) // 8, "little")
    return lambda k: int.from_bytes(raw[k * size:(k + 1) * size], "little")


def product_of_specials(n: int, hs: Iterable[int]) -> dict[tuple[int, int], int]:
    """Product of the special classes of parameters hs, as {(a0, a1): coeff}.

    With S = sum c_i, the coefficient of w(n-1-S+l, n-l) for
    max(0, S-n+1) <= l <= S // 2 is K_{(S-l, l), c} = [t^l]P - [t^(l-1)]P
    (Fulton, Young Tableaux, 2.2 and 9.4).  Zero coefficients are never stored.
    """
    hs = tuple(hs)
    _check_parameters(n, hs)
    s = (n - 1) * len(hs) - sum(hs)
    if s > 2 * (n - 1):
        return {}  # past the point class; P would have about S^2 bits
    slot = _coefficients(n, tuple(sorted(hs)))
    return {(n - 1 - s + l, n - l): coeff
            for l in range(max(0, s - n + 1), s // 2 + 1)
            if (coeff := slot(l) - (l and slot(l - 1)))}


@functools.cache
def _point_coefficient(n: int, hs: tuple[int, ...]) -> int:
    """Coefficient K_{(n-1,n-1), c} of the point class w(0, 1) in a product
    of total codimension 2(n-1), the intersection number of the special
    classes of the sorted hs; memoized on (n, hs).  An exception is never
    cached, so invalid input raises on every call.
    """
    total = (n - 1) * len(hs) - sum(hs)
    if total != 2 * (n - 1):
        raise ValueError(
            f"total codimension {total} != dim G(1,{n}) = {2 * (n - 1)}")
    if n < 2 or hs[0] < 0 or hs[-1] > n - 2:  # n >= 2: hs is nonempty
        _check_parameters(n, hs)
    slot = _coefficients(n, hs)
    return slot(n - 1) - slot(n - 2)


def render(terms: dict[tuple[int, int], int]) -> str:
    """Canonical text form, e.g. "9*w(0,1)" or "1*w(0,3) + 1*w(1,2)"."""
    if not terms:
        return "0"
    return " + ".join(f"{coeff}*w({a0},{a1})"
                      for (a0, a1), coeff in sorted(terms.items()))
