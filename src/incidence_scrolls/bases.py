"""Base configurations of incidence scrolls and their transformations.

A base is a multiset of linear-subspace dimensions inside a fixed projective
ambient space.  The engine only ever needs the dimensions: all counts are
generic, so no coordinates are kept.  An IncidenceBase is always a canonical
incidence-scroll base: its constructor checks the range of each dimension,
sorts the dims, drops the hyperplanes and checks the 2n-3 condition.  Every
base the package derives itself is made and checked by `_derived`.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_left, insort
from collections import namedtuple


class InvariantError(RuntimeError):
    """A computed result breaks a cross-check the theory guarantees.

    Every base that a join or a restrict step produces, and every closed-form
    base, must impose exactly 2n-3 conditions; the ring degree must equal the
    degree of the degeneration witness, the witness genus must satisfy
    adjunction, kappa must be positive, a join with m = 0 must share
    exactly one generator, and a closed form must agree with the engine.
    """


class IncidenceBase(namedtuple("IncidenceBase", "ambient dims")):
    """A canonical incidence-scroll base: the ambient projective dimension n
    and the sorted dims of the base spaces, without hyperplanes (they impose
    no condition), imposing exactly 2n-3 conditions on lines.

    The constructor stores plain ints and raises ValueError on any other
    ambient or dimension.
    """

    __slots__ = ()

    def __new__(cls, ambient: int, dims) -> IncidenceBase:
        ambient = _integer(ambient, "ambient projective dimension")
        if ambient < 2:
            raise ValueError(f"ambient projective dimension must be >= 2, got {ambient}")
        dims = tuple(sorted(_integer(d, "base space dimension") for d in dims))
        for d in dims:
            if not 0 <= d < ambient:
                raise ValueError(f"base space dimension {d} out of range for P^{ambient}")
        # sorted dims: the hyperplanes, which impose no condition, come last
        base = super().__new__(cls, ambient, dims[:bisect_left(dims, ambient - 1)])
        if not satisfies_is(base):
            raise ValueError(
                f"{format_base(base)} is not an incidence-scroll base: "
                f"conditions={conditions_count(base)}, required {2 * ambient - 3}")
        return base


def _integer(value, name: str) -> int:
    """`value` as a plain int: operator.index takes any integer type, a bool
    included, and refuses a float or a string."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def format_base(base: IncidenceBase) -> str:
    """Text form "n=6 dims=2,3,3,4,4" used by the CLI and the witness rows."""
    ambient, dims = base
    return f"n={ambient} dims={','.join(map(str, dims))}"


def conditions_count(base: IncidenceBase) -> int:
    """Number of linear conditions the base imposes on lines in its ambient."""
    ambient, dims = base
    return (ambient - 1) * len(dims) - sum(dims)


def satisfies_is(base: IncidenceBase) -> bool:
    """True when the base cuts out a curve of lines: exactly 2n-3 conditions."""
    return conditions_count(base) == 2 * base[0] - 3


def _derived(ambient: int, dims, step: str) -> IncidenceBase:
    """The base that `step` derives, from sorted dims in range, without the
    hyperplanes; only a fault in the step can break its 2n-3 condition."""
    base = IncidenceBase._make((ambient, tuple(dims[:bisect_left(dims, ambient - 1)])))
    if not satisfies_is(base):
        raise InvariantError(
            f"{step} produced {format_base(base)}, which is not an "
            f"incidence-scroll base")
    return base


def is_nondegenerate(base: IncidenceBase) -> bool:
    """Every pair of base spaces spans the ambient: d_i + d_j >= ambient - 1.

    A failing pair lies in a hyperplane, hence so does the swept scroll.
    The dims are sorted, so the two smallest spaces decide.
    """
    ambient, dims = base
    return len(dims) < 2 or dims[0] + dims[1] >= ambient - 1


def join(base: IncidenceBase) -> tuple[IncidenceBase, IncidenceBase]:
    """Specialize the two smallest base spaces, base.dims[:2], into a common
    hyperplane, and return the pair (dot, ddot) of the scroll's components.

    `dot` has the base with the pair replaced by their intersection P^m, in
    the same ambient; `ddot` lies inside the hyperplane, with the other
    spaces cut down by one dimension.  As d1 <= n - 2,
    m = d0 + d1 - n + 1 < d0 <= d2: P^m is the smallest space of `dot`, so
    m is dot.dims[0].  Raises ValueError on a base with fewer than two
    spaces or a degenerate one (m < 0), as is every other base with a point.
    """
    n, dims = base
    if len(dims) < 2:
        raise ValueError(f"{format_base(base)} has fewer than two spaces to join")
    d0, d1 = dims[:2]
    m = d0 + d1 - n + 1
    if m < 0:
        raise ValueError(f"P^{d0} and P^{d1} of {format_base(base)} already lie "
                         f"in a hyperplane of P^{n} generically")
    others = dims[2:]
    traces = [d - 1 for d in others]  # sorted, as others are
    insort(traces, d0)
    insort(traces, d1)
    return _derived(n, (m,) + others, "join"), _derived(n - 1, traces, "join")


def restrict_to_span(base: IncidenceBase) -> IncidenceBase:
    """Re-express a degenerate configuration inside the span of its scroll.

    While some pair of base spaces fails to span the ambient, the whole
    scroll lives in the span P^s of that pair (s = d_i + d_j + 1); every
    other base space is replaced by its generic trace on that span.  The
    pair taken is the two smallest spaces, whose span is the smallest.
    Idempotent once the result is nondegenerate.

    No space empties: three spaces impose at most 2n - 3 conditions, so the
    pair x <= y and any third space d have x + y + d >= n, and d shrinks to
    d - n + x + y + 1 >= 1.
    """
    while not is_nondegenerate(base):
        n, dims = base
        span = dims[0] + dims[1] + 1
        shrunk = [d - n + span for d in dims[2:]] + [dims[0], dims[1]]
        base = _derived(span, sorted(shrunk), "restrict_to_span")
    return base


def enumerate_bases(n: int) -> list[IncidenceBase]:
    """All bases imposing exactly 2n-3 conditions in P^n, sorted by their dims."""
    if n < 3:
        raise ValueError(f"need ambient n >= 3, got {n}")

    @functools.cache
    def tails(remaining: int, min_dim: int) -> list[tuple[int, ...]]:
        # sorted dims >= min_dim imposing `remaining` conditions (d costs n - 1 - d)
        return [(d,) + rest for d in range(max(min_dim, n - 1 - remaining), n - 1)
                for rest in tails(remaining - n + 1 + d, d)] if remaining else [()]

    found = tails(2 * n - 3, 0)
    tails.cache_clear()  # tails refers to itself: free its lists now, not at a gc pass
    return [IncidenceBase._make((n, dims)) for dims in found]
