"""Base configurations of incidence scrolls and their transformations.

A base is a multiset of linear-subspace dimensions inside a fixed projective
ambient space.  The engine only ever needs the dimensions: all counts are
generic, so no coordinates are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class EmptyIncidenceError(ValueError):
    """Restriction to the span would force a base space of negative dimension."""


class InvariantError(RuntimeError):
    """A computed result breaks a cross-check the theory guarantees (never observed).

    Every base that join, separate or restrict_to_span produces must impose
    exactly 2n-3 conditions; the ring degree must equal the degree of the
    degeneration witness, kappa must be positive, and a join with m = 0 must
    share exactly one generator.
    """


@dataclass(frozen=True, order=True)
class IncidenceBase:
    """Ambient projective dimension plus the sorted multiset of base dimensions."""

    ambient: int
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ambient < 2:
            raise ValueError(f"ambient projective dimension must be >= 2, got {self.ambient}")
        object.__setattr__(self, "dims", tuple(sorted(self.dims)))
        for d in self.dims:
            if not 0 <= d < self.ambient:
                raise ValueError(
                    f"base space dimension {d} out of range for P^{self.ambient}")


def format_base(base: IncidenceBase) -> str:
    """Text form "n=6 dims=2,3,3,4,4" used by the CLI and the witness rows."""
    return f"n={base.ambient} dims={','.join(map(str, base.dims))}"


def parse_base(text: str) -> IncidenceBase:
    try:
        n_part, dims_part = text.split()
        ambient = int(n_part.removeprefix("n="))
        body = dims_part.removeprefix("dims=")
        dims = tuple(int(d) for d in body.split(",")) if body else ()
    except (ValueError, AttributeError) as exc:
        raise ValueError(f"cannot parse base {text!r}") from exc
    return IncidenceBase(ambient, dims)


def conditions_count(base: IncidenceBase) -> int:
    """Number of linear conditions the base imposes on lines in its ambient."""
    return sum(base.ambient - 1 - d for d in base.dims)


def satisfies_is(base: IncidenceBase) -> bool:
    """True when the base cuts out a curve of lines: exactly 2n-3 conditions."""
    return conditions_count(base) == 2 * base.ambient - 3


def _require_result_is(base: IncidenceBase, step: str) -> None:
    if not satisfies_is(base):
        raise InvariantError(
            f"{step} produced {format_base(base)}, which is not an "
            f"incidence-scroll base")


def is_nondegenerate(base: IncidenceBase) -> bool:
    """Every pair of base spaces spans the ambient: d_i + d_j >= ambient - 1.

    A failing pair lies in a hyperplane, hence so does the swept scroll.
    The dims are sorted, so the two smallest spaces decide.
    """
    dims = base.dims
    return len(dims) < 2 or dims[0] + dims[1] >= base.ambient - 1


def canonicalize(base: IncidenceBase) -> IncidenceBase:
    """Drop hyperplane base spaces (they impose no condition); keep dims sorted."""
    return IncidenceBase(base.ambient,
                         tuple(d for d in base.dims if d < base.ambient - 1))


@dataclass(frozen=True)
class JoinResult:
    """Outcome of degenerating a pair of base spaces into a hyperplane."""

    dot: IncidenceBase
    ddot: IncidenceBase
    m: int


def join(base: IncidenceBase, i: int, j: int) -> JoinResult:
    """Specialize base spaces i and j into a common hyperplane.

    The scroll breaks into a component with base (pair replaced by their
    intersection P^m) in the same ambient, and a component inside the
    hyperplane whose other spaces are cut down by one dimension.
    """
    if i == j:
        raise ValueError("join needs two distinct base spaces")
    i, j = min(i, j), max(i, j)
    n = base.ambient
    di, dj = base.dims[i], base.dims[j]
    m = di + dj - n + 1
    if m < 0:
        raise ValueError(
            f"P^{di} and P^{dj} already lie in a hyperplane of P^{n} generically")
    others = tuple(d for k, d in enumerate(base.dims) if k not in (i, j))
    if any(d == 0 for d in others):
        raise ValueError("cannot push a point into the hyperplane")
    dot = canonicalize(IncidenceBase(n, others + (m,)))
    ddot = canonicalize(IncidenceBase(n - 1, tuple(d - 1 for d in others) + (di, dj)))
    _require_result_is(dot, "join")
    _require_result_is(ddot, "join")
    return JoinResult(dot=dot, ddot=ddot, m=m)


def separate(base: IncidenceBase, i: int, j: int) -> IncidenceBase:
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
    lifted = canonicalize(IncidenceBase(n + 1, tuple(d + 1 for d in others) + (di, dj)))
    _require_result_is(lifted, "separate")
    return lifted


def restrict_to_span(base: IncidenceBase) -> IncidenceBase:
    """Re-express a degenerate configuration inside the span of its scroll.

    While some pair of base spaces fails to span the ambient, the whole
    scroll lives in the span P^s of that pair (s = d_i + d_j + 1); every
    other base space is replaced by its generic trace on that span.  The
    pair taken is the two smallest spaces, whose span is the smallest.
    Idempotent once the result is nondegenerate.
    """
    current = canonicalize(base)
    while not is_nondegenerate(current):
        x, y, *rest = current.dims
        span = x + y + 1
        delta = current.ambient - span
        shrunk = [d - delta for d in rest]
        if any(d < 0 for d in shrunk):
            raise EmptyIncidenceError(
                f"no incidence scroll: {format_base(base)} restricts to an "
                f"empty configuration")
        current = canonicalize(IncidenceBase(span, (x, y, *shrunk)))
        _require_result_is(current, "restrict_to_span")
    return current


def _dims_summing_to(n: int, remaining: int, min_dim: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing dimension tuples in [min_dim, n-2] imposing `remaining`
    conditions in P^n."""
    if remaining == 0:
        yield ()
        return
    for d in range(min_dim, n - 1):
        cost = n - 1 - d
        if cost <= remaining:
            for rest in _dims_summing_to(n, remaining - cost, d):
                yield (d, *rest)


def enumerate_bases(n: int, *, nondegenerate_only: bool = False,
                    contains_dim: int | None = None) -> list[IncidenceBase]:
    """All bases imposing exactly 2n-3 conditions in P^n, canonically sorted.

    Dimension-0 spaces (which sweep a plane pencil) are only listed when
    nondegenerate_only is false.
    """
    if n < 3:
        raise ValueError(f"need ambient n >= 3, got {n}")
    out = []
    for dims in _dims_summing_to(n, 2 * n - 3, 0):
        base = IncidenceBase(n, dims)
        if nondegenerate_only and (0 in dims or not is_nondegenerate(base)):
            continue
        if contains_dim is not None and contains_dim not in dims:
            continue
        out.append(base)
    return sorted(out)
