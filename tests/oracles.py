"""Helpers shared by the test modules that the package itself does not need."""

from incidence_scrolls.bases import IncidenceBase, canonicalize, satisfies_is


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
    lifted = canonicalize(IncidenceBase(n + 1, tuple(d + 1 for d in others) + (di, dj)))
    assert satisfies_is(lifted), lifted
    return lifted
