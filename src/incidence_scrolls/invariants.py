"""Degree, genus, speciality and directrix data of incidence scrolls.

The degree comes straight from the product of special Schubert cycles.  The
genus is computed by recursively degenerating the configuration: two base
spaces are pushed into a hyperplane, the scroll breaks into two smaller
incidence scrolls sharing kappa generators, and the genera add up as
g = g1 + g2 + kappa - 1.  Every computation records its degeneration witness,
whose repeated sub-bases are shared, and checks the genus by adjunction.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

# degree, kappa and directrix_degree build their keys sorted from a canonical
# base and call the kernel memo grassmann._point_coefficient by module
# attribute, so every check sees a patched kernel
from . import grassmann
from .bases import (
    IncidenceBase,
    InvariantError,
    JoinResult,
    format_base,
    is_nondegenerate,
    join,
    restrict_to_span,
)


def degree(base: IncidenceBase) -> int:
    """Degree of the scroll: the number of its generators meeting a hyperplane.

    The base's cycle product is a multiple of the pencil class w(0,2), the
    only class of dimension 1; one more hyperplane condition takes it to the
    same multiple of the point class.  Valid for degenerate configurations
    as well; the product does not care where the scroll actually spans.
    """
    n, dims = base
    return grassmann._point_coefficient(n, dims + (n - 2,))


def kappa(parts: JoinResult) -> int:
    """Number of generators shared by the two components of a join.

    A common generator lies in the hyperplane, passes through the P^m cut
    out by the pair, and meets the trace of every other base space.  Those
    are the spaces of the `dot` component, each but P^m cut down by one; the
    count is their intersection number one ambient down.
    """
    (n, dims), _, m = parts
    key = [d - 1 for d in dims]
    key[bisect_right(dims, m) - 1] = m  # the last P^m: the key stays sorted
    value = grassmann._point_coefficient(n - 1, tuple(key))
    if value < 1:
        raise InvariantError(f"kappa must be positive, got {value}")
    return value


DegenerationNode = namedtuple(
    "DegenerationNode", "base action degree genus m kappa children",
    defaults=(None, None, ()))
DegenerationNode.__doc__ = """One step of the genus recursion, with exact degree/genus
bookkeeping; action is "leaf", "restrict" or "join".  A join joins the two
smallest spaces of its base, base.dims[:2], which meet in a P^m."""


def _tree(base: IncidenceBase):
    """Witness of a base, as a generator run by `degeneration_tree`.

    It yields each base it reduces to, is sent that base's node, and
    returns its own node.  A base with a point is a leaf, and every base of
    P^2 is {P^0}.  So a base that reaches the join is nondegenerate and
    point-free in P^n, n >= 3: it has two spaces (one imposes at most
    n - 2 < 2n - 3 conditions), and its two smallest span the ambient: they
    are joined, meeting in the smallest P^m.
    """
    if 0 in base.dims:
        # a point in the base sweeps a plane pencil
        return DegenerationNode(base, "leaf", 1, 0)
    if not is_nondegenerate(base):
        child = yield restrict_to_span(base)
        return DegenerationNode(base, "restrict", child.degree, child.genus,
                                children=(child,))
    parts = join(base, 0, 1)
    shared = kappa(parts)
    if parts.m == 0 and shared != 1:
        raise InvariantError(f"m=0 join must share one generator, got {shared}")
    dot = yield parts.dot
    ddot = yield parts.ddot
    return DegenerationNode(base, "join", dot.degree + ddot.degree,
                            dot.genus + ddot.genus + shared - 1,
                            parts.m, shared, (dot, ddot))


_nodes: dict[IncidenceBase, DegenerationNode] = {}


def degeneration_tree(base: IncidenceBase) -> DegenerationNode:
    """Witness of the genus recursion, a DAG of shared sub-bases.

    Every subtree is shared with every other witness that reaches the same
    base.  `_tree` runs on a stack of (base, generator) frames, memoized in
    `_nodes`, so the depth of the witness is not bounded by the interpreter's
    frame limit; a raising frame leaves only completed nodes in `_nodes`.
    """
    if base in _nodes:
        return _nodes[base]
    stack = [(base, _tree(base))]
    node = None
    while stack:
        key, frame = stack[-1]
        try:
            sub = frame.send(node)
        except StopIteration as done:
            stack.pop()
            node = _nodes[key] = done.value
            continue
        node = _nodes.get(sub)
        if node is None:
            stack.append((sub, _tree(sub)))
    return node


def node_table(root: DegenerationNode) -> dict:
    """The witness as a table with one row per distinct base.

    Rows are in topological order: children before parents, the root last,
    and a row's id is its index.  Every row has id, base, action, degree,
    genus and the ids of its children; a join row also has the dimensions
    of the joined pair, m and kappa.  The table grows with the number of
    distinct sub-bases, while the expanded tree can be exponentially larger.
    """
    ids: dict[IncidenceBase, int] = {}
    nodes: list[dict] = []
    stack = [root]
    while stack:
        node = stack[-1]
        if node.base in ids:
            stack.pop()
            continue
        pending = [child for child in node.children if child.base not in ids]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        row = {"id": len(nodes), "base": format_base(node.base),
               "action": node.action, "degree": node.degree,
               "genus": node.genus}
        if node.action == "join":
            row["pair"] = list(node.base.dims[:2])
            row["m"] = node.m
            row["kappa"] = node.kappa
        row["children"] = [ids[child.base] for child in node.children]
        ids[node.base] = row["id"]
        nodes.append(row)
    return {"root": ids[root.base], "nodes": nodes}


def directrix_degree(base: IncidenceBase, a: int) -> int:
    """Degree of the curve the scroll cuts on each base space of dimension `a`.

    Lower one such space's special cycle by one and intersect: the count of
    generators meeting a generic hyperplane trace of that space.  Every
    space of dimension a gives the same sorted key.
    """
    n, dims = base
    if a not in dims:
        raise ValueError(f"no space of {format_base(base)} has dimension {a}")
    if a == 0:
        raise ValueError("a point carries no directrix curve")
    first = dims.index(a)
    return grassmann._point_coefficient(n, dims[:first] + (a - 1,) + dims[first + 1:])


def speciality(n: int, d: int, g: int) -> int:
    """Speciality index h1 = n - d + 2g - 1 of a linearly normal scroll in P^n.

    A negative index raises InvariantError: from a checked base only a fault
    in the engine's degree or genus can produce one.
    """
    h1 = n - d + 2 * g - 1
    if h1 < 0:
        raise InvariantError(
            f"negative speciality h1={h1} for (n={n}, d={d}, g={g}); "
            f"scroll cannot be linearly normal")
    return h1


class ScrollReport(namedtuple(
        "ScrollReport", "base span degree genus h1 directrix")):
    """Full classification record of the incidence scroll of one base.

    directrix holds one (space_dim, curve_degree) pair per distinct nonzero
    dimension of the spanning base, in increasing order; a directrix curve
    is a section of the scroll, so its genus is `genus`.  The witness that
    checked the degree is `degeneration_tree(base)`.
    """

    __slots__ = ()

    @property
    def special(self) -> bool:
        """The scroll is special: h1 > 0."""
        return self.h1 > 0

    def to_dict(self) -> dict:
        return {
            "ambient": self.base.ambient,
            "dims": list(self.base.dims),
            "span": self.span,
            "degree": self.degree,
            "genus": self.genus,
            "h1": self.h1,
            "special": self.special,
            "directrix": [
                {"space_dim": a, "curve_degree": d, "curve_genus": self.genus}
                for a, d in self.directrix
            ],
        }


def classify(base: IncidenceBase) -> ScrollReport:
    """Compute degree, genus, speciality and directrix table of a base."""
    node = degeneration_tree(base)
    d = degree(base)
    if d != node.degree:
        raise InvariantError(
            f"ring degree {d} disagrees with degeneration bookkeeping {node.degree} "
            f"for {format_base(base)}")
    g = node.genus

    # the witness restricted a degenerate point-free root; a leaf with two or
    # more spaces is degenerate too, and a join root is its own restriction
    restricted = (node.children[0].base if node.action == "restrict"
                  else restrict_to_span(base))
    span, effective = restricted
    # adjunction on the curve of lines of r spaces in P^s, e_a the directrix
    # degree: 2g - 2 = (r - s - 1) d + sum over the spaces of (s - 2 - a) e_a,
    # summed over the runs of equal dims, one directrix degree per run
    twice = (len(effective) - span - 1) * d
    directrix, start = [], 0
    while start < len(effective):
        a = effective[start]
        end = bisect_right(effective, a, start)
        if a:
            e = directrix_degree(restricted, a)
            directrix.append((a, e))
            twice += (end - start) * (span - 2 - a) * e
        start = end
    if twice != 2 * g - 2:
        raise InvariantError(f"adjunction gives 2g - 2 = {twice}, not the degeneration "
                             f"genus {g}, for {format_base(base)}")
    return ScrollReport(base, span, d, g, speciality(span, d, g), tuple(directrix))
