"""Write bench/refs.json: the reference answers the benchmark checks against.

Run from the repository root, once, on a commit whose answers are trusted:

    python3 bench/make_refs.py

The file holds every input the workloads can draw and the exact answer for
each: degree, genus, h1, span and directrix table for bases, the printed
sum for raw products.  Before writing, each answer is cross-checked by a
second route: the closed forms of the line, plane and solid families, and
the genus under a different first join pair.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from incidence_scrolls import closed_forms  # noqa: E402
from incidence_scrolls.bases import (  # noqa: E402
    IncidenceBase,
    enumerate_bases,
    format_base,
    is_nondegenerate,
    restrict_to_span,
)
from incidence_scrolls.grassmann import GrassmannSpec, product_of_specials, render  # noqa: E402
from incidence_scrolls.invariants import classify, degeneration_tree  # noqa: E402

SWEEP_N = 13
POOL_NS = range(14, 21)
POOL_PER_N = 6
WITNESS_NS = (10, 11, 12)
PRODUCT_NS = (12, 16, 20, 24, 28, 32)
FIXED_DIM = {"p1s": 1, "p2s": 2, "p3s": 3}


def family_records(n: int) -> dict[tuple[int, ...], list]:
    """Closed-form records of the line, plane and solid families in P^n."""
    records = [closed_forms.p1s(n)]
    if n >= 4:
        records += [closed_forms.p2s(n, i) for i in range(n // 2 + 1)]
    if n >= 5:
        records += [closed_forms.p3s(n, j, i)
                    for j in range((n + 1) // 3 + 1)
                    for i in range((n + 1 - 3 * j) // 2 + 1)]
    by_dims: dict[tuple[int, ...], list] = {}
    for record in records:
        by_dims.setdefault(record.base.dims, []).append(record)
    return by_dims


def fail(message: str) -> None:
    raise SystemExit(f"make_refs: {message}")


def second_pair(base: IncidenceBase) -> tuple[int, int] | None:
    """An admissible first join pair, preferring one of other dimensions
    than the engine's own choice (largest m first)."""
    n = base.ambient
    pairs = [(base.dims[i] + base.dims[j] - n + 1, (i, j))
             for i, j in itertools.combinations(range(len(base.dims)), 2)
             if base.dims[i] + base.dims[j] - n + 1 >= 0]
    if len(pairs) < 2:
        return None
    return max(pairs)[1] if max(pairs)[0] != min(pairs)[0] else pairs[1][1]


def reference(base: IncidenceBase, families: dict) -> dict:
    report = classify(base)
    effective = restrict_to_span(base)
    if is_nondegenerate(effective) and 0 not in effective.dims:
        pair = second_pair(effective)
        if pair is not None:
            forced = degeneration_tree(effective, first_pair=pair)
            if (forced.degree, forced.genus) != (report.degree, report.genus):
                fail(f"{format_base(base)}: first pair {pair} gives "
                     f"{(forced.degree, forced.genus)}")
    for record in families.get(base.dims, []):
        if (record.degree, record.genus) != (report.degree, report.genus):
            fail(f"{format_base(base)}: closed form {record.family} disagrees")
        directrix = {a: d for a, d, _ in report.directrix}
        if not record.degenerate and \
                directrix[FIXED_DIM[record.family]] != record.directrix_degree:
            fail(f"{format_base(base)}: {record.family} directrix disagrees")
    return {"span": report.span, "degree": report.degree, "genus": report.genus,
            "h1": report.h1, "directrix": [list(t) for t in report.directrix]}


def main() -> None:
    refs: dict = {"bases": {}, "sweep": {"n": SWEEP_N, "bases": []},
                  "pool": {}, "witness": [], "tables": {}, "products": []}

    families = family_records(SWEEP_N)
    for base in enumerate_bases(SWEEP_N):
        if 0 in base.dims:
            continue  # the CLI drops bases with a point unless asked for them
        key = format_base(base)
        refs["bases"][key] = reference(base, families)
        refs["sweep"]["bases"].append(key)

    # Nondegenerate point-free bases with the most P^(n-2) spaces: the
    # kappa counts on them have the most factors.
    for n in POOL_NS:
        families = family_records(n)
        bases = sorted(enumerate_bases(n, nondegenerate_only=True),
                       key=lambda b: (-b.dims.count(n - 2), b.dims))
        refs["pool"][str(n)] = []
        for base in bases[:POOL_PER_N]:
            key = format_base(base)
            refs["bases"][key] = reference(base, families)
            refs["pool"][str(n)].append(key)

    for n in WITNESS_NS:
        base = IncidenceBase(n, (n - 2,) * (2 * n - 3))
        key = format_base(base)
        refs["bases"][key] = reference(base, family_records(n))
        refs["witness"].append(key)

    for table_id in (1, 2, 3):
        rows = []
        for row in closed_forms.table(table_id):
            base = row.record.base
            ref = reference(base, family_records(base.ambient))
            directrix = {a: d for a, d, _ in ref["directrix"]}
            rows.append({"base": format_base(base), "d": ref["degree"],
                         "g": ref["genus"], "h1": ref["h1"],
                         "dir": directrix.get(FIXED_DIM[row.record.family])})
        refs["tables"][str(table_id)] = rows

    # Products of codimension about half of dim G(1,n): the answer is a sum
    # of several classes, not a single intersection number.
    rng = random.Random(20020119)
    for n in PRODUCT_NS:
        spec = GrassmannSpec(1, n)
        for share in (0.4, 0.6):
            hs: list[int] = []
            while sum(n - 1 - h for h in hs) < int(spec.dim * share):
                hs.append(rng.choice([n - 2, n - 2, n - 3, n - 4]))
            product = product_of_specials(spec, hs)
            if len(product.items()) < 2:
                fail(f"product {n} {hs} is a single class")
            refs["products"].append({"n": n, "specials": hs,
                                     "product": render(product)})

    with open(os.path.join(HERE, "refs.json"), "w") as out:
        json.dump(refs, out, separators=(",", ":"), sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    main()
