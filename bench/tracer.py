"""Run the `scrolls` command with per-layer timers around the package's
public functions.

    python3 bench/tracer.py <scrolls arguments...>

behaves like `python3 -m incidence_scrolls.cli <arguments...>` with the same
stdout and exit code.  On exit it writes one JSON object with the per-layer
counts and times to the file descriptor named by BENCH_TRACE_FD.

Each traced function is replaced under every name the package binds it to
(`invariants.intersection_number`, `cli.classify`, ...), so calls are caught
where they are looked up.  A function that no longer exists is reported as
absent.  Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

PACKAGE = "incidence_scrolls"


def _product_key(args, kwargs):
    spec, hs = args[0], args[1]
    return (spec.n, tuple(sorted(hs))) if isinstance(hs, (list, tuple)) else None


def _base_key(args, kwargs):
    return (args[0].ambient, args[0].dims)


# (module, function, key of the argument for distinct counts, count items
# returned).  The key sizes the headroom for a memo: distinct keys / calls.
TARGETS = [
    ("grassmann", "product_of_specials", _product_key, False),
    ("grassmann", "intersection_number", None, False),
    ("invariants", "directrix_degree", None, False),
    ("invariants", "kappa", None, False),
    ("invariants", "degree", None, False),
    ("invariants", "classify", None, False),
    ("invariants", "degeneration_tree", _base_key, False),
    ("bases", "enumerate_bases", None, True),
    ("bases", "join", None, False),
    ("bases", "restrict_to_span", None, False),
    ("closed_forms", "table", None, False),
]


class Layer:
    """Counts and times of one traced function within one process."""

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0  # outermost calls only, so recursion is not double-counted
        self.self_s = 0.0
        self.items = 0
        self.keys: set = set()
        self.keyed = 0
        self.depth = 0

    def summary(self) -> dict:
        return {"calls": self.calls, "incl_s": self.incl_s, "self_s": self.self_s,
                "items": self.items, "distinct": len(self.keys), "keyed": self.keyed}


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span

    def wrap(self, name: str, fn, key_fn=None, count_items=False):
        layer = self.layers.setdefault(name, Layer())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layer.calls += 1
            if key_fn is not None:
                try:
                    key = key_fn(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    key = None
                if key is not None:
                    layer.keyed += 1
                    layer.keys.add(key)
            child = [0.0]
            stack.append(child)
            layer.depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                layer.depth -= 1
                layer.self_s += elapsed - child[0]
                if layer.depth == 0:
                    layer.incl_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if count_items:
                layer.items += len(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, fn_name, key_fn, count_items in TARGETS:
            name = f"{module_name}.{fn_name}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self.wrap(name, original, key_fn, count_items)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def report(self) -> dict:
        return {"layers": {name: layer.summary() for name, layer in self.layers.items()},
                "absent": self.absent}


def main(argv: list[str]) -> int:
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli", cli.main)(argv)
    finally:
        sys.stdout.flush()
        with os.fdopen(int(os.environ["BENCH_TRACE_FD"]), "w") as out:
            json.dump(tracer.report(), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
