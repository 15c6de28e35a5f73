"""Fixed reference job: the yardstick the benchmark divides its timings by.

The host this benchmark runs on is shared, and its speed drifts by up to
half for tens of seconds at a time.  Run in a fresh interpreter between the
timed invocations, this job takes the same drift, so a time divided by the
job's median time in the same run no longer carries it.  The work imitates
the engine's own: small frozen dataclasses as dict keys, integer sums and a
sort, all in plain Python.  It imports nothing from the package, so no
change to the program can move it.
"""

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Key:
    a: tuple


def work() -> int:
    counts: dict = {}
    for a in range(140):
        for b in range(a + 1, 140):
            for c in range(0, b - a, 2):
                key = Key((a, c))
                counts[key] = counts.get(key, 0) + b
    return sum(v for _, v in sorted(counts.items()))


if __name__ == "__main__":
    print(work())
