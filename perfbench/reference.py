"""A fixed stdlib-only task that gauges how fast the host runs Python right now.

    python3 perfbench/reference.py

Prints the task's wall time in seconds. The harness launches it in a
fresh interpreter between ops, like a CLI call, and rescales the run's
times by it (see run.py). It does the same kinds of work as the program
(parsing tokens, interning them in a dict, adjacency lists, a set of
pairs, breadth-first search) on fresh memory, and it never changes, so
a faster program still shows as a proportionally faster time.
"""

from __future__ import annotations

import random
import time
from collections import deque


def task() -> int:
    """One pass; returns a checksum so that no step can be skipped."""
    rng = random.Random(2024)
    count = 12000
    tokens = [f"{rng.getrandbits(32):08x}" for _ in range(count)]
    lines = [f"{tokens[rng.randrange(count)]} {tokens[rng.randrange(count)]}" for _ in range(36000)]
    index: dict[str, int] = {}
    adjacency: list[list[int]] = [[] for _ in range(count)]
    pairs: set[tuple[int, int]] = set()
    for line in lines:
        a, b = line.split()
        u = index.setdefault(a, len(index))
        v = index.setdefault(b, len(index))
        adjacency[u].append(v)
        adjacency[v].append(u)
        pairs.add((u, v) if u < v else (v, u))
    total = len(pairs)
    for source in (0, 1):
        dist = [-1] * count
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist)
    return total


if __name__ == "__main__":
    start = time.perf_counter()
    task()
    print(time.perf_counter() - start)
