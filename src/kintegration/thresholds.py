"""Minimal bridge/central-node counts required for k-integration.

Under the equal-size islands model (r communities of n nodes each,
every community completely connected, n >= r) the minimum counts a
k-integrated network must reach are known exactly for k in {1, 2, 3}
and for k >= r+1:

    k = 1:      B = n^2 r(r-1)/2      C = r n
    k = 2:      B = (r-1) n           C = (r-1) n + 1
    k = 3:      B = r(r-1)/2          C = r
    3 < k < r+1:  B in [r-1, r(r-1)/2] (exact value open)   C = r
    k >= r+1:   B = r-1               C = r

A single community (r = 1) is one clique and needs neither. The table
is written once, in ``threshold_row``: one branch per case, each giving
the whole row, with the three k >= 3 cases as the ends of one Bound.
Every other function and caller reads whole rows from it.

These are necessary conditions: a network below either count is
provably k-segregated, but meeting both proves nothing, so integration
still has to be confirmed by measurement. That test is written once, as
``ThresholdRow.shortfall``: ``segregation_verdict`` returns its reason,
and ``analyze``'s threshold section and ``certify``'s agreement rule
call it. Counts grow quadratically (B_1 is ~28 million at r=8, n=1000).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParamsError, ModelViolationError, require_int
from .graph import CommunityGraph


class Bound(NamedTuple("Bound", [("lower", int), ("upper", int)])):
    """An integer threshold, exact when ``lower == upper``."""

    __slots__ = ()

    def __new__(cls, lower: int, upper: int) -> Bound:
        if lower > upper:
            raise InvalidParamsError(f"bound lower {lower} exceeds upper {upper}")
        return super().__new__(cls, lower, upper)

    @classmethod
    def _make(cls, values) -> Bound:
        return cls(*values)  # so ``_replace`` checks the bound too

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


class ThresholdRow(NamedTuple):
    k: int
    bridges: Bound
    centrals: int

    def shortfall(self, bridges: int, centrals: int) -> str | None:
        """Why these counts rule out k-integration (bridges checked first), or None when both suffice."""
        if bridges < self.bridges.lower:
            return f"bridge count {bridges} is below the k={self.k} requirement {self.bridges.lower}"
        if centrals < self.centrals:
            return f"central-node count {centrals} is below the k={self.k} requirement {self.centrals}"
        return None


def threshold_row(r: int, n: int, k: int) -> ThresholdRow:
    """The table's row for level k: B_k as a Bound (an interval for 3 < k < r+1) and C_k."""
    require_int("r", r, 1)
    require_int("n", n, 1)
    require_int("k", k, 1)
    if n < r:
        raise ModelViolationError(f"the model requires n >= r, got n={n} < r={r}")
    if r == 1:
        return ThresholdRow(k, Bound(0, 0), 0)
    if k == 1:
        b = n * n * r * (r - 1) // 2
        return ThresholdRow(k, Bound(b, b), r * n)
    if k == 2:
        b = (r - 1) * n
        return ThresholdRow(k, Bound(b, b), b + 1)
    # k >= 3: B_k lies in [r-1, r(r-1)/2] (connectivity, and the k = 3 row);
    # k = 3 is exact at the upper end, k >= r+1 at the lower one
    full, floor = r * (r - 1) // 2, r - 1
    return ThresholdRow(k, Bound(full if k == 3 else floor, floor if k > r else full), r)


def bridge_threshold(r: int, n: int, k: int) -> Bound:
    """Minimum bridge count B_k, exact or as an interval for 3 < k < r+1."""
    return threshold_row(r, n, k).bridges


def central_threshold(r: int, n: int, k: int) -> int:
    """Minimum central-node count C_k (always exact)."""
    return threshold_row(r, n, k).centrals


# every row from k = r+1 on repeats the last one, so a longer table adds nothing
MAX_KMAX = 10_000


def threshold_rows(r: int, n: int, kmax: int) -> list[ThresholdRow]:
    """The table of (B_k, C_k) for k = 1..kmax, with kmax at most MAX_KMAX."""
    require_int("kmax", kmax, 1, maximum=MAX_KMAX)
    return [threshold_row(r, n, k) for k in range(1, kmax + 1)]


def pair_bridge_minimum(n1: int, n2: int) -> int:
    """Minimum bridges that 2-integrate two disjoint complete graphs: min(n1, n2)."""
    require_int("n1", n1, 1)
    require_int("n2", n2, 1)
    return min(n1, n2)


def model_shape(g: CommunityGraph) -> tuple[int, int]:
    """(r, n) when all r communities have n >= r nodes, else ModelViolationError saying why."""
    sizes = sorted(set(g.community_sizes))
    if len(sizes) > 1:
        raise ModelViolationError(f"community sizes differ: {sizes}")
    r, n = g.community_count, sizes[0]
    if n < r:
        raise ModelViolationError(f"community size {n} is below the community count {r}")
    return r, n


def segregation_verdict(g: CommunityGraph, k: int) -> str | None:
    """Counting verdict for a strict-model graph: the k row's shortfall of its census counts.

    The row's reason when a count falls short, so the graph is provably
    k-segregated; None otherwise (the conditions are necessary, never
    sufficient, so such a graph still needs measuring).
    """
    return threshold_row(*model_shape(g), k).shortfall(g.census.bridge_count, g.census.central_count)
