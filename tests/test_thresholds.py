import itertools

import pytest

from kintegration import (
    Bound,
    InvalidParamsError,
    ModelViolationError,
    ThresholdRow,
    bridge_threshold,
    central_threshold,
    check_threshold_row,
    extended_star,
    integration_level,
    pair_bridge_minimum,
    segregation_verdict,
    star_quotient,
    threshold_row,
    threshold_rows,
)
from kintegration.oracle import fits_row

import naive
from helpers import islands, islands_of_sizes


def test_bound_exactness():
    assert Bound(3, 3).exact
    assert not Bound(3, 6).exact
    with pytest.raises(InvalidParamsError):
        Bound(4, 3)


def test_k1_formulas():
    assert bridge_threshold(8, 1000, 1) == Bound(28_000_000, 28_000_000)
    assert central_threshold(8, 1000, 1) == 8000
    assert bridge_threshold(8, 9, 1) == Bound(2268, 2268)
    assert central_threshold(8, 9, 1) == 72


def test_k2_formulas():
    assert bridge_threshold(8, 1000, 2) == Bound(7000, 7000)
    assert central_threshold(8, 1000, 2) == 7001
    assert bridge_threshold(8, 9, 2) == Bound(63, 63)
    assert central_threshold(8, 9, 2) == 64


def test_k3_formulas():
    assert bridge_threshold(8, 1000, 3) == Bound(28, 28)
    assert central_threshold(8, 1000, 3) == 8
    assert bridge_threshold(8, 9, 3) == Bound(28, 28)
    assert central_threshold(8, 9, 3) == 8


def test_intermediate_k_interval():
    bound = bridge_threshold(8, 9, 5)
    assert (bound.lower, bound.upper, bound.exact) == (7, 28, False)
    assert central_threshold(8, 9, 5) == 8


def test_large_k_exact():
    assert bridge_threshold(8, 9, 9) == Bound(7, 7)
    assert central_threshold(8, 9, 9) == 8
    assert bridge_threshold(8, 9, 40) == Bound(7, 7)


def test_r2_has_no_interval_gap():
    # with two communities k=3 already reaches the floor of one bridge
    assert bridge_threshold(2, 5, 3) == Bound(1, 1)
    assert bridge_threshold(2, 5, 7) == Bound(1, 1)


def test_intermediate_band_reaches_its_lower_end():
    # the table keeps the paper's bracket for 3 < k < r+1 ...
    assert bridge_threshold(5, 5, 4) == Bound(4, 10)
    # ... but the extended star on the star quotient is 4-integrated with r-1
    # bridges, and r-1 is what connectivity needs, so B_k = r-1 for every k >= 4
    for r in range(3, 8):
        for n in (2, 3, r):
            g = extended_star(r, n, star_quotient(r)).graph
            assert g.census.bridge_count == r - 1
            assert integration_level(g) == 4
    for r, n in ((4, 4), (5, 5)):
        row = check_threshold_row(r, n, 4)
        assert (row.verdict.min_bridges, row.verdict.certified, row.agrees) == (r - 1, True, True)


def test_single_community_is_free():
    for k in (1, 2, 9):
        assert bridge_threshold(1, 5, k) == Bound(0, 0)
        assert central_threshold(1, 5, k) == 0
        assert threshold_row(1, 5, k).shortfall(0, 0) is None  # never falls short


def test_validation():
    with pytest.raises(InvalidParamsError):
        bridge_threshold(2, 2, 0)
    with pytest.raises(InvalidParamsError):
        bridge_threshold(0, 2, 1)
    with pytest.raises(InvalidParamsError):
        central_threshold(2, 2, -1)
    with pytest.raises(ModelViolationError):
        bridge_threshold(5, 3, 2)


def test_threshold_rows_table():
    rows = threshold_rows(2, 2, 3)
    assert [(row.k, row.bridges, row.centrals) for row in rows] == [
        (1, Bound(4, 4), 4),
        (2, Bound(2, 2), 3),
        (3, Bound(1, 1), 2),
    ]


def test_table_matches_naive_transcription():
    for r in range(1, 9):
        for n in range(r, r + 3):
            rows = threshold_rows(r, n, r + 3)
            for k in range(1, r + 4):
                lower, upper, centrals = naive.threshold_table(r, n, k)
                assert threshold_row(r, n, k) == ThresholdRow(k, Bound(lower, upper), centrals)
                assert bridge_threshold(r, n, k) == Bound(lower, upper)
                assert central_threshold(r, n, k) == centrals
                assert rows[k - 1] == ThresholdRow(k, Bound(lower, upper), centrals)


def test_shortfall_at_and_below_each_count():
    row = threshold_row(4, 4, 2)  # B_2 = 12, C_2 = 13
    assert row.shortfall(12, 13) is None
    assert row.shortfall(11, 13) == "bridge count 11 is below the k=2 requirement 12"
    assert row.shortfall(12, 12) == "central-node count 12 is below the k=2 requirement 13"
    # with both short, the bridge count is the one reported
    assert row.shortfall(11, 12) == "bridge count 11 is below the k=2 requirement 12"
    # an interval row is judged at its lower end
    assert threshold_row(4, 4, 4).shortfall(3, 4) is None
    assert threshold_row(4, 4, 4).shortfall(2, 4) == "bridge count 2 is below the k=4 requirement 3"


def test_every_judge_of_the_counts_agrees_with_shortfall():
    # prefixes of the cross pairs in two orders: lexicographic (a star on node 0,
    # as many ends as bridges allow) and by higher end (few ends, many bridges)
    for r in range(1, 5):
        for n in (r, r + 1):
            cross = [(u, v) for u, v in itertools.combinations(range(r * n), 2) if u // n != v // n]
            for order in (sorted(cross), sorted(cross, key=lambda e: (e[1], e[0]))):
                for size in range(len(order) + 1):
                    witness = order[:size]
                    ends = len({node for edge in witness for node in edge})
                    g = islands(r, n, witness)
                    for row in threshold_rows(r, n, r + 2):
                        reason = row.shortfall(size, ends)
                        assert segregation_verdict(g, row.k) == reason
                        assert fits_row(row, witness, exact=False) is (reason is None)
                        assert fits_row(row, witness, exact=True) is (reason is None and size <= row.bridges.upper)


def test_pair_bridge_minimum():
    assert pair_bridge_minimum(1, 1) == 1
    assert pair_bridge_minimum(2, 3) == 2
    assert pair_bridge_minimum(7, 4) == 4
    with pytest.raises(InvalidParamsError):
        pair_bridge_minimum(0, 3)


def test_segregation_verdict_flags_bridge_deficit():
    g = islands(3, 3, [(0, 3), (0, 6)])  # 2 bridges, B_2 = 6
    assert segregation_verdict(g, 2) == "bridge count 2 is below the k=2 requirement 6"


def test_segregation_verdict_flags_central_deficit():
    # 9 bridges clear B_2=6 but touch only 6 nodes, below C_2=7
    g = islands(3, 3, [(u, v) for u in range(3) for v in range(3, 6)])
    assert segregation_verdict(g, 2) == "central-node count 6 is below the k=2 requirement 7"


def test_segregation_verdict_not_determined(sample_graph):
    assert segregation_verdict(sample_graph, 4) is None


def test_segregation_verdict_requires_model():
    g = islands_of_sizes((2, 3))
    with pytest.raises(ModelViolationError):
        segregation_verdict(g, 2)
