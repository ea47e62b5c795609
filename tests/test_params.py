"""Every public entry point rejects a bad integer parameter with InvalidParamsError."""

import pytest

from kintegration import (
    InvalidParamsError,
    QuotientGraph,
    UnsupportedCommunityCountError,
    bridge_threshold,
    check_threshold_row,
    build_report,
    central_threshold,
    complete_join,
    complete_quotient,
    cycle_quotient,
    extended_star,
    figure1_quotient,
    is_k_integrated,
    min_bridges_for_sizes,
    min_bridges_randomized,
    pair_bridge_minimum,
    path_quotient,
    star_quotient,
    threshold_rows,
    two_star,
)

from helpers import islands

_G = islands(2, 2, [(0, 2)])

# case -> (entry point, its arguments with the parameter under test set to x, that parameter's minimum)
_CASES = {
    "bridge_threshold.r": (bridge_threshold, lambda x: (x, 2, 2), 1),
    "bridge_threshold.n": (bridge_threshold, lambda x: (1, x, 2), 1),
    "bridge_threshold.k": (bridge_threshold, lambda x: (2, 2, x), 1),
    "central_threshold.r": (central_threshold, lambda x: (x, 2, 2), 1),
    "central_threshold.n": (central_threshold, lambda x: (1, x, 2), 1),
    "central_threshold.k": (central_threshold, lambda x: (2, 2, x), 1),
    "threshold_rows.kmax": (threshold_rows, lambda x: (2, 2, x), 1),
    "pair_bridge_minimum.n1": (pair_bridge_minimum, lambda x: (x, 2), 1),
    "pair_bridge_minimum.n2": (pair_bridge_minimum, lambda x: (2, x), 1),
    "complete_join.r": (complete_join, lambda x: (x, 2), 1),
    "complete_join.n": (complete_join, lambda x: (2, x), 1),
    "two_star.r": (two_star, lambda x: (x, 2), 1),
    "two_star.n": (two_star, lambda x: (2, x), 1),
    "extended_star.r": (extended_star, lambda x: (x, 2, complete_quotient(1)), 1),
    "extended_star.n": (extended_star, lambda x: (2, x, complete_quotient(2)), 1),
    "QuotientGraph.r": (QuotientGraph, lambda x: (x, ()), 1),
    "complete_quotient.r": (complete_quotient, lambda x: (x,), 1),
    "star_quotient.r": (star_quotient, lambda x: (x,), 1),
    "path_quotient.r": (path_quotient, lambda x: (x,), 1),
    "cycle_quotient.r": (cycle_quotient, lambda x: (x,), 3),
    "figure1_quotient.k": (figure1_quotient, lambda x: (x,), 4),
    "QuotientGraph.edges.u": (QuotientGraph, lambda x: (3, ((x, 1),)), 0),
    "QuotientGraph.edges.v": (QuotientGraph, lambda x: (3, ((1, x),)), 0),
    "is_k_integrated.k": (is_k_integrated, lambda x: (_G, x), 1),
    "build_report.ks": (build_report, lambda x: (_G, [1, x]), 1),
    "min_bridges_for_sizes.sizes": (min_bridges_for_sizes, lambda x: ((2, x), 2), 1),
    "min_bridges_for_sizes.k": (min_bridges_for_sizes, lambda x: ((2, 2), x), 1),
    "min_bridges_for_sizes.budget": (min_bridges_for_sizes, lambda x: ((2, 2), 2, x), 1),
    "check_threshold_row.r": (check_threshold_row, lambda x: (x, 2, 2), 1),
    "check_threshold_row.n": (check_threshold_row, lambda x: (1, x, 2), 1),
    "check_threshold_row.k": (check_threshold_row, lambda x: (2, 2, x), 1),
    "check_threshold_row.budget": (check_threshold_row, lambda x: (2, 2, 2, x), 1),
    "min_bridges_randomized.r": (min_bridges_randomized, lambda x: (x, 2, 2), 1),
    "min_bridges_randomized.n": (min_bridges_randomized, lambda x: (2, x, 2), 1),
    "min_bridges_randomized.k": (min_bridges_randomized, lambda x: (2, 2, x), 1),
    "min_bridges_randomized.trials": (min_bridges_randomized, lambda x: (2, 2, 2, x), 1),
    "min_bridges_randomized.seed": (min_bridges_randomized, lambda x: (2, 2, 2, 1, x), 0),
}


@pytest.mark.parametrize("bad", ["below", "minus-one", "float", 1.5, "2", None, True], ids=repr)
@pytest.mark.parametrize("case", sorted(_CASES))
def test_entry_points_reject_bad_integers(case, bad):
    func, args, minimum = _CASES[case]
    func(*args(minimum))  # the minimum itself is accepted
    value = {"below": minimum - 1, "minus-one": -1, "float": float(minimum)}.get(bad, bad)
    with pytest.raises(InvalidParamsError):
        func(*args(value))


@pytest.mark.parametrize(
    "r, error",
    [
        pytest.param(8.0, InvalidParamsError, id="8.0"),
        pytest.param("8", InvalidParamsError, id="'8'"),
        pytest.param(None, InvalidParamsError, id="None"),
        pytest.param(True, InvalidParamsError, id="True"),
        pytest.param(7, UnsupportedCommunityCountError, id="7"),
        pytest.param(1, UnsupportedCommunityCountError, id="1"),
    ],
)
def test_figure1_quotient_checks_r_is_an_integer_before_it_is_eight(r, error):
    with pytest.raises(error):
        figure1_quotient(4, r)
