"""Tools for measuring and constructing k-integrated community networks.

A network of complete communities is k-integrated when every pair of
nodes is within distance k.  This package measures that property on
real edge lists, tabulates the minimum bridge and central-node counts
required for each k, generates minimal constructions, and certifies
minimality on small instances by exhaustive search.

Names load on first use (PEP 562): ``import kintegration`` imports no
submodule, and ``import kintegration.metrics`` loads only ``errors``,
``graph`` and ``metrics``.  Qualified names such as
``kintegration.oracle.fits_row`` still work after ``import kintegration``.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "constructions": ("Construction", "QuotientGraph", "complete_join", "complete_quotient", "cycle_quotient",
                      "extended_star", "figure1_quotient", "path_quotient", "star_quotient", "two_star"),
    "errors": ("DisconnectedQuotientError", "EmptyCommunityMapError", "InvalidParamsError", "KIntegrationError",
               "ModelViolationError", "ParseError", "SelfLoopError", "UnknownNodeError", "UnsupportedCommunityCountError"),
    "fileio": ("load_graph", "parse_community_map", "parse_edge_list", "write_graph"),
    "graph": ("CommunityGraph", "bridges", "build_graph", "central_nodes", "is_locally_complete", "local_edges",
              "localize_complete"),
    "metrics": ("IntegrationReport", "KVerdict", "build_report", "integration_level", "is_k_integrated"),
    "oracle": ("OracleVerdict", "RowCheck", "check_threshold_row", "min_bridges_for_sizes", "min_bridges_randomized"),
    "thresholds": ("Bound", "ThresholdRow", "bridge_threshold", "central_threshold", "pair_bridge_minimum",
                   "segregation_verdict", "threshold_row", "threshold_rows"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_OWNER), "__version__"]


def __getattr__(name):
    # no caching in globals(): each access reads the submodule's current binding
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
