"""Exception types shared across the package."""

from __future__ import annotations


class KIntegrationError(Exception):
    """Base class for every error raised by this package."""


class SelfLoopError(KIntegrationError):
    def __init__(self, node: object):
        super().__init__(f"self-loop at node {node!r}")
        self.node = node


class UnknownNodeError(KIntegrationError):
    def __init__(self, node: object):
        super().__init__(f"edge references node {node!r} which is missing from the community map")
        self.node = node


class EmptyCommunityMapError(KIntegrationError):
    def __init__(self) -> None:
        super().__init__("community map is empty; every node needs a community")


class InvalidParamsError(KIntegrationError):
    pass


def require_int(name: str, value: object, minimum: int, maximum: int | None = None) -> None:
    """Raise InvalidParamsError unless ``value`` is an integer, not a bool, in [minimum, maximum]."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParamsError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise InvalidParamsError(f"{name} must be <= {maximum}, got {value}")


class ModelViolationError(KIntegrationError):
    """The equal-size islands model (all communities size n, n >= r) does not hold."""


class DisconnectedQuotientError(KIntegrationError):
    pass


class UnsupportedCommunityCountError(KIntegrationError):
    pass


class ParseError(KIntegrationError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
