"""Typed errors raised by the library, and its one rule for integer inputs.

Every precondition failure maps to one of these, so callers (and the CLI)
can distinguish usage problems from genuine bugs.
"""

import operator

import numpy as np


def check_count(value, name: str) -> int:
    """A count, bound, index or seed as a plain int, before any range check:
    TypeError naming ``name`` unless it is an integer (``operator.index``)
    other than a bool."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


class RspMetricError(Exception):
    """Base class for all library errors."""


class DisconnectedGraphError(RspMetricError):
    """The operation requires a connected graph (or finite metric)."""


class SizeCapExceededError(RspMetricError):
    """Instance is larger than the exact algorithm's hard size ceiling."""


class NotEnoughEdgesError(RspMetricError):
    """Asked for more edges than the graph has."""


class OddVertexCountError(RspMetricError):
    """Perfect matchings need an even number of vertices."""


class InfiniteDistanceError(DisconnectedGraphError):
    """The metric has infinite entries, so its source graph was disconnected.

    Raised by ``Metric.finite_dist``, the one gate through which the
    heuristics, the exact baselines and the clustering read the table.  A
    subclass of :class:`DisconnectedGraphError`, so handlers of either catch it.
    """


class TooFewVerticesError(RspMetricError):
    """The operation needs more vertices than the instance has."""


class EmptyCenterSetError(RspMetricError):
    """k-median cost is undefined for an empty center set."""


class NTooSmallError(RspMetricError):
    """The bound is only stated for sufficiently many vertices."""


class ParameterOutOfRangeError(RspMetricError):
    """A formula parameter is outside the range where the bound holds."""


class ConfigInvalidError(RspMetricError):
    """Experiment configuration failed validation."""


class EmptySelectionError(RspMetricError):
    """A summary was requested over an empty selection of values."""
