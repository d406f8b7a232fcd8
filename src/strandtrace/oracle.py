"""Independent brute-force reference computations.

Everything the diagram calculus produces is cross-checked against direct
enumeration: the restricted-permutation sum for the symmetric function of a
shape, and plain proper-coloring counts for its incomparability graph.
"""

from strandtrace import kernels
from strandtrace.errors import GuardExceededError
from strandtrace.symfun import Partition, SymFun

FACTORIAL_GUARD = 10  # ch_gamma enumerates S_n
COLORING_COUNT_GUARD = 10**8  # proper_coloring_count explores <= m^n leaves


def cycle_type(images):
    """Cycle type of a permutation given as a tuple of 1-based images."""
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("%r is not a permutation of 1..%d" % (images, n))
    return Partition(kernels.cycle_type(images))


def position_bounds(shape):
    """Per-position strict lower bounds: sigma(k) must exceed
    lambda_{n+1-k} (zero-padded)."""
    n = shape.n
    return [shape.part(n + 1 - k) for k in range(1, n + 1)]


def ch_gamma(shape):
    """Sum of p_{cycletype(sigma)} over all sigma in S_n with
    sigma(k) > lambda_{n+1-k} for every k, each sigma counted once."""
    n = shape.n
    if n > FACTORIAL_GUARD:
        raise GuardExceededError(
            "n=%d exceeds the S_n enumeration guard %d" % (n, FACTORIAL_GUARD)
        )
    return SymFun("p", kernels.restricted_census(n, position_bounds(shape)))


def proper_coloring_count(graph, m):
    """Number of proper colorings of the graph with colors {1..m}."""
    if m < 1:
        raise ValueError("m must be positive")
    if m**graph.n > COLORING_COUNT_GUARD:
        raise GuardExceededError(
            "m^n = %d exceeds the coloring guard %d" % (m**graph.n, COLORING_COUNT_GUARD)
        )
    return kernels.count_colorings(graph.n, graph.edge_list(), m)
