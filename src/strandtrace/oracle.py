"""Independent brute-force reference computations.

Everything the diagram calculus produces is cross-checked against direct
enumeration: the restricted-permutation sum for the symmetric function of a
shape, and plain proper-coloring counts for its incomparability graph.

The kernels already return canonical results (cycle types as descending
tuples, a census with one positive count per cycle type), so ``cycle_type``
and ``ch_gamma`` wrap them with the trusted constructors of ``symfun``
(``_trusted_partition``, and ``_from_census``, which the coloring sums
share) instead of sorting and merging them again.  ``kernels.cycle_type``
proves that its input is a permutation in the same walk that types it.
"""

from strandtrace import kernels
from strandtrace.errors import GuardExceededError
from strandtrace.symfun import _from_census, _trusted_partition

FACTORIAL_GUARD = 10  # ch_gamma enumerates S_n
COLORING_COUNT_GUARD = 10**8  # proper_coloring_count explores <= m^n leaves


def cycle_type(images):
    """Cycle type of a permutation given as a tuple of 1-based images;
    ValueError if it is not one (``kernels.cycle_type`` checks as it walks)."""
    return _trusted_partition(kernels.cycle_type(images))


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
    return _from_census(kernels.restricted_census(n, position_bounds(shape)))


def proper_coloring_count(graph, m):
    """Number of proper colorings of the graph with colors {1..m}."""
    if m < 1:
        raise ValueError("m must be positive")
    if m**graph.n > COLORING_COUNT_GUARD:
        raise GuardExceededError(
            "m^n = %d exceeds the coloring guard %d" % (m**graph.n, COLORING_COUNT_GUARD)
        )
    return kernels.count_colorings(graph.n, graph.edge_list(), m)
