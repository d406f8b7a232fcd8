"""strandtrace: exact h-positivity calculus for chromatic symmetric
functions of natural unit interval orders, computed through strand-diagram
traces and cross-checked against brute-force oracles."""

__version__ = "0.1.0"

from strandtrace.diagrams import (
    DiagramCombo,
    NonTraceableError,
    PartialCombo,
    WeightedDiagram,
    closed_form_single_crossing,
    colored_permutations,
    diagram_csf,
    iterate_trace_partial,
    partial_k,
    reduce_to_h,
    search_general,
    trace_combo,
    trace_to_symfun,
    trace_weighted,
)
from strandtrace.errors import CertificateError, GuardExceededError
from strandtrace.orders import (
    IncompGraph,
    StaircaseShape,
    UIOrder,
    avoids_pattern,
    corners_of_shape,
    diagram_from_lambda,
    enumerate_shapes,
    incomparability_graph,
    is_211_avoiding,
    poset_from_lambda,
)
from strandtrace.oracle import ch_gamma, cycle_type, proper_coloring_count
from strandtrace.strands import Crossing, StrandDiagram, format_diagram, parse_diagram
from strandtrace.symfun import (
    Partition,
    SymFun,
    double_sum_identity_check,
    e,
    h,
    is_h_positive,
    omega,
    p,
    partitions_of,
    specialize_ones,
    to_basis,
    z_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
