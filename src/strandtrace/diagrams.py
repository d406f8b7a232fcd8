"""The coloring sum and the weighted-diagram trace calculus on strand
diagrams (built in ``strands``).

A strand diagram is a bottom-to-top concatenation of crossings [i, j] on n
strands; coloring every crossing with an arbitrary bijection of its strands
yields a composite permutation, and summing p_{cycletype} over colorings
gives the diagram's symmetric function.  For staircase-like diagrams the
same function can be computed strand by strand with a partial trace that
replaces the last strand by either a power-sum factor or dots (deferred
cycle length) on a surviving strand of the top crossing.  Every term of a
trace shares one diagram, so the trace rule works on a flat table
{(dots per strand, power-sum parts): coefficient} for that diagram; the full
trace stays on that table until it builds one SymFun at the end, and the
weighted-diagram and combo traces group their terms by diagram, step each
group once and regroup the result by dots.

The h-positivity pipeline never expands traces fully: it rewrites
``partial_k(D)`` combinations (h_k D + h_{k-1} D^1 + ... + h_0 D^k, dots on
the right-most strand) one crossing at a time through a closed form whose
net coefficients are nonnegative, which certifies h-positivity of the final
symmetric function.  Every state shares one diagram, so the reduction runs
on one flat table {b: {h-partition: int}}; each closed-form entry is a
pair (q, mult) of ints standing for mult * h_q, applied by inserting q into
the already sorted partitions, and each logged step is built once from the
merged table.  The reduction starts from ``orders.diagram_from_lambda``.

The positivity sweep applies the coloring sum to generalized diagrams.  It
evaluates one crossing sequence per orbit of rotation, reversal and
reflection, which keep the multiset of composite cycle types, through the
cycle-type census (``kernels.cycle_type_census``), which reads each
last-crossing coset's cycle types without building its permutations.  Its
guard bounds the work of the coset census (``kernels.census_work``) summed
over those orbits.  Each orbit's ``is_h_positive`` verdict is handed to the
caller as it was built, pickled when it comes from a worker process; the
process pool is imported only when a sweep starts one.
"""

import os
import random
import warnings
from functools import lru_cache
from itertools import product
from math import factorial
from types import MappingProxyType
from typing import NamedTuple

from strandtrace import kernels, orders, symfun
from strandtrace.errors import CertificateError, GuardExceededError, NonTraceableError
from strandtrace.oracle import cycle_type
from strandtrace.strands import Crossing, StrandDiagram, _staircase_like, format_diagram
from strandtrace.symfun import Partition, SymFun, _trusted_partition, h, is_h_positive, p, to_basis

COLORING_GUARD = 10**7


class WeightedDiagram:
    """Strand diagram with per-strand dot counts.

    Dots record deferred cycle length.  They may sit on strands engaged by
    the right-most crossing or on free strands to its right (tracing a
    disjoint top crossing legitimately leaves dots on a strand no remaining
    crossing engages); with no crossings any strand may carry dots.
    """

    __slots__ = ("diagram", "weights")

    def __init__(self, diagram, weights=None):
        if weights is None:
            weights = (0,) * diagram.n
        weights = tuple(int(w) for w in weights)
        if len(weights) != diagram.n:
            raise ValueError("need one weight per strand")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        top = diagram.top()
        if top is not None:
            for s in range(1, top.i):
                if weights[s - 1]:
                    raise ValueError(
                        "dots on strand %d left of the top crossing %r" % (s, tuple(top))
                    )
        self.diagram = diagram
        self.weights = weights

    @property
    def strand_count(self):
        return self.diagram.n

    def sort_key(self):
        return (self.diagram.sort_key(), self.weights)

    def to_json_dict(self):
        d = self.diagram.to_json_dict()
        d["weights"] = list(self.weights)
        return d

    def __eq__(self, other):
        return (
            isinstance(other, WeightedDiagram)
            and self.diagram == other.diagram
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.diagram, self.weights))

    def __repr__(self):
        return "WeightedDiagram(%r, weights=%s)" % (self.diagram, list(self.weights))


class _Combo:
    """Formal sum of keys with symmetric-function coefficients, all in the
    subclass's ``basis``.  The constructor takes a mapping or an iterable of
    (key, coeff) pairs, with a number standing for that multiple of 1, and
    merges terms on equal keys, dropping zeros."""

    __slots__ = ("_table",)

    @staticmethod
    def _key(key):
        return key

    def __init__(self, terms=()):
        # one flat {key: {partition: coeff}} accumulator, merged the way
        # SymFun.__init__ merges, so each coefficient is built once at the end
        acc = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for key, coeff in items:
            if not isinstance(coeff, SymFun):
                coeff = coeff * SymFun.one(self.basis)
            if coeff.basis != self.basis:
                coeff = to_basis(coeff, self.basis)
            if coeff.is_zero():
                continue
            key = self._key(key)
            merged = acc.setdefault(key, {})
            for lam, c in coeff.coefficients().items():
                new = merged.get(lam, 0) + c
                if new:
                    merged[lam] = new
                else:
                    del merged[lam]
            if not merged:
                del acc[key]
        self._table = {key: symfun._trusted(self.basis, merged) for key, merged in acc.items()}

    @classmethod
    def _trusted(cls, table):
        """The combo on ``table`` as it stands: normalized keys, nonzero
        coefficients in ``cls.basis``, nothing mutated later.  Nothing is
        checked, converted or merged."""
        combo = object.__new__(cls)
        combo._table = table
        return combo

    def __len__(self):
        return len(self._table)

    def __eq__(self, other):
        return type(other) is type(self) and self._table == other._table

    def __repr__(self):
        return "%s(%d terms)" % (type(self).__name__, len(self._table))


class DiagramCombo(_Combo):
    """Formal sum of weighted diagrams with symmetric-function coefficients.

    Coefficients are normalized to the power-sum basis.  The zero-strand
    empty diagram acts as the scalar 1, so a fully traced combo is a pure
    symmetric function.
    """

    __slots__ = ()
    basis = "p"

    def terms(self):
        return sorted(self._table.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, wd):
        return self._table.get(wd, SymFun.zero("p"))

    def is_scalar(self):
        return all(wd.strand_count == 0 for wd in self._table)

    def to_symfun(self):
        if not self.is_scalar():
            raise ValueError("combo still contains diagrams with strands")
        acc = SymFun.zero("p")
        for coeff in self._table.values():
            acc = acc + coeff
        return acc

    def to_json_dict(self):
        return {
            "terms": [
                {"diagram": wd.to_json_dict(), "coeff": symfun.to_json_dict(c)}
                for wd, c in self.terms()
            ]
        }


class PartialCombo(_Combo):
    """Formal sum of partial-operator terms coeff * partial_b(diagram).

    Keys are (diagram, b); coefficients are normalized to the h basis so
    positivity of every intermediate step can be read off directly.
    """

    __slots__ = ()
    basis = "h"

    @staticmethod
    def _key(key):
        diagram, b = key
        return (diagram, int(b))

    def terms(self):
        return sorted(self._table.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1]))

    def coefficient(self, diagram, b):
        return self._table.get((diagram, b), SymFun.zero("h"))

    def is_h_nonnegative(self):
        return all(
            c >= 0 for f in self._table.values() for c in f.coefficients().values()
        )

    def degree_constant(self):
        """deg(coeff) + b + strand count, which every term must share."""
        values = {
            coeff.homogeneous_degree() + b + diagram.n
            for (diagram, b), coeff in self._table.items()
        }
        if len(values) > 1:
            raise ValueError("inconsistent degree bookkeeping: %s" % sorted(values))
        return values.pop() if values else None

    def expand(self):
        """Rewrite each partial_b(D) as sum_j h_{b-j} * (D with j dots on the
        right-most strand), yielding a DiagramCombo."""
        terms = []
        for (diagram, b), coeff in self._table.items():
            if diagram.n == 0 and b > 0:
                raise ValueError("partial_%d of a zero-strand diagram" % b)
            for j in range(b + 1):
                w = [0] * diagram.n
                if j:
                    w[diagram.n - 1] = j
                terms.append((WeightedDiagram(diagram, w), coeff * h(b - j)))
        return DiagramCombo(terms)

    def to_json_dict(self):
        return {
            "terms": [
                {
                    "diagram": diagram.to_json_dict(),
                    "b": b,
                    "coeff": symfun.to_json_dict(c),
                }
                for (diagram, b), c in self.terms()
            ]
        }


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


def _check_coloring_guard(work, what, *args):
    """Raise when a census work bound exceeds COLORING_GUARD; ``what % args``
    names the guarded computation."""
    if work > COLORING_GUARD:
        raise GuardExceededError(
            "%s: census work %d exceeds the guard %d" % (what % args, work, COLORING_GUARD)
        )


def _guarded_crossings(diagram):
    """The diagram's crossings as int pairs, once the census's own work
    bound has been checked against COLORING_GUARD."""
    crossings = [tuple(c) for c in diagram.crossings]
    _check_coloring_guard(kernels.census_work(diagram.n, crossings), "%r", diagram)
    return crossings


def colored_permutations(diagram):
    """Multiset {permutation image tuple: multiplicity} of the composites of
    all colorings (bottom position -> top position, later crossings applied
    after earlier ones).  Guarded by the census's own work bound."""
    return kernels.colored_census(diagram.n, _guarded_crossings(diagram))


def diagram_csf(diagram, mode="distinct"):
    """Sum of p_{cycletype} over colorings, in the power-sum basis.

    mode="distinct" counts each composite permutation once, cycle-typing
    every composite of the census; mode="multiset" counts it with its
    coloring multiplicity, read from the cycle-type census
    (``kernels.cycle_type_census``), which builds no single permutation.
    Both are guarded by the coset census's work bound.  Every count is
    positive, so the cycle types are counted into one table that becomes
    the SymFun as it stands.
    """
    if mode not in ("distinct", "multiset"):
        raise ValueError("mode must be 'distinct' or 'multiset'")
    if mode == "multiset":
        census = kernels.cycle_type_census(diagram.n, _guarded_crossings(diagram))
        return symfun._trusted(
            "p", {_trusted_partition(lam): count for lam, count in census.items()}
        )
    table = {}
    for images in colored_permutations(diagram):
        lam = cycle_type(images)
        table[lam] = table.get(lam, 0) + 1
    return symfun._trusted("p", table)


# ---------------------------------------------------------------------------
# the trace
# ---------------------------------------------------------------------------


def _insert_part(parts, m):
    """The weakly decreasing tuple ``parts`` with one more part m."""
    k = len(parts)
    while k and parts[k - 1] < m:
        k -= 1
    return parts[:k] + (m,) + parts[k:]


def _trace_step(n, crossings, table):
    """The rule of trace_weighted, applied to every term of one diagram.

    ``table`` maps (weights, parts), parts weakly decreasing, to a
    coefficient and stands for sum coeff * p_parts * (the diagram with those
    dots); p_{a+1} enters as the part a+1.  Returns the stripped crossings
    and the new table.
    """
    if n < 1:
        raise ValueError("cannot trace a zero-strand diagram")
    if not _staircase_like(crossings):
        raise NonTraceableError(
            "diagram %r is not staircase-like" % StrandDiagram(n, crossings)
        )
    top = crossings[-1] if crossings else None
    engaged = ()
    if top is not None and top.j == n:
        shrunk = crossings[:-1]
        if top.j - 1 > top.i:
            # the rest is still staircase-like: only the crossing below the
            # shrunk top can now end as high as it
            if shrunk and shrunk[-1].j >= top.j - 1:
                raise NonTraceableError(
                    "stripping %r leaves the staircase-like class" % StrandDiagram(n, crossings)
                )
            shrunk = shrunk + (Crossing(top.i, top.j - 1),)
        crossings = shrunk
        engaged = range(top.i - 1, n - 1)
    out = {}
    for (weights, parts), coeff in table.items():
        a = weights[-1] + 1
        rest = weights[:-1]
        key = (rest, _insert_part(parts, a))
        out[key] = out.get(key, 0) + coeff
        for s in engaged:
            dotted = list(rest)
            dotted[s] += a
            key = (tuple(dotted), parts)
            out[key] = out.get(key, 0) + coeff
    return crossings, out


def _traced_terms(diagram, table):
    """Trace one diagram's table and regroup it as (weighted diagram, SymFun)
    terms."""
    crossings, table = _trace_step(diagram.n, diagram.crossings, table)
    stripped = StrandDiagram(diagram.n - 1, crossings)
    by_weights = {}
    for (weights, parts), coeff in table.items():
        by_weights.setdefault(weights, []).append((parts, coeff))
    return [
        (WeightedDiagram(stripped, weights), SymFun("p", terms))
        for weights, terms in by_weights.items()
    ]


def trace_weighted(wd):
    """One partial trace: remove the last strand of a staircase-like weighted
    diagram.

    With a dots on strand n the result is p_{a+1} times the stripped diagram
    plus, when strand n is engaged by the top crossing [i, n], one term per
    surviving strand s in {i, ..., n-1} carrying a+1 extra dots.  Raises
    NonTraceableError when stripping would leave the staircase-like class.
    """
    return DiagramCombo(_traced_terms(wd.diagram, {(wd.weights, ()): 1}))


def trace_combo(combo):
    """Linear extension of trace_weighted; collapses to a SymFun once every
    diagram is fully traced."""
    tables = {}
    for wd, coeff in combo.terms():
        if wd.strand_count == 0:
            raise ValueError("combo already fully traced")
        table = tables.setdefault(wd.diagram, {})
        for lam, c in coeff.coefficients().items():
            table[(wd.weights, lam)] = c
    terms = []
    for diagram, table in tables.items():
        terms.extend(_traced_terms(diagram, table))
    result = DiagramCombo(terms)
    if result.is_scalar():
        return result.to_symfun()
    return result


def trace_to_symfun(diagram):
    """Full iterated trace of an (unweighted) staircase-like diagram, on one
    flat {(weights, parts): count} table.  Counts only grow and parts stay
    sorted, so the final table is built into a SymFun as it stands."""
    crossings = diagram.crossings
    table = {((0,) * diagram.n, ()): 1}
    for n in range(diagram.n, 0, -1):
        crossings, table = _trace_step(n, crossings, table)
    # every strand is gone, so each key is ((), parts) with a distinct parts
    return symfun._trusted(
        "p", {_trusted_partition(parts): coeff for (_, parts), coeff in table.items()}
    )


def partial_k(diagram, k):
    """The combination h_k D + h_{k-1} D^1 + ... + h_0 D^k with dots on the
    right-most strand."""
    if diagram.n < 1:
        raise ValueError("partial_k needs at least one strand")
    if k < 0:
        raise ValueError("k must be nonnegative")
    terms = []
    for j in range(k + 1):
        w = [0] * diagram.n
        w[diagram.n - 1] = j
        terms.append((WeightedDiagram(diagram, w), h(k - j)))
    return DiagramCombo(terms)


def iterate_trace_partial(diagram, k, steps):
    """Brute-force trace^steps of partial_k(diagram); the reference against
    which the closed form is checked."""
    state = partial_k(diagram, k)
    for _ in range(steps):
        if isinstance(state, SymFun):
            raise ValueError("combo fully traced before the requested step count")
        state = trace_combo(state)
    return state


# ---------------------------------------------------------------------------
# closed form for a single crossing
# ---------------------------------------------------------------------------

SINGLE_STRAND = StrandDiagram(1)


@lru_cache(maxsize=None)
def _closed_form_table(n, k):
    """trace^{n-1}(partial_k [1,n]) as {b: (q, mult)}: the coefficient of
    partial_b is mult * h_q.

    Accumulates, for i = 2..n, the contribution (i-1) h_{n-i} at index
    k+i-1 and (k+i-n) h_{k+i-1} at index n-i, scaled by (n-2)!, as
    {b: {q: int}}.  The negative contributions cancel exactly; each
    surviving slot is a nonnegative multiple of a single h; CertificateError
    otherwise.  Memoized, so every caller shares one read-only table.
    """
    acc = {}
    for i in range(2, n + 1):
        for b, q, c in ((k + i - 1, n - i, i - 1), (n - i, k + i - 1, k + i - n)):
            slot = acc.setdefault(b, {})
            slot[q] = slot.get(q, 0) + c
    scale = factorial(n - 2)
    table = {}
    for b, slot in acc.items():
        terms = {q: scale * c for q, c in slot.items() if c}
        if not terms:
            continue
        if len(terms) != 1 or any(c < 0 for c in terms.values()):
            raise CertificateError(
                "net closed-form coefficient is not a nonnegative h multiple: "
                "n=%d k=%d b=%d -> {q: multiple of h_q} %r" % (n, k, b, terms)
            )
        (table[b],) = terms.items()
    return MappingProxyType(table)


def closed_form_single_crossing(n, k, raw=False):
    """Closed form of trace^{n-1}(partial_k) for a single crossing of size n.

    Returns a PartialCombo over the single strand.  With raw=True returns
    instead the unsimplified double/triple-sum expression (power-sum factors
    included) as a DiagramCombo over weighted single strands, for
    cross-validation against the simplified form.
    """
    if n < 2:
        raise ValueError("the closed form needs a crossing of size >= 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not raw:
        return PartialCombo(
            {(SINGLE_STRAND, b): mult * h(q) for b, (q, mult) in _closed_form_table(n, k).items()}
        )
    scale = factorial(n - 2)
    terms = []

    def add(dots, coeff):
        terms.append((WeightedDiagram(SINGLE_STRAND, (dots,)), coeff))

    for j in range(k + 1):
        hk = to_basis(h(k - j), "p")
        for i in range(2, n + 1):
            add(i + j - 1, scale * (i - 1) * (hk * to_basis(h(n - i), "p")))
        for i in range(1, n):
            for l in range(1, n - i + 1):
                add(i - 1, scale * (hk * to_basis(h(n - l - i), "p") * p(l + j)))
    return DiagramCombo(terms)


# ---------------------------------------------------------------------------
# the h-positivity reduction
# ---------------------------------------------------------------------------


class ReductionResult(NamedTuple):
    value: SymFun
    steps: list


def _add_h_multiple(out, terms, m, mult):
    """Add mult * h_m * terms into out, both h-basis {Partition: int} tables;
    h_0 = 1.  Every partition is already sorted, so h_m is inserted in place."""
    for parts, c in terms.items():
        if m:
            parts = _trusted_partition(_insert_part(parts, m))
        out[parts] = out.get(parts, 0) + c * mult


def reduce_to_h(shape, require_211=True):
    """Reduce the diagram of P(lambda) to an h-basis symmetric function by
    removing one crossing at a time through the closed form.

    The state is always sum_b coeff_b * partial_b(D) for a single remaining
    diagram D with dots on its right-most strand, held as one flat table
    {b: {h-partition: int}}.  Removing the top crossing [i, j] of size m
    substitutes the closed form with the single strand identified with
    strand i: each entry of _closed_form_table(m, b) is one mult * h_q, so
    q is inserted into every partition of coeff_b, scaled by mult.  When the
    right-most strand is engaged by no remaining crossing, partial_b
    collapses to the factor (b+1) h_{b+1}.  Every closed-form entry is a
    positive multiple, so every intermediate combination is h-nonnegative
    and no coefficient ever cancels to zero; the result certifies
    h-positivity.  Each step is logged as a PartialCombo built once from the
    merged table.  Returns the value and the step log.
    """
    if require_211 and not orders.is_211_avoiding(shape):
        raise ValueError(
            "shape %r is not 2+1+1-avoiding (pass require_211=False to try anyway)"
            % (shape,)
        )
    start = orders.diagram_from_lambda(shape)
    crossings = start.crossings
    strands = start.n
    table = {0: {Partition(): 1}}
    steps = []
    while True:
        diagram = StrandDiagram._trusted(strands, crossings)
        step = {(diagram, b): symfun._trusted("h", terms) for b, terms in table.items()}
        steps.append(PartialCombo._trusted(step))
        if strands == 0:
            return ReductionResult(step[diagram, 0], steps)
        top = crossings[-1] if crossings else None
        new_table = {}
        if top is None or top.j < strands:
            # the right-most strand is free: partial_b traces to (b+1) h_{b+1}
            collapsed = new_table[0] = {}
            for b, terms in table.items():
                _add_h_multiple(collapsed, terms, b + 1, b + 1)
            strands -= 1
        else:
            if len(crossings) >= 2 and crossings[-2].j > top.i:
                raise NonTraceableError(
                    "crossings %r and %r share more than one strand"
                    % (tuple(crossings[-2]), tuple(top))
                )
            for b, terms in table.items():
                for b2, (q, mult) in _closed_form_table(top.size, b).items():
                    _add_h_multiple(new_table.setdefault(b2, {}), terms, q, mult)
            # right ends rise bottom to top, so every remaining crossing
            # fits on the top.i strands that are left
            crossings = crossings[:-1]
            strands = top.i
        table = new_table


# ---------------------------------------------------------------------------
# generalized-diagram search
# ---------------------------------------------------------------------------


class SearchRecord(NamedTuple):
    diagram: StrandDiagram
    values: SymFun  # h basis
    positive: bool
    witness: tuple | None  # is_h_positive's (Partition, coeff)


# Summed census work (kernels.census_work) that one sweep worker must have
# for the pool to pay for its start, probe and shutdown.  The bound counts
# an expansion to single permutations that the cycle-type census skips, so
# it overstates a sweep's cost.  Alternating threads=1 / threads=2 pairs,
# each search_general run in a fresh process with two workers forced
# (2 cores, Python 3.11.7), medians in seconds:
#   work 914 (4x3) 0.007 / 0.064; 5,058 (4x4) 0.034 / 0.094;
#   9,785 (5x3) 0.031 / 0.085; 12,935 (6x2) 0.014 / 0.068;
#   25,186 (4x5) 0.194 / 0.284; 107,045 (5x4) 0.328 / 0.375;
#   113,788 (7x2) 0.058 / 0.115; 122,032 (6x3) 0.154 / 0.222;
#   1,041,451 (5x5) 2.78 / 2.42; 1,156,230 (8x2) 0.52 / 0.65;
#   1,588,875 (7x3) 1.13 / 0.78; 2,297,543 (6x4) 2.49 / 1.68.
# Two workers win from 10^6 on, except 8x2 (230 orbits, 0.13 s slower).
_WORK_PER_WORKER = 500_000


def crossing_alphabet(strands):
    return [Crossing(i, j) for i in range(1, strands) for j in range(i + 1, strands + 1)]


def _worker_count(threads):
    """``threads`` if given, else STRAND_TRACE_THREADS, else the number of
    CPUs this process may run on (its affinity mask, where the platform has
    one)."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("STRAND_TRACE_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError("STRAND_TRACE_THREADS must be an integer, not %r" % env) from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _evaluate_crossings(payload):
    """The is_h_positive verdict of one crossing sequence's multiset coloring
    sum.  It pickles as it stands (SymFun pickles through symfun._trusted),
    so a worker returns it to the parent unchanged."""
    strands, crossings = payload
    return is_h_positive(diagram_csf(StrandDiagram._trusted(strands, crossings), "multiset"))


def ProcessPoolExecutor(max_workers):
    """concurrent.futures.ProcessPoolExecutor, imported on the first call:
    importing it loads multiprocessing, which only a sweep on workers uses."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _probe():
    return "ok"


def _start_pool(workers):
    """Bring up a worker pool and prove it can run a task; on failure warn
    and return None, so that the caller runs serially."""
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
        pool.submit(_probe).result(timeout=60)
        return pool
    except Exception as exc:
        warnings.warn(
            "could not start %d worker processes (%s: %s); running serially"
            % (workers, type(exc).__name__, exc),
            RuntimeWarning,
        )
        return None


def _orbit_key(strands, crossings):
    """The least sequence among the rotations and reversals of a crossing
    sequence and of its reflection i -> strands+1-i, as plain (i, j) pairs.
    Only the rotations that start with the least pair can be the least."""
    crossings = tuple(map(tuple, crossings))
    top = strands + 1
    mirrored = tuple([(top - j, top - i) for i, j in crossings])
    least = min(min(crossings), min(mirrored))
    return min(
        seq[r:] + seq[:r]
        for seq in (crossings, crossings[::-1], mirrored, mirrored[::-1])
        for r, c in enumerate(seq)
        if c == least
    )


def _orbit_verdicts(strands, firsts, threads, work):
    """Yield the is_h_positive verdict of each sequence of ``firsts``, in
    order, as _evaluate_crossings built it; a failure names the diagram it
    was evaluating.  ``work`` is the summed census work of ``firsts``: each
    worker needs _WORK_PER_WORKER of it, and with fewer than two workers the
    sequences are evaluated in this process.  Leaving early cancels the
    chunks no worker has started."""
    payloads = [(strands, crossings) for crossings in firsts]
    workers = min(_worker_count(threads), work // _WORK_PER_WORKER)
    pool = _start_pool(workers) if workers > 1 and len(payloads) > 1 else None
    if pool is None:
        results = map(_evaluate_crossings, payloads)
    else:
        # about four chunks per worker, so that every worker gets some
        chunk = max(1, min(64, len(payloads) // (4 * workers)))
        results = pool.map(_evaluate_crossings, payloads, chunksize=chunk)
    try:
        for crossings in firsts:
            try:
                verdict = next(results)
            except Exception as exc:
                exc.args = (
                    "evaluating %s: %s" % (format_diagram(StrandDiagram(strands, crossings)), exc),
                )
                raise
            yield verdict
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def generate_search_diagrams(strands, max_crossings, mode="exhaustive", seed=0, count=100):
    """Crossing sequences for the positivity sweep, in deterministic order.

    Exhaustive mode runs over all sequences of 1..max_crossings crossings
    from the lexicographically sorted alphabet, shorter sequences first.
    Random mode draws `count` sequences from random.Random(seed) (Mersenne
    Twister): a uniform length in 1..max_crossings, then one uniform
    alphabet index per crossing.
    """
    alphabet = crossing_alphabet(strands)
    if not alphabet:
        return
    if mode == "exhaustive":
        for length in range(1, max_crossings + 1):
            for combo in product(alphabet, repeat=length):
                yield tuple(combo)
    elif mode == "random":
        rng = random.Random(seed)
        for _ in range(count):
            length = rng.randrange(1, max_crossings + 1)
            yield tuple(alphabet[rng.randrange(len(alphabet))] for _ in range(length))
    else:
        raise ValueError("mode must be 'exhaustive' or 'random'")


def search_general(strands, max_crossings, mode="exhaustive", seed=0, count=100,
                   threads=None):
    """Stream (diagram, h-expansion, verdict, witness) for generated diagrams.

    Rotating a crossing sequence conjugates every composite, reversing it
    inverts them (each crossing's bijections are closed under inverses),
    and the reflection i -> n+1-i conjugates them by the longest
    permutation; all three keep the multiset of cycle types.  So each orbit
    they generate is evaluated once, on its first generated member, and
    every diagram gets its orbit's is_h_positive verdict (its h expansion,
    sign and witness) as that was built, in generation order; a worker
    hands it back pickled, with no other encoding.  Before any
    evaluation, the census work bounds (kernels.census_work) of those first
    members are summed and checked against COLORING_GUARD.  The same sum
    sizes the worker pool: min(cap, work // _WORK_PER_WORKER) processes,
    where the cap is ``threads``, else STRAND_TRACE_THREADS, else the CPUs
    the process may run on; below two workers the sweep runs in this
    process and starts none.  Results are independent of the worker count.
    """
    if strands < 2:
        raise ValueError("need at least two strands")
    if max_crossings < 1:
        raise ValueError("need at least one crossing")
    generated = []  # (crossings, index of its orbit in firsts)
    first_of = {}
    firsts = []
    work = 0
    for crossings in generate_search_diagrams(strands, max_crossings, mode, seed, count):
        key = _orbit_key(strands, crossings)
        index = first_of.get(key)
        if index is None:
            index = first_of[key] = len(firsts)
            firsts.append(crossings)
            work += kernels.census_work(strands, crossings)
            _check_coloring_guard(
                work,
                "search with %d strands and up to %d crossings, first %d orbits",
                strands, max_crossings, len(firsts),
            )
        generated.append((crossings, index))
    verdicts = _orbit_verdicts(strands, firsts, threads, work)
    done = []
    try:
        for crossings, index in generated:
            if index == len(done):
                done.append(next(verdicts))
            verdict = done[index]
            yield SearchRecord(StrandDiagram._trusted(strands, crossings), verdict.coefficients,
                               verdict.positive, verdict.witness)
    finally:
        verdicts.close()
