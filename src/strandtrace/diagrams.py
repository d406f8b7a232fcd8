"""The coloring sum and the weighted-diagram trace calculus on strand
diagrams (built in ``strands``).

A strand diagram is a bottom-to-top concatenation of crossings [i, j] on n
strands; coloring every crossing with an arbitrary bijection of its strands
yields a composite permutation, and summing p_{cycletype} over colorings
gives the diagram's symmetric function.  For staircase-like diagrams the
same function can be computed strand by strand with a partial trace that
replaces the last strand by either a power-sum factor or dots (deferred
cycle length) on a surviving strand of the top crossing.  One loop,
``_trace_step``, strips strands on a flat table {(dots per strand, power-sum
parts): coefficient} for one diagram, checking the staircase-like class
once, with each key packed into one int of digits (dots per strand, then
the number of parts of each size) until it unpacks the table at the end.
The full trace hands it one table for every strand, and the combo traces
one table per diagram for one strand (``trace_combo``) or for the strands
``iterate_trace_partial`` strips from partial_k, itself one PartialCombo
term expanded.  A combo gathers each key's terms and merges them with one
SymFun constructor, and every coloring sum read as a cycle-type census is
built by ``symfun._from_census``.

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
reflection, which keep the multiset of composite cycle types; the first
member of an orbit registers each distinct image once (bounded by
RECORD_GUARD), so each later member is one lookup.  The first members are
walked in order on one walk of coset layers, each keeping the layers of the
prefix it shares with the one before, and each last layer's cycle types are
read without building its permutations (``kernels.cycle_type_census``, the
one reader of every census).  The guard bounds the states that walk creates
by its one bound (``kernels.walk_bound``), which also gives each shared
prefix's cost, so the work a worker pool would build again is read off it.
Each orbit's ``is_h_positive`` verdict is handed to the caller as it was
built, pickled when it comes from a worker process; the process pool is
imported only when a sweep starts one.
"""

import os
import random
import warnings
from functools import lru_cache
from itertools import product
from math import factorial, isqrt
from types import MappingProxyType
from typing import NamedTuple

from strandtrace import kernels, orders, symfun
from strandtrace.errors import CertificateError, NonTraceableError, check_guard
# unused here, but perfbench/tracing.py patches cycle_type on diagrams by name
from strandtrace.oracle import cycle_type
from strandtrace.strands import Crossing, StrandDiagram, _staircase_like, format_diagram
from strandtrace.symfun import Partition, SymFun, _trusted_partition, h, is_h_positive, p, to_basis

COLORING_GUARD = 10**7
# crossings in all the records of one sweep: 8 x 3 writes 67,452 and 2 x 400
# 80,200, while 2 x 5000 would write 12,502,500
RECORD_GUARD = 10**7


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
    merges the terms on equal keys with one SymFun constructor per key,
    dropping zero keys."""

    __slots__ = ("_table",)

    @staticmethod
    def _key(key):
        return key

    def __init__(self, terms=()):
        grouped = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for key, coeff in items:
            if not isinstance(coeff, SymFun):
                coeff = coeff * SymFun.one(self.basis)
            elif coeff.basis != self.basis:
                coeff = to_basis(coeff, self.basis)
            grouped.setdefault(self._key(key), []).extend(coeff.coefficients().items())
        self._table = {}
        for key, items in grouped.items():
            coeff = SymFun(self.basis, items)
            if not coeff.is_zero():
                self._table[key] = coeff

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
        # every zero-strand weighted diagram is equal, so there is one key at most
        return next(iter(self._table.values()), SymFun.zero("p"))

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


def _guarded_crossings(diagram, expand=True):
    """The diagram's crossings (int pairs), once the census's own work
    bound (``kernels.census_work``, with or without the final expansion to
    single permutations) has been checked against COLORING_GUARD."""
    crossings = diagram.crossings
    check_guard(
        kernels.census_work(diagram.n, crossings, expand), COLORING_GUARD,
        "%(diagram)r: census work %(work)d exceeds the guard %(limit)d", diagram=diagram,
    )
    return crossings


def colored_permutations(diagram):
    """Multiset {permutation image tuple: multiplicity} of the composites of
    all colorings (bottom position -> top position, later crossings applied
    after earlier ones).  Guarded by the census's own work bound."""
    return kernels.colored_census(diagram.n, _guarded_crossings(diagram))


def diagram_csf(diagram, mode="distinct"):
    """Sum of p_{cycletype} over colorings, in the power-sum basis.

    mode="multiset" counts each composite with its coloring multiplicity,
    and mode="distinct" counts each composite permutation once.  Both are
    read from the last cosets of the one coset walk through their open paths
    (``kernels.cycle_type_census``), the distinct sum with every last coset
    counted once.  Neither builds a single permutation, so both are guarded
    by the walk's work bound without the expansion, with the joined-cycles
    table of the last window counted instead.
    """
    if mode not in ("distinct", "multiset"):
        raise ValueError("mode must be 'distinct' or 'multiset'")
    crossings = _guarded_crossings(diagram, expand=False)
    return symfun._from_census(
        kernels.cycle_type_census(diagram.n, crossings, mode == "distinct")
    )


# ---------------------------------------------------------------------------
# the trace
# ---------------------------------------------------------------------------


def _insert_part(parts, m):
    """The weakly decreasing tuple ``parts`` with one more part m."""
    k = len(parts)
    while k and parts[k - 1] < m:
        k -= 1
    return parts[:k] + (m,) + parts[k:]


def _trace_step(n, crossings, table, steps=1):
    """The rule of trace_weighted, stripped ``steps`` times from every term
    of one diagram on n strands.

    ``table`` maps (weights, parts), parts weakly decreasing, to a
    coefficient and stands for sum coeff * p_parts * (the diagram with those
    dots); p_{a+1} enters as the part a+1.  The staircase-like class is
    checked once, since each strip keeps it or raises (below).  Returns the
    stripped crossings and the new table.

    Between packing the table on entry and unpacking it on exit, each key
    is one int of ``width``-bit digits: strand s's dots (1-based) in digit
    s - 1, and the number of parts equal to m in digit n + m.  A term's
    mass, the sum of dots + 1 over its strands plus the sum of its parts,
    is what a strip moves: the a = dots + 1 of the last strand becomes a
    part a or a dots on another strand.  So every digit stays at most the
    largest mass of the input, and ``width`` is that mass's bit length.
    """
    if n < steps:
        raise ValueError("cannot trace a zero-strand diagram")
    if steps and not _staircase_like(crossings):
        raise NonTraceableError("diagram %r is not staircase-like" % StrandDiagram(n, crossings))
    mass = max((n + sum(weights) + sum(parts) for weights, parts in table), default=0)
    width = mass.bit_length()
    # part[a] adds one part a to a packed key
    part = [1 << (width * (n + a)) for a in range(mass + 1)]
    packed = {}
    for (weights, parts), coeff in table.items():
        key = 0
        for s, dots in enumerate(weights):
            if dots:
                key += dots << (width * s)
        for a in parts:
            key += part[a]
        packed[key] = coeff
    table = packed
    mask = (1 << width) - 1
    for strands in range(n, n - steps, -1):
        top = crossings[-1] if crossings else None
        engaged = ()
        if top is not None and top.j == strands:
            shrunk = crossings[:-1]
            if top.j - 1 > top.i:
                # the rest is still staircase-like: only the crossing below the
                # shrunk top can now end as high as it
                if shrunk and shrunk[-1].j >= top.j - 1:
                    raise NonTraceableError(
                        "stripping %r leaves the staircase-like class"
                        % StrandDiagram(strands, crossings)
                    )
                shrunk = shrunk + (Crossing(top.i, top.j - 1),)
            crossings = shrunk
            engaged = [width * s for s in range(top.i - 1, strands - 1)]
        last = width * (strands - 1)
        out = {}
        for key, coeff in table.items():
            dots = key >> last & mask
            key -= dots << last
            a = dots + 1
            stripped = key + part[a]
            out[stripped] = out.get(stripped, 0) + coeff
            for shift in engaged:
                dotted = key + (a << shift)
                out[dotted] = out.get(dotted, 0) + coeff
        table = out
    shifts = range(0, width * (n - steps), width)
    unpacked = {}
    for key, coeff in table.items():
        weights = tuple([key >> shift & mask for shift in shifts])
        unpacked[weights, kernels._descending_digits(key >> (width * n), width)] = coeff
    return crossings, unpacked


def trace_weighted(wd):
    """One partial trace: remove the last strand of a staircase-like weighted
    diagram.

    With a dots on strand n the result is p_{a+1} times the stripped diagram
    plus, when strand n is engaged by the top crossing [i, n], one term per
    surviving strand s in {i, ..., n-1} carrying a+1 extra dots.  Raises
    NonTraceableError when stripping would leave the staircase-like class.
    """
    crossings, table = _trace_step(wd.strand_count, wd.diagram.crossings, {(wd.weights, ()): 1})
    stripped = StrandDiagram._trusted(wd.strand_count - 1, crossings)
    return DiagramCombo(
        (WeightedDiagram(stripped, weights), SymFun("p", [(parts, c)]))
        for (weights, parts), c in table.items()
    )


def _trace_combo(combo, steps):
    """trace_combo for ``steps`` strips: the terms are grouped by diagram,
    each group is stripped on one flat table, and the results are regrouped
    once; a SymFun once every diagram is fully traced."""
    tables = {}
    for wd, coeff in combo._table.items():
        if wd.strand_count == 0:
            raise ValueError("combo already fully traced")
        table = tables.setdefault(wd.diagram, {})
        for lam, c in coeff.coefficients().items():
            table[(wd.weights, lam)] = c
    grouped = {}
    for diagram, table in tables.items():
        crossings, table = _trace_step(diagram.n, diagram.crossings, table, steps)
        stripped = StrandDiagram._trusted(diagram.n - steps, crossings)
        by_weights = {}
        for (weights, parts), c in table.items():
            by_weights.setdefault(weights, []).append((parts, c))
        for weights, items in by_weights.items():
            grouped.setdefault(WeightedDiagram(stripped, weights), []).extend(items)
    coeffs = {wd: SymFun("p", items) for wd, items in grouped.items()}
    result = DiagramCombo._trusted({wd: f for wd, f in coeffs.items() if not f.is_zero()})
    if result.is_scalar():
        return result.to_symfun()
    return result


def trace_combo(combo):
    """Linear extension of trace_weighted; collapses to a SymFun once every
    diagram is fully traced."""
    return _trace_combo(combo, 1)


def trace_to_symfun(diagram):
    """Full iterated trace of an (unweighted) staircase-like diagram, on one
    flat {(weights, parts): count} table.  Counts only grow and parts stay
    sorted, so the final table is built into a SymFun as it stands."""
    _, table = _trace_step(diagram.n, diagram.crossings, {((0,) * diagram.n, ()): 1}, diagram.n)
    # every strand is gone, so each key is ((), parts) with a distinct parts
    return symfun._trusted(
        "p", {_trusted_partition(parts): coeff for (_, parts), coeff in table.items()}
    )


def partial_k(diagram, k):
    """The combination h_k D + h_{k-1} D^1 + ... + h_0 D^k with dots on the
    right-most strand: PartialCombo's expansion of partial_k(D)."""
    if diagram.n < 1:
        raise ValueError("partial_k needs at least one strand")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return PartialCombo({(diagram, k): 1}).expand()


def iterate_trace_partial(diagram, k, steps):
    """Brute-force trace^steps of partial_k(diagram), stripped on one flat
    table; the reference against which the closed form is checked."""
    traced = _trace_combo(partial_k(diagram, k), max(0, min(steps, diagram.n)))
    if steps > diagram.n:
        raise ValueError("combo fully traced before the requested step count")
    return traced


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

    # both sums meet h_m for m = n - i = n - l - i in 0..n-2 only
    h_in_p = [to_basis(h(m), "p") for m in range(n - 1)]
    for j in range(k + 1):
        hk = to_basis(h(k - j), "p")
        products = [hk * hm for hm in h_in_p]
        for i in range(2, n + 1):
            add(i + j - 1, scale * (i - 1) * products[n - i])
        for i in range(1, n):
            for l in range(1, n - i + 1):
                add(i - 1, scale * (products[n - l - i] * p(l + j)))
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


def reduce_to_h(shape):
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
    if not orders.is_211_avoiding(shape):
        raise ValueError("shape %r is not 2+1+1-avoiding" % (shape,))
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


# Walk work (_plan_sweep's bound) that one sweep worker must have for the
# pool to pay for its start, probe and shutdown.  Alternating one- and
# two-worker pairs, each search_general run in a fresh process with two
# workers forced (2 cores, Python 3.11.7), medians of 6 in seconds:
#   work 374 (4x3) 0.005 / 0.052; 2,225 (4x4) 0.014 / 0.055;
#   3,483 (6x2) 0.010 / 0.050; 3,287 (5x3) 0.015 / 0.055;
#   11,189 (4x5) 0.085 / 0.150; 25,450 (7x2) 0.057 / 0.115;
#   38,443 (6x3) 0.083 / 0.125; 41,200 (5x4) 0.149 / 0.214;
#   246,452 (8x2) 0.441 / 0.495; 414,849 (5x5) 1.186 / 0.967;
#   455,433 (7x3) 1.020 / 0.665; 801,511 (6x4) 1.585 / 0.947.
# Serial wins up to 8x2 and two workers win from 5x5 on, so two workers
# start from 300,000.
_WORK_PER_WORKER = 150_000


def crossing_alphabet(strands):
    return [Crossing(i, j) for i in range(1, strands) for j in range(i + 1, strands + 1)]


def _crossing_at(strands, index):
    """crossing_alphabet(strands)[index]: from the end, rows [i, *] hold 1, 2, ..."""
    back = strands * (strands - 1) // 2 - 1 - index
    row = (1 + isqrt(8 * back + 1)) // 2
    return Crossing(strands - row, strands - back + row * (row - 1) // 2)


def _worker_count():
    """STRAND_TRACE_THREADS if set, else the number of CPUs this process may
    run on (its affinity mask, where the platform has one)."""
    env = os.environ.get("STRAND_TRACE_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError("STRAND_TRACE_THREADS must be an integer, not %r" % env) from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _walk_verdicts(strands, firsts):
    """Yield the is_h_positive verdict of each sequence of ``firsts``, in
    order, from its multiset coloring sum; a failure names the diagram it
    was evaluating.

    The sequences share one walk (``kernels.cycle_type_census`` on one
    stack), each keeping the layers of the prefix it shares with the one
    before.  Sequences with the same cycle-type census share one verdict:
    4,125 orbits of 6 x 4 have 397 distinct coloring sums.
    """
    walked = []  # the walk so far, handed back to cycle_type_census for each sequence
    verdicts = {}  # frozenset of a census's items: its verdict
    for crossings in firsts:
        try:
            census = kernels.cycle_type_census(strands, crossings, stack=walked)
            key = frozenset(census.items())
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = is_h_positive(symfun._from_census(census))
        except Exception as exc:
            exc.args = (
                "evaluating %s: %s" % (format_diagram(StrandDiagram(strands, crossings)), exc),
            )
            raise
        yield verdict


def _evaluate_run(payload):
    """The verdicts of a contiguous run of first members, as a list: one
    worker task.  They pickle as they stand (SymFun pickles through
    symfun._trusted), so a worker returns them to the parent unchanged."""
    strands, firsts = payload
    return list(_walk_verdicts(strands, firsts))


def ProcessPoolExecutor(max_workers):
    """concurrent.futures.ProcessPoolExecutor, imported on the first call:
    importing it loads multiprocessing, which only a sweep on workers uses."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _probe():
    return "ok"


def _start_pool(workers):
    """Bring up a worker pool and prove it can run a task; on failure shut
    down what was started, warn and return None, so that the caller runs
    serially."""
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
        pool.submit(_probe).result(timeout=60)
        return pool
    except Exception as exc:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        warnings.warn(
            "could not start %d worker processes (%s: %s); running serially"
            % (workers, type(exc).__name__, exc),
            RuntimeWarning,
        )
        return None


def _orbit_indices(strands, sequences):
    """Yield (crossings, orbit index) for each sequence, the orbits numbered
    in the order their first members come.

    A first member registers every distinct image of its orbit: the rotations
    of itself, of its reversal, of its reflection (each crossing [i,j] mirrored
    to the pair (n+1-j, n+1-i), which hashes and compares as that Crossing) and
    of that one's reversal.  Each of the four is skipped if an earlier one's
    rotations already hold it, and its rotations stop at its period, where they
    come back to it.  So a first member of k crossings registers at most 4k
    images, each once, and a periodic one far fewer (a run of one crossing, a
    single image); each later member costs one lookup.  The image that would
    take the crossings registered past RECORD_GUARD is refused: in exhaustive
    mode every image is a record (_check_record_guard), but a random draw's
    images mostly are not.
    """
    top = strands + 1
    orbit_of = {}
    orbits = registered = 0
    for crossings in sequences:
        index = orbit_of.get(crossings)
        if index is None:
            index = orbits
            orbits += 1
            mirrored = tuple([(top - j, top - i) for i, j in crossings])
            for seq in (crossings, crossings[::-1], mirrored, mirrored[::-1]):
                if seq in orbit_of:
                    continue
                for r in range(len(seq)):
                    image = seq[r:] + seq[:r]
                    if r and image == seq:
                        break
                    registered += len(image)
                    check_guard(
                        registered, RECORD_GUARD,
                        "search with %(strands)d strands, first %(orbits)d orbits: registered "
                        "orbit images of at least %(work)d crossings exceed the guard %(limit)d",
                        strands=strands, orbits=orbits,
                    )
                    orbit_of[image] = index
        yield crossings, index


def _run_size(firsts, workers):
    """First members per pool run: about four runs per worker, so that
    every worker gets some."""
    return max(1, min(64, len(firsts) // (4 * workers)))


def _pool_work(rebuilt, tables, workers):
    """The work a pool of ``workers`` adds to _plan_sweep's bound of the
    serial walk: the first member of every run but the first rebuilds the
    layers of the prefix it shares with the member before it (its entry of
    ``rebuilt``), and every worker past the first may build its own
    joined-cycles tables (``tables``)."""
    size = _run_size(rebuilt, workers)
    return (workers - 1) * tables + sum(rebuilt[size::size])


def _orbit_verdicts(strands, firsts, work, rebuilt, tables):
    """Yield the is_h_positive verdict of each sequence of ``firsts``, in
    order, as _walk_verdicts built it.  ``work`` bounds the states that
    walk creates (_plan_sweep): each worker needs _WORK_PER_WORKER of it,
    and the workers are cut until ``work`` plus what the pool adds
    (_pool_work, from the plan's ``rebuilt`` and ``tables``) stays under
    COLORING_GUARD.  With fewer than two workers the whole list is walked
    in this process as one run.  A pool gets contiguous runs, so that
    neighbours still share their prefixes; leaving early cancels the runs
    no worker has started."""
    workers = min(_worker_count(), work // _WORK_PER_WORKER)
    while workers > 1 and work + _pool_work(rebuilt, tables, workers) > COLORING_GUARD:
        workers -= 1
    pool = _start_pool(workers) if workers > 1 and len(firsts) > 1 else None
    if pool is None:
        yield from _walk_verdicts(strands, firsts)
        return
    size = _run_size(firsts, workers)
    runs = [(strands, firsts[k:k + size]) for k in range(0, len(firsts), size)]
    try:
        for verdicts in pool.map(_evaluate_run, runs):
            yield from verdicts
    finally:
        pool.shutdown(cancel_futures=True)


def generate_search_diagrams(strands, max_crossings, mode="exhaustive", seed=0, count=100):
    """Crossing sequences for the positivity sweep, in deterministic order.

    Exhaustive mode runs over all sequences of 1..max_crossings crossings
    from the lexicographically sorted alphabet, shorter sequences first;
    the alphabet is built for two or more crossings only, so a sweep that
    its guard refuses at [1,11] (charged 11!) never builds it.
    Random mode draws `count` sequences from random.Random(seed) (Mersenne
    Twister): a uniform length in 1..max_crossings, then one uniform
    alphabet index per crossing, read as its crossing without building the
    alphabet (_crossing_at).
    """
    if mode == "exhaustive":
        if max_crossings >= 1:
            for i in range(1, strands):
                for j in range(i + 1, strands + 1):
                    yield (Crossing(i, j),)
        alphabet = crossing_alphabet(strands)
        for length in range(2, max_crossings + 1):
            for combo in product(alphabet, repeat=length):
                yield tuple(combo)
    elif mode == "random":
        size = strands * (strands - 1) // 2
        if not size:
            return
        rng = random.Random(seed)
        for _ in range(count):
            length = rng.randrange(1, max_crossings + 1)
            yield tuple(_crossing_at(strands, rng.randrange(size)) for _ in range(length))
    else:
        raise ValueError("mode must be 'exhaustive' or 'random'")


def _check_record_guard(strands, max_crossings, mode, count):
    """Raise before anything is generated when the sweep's records would
    hold more than RECORD_GUARD crossings in all: count * max_crossings in
    random mode, else the sum over k of k * |A|**k for the alphabet A.
    That sum stops at the first length that takes it past the guard, so
    the number reported is a lower bound."""
    if mode == "random":
        total = count * max_crossings
    else:
        size = strands * (strands - 1) // 2
        total = 0
        for k in range(1, max_crossings + 1):
            total += k * size**k
            if total > RECORD_GUARD:
                break
    check_guard(
        total, RECORD_GUARD,
        "search with %(strands)d strands and up to %(max_crossings)d crossings: records of at "
        "least %(work)d crossings exceed the guard %(limit)d",
        strands=strands, max_crossings=max_crossings,
    )


def _plan_sweep(strands, max_crossings, mode, seed, count):
    """The sweep before any evaluation: (generated, firsts, work, rebuilt,
    tables).

    ``generated`` holds (crossings, index of its orbit in firsts) for every
    generated sequence, and ``firsts`` the orbits' first members in order.
    ``work`` bounds the states _walk_verdicts creates for them: the sum of
    ``kernels.walk_bound`` over the first members on one walk, checked
    against COLORING_GUARD as each is met.  ``tables`` sums its |W|! terms,
    and ``rebuilt`` holds each first member's shared prefix cost: what a
    worker starting a run on it builds again (_pool_work).
    """
    generated = []
    firsts = []
    rebuilt = []
    work = tables = 0
    bounded = []  # the bound so far, handed back to walk_bound for each first member
    sequences = generate_search_diagrams(strands, max_crossings, mode, seed, count)
    for crossings, index in _orbit_indices(strands, sequences):
        if index == len(firsts):
            steps, cosets, table, shared = kernels.walk_bound(strands, crossings, bounded)
            work += steps + cosets + table
            tables += table
            rebuilt.append(shared)
            firsts.append(crossings)
            check_guard(
                work, COLORING_GUARD,
                "search with %(strands)d strands and up to %(max_crossings)d crossings, first "
                "%(orbits)d orbits: census work %(work)d exceeds the guard %(limit)d",
                strands=strands, max_crossings=max_crossings, orbits=len(firsts),
            )
        generated.append((crossings, index))
    return generated, firsts, work, rebuilt, tables


def search_general(strands, max_crossings, mode="exhaustive", seed=0, count=100):
    """Stream (diagram, h-expansion, verdict, witness) for generated diagrams.

    Rotating a crossing sequence conjugates every composite, reversing it
    inverts them (each crossing's bijections are closed under inverses),
    and the reflection i -> n+1-i conjugates them by the longest
    permutation; all three keep the multiset of cycle types.  So each orbit
    they generate is evaluated once, on its first generated member, and
    every diagram gets its orbit's is_h_positive verdict (its h expansion,
    sign and witness) as that was built, in generation order; a worker
    hands it back pickled, with no other encoding.  Before anything is
    generated, the crossings the records would hold are checked against
    RECORD_GUARD (_check_record_guard).  Before any evaluation, the states
    the walk of those first members creates are bounded (_plan_sweep) and
    checked against COLORING_GUARD; no expansion to single permutations is
    counted, since none is done.  The same bound sizes the worker pool:
    min(cap, work // _WORK_PER_WORKER) processes, where the cap is
    STRAND_TRACE_THREADS, else the CPUs the process may run on; below two
    workers the sweep runs in this process and starts none.  A worker
    walks contiguous runs of first members, so the first of each run
    rebuilds its shared prefix, and each worker builds its own joined-cycles
    tables; fewer workers are started if that extra work (read off the
    plan) would take the bound past COLORING_GUARD.  Results are independent
    of the worker count.
    """
    if strands < 2:
        raise ValueError("need at least two strands")
    if max_crossings < 1:
        raise ValueError("need at least one crossing")
    _check_record_guard(strands, max_crossings, mode, count)
    generated, firsts, work, rebuilt, tables = _plan_sweep(
        strands, max_crossings, mode, seed, count
    )
    verdicts = _orbit_verdicts(strands, firsts, work, rebuilt, tables)
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
