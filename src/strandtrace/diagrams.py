"""Strand diagrams and the weighted-diagram trace calculus.

A strand diagram is a bottom-to-top concatenation of crossings [i, j] on n
strands; coloring every crossing with an arbitrary bijection of its strands
yields a composite permutation, and summing p_{cycletype} over colorings
gives the diagram's symmetric function.  For staircase-like diagrams the
same function can be computed strand by strand with a partial trace that
replaces the last strand by either a power-sum factor or dots (deferred
cycle length) on a surviving strand of the top crossing.

The h-positivity pipeline never expands traces fully: it rewrites
``partial_k(D)`` combinations (h_k D + h_{k-1} D^1 + ... + h_0 D^k, dots on
the right-most strand) one crossing at a time through a closed form whose
net coefficients are nonnegative, which certifies h-positivity of the final
symmetric function.
"""

import os
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import product
from math import factorial
from typing import NamedTuple

from strandtrace import kernels, symfun
from strandtrace.errors import CertificateError, GuardExceededError, NonTraceableError
from strandtrace.oracle import cycle_type
from strandtrace.symfun import SymFun, h, is_h_positive, p, to_basis

COLORING_GUARD = 10**7


class Crossing(NamedTuple):
    i: int
    j: int

    @property
    def size(self):
        return self.j - self.i + 1


class StrandDiagram:
    """Ordered (bottom to top) crossings on n strands; immutable."""

    __slots__ = ("n", "crossings")

    def __init__(self, n, crossings=()):
        if n < 0:
            raise ValueError("strand count must be nonnegative")
        normalized = []
        for c in crossings:
            c = Crossing(int(c[0]), int(c[1]))
            if not (1 <= c.i < c.j <= n):
                raise ValueError("crossing %r does not fit on %d strands" % (tuple(c), n))
            normalized.append(c)
        self.n = n
        self.crossings = tuple(normalized)

    def is_staircase_like(self):
        """Left and right endpoints both strictly increasing bottom to top."""
        cs = self.crossings
        return all(
            cs[k].i < cs[k + 1].i and cs[k].j < cs[k + 1].j
            for k in range(len(cs) - 1)
        )

    def top(self):
        """The last (right-most) crossing, or None."""
        return self.crossings[-1] if self.crossings else None

    def sort_key(self):
        return (self.n, self.crossings)

    def to_json_dict(self):
        return {"n": self.n, "crossings": [list(c) for c in self.crossings]}

    def __eq__(self, other):
        return (
            isinstance(other, StrandDiagram)
            and self.n == other.n
            and self.crossings == other.crossings
        )

    def __hash__(self):
        return hash((self.n, self.crossings))

    def __repr__(self):
        return "StrandDiagram(%d, %s)" % (self.n, [tuple(c) for c in self.crossings])


def format_diagram(diagram):
    """Text form "n=4; [2,3] [1,2]" (crossings bottom to top)."""
    body = " ".join("[%d,%d]" % (c.i, c.j) for c in diagram.crossings)
    return "n=%d;%s" % (diagram.n, " " + body if body else "")


def parse_diagram(text):
    """Inverse of format_diagram."""
    head, _, tail = text.partition(";")
    head = head.strip()
    if not head.startswith("n="):
        raise ValueError("diagram text must start with 'n=': %r" % text)
    n = int(head[2:])
    crossings = []
    for token in tail.replace(",", " ").replace("[", " ").replace("]", " ").split():
        crossings.append(int(token))
    if len(crossings) % 2:
        raise ValueError("odd number of crossing endpoints in %r" % text)
    pairs = list(zip(crossings[0::2], crossings[1::2]))
    return StrandDiagram(n, pairs)


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

    def with_extra_dots(self, strand, extra):
        w = list(self.weights)
        w[strand - 1] += extra
        return WeightedDiagram(self.diagram, w)

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


class DiagramCombo:
    """Formal sum of weighted diagrams with symmetric-function coefficients.

    Coefficients are normalized to the power-sum basis.  The zero-strand
    empty diagram acts as the scalar 1, so a fully traced combo is a pure
    symmetric function.
    """

    __slots__ = ("_table",)

    def __init__(self, terms=()):
        table = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for wd, coeff in items:
            if isinstance(coeff, (int, Fraction)):
                coeff = coeff * SymFun.one("p")
            coeff = to_basis(coeff, "p")
            if coeff.is_zero():
                continue
            if wd in table:
                merged = table[wd] + coeff
                if merged.is_zero():
                    del table[wd]
                else:
                    table[wd] = merged
            else:
                table[wd] = coeff
        self._table = table

    def terms(self):
        return sorted(self._table.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, wd):
        return self._table.get(wd, SymFun.zero("p"))

    def __len__(self):
        return len(self._table)

    def __eq__(self, other):
        return isinstance(other, DiagramCombo) and self._table == other._table

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

    def __repr__(self):
        return "DiagramCombo(%d terms)" % len(self._table)


class PartialCombo:
    """Formal sum of partial-operator terms coeff * partial_b(diagram).

    Keys are (diagram, b); coefficients are normalized to the h basis so
    positivity of every intermediate step can be read off directly.
    """

    __slots__ = ("_table",)

    def __init__(self, terms=()):
        table = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for (diagram, b), coeff in items:
            if isinstance(coeff, (int, Fraction)):
                coeff = coeff * SymFun.one("h")
            coeff = to_basis(coeff, "h")
            if coeff.is_zero():
                continue
            key = (diagram, int(b))
            if key in table:
                merged = table[key] + coeff
                if merged.is_zero():
                    del table[key]
                else:
                    table[key] = merged
            else:
                table[key] = coeff
        self._table = table

    def terms(self):
        return sorted(self._table.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1]))

    def coefficient(self, diagram, b):
        return self._table.get((diagram, b), SymFun.zero("h"))

    def __len__(self):
        return len(self._table)

    def __eq__(self, other):
        return isinstance(other, PartialCombo) and self._table == other._table

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
        out = {}
        for (diagram, b), coeff in self._table.items():
            if diagram.n == 0 and b > 0:
                raise ValueError("partial_%d of a zero-strand diagram" % b)
            for j in range(b + 1):
                w = [0] * diagram.n
                if j:
                    w[diagram.n - 1] = j
                wd = WeightedDiagram(diagram, w)
                extra = to_basis(coeff * h(b - j), "p")
                out[wd] = out.get(wd, SymFun.zero("p")) + extra
        return DiagramCombo(out)

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

    def __repr__(self):
        return "PartialCombo(%d terms)" % len(self._table)


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


def coloring_budget(diagram):
    """Total number of colorings: product of crossing-size factorials."""
    budget = 1
    for c in diagram.crossings:
        budget *= factorial(c.size)
    return budget


def _check_coloring_guard(diagram):
    budget = coloring_budget(diagram)
    if budget > COLORING_GUARD:
        raise GuardExceededError(
            "%d colorings exceed the guard %d" % (budget, COLORING_GUARD)
        )


def colored_permutations(diagram):
    """Multiset {permutation image tuple: multiplicity} of the composites of
    all colorings (bottom position -> top position, later crossings applied
    after earlier ones)."""
    _check_coloring_guard(diagram)
    return kernels.colored_census(diagram.n, [tuple(c) for c in diagram.crossings])


def diagram_csf(diagram, mode="distinct"):
    """Sum of p_{cycletype} over colorings, in the power-sum basis.

    mode="distinct" counts each composite permutation once; mode="multiset"
    counts it with its coloring multiplicity.
    """
    if mode not in ("distinct", "multiset"):
        raise ValueError("mode must be 'distinct' or 'multiset'")
    census = colored_permutations(diagram)
    table = {}
    for images, count in census.items():
        lam = cycle_type(images)
        weight = count if mode == "multiset" else 1
        table[lam] = table.get(lam, 0) + weight
    return SymFun("p", {lam: Fraction(c) for lam, c in table.items()})


# ---------------------------------------------------------------------------
# the trace
# ---------------------------------------------------------------------------


def trace_weighted(wd):
    """One partial trace: remove the last strand of a staircase-like weighted
    diagram.

    With a dots on strand n the result is p_{a+1} times the stripped diagram
    plus, when strand n is engaged by the top crossing [i, n], one term per
    surviving strand s in {i, ..., n-1} carrying a+1 extra dots.  Raises
    NonTraceableError when stripping would leave the staircase-like class.
    """
    diagram = wd.diagram
    n = diagram.n
    if n < 1:
        raise ValueError("cannot trace a zero-strand diagram")
    if not diagram.is_staircase_like():
        raise NonTraceableError("diagram %r is not staircase-like" % diagram)
    a = wd.weights[n - 1]
    rest = wd.weights[:-1]
    top = diagram.top()
    factor = p(a + 1)
    if top is None or top.j < n:
        stripped = StrandDiagram(n - 1, diagram.crossings)
        return DiagramCombo({WeightedDiagram(stripped, rest): factor})
    shrunk = diagram.crossings[:-1]
    if top.j - 1 > top.i:
        shrunk = shrunk + (Crossing(top.i, top.j - 1),)
    stripped = StrandDiagram(n - 1, shrunk)
    if not stripped.is_staircase_like():
        raise NonTraceableError(
            "stripping %r leaves the staircase-like class" % diagram
        )
    terms = [(WeightedDiagram(stripped, rest), factor)]
    one = SymFun.one("p")
    for s in range(top.i, n):
        terms.append((WeightedDiagram(stripped, rest).with_extra_dots(s, a + 1), one))
    return DiagramCombo(terms)


def trace_combo(combo):
    """Linear extension of trace_weighted; collapses to a SymFun once every
    diagram is fully traced."""
    out = {}
    for wd, coeff in combo.terms():
        if wd.strand_count == 0:
            raise ValueError("combo already fully traced")
        for wd2, c2 in trace_weighted(wd).terms():
            out[wd2] = out.get(wd2, SymFun.zero("p")) + coeff * c2
    result = DiagramCombo(out)
    if result.is_scalar():
        return result.to_symfun()
    return result


def trace_to_symfun(diagram):
    """Full iterated trace of an (unweighted) staircase-like diagram."""
    state = DiagramCombo({WeightedDiagram(diagram): SymFun.one("p")})
    for _ in range(diagram.n):
        state = trace_combo(state)
    if not isinstance(state, SymFun):
        state = state.to_symfun()
    return state


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


def _closed_form_table(n, k):
    """trace^{n-1}(partial_k [1,n]) as {b: h-basis coefficient of partial_b}.

    Accumulates, for i = 2..n, the contribution (i-1) h_{n-i} at index
    k+i-1 and (k+i-n) h_{k+i-1} at index n-i, scaled by (n-2)!.  The
    negative contributions cancel exactly; each surviving slot is a
    nonnegative multiple of a single h; CertificateError otherwise.
    """
    acc = {}

    def add(b, coeff):
        acc[b] = acc.get(b, SymFun.zero("h")) + coeff

    for i in range(2, n + 1):
        add(k + i - 1, (i - 1) * h(n - i))
        add(n - i, (k + i - n) * h(k + i - 1))
    scale = factorial(n - 2)
    table = {}
    for b, coeff in acc.items():
        coeff = scale * coeff
        if coeff.is_zero():
            continue
        terms = coeff.coefficients()
        if len(terms) != 1 or any(c < 0 for c in terms.values()):
            raise CertificateError(
                "net closed-form coefficient is not a nonnegative h multiple: "
                "n=%d k=%d b=%d -> %r" % (n, k, b, coeff)
            )
        table[b] = coeff
    return table


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
            {(SINGLE_STRAND, b): coeff for b, coeff in _closed_form_table(n, k).items()}
        )
    scale = factorial(n - 2)
    out = {}

    def add(dots, coeff):
        wd = WeightedDiagram(SINGLE_STRAND, (dots,))
        out[wd] = out.get(wd, SymFun.zero("p")) + to_basis(coeff, "p")

    for j in range(k + 1):
        hk = to_basis(h(k - j), "p")
        for i in range(2, n + 1):
            add(i + j - 1, scale * (i - 1) * (hk * to_basis(h(n - i), "p")))
        for i in range(1, n):
            for l in range(1, n - i + 1):
                add(i - 1, scale * (hk * to_basis(h(n - l - i), "p") * p(l + j)))
    return DiagramCombo(out)


# ---------------------------------------------------------------------------
# the h-positivity reduction
# ---------------------------------------------------------------------------


class ReductionResult(NamedTuple):
    value: SymFun
    steps: list


def reduce_to_h(shape, require_211=True):
    """Reduce the diagram of P(lambda) to an h-basis symmetric function by
    removing one crossing at a time through the closed form.

    The state is always sum_b coeff_b * partial_b(D) for a single remaining
    diagram D with dots on its right-most strand.  Removing the top crossing
    [i, j] of size m substitutes the closed form with the single strand
    identified with strand i; when the right-most strand is engaged by no
    remaining crossing, partial_b collapses to the factor (b+1) h_{b+1}.
    Every intermediate combination is h-nonnegative by construction, so the
    result certifies h-positivity.  Returns the value and the step log.
    """
    from strandtrace.orders import diagram_from_lambda, is_211_avoiding

    if require_211 and not is_211_avoiding(shape):
        raise ValueError(
            "shape %r is not 2+1+1-avoiding (pass require_211=False to try anyway)"
            % (shape,)
        )
    start = diagram_from_lambda(shape)
    crossings = list(start.crossings)
    strands = start.n
    table = {0: SymFun.one("h")}

    def snapshot():
        diagram = StrandDiagram(strands, crossings)
        return PartialCombo({(diagram, b): coeff for b, coeff in table.items()})

    steps = [snapshot()]
    while strands > 0:
        top = crossings[-1] if crossings else None
        if top is None or top.j < strands:
            # the right-most strand is free: partial_b traces to (b+1) h_{b+1}
            collapsed = SymFun.zero("h")
            for b, coeff in table.items():
                collapsed = collapsed + coeff * ((b + 1) * h(b + 1))
            table = {0: collapsed}
            strands -= 1
            steps.append(snapshot())
            continue
        if len(crossings) >= 2 and crossings[-2].j > top.i:
            raise NonTraceableError(
                "crossings %r and %r share more than one strand"
                % (tuple(crossings[-2]), tuple(top))
            )
        new_table = {}
        for b, coeff in table.items():
            for b2, c2 in _closed_form_table(top.size, b).items():
                prev = new_table.get(b2, SymFun.zero("h"))
                new_table[b2] = prev + coeff * c2
        table = {b: c for b, c in new_table.items() if not c.is_zero()}
        crossings.pop()
        strands = top.i
        steps.append(snapshot())
    return ReductionResult(table[0], steps)


# ---------------------------------------------------------------------------
# generalized-diagram search
# ---------------------------------------------------------------------------


class SearchRecord(NamedTuple):
    diagram: StrandDiagram
    values: SymFun  # h basis
    positive: bool
    witness: tuple | None


def crossing_alphabet(strands):
    return [Crossing(i, j) for i in range(1, strands) for j in range(i + 1, strands + 1)]


def _worker_count(threads):
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("STRAND_TRACE_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _evaluate_crossings(payload):
    strands, crossings = payload
    diagram = StrandDiagram(strands, crossings)
    verdict = is_h_positive(diagram_csf(diagram, "multiset"))
    witness = None
    if not verdict.positive:
        witness = (list(verdict.witness[0]), str(verdict.witness[1]))
    return crossings, symfun.to_json_dict(verdict.coefficients), verdict.positive, witness


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


def _record_from_result(strands, result):
    crossings, coeff_json, positive, witness = result
    return SearchRecord(
        StrandDiagram(strands, crossings),
        symfun.from_json_dict(coeff_json),
        positive,
        tuple(witness) if witness is not None else None,
    )


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

    The per-diagram work guard is checked upfront against the worst sequence
    (the full-width crossing repeated).  Results are independent of the
    worker count: diagrams are evaluated in generation order.
    """
    if strands < 2:
        raise ValueError("need at least two strands")
    if max_crossings < 1:
        raise ValueError("need at least one crossing")
    worst = factorial(strands) ** max_crossings
    if worst > COLORING_GUARD:
        raise GuardExceededError(
            "worst-case colorings %d exceed the guard %d" % (worst, COLORING_GUARD)
        )
    payloads = [
        (strands, crossings)
        for crossings in generate_search_diagrams(strands, max_crossings, mode, seed, count)
    ]
    workers = _worker_count(threads)
    pool = _start_pool(workers) if workers > 1 and len(payloads) > 1 else None
    if pool is not None:
        with pool:
            for result in pool.map(_evaluate_crossings, payloads, chunksize=64):
                yield _record_from_result(strands, result)
    else:
        for payload in payloads:
            yield _record_from_result(strands, _evaluate_crossings(payload))
