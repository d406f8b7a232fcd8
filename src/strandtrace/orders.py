"""Natural unit interval orders from partitions inside the staircase.

A partition lambda contained in stair(n) = (n-1, n-2, ..., 1) determines a
poset P(lambda) on [n] by ``a < b iff a <= lambda_{n+1-b}``; drawing lambda
in the south-west corner of an n x n square, the pattern class of P(lambda)
can be read off the corners of the shape, and the shape also determines the
strand diagram whose colorings compute the associated symmetric function.

Shapes and diagrams that this module generates are valid by construction:
``enumerate_shapes`` builds weakly decreasing parts inside the staircase and
``diagram_from_lambda`` only crossings 1 <= i < j <= n, so both are built
with the trusted constructors (``StaircaseShape._trusted``,
``StrandDiagram._trusted``, ``tuple.__new__`` for ``Partition`` and
``Crossing``) and checked against the validating ones, and against a
brute-force list of shapes and a step-by-step reading of the diagram rule,
by the test suite.  ``enumerate_shapes`` builds each list of suffixes once
per call and puts the shapes in canonical order with two C-level sorts;
``diagram_from_lambda`` reads the crossings off the descent rows in one
pass.
"""

from itertools import combinations, repeat
from math import comb

from strandtrace.errors import check_guard
from strandtrace.strands import Crossing, StrandDiagram
from strandtrace.symfun import Partition

PATTERN_GUARD = 12
SHAPE_GUARD = 12
# avoids_pattern tries every support of the pattern's size: C(40, 4) = 91,390
# supports of a four-element pattern take 0.6-0.9 s in Python 3.11
SUPPORT_GUARD = 100_000

# builds a tuple subclass (Partition, Crossing) on parts already in order
_new = tuple.__new__


class StaircaseShape:
    """A partition contained in stair(n), with the ambient square size n."""

    __slots__ = ("n", "lam")

    def __init__(self, n, lam=()):
        lam = lam if type(lam) is Partition else Partition(lam)
        if n < 1:
            raise ValueError("n must be positive")
        if lam.length > n - 1:
            raise ValueError("partition %r has more than n-1 parts" % (tuple(lam),))
        for i, part in enumerate(lam, start=1):
            if part > n - i:
                raise ValueError(
                    "partition %r is not contained in stair(%d)" % (tuple(lam), n)
                )
        self.n = n
        self.lam = lam

    @classmethod
    def _trusted(cls, n, lam):
        """The shape on a Partition that already fits inside stair(n);
        nothing is checked or sorted."""
        shape = object.__new__(cls)
        shape.n = n
        shape.lam = lam
        return shape

    def part(self, i):
        """lambda_i with zero padding for i beyond the last part."""
        return self.lam[i - 1] if 1 <= i <= self.lam.length else 0

    def __eq__(self, other):
        return (
            isinstance(other, StaircaseShape)
            and self.n == other.n
            and self.lam == other.lam
        )

    def __hash__(self):
        return hash((self.n, self.lam))

    def __repr__(self):
        return "StaircaseShape(n=%d, lam=%s)" % (self.n, tuple(self.lam))


def parse_parts(text):
    """Parse a comma-separated parts string; the empty string is the empty
    partition."""
    text = text.strip()
    if not text:
        return Partition()
    return Partition(int(piece) for piece in text.split(","))


class UIOrder:
    """The natural unit interval order P(lambda) on [n], as an explicit
    strict order relation (``below[b]`` is the set of elements under b)."""

    __slots__ = ("n", "below")

    def __init__(self, n, below):
        self.n = n
        self.below = tuple(below)
        self._check()

    def _check(self):
        if len(self.below) != self.n + 1:
            raise ValueError("below must have one entry per element (1-based)")
        for b in range(1, self.n + 1):
            down = self.below[b]
            if any(a >= b for a in down):
                raise ValueError("labeling is not natural at %d" % b)
            # order-ideal structure: below(b) is an initial segment of [n]
            if down and down != frozenset(range(1, max(down) + 1)):
                raise ValueError("below(%d) is not an initial segment" % b)
        for b in range(1, self.n + 1):
            for a in self.below[b]:
                if not self.below[a] <= self.below[b]:
                    raise ValueError("relation is not transitive at %d < %d" % (a, b))

    def comparable(self, a, b):
        return a in self.below[b] or b in self.below[a]

    def incomparable(self, a, b):
        return a != b and not self.comparable(a, b)

    def __repr__(self):
        rels = [
            "%d<%d" % (a, b)
            for b in range(1, self.n + 1)
            for a in sorted(self.below[b])
        ]
        return "UIOrder(n=%d, {%s})" % (self.n, ", ".join(rels))


class IncompGraph:
    """Incomparability graph: vertices [n], edges between incomparable pairs."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        self.n = n
        normalized = set()
        for a, b in edges:
            if a == b or not (1 <= a <= n and 1 <= b <= n):
                raise ValueError("bad edge (%r, %r)" % (a, b))
            normalized.add((a, b) if a < b else (b, a))
        self.edges = frozenset(normalized)

    def edge_list(self):
        return sorted(self.edges)

    def to_json_dict(self):
        return {"n": self.n, "edges": [list(edge) for edge in self.edge_list()]}

    def __eq__(self, other):
        return (
            isinstance(other, IncompGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self):
        return "IncompGraph(n=%d, edges=%s)" % (self.n, self.edge_list())


def poset_from_lambda(shape):
    """P(lambda): a < b iff a <= lambda_{n+1-b} (parts padded with zeros)."""
    n = shape.n
    below = [frozenset()]
    for b in range(1, n + 1):
        below.append(frozenset(range(1, shape.part(n + 1 - b) + 1)))
    return UIOrder(n, below)


def incomparability_graph(order):
    """Complement of the comparability relation of the order."""
    edges = [
        (a, b)
        for a, b in combinations(range(1, order.n + 1), 2)
        if order.incomparable(a, b)
    ]
    return IncompGraph(order.n, edges)


def avoids_pattern(order, pattern):
    """True iff the order has no induced copy of the disjoint chains with the
    given lengths (exhaustive search over element subsets).

    Raises GuardExceededError before the search when the pattern has more
    than PATTERN_GUARD elements or the order has more than SUPPORT_GUARD
    subsets of the pattern's size.
    """
    pattern = sorted((int(a) for a in pattern), reverse=True)
    if any(a < 1 for a in pattern):
        raise ValueError("chain lengths must be positive")
    total = sum(pattern)
    check_guard(
        total, PATTERN_GUARD, "pattern size %(work)d exceeds the brute-force guard %(limit)d"
    )
    check_guard(
        comb(order.n, total), SUPPORT_GUARD,
        "C(%(n)d, %(k)d) = %(work)d supports of the pattern exceed the brute-force guard %(limit)d",
        n=order.n, k=total,
    )
    elements = range(1, order.n + 1)
    for support in combinations(elements, total):
        if _embeds_chains(order, list(support), pattern, ()):
            return False
    return True


def _embeds_chains(order, remaining, lengths, placed):
    """Can `remaining` be split into chains of the given lengths, mutually
    incomparable to each other and to the already `placed` elements?"""
    if not lengths:
        return True
    length, rest = lengths[0], lengths[1:]
    for chain in combinations(remaining, length):
        if not all(order.comparable(chain[i], chain[i + 1]) for i in range(length - 1)):
            continue
        if any(order.comparable(x, y) for x in chain for y in placed):
            continue
        leftover = [x for x in remaining if x not in chain]
        if _embeds_chains(order, leftover, rest, placed + chain):
            return True
    return False


def corners_of_shape(shape):
    """(column, row) positions of the NE inner corners of the shape, NW to SE.

    Row 1 is the top of the n x n square; part lambda_i sits in row n+1-i,
    so the corner for each distinct part value is at its topmost occurrence.
    """
    lam, n = shape.lam, shape.n
    corners = []
    for i in range(lam.length, 0, -1):
        nxt = lam[i] if i < lam.length else 0
        if lam[i - 1] > nxt:
            corners.append((lam[i - 1], n + 1 - i))
    return corners


def is_211_avoiding(shape):
    """Whether P(lambda) avoids the pattern 2+1+1.

    Equivalent corner criterion: every corner of the shape is a corner of
    stair(n-1) or of stair(n), i.e. the corner in row r of column c has
    r == c+1 or r == c+2.  Checked against avoids_pattern by the test suite.
    """
    return all(row in (col + 1, col + 2) for col, row in corners_of_shape(shape))


def diagram_from_lambda(shape):
    """The strand diagram of P(lambda).

    Crossings bottom to top: [1, n-l]; one crossing [lambda_{j+1}+1, n-j]
    per outer corner (j with lambda_j > lambda_{j+1}), parsed NW to SE; and
    [lambda_1+1, n].  Size-1 crossings are dropped and consecutive duplicates
    merged.

    One pass over the descent rows emits each kept crossing as it goes.  The
    corner crossings strictly increase in both ends, start at strand 2 or
    higher and end below strand n, so the only duplicate is the empty
    partition's, where both end crossings are [1, n].
    """
    lam, n = shape.lam, shape.n
    ell = len(lam)
    if not ell:
        return StrandDiagram._trusted(n, (_new(Crossing, (1, n)),) if n > 1 else ())
    crossings = [_new(Crossing, (1, n - ell))] if n - ell > 1 else []
    for j in range(ell - 1, 0, -1):
        low = lam[j]
        if lam[j - 1] > low and n - j > low + 1:
            crossings.append(_new(Crossing, (low + 1, n - j)))
    if n - lam[0] > 1:
        crossings.append(_new(Crossing, (lam[0] + 1, n)))
    # 1 <= i < j <= n holds for every kept crossing
    return StrandDiagram._trusted(n, tuple(crossings))


def enumerate_shapes(n, which="all"):
    """Yield every lambda inside stair(n) exactly once, in canonical order
    (by size, then reverse-lexicographically); optionally only the
    2+1+1-avoiding ones.

    The avoiding shapes are built straight from the corner criterion of
    is_211_avoiding, not filtered out of all C_n shapes: lambda_j may exceed
    lambda_{j+1} only when lambda_j is n-j or n-j-1, so a shape is a run of
    descent rows j, each with a value in {n-j, n-j-1} smaller than the one
    before.  There are F_{2n-1} of them.

    Each list of suffixes (the parts from one row down, under one cap) is
    built once per call and shared by every prefix that reaches it, in
    descending tuple order.  Within one size reverse-lexicographic order is
    descending tuple order, so two stable sorts, descending and then by
    size, give the canonical order with no key tuples; the first is one
    linear pass over the already descending list.
    """
    if which not in ("all", "211-avoiding"):
        raise ValueError("unknown filter %r" % (which,))
    check_guard(n, SHAPE_GUARD, "n=%(work)d exceeds the shape enumeration guard %(limit)d")
    suffixes = {}

    def grow(row, cap):
        # weakly decreasing parts at most cap in rows row..n-1, where row r
        # holds at most n-r
        cap = min(cap, n - row)
        got = suffixes.get((row, cap))
        if got is None:
            got = []
            for part in range(cap, 0, -1):
                head = (part,)
                got += [head + rest for rest in grow(row + 1, part)]
            got.append(())
            suffixes[row, cap] = got
        return got

    def grow_avoiding(row, cap):
        # rows before `row` are fixed and the last of them is a descent row
        # whose value is `cap`; rows row..j all take the next descent value
        # n-j or n-j-1.  A value v closes a run at row n-v or n-v-1; the
        # longer run comes first in descending order
        got = suffixes.get((row, cap))
        if got is None:
            got = []
            for value in range(min(cap - 1, n - row), 0, -1):
                for j in (n - value, n - value - 1):
                    if row <= j < n:
                        head = (value,) * (j + 1 - row)
                        got += [head + rest for rest in grow_avoiding(j + 1, value)]
            got.append(())
            suffixes[row, cap] = got
        return got

    parts = grow(1, n - 1) if which == "all" else grow_avoiding(1, n)
    # the top list holds its own tuples: free the shared ones before yielding
    suffixes.clear()
    parts.sort(reverse=True)
    parts.sort(key=sum)
    for lam in map(_new, repeat(Partition), parts):
        yield StaircaseShape._trusted(n, lam)
