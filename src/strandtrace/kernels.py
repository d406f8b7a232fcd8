"""Enumeration kernels.

The coloring census is built one crossing at a time over cosets of the last
crossing's symmetric group: ``_next_cosets`` is the one step from a layer
to the next, and ``coset_walk`` the one walk of it, from the identity layer
to a diagram's last layer.  Handed the stack of the sequence walked before,
the walk keeps the layers of their shared prefix, so the sweep's orbit
representatives share them; one diagram walks on a fresh stack.
``colored_census`` walks one step past the last crossing, to the empty
window ``EMPTY``, whose cosets are single permutations.
``cycle_type_census``, the one reader of every census, reads the cycle
types of the last cosets from their open paths, each with its count or, for
the distinct composites, once.  The plans of steps from windows of at most
4 values (at most 4! placements each) are kept, wider ones built anew.  The
restricted permutation census and the proper-coloring count are plain brute
force, because they serve as the oracles.  Both cycle-type censuses count
lengths in one int, a digit per length, which ``_descending_digits``
decodes once per distinct key, as it does the trace's packed keys.
``cycle_type`` is the one walk over a whole permutation, and proves that
its input is one as it walks.  Callers are responsible for work guards:
``walk_bound`` is the one bound of the walk, on a stack that mirrors it,
and ``census_work`` is that bound for one diagram, of the walk to ``EMPTY``
or of the reading of the last cosets, whose joined-cycles table grows like
|W|! with the last window W.
"""

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from operator import itemgetter, not_

# perfbench/run.py reads this and refuses to run on any other value
BACKEND = "python"

EMPTY = (1, 0)  # the empty window as a crossing (i > j), before the first one


def colored_census(n, crossings):
    """Multiset of composite permutations over all colorings of a diagram.

    ``crossings`` is a bottom-to-top list of 1-based intervals (i, j); each
    coloring picks an arbitrary bijection of every crossing's strands, and
    the composite maps bottom positions to top positions (later crossings
    act after earlier ones).  Returns {image-tuple: multiplicity}: the
    last layer of ``coset_walk`` one step past the last crossing, to
    ``EMPTY``, whose cosets of the trivial group are single permutations.
    """
    if not crossings:  # the walk would gather n = 1 through itemgetter(0), a scalar
        return {tuple(range(1, n + 1)): 1}
    return coset_walk(n, (*crossings, EMPTY), [])[0]


def cycle_type_census(n, crossings, distinct=False, stack=None):
    """Cycle-type census of the colorings of a diagram: {descending cycle
    type: number of colorings whose composite has it}, or with ``distinct``
    the number of distinct composites that have it.

    The last cosets of ``coset_walk`` on ``stack`` (else a fresh one), read
    by ``_cycle_types_of_cosets``: no single permutation is built.  Every
    count of the walk is a product of positive counts, so its cosets hold
    exactly the distinct composites; with ``distinct`` each counts 1.
    """
    cosets, held = coset_walk(n, crossings, [] if stack is None else stack)
    if distinct:
        cosets = dict.fromkeys(cosets, 1)
    return _cycle_types_of_cosets(n, cosets, held)


def _cycle_types_of_cosets(n, cosets, held):
    """Cycle-type census of the permutations in cosets of S_W, for W the
    values ``held``: {descending cycle type: summed count}.

    In a coset of W, following the composite from each value of W runs
    along unmasked positions to a masked one: |W| open paths, and the other
    positions close into cycles that avoid W.  Filling the masked slots
    joins the paths by a permutation tau of S_|W|, and each cycle of tau
    gives one cycle whose length is the sum of its paths' lengths.  So a
    coset's distribution depends only on its sorted path lengths
    (``_joined_cycles``), and cosets with the same paths and the same
    avoiding cycles (one int, whose n.bit_length()-bit digit m counts the
    cycles of length m) are merged before it is applied.
    """
    width = n.bit_length()
    shapes = {}
    for coset, count in cosets.items():
        seen = [False] * (n + 1)
        paths = []
        for v in held:
            size = 0
            while v:
                seen[v] = True
                size += 1
                v = coset[v - 1]
            paths.append(size)
        cycles = 0
        for v in range(1, n + 1):
            if not seen[v]:
                size = 0
                while not seen[v]:
                    seen[v] = True
                    size += 1
                    v = coset[v - 1]
                cycles += 1 << (width * size)
        paths.sort()
        key = (tuple(paths), cycles)
        shapes[key] = shapes.get(key, 0) + count
    census = {}
    for (paths, cycles), count in shapes.items():
        for joined, ways in _joined_cycles(paths, width).items():
            key = cycles + joined
            census[key] = census.get(key, 0) + count * ways
    return {_descending_digits(key, width): count for key, count in census.items()}


@lru_cache(maxsize=None)
def _joined_cycles(paths, width):
    """{packed cycle lengths: number of tau in S_k} over the ways tau joins
    k open paths of sorted lengths into cycles: the first path's cycle takes
    any s others in one of s! orders.  Digit m (``width`` bits) counts the
    cycles of length m, and paths summing to n < 2**width never overflow."""
    if not paths:
        return {0: 1}
    first, rest = paths[0], paths[1:]
    out = {}
    for s in range(len(rest) + 1):
        ways = factorial(s)
        for chosen in combinations(range(len(rest)), s):
            cycle = 1 << (width * (first + sum(rest[k] for k in chosen)))
            left = tuple(rest[k] for k in range(len(rest)) if k not in chosen)
            for joined, count in _joined_cycles(left, width).items():
                key = joined + cycle
                out[key] = out.get(key, 0) + ways * count
    return out


def _shared_depth(previous, crossings):
    """The number of leading crossings two sequences share."""
    depth = 0
    for a, b in zip(previous, crossings):
        if a != b:
            break
        depth += 1
    return depth


def coset_walk(n, crossings, stack):
    """The last layer ({coset: count}, values of the last window) of the
    census of ``crossings``, one ``_next_cosets`` step per crossing from the
    identity layer.  ``stack`` holds the sequence walked before and its
    layers, the empty prefix's first; the walk keeps those of the shared
    prefix and leaves its own.  An empty list starts a walk."""
    if stack:
        del stack[_shared_depth(stack[0], crossings) + 2:]
    else:
        stack += (), ({tuple(range(1, n + 1)): 1}, ())
    stack[0] = crossings
    layer = stack[-1]
    for crossing in crossings[len(stack) - 2:]:
        layer = _next_cosets(n, *layer, crossing)
        stack.append(layer)
    return layer


def _next_cosets(n, cosets, held, crossing):
    """One crossing's layer: the cosets after ``crossing`` from the cosets
    of S_W before it, W the values ``held``; returns (cosets, held) again.

    The census is the group-algebra product of the crossings' symmetrizers.
    Crossings act on values, so after a crossing W the counts are invariant
    under permuting W's values, and a coset is stored as a composite with
    W's values masked to 0, carrying the count each of its |W|! elements
    has.  The next crossing W' places the values of W outside W' into the
    masked slots in every order (each placement stands for |W & W'|!
    elements), masks W' and merges equal cosets.

    The step's plan (``_plan``) depends on n, W and W' only; one from a
    window of at most ``_KEPT_WINDOW`` = 4 values is kept in ``_PLANS``.
    Wider windows are left out: their plans hold up to |W|! placements, so
    keeping them would make the table grow with the sweep's width, while
    their steps already cost |W|! / |W & W'|! placements per coset.
    """
    fills, weight, mask, window = _PLANS.get((n, held, crossing)) or _plan(n, held, crossing)
    layer = {}
    for coset, count in cosets.items():
        gather = _gather(tuple(map(not_, coset)))
        base = tuple(map(mask, coset))
        count *= weight
        for fill in fills:
            image = gather(base + fill)
            layer[image] = layer.get(image, 0) + count
    return layer, window


# the widest previous window whose plans _PLANS keeps: each has at most
# 4! = 24 placements, and n strands have at most 4n such windows (the empty
# one and the intervals of 2 to 4 values) and n * (n - 1) / 2 + 1 crossings
_KEPT_WINDOW = 4
_PLANS = {}  # (n, held, crossing): _plan's result, for len(held) <= _KEPT_WINDOW


def _plan(n, held, crossing):
    """What the ``_next_cosets`` step for ``crossing`` from the window
    ``held`` does to every coset: (the distinct placements of W's values
    outside W' into its masked slots, the |W & W'|! elements each stands
    for, the mask taking W' to 0 as an index function, the new window);
    to ``EMPTY`` every held value is placed, 0! = 1 and nothing is masked.
    Kept in ``_PLANS`` when W holds at most ``_KEPT_WINDOW`` values."""
    i, j = int(crossing[0]), int(crossing[1])
    placed = [v for v in held if not i <= v <= j]
    zeros = [0] * (len(held) - len(placed))
    plan = (
        tuple(dict.fromkeys(permutations(placed + zeros))),
        factorial(len(zeros)),
        [0 if i <= v <= j else v for v in range(n + 1)].__getitem__,
        tuple(range(i, j + 1)),
    )
    if len(held) <= _KEPT_WINDOW:
        _PLANS[n, held, crossing] = plan
    return plan


@lru_cache(maxsize=None)
def _gather(slots):
    """itemgetter taking (coset + fill) to the coset with its masked slots,
    left to right, filled from ``fill``; ``slots`` flags the masked
    positions.  There are at most 2**n patterns for n strands."""
    n = len(slots)
    index = list(range(n))
    for rank, k in enumerate(k for k in range(n) if slots[k]):
        index[k] = n + rank
    return itemgetter(*index)


def layer_bound(n, cosets, previous, crossing):
    """(cost, coset bound) of the ``_next_cosets`` step for ``crossing``
    from at most ``cosets`` cosets of the window ``previous``, ``EMPTY``
    before the first crossing.

    A step costs its cosets times its placements, |W|! / |W & W'|! for the
    previous window W (one on the identity coset), and leaves at most
    min(cost, n! / |W'|!) cosets.
    """
    lo, hi = previous
    i, j = int(crossing[0]), int(crossing[1])
    overlap = max(0, min(j, hi) - max(i, lo) + 1)
    cost = cosets * (factorial(hi - lo + 1) // factorial(overlap))
    return cost, min(cost, factorial(n) // factorial(j - i + 1))


def walk_bound(n, crossings, stack):
    """(steps, cosets, table, shared) for ``coset_walk`` of ``crossings`` on
    the same walk: the ``layer_bound`` costs past the prefix it shares with
    the sequence before, the bound on its last cosets, |W|! the first time
    the walk meets the width of its last window W (the ``_joined_cycles``
    tables its reading builds), else 0, and the step costs of that prefix.
    ``stack`` holds the sequence bounded before, the widths met and (coset
    bound, window, summed costs) per depth; an empty list starts a walk."""
    if stack:
        del stack[_shared_depth(stack[0], crossings) + 3:]
    else:
        stack += (), set(), (1, EMPTY, 0)
    stack[0] = crossings
    cosets, window, shared = stack[-1]
    steps = 0
    for crossing in crossings[len(stack) - 3:]:
        cost, cosets = layer_bound(n, cosets, window, crossing)
        steps += cost
        window = crossing
        stack.append((cosets, window, shared + steps))
    width = window[1] - window[0] + 1
    table = 0 if width in stack[1] else factorial(width)
    stack[1].add(width)
    return steps, cosets, table, shared


def census_work(n, crossings, expand=True):
    """Upper bound on the work of a census of a diagram by ``walk_bound``:
    with ``expand``, the steps of colored_census's walk (to ``EMPTY``, |W|!
    per last coset for the last window W), else the steps to the last
    crossing, one state per last coset and |W|! for the ``_joined_cycles``
    table reading them builds.  That table grows exponentially in |W|: on
    11 strands the tables of any one width cost at most 11,551 inner steps
    all told, while the one table of [1,24] costs about 1.2 * 10**9."""
    if expand:
        return walk_bound(n, (*crossings, EMPTY), [])[0]
    steps, cosets, table, _ = walk_bound(n, crossings, [])
    return steps + cosets + table


def restricted_census(n, bounds):
    """Cycle-type census of permutations with restricted positions.

    Counts sigma in S_n with sigma(k) > bounds[k-1] for every k, grouped by
    cycle type; a bound below 0 restricts nothing.  Returns {descending
    cycle-type tuple: count}.

    Every sigma is still visited one by one, filling the most constrained
    positions first, but its cycles close as the positions fill.  The
    filled positions form open paths, one ending at each unfilled position
    t and starting at an unused value ``head[t]``, with ``size[t]``
    elements; the unused values are exactly these heads.  Filling position
    k with its own head closes a cycle of ``size[k]``; filling it with the
    head of t's path joins k's path to it.  The last two positions take the
    two heads left in one of two ways: two cycles, or one cycle of the
    summed length.

    The closed lengths travel down the recursion as one int: its digit m,
    ``n.bit_length()`` bits wide, counts the cycles of length m, so a
    closing cycle adds one int and a sigma's cycle type is its key.  A
    digit never overflows: no sigma has more than n cycles of one length,
    and n < 2**width.  Each distinct key is decoded once at the end
    (``_descending_digits``), with nothing sorted or merged.
    """
    bounds = [max(int(b), 0) for b in bounds]
    if len(bounds) != n:
        raise ValueError("need one bound per position")
    if any(b >= n for b in bounds):
        return {}
    if n <= 1:
        return {(1,) * n: 1}
    # fill the most constrained positions first; positions and values are 1..n
    order = sorted(range(1, n + 1), key=lambda k: (-bounds[k - 1], k))
    last = n - 2
    # per step: the position filled, its bound and the positions still open
    steps = [(k, bounds[k - 1], order[idx:]) for idx, k in enumerate(order[:last])]
    k1, k2 = order[last:]
    b1, b2 = bounds[k1 - 1], bounds[k2 - 1]
    head = list(range(n + 1))
    size = [1] * (n + 1)
    width = n.bit_length()
    # unit[m] adds one cycle of length m to a packed census key
    unit = [1 << (width * m) for m in range(n + 1)]
    counts = {}

    def descend(idx, closed):
        if idx == last:
            h1, h2 = head[k1], head[k2]
            if h1 > b1 and h2 > b2:
                key = closed + unit[size[k1]] + unit[size[k2]]
                counts[key] = counts.get(key, 0) + 1
            if h2 > b1 and h1 > b2:
                key = closed + unit[size[k1] + size[k2]]
                counts[key] = counts.get(key, 0) + 1
            return
        k, bound, open_ends = steps[idx]
        h, s = head[k], size[k]
        for t in open_ends:
            v = head[t]
            if v <= bound:
                continue
            if t == k:
                descend(idx + 1, closed + unit[s])
            else:
                head[t] = h
                size[t] += s
                descend(idx + 1, closed)
                head[t] = v
                size[t] -= s

    descend(0, 0)
    return {_descending_digits(key, width): count for key, count in counts.items()}


def _descending_digits(packed, width):
    """The multiset an int packs in ``width``-bit digits (digit m counts m)
    as a weakly decreasing tuple, from the highest nonzero digit down.  Its
    packers, the restricted census, the coset reader and the trace, keep
    every digit below 2**width."""
    values = []
    while packed:
        m = (packed.bit_length() - 1) // width
        count = packed >> (width * m)
        values += (m,) * count
        packed -= count << (width * m)
    return tuple(values)


def cycle_type(images):
    """Descending cycle lengths of a permutation given as 1-based images.

    One checked walk proves the input is a permutation as it types it: each
    walk starts at an unseen value and must come back to its start, and
    raises ValueError if it first meets a value outside 1..n or one already
    seen.  Walks that all return to their starts are exactly the cycles of a
    permutation.
    """
    n = len(images)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        size = 1
        cur = images[start - 1]
        while cur != start:
            if not 0 < cur <= n or seen[cur]:
                raise ValueError("%r is not a permutation of 1..%d" % (images, n))
            seen[cur] = True
            cur = images[cur - 1]
            size += 1
        lengths.append(size)
    lengths.sort(reverse=True)
    return tuple(lengths)


def count_colorings(n, edges, m):
    """Number of functions [n] -> [m] proper on the given edge list (1-based)."""
    earlier = [[] for _ in range(n)]
    for a, b in edges:
        a, b = (int(a), int(b)) if a < b else (int(b), int(a))
        earlier[b - 1].append(a - 1)
    colors = [0] * n

    def descend(v):
        if v == n:
            return 1
        total = 0
        forbidden = {colors[u] for u in earlier[v]}
        for c in range(1, m + 1):
            if c not in forbidden:
                colors[v] = c
                total += descend(v + 1)
        colors[v] = 0
        return total

    return descend(0)
