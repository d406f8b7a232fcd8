"""Enumeration kernels.

The coloring census is built one crossing at a time; the restricted
permutation census and the proper-coloring count are plain brute force,
because they serve as the oracles.  Callers are responsible for work guards.
"""

from itertools import permutations

# perfbench/run.py reads this and refuses to run on any other value
BACKEND = "python"


def colored_census(n, crossings):
    """Multiset of composite permutations over all colorings of a diagram.

    ``crossings`` is a bottom-to-top list of 1-based intervals (i, j); each
    coloring picks an arbitrary bijection of every crossing's strands, and
    the composite maps bottom positions to top positions (later crossings
    act after earlier ones).  Returns {image-tuple: multiplicity}.

    The census is the group-algebra product of the crossings' symmetrizers:
    starting from the identity, each crossing maps every composite so far
    through each bijection of its window, and equal composites merge their
    counts.  The work is the sum over crossings of states times |window|!,
    not the product of the |window|! that enumerating colorings costs.
    """
    counts = {tuple(range(1, n + 1)): 1}
    for i, j in crossings:
        i, j = int(i), int(j)
        window = list(permutations(range(i, j + 1)))
        layer = {}
        for comp, count in counts.items():
            for sigma in window:
                image = tuple(sigma[v - i] if i <= v <= j else v for v in comp)
                layer[image] = layer.get(image, 0) + count
        counts = layer
    return counts


def restricted_census(n, bounds):
    """Cycle-type census of permutations with restricted positions.

    Counts sigma in S_n with sigma(k) > bounds[k-1] for every k, grouped by
    cycle type.  Returns {descending cycle-type tuple: count}.
    """
    bounds = [int(b) for b in bounds]
    if len(bounds) != n:
        raise ValueError("need one bound per position")
    if any(b >= n for b in bounds):
        return {}
    # fill the most constrained positions first
    order = sorted(range(n), key=lambda k: (-bounds[k], k))
    images = [0] * n
    used = [False] * (n + 1)
    counts = {}

    def descend(idx):
        if idx == n:
            ct = _cycle_type(images)
            counts[ct] = counts.get(ct, 0) + 1
            return
        k = order[idx]
        for v in range(bounds[k] + 1, n + 1):
            if not used[v]:
                used[v] = True
                images[k] = v
                descend(idx + 1)
                used[v] = False

    descend(0)
    return counts


def _cycle_type(images):
    n = len(images)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        size = 0
        cur = start
        while not seen[cur]:
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
