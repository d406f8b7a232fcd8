"""The kernels against brute force written out here: the layer-by-layer
coloring census against composing every choice of window bijections, the
restricted-permutation census against all of S_n, and the proper-coloring
count against all of [m]^n."""

from itertools import combinations, permutations, product

import pytest

from strandtrace import kernels

CENSUS_CASES = [
    (1, []),
    (3, []),
    (4, [(1, 4)]),
    (4, [(1, 2), (2, 3), (3, 4)]),
    (4, [(1, 3), (2, 4)]),
    (4, [(2, 3), (1, 2), (3, 4), (2, 3)]),
    (5, [(1, 2), (3, 5)]),
    (6, [(1, 4), (3, 6)]),
    (11, [(1, 3), (9, 11)]),
    # stacked wide crossings: many colorings share a composite, so the
    # layer-by-layer census merges states at every crossing
    (6, [(1, 4), (3, 6), (1, 4)]),
    (5, [(1, 5), (1, 5)]),
    (5, [(1, 3), (2, 5), (1, 3), (3, 5)]),
]

RESTRICTED_CASES = [
    (1, [0]),
    (4, [0, 0, 1, 2]),
    (4, [0, 0, 0, 0]),
    (5, [0, 0, 1, 3, 3]),
    (6, [0, 0, 0, 1, 3, 4]),
    (6, [0, 1, 2, 3, 4, 5]),
    (4, [0, 0, 4, 0]),  # unsatisfiable bound
]

COLORING_CASES = [
    (1, [], 3),
    (4, [(1, 2), (2, 3), (3, 4)], 2),
    (4, [(1, 2), (2, 3), (3, 4)], 3),
    (3, [(1, 2), (1, 3), (2, 3)], 3),
    (5, [], 4),
    (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 3),
]


def census_reference(n, crossings):
    """Compose every choice of one bijection per crossing."""
    windows = [
        [dict(zip(range(i, j + 1), sigma)) for sigma in permutations(range(i, j + 1))]
        for i, j in crossings
    ]
    counts = {}
    for choice in product(*windows):
        comp = tuple(range(1, n + 1))
        for move in choice:
            comp = tuple(move.get(v, v) for v in comp)
        counts[comp] = counts.get(comp, 0) + 1
    return counts


def cycle_type_reference(images):
    left = set(range(1, len(images) + 1))
    lengths = []
    while left:
        k, size = min(left), 0
        while k in left:
            left.remove(k)
            k = images[k - 1]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def restricted_reference(n, bounds):
    counts = {}
    for sigma in permutations(range(1, n + 1)):
        if all(sigma[k] > bounds[k] for k in range(n)):
            ct = cycle_type_reference(sigma)
            counts[ct] = counts.get(ct, 0) + 1
    return counts


def coloring_reference(n, edges, m):
    return sum(
        1
        for colors in product(range(m), repeat=n)
        if all(colors[a - 1] != colors[b - 1] for a, b in edges)
    )


def test_python_census_hand_values():
    assert kernels.colored_census(3, []) == {(1, 2, 3): 1}
    assert kernels.colored_census(2, [(1, 2)]) == {(1, 2): 1, (2, 1): 1}
    two = kernels.colored_census(2, [(1, 2), (1, 2)])
    assert two == {(1, 2): 2, (2, 1): 2}


@pytest.mark.parametrize("n,crossings", CENSUS_CASES)
def test_census_against_product(n, crossings):
    assert kernels.colored_census(n, crossings) == census_reference(n, crossings)


def test_census_against_product_exhaustively_on_small_diagrams():
    alphabet = [(i, j) for i in range(1, 4) for j in range(i + 1, 5)]
    for length in range(0, 3):
        for crossings in product(alphabet, repeat=length):
            assert kernels.colored_census(4, list(crossings)) == census_reference(
                4, crossings
            ), crossings


@pytest.mark.parametrize("n,bounds", RESTRICTED_CASES)
def test_restricted_census_against_itertools(n, bounds):
    assert kernels.restricted_census(n, bounds) == restricted_reference(n, bounds)


def test_python_restricted_against_itertools():
    """Every bounds vector with entries in 0..n, for n <= 4."""
    for n in range(1, 5):
        for bounds in product(range(n + 1), repeat=n):
            assert kernels.restricted_census(n, bounds) == restricted_reference(
                n, bounds
            ), bounds


@pytest.mark.parametrize("n,edges,m", COLORING_CASES)
def test_count_colorings_against_product(n, edges, m):
    assert kernels.count_colorings(n, edges, m) == coloring_reference(n, edges, m)


def test_python_coloring_against_product():
    """Every graph on four vertices, with one to three colors."""
    pairs = list(combinations(range(1, 5), 2))
    for mask in range(1 << len(pairs)):
        edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
        for m in range(1, 4):
            assert kernels.count_colorings(4, edges, m) == coloring_reference(
                4, edges, m
            ), (edges, m)
