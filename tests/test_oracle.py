from itertools import combinations, permutations, product
from math import factorial

import pytest

from strandtrace import (
    Partition,
    StaircaseShape,
    SymFun,
    ch_gamma,
    cycle_type,
    enumerate_shapes,
    h,
    incomparability_graph,
    kernels,
    omega,
    oracle,
    p,
    poset_from_lambda,
    proper_coloring_count,
    specialize_ones,
    to_basis,
)
from strandtrace.errors import GuardExceededError
from strandtrace.orders import IncompGraph


def test_cycle_type_examples():
    assert cycle_type((1, 3, 2, 4)) == Partition((2, 1, 1))
    assert cycle_type(tuple(range(1, 6))) == Partition((1, 1, 1, 1, 1))
    assert cycle_type((2, 3, 4, 1)) == Partition((4,))
    with pytest.raises(ValueError):
        cycle_type((1, 1, 2))


@pytest.mark.parametrize("walk", [kernels.cycle_type, oracle.cycle_type])
def test_cycle_type_rejects_every_non_permutation(walk):
    """Zero, n + 1, negative values and repeats, at every length 1..4."""
    for n in range(1, 5):
        identity = tuple(range(1, n + 1))
        for images in product(range(-1, n + 2), repeat=n):
            if tuple(sorted(images)) == identity:
                continue
            with pytest.raises(ValueError, match="is not a permutation of 1..%d" % n):
                walk(images)


def test_cycle_type_inverse_invariant():
    for n in range(1, 6):
        for sigma in permutations(range(1, n + 1)):
            inverse = [0] * n
            for k, v in enumerate(sigma, start=1):
                inverse[v - 1] = k
            assert cycle_type(sigma) == cycle_type(tuple(inverse))


def test_ch_gamma_worked_example():
    value = ch_gamma(StaircaseShape(4, (2, 1)))
    assert value == (
        p((1, 1, 1, 1)) + 3 * p((2, 1, 1)) + 2 * p((3, 1)) + p((2, 2)) + p(4)
    )


def test_ch_gamma_extremes():
    for n in range(1, 6):
        assert ch_gamma(StaircaseShape(n)) == factorial(n) * to_basis(h(n), "p")
        stair = tuple(range(n - 1, 0, -1))
        assert ch_gamma(StaircaseShape(n, stair)) == p((1,) * n)


def test_ch_gamma_against_direct_enumeration():
    # independent re-derivation with itertools, on every shape up to n = 6
    for n in range(1, 7):
        for shape in enumerate_shapes(n):
            bounds = [shape.part(n + 1 - k) for k in range(1, n + 1)]
            table = {}
            for sigma in permutations(range(1, n + 1)):
                if all(sigma[k] > bounds[k] for k in range(n)):
                    lam = cycle_type(sigma)
                    table[lam] = table.get(lam, 0) + 1
            assert ch_gamma(shape) == SymFun("p", table), shape


def test_ch_gamma_degree_and_mass():
    for n in range(1, 7):
        for shape in enumerate_shapes(n):
            value = ch_gamma(shape)
            assert value.homogeneous_degree() == n
            mass = sum(value.coefficients().values())
            assert mass == _permanent_of_constraints(shape)


def _permanent_of_constraints(shape):
    # Ryser's formula on the 0/1 matrix M[k][v] = [sigma(k) = v allowed]
    n = shape.n
    bounds = [shape.part(n + 1 - k) for k in range(1, n + 1)]
    rows = [[1 if v > bounds[k] else 0 for v in range(1, n + 1)] for k in range(n)]
    total = 0
    for r in range(1, n + 1):
        for cols in combinations(range(n), r):
            prod = 1
            for row in rows:
                prod *= sum(row[c] for c in cols)
            total += (-1) ** (n - r) * prod
    return total


def test_ch_gamma_guard():
    with pytest.raises(GuardExceededError):
        ch_gamma(StaircaseShape(11))


def test_proper_coloring_examples():
    path = incomparability_graph(poset_from_lambda(StaircaseShape(4, (2, 1))))
    for m in range(1, 5):
        assert proper_coloring_count(path, m) == m * (m - 1) ** 3
    triangle = incomparability_graph(poset_from_lambda(StaircaseShape(3)))
    assert proper_coloring_count(triangle, 3) == 6
    empty = IncompGraph(5, [])
    assert proper_coloring_count(empty, 3) == 3**5


def test_proper_coloring_guard():
    with pytest.raises(GuardExceededError):
        proper_coloring_count(IncompGraph(30, []), 10)


def test_oracle_guard_messages():
    """Each refusal names the work it would do and the guard it passes."""
    with pytest.raises(GuardExceededError) as info:
        proper_coloring_count(IncompGraph(30, []), 10)
    assert str(info.value) == (
        "m^n = 1000000000000000000000000000000 exceeds the coloring guard 100000000"
    )
    with pytest.raises(GuardExceededError) as info:
        ch_gamma(StaircaseShape(11))
    assert str(info.value) == "n=11 exceeds the S_n enumeration guard 10"


def test_coloring_count_matches_specialization():
    # X_G = omega(ch), so counting proper m-colorings equals evaluating
    # omega(ch) at m ones
    for n in range(1, 6):
        for shape in enumerate_shapes(n):
            graph = incomparability_graph(poset_from_lambda(shape))
            value = omega(ch_gamma(shape))
            for m in range(1, 4):
                assert proper_coloring_count(graph, m) == specialize_ones(value, m)
