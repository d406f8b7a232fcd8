from itertools import combinations, product

import pytest

from strandtrace import (
    Partition,
    StaircaseShape,
    avoids_pattern,
    corners_of_shape,
    diagram_from_lambda,
    enumerate_shapes,
    incomparability_graph,
    is_211_avoiding,
    poset_from_lambda,
)
from strandtrace.errors import GuardExceededError
from strandtrace.orders import UIOrder, parse_parts
from strandtrace.strands import Crossing, StrandDiagram
from strandtrace.symfun import partition_sort_key


def relation_set(order):
    return {
        (a, b)
        for b in range(1, order.n + 1)
        for a in order.below[b]
    }


# -- shapes and parsing ------------------------------------------------------


def test_shape_validation():
    StaircaseShape(6, (4, 3, 1, 1))
    with pytest.raises(ValueError):
        StaircaseShape(4, (4,))  # lambda_1 > n - 1
    with pytest.raises(ValueError):
        StaircaseShape(3, (1, 1, 1))  # too many parts
    with pytest.raises(ValueError):
        StaircaseShape(0, ())


def test_parse_parts():
    assert parse_parts("4,3,1,1") == Partition((4, 3, 1, 1))
    assert parse_parts("") == Partition()


# -- poset construction ------------------------------------------------------


def test_poset_from_lambda_paper_example():
    order = poset_from_lambda(StaircaseShape(6, (4, 3, 1, 1)))
    assert relation_set(order) == (
        {(1, 3), (1, 4), (1, 5), (1, 6), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)}
    )


def test_poset_from_lambda_antichain_and_small():
    assert relation_set(poset_from_lambda(StaircaseShape(4))) == set()
    order = poset_from_lambda(StaircaseShape(4, (2, 1)))
    assert relation_set(order) == {(1, 3), (1, 4), (2, 4)}


def test_uiorder_rejects_bad_relations():
    with pytest.raises(ValueError):
        UIOrder(3, [frozenset(), frozenset(), frozenset({3}), frozenset()])
    with pytest.raises(ValueError):
        UIOrder(3, [frozenset(), frozenset(), frozenset(), frozenset({2})])


# -- pattern avoidance -------------------------------------------------------


def test_avoids_pattern_examples():
    p21 = poset_from_lambda(StaircaseShape(4, (2, 1)))
    assert avoids_pattern(p21, (2, 1, 1))
    p1 = poset_from_lambda(StaircaseShape(4, (1,)))
    assert not avoids_pattern(p1, (2, 1, 1))


def test_all_shapes_are_unit_interval_orders():
    # P(lambda) always avoids 3+1 and 2+2
    for n in range(1, 8):
        for shape in enumerate_shapes(n):
            order = poset_from_lambda(shape)
            assert avoids_pattern(order, (3, 1))
            assert avoids_pattern(order, (2, 2))


def test_avoids_pattern_guard():
    order = poset_from_lambda(StaircaseShape(4, (2, 1)))
    with pytest.raises(GuardExceededError):
        avoids_pattern(order, (7, 6))
    # C(41, 4) = 101,270 supports are over SUPPORT_GUARD; C(40, 4) = 91,390
    # would be searched
    order = poset_from_lambda(StaircaseShape(41))
    with pytest.raises(GuardExceededError, match="C\\(41, 4\\) = 101270"):
        avoids_pattern(order, (2, 1, 1))


def test_pattern_and_shape_guard_messages():
    """Each refusal names the work it would do and the guard it passes."""
    with pytest.raises(GuardExceededError) as info:
        avoids_pattern(poset_from_lambda(StaircaseShape(13)), (13,))
    assert str(info.value) == "pattern size 13 exceeds the brute-force guard 12"
    with pytest.raises(GuardExceededError) as info:
        list(enumerate_shapes(13))
    assert str(info.value) == "n=13 exceeds the shape enumeration guard 12"


# -- corners and the 2+1+1 criterion ----------------------------------------


def test_corners_examples():
    assert corners_of_shape(StaircaseShape(6, (4, 3, 1, 1))) == [(1, 3), (3, 5), (4, 6)]
    assert corners_of_shape(StaircaseShape(4, (2, 1))) == [(1, 3), (2, 4)]
    assert corners_of_shape(StaircaseShape(2, (1,))) == [(1, 2)]
    assert corners_of_shape(StaircaseShape(5)) == []


def test_is_211_avoiding_examples():
    assert is_211_avoiding(StaircaseShape(6, (4, 3, 1, 1)))
    assert not is_211_avoiding(StaircaseShape(4, (1,)))
    assert is_211_avoiding(StaircaseShape(7))


def test_is_211_avoiding_cumulative_drift():
    # corners must individually lie on stair(n-1) or stair(n); a per-step
    # multiplicity band is too weak, as this shape shows
    shape = StaircaseShape(6, (4, 2))
    assert not is_211_avoiding(shape)
    assert not avoids_pattern(poset_from_lambda(shape), (2, 1, 1))


def test_corner_criterion_matches_brute_force():
    for n in range(1, 8):
        for shape in enumerate_shapes(n):
            brute = avoids_pattern(poset_from_lambda(shape), (2, 1, 1))
            assert is_211_avoiding(shape) == brute, shape


# -- incomparability graphs ---------------------------------------------------


def test_incomparability_graph_examples():
    path = incomparability_graph(poset_from_lambda(StaircaseShape(4, (2, 1))))
    assert path.edge_list() == [(1, 2), (2, 3), (3, 4)]
    triangle = incomparability_graph(poset_from_lambda(StaircaseShape(3)))
    assert triangle.edge_list() == [(1, 2), (1, 3), (2, 3)]
    chain = incomparability_graph(poset_from_lambda(StaircaseShape(4, (3, 2, 1))))
    assert chain.edge_list() == []


def test_comparability_incomparability_partition_pairs():
    for n in range(2, 7):
        for shape in enumerate_shapes(n):
            order = poset_from_lambda(shape)
            graph = incomparability_graph(order)
            for a, b in combinations(range(1, n + 1), 2):
                assert order.comparable(a, b) != ((a, b) in graph.edges)


def test_graph_json():
    graph = incomparability_graph(poset_from_lambda(StaircaseShape(4, (2, 1))))
    assert graph.to_json_dict() == {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}


# -- diagrams from shapes -----------------------------------------------------


def test_diagram_from_lambda_examples():
    d = diagram_from_lambda(StaircaseShape(4, (2, 1)))
    assert [tuple(c) for c in d.crossings] == [(1, 2), (2, 3), (3, 4)]
    d = diagram_from_lambda(StaircaseShape(4))
    assert [tuple(c) for c in d.crossings] == [(1, 4)]
    d = diagram_from_lambda(StaircaseShape(6, (4, 3, 1, 1)))
    assert [tuple(c) for c in d.crossings] == [(1, 2), (2, 4), (4, 5), (5, 6)]
    # full staircase: every crossing degenerates
    d = diagram_from_lambda(StaircaseShape(4, (3, 2, 1)))
    assert d.crossings == ()


def test_diagram_always_staircase_like():
    for n in range(1, 8):
        for shape in enumerate_shapes(n):
            assert diagram_from_lambda(shape).is_staircase_like()


def test_211_diagrams_overlap_in_at_most_one_strand():
    # consecutive crossings share at most the lower crossing's right-most
    # strand; dropping degenerate size-1 crossings can leave gaps wider than
    # one strand (e.g. (3,3,2) in stair(5) gives [1,2] [4,5]), which the
    # reduction handles by collapsing free strands
    for n in range(2, 9):
        for shape in enumerate_shapes(n, "211-avoiding"):
            cs = diagram_from_lambda(shape).crossings
            for k in range(len(cs) - 1):
                assert cs[k + 1].i >= cs[k].j, shape
    gap = diagram_from_lambda(StaircaseShape(5, (3, 3, 2)))
    assert [tuple(c) for c in gap.crossings] == [(1, 2), (4, 5)]


def _diagram_by_the_rule(shape):
    """The crossings of diagram_from_lambda's docstring, one step at a time:
    the raw list, then size-1 crossings dropped, then consecutive duplicates
    merged."""
    n, lam = shape.n, tuple(shape.lam)
    ell = len(lam)
    padded = lam + (0,)
    raw = [(1, n - ell)]
    for j in range(ell - 1, 0, -1):
        if padded[j - 1] > padded[j]:
            raw.append((padded[j] + 1, n - j))
    raw.append((padded[0] + 1, n))
    kept = [c for c in raw if c[1] - c[0] >= 1]
    return [c for k, c in enumerate(kept) if k == 0 or kept[k - 1] != c]


def test_diagram_from_lambda_follows_its_rule_on_every_shape():
    for n in range(1, 10):
        for shape in enumerate_shapes(n):
            d = diagram_from_lambda(shape)
            assert d.n == n
            assert all(type(c) is Crossing for c in d.crossings)
            assert [tuple(c) for c in d.crossings] == _diagram_by_the_rule(shape), shape
            assert d == StrandDiagram(n, _diagram_by_the_rule(shape))


# -- enumeration ---------------------------------------------------------------


def _shapes_by_brute_force(n, which):
    """Every weakly decreasing tuple with lambda_i <= n-i, zeros stripped,
    kept by the corner rule (each lambda_i > lambda_{i+1} is n-i or n-i-1)
    for the avoiding filter, and sorted by partition_sort_key."""
    shapes = []
    for row in product(*(range(n - i + 1) for i in range(1, n))):
        if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
            continue
        lam = tuple(part for part in row if part)
        padded = lam + (0,)
        corners_ok = all(
            padded[i - 1] in (n - i, n - i - 1)
            for i in range(1, len(lam) + 1)
            if padded[i - 1] > padded[i]
        )
        if which == "all" or corners_ok:
            shapes.append(lam)
    return sorted(shapes, key=partition_sort_key)


@pytest.mark.parametrize("which", ["all", "211-avoiding"])
def test_enumerate_shapes_matches_brute_force(which):
    for n in range(1, 10):
        shapes = list(enumerate_shapes(n, which))
        assert all(type(s.lam) is Partition and s.n == n for s in shapes)
        assert [tuple(s.lam) for s in shapes] == _shapes_by_brute_force(n, which), n


def test_enumerate_shapes_small():
    assert [tuple(s.lam) for s in enumerate_shapes(2)] == [(), (1,)]
    assert [tuple(s.lam) for s in enumerate_shapes(3)] == [(), (1,), (2,), (1, 1), (2, 1)]


def test_enumerate_shapes_catalan_counts():
    # number of shapes inside stair(n) is the Catalan number C_n
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(1, 9):
        assert len(list(enumerate_shapes(n))) == catalan[n]


def test_enumerate_shapes_211_filter():
    all_4 = {tuple(s.lam) for s in enumerate_shapes(4)}
    avoiding = {tuple(s.lam) for s in enumerate_shapes(4, "211-avoiding")}
    assert (1,) in all_4 and (1,) not in avoiding
    # the avoiding shapes are built from the corner criterion, not filtered;
    # they must be exactly what the filter keeps, in the same order
    for n in range(1, 12):
        filtered = [s for s in enumerate_shapes(n) if is_211_avoiding(s)]
        assert list(enumerate_shapes(n, "211-avoiding")) == filtered, n


def test_enumerate_211_avoiding_fibonacci_counts_and_order():
    fib = [0, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 13):
        shapes = [tuple(s.lam) for s in enumerate_shapes(n, "211-avoiding")]
        assert len(shapes) == fib[2 * n - 1], n
        keys = [partition_sort_key(lam) for lam in shapes]
        assert all(a < b for a, b in zip(keys, keys[1:])), n


def test_enumerate_shapes_guard():
    for which in ("all", "211-avoiding"):
        with pytest.raises(GuardExceededError):
            list(enumerate_shapes(13, which))
