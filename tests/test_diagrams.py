from itertools import permutations
from math import factorial

import pytest

from strandtrace import (
    Crossing,
    DiagramCombo,
    NonTraceableError,
    PartialCombo,
    StaircaseShape,
    StrandDiagram,
    SymFun,
    WeightedDiagram,
    ch_gamma,
    closed_form_single_crossing,
    colored_permutations,
    diagram_csf,
    diagram_from_lambda,
    diagrams,
    enumerate_shapes,
    format_diagram,
    h,
    is_h_positive,
    iterate_trace_partial,
    p,
    parse_diagram,
    partial_k,
    reduce_to_h,
    search_general,
    to_basis,
    trace_combo,
    trace_to_symfun,
    trace_weighted,
)
from strandtrace.diagrams import SINGLE_STRAND, coloring_budget, generate_search_diagrams
from strandtrace.errors import GuardExceededError

D21 = StrandDiagram(4, [(1, 2), (2, 3), (3, 4)])
EXAMPLE_213_P = (
    p((1, 1, 1, 1)) + 3 * p((2, 1, 1)) + 2 * p((3, 1)) + p((2, 2)) + p(4)
)


def wd(n, crossings, weights=None):
    return WeightedDiagram(StrandDiagram(n, crossings), weights)


# -- diagram basics ----------------------------------------------------------


def test_crossing_and_diagram_validation():
    assert Crossing(2, 5).size == 4
    with pytest.raises(ValueError):
        StrandDiagram(4, [(3, 3)])
    with pytest.raises(ValueError):
        StrandDiagram(4, [(2, 5)])
    assert StrandDiagram(4, [(1, 3), (2, 4)]).is_staircase_like()
    assert not StrandDiagram(4, [(2, 3), (1, 2)]).is_staircase_like()


def test_text_format_round_trip():
    d = StrandDiagram(4, [(2, 3), (1, 2), (3, 4), (2, 3)])
    assert format_diagram(d) == "n=4; [2,3] [1,2] [3,4] [2,3]"
    assert parse_diagram(format_diagram(d)) == d
    assert parse_diagram("n=3;") == StrandDiagram(3)
    assert d.to_json_dict() == {
        "n": 4,
        "crossings": [[2, 3], [1, 2], [3, 4], [2, 3]],
    }


def test_weighted_diagram_dot_placement():
    wd(4, [(1, 2), (3, 4)], (0, 0, 1, 0))  # free strand right of the top crossing: fine
    wd(3, [(1, 2)], (0, 0, 2))  # trailing strand: fine
    with pytest.raises(ValueError):
        wd(4, [(2, 3), (3, 4)], (1, 0, 0, 0))  # left of the top crossing
    with pytest.raises(ValueError):
        wd(3, [], (0, -1, 0))


# -- colorings ---------------------------------------------------------------


def test_colored_permutations_single_crossing():
    for n in (2, 3, 4):
        census = colored_permutations(StrandDiagram(n, [(1, n)]))
        assert census == {sigma: 1 for sigma in permutations(range(1, n + 1))}


def test_colored_permutations_worked_example():
    # the eight colorings of the (2,1) diagram, each occurring exactly once
    expected = {
        (1, 2, 3, 4): 1,
        (1, 2, 4, 3): 1,
        (1, 3, 2, 4): 1,
        (1, 4, 2, 3): 1,
        (2, 1, 3, 4): 1,
        (2, 1, 4, 3): 1,
        (3, 1, 2, 4): 1,
        (4, 1, 2, 3): 1,
    }
    assert colored_permutations(D21) == expected


def test_colored_permutations_multiplicity_two():
    census = colored_permutations(StrandDiagram(4, [(1, 3), (2, 4)]))
    assert sum(census.values()) == 36
    assert len(census) == 18
    assert all(count == 2 for count in census.values())
    assert all(sigma[3] >= 2 for sigma in census)


def test_mass_conservation():
    for crossings in ([(1, 2)], [(1, 3), (2, 4)], [(2, 3), (1, 2), (3, 4), (2, 3)]):
        d = StrandDiagram(4, crossings)
        census = colored_permutations(d)
        assert sum(census.values()) == coloring_budget(d)


def test_coloring_guard():
    with pytest.raises(GuardExceededError):
        colored_permutations(StrandDiagram(11, [(1, 11)]))


# -- diagram_csf -------------------------------------------------------------


def test_diagram_csf_worked_example():
    assert diagram_csf(D21, "distinct") == EXAMPLE_213_P
    assert diagram_csf(D21, "multiset") == EXAMPLE_213_P


def test_diagram_csf_general_example():
    d = StrandDiagram(4, [(2, 3), (1, 2), (3, 4), (2, 3)])
    value = diagram_csf(d, "multiset")
    assert value == (
        2 * p((1, 1, 1, 1)) + 6 * p((2, 1, 1)) + 4 * p((3, 1)) + 2 * p((2, 2)) + 2 * p(4)
    )
    assert to_basis(value, "h") == 4 * h((2, 2)) + 4 * h((3, 1)) + 8 * h(4)


def test_diagram_csf_single_crossing():
    value = diagram_csf(StrandDiagram(3, [(1, 3)]), "distinct")
    assert value == p((1, 1, 1)) + 3 * p((2, 1)) + 2 * p(3)
    assert to_basis(value, "h") == 6 * h(3)


def test_distinct_oracle_set_equality_all_shapes():
    # distinct colorings realize exactly the position-restricted permutations
    for n in range(1, 7):
        for shape in enumerate_shapes(n):
            census = colored_permutations(diagram_from_lambda(shape))
            bounds = [shape.part(n + 1 - k) for k in range(1, n + 1)]
            expected = {
                sigma
                for sigma in permutations(range(1, n + 1))
                if all(sigma[k - 1] > bounds[k - 1] for k in range(1, n + 1))
            }
            assert set(census) == expected, shape
            assert diagram_csf(diagram_from_lambda(shape), "distinct") == ch_gamma(shape)


def test_multiplicity_free_for_211_avoiding():
    for n in range(1, 7):
        for shape in enumerate_shapes(n, "211-avoiding"):
            census = colored_permutations(diagram_from_lambda(shape))
            assert all(count == 1 for count in census.values()), shape


# -- the trace ---------------------------------------------------------------


def test_trace_single_crossing_of_size_4():
    result = trace_weighted(wd(4, [(1, 4)]))
    base = StrandDiagram(3, [(1, 3)])
    expected = DiagramCombo(
        {
            WeightedDiagram(base, (0, 0, 0)): p(1),
            WeightedDiagram(base, (0, 0, 1)): SymFun.one("p"),
            WeightedDiagram(base, (0, 1, 0)): SymFun.one("p"),
            WeightedDiagram(base, (1, 0, 0)): SymFun.one("p"),
        }
    )
    assert result == expected


def test_trace_with_existing_dot():
    result = trace_weighted(wd(3, [(1, 3)], (0, 0, 1)))
    base = StrandDiagram(2, [(1, 2)])
    expected = DiagramCombo(
        {
            WeightedDiagram(base, (0, 0)): p(2),
            WeightedDiagram(base, (0, 2)): SymFun.one("p"),
            WeightedDiagram(base, (2, 0)): SymFun.one("p"),
        }
    )
    assert result == expected


def test_trace_disjoint_top_crossing():
    result = trace_weighted(wd(4, [(1, 2), (3, 4)]))
    base = StrandDiagram(3, [(1, 2)])
    expected = DiagramCombo(
        {
            WeightedDiagram(base, (0, 0, 0)): p(1),
            WeightedDiagram(base, (0, 0, 1)): SymFun.one("p"),
        }
    )
    assert result == expected
    # iterating to completion matches the oracle for lambda = (2, 2)
    assert trace_to_symfun(StrandDiagram(4, [(1, 2), (3, 4)])) == ch_gamma(
        StaircaseShape(4, (2, 2))
    )


def test_trace_non_traceable():
    with pytest.raises(NonTraceableError):
        trace_weighted(wd(4, [(1, 3), (2, 4)]))


def test_trace_combo_worked_example():
    state = DiagramCombo({wd(4, [(1, 2), (2, 3), (3, 4)]): SymFun.one("p")})
    for _ in range(4):
        state = trace_combo(state)
    assert state == EXAMPLE_213_P


def test_trace_combo_factorial_identity():
    assert trace_to_symfun(StrandDiagram(1)) == p(1)
    for n in range(2, 7):
        value = trace_to_symfun(StrandDiagram(n, [(1, n)]))
        assert value == factorial(n) * to_basis(h(n), "p")


def test_trace_combo_empty_is_zero():
    assert trace_combo(DiagramCombo()) == SymFun.zero("p")


# -- the partial operator ------------------------------------------------------


def test_partial_k_structure():
    d = StrandDiagram(2, [(1, 2)])
    assert partial_k(d, 0) == DiagramCombo({WeightedDiagram(d, (0, 0)): SymFun.one("p")})
    combo = partial_k(d, 2)
    assert combo.coefficient(WeightedDiagram(d, (0, 0))) == to_basis(h(2), "p")
    assert combo.coefficient(WeightedDiagram(d, (0, 1))) == to_basis(h(1), "p")
    assert combo.coefficient(WeightedDiagram(d, (0, 2))) == SymFun.one("p")


@pytest.mark.parametrize("i", range(0, 6))
def test_trace_of_partial_single_strand(i):
    result = trace_combo(partial_k(SINGLE_STRAND, i))
    assert result == (i + 1) * to_basis(h(i + 1), "p")


# -- closed form ----------------------------------------------------------------


def test_closed_form_examples():
    assert closed_form_single_crossing(2, 0) == PartialCombo(
        {(SINGLE_STRAND, 1): SymFun.one("h")}
    )
    assert closed_form_single_crossing(4, 0) == PartialCombo(
        {(SINGLE_STRAND, 3): 6 * SymFun.one("h")}
    )
    assert closed_form_single_crossing(3, 1) == PartialCombo(
        {
            (SINGLE_STRAND, 2): h(1),
            (SINGLE_STRAND, 3): 2 * SymFun.one("h"),
            (SINGLE_STRAND, 0): h(3),
        }
    )
    with pytest.raises(ValueError):
        closed_form_single_crossing(1, 0)


def test_closed_form_matches_brute_force_and_raw():
    for n in range(2, 6):
        for k in range(0, 4):
            simplified = closed_form_single_crossing(n, k)
            assert simplified.is_h_nonnegative()
            expanded = simplified.expand()
            raw = closed_form_single_crossing(n, k, raw=True)
            brute = iterate_trace_partial(StrandDiagram(n, [(1, n)]), k, n - 1)
            assert expanded == raw
            assert expanded == brute


def test_iterate_trace_partial_examples():
    result = iterate_trace_partial(StrandDiagram(3, [(1, 3)]), 0, 2)
    assert result == PartialCombo({(SINGLE_STRAND, 2): 2 * SymFun.one("h")}).expand()

    result = iterate_trace_partial(StrandDiagram(2, [(1, 2)]), 2, 1)
    assert result == PartialCombo(
        {(SINGLE_STRAND, 3): SymFun.one("h"), (SINGLE_STRAND, 0): 2 * h(3)}
    ).expand()

    result = iterate_trace_partial(StrandDiagram(4, [(1, 4)]), 0, 4)
    assert result == 24 * to_basis(h(4), "p")


# -- reduction -------------------------------------------------------------------


def test_reduce_worked_example_with_steps():
    result = reduce_to_h(StaircaseShape(4, (2, 1)))
    assert result.value == 4 * h(4) + 2 * h((3, 1)) + 2 * h((2, 2))

    d3 = StrandDiagram(3, [(1, 2), (2, 3)])
    d2 = StrandDiagram(2, [(1, 2)])
    assert result.steps[1] == PartialCombo({(d3, 1): SymFun.one("h")})
    assert result.steps[2] == PartialCombo({(d2, 2): SymFun.one("h"), (d2, 0): h(2)})
    assert result.steps[3] == PartialCombo(
        {
            (SINGLE_STRAND, 3): SymFun.one("h"),
            (SINGLE_STRAND, 0): 2 * h(3),
            (SINGLE_STRAND, 1): h(2),
        }
    )


def test_reduce_simple_cases():
    assert reduce_to_h(StaircaseShape(3)).value == 6 * h(3)
    assert reduce_to_h(StaircaseShape(4, (2, 2))).value == 4 * h((2, 2))
    assert reduce_to_h(StaircaseShape(4, (3, 2, 1))).value == h((1, 1, 1, 1))
    big = reduce_to_h(StaircaseShape(6, (4, 3, 1, 1)))
    assert big.value == to_basis(ch_gamma(StaircaseShape(6, (4, 3, 1, 1))), "h")


def test_reduce_requires_avoidance_by_default():
    with pytest.raises(ValueError):
        reduce_to_h(StaircaseShape(4, (1,)))
    with pytest.raises(NonTraceableError):
        reduce_to_h(StaircaseShape(4, (1,)), require_211=False)


def test_reduce_matches_oracle_and_stays_positive():
    for n in range(2, 8):
        for shape in enumerate_shapes(n, "211-avoiding"):
            result = reduce_to_h(shape)
            assert result.value == to_basis(ch_gamma(shape), "h"), shape
            assert all(c >= 0 for _, c in result.value.terms())
            for step in result.steps:
                assert step.is_h_nonnegative(), shape


def test_reduce_degree_bookkeeping():
    for n in range(2, 7):
        for shape in enumerate_shapes(n, "211-avoiding"):
            for step in reduce_to_h(shape).steps:
                assert step.degree_constant() == n, shape


# -- search ----------------------------------------------------------------------


def test_search_contains_general_example():
    target = ((2, 3), (1, 2), (3, 4), (2, 3))
    found = None
    for record in search_general(4, 4, threads=1):
        if tuple(tuple(c) for c in record.diagram.crossings) == target:
            found = record
            break
    assert found is not None
    assert found.positive
    assert found.values == 4 * h((2, 2)) + 4 * h((3, 1)) + 8 * h(4)


def test_search_two_strand_powers():
    records = list(search_general(2, 5, threads=1))
    assert len(records) == 5
    for j, record in enumerate(records, start=1):
        assert record.positive
        assert record.values == 2**j * h(2)


def test_search_exhaustive_small_no_counterexamples():
    for record in search_general(3, 3, threads=1):
        assert record.positive


def test_search_random_reproducible():
    first = list(search_general(4, 3, mode="random", seed=99, count=12, threads=1))
    second = list(search_general(4, 3, mode="random", seed=99, count=12, threads=1))
    assert [r.diagram for r in first] == [r.diagram for r in second]
    assert [r.values for r in first] == [r.values for r in second]
    different = list(search_general(4, 3, mode="random", seed=100, count=12, threads=1))
    assert [r.diagram for r in first] != [r.diagram for r in different]


def test_search_warns_when_the_pool_cannot_start(monkeypatch):
    def refuse(max_workers):
        raise OSError("no processes")

    monkeypatch.setattr(diagrams, "ProcessPoolExecutor", refuse)
    with pytest.warns(RuntimeWarning, match=r"2 worker processes \(OSError: no processes\)"):
        fallback = list(search_general(3, 2, threads=2))
    assert fallback == list(search_general(3, 2, threads=1))


def test_search_guard():
    with pytest.raises(GuardExceededError):
        list(search_general(10, 3, threads=1))


def test_generate_search_diagrams_deterministic_order():
    seqs = list(generate_search_diagrams(3, 2))
    assert seqs[:3] == [
        ((Crossing(1, 2),)),
        ((Crossing(1, 3),)),
        ((Crossing(2, 3),)),
    ]
    assert len(seqs) == 3 + 9


# -- verdicts --------------------------------------------------------------------


def test_csf_h_positive_on_staircase_family():
    for n in range(2, 7):
        for shape in enumerate_shapes(n):
            verdict = is_h_positive(ch_gamma(shape))
            assert verdict.positive, shape
