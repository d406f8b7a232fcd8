import hashlib
import os
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandtrace import (
    Crossing,
    DiagramCombo,
    NonTraceableError,
    Partition,
    PartialCombo,
    StaircaseShape,
    StrandDiagram,
    SymFun,
    WeightedDiagram,
    ch_gamma,
    cli,
    closed_form_single_crossing,
    colored_permutations,
    diagram_csf,
    diagram_from_lambda,
    diagrams,
    enumerate_shapes,
    format_diagram,
    h,
    incomparability_graph,
    is_h_positive,
    iterate_trace_partial,
    kernels,
    p,
    parse_diagram,
    partial_k,
    poset_from_lambda,
    reduce_to_h,
    search_general,
    symfun,
    to_basis,
    trace_combo,
    trace_to_symfun,
    trace_weighted,
)
from strandtrace.diagrams import SINGLE_STRAND, generate_search_diagrams
from strandtrace.errors import GuardExceededError
from strandtrace.strands import _staircase_like

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
        assert sum(census.values()) == prod(factorial(c.size) for c in d.crossings)


def test_coloring_guard():
    with pytest.raises(GuardExceededError):
        colored_permutations(StrandDiagram(11, [(1, 11)]))


def test_coloring_guard_message():
    """The refusal names the diagram, its census work and the guard:
    11! fills of [1,11] and one last coset."""
    with pytest.raises(GuardExceededError) as info:
        colored_permutations(StrandDiagram(11, [(1, 11)]))
    assert str(info.value) == (
        "StrandDiagram(11, [(1, 11)]): census work 39916801 exceeds the guard 10000000"
    )


def test_multiset_guard_leaves_out_the_expansion():
    # 120 last cosets of S_9: 43,545,721 states expanded, 241 + 9! without;
    # only colored_permutations expands, and both sums read the cosets
    d = StrandDiagram(13, [(1, 5), (5, 13)])
    with pytest.raises(GuardExceededError, match="census work 43545721 exceeds"):
        colored_permutations(d)
    assert sum(diagram_csf(d, "multiset").coefficients().values()) == factorial(5) * factorial(9)
    # the windows share one strand, so the 5! * 9! colorings are distinct composites
    assert sum(diagram_csf(d, "distinct").coefficients().values()) == factorial(5) * factorial(9)


def test_multiset_guard_counts_the_joined_cycles_table():
    # one last coset, but its joined-cycles table over 24 paths is charged 24!
    with pytest.raises(GuardExceededError):
        diagram_csf(StrandDiagram(24, [(1, 24)]), "multiset")


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


@st.composite
def random_diagrams(draw, min_strands=2):
    n = draw(st.integers(min_strands, 6))
    if n < 2:
        return StrandDiagram(n)
    window = st.tuples(st.integers(1, n - 1), st.integers(2, n)).filter(lambda c: c[0] < c[1])
    return StrandDiagram(n, draw(st.lists(window, max_size=4)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(random_diagrams(min_strands=0))
def test_prop_diagram_text_and_json_round_trips(d):
    assert parse_diagram(format_diagram(d)) == d
    assert StrandDiagram(**d.to_json_dict()) == d


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(random_diagrams())
def test_multiset_csf_is_invariant_under_the_search_symmetries(d):
    """The symmetries that search_general evaluates once per orbit."""
    value = diagram_csf(d, "multiset")
    crossings = d.crossings
    rotated = crossings[1:] + crossings[:1]
    reflected = [(d.n + 1 - c.j, d.n + 1 - c.i) for c in crossings]
    for image in (rotated, crossings[::-1], reflected):
        assert diagram_csf(StrandDiagram(d.n, image), "multiset") == value


def test_integer_results_hold_int_coefficients():
    def int_only(f):
        return all(type(c) is int for c in f.coefficients().values())

    for n in range(1, 7):
        for shape in enumerate_shapes(n, "211-avoiding"):
            diagram = diagram_from_lambda(shape)
            assert int_only(ch_gamma(shape)), shape
            assert int_only(trace_to_symfun(diagram)), shape
            assert int_only(diagram_csf(diagram, "distinct")), shape
            assert int_only(diagram_csf(diagram, "multiset")), shape
            result = reduce_to_h(shape)
            assert int_only(result.value), shape
            assert all(
                int_only(coeff) for step in result.steps for _, coeff in step.terms()
            ), shape


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


def distinct_csf_reference(d):
    """The distinct coloring sum by expansion: every composite of the
    expanded census cycle-typed, each counted once."""
    table = {}
    for images in kernels.colored_census(d.n, d.crossings):
        lam = kernels.cycle_type(images)
        table[lam] = table.get(lam, 0) + 1
    return SymFun("p", table)


def test_distinct_csf_matches_the_expansion_on_every_shape():
    for n in range(1, 8):
        for shape in enumerate_shapes(n):
            diagram = diagram_from_lambda(shape)
            assert diagram_csf(diagram, "distinct") == distinct_csf_reference(diagram), shape


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(random_diagrams())
def test_distinct_csf_matches_the_expansion(d):
    """Repeated, nested and overlapping crossings, where composites can
    have different multiplicities."""
    assert diagram_csf(d, "distinct") == distinct_csf_reference(d)


def test_staircase_composites_share_one_multiplicity():
    """Every composite of a staircase diagram has the same coloring
    multiplicity, so the composites times it are all the colorings."""
    for n in range(1, 8):
        for shape in enumerate_shapes(n):
            diagram = diagram_from_lambda(shape)
            census = kernels.colored_census(diagram.n, diagram.crossings)
            (multiplicity,) = set(census.values())
            colorings = prod(factorial(c.size) for c in diagram.crossings)
            assert len(census) * multiplicity == colorings, shape


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


def staircase_diagrams_with_top_at(n, max_crossings):
    """Every staircase-like diagram on n strands with 1..max_crossings
    crossings whose top crossing ends at strand n."""
    for k in range(1, max_crossings + 1):
        for lefts in combinations(range(1, n), k):
            for rights in combinations(range(2, n), k - 1):
                rights += (n,)
                if all(i < j for i, j in zip(lefts, rights)):
                    yield StrandDiagram(n, list(zip(lefts, rights)))


def test_trace_step_rejects_exactly_the_strips_that_leave_the_class():
    seen = 0
    for n in range(2, 7):
        for d in staircase_diagrams_with_top_at(n, 4):
            top = d.crossings[-1]
            stripped = d.crossings[:-1]
            if top.j - 1 > top.i:
                stripped += (Crossing(top.i, top.j - 1),)
            table = {((0,) * n, ()): 1}
            if _staircase_like(stripped):
                crossings, _ = diagrams._trace_step(n, d.crossings, table)
                assert crossings == stripped
            else:
                with pytest.raises(NonTraceableError, match="leaves the staircase-like class"):
                    diagrams._trace_step(n, d.crossings, table)
            seen += 1
    assert seen == 130


def trace_step_reference(n, crossings, table, steps):
    """The strip loop on tuple keys: every term's (weights, parts) is copied
    and the new part inserted into its sorted parts at each strip."""
    if n < steps:
        raise ValueError("cannot trace a zero-strand diagram")
    if steps and not _staircase_like(crossings):
        raise NonTraceableError("not staircase-like")
    for strands in range(n, n - steps, -1):
        top = crossings[-1] if crossings else None
        engaged = ()
        if top is not None and top.j == strands:
            shrunk = crossings[:-1]
            if top.j - 1 > top.i:
                if shrunk and shrunk[-1].j >= top.j - 1:
                    raise NonTraceableError("leaves the staircase-like class")
                shrunk = shrunk + (Crossing(top.i, top.j - 1),)
            crossings = shrunk
            engaged = range(top.i - 1, strands - 1)
        out = {}
        for (weights, parts), coeff in table.items():
            a = weights[-1] + 1
            rest = weights[:-1]
            key = (rest, tuple(sorted(parts + (a,), reverse=True)))
            out[key] = out.get(key, 0) + coeff
            for s in engaged:
                dotted = list(rest)
                dotted[s] += a
                key = (tuple(dotted), parts)
                out[key] = out.get(key, 0) + coeff
        table = out
    return crossings, table


def strip_outcome(strip, *args):
    try:
        return strip(*args)
    except (NonTraceableError, ValueError) as exc:
        return type(exc)


def test_packed_trace_step_strips_like_the_tuple_loop():
    """Every staircase-like diagram on at most 6 strands, stripped 0 to n + 1
    times from each of its weighted terms alone and from all of them on one
    table: no dots, and on each strand that may carry dots (the top
    crossing's and those right of it) dots without and with parts.  A term
    alone sets the digit width from its own mass, so its largest digit meets
    the width's top value, as n parts 1 of the crossing-free diagram do; the
    terms' masses run from 1 to 23, every width from 1 to 5 bits."""
    cases = 0
    for d in staircase_diagrams(6):
        n = d.n
        first = d.crossings[-1].i if d.crossings else 1
        terms = {((0,) * n, ()): 1}
        for s in range(first, n + 1):
            weights = tuple(s + 1 if t == s else 0 for t in range(1, n + 1))
            terms[weights, ()] = 1
            terms[weights, tuple(sorted((s, 2, 1, 1), reverse=True))] = s
        for table in [dict([term]) for term in terms.items()] + [terms]:
            for steps in range(n + 2):
                expected = strip_outcome(trace_step_reference, n, d.crossings, table, steps)
                assert strip_outcome(diagrams._trace_step, n, d.crossings, table, steps) == expected
                cases += 1
    assert cases == 12282


@pytest.mark.parametrize("mass", [7, 8, 15, 16])
def test_packed_trace_step_at_the_digit_width_boundaries(mass):
    """partial_k [1, n] with n + k = mass, the table iterate_trace_partial
    strips: every term has that mass, whose bit length grows from 7 to 8 and
    from 15 to 16, and k >= 2 gives it Fraction coefficients (h_k in the p
    basis)."""
    for n in range(2, min(mass - 2, 7) + 1):
        d = StrandDiagram(n, [(1, n)])
        table = {
            (wd.weights, lam): c
            for wd, coeff in partial_k(d, mass - n)._table.items()
            for lam, c in coeff.coefficients().items()
        }
        assert any(isinstance(c, Fraction) for c in table.values())
        expected = trace_step_reference(n, d.crossings, table, n - 1)
        assert diagrams._trace_step(n, d.crossings, table, n - 1) == expected


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


def test_trace_combo_is_the_sum_of_single_term_traces():
    # two diagrams that strip to the same one, with Fraction coefficients
    terms = [
        (wd(3, [(1, 2)], (0, 1, 2)), Fraction(1, 3) * p(2) + to_basis(h(2), "p")),
        (wd(3, [(1, 2), (2, 3)], (0, 1, 0)), Fraction(-5, 2) * p((1, 1))),
        (wd(3, [(1, 2), (2, 3)]), to_basis(h(3), "p")),
    ]
    singles = [
        term
        for wd_, coeff in terms
        for term in trace_combo(DiagramCombo({wd_: coeff})).terms()
    ]
    combined = trace_combo(DiagramCombo(terms))
    assert len({wd_.diagram for wd_, _ in combined.terms()}) == 1
    assert combined == DiagramCombo(singles)


def test_trace_combo_rejects_a_fully_traced_combo():
    with pytest.raises(ValueError, match="already fully traced"):
        trace_combo(DiagramCombo({wd(0, []): p(1), wd(2, [(1, 2)]): p(1)}))


COMBO_KEYS = {
    DiagramCombo: [wd(1, []), wd(1, [], (2,)), wd(2, [(1, 2)], (0, 1))],
    PartialCombo: [(SINGLE_STRAND, 0), (SINGLE_STRAND, 2), (StrandDiagram(2, [(1, 2)]), 1)],
}
NUMBERS = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
)


@st.composite
def combo_coefficients(draw):
    """A plain number, or a SymFun in any basis, as a combo term's coefficient."""
    if draw(st.booleans()):
        return draw(NUMBERS)
    parts = st.sampled_from([(), (1,), (2,), (1, 1), (3,), (2, 1)])
    terms = draw(st.lists(st.tuples(parts, NUMBERS), max_size=3))
    return SymFun(draw(st.sampled_from(symfun.BASES)), terms)


def with_cancelling_terms(draw, terms):
    """``terms`` and the negations of a few of them, so some keys cancel."""
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    return terms + [(key, -1 * coeff) for key, coeff in cancelled]


def summed_in(basis, coeffs):
    """The sum of the coefficients, each converted to ``basis``, numbers as
    multiples of 1."""
    total = SymFun.zero(basis)
    for coeff in coeffs:
        if not isinstance(coeff, SymFun):
            coeff = coeff * SymFun.one(basis)
        total = total + to_basis(coeff, basis)
    return total


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([DiagramCombo, PartialCombo]), st.data())
def test_prop_combo_coefficient_is_the_sum_of_its_terms(cls, data):
    keys = COMBO_KEYS[cls]
    terms = data.draw(st.lists(st.tuples(st.sampled_from(keys), combo_coefficients()), max_size=8))
    terms = with_cancelling_terms(data.draw, terms)
    combo = cls(terms)
    expected = {key: summed_in(cls.basis, [c for k, c in terms if k == key]) for key in keys}
    assert len(combo) == sum(not value.is_zero() for value in expected.values())
    for key, value in expected.items():
        got = combo.coefficient(key) if cls is DiagramCombo else combo.coefficient(*key)
        assert got.basis == cls.basis
        assert got == value
        assert all(type(c) in (int, Fraction) for c in got.coefficients().values())


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_prop_scalar_combo_to_symfun_is_the_sum_of_its_terms(data):
    terms = data.draw(st.lists(st.tuples(st.just(wd(0, [])), combo_coefficients()), max_size=5))
    terms = with_cancelling_terms(data.draw, terms)
    combo = DiagramCombo(terms)
    assert combo.is_scalar()
    assert combo.to_symfun() == summed_in("p", [c for _, c in terms])


AVOIDING_SHAPES = st.integers(1, 8).flatmap(
    lambda n: st.sampled_from(list(enumerate_shapes(n, "211-avoiding")))
)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(AVOIDING_SHAPES)
def test_trace_equals_reduction_and_oracle(shape):
    traced = trace_to_symfun(diagram_from_lambda(shape))
    assert traced == to_basis(reduce_to_h(shape).value, "p") == ch_gamma(shape)


def test_trace_past_the_oracle_guard():
    # every 1000th avoiding shape at n = 12, checked against the h-positive
    # reduction alone; the oracle refuses n > 10
    shapes = list(enumerate_shapes(12, "211-avoiding"))[::1000]
    assert len(shapes) == 29
    for shape in shapes:
        traced = trace_to_symfun(diagram_from_lambda(shape))
        assert traced == to_basis(reduce_to_h(shape).value, "p"), shape


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


def staircase_diagrams(max_strands):
    """Every staircase-like diagram on 1..max_strands strands."""
    for n in range(1, max_strands + 1):
        for k in range(n):
            for lefts in combinations(range(1, n), k):
                for rights in combinations(range(2, n + 1), k):
                    if all(i < j for i, j in zip(lefts, rights)):
                        yield StrandDiagram(n, list(zip(lefts, rights)))


def traced_one_strand_at_a_time(diagram, k, steps):
    """The reference for iterate_trace_partial: one trace_combo call per
    strand, each regrouping the combo it returns."""
    state = partial_k(diagram, k)
    for _ in range(steps):
        if isinstance(state, SymFun):
            raise ValueError("combo fully traced before the requested step count")
        state = trace_combo(state)
    return state


def trace_outcome(trace, *args):
    try:
        return trace(*args)
    except (NonTraceableError, ValueError) as exc:
        return type(exc), str(exc)


def test_iterated_trace_equals_one_trace_combo_per_strand():
    cases = raised = 0
    for d in staircase_diagrams(5):
        for k in range(4):
            for steps in range(d.n + 2):
                expected = trace_outcome(traced_one_strand_at_a_time, d, k, steps)
                assert trace_outcome(iterate_trace_partial, d, k, steps) == expected
                cases += 1
                raised += isinstance(expected, tuple)
    assert (cases, raised) == (1656, 420)


def test_a_strip_that_leaves_the_class_names_the_diagram_it_strips():
    d = StrandDiagram(5, [(1, 3), (2, 5)])
    message = re.escape("stripping StrandDiagram(4, [(1, 3), (2, 4)]) leaves the staircase-like class")
    with pytest.raises(NonTraceableError, match=message):
        trace_to_symfun(d)
    with pytest.raises(NonTraceableError, match=message):
        iterate_trace_partial(d, 1, 3)


def test_iterated_trace_past_the_last_strand_is_refused():
    with pytest.raises(ValueError, match="combo fully traced before the requested step count"):
        iterate_trace_partial(StrandDiagram(3, [(1, 3)]), 1, 4)


def test_zero_steps_of_the_iterated_trace_is_partial_k_on_any_diagram():
    d = StrandDiagram(4, [(1, 3), (1, 4)])
    assert not d.is_staircase_like()
    for k in range(4):
        assert iterate_trace_partial(d, k, 0) == partial_k(d, k)


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


# sha256 of the step log of every avoiding shape with n <= 7, one
# `compute --log-steps` line per step, shapes in enumeration order
STEP_LOG_SHA256 = "87784aa41c99eff576109b3ddfc7b19d33866c805d81e63aa699c847886da024"


def avoiding_reductions(max_n):
    for n in range(1, max_n + 1):
        for shape in enumerate_shapes(n, "211-avoiding"):
            yield shape, reduce_to_h(shape)


def test_reduce_steps_trace_back_to_the_value():
    # each logged state, expanded and traced to the end, is the value again
    count = 0
    for shape, result in avoiding_reductions(7):
        value = to_basis(result.value, "p")
        for step in result.steps:
            state = step.expand()
            while not isinstance(state, SymFun):
                state = state.to_symfun() if state.is_scalar() else trace_combo(state)
            assert state == value, (shape, step.to_json_dict())
            count += 1
    assert count == 2362


def test_reduce_step_log_is_pinned_and_canonical():
    digest = hashlib.sha256()
    count = 0
    for shape, result in avoiding_reductions(7):
        for step in result.steps:
            digest.update((cli._jsonl(step.to_json_dict()) + "\n").encode())
            count += 1
            assert step == PartialCombo(step.terms()), shape
            for (diagram, b), coeff in step.terms():
                assert diagram == StrandDiagram(diagram.n, diagram.crossings), shape
                assert type(b) is int and coeff.basis == "h"
                assert coeff == SymFun("h", coeff.coefficients()), shape
                for lam, c in coeff.coefficients().items():
                    assert type(lam) is Partition, shape
                    assert list(lam) == sorted(lam, reverse=True), shape
                    assert type(c) is int and c > 0, shape
        assert result.value == result.steps[-1].coefficient(StrandDiagram(0), 0)
    assert count == 2362
    assert digest.hexdigest() == STEP_LOG_SHA256


def test_reduction_past_the_oracle_guard_gives_the_chromatic_polynomial():
    # omega turns h_mu into e_mu, and e_mu(1^m) = prod C(m, mu_i), so the
    # reduction evaluated this way counts proper m-colorings.  The natural
    # labelling is a perfect elimination order: the earlier neighbours of
    # each vertex form a clique, so it has that many colors ruled out.
    shapes = list(enumerate_shapes(12, "211-avoiding"))[::100]
    assert len(shapes) == 287
    for shape in shapes:
        value = reduce_to_h(shape).value
        edges = incomparability_graph(poset_from_lambda(shape)).edges
        earlier = [[u for u in range(1, v) if (u, v) in edges] for v in range(1, 13)]
        for clique in earlier:
            assert all((u, w) in edges for u in clique for w in clique if u < w), shape
        for m in range(1, 14):
            evaluated = sum(
                c * prod(comb(m, part) for part in lam)
                for lam, c in value.coefficients().items()
            )
            assert evaluated == prod(m - len(clique) for clique in earlier), (shape, m)


# -- search ----------------------------------------------------------------------


def sweep(monkeypatch, workers, *args, **options):
    """search_general's records as a list, with STRAND_TRACE_THREADS set to
    ``workers``."""
    monkeypatch.setenv("STRAND_TRACE_THREADS", str(workers))
    return list(search_general(*args, **options))


def test_search_contains_general_example(monkeypatch):
    monkeypatch.setenv("STRAND_TRACE_THREADS", "1")
    target = ((2, 3), (1, 2), (3, 4), (2, 3))
    found = None
    for record in search_general(4, 4):
        if tuple(tuple(c) for c in record.diagram.crossings) == target:
            found = record
            break
    assert found is not None
    assert found.positive
    assert found.values == 4 * h((2, 2)) + 4 * h((3, 1)) + 8 * h(4)


def test_search_two_strand_powers(monkeypatch):
    records = sweep(monkeypatch, 1, 2, 5)
    assert len(records) == 5
    for j, record in enumerate(records, start=1):
        assert record.positive
        assert record.values == 2**j * h(2)


@pytest.mark.parametrize("threads", [1, 2])
def test_search_records_hold_int_coefficients(monkeypatch, threads):
    # the values cross the pool pickled and must come back as int
    monkeypatch.setattr(diagrams, "_WORK_PER_WORKER", 1)
    records = sweep(monkeypatch, threads, 3, 2)
    assert records[0].values == 2 * h((2, 1))
    for record in records:
        assert all(type(c) is int for c in record.values.coefficients().values()), record


def test_search_exhaustive_small_no_counterexamples(monkeypatch):
    for record in sweep(monkeypatch, 1, 3, 3):
        assert record.positive


def test_search_random_reproducible(monkeypatch):
    first = sweep(monkeypatch, 1, 4, 3, mode="random", seed=99, count=12)
    second = sweep(monkeypatch, 1, 4, 3, mode="random", seed=99, count=12)
    assert [r.diagram for r in first] == [r.diagram for r in second]
    assert [r.values for r in first] == [r.values for r in second]
    different = sweep(monkeypatch, 1, 4, 3, mode="random", seed=100, count=12)
    assert [r.diagram for r in first] != [r.diagram for r in different]


def test_search_warns_when_the_pool_cannot_start(monkeypatch):
    def refuse(max_workers):
        raise OSError("no processes")

    monkeypatch.setattr(diagrams, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(diagrams, "_WORK_PER_WORKER", 1)
    with pytest.warns(RuntimeWarning, match=r"2 worker processes \(OSError: no processes\)"):
        fallback = sweep(monkeypatch, 2, 3, 2)
    assert fallback == sweep(monkeypatch, 1, 3, 2)


def test_a_pool_that_fails_its_probe_is_shut_down(monkeypatch):
    shutdowns = []

    class Pool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            if fn is diagrams._probe:
                future = Future()
                future.set_exception(OSError("worker died"))
                return future
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            shutdowns.append((args, kwargs))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(diagrams, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(diagrams, "_WORK_PER_WORKER", 1)
    with pytest.warns(RuntimeWarning, match=r"2 worker processes \(OSError: worker died\)"):
        fallback = sweep(monkeypatch, 2, 3, 2)
    assert shutdowns == [((), {"wait": False, "cancel_futures": True})]
    assert fallback == sweep(monkeypatch, 1, 3, 2)


def test_default_worker_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("STRAND_TRACE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert diagrams._worker_count() == 1
    # platforms without affinity masks fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert diagrams._worker_count() == 64
    monkeypatch.setenv("STRAND_TRACE_THREADS", "3")
    assert diagrams._worker_count() == 3


def test_search_guard(monkeypatch):
    with pytest.raises(GuardExceededError):
        sweep(monkeypatch, 1, 10, 3)


@pytest.mark.parametrize(
    "strands,max_crossings,options",
    [
        (4, 3, {}),
        # 60 draws from 12 sequences: every orbit is drawn many times
        (3, 2, {"mode": "random", "seed": 5, "count": 60}),
    ],
)
def test_search_records_equal_evaluating_every_diagram(
    monkeypatch, strands, max_crossings, options
):
    records = sweep(monkeypatch, 1, strands, max_crossings, **options)
    sequences = list(generate_search_diagrams(strands, max_crossings, **options))
    assert [r.diagram.crossings for r in records] == sequences
    for record, crossings in zip(records, sequences):
        verdict = is_h_positive(diagram_csf(StrandDiagram(strands, crossings), "multiset"))
        assert symfun.to_json_dict(record.values) == symfun.to_json_dict(verdict.coefficients)
        assert record.positive == verdict.positive
        assert record.witness == verdict.witness


def least_image(strands, crossings):
    """The least sequence among the rotations and reversals of a crossing
    sequence and of its reflection i -> strands+1-i: a key of its orbit,
    kept as a reference for the sweep's orbit table."""
    crossings = tuple(map(tuple, crossings))
    top = strands + 1
    mirrored = tuple([(top - j, top - i) for i, j in crossings])
    return min(
        seq[r:] + seq[:r]
        for seq in (crossings, crossings[::-1], mirrored, mirrored[::-1])
        for r in range(len(seq))
    )


@pytest.mark.parametrize(
    "strands,max_crossings,options",
    [(5, 3, {}), (4, 4, {}), (3, 5, {}), (4, 4, {"mode": "random", "seed": 7, "count": 500})],
)
def test_orbit_table_splits_like_the_least_image(strands, max_crossings, options):
    sequences = list(generate_search_diagrams(strands, max_crossings, **options))
    keys = {}
    expected = [keys.setdefault(least_image(strands, c), len(keys)) for c in sequences]
    indexed = list(diagrams._orbit_indices(strands, sequences))
    assert [crossings for crossings, _ in indexed] == sequences
    assert [index for _, index in indexed] == expected


def test_a_periodic_first_member_registers_each_distinct_image_once():
    """k copies of [1,2] on two strands are their own rotations, reversal
    and reflection: one distinct image.  Every lookup or registration of a
    sequence hashes its k crossings, so counting the hashes of a counted
    [1,2] counts the table's work: a few lookups and one registration, not
    the 4k rotations and reversals, which would hash 2k**2 of them."""
    hashes = []

    class Counted(Crossing):
        __slots__ = ()

        def __hash__(self):
            hashes.append(1)
            return tuple.__hash__(self)

    k = 200
    periodic = (Counted(1, 2),) * k
    indexed = list(diagrams._orbit_indices(2, [periodic, periodic]))
    assert [index for _, index in indexed] == [0, 0]
    # the first member: its lookup, its reflection's crossings, its own
    # membership test and registration, and its reversal's membership test;
    # then the second member's lookup
    assert len(hashes) <= 6 * k


def test_random_registration_is_bounded_by_the_record_guard(monkeypatch):
    """One random draw of 99 crossings on 3 strands passes a record guard of
    1,000 (count x max-crossings is 200), but its orbit images hold up to
    4 x 99 x 99 crossings: the 11th image, which would take the registered
    crossings to 1,089, is refused before any evaluation."""
    monkeypatch.setattr(diagrams, "RECORD_GUARD", 1000)
    assert len(next(generate_search_diagrams(3, 200, "random", 0, 1))) == 99
    message = (
        "search with 3 strands, first 1 orbits: registered orbit images of at least 1089 "
        "crossings exceed the guard 1000"
    )
    with pytest.raises(GuardExceededError) as refused:
        list(search_general(3, 200, "random", 0, 1))
    assert str(refused.value) == message


def test_exhaustive_registration_fits_the_record_guard_exactly(monkeypatch):
    """4 x 3 writes 6 + 2 * 36 + 3 * 216 = 726 crossings and registers each
    of its records as an image once: at a record guard of exactly 726 the
    sweep yields all 258 records, while registering the same sequences
    under 725 is refused at its last image."""
    monkeypatch.setenv("STRAND_TRACE_THREADS", "1")
    monkeypatch.setattr(diagrams, "RECORD_GUARD", 726)
    assert len(list(search_general(4, 3))) == 258
    monkeypatch.setattr(diagrams, "RECORD_GUARD", 725)
    with pytest.raises(GuardExceededError, match="images of at least 726 crossings exceed"):
        list(diagrams._orbit_indices(4, generate_search_diagrams(4, 3)))


@pytest.mark.parametrize(
    "strands,max_crossings,work,orbits,records",
    # 8 x 3 runs under the guard; 7 x 4 and 9 x 3 do not
    [(4, 3, 374, 49, 258), (8, 3, 6_057_281, 2_294, 22_764)],
)
def test_sweep_bounds_the_walk_of_its_first_members(
    strands, max_crossings, work, orbits, records
):
    generated, firsts, bound, _, _ = diagrams._plan_sweep(
        strands, max_crossings, "exhaustive", 0, 0
    )
    assert (bound, len(firsts), len(generated)) == (work, orbits, records)
    assert bound <= diagrams.COLORING_GUARD


def test_search_six_strands_three_crossings(monkeypatch):
    """6!**3 colorings of the widest sequence would exceed COLORING_GUARD;
    the walk over the 429 orbits is bounded by 37,571 states."""
    records = sweep(monkeypatch, 1, 6, 3)
    assert len(records) == 3615
    for record in records:
        assert record.positive
        sizes = [c.size for c in record.diagram.crossings]
        assert sum(record.values.coefficients().values()) == prod(map(factorial, sizes))
        if len(sizes) == 1:
            s = sizes[0]
            assert record.values == factorial(s) * h((s,) + (1,) * (6 - s))


@pytest.mark.parametrize("threads", [1, 2])
def test_search_failure_names_the_diagram(monkeypatch, threads):
    real = kernels._next_cosets

    def failing(n, cosets, held, crossing):
        # the step from [1,2] to [1,3]: only n=3; [1,2] [1,3] walks it
        if held == (1, 2) and crossing == (1, 3):
            raise ValueError("no census")
        return real(n, cosets, held, crossing)

    monkeypatch.setattr(kernels, "_next_cosets", failing)
    monkeypatch.setattr(diagrams, "_WORK_PER_WORKER", 1)
    with pytest.raises(ValueError, match=r"evaluating n=3; \[1,2\] \[1,3\]: no census"):
        sweep(monkeypatch, threads, 3, 2)


def test_search_pool_chunks_reach_every_worker(monkeypatch):
    runs = []

    class Pool(ThreadPoolExecutor):
        def map(self, fn, payloads):
            runs.append([len(firsts) for _, firsts in payloads])
            return super().map(fn, payloads)

    monkeypatch.setattr(diagrams, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(diagrams, "_WORK_PER_WORKER", 1)
    assert sweep(monkeypatch, 2, 4, 3) == sweep(monkeypatch, 1, 4, 3)
    # 49 orbits on 2 workers, in contiguous runs of 6
    assert runs == [[6] * 8 + [1]]


def test_orbits_with_equal_coloring_sums_share_a_verdict(monkeypatch):
    records = sweep(monkeypatch, 1, 4, 3)
    sums = {tuple(sorted(r.values.coefficients().items())) for r in records}
    # 49 orbits, 30 distinct coloring sums
    assert len(sums) == len({id(r.values) for r in records}) == 30


def test_small_search_runs_in_process(monkeypatch):
    started = []

    def refuse(max_workers):
        started.append(max_workers)
        raise OSError("no processes")

    monkeypatch.setattr(diagrams, "ProcessPoolExecutor", refuse)
    # 49 orbits with a summed walk work of 374, far below two workers' worth
    assert len(sweep(monkeypatch, 2, 4, 3)) == 6 + 6**2 + 6**3
    assert started == []


@pytest.mark.parametrize(
    "threads,work_per_worker,workers",
    # 4 x 3 sums a walk work of 374 over its 49 orbits
    [(2, 1, 2), (8, 100, 3), (8, 187, 2), (2, 188, None), (1, 1, None)],
)
def test_search_worker_count_follows_the_census_work(
    monkeypatch, threads, work_per_worker, workers
):
    started = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(diagrams, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(diagrams, "_WORK_PER_WORKER", work_per_worker)
    assert sweep(monkeypatch, threads, 4, 3) == sweep(monkeypatch, 1, 4, 3)
    assert started == ([] if workers is None else [workers])


def test_pool_work_cuts_the_workers_under_the_guard(monkeypatch):
    started = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    generated, firsts, work, rebuilt, tables = diagrams._plan_sweep(4, 3, "exhaustive", 0, 0)
    # on two workers the first members of 8 later runs of 6 rebuild
    # prefixes costing 10, and the second worker's tables cost 2! + 3! + 4!
    assert tables == 32
    assert diagrams._pool_work(rebuilt, tables, 2) == 10 + 32
    assert diagrams._pool_work(rebuilt, tables, 3) > 42
    monkeypatch.setattr(diagrams, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(diagrams, "_WORK_PER_WORKER", 1)
    monkeypatch.setattr(diagrams, "COLORING_GUARD", work + 42)
    assert sweep(monkeypatch, 8, 4, 3) == sweep(monkeypatch, 1, 4, 3)
    assert started == [2]


@pytest.mark.parametrize(
    "strands,max_crossings,mode,seed,count",
    [(4, 3, "exhaustive", 0, 0), (5, 3, "exhaustive", 0, 0), (4, 4, "random", 7, 500)],
)
def test_plan_records_the_cost_of_each_shared_prefix(strands, max_crossings, mode, seed, count):
    """What a worker starting a run on a first member builds again: the step
    costs of the prefix it shares with the member before it, from the empty
    prefix."""
    _, firsts, _, rebuilt, _ = diagrams._plan_sweep(strands, max_crossings, mode, seed, count)
    assert len(rebuilt) == len(firsts)
    previous = ()
    for crossings, cost in zip(firsts, rebuilt):
        expected, cosets, window = 0, 1, (1, 0)
        for crossing in crossings[:kernels._shared_depth(previous, crossings)]:
            step, cosets = kernels.layer_bound(strands, cosets, window, crossing)
            expected += step
            window = crossing
        assert cost == expected, crossings
        previous = crossings


def test_closing_a_search_early_cancels_queued_chunks(monkeypatch):
    real = diagrams._evaluate_run
    first = (Crossing(1, 2),)
    evaluated = []
    gate = threading.Event()

    def evaluate(payload):
        # every run but the first waits until the pool is shut down
        if payload[1][0] != first:
            assert gate.wait(timeout=30)
        evaluated.append(payload)
        return real(payload)

    class Pool(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            gate.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(diagrams, "_evaluate_run", evaluate)
    monkeypatch.setattr(diagrams, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(diagrams, "_WORK_PER_WORKER", 1)
    monkeypatch.setenv("STRAND_TRACE_THREADS", "2")
    records = search_general(4, 3)
    assert next(records).diagram.crossings == first
    records.close()
    # the first run and at most one run in flight per worker; not all 9
    assert len(evaluated) <= 3


def test_crossing_at_reads_an_alphabet_index():
    for strands in range(2, 61):
        alphabet = diagrams.crossing_alphabet(strands)
        assert [diagrams._crossing_at(strands, k) for k in range(len(alphabet))] == alphabet


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
