"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single PASS line (visible with ``pytest -s``) including
its wall time, and asserts the stated runtime budget.
"""

import json
import time
from itertools import permutations
from math import factorial

from strandtrace import (
    StaircaseShape,
    StrandDiagram,
    SymFun,
    ch_gamma,
    closed_form_single_crossing,
    cycle_type,
    diagram_csf,
    diagram_from_lambda,
    diagrams,
    double_sum_identity_check,
    enumerate_shapes,
    h,
    incomparability_graph,
    iterate_trace_partial,
    omega,
    p,
    poset_from_lambda,
    proper_coloring_count,
    reduce_to_h,
    search_general,
    specialize_ones,
    to_basis,
    trace_to_symfun,
)
from strandtrace.cli import main

EXAMPLE_213_P = (
    p((1, 1, 1, 1)) + 3 * p((2, 1, 1)) + 2 * p((3, 1)) + p((2, 2)) + p(4)
)
EXAMPLE_213_H = 2 * h((2, 2)) + 2 * h((3, 1)) + 4 * h(4)


def _finish(number, started, budget, description):
    elapsed = time.perf_counter() - started
    print("ACCEPTANCE %d PASS (%.2fs): %s" % (number, elapsed, description))
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (number, budget)


def test_criterion_1_worked_example():
    started = time.perf_counter()
    shape = StaircaseShape(4, (2, 1))
    oracle = ch_gamma(shape)
    traced = trace_to_symfun(diagram_from_lambda(shape))
    assert oracle == EXAMPLE_213_P
    assert traced == EXAMPLE_213_P
    assert to_basis(oracle, "h") == EXAMPLE_213_H
    assert reduce_to_h(shape).value == EXAMPLE_213_H
    _finish(1, started, 1, "worked example (2,1) via trace and oracle")


def test_criterion_2_trace_equals_oracle():
    started = time.perf_counter()
    checked = 0
    for n in range(2, 8):
        for shape in enumerate_shapes(n, "211-avoiding"):
            diagram = diagram_from_lambda(shape)
            oracle = ch_gamma(shape)
            assert trace_to_symfun(diagram) == oracle, shape
            assert diagram_csf(diagram, "distinct") == oracle, shape
            checked += 1
    _finish(2, started, 120, "iterated trace = distinct colorings = oracle on %d shapes" % checked)


def test_criterion_3_reduction_h_positive():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for shape in enumerate_shapes(n, "211-avoiding"):
            result = reduce_to_h(shape)
            for step in result.steps:
                assert step.is_h_nonnegative(), shape
            expected = to_basis(ch_gamma(shape), "h")
            assert result.value == expected, shape
            assert all(c >= 0 for _, c in result.value.terms()), shape
            checked += 1
    _finish(3, started, 300, "h-positive reduction matches the oracle on %d shapes" % checked)


def test_criterion_4_closed_form_three_ways():
    started = time.perf_counter()
    for n in range(2, 8):
        for k in range(0, 6):
            simplified = closed_form_single_crossing(n, k)
            assert simplified.is_h_nonnegative(), (n, k)
            expanded = simplified.expand()
            raw = closed_form_single_crossing(n, k, raw=True)
            brute = iterate_trace_partial(StrandDiagram(n, [(1, n)]), k, n - 1)
            assert expanded == raw == brute, (n, k)
    _finish(4, started, 120, "closed form = raw sums = brute-force trace for n<=7, k<=5")


def test_criterion_5_identity_suite():
    started = time.perf_counter()
    for n in range(1, 9):
        census = {}
        for sigma in permutations(range(1, n + 1)):
            lam = cycle_type(sigma)
            census[lam] = census.get(lam, 0) + 1
        assert SymFun("p", census) == factorial(n) * to_basis(h(n), "p")
    for i in range(1, 21):
        rhs = SymFun.zero("p")
        for j in range(1, i + 1):
            rhs = rhs + to_basis(h(i - j), "p") * p(j)
        assert i * to_basis(h(i), "p") == rhs
    for a in range(0, 9):
        for b in range(0, 9):
            assert double_sum_identity_check(a, b)
    _finish(5, started, 30, "power-sum census (n<=8), Newton (i<=20), double sum (a,b<=8)")


def test_criterion_6_general_diagram_example():
    started = time.perf_counter()
    diagram = StrandDiagram(4, [(2, 3), (1, 2), (3, 4), (2, 3)])
    value = diagram_csf(diagram, "multiset")
    assert value == (
        2 * p((1, 1, 1, 1)) + 6 * p((2, 1, 1)) + 4 * p((3, 1)) + 2 * p((2, 2)) + 2 * p(4)
    )
    assert to_basis(value, "h") == 4 * h((2, 2)) + 4 * h((3, 1)) + 8 * h(4)
    _finish(6, started, 1, "four-strand general diagram value")


def test_criterion_7_coloring_cross_check():
    started = time.perf_counter()
    for n in range(1, 7):
        for shape in enumerate_shapes(n):
            graph = incomparability_graph(poset_from_lambda(shape))
            dual = omega(ch_gamma(shape))
            for m in range(1, 5):
                assert proper_coloring_count(graph, m) == specialize_ones(dual, m), shape
    path4 = incomparability_graph(poset_from_lambda(StaircaseShape(4, (2, 1))))
    assert proper_coloring_count(path4, 2) == 2
    _finish(7, started, 60, "coloring counts match the omega-dual specialization")


def test_criterion_8_positivity_sweep():
    started = time.perf_counter()
    total = 0
    negatives = 0
    for strands in range(2, 6):
        for record in search_general(strands, 3):
            total += 1
            if not record.positive:
                negatives += 1
    assert negatives == 0
    _finish(8, started, 600, "exhaustive sweep of %d diagrams found no h-negative value" % total)


def test_criterion_9_determinism(capsys, tmp_path, monkeypatch):
    started = time.perf_counter()
    commands = [
        ["compute", "--lambda", "2,1", "--n", "4", "--format", "json"],
        ["verify", "--suite", "identities", "--max-n", "3"],
        ["classify", "--lambda", "4,3,1,1", "--n", "6", "--format", "json"],
    ]
    for argv in commands:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second, argv
    outputs = []
    # every worker count past 1 runs the pool, whatever the sweep's census work
    monkeypatch.setattr(diagrams, "_WORK_PER_WORKER", 1)
    for workers in ("1", "2", "4"):
        monkeypatch.setenv("STRAND_TRACE_THREADS", workers)
        out_path = tmp_path / ("sweep_%s.jsonl" % workers)
        argv = [
            "search", "--strands", "4", "--max-crossings", "3",
            "--seed", "5", "--out", str(out_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    records = [json.loads(line) for line in outputs[0].splitlines()]
    assert all(r["positive"] for r in records)
    _finish(9, started, 120, "byte-identical output across runs and worker counts")
