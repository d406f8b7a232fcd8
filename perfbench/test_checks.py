"""Self-test of the benchmark's independent checks.

Each check must accept strandtrace's real output and reject it once a
single coefficient (or count, or crossing) is changed.  Run from the root
of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os
import sys
from fractions import Fraction

import pytest

import checks

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from strandtrace import cli, diagrams, oracle, orders  # noqa: E402

SHAPES = [orders.StaircaseShape(n, lam) for n, lam in ((4, (2, 1)), (5, (3, 2)), (6, (4, 3, 1, 1)), (6, ()))]


def bumped(coeffs):
    """Every copy of coeffs with one coefficient raised by one."""
    for key in coeffs:
        changed = dict(coeffs)
        changed[key] += 1
        yield changed


def test_shape_counts():
    counts = {n: sum(1 for _ in orders.enumerate_shapes(n, "211-avoiding")) for n in range(1, 8)}
    assert checks.check_shape_counts(counts) == []
    for n in counts:
        assert checks.check_shape_counts({**counts, n: counts[n] + 1})


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
def test_h_expansion(shape):
    lam = tuple(shape.lam)
    value = dict(diagrams.reduce_to_h(shape).value.coefficients())
    assert checks.check_h_expansion(shape.n, lam, value) == []
    for changed in bumped(value):
        assert checks.check_h_expansion(shape.n, lam, changed)


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
def test_reduction_steps(shape):
    lam = tuple(shape.lam)
    steps = [
        [(d.n, b, dict(c.coefficients())) for (d, b), c in combo.terms()]
        for combo in diagrams.reduce_to_h(shape).steps
    ]
    assert checks.check_reduction_steps(shape.n, lam, steps) == []
    for i, state in enumerate(steps):
        for j, (strands, b, coeffs) in enumerate(state):
            for key in coeffs:
                changed = [list(s) for s in steps]
                changed[i][j] = (strands, b, {**coeffs, key: -coeffs[key]})
                assert checks.check_reduction_steps(shape.n, lam, changed)
                changed[i][j] = (strands + 1, b, coeffs)
                assert checks.check_reduction_steps(shape.n, lam, changed)


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
def test_p_expansion_and_agreement(shape):
    lam = tuple(shape.lam)
    diagram = orders.diagram_from_lambda(shape)
    named = {
        "oracle": dict(oracle.ch_gamma(shape).coefficients()),
        "trace": dict(diagrams.trace_to_symfun(diagram).coefficients()),
        "colorings": dict(diagrams.diagram_csf(diagram, "distinct").coefficients()),
    }
    assert checks.check_p_expansion(shape.n, lam, named["oracle"]) == []
    assert checks.check_agree(lam, named) == []
    for changed in bumped(named["oracle"]):
        assert checks.check_p_expansion(shape.n, lam, changed)
    for label in named:
        for changed in bumped(named[label]):
            assert checks.check_agree(lam, {**named, label: changed})


def test_rook_and_chromatic_products_by_brute_force():
    from itertools import permutations, product

    for shape in SHAPES:
        n, lam = shape.n, tuple(shape.lam)
        bound = lambda k: lam[n - k] if n - k < len(lam) else 0  # noqa: E731
        rooks = sum(all(s[k - 1] > bound(k) for k in range(1, n + 1)) for s in permutations(range(1, n + 1)))
        assert checks.rook_product(n, lam) == rooks
        below = {v: set(range(1, bound(v) + 1)) for v in range(1, n + 1)}
        edges = [(a, b) for b in range(1, n + 1) for a in range(1, b) if a not in below[b]]
        for m in range(1, 4):
            proper = sum(all(c[a - 1] != c[b - 1] for a, b in edges) for c in product(range(m), repeat=n))
            assert checks.chromatic_product(n, lam, m) == proper


@pytest.fixture(scope="module")
def sweep_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.jsonl"
    assert cli.main(["search", "--strands", "4", "--max-crossings", "2", "--out", str(out)]) == 0
    return [json.loads(line) for line in out.read_text().splitlines()]


def _with_h(records, index, coeffs):
    changed = [dict(r) for r in records]
    changed[index]["h"] = [{"partition": list(k), "coeff": str(c)} for k, c in coeffs.items()]
    return changed


def test_sweep(sweep_records):
    assert checks.check_sweep(4, 2, sweep_records) == []
    for index, record in enumerate(sweep_records):
        coeffs = {tuple(t["partition"]): Fraction(t["coeff"]) for t in record["h"]}
        for changed in bumped(coeffs):
            assert checks.check_sweep(4, 2, _with_h(sweep_records, index, changed))
        for key in coeffs:
            assert checks.check_sweep(4, 2, _with_h(sweep_records, index, {**coeffs, key: -coeffs[key]}))
    assert checks.check_sweep(4, 2, sweep_records[:-1])
    swapped = list(sweep_records)
    swapped[7], swapped[8] = swapped[8], swapped[7]
    assert checks.check_sweep(4, 2, swapped)


def test_sweep_symmetry_alone(sweep_records):
    """A change that keeps the coefficient sum is caught by the reflection
    and reversal images alone."""
    index = next(
        i
        for i, r in enumerate(sweep_records)
        if len(r["h"]) >= 2 and r["crossings"][::-1] != r["crossings"]
    )
    coeffs = {tuple(t["partition"]): Fraction(t["coeff"]) for t in sweep_records[index]["h"]}
    first, second = list(coeffs)[:2]
    moved = {**coeffs, first: coeffs[first] + 1, second: coeffs[second] - 1}
    errors = checks.check_sweep(4, 2, _with_h(sweep_records, index, moved))
    assert errors and all("image" in error or "h-negative" in error for error in errors)


def test_shapes():
    n = 7
    shapes = [tuple(s.lam) for s in orders.enumerate_shapes(n, "211-avoiding")]
    crossings = [list(orders.diagram_from_lambda(orders.StaircaseShape(n, lam)).crossings) for lam in shapes]
    assert checks.check_shapes(n, shapes, crossings) == []
    assert checks.check_shapes(n, shapes[:-1], crossings[:-1])
    swapped = list(shapes)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert checks.check_shapes(n, swapped, crossings)
    # (3, 1) inside stair(7) has its corners in rows 7 and 6, below stair(6)
    assert checks.check_shapes(n, shapes[:-1] + [(3, 1)], crossings)
    index = next(i for i, c in enumerate(crossings) if len(c) >= 2)
    bent = [list(c) for c in crossings]
    bent[index][1] = (bent[index][0][0], bent[index][1][1])
    assert checks.check_shapes(n, shapes, bent)
