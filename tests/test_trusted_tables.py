"""Results built on already merged tables through the trusted constructors
(``symfun._trusted``, ``symfun._trusted_partition``,
``StrandDiagram._trusted``, ``StaircaseShape._trusted``) must equal what the
validating constructors would have built from the same data."""

from strandtrace import (
    Crossing,
    Partition,
    StaircaseShape,
    StrandDiagram,
    SymFun,
    ch_gamma,
    diagram_csf,
    diagram_from_lambda,
    enumerate_shapes,
    to_basis,
    trace_to_symfun,
)

MAX_N = 7


def assert_canonical(f, what):
    for lam, c in f.coefficients().items():
        assert type(lam) is Partition and lam == Partition(lam), (what, lam)
        assert all(type(part) is int for part in lam), (what, lam)
        assert c, (what, lam)
    assert SymFun(f.basis, f.coefficients()) == f, what


def test_results_on_trusted_tables_are_canonical():
    for n in range(1, MAX_N + 1):
        for shape in enumerate_shapes(n, "211-avoiding"):
            diagram = diagram_from_lambda(shape)
            results = {
                "distinct": diagram_csf(diagram, "distinct"),
                "multiset": diagram_csf(diagram, "multiset"),
                "oracle": ch_gamma(shape),
                "trace": trace_to_symfun(diagram),
            }
            for label, f in results.items():
                what = (label, shape)
                assert_canonical(f, what)
                for basis in ("h", "e"):
                    g = to_basis(f, basis)
                    assert_canonical(g, what + (basis,))
                    for back in ("p", "h", "e"):
                        assert_canonical(to_basis(g, back), what + (basis, back))


def test_generated_shapes_and_diagrams_match_their_validated_construction():
    for n in range(1, MAX_N + 1):
        for which in ("all", "211-avoiding"):
            shapes = list(enumerate_shapes(n, which))
            assert shapes == [StaircaseShape(s.n, tuple(s.lam)) for s in shapes]
            for shape in shapes:
                assert type(shape.lam) is Partition and shape.lam == Partition(shape.lam)
                assert all(type(part) is int for part in shape.lam), shape
        for shape in enumerate_shapes(n):
            diagram = diagram_from_lambda(shape)
            assert diagram == StrandDiagram(diagram.n, [tuple(c) for c in diagram.crossings])
            assert type(diagram.crossings) is tuple, shape
            assert all(
                type(c) is Crossing and type(c.i) is int and type(c.j) is int
                for c in diagram.crossings
            ), shape
