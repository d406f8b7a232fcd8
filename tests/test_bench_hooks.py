"""The benchmark's tracer (perfbench/tracing.py) wraps strandtrace's module
attributes by name.  Installing and restoring it here makes a change that
drops or re-binds one of those names fail the test suite, not only a traced
benchmark run."""

import argparse
import importlib.util
import sys
from pathlib import Path

from strandtrace import StaircaseShape, StrandDiagram, cli, diagrams, kernels, oracle, orders, symfun

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TRACED = (cli, diagrams, kernels, oracle, orders, symfun, symfun.SymFun)
MODULES = argparse.Namespace(
    cli=cli, diagrams=diagrams, kernels=kernels, oracle=oracle, orders=orders, symfun=symfun
)


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    return [dict(vars(owner)) for owner in TRACED]


def test_tracer_installs_counts_and_restores(monkeypatch):
    tracing = load_tracing(monkeypatch)
    before = attributes()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, MODULES)
        assert diagrams.reduce_to_h is not before[1]["reduce_to_h"]
        steps = len(diagrams.reduce_to_h(StaircaseShape(4, (2, 1))).steps)
        composites = len(diagrams.colored_permutations(StrandDiagram(3, [(1, 2), (2, 3)])))
        diagrams.diagram_csf(StrandDiagram(3, [(1, 2), (2, 3)]))
    finally:
        tracer.restore()
    after = attributes()
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[name] is value for name, value in old.items())
    assert tracer.counts["diagrams.reduce_to_h.steps"] == steps
    assert tracer.counts["diagrams.closed_form.calls"] > 0
    assert tracer.counts["oracle.cycle_type.calls"] == composites
    assert tracer.counts["diagrams.distinct_composites"] == 2 * composites


def test_tracer_wraps_the_shape_generator(monkeypatch):
    tracing = load_tracing(monkeypatch)
    original = orders.enumerate_shapes
    untraced = list(orders.enumerate_shapes(6, "211-avoiding"))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, MODULES)
        assert orders.enumerate_shapes is not original
        traced = list(orders.enumerate_shapes(6, "211-avoiding"))
    finally:
        tracer.restore()
    assert orders.enumerate_shapes is original and cli.enumerate_shapes is original
    assert traced == untraced
    assert "orders.enumerate_shapes" in tracer.self_times()
