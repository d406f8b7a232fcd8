"""Spans and counters around strandtrace's layer boundaries.

The tracer replaces module attributes with wrappers for the length of one
traced round and puts the originals back afterwards.  A function is patched
under every module that holds a reference to it, because callers that
imported it by name look it up in their own namespace.  Spans are kept in
memory as (name, start, end, parent index) and written out when the run
ends; a layer's self time is its spans' time minus their child spans' time.
"""

import json
import os
import time
from collections import Counter
from math import factorial, prod


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # (span index, name) of the open spans, innermost last
        self.counts = Counter()
        self.distinct = {}  # name -> set of distinct argument keys
        self._saved = []

    # -- patching --------------------------------------------------------

    def patch(self, owners, attr, wrapper_factory):
        """Replace attr on every owner (module or class) that holds the same
        function with one shared wrapper."""
        original = getattr(owners[0], attr)
        wrapper = wrapper_factory(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError("%s.%s is not the function being traced" % (owner, attr))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- wrappers --------------------------------------------------------

    def span(self, name, before=None, after=None):
        """Wrapper factory: one span per call; before(args) and
        after(args, result) update counters outside the span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def factory(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                index = len(spans)
                spans.append(None)
                parent = stack[-1][0] if stack else -1
                stack.append((index, name))
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name, start, end, parent)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return factory

    def generator_span(self, name):
        """Wrapper factory for a generator function: one span per resumption,
        so the time the consumer spends between items is not charged."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def factory(fn):
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = len(spans)
                    spans.append(None)
                    parent = stack[-1][0] if stack else -1
                    stack.append((index, name))
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans[index] = (name, start, end, parent)
                    yield item

            return wrapper

        return factory

    def count(self, name, inside=None):
        """Wrapper factory: count calls, optionally only those made directly
        from an open span named `inside`."""
        counts, stack = self.counts, self.stack

        def factory(fn):
            def wrapper(*args, **kwargs):
                if inside is None or (stack and stack[-1][1] == inside):
                    counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return factory

    def add(self, name, amount):
        self.counts[name] += amount

    def note_key(self, name, key):
        self.distinct.setdefault(name, set()).add(key)

    # -- results ---------------------------------------------------------

    def self_times(self):
        """{span name: total self time in seconds}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = Counter()
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
        return totals

    def write(self, path):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                    "counts": dict(sorted(self.counts.items())),
                    "distinct": {k: len(v) for k, v in sorted(self.distinct.items())},
                },
                fh,
                separators=(",", ":"),
            )


def install(tracer, st):
    """Wrap every traced boundary of strandtrace.  `st` is a namespace with
    the modules orders, symfun, diagrams, oracle, kernels and cli."""
    orders, symfun, diagrams, oracle, kernels, cli = (
        st.orders, st.symfun, st.diagrams, st.oracle, st.kernels, st.cli,
    )
    t = tracer

    # orders
    t.patch([orders, cli], "enumerate_shapes", t.generator_span("orders.enumerate_shapes"))
    t.patch(
        [orders, cli],
        "is_211_avoiding",
        t.count("orders.candidates_examined", inside="orders.enumerate_shapes"),
    )
    t.patch([orders, cli], "diagram_from_lambda", t.span("orders.diagram_from_lambda"))

    # symfun: construction and arithmetic run about a million times, so
    # they get counts only
    t.patch([symfun.SymFun], "__init__", t.count("symfun.SymFun.constructed"))
    for attr in ("__add__", "__mul__", "__rmul__"):
        t.patch([symfun.SymFun], attr, t.count("symfun.arith.calls"))

    def to_basis_before(args):
        t.add("symfun.to_basis.calls", 1)
        if args[0].basis == args[1]:
            t.add("symfun.to_basis.identity_calls", 1)

    t.patch([symfun, diagrams, cli], "to_basis", t.span("symfun.to_basis", before=to_basis_before))
    t.patch([symfun, diagrams], "is_h_positive", t.span("symfun.is_h_positive"))

    # diagrams
    t.patch(
        [diagrams, cli],
        "reduce_to_h",
        t.span(
            "diagrams.reduce_to_h",
            after=lambda args, result: t.add("diagrams.reduce_to_h.steps", len(result.steps)),
        ),
    )

    def closed_form_before(args):
        t.add("diagrams.closed_form.calls", 1)
        t.note_key("diagrams.closed_form.keys", tuple(args))

    t.patch([diagrams], "_closed_form_table", t.span("diagrams.closed_form", before=closed_form_before))

    def trace_combo_before(args):
        t.add("diagrams.trace_combo.calls", 1)
        t.add("diagrams.trace_combo.terms", len(args[0]))

    t.patch([diagrams], "trace_combo", t.span("diagrams.trace_combo", before=trace_combo_before))

    def csf_before(args):
        t.add("diagrams.colorings", prod(factorial(c[1] - c[0] + 1) for c in args[0].crossings))

    t.patch([diagrams, cli], "diagram_csf", t.span("diagrams.diagram_csf", before=csf_before))
    t.patch([diagrams, cli], "search_general", t.generator_span("diagrams.search"))

    # kernels
    t.patch(
        [kernels],
        "colored_census",
        t.span(
            "kernels.colored_census",
            after=lambda args, result: t.add("diagrams.distinct_composites", len(result)),
        ),
    )
    t.patch(
        [kernels, cli],
        "restricted_census",
        t.span(
            "kernels.restricted_census",
            after=lambda args, result: t.add(
                "kernels.restricted_census.permutations", sum(result.values())
            ),
        ),
    )

    # oracle
    t.patch([oracle, cli], "ch_gamma", t.span("oracle.ch_gamma"))
    t.patch([oracle, diagrams], "cycle_type", t.count("oracle.cycle_type.calls"))

    # cli
    def main_after(args, status):
        argv = args[0] if args else []
        if "--out" in argv:
            t.add("cli.output_bytes", os.path.getsize(argv[argv.index("--out") + 1]))

    t.patch([cli], "main", t.span("cli.main", after=main_after))
