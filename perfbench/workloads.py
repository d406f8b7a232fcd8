"""The four benchmark workloads.

Each workload has a set-up (input generation, untimed) and a round: one
complete pass over its inputs that times every call into strandtrace and
then checks every output with `checks`, outside the timed segments.  None
of the inputs is random.
"""

import contextlib
import io
import json
import os
import resource
import time
from array import array

import checks
from strandtrace import cli, diagrams, oracle, orders

clock = time.perf_counter

SWEEP_STRANDS, SWEEP_CROSSINGS = 4, 3


class Round:
    """What one round did: operations attempted and failed, the duration of
    every timed call into strandtrace, and every check failure.

    Every round of a workload makes the same calls in the same order, so
    item_times (one per item) and other_times (timed calls that are not
    items, such as shape enumeration) line up position by position across
    rounds.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.item_times = array("d")
        self.other_times = array("d")
        self.errors = []
        self.rusage = None  # sweep: (worker cpu s, parent cpu s, wall s)

    @property
    def busy_s(self):
        return sum(self.item_times) + sum(self.other_times)


def _failed(r, what, exc, elapsed):
    r.failed += 1
    r.item_times.append(elapsed)
    r.errors.append("%s raised %s: %s" % (what, type(exc).__name__, exc))


def _h_terms(f, what, r):
    if f.basis != "h":
        r.errors.append("%s is in the %s basis, not h" % (what, f.basis))
    return f.coefficients()


class Certify:
    """reduce_to_h on every 2+1+1-avoiding shape with n <= 7."""

    name = "certify"
    max_n = 7

    def setup(self):
        return None

    def round(self, state, workers):
        r = Round()
        counts = {}
        for n in range(1, self.max_n + 1):
            start = clock()
            shapes = list(orders.enumerate_shapes(n, "211-avoiding"))
            r.other_times.append(clock() - start)
            counts[n] = len(shapes)
            for shape in shapes:
                lam = tuple(shape.lam)
                r.attempted += 1
                start = clock()
                try:
                    result = diagrams.reduce_to_h(shape)
                except Exception as exc:
                    _failed(r, "reduce_to_h(n=%d, lambda=%s)" % (n, lam), exc, clock() - start)
                    continue
                r.item_times.append(clock() - start)
                value = _h_terms(result.value, "value of %s" % (lam,), r)
                r.errors += checks.check_h_expansion(n, lam, value)
                steps = [
                    [
                        (diagram.n, b, _h_terms(coeff, "step of %s" % (lam,), r))
                        for (diagram, b), coeff in combo.terms()
                    ]
                    for combo in result.steps
                ]
                r.errors += checks.check_reduction_steps(n, lam, steps)
        r.errors += checks.check_shape_counts(counts)
        return r


class Crosscheck:
    """Trace, distinct colorings and the oracle on every 2+1+1-avoiding
    shape with 2 <= n <= 6: the work of `verify --suite trace`."""

    name = "crosscheck"
    max_n = 6

    def setup(self):
        return [
            shape
            for n in range(2, self.max_n + 1)
            for shape in orders.enumerate_shapes(n, "211-avoiding")
        ]

    def round(self, shapes, workers):
        r = Round()
        for shape in shapes:
            n, lam = shape.n, tuple(shape.lam)
            r.attempted += 1
            start = clock()
            try:
                diagram = orders.diagram_from_lambda(shape)
                oracle_value = oracle.ch_gamma(shape)
                traced = diagrams.trace_to_symfun(diagram)
                distinct = diagrams.diagram_csf(diagram, "distinct")
                equal = traced == oracle_value == distinct
            except Exception as exc:
                _failed(r, "crosscheck(n=%d, lambda=%s)" % (n, lam), exc, clock() - start)
                continue
            r.item_times.append(clock() - start)
            named = {}
            for label, value in (("oracle", oracle_value), ("trace", traced), ("colorings", distinct)):
                if value.basis != "p":
                    r.errors.append("lambda=%s: %s is in the %s basis" % (lam, label, value.basis))
                named[label] = value.coefficients()
            r.errors += checks.check_agree(lam, named)
            if not equal:
                r.errors.append("lambda=%s: SymFun equality disagrees with the coefficients" % (lam,))
            r.errors += checks.check_p_expansion(n, lam, oracle_value.coefficients())
        return r


class Sweep:
    """`search --strands 4 --max-crossings 3 --out FILE` through cli.main,
    in-process, with STRAND_TRACE_THREADS set to the worker count."""

    name = "sweep"

    def __init__(self, out_dir):
        self.out = os.path.join(out_dir, "sweep.jsonl")
        self.expected = len(checks.sweep_sequences(SWEEP_STRANDS, SWEEP_CROSSINGS))

    def setup(self):
        return None

    def round(self, state, workers):
        r = Round()
        r.attempted = self.expected
        argv = [
            "search", "--strands", str(SWEEP_STRANDS),
            "--max-crossings", str(SWEEP_CROSSINGS), "--out", self.out,
        ]
        if os.path.exists(self.out):
            os.remove(self.out)  # a failed search must not be checked against the last file
        saved = os.environ.get("STRAND_TRACE_THREADS")
        os.environ["STRAND_TRACE_THREADS"] = str(workers)
        stdout, stderr = io.StringIO(), io.StringIO()
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = clock()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = cli.main(argv)
        except Exception as exc:
            r.failed = self.expected
            r.other_times.append(clock() - start)
            r.errors.append("cli.main(%s) raised %s: %s" % (argv, type(exc).__name__, exc))
            return r
        finally:
            if saved is None:
                del os.environ["STRAND_TRACE_THREADS"]
            else:
                os.environ["STRAND_TRACE_THREADS"] = saved
        wall = clock() - start
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        r.other_times.append(wall)
        r.rusage = (
            _cpu(children_after) - _cpu(children_before),
            _cpu(self_after) - _cpu(self_before),
            wall,
        )
        if status != 0:
            r.errors.append("search exited %s: %s" % (status, stderr.getvalue().strip()))
        with open(self.out) as fh:
            records = [json.loads(line) for line in fh]
        r.errors += checks.check_sweep(SWEEP_STRANDS, SWEEP_CROSSINGS, records)
        return r


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


class Shapes:
    """enumerate_shapes(10, "211-avoiding"), then diagram_from_lambda on
    every shape; an item is one yielded shape and its diagram."""

    name = "shapes"
    n = 10

    def setup(self):
        return None

    def round(self, state, workers):
        r = Round()
        shapes, crossings = [], []
        generator = orders.enumerate_shapes(self.n, "211-avoiding")
        while True:
            start = clock()
            try:
                shape = next(generator)
            except StopIteration:
                r.other_times.append(clock() - start)
                break
            r.attempted += 1
            try:
                diagram = orders.diagram_from_lambda(shape)
            except Exception as exc:
                _failed(r, "diagram_from_lambda(%s)" % (tuple(shape.lam),), exc, clock() - start)
                continue
            r.item_times.append(clock() - start)
            shapes.append(tuple(shape.lam))
            crossings.append([tuple(c) for c in diagram.crossings])
        r.errors += checks.check_shapes(self.n, shapes, crossings)
        return r


def make(name, out_dir):
    if name == "sweep":
        return Sweep(out_dir)
    return {"certify": Certify, "crosscheck": Crosscheck, "shapes": Shapes}[name]()
