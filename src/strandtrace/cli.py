"""Command-line front end.

Subcommands: ``compute`` (expansion of one shape's symmetric function, via
the reduction pipeline and/or the restricted-permutation oracle),
``verify`` (identity / closed-form / trace suites), ``classify`` (pattern
avoidance and the crossing list of a shape) and ``search`` (h-positivity
sweep over generalized diagrams).

Exit codes: 0 success / all positive; 1 mathematical failure, mismatch or
counterexample; 2 invalid input or an exceeded work guard.  Everything on
stdout (and written files) is canonical and byte-identical across runs with
equal inputs and seed; timing goes to stderr.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from math import factorial

from strandtrace import symfun
from strandtrace.diagrams import (
    closed_form_single_crossing,
    diagram_csf,
    iterate_trace_partial,
    reduce_to_h,
    search_general,
    trace_to_symfun,
)
from strandtrace.errors import CertificateError, GuardExceededError, NonTraceableError, check_guard
# unused here, but perfbench/tracing.py patches the name on this module
from strandtrace.kernels import restricted_census
from strandtrace.orders import (
    StaircaseShape,
    avoids_pattern,
    corners_of_shape,
    diagram_from_lambda,
    enumerate_shapes,
    incomparability_graph,
    is_211_avoiding,
    parse_parts,
    poset_from_lambda,
)
from strandtrace.oracle import FACTORIAL_GUARD, ch_gamma, check_factorial_guard
from strandtrace.strands import StrandDiagram, format_diagram
from strandtrace.symfun import (
    SymFun,
    double_sum_identity_check,
    h,
    p,
    to_basis,
)

OK, MATH_FAIL, BAD_INPUT = 0, 1, 2


def _emit(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _jsonl(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fun_lines(f):
    if f.is_zero():
        return ["0"]
    return [
        "%s[%s] = %s" % (f.basis, ",".join(map(str, lam)), coeff)
        for lam, coeff in f.terms()
    ]


# ---------------------------------------------------------------------------
# verify suites (importable; each check yields (case, ok, detail))
# ---------------------------------------------------------------------------


def check_power_sum_census(max_n):
    """n! h_n equals the sum of p_{cycletype} over all of S_n: the oracle on
    the empty shape, which restricts nothing, under its S_n guard."""
    for n in range(1, max_n + 1):
        total = ch_gamma(StaircaseShape(n))
        expected = factorial(n) * to_basis(h(n), "p")
        yield ("power-sum-census n=%d" % n, total == expected, None)


def check_newton(max_i):
    """i h_i equals sum_{j=1..i} h_{i-j} p_j, as exact p expansions."""
    for i in range(1, max_i + 1):
        lhs = i * to_basis(h(i), "p")
        rhs = SymFun.zero("p")
        for j in range(1, i + 1):
            rhs = rhs + to_basis(h(i - j), "p") * p(j)
        yield ("newton i=%d" % i, lhs == rhs, None)


def check_double_sum(max_ab):
    for a in range(0, max_ab + 1):
        for b in range(0, max_ab + 1):
            yield (
                "double-sum a=%d b=%d" % (a, b),
                double_sum_identity_check(a, b),
                None,
            )


def check_closed_form(max_n, max_k):
    """Closed form == raw sums == brute-force iterated trace, for one crossing."""
    for n in range(2, max_n + 1):
        for k in range(0, max_k + 1):
            simplified = closed_form_single_crossing(n, k)
            expanded = simplified.expand()
            raw = closed_form_single_crossing(n, k, raw=True)
            brute = iterate_trace_partial(StrandDiagram(n, [(1, n)]), k, n - 1)
            ok = expanded == raw == brute and simplified.is_h_nonnegative()
            yield ("closed-form n=%d k=%d" % (n, k), ok, None)


def check_trace_pipeline(max_n):
    """Iterated trace == distinct-coloring sum == restricted-permutation
    oracle, on every 2+1+1-avoiding shape."""
    for n in range(2, max_n + 1):
        for shape in enumerate_shapes(n, "211-avoiding"):
            oracle_value = ch_gamma(shape)
            diagram = diagram_from_lambda(shape)
            traced = trace_to_symfun(diagram)
            distinct = diagram_csf(diagram, "distinct")
            ok = traced == oracle_value == distinct
            detail = None
            if not ok:
                detail = {"n": n, "lambda": list(shape.lam)}
            yield ("trace lambda=%s n=%d" % (",".join(map(str, shape.lam)) or "-", n), ok, detail)


# The closed-form suite spends its time in the brute-force trace of
# partial_k [1, n] (iterate_trace_partial).  Its tables hold about 2**n times
# the T(k) = p(0) + ... + p(k) power-sum terms partial_k starts from: their
# summed entries were 0.25 to 1.6 times that for n <= 11 and k <= 4.  So a
# case (n, k) costs 2**n * T(k) units, and the suite the sum over its cases.
# Whole suites took 11 to 14 us per unit (their cases timed in-process, best
# of 3, 2 cores, Python 3.11.7): --max-n 8 --max-k 8, 94,996 units in
# 1.15 s; 10 and 5, 91,980 in 1.06 s; 11 and 4, 106,392 in 1.19 s; 12 and 4,
# 212,888 in 2.45 s; 14 and 4 (one run), 851,864 in 12.0 s.  The guard keeps
# a suite to about 1.3 s at --max-k 8 or less, and 1.5 s at most.
CLOSED_FORM_WORK_GUARD = 100_000


def closed_form_n_guard(max_k):
    """The largest --max-n whose closed-form suite at ``max_k`` costs at most
    CLOSED_FORM_WORK_GUARD units (above); 1 once even n = 2 costs more.
    The partition counts come from Euler's pentagonal number recurrence,
    p(k) = sum over m >= 1 of (-1)**(m + 1) * (p(k - m(3m - 1)/2) +
    p(k - m(3m + 1)/2)), p of a negative number 0, so none is built."""
    counts = []  # p(0), p(1), ...
    terms = start = 0  # T(0) + ... + T(max_k), and T(k)
    for k in range(max_k + 1):
        count = 0 if k else 1
        for m in range(1, k + 1):
            for g in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
                if g <= k:
                    count += (-1) ** (m + 1) * counts[k - g]
        counts.append(count)
        start += count
        terms += start
        if 2**2 * terms > CLOSED_FORM_WORK_GUARD:
            return 1
    max_n, work = 1, 0
    while work + 2 ** (max_n + 1) * terms <= CLOSED_FORM_WORK_GUARD:
        max_n += 1
        work += 2**max_n * terms
    return max_n

SUITES = {
    "identities": lambda max_n, max_k: list(check_power_sum_census(max_n))
    + list(check_newton(max(20, max_n)))
    + list(check_double_sum(max_n)),
    "closed-form": lambda max_n, max_k: list(check_closed_form(max_n, max_k)),
    "trace": lambda max_n, max_k: list(check_trace_pipeline(max_n)),
}
SUITES["all"] = lambda max_n, max_k: [
    case for name in ("identities", "closed-form", "trace") for case in SUITES[name](max_n, max_k)
]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _parse_shape(args):
    # ValueError propagates to main(), which maps it to BAD_INPUT
    return StaircaseShape(args.n, parse_parts(args.lam))


def _fail_input(message):
    sys.stderr.write("error: %s\n" % message)
    return BAD_INPUT


@contextlib.contextmanager
def _replacing(path, option):
    """The stream to write ``option``'s file through: stdout when ``path``
    is not given, else a ``.partial`` file beside ``path`` that replaces it
    once the block completes and is removed if the block raises, so a
    failed run leaves an existing file as it was.  A path that cannot be
    written raises ValueError("cannot write OPTION PATH: reason")."""
    if not path:
        yield sys.stdout
        return
    partial = "%s.%d.partial" % (path, os.getpid())
    try:
        out = open(partial, "w")
    except OSError as exc:
        raise ValueError("cannot write %s %s: %s" % (option, path, exc.strerror)) from None
    try:
        with out:
            yield out
    except BaseException:
        os.remove(partial)
        raise
    try:
        os.replace(partial, path)
    except OSError as exc:
        os.remove(partial)
        raise ValueError("cannot write %s %s: %s" % (option, path, exc.strerror)) from None


def cmd_compute(args):
    shape = _parse_shape(args)
    started = time.perf_counter()
    avoiding = is_211_avoiding(shape)
    if args.log_steps and (args.via == "oracle" or not avoiding):
        reason = "--via oracle" if args.via == "oracle" else "a shape that is not 2+1+1-avoiding"
        return _fail_input("--log-steps needs the reduction, which does not run with %s" % reason)
    route = []
    trace_value = None
    steps = None
    if args.via in ("trace", "both"):
        if avoiding:
            result = reduce_to_h(shape)
            trace_value = result.value
            steps = result.steps
            route.append("trace")
        else:
            sys.stderr.write(
                "notice: shape is not 2+1+1-avoiding; the reduction pipeline "
                "does not apply, falling back to the oracle\n"
            )
    oracle_value = None
    if args.via in ("oracle", "both") or trace_value is None:
        oracle_value = ch_gamma(shape)
        route.append("oracle")
    if trace_value is not None and oracle_value is not None:
        if to_basis(trace_value, "p") != oracle_value:
            sys.stderr.write("MISMATCH: trace pipeline and oracle disagree\n")
            _emit(
                [
                    "command: compute",
                    "status: mismatch",
                    "trace: " + json.dumps(symfun.to_json_dict(trace_value), sort_keys=True),
                    "oracle: " + json.dumps(symfun.to_json_dict(oracle_value), sort_keys=True),
                ]
            )
            return MATH_FAIL
    value = oracle_value if oracle_value is not None else to_basis(trace_value, "p")
    value = to_basis(value, args.basis)
    if args.log_steps:
        with _replacing(args.log_steps, "--log-steps") as fh:
            for combo in steps:
                fh.write(_jsonl(combo.to_json_dict()) + "\n")
    elapsed = time.perf_counter() - started
    sys.stderr.write("elapsed: %.3fs\n" % elapsed)
    params = {
        "lambda": list(shape.lam),
        "n": shape.n,
        "basis": args.basis,
        "via": args.via,
        "route": "+".join(route),
    }
    if args.format == "json":
        _emit_json(
            {"command": "compute", "params": params, "result": symfun.to_json_dict(value)}
        )
    elif args.format == "csv":
        _emit(
            ["basis,partition,coeff"]
            + [
                '%s,"%s",%s' % (value.basis, " ".join(map(str, lam)), coeff)
                for lam, coeff in value.terms()
            ]
        )
    else:
        _emit(
            [
                "command: compute",
                "lambda: %s  n: %d" % (",".join(map(str, shape.lam)) or "-", shape.n),
                "via: %s  route: %s" % (args.via, "+".join(route)),
            ]
            + _fun_lines(value)
        )
    return OK


def cmd_verify(args):
    if args.max_n < 0 or args.max_k < 0:
        return _fail_input("--max-n and --max-k must be nonnegative")
    if args.suite in ("closed-form", "all"):
        check_guard(
            args.max_n, closed_form_n_guard(args.max_k),
            "--max-n %(work)d exceeds the closed-form guard %(limit)d at --max-k %(max_k)d",
            max_k=args.max_k,
        )
    if args.suite != "closed-form":
        # the other suites run the oracle on every n up to --max-n, so the
        # first n past its guard would stop them: refuse that n before any case
        check_factorial_guard(min(args.max_n, FACTORIAL_GUARD + 1))
    started = time.perf_counter()
    cases = SUITES[args.suite](args.max_n, args.max_k)
    failures = [case for case in cases if not case[1]]
    lines = ["command: verify", "suite: %s" % args.suite]
    for name, ok, detail in cases:
        mark = "PASS" if ok else "FAIL"
        extra = "" if detail is None or ok else "  %s" % _jsonl(detail)
        lines.append("%s %s%s" % (mark, name, extra))
    lines.append("passed %d/%d" % (len(cases) - len(failures), len(cases)))
    elapsed = time.perf_counter() - started
    sys.stderr.write("elapsed: %.3fs\n" % elapsed)
    if args.format == "json":
        _emit_json(
            {
                "command": "verify",
                "suite": args.suite,
                "cases": [
                    {"case": name, "ok": ok, "detail": detail}
                    for name, ok, detail in cases
                ],
                "passed": len(cases) - len(failures),
                "total": len(cases),
            }
        )
    elif args.format == "jsonl":
        _emit(
            [
                _jsonl({"case": name, "ok": ok, "detail": detail})
                for name, ok, detail in cases
            ]
        )
    else:
        _emit(lines)
    return OK if not failures else MATH_FAIL


def cmd_classify(args):
    shape = _parse_shape(args)
    started = time.perf_counter()
    order = poset_from_lambda(shape)
    corner_criterion = is_211_avoiding(shape)
    brute = avoids_pattern(order, (2, 1, 1))
    diagram = diagram_from_lambda(shape)
    info = {
        "lambda": list(shape.lam),
        "n": shape.n,
        "avoids_3+1": avoids_pattern(order, (3, 1)),
        "avoids_2+2": avoids_pattern(order, (2, 2)),
        "avoids_2+1+1_corners": corner_criterion,
        "avoids_2+1+1_brute": brute,
        "corners": [list(c) for c in corners_of_shape(shape)],
        "crossings": [list(c) for c in diagram.crossings],
        "staircase_like": diagram.is_staircase_like(),
        "incomparability_graph": incomparability_graph(order).to_json_dict(),
    }
    elapsed = time.perf_counter() - started
    sys.stderr.write("elapsed: %.3fs\n" % elapsed)
    if corner_criterion != brute:
        sys.stderr.write("MISMATCH: corner criterion disagrees with brute force\n")
        _emit_json({"command": "classify", "status": "mismatch", "info": info})
        return MATH_FAIL
    if args.format == "json":
        _emit_json({"command": "classify", "info": info})
    else:
        _emit(
            [
                "command: classify",
                "lambda: %s  n: %d" % (",".join(map(str, shape.lam)) or "-", shape.n),
                "3+1: %s" % ("avoids" if info["avoids_3+1"] else "contains"),
                "2+2: %s" % ("avoids" if info["avoids_2+2"] else "contains"),
                "2+1+1: %s (corner criterion and brute force agree)"
                % ("avoids" if corner_criterion else "contains"),
                "corners: %s" % (info["corners"],),
                "diagram: %s" % format_diagram(diagram),
            ]
        )
    return OK


class _CrossingTexts(dict):
    """{crossing: its text "[i,j]"}, each text formatted the first time it
    is read."""

    def __missing__(self, crossing):
        text = self[crossing] = "[%d,%d]" % crossing
        return text


def cmd_search(args):
    """Records go to stdout, or to a temporary file beside --out that
    replaces it only once the sweep has finished (_replacing), so a
    rejected or failed sweep leaves an existing --out as it was.

    Each record is its crossings' texts joined, then its verdict's text:
    a crossing is formatted as "[i,j]" the first time a record holds it
    (_CrossingTexts), so no sweep builds or formats the whole alphabet;
    every verdict is encoded once (below), so a record only joins and
    writes strings."""
    if args.count < 1:
        return _fail_input("--count must be at least 1")
    started = time.perf_counter()
    total = 0
    negatives = 0
    counterexample = None
    # every member of an orbit carries the same verdict objects, and so do
    # orbits with the same coloring sum walked in one run, so the record's
    # tail after "crossings" (keys sorted: h, n, positive, witness) is
    # encoded once per verdict; each entry keeps its SymFun alive, so no id
    # is reused while the cache holds it
    tails = {}
    texts = _CrossingTexts()
    with _replacing(args.out, "--out") as out:
        for record in search_general(
            args.strands,
            args.max_crossings,
            mode=args.mode,
            seed=args.seed,
            count=args.count,
        ):
            total += 1
            cached = tails.get(id(record.values))
            if cached is None:
                payload = {
                    "n": record.diagram.n,
                    "h": symfun.to_json_dict(record.values)["terms"],
                    "positive": record.positive,
                }
                if not record.positive:
                    payload["witness"] = {
                        "partition": list(record.witness[0]),
                        "coeff": str(record.witness[1]),
                    }
                cached = tails[id(record.values)] = (record.values, _jsonl(payload)[1:])
            line = '{"crossings":[%s],%s' % (
                ",".join(map(texts.__getitem__, record.diagram.crossings)),
                cached[1],
            )
            if not record.positive:
                negatives += 1
                if counterexample is None:
                    counterexample = line
            out.write(line + "\n")
    elapsed = time.perf_counter() - started
    sys.stderr.write("elapsed: %.3fs\n" % elapsed)
    summary = [
        "command: search",
        "strands: %d  max-crossings: %d  mode: %s  seed: %d"
        % (args.strands, args.max_crossings, args.mode, args.seed),
        "diagrams: %d  h-negative: %d" % (total, negatives),
    ]
    if negatives:
        summary.append("counterexample: %s" % counterexample)
    stream = sys.stdout if args.out else sys.stderr
    stream.write("\n".join(summary) + "\n")
    return MATH_FAIL if negatives else OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="strandtrace",
        description="Exact h-positivity calculus for chromatic symmetric "
        "functions of natural unit interval orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape_args(sp):
        sp.add_argument(
            "--lambda",
            dest="lam",
            required=True,
            help="comma-separated partition parts; empty string for the empty partition",
        )
        sp.add_argument("--n", type=int, required=True, help="ambient square size")

    sp = sub.add_parser("compute", help="expansion of the shape's symmetric function")
    add_shape_args(sp)
    sp.add_argument("--basis", choices=("p", "h", "e"), default="h")
    sp.add_argument("--via", choices=("trace", "oracle", "both"), default="both")
    sp.add_argument("--format", choices=("table", "json", "csv"), default="table")
    sp.add_argument("--log-steps", metavar="PATH", help="write the reduction step log as JSONL")
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("verify", help="run an identity suite")
    sp.add_argument("--suite", choices=("identities", "closed-form", "trace", "all"), required=True)
    sp.add_argument("--max-n", dest="max_n", type=int, default=6)
    sp.add_argument("--max-k", dest="max_k", type=int, default=4)
    sp.add_argument("--format", choices=("table", "json", "jsonl"), default="table")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("classify", help="pattern avoidance and diagram of a shape")
    add_shape_args(sp)
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("search", help="h-positivity sweep over generalized diagrams")
    sp.add_argument("--strands", type=int, required=True)
    sp.add_argument("--max-crossings", dest="max_crossings", type=int, required=True)
    sp.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    sp.add_argument("--seed", type=int, default=0, help="64-bit seed for random mode")
    sp.add_argument("--count", type=int, default=100, help="diagrams to draw in random mode")
    sp.add_argument("--out", metavar="PATH", help="write JSONL records here instead of stdout")
    sp.set_defaults(func=cmd_search)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CertificateError, NonTraceableError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return MATH_FAIL
    except (GuardExceededError, ValueError) as exc:
        return _fail_input(str(exc))


if __name__ == "__main__":
    sys.exit(main())
