#!/usr/bin/env python3
"""Median and quartiles of the end-to-end metrics in perfbench/out/runs.jsonl.

Usage, from the root of a checkout:

    python3 perfbench/summarize.py [--since ISO-TIME] [--until ISO-TIME] [--sha PREFIX]

Prints one row per workload and metric over the untraced runs selected:
the run count, the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and their distance as a share
of the median.  Also prints the range of the host-speed probe.
"""

import argparse
import json
import os
import statistics

RUNS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "runs.jsonl")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--since", default="", help="only runs started at or after this UTC time")
    parser.add_argument("--until", default="~", help="only runs started before this UTC time")
    parser.add_argument("--sha", default="", help="only runs of commits with this prefix")
    args = parser.parse_args()
    with open(RUNS) as fh:
        runs = [json.loads(line) for line in fh]
    runs = [
        r for r in runs
        if not r["trace"]
        and args.since <= r["started"] < args.until
        and r["git_sha"].startswith(args.sha)
    ]
    print("| workload | metric | runs | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|---|---|")
    probes = []
    for workload in sorted({r["workload"] for r in runs}):
        selected = [r for r in runs if r["workload"] == workload]
        probes += [p for r in selected for p in (r["probe_before_ms"], r["probe_after_ms"])]
        for metric in selected[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in selected]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            print(
                "| %s | %s (%s) | %d | %.4g | %.4g | %.4g | %.3f |"
                % (workload, metric, selected[0]["metrics"][metric]["unit"], len(values),
                   median, q1, q3, (q3 - q1) / median)
            )
    if probes:
        print("\nhost probe: %.2f to %.2f ms (median %.2f)" % (min(probes), max(probes), statistics.median(probes)))


if __name__ == "__main__":
    main()
