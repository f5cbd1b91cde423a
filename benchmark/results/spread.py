#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics in a ten-seed file.

usage: spread.py ten_seeds_a.jsonl [ten_seeds_b.jsonl]

Each line of a file is one `--trace 0` run as the driver makes it:
{"workload", "seed", "at", "result": <the run's last stdout line>, "notes"}.
Prints, per workload and metric, the median and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median — the driver's steadiness measure — and, with a second file, how
far its median lies on the worse side of the first file's.
"""
import json
import re
import statistics
import sys
from collections import defaultdict

BETTER_HIGHER = {"throughput_qps"}


def load(path):
    values = defaultdict(lambda: defaultdict(list))
    for line in open(path):
        run = json.loads(line)
        assert run["result"]["correct"] and run["result"]["failed"] == 0, line
        for name, metric in run["result"]["metrics"].items():
            values[run["workload"]][name].append(metric["value"])
        # What setup_s would read from one set-up instead of three.
        first = re.search(r"set-ups took \[([0-9.]+)", " ".join(run["notes"]))
        values[run["workload"]]["(first set-up alone)"].append(float(first.group(1)))
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


first = load(sys.argv[1])
second = load(sys.argv[2]) if len(sys.argv) > 2 else None
print(f"{'workload':<15} {'metric':<22} {'median':>10} {'spread':>8}" + ("   second: median  spread  worse by" if second else ""))
for workload, metrics in first.items():
    for name, values in metrics.items():
        row = f"{workload:<15} {name:<22} {statistics.median(values):>10.4f} {spread(values):>7.1%}"
        if second:
            other = second[workload][name]
            a, b = statistics.median(values), statistics.median(other)
            worse = (a - b) / a if name in BETTER_HIGHER else (b - a) / a
            row += f"   {b:>15.4f} {spread(other):>7.1%} {worse:>+9.1%}"
        print(row)
