"""Compare the end-to-end medians of two BENCH files against the bounds in
BENCHMARK.json.

Usage, from the root of a checkout:

    python3 scripts/bench_diff.py BENCH_8.json BENCH_9.json

A BENCH file's `summary` holds, for each (workload, seed, metric), the
median and quartiles of the parent's runs and of the change's runs.  The
change side is the state that file's change left, so the script compares
the change medians of the two files.  For every end-to-end metric of
BENCHMARK.json it prints one line per (workload, seed): the old and new
median, the relative move, and WORSE when the move is worse than the
metric's bound (an increase for a lower-is-better metric, a decrease for
a higher-is-better one).  A key found in only one file is printed as
missing and not judged.  Exits 1 when any metric is WORSE, else 0.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_medians(path) -> dict:
    """{(workload, seed, metric): median of the change side}."""
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)["summary"]
    return {(row["workload"], row["seed"], row["metric"]): row["change"]["median"]
            for row in summary}


def end_to_end_bounds(path=ROOT / "BENCHMARK.json") -> dict:
    """{metric: (better, bound)} for the end-to-end metrics."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def relative(old: float, new: float) -> float:
    if old == 0:
        return 0.0 if new == 0 else math.copysign(math.inf, new)
    return (new - old) / abs(old)


def compare(old: dict, new: dict, bounds: dict) -> list:
    """(workload, seed, metric, old, new, relative, worse) rows, sorted;
    old, new and relative are None where a file lacks the key."""
    rows = []
    for key in sorted(k for k in set(old) | set(new) if k[2] in bounds):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            rows.append(key + (a, b, None, False))
            continue
        better, bound = bounds[key[2]]
        move = relative(a, b)
        worse = move > bound if better == "lower" else -move > bound
        rows.append(key + (a, b, move, worse))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: bench_diff.py OLD_BENCH.json NEW_BENCH.json\n")
        return 2
    rows = compare(load_medians(argv[0]), load_medians(argv[1]), end_to_end_bounds())
    print(f"{'workload':<11} {'seed':>4} {'metric':<14} {'old':>12} {'new':>12} {'move':>8}")
    for workload, seed, metric, a, b, move, worse in rows:
        if move is None:
            cells = f"{'-' if a is None else f'{a:.6g}':>12} {'-' if b is None else f'{b:.6g}':>12} missing"
        else:
            cells = f"{a:>12.6g} {b:>12.6g} {move:>+8.2%}" + ("  WORSE" if worse else "")
        print(f"{workload:<11} {seed:>4} {metric:<14} {cells}")
    flagged = sum(row[-1] for row in rows)
    print(f"{flagged} of {len(rows)} metrics worse than their bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
