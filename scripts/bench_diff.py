"""Compare the end-to-end moves of two BENCH files against the bounds in
BENCHMARK.json.

Usage, from the root of a checkout:

    python3 scripts/bench_diff.py BENCH_15.json BENCH_19.json

A BENCH file's `summary` holds, for each (workload, seed, metric), the
median and quartiles of the parent's runs and of the change's runs, taken
together on one host.  The script judges each file by its own move, from
its parent median to its change median, so a host that is faster or
slower during one file's runs than during the other's cancels out.  For
every end-to-end metric of BENCHMARK.json it prints one line per
(workload, seed): the move in the old file, the move in the new file, and
the two chained, which is the move from the old file's parent to the new
file's change.  A line ends in WORSE when a file's own move is worse than
the metric's bound (an increase for a lower-is-better metric, a decrease
for a higher-is-better one) and names that file.  A key found in only one
file is printed as missing and not judged.  Exits 1 when any move is
WORSE, else 0.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_moves(path) -> dict:
    """{(workload, seed, metric): relative move from the parent median to
    the change median} of one BENCH file."""
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)["summary"]
    return {(row["workload"], row["seed"], row["metric"]):
            relative(row["parent"]["median"], row["change"]["median"]) for row in summary}


def end_to_end_bounds(path=ROOT / "BENCHMARK.json") -> dict:
    """{metric: (better, bound)} for the end-to-end metrics."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def relative(old: float, new: float) -> float:
    if old == 0:
        return 0.0 if new == 0 else math.copysign(math.inf, new)
    return (new - old) / abs(old)


def is_worse(move: float, better: str, bound: float) -> bool:
    return move > bound if better == "lower" else -move > bound


def compare(old: dict, new: dict, bounds: dict) -> list:
    """(workload, seed, metric, old move, new move, chained, worse) rows,
    sorted, where worse names the files whose own move is past the bound;
    the moves are None where a file lacks the key."""
    rows = []
    for key in sorted(k for k in set(old) | set(new) if k[2] in bounds):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            rows.append(key + (a, b, None, ()))
            continue
        worse = tuple(name for name, move in (("old", a), ("new", b))
                      if is_worse(move, *bounds[key[2]]))
        rows.append(key + (a, b, (1 + a) * (1 + b) - 1, worse))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: bench_diff.py OLD_BENCH.json NEW_BENCH.json\n")
        return 2
    rows = compare(load_moves(argv[0]), load_moves(argv[1]), end_to_end_bounds())
    print(f"{'workload':<11} {'seed':>4} {'metric':<14} {'old move':>9} {'new move':>9} "
          f"{'chained':>9}")
    for workload, seed, metric, a, b, chained, worse in rows:
        if chained is None:
            cells = f"{'-' if a is None else f'{a:+.2%}':>9} {'-' if b is None else f'{b:+.2%}':>9} missing"
        else:
            cells = f"{a:>+9.2%} {b:>+9.2%} {chained:>+9.2%}"
            if worse:
                cells += "  WORSE in " + " and ".join(worse)
        print(f"{workload:<11} {seed:>4} {metric:<14} {cells}")
    flagged = sum(len(row[-1]) for row in rows)
    judged = 2 * sum(row[5] is not None for row in rows)
    print(f"{flagged} of {judged} moves worse than their bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
