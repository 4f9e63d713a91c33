"""Benchmark of pvi-moduli: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Workloads: verify-all, orbit-tall, cli-cold (see perfbench/METHOD.md).
With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones.  Human-readable lines come first; the
last line of stdout is the JSON result.  Exits 2 without a result when
the checkout holds no src/pvi_moduli.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def declared_metrics(trace: bool):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pvi_moduli" / "__init__.py").is_file():
        sys.stderr.write(f"error: no pvi_moduli package under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    import workloads  # after the package path is set

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    ctx = workloads.Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), out_dir=ROOT / ".bench_build" / "perfbench")
    out = workloads.WORKLOADS[args.workload](ctx, BENCH_DIR)

    declared = declared_metrics(ctx.trace)
    reported = {name: unit for name, (_, unit) in out.metrics.items()}
    if reported != declared:
        sys.stderr.write("error: reported metrics differ from BENCHMARK.json: "
                         f"{sorted(set(reported) ^ set(declared))}\n")
        return 3

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: python "
          f"{platform.python_version()}, nproc {len(os.sched_getaffinity(0))}")
    for line in out.notes:
        print(f"# {line}")
    for problem in out.problems:
        print(f"# FAILED: {problem}")
    print(f"# fail_ratio {out.failed / max(out.attempted, 1):g} "
          f"({out.failed} of {out.attempted} operations)")
    for name, (value, unit) in out.metrics.items():
        print(f"# {name} = {value:g} {unit}" if isinstance(value, float) else
              f"# {name} = {value} {unit}")
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in out.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
