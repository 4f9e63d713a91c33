"""Record the outputs the benchmark checks against, into expected.json.

Usage, from the root of a checkout:  python3 perfbench/record.py

Records, for every input set 1..POOL of verify-all, the sha256 of the JSON
`pvi verify --suite all --seed S --samples 50 --bound 64` prints, and, for
every input set 0..POOL-1 of cli-cold, each query's argument list, exit
code and stdout digest.  Run it only on a commit whose outputs are meant
to be the reference; every call must pass.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import workloads
    from pvi_moduli import verify

    ctx = workloads.Context(root=ROOT, seed=0, seconds=0, trace=False,
                            out_dir=ROOT / ".bench_build" / "perfbench")
    expected = {"verify": {}, "cli": {}}
    for suite_seed in range(1, inputs.POOL + 1):
        reports = verify.run_suite("all", seed=suite_seed, samples=inputs.SAMPLES,
                                   bound=inputs.BOUND)
        if not all(r.passed for r in reports):
            raise SystemExit(f"verify seed {suite_seed} does not pass")
        expected["verify"][str(suite_seed)] = workloads.reports_digest(reports)
        print(f"verify seed {suite_seed}: {expected['verify'][str(suite_seed)]}")

    # The digest must equal that of the CLI's own stdout.
    runner = workloads.CliRunner(ctx, BENCH_DIR, [], [])
    _, proc = runner.run([sys.executable, "-m", "pvi_moduli.cli", "verify", "--suite", "all",
                          "--seed", "1"])
    if workloads.sha256(proc.stdout) != expected["verify"]["1"]:
        raise SystemExit("pvi verify --seed 1 stdout does not match the in-process digest")

    for index in range(inputs.POOL):
        ctx.seed = index
        _, templates, queries = workloads.cli_setup(ctx, BENCH_DIR)
        rows = []
        for template, argv in zip(templates, queries):
            _, proc = runner.run([sys.executable, "-m", "pvi_moduli.cli"] + argv)
            if proc.returncode != 0:
                raise SystemExit(f"cli set {index}: {' '.join(argv)} exits {proc.returncode}: "
                                 f"{proc.stderr.decode()}")
            rows.append({"argv": template, "exit": proc.returncode,
                         "stdout_sha256": workloads.sha256(proc.stdout)})
        expected["cli"][str(index)] = rows
        print(f"cli set {index}: {len(rows)} queries")

    with open(BENCH_DIR / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
