"""The outputs recorded in perfbench/expected.json, replayed in process.

The benchmark rejects any change to what the program prints: the JSON of
`pvi verify --suite all` for each recorded suite seed, and the exit code
and stdout of each cli-cold query.  These tests replay the same inputs
through `cli.main`, so a change in any printed byte fails here, under
tier-1, instead of only when the benchmark runs.

perfbench/ is read, never written: its input generator is loaded from its
file with bytecode writing switched off.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from pvi_moduli.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
# one tuning and one held-out suite seed of the verify-all workload
VERIFY_SEEDS = (1, 12)


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


INPUTS = _load_inputs()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("index", range(INPUTS.POOL))
def test_cli_queries_print_the_recorded_output(index, tmp_path, capsys):
    files, queries = INPUTS.cli_inputs(index)
    recorded = EXPECTED["cli"][str(index)]
    assert [row["argv"] for row in recorded] == queries
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    got = []
    for query in queries:
        code = main([arg.replace("{dir}", str(tmp_path)) for arg in query])
        got.append({"argv": query, "exit": code, "stdout_sha256": sha256(capsys.readouterr().out)})
    assert got == recorded


@pytest.mark.parametrize("seed", VERIFY_SEEDS)
def test_verify_all_prints_the_recorded_report(seed, capsys):
    code = main(["verify", "--suite", "all", "--seed", str(seed),
                 "--samples", str(INPUTS.SAMPLES), "--bound", str(INPUTS.BOUND)])
    assert (code, sha256(capsys.readouterr().out)) == (0, EXPECTED["verify"][str(seed)])
