"""Self-test of the benchmark's tracer and output checks.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Shows that (1) a call through an alias, verify.build_connection, is
recorded as connection.build_connection; (2) a span's self time is its
duration minus the time its child spans cover, and the self times of a
pass add up to the pass; (3) a tampered verify report fails the digest
check.  Exits 0 when all three hold.
"""
from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_TARGETS, ROOT_SPAN, Tracer  # noqa: E402


def check(condition, what) -> None:
    """Like assert, but kept under python -O."""
    if not condition:
        raise AssertionError(what)


def test_alias_is_rebound() -> None:
    from pvi_moduli import verify
    from pvi_moduli.connection import PQState

    original = verify.build_connection
    state = PQState.from_json_dict({"t": "2/1", "kappa": ["1/4", "1/8", "1/8", "1/8", "1/8"],
                                    "q": "3/1", "p": "5/1"})
    tracer = Tracer()
    tracer.install(LAYER_TARGETS)
    try:
        verify.build_connection(state)
    finally:
        tracer.uninstall()
    check(tracer.stats.get("connection.build_connection", [0])[0] == 1, tracer.stats)
    check(verify.build_connection is original, "uninstall did not restore the alias")


def _spin(n: int) -> int:
    return sum(i * i for i in range(n))


def test_self_time() -> None:
    tracer = Tracer()
    with tracer.span(ROOT_SPAN):
        _spin(20000)
        with tracer.span("child"):
            _spin(20000)
            with tracer.span("grandchild"):
                _spin(20000)
        with tracer.span("child"):
            _spin(20000)
    spans = tracer.spans
    by_name = {}
    for index, (name, start, end, _) in enumerate(spans):
        covered = sum(e - s for _, s, e, parent in spans if parent == index)
        by_name[name] = by_name.get(name, 0.0) + (end - start) - covered
    for name, self_s in by_name.items():
        check(abs(tracer.stats[name][2] - self_s) < 1e-9, (name, tracer.stats[name], self_s))
    root = spans[0]
    total_self = sum(st[2] for st in tracer.stats.values())
    check(abs(total_self - (root[2] - root[1])) < 1e-9, "self times != root span")
    check(tracer.stats["child"][0] == 2, tracer.stats)


def test_tampered_report_fails() -> None:
    from pvi_moduli import verify

    expected = workloads.load_expected(BENCH_DIR)["verify"]
    reports = verify.run_suite("all", seed=1, samples=inputs.SAMPLES, bound=inputs.BOUND)
    check(workloads.check_reports(reports, expected["1"]) is None, "untouched reports rejected")
    reports[2].rejections += 1
    check(workloads.check_reports(reports, expected["1"]) is not None, "tampered count accepted")
    reports[2].rejections -= 1
    reports[0].checks[0].passed = False
    check(workloads.check_reports(reports, expected["1"]) is not None, "failed check accepted")


def main() -> int:
    for test in (test_alias_is_rebound, test_self_time, test_tampered_report_fails):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
