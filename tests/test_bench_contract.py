"""The package names that the benchmark in perfbench/ reaches into.

perfbench/ is read, never written: its tracer module is loaded from its
file with bytecode writing switched off.  A deletion or rename in the
package that the benchmark depends on fails here, under tier-1, instead of
only when the benchmark runs.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pvi_moduli import backlund, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_targets_resolve_to_callables(tracer):
    unresolved = []
    for module_name, path, _ in tracer.LAYER_TARGETS + tracer.VERIFY_TARGETS + tracer.CLI_TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        owner_path, _, attr = path.rpartition(".")
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        # the tracer replaces a method in the class's own __dict__
        found = (vars(owner).get(attr) if isinstance(owner, type)
                 else getattr(owner, attr, None))
        if isinstance(found, (classmethod, staticmethod)):
            found = found.__func__
        if not callable(found):
            unresolved.append(f"{module_name}.{path}")
    assert unresolved == []


def test_orbit_workload_names():
    assert callable(backlund.SymState.make)
    assert callable(backlund.schlesinger_composite_qp)
    for word in (backlund.WORD_SHIFT_12, backlund.WORD_SHIFT_34, backlund.WORD_SCHLESINGER):
        assert isinstance(word, tuple) and word and set(word) <= set(backlund.ALPHABET)


def test_suite_order_matches_the_benchmark(tracer):
    assert tuple(verify.SUITES) == tracer.SUITE_NAMES
