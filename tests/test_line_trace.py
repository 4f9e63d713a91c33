"""scripts/line_trace.py: the executable lines it counts, and its tracer in
a Python process started by the traced one."""
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "line_trace.py"
spec = importlib.util.spec_from_file_location("line_trace", SCRIPT)
line_trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_trace)


def test_executable_lines_cover_every_code_object():
    source = "x = 1\n\ndef f():\n    return [y for y in range(x)]\n\n\nclass C:\n    z = 2\n"
    assert line_trace.executable_lines(source, "m.py") == {1, 3, 4, 7, 8}


def test_a_child_process_is_traced_and_its_unrun_lines_reported():
    child = "from pvi_moduli.exact import rat_from_str; rat_from_str('1/2')"
    parent = ("import subprocess, sys; "
              f"sys.exit(subprocess.run([sys.executable, '-c', {child!r}]).returncode)")
    code, hits = line_trace.traced_run([sys.executable, "-c", parent])
    assert code == 0
    source = (line_trace.PACKAGE / "exact.py").read_text().splitlines()

    def line_of(text):
        return next(n for n, row in enumerate(source, 1) if text in row)

    ran, unrun = line_of("return Fraction(int(m[1])"), line_of('"empty system"')
    exact = str((line_trace.PACKAGE / "exact.py").resolve())
    assert (exact, ran) in hits and (exact, unrun) not in hits
    rows, total = line_trace.never_ran(hits)
    reported = {(path, n) for path, n, _ in rows}
    assert ("src/pvi_moduli/exact.py", unrun) in reported
    assert ("src/pvi_moduli/exact.py", ran) not in reported
    assert 0 < len(rows) < total
