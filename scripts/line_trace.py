"""Print the executable lines of src/pvi_moduli that a test run never ran.

Usage, from the root of a checkout:

    python3 scripts/line_trace.py

runs tier-1 (pytest on the whole `tests` directory) with a
`sys.settrace` line tracer that records only frames of files under
src/pvi_moduli.  The tracer is installed by a `sitecustomize.py` in a
temporary directory put first on PYTHONPATH, so every Python process the
tests start (the CLI subprocesses included) traces itself too; each process writes its (file, line) set when it
exits.  The executable lines of a module are those of every code object
in `compile()` of its source, read with `co_lines()`.  pytest's own output
goes to stderr; stdout gets one `path:line: source` row per line that
never ran, sorted, then a count, so the stdout of two runs can be
compared with diff.  Exits with pytest's code when pytest could not run
the tests (2 or more), else 0.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pvi_moduli"
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"]

SITECUSTOMIZE = '''\
import atexit, os, sys, threading, time

_ROOT, _OUT = os.environ["LINE_TRACE_ROOT"], os.environ["LINE_TRACE_OUT"]
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_ROOT) else None


def _dump():
    sys.settrace(None)
    name = os.path.join(_OUT, f"{os.getpid()}-{time.time_ns()}.hits")
    with open(name, "w", encoding="utf-8") as fh:
        fh.writelines(f"{path}\\t{line}\\n" for path, line in _hits)


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''


def executable_lines(source: str, filename: str) -> set:
    """The line numbers of every code object compiled from the source."""
    stack, lines = [compile(source, filename, "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(argv: list, out=None) -> tuple:
    """Run argv with the tracer active in it and in every Python process it
    starts; return (exit code, {(resolved path, line)} run under PACKAGE)."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        hits_dir = Path(tmp, "hits")
        hits_dir.mkdir()
        paths = [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)),
                   LINE_TRACE_ROOT=str(PACKAGE), LINE_TRACE_OUT=str(hits_dir))
        code = subprocess.run(argv, cwd=ROOT, env=env, stdout=out).returncode
        hits = set()
        for name in hits_dir.iterdir():
            for row in name.read_text(encoding="utf-8").splitlines():
                path, line = row.split("\t")
                hits.add((str(Path(path).resolve()), int(line)))
    return code, hits


def never_ran(hits: set) -> tuple:
    """([(path relative to ROOT, line, source)] of the executable package
    lines not in hits, number of executable lines)."""
    rows, total = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = executable_lines(text, str(path))
        total += len(lines)
        source = text.splitlines()
        rows += [(path.relative_to(ROOT).as_posix(), n, source[n - 1].strip())
                 for n in sorted(lines) if (str(path.resolve()), n) not in hits]
    return rows, total


def main() -> int:
    code, hits = traced_run([sys.executable, "-m", "pytest", *PYTEST_ARGS], out=sys.stderr)
    rows, total = never_ran(hits)
    for path, n, text in rows:
        print(f"{path}:{n}: {text}")
    print(f"{len(rows)} of {total} executable lines never ran (pytest exit code {code})")
    return code if code >= 2 else 0


if __name__ == "__main__":
    sys.exit(main())
