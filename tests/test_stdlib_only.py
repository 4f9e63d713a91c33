"""The package has no runtime dependencies (`dependencies = []` in
pyproject.toml): every absolute import in `src/pvi_moduli`, including the
imports inside functions, names a standard-library module.  Importing the
package also stays cheap for a cold CLI call: it does not load
`dataclasses`, whose `inspect` import chain cost several milliseconds a
call.  Modules share only public names: no module imports an underscore
name from a sibling.  The eps layer stands on `exact` alone: importing
`stability` or `mconv` loads neither the normal form (`connection`) nor
the contact geometry (`parabolic`); a function that needs them imports
them when it runs."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pvi_moduli").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def private_sibling_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("pvi_moduli")):
            yield from (f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_"))


def module_level_siblings(path):
    """The siblings that importing `path` imports: its relative imports
    outside function bodies.  The package's modules import each other only
    relatively, since an absolute `pvi_moduli` import fails the stdlib test."""
    found, todo = set(), [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        todo.extend(ast.iter_child_nodes(node))
    return found


SIBLINGS = {path.stem: module_level_siblings(path) for path in SOURCES}


def test_the_eps_layer_loads_no_geometry():
    assert SIBLINGS["stability"] <= {"errors", "exact"}
    assert SIBLINGS["mconv"] <= {"errors", "exact", "stability"}


def test_every_module_is_checked():
    assert len(SOURCES) > 10 and any(p.name == "cli.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = sorted({name for name in absolute_imports(path)
                      if name.split(".")[0] not in sys.stdlib_module_names})
    assert outside == []


def test_no_module_imports_a_private_name_of_a_sibling():
    found = {path.stem: sorted(private_sibling_imports(path)) for path in SOURCES}
    assert {module: names for module, names in found.items() if names} == {}


def test_importing_every_module_loads_neither_dataclasses_nor_inspect():
    modules = ", ".join(f"pvi_moduli.{p.stem}" for p in SOURCES if p.stem != "__init__")
    probe = (f"import sys, {modules}; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
