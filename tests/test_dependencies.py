"""At run time the package needs numpy and the standard library only.

scipy and the other test extras may serve as references in tests, never
in ``src/``.  Every absolute import in the package, at any depth (inside
functions too), must name a standard-library module or numpy.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bootperc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of each absolute import in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_package_imports_only_numpy_and_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    stray = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in _absolute_imports(path)
        if name not in ALLOWED
    ]
    assert not stray, f"imports outside numpy and the standard library: {stray}"
