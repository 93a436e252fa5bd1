import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "labelnoise"}


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_and_scripts_import_only_the_standard_library_and_numpy():
    # the package runs with numpy as its one dependency
    paths = sorted((ROOT / "src" / "labelnoise").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    )
    assert paths
    foreign = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in paths
        for name in _absolute_imports(path)
        if name.split(".")[0] not in ALLOWED
    }
    assert not foreign
