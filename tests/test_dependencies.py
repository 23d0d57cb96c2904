"""The package imports only the standard library and numpy, its one declared
runtime dependency; other packages installed beside it must not leak in."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "seqassign"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "seqassign"}


def imported_modules(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    foreign = [m for m in imported_modules(path) if m.split(".")[0] not in ALLOWED]
    assert foreign == [], f"{path.name} imports {foreign}"


def test_the_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nimport scipy.sparse as sp\nfrom networkx import Graph\n"
        "from . import geometry\ndef f():\n    import numpy.linalg\n"
    )
    assert imported_modules(probe) == ["os", "scipy.sparse", "networkx", "numpy.linalg"]
