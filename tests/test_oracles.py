import ast
from pathlib import Path


def imported_modules(path):
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def test_oracles_import_no_package_code():
    # the oracles are a second implementation: one that imported the
    # package could share a defect with the code it checks
    names = imported_modules(Path(__file__).parent / "oracles.py")
    assert "fractions" in names
    assert [n for n in names if n.split(".")[0] in ("mengerian", "")] == []
