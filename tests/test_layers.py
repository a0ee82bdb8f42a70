"""Package imports point down one fixed layer order.

Each module of src/nilbloch is parsed with ast (nothing is imported), and
every import of a sibling module must name a module of a strictly lower
layer. The dense oracle imports nothing from the package, so it stays an
independent check of the blocked engine.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nilbloch"

LAYERS = ["linalg", "dense", "algebra", "forms", "derham", "ksymbols",
          "singularities", "sampling", "parser", "acceptance", "cli",
          "__main__", "__init__"]


def package_imports(path):
    """Sibling modules imported anywhere in the file (also inside functions)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            out.update(n.split(".", 1)[1].split(".")[0] for n in names
                       if n and n.startswith("nilbloch."))
    return out


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LAYERS)


def test_dense_oracle_imports_nothing_from_the_package():
    assert package_imports(PACKAGE / "dense.py") == set()


def test_imports_point_down_the_layers():
    rank = {name: i for i, name in enumerate(LAYERS)}
    upward = [(p.stem, dep) for p in PACKAGE.glob("*.py")
              for dep in sorted(package_imports(p))
              if rank[dep] >= rank[p.stem]]
    assert upward == []
    assert "cli" not in package_imports(PACKAGE / "acceptance.py")
