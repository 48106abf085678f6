"""The benchmark drives the program through its library API: every name it imports must exist.

perfbench/child.py is only read here, never imported or run, so a clean-up
that deletes or renames a name the benchmark uses fails in tier-1 instead of
in the next benchmark run.
"""
import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def cipherclust_imports() -> list[tuple[str, str | None]]:
    """(module, name) for each `from cipherclust... import name`; (module, None) for `import cipherclust...`."""
    out: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(CHILD.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cipherclust":
            out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "cipherclust")
    return out


def test_perfbench_child_imports_resolve():
    imports = cipherclust_imports()
    assert any(name == "matrix_pipeline" for _, name in imports)
    missing = []
    for module, name in imports:
        loaded = importlib.import_module(module)  # a missing module raises here
        if name is not None and not hasattr(loaded, name):
            missing.append(f"{module}.{name}")
    assert missing == []
