"""Source hygiene: no unused imports in the package modules, and helpers
that were folded into one implementation stay folded."""

import ast
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dirspaces"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read in the module."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def top_level_names(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def class_methods(tree: ast.Module, cls: str) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
    raise LookupError(cls)


def test_checker_flags_unused_import():
    tree = ast.parse("import os\nimport math\nfrom x import y, z\nmath.pi\nz()\n")
    assert unused_imports(tree) == ["os (line 1)", "y (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


def test_folded_helpers_stay_gone():
    gone = {
        "compose.py": {"_defect_at"},
        "measures.py": {"integrate", "weight"},
        "norms.py": {"_worker_count", "_qmc_replicate", "_weight_real"},
        "series.py": {"_mono_with_table", "_divisor_lists"},
    }
    for name, names in gone.items():
        assert not names & top_level_names(_tree(PACKAGE / name)), name
    measures = _tree(PACKAGE / "measures.py")
    assert "integrate" not in class_methods(measures, "AlphaMeasure")
    for cls in ("Measure", "DensityMeasure"):
        assert "_rule" not in class_methods(measures, cls), cls


def test_dead_knobs_stay_gone():
    from dirspaces.norms import norm_hp, qmc_norm_hp
    from dirspaces.primes import factorize
    from dirspaces.symbols import check_theorem1, check_theorem2

    dead = {"method", "points", "replicates", "max_rel_spread", "spf", "t_max", "t_steps"}
    for fn in (norm_hp, qmc_norm_hp, factorize, check_theorem1, check_theorem2):
        assert not dead & set(inspect.signature(fn).parameters), fn.__name__


def test_no_qmc_thread_knob():
    for path in MODULES:
        text = path.read_text()
        assert "DIRSPACES_THREADS" not in text, path.name
        assert "ThreadPoolExecutor" not in text, path.name
