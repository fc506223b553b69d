"""Source hygiene: no unused imports in the package modules, helpers that
were folded into one implementation stay folded, and scipy stays out of the
paths that do not need it."""

import ast
import inspect
import json
import math
import os
import subprocess
import sys
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


def calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """Calls of the plain name `name` within `tree`."""
    return [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
    ]


def test_checker_flags_unused_import():
    tree = ast.parse("import os\nimport math\nfrom x import y, z\nmath.pi\nz()\n")
    assert unused_imports(tree) == ["os (line 1)", "y (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


def test_folded_helpers_stay_gone():
    gone = {
        "compose.py": {"_defect_at", "_grouped"},
        "measures.py": {"integrate", "weight"},
        "norms.py": {
            "_worker_count",
            "_qmc_replicate",
            "_weight_real",
            "_scrambled_sobol",
            "_sobol_directions",
            "_dyadic_blocks_decreasing",
        },
        "series.py": {"_mono_with_table", "_divisor_lists"},
    }
    for name, names in gone.items():
        assert not names & top_level_names(_tree(PACKAGE / name)), name
    norms = _tree(PACKAGE / "norms.py")
    assert "_POWER_CAP_Q" not in {n.id for n in ast.walk(norms) if isinstance(n, ast.Name)}
    # even p is decided once, in the one H^p / A^p norm routine
    assert len(calls(norms, "_even_q")) == 1
    # one routine sums n^{-z}/w_h(n) and tests its divergence, at mu.abscissa
    functions = {n.name: n for n in norms.body if isinstance(n, ast.FunctionDef)}
    for name in ("kernel", "point_eval_sum"):
        assert calls(functions[name], "_weighted_sum"), name
    assert len(calls(norms, "_weighted_sum")) == 2
    for node in ast.walk(norms):
        if isinstance(node, ast.Compare) and any(isinstance(op, ast.LtE) for op in node.ops):
            literals = [c.value for c in node.comparators if isinstance(c, ast.Constant)]
            assert not [v for v in literals if isinstance(v, float) and v == 1.0], node.lineno
    measures = _tree(PACKAGE / "measures.py")
    # every measure integrates through the one node-doubled Measure.integrate
    for cls in ("AlphaMeasure", "DensityMeasure", "SampledDensityMeasure"):
        assert "integrate" not in class_methods(measures, cls), cls
    for cls in ("Measure", "DensityMeasure"):
        assert "_rule" not in class_methods(measures, cls), cls


def test_spectrum_path_never_reads_the_dense_section():
    # The spectrum is taken from the section's triplets; the dense N x k
    # array is built only for the callers that read `.entries`.
    spectrum = {"_section_spectra", "isometry_defect", "contraction_lower_bound"}
    seen = set()
    for node in _tree(PACKAGE / "compose.py").body:
        if isinstance(node, ast.FunctionDef) and node.name in spectrum:
            seen.add(node.name)
            reads = [
                n.lineno
                for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr == "entries"
            ]
            assert reads == [], node.name
    assert seen == spectrum


def test_dead_knobs_stay_gone():
    import dataclasses

    from dirspaces.lab import two_norm_profile
    from dirspaces.measures import DensityMeasure, QuadratureSpec
    from dirspaces.norms import norm_hp, qmc_norm_hp
    from dirspaces.primes import factorize
    from dirspaces.symbols import check_theorem1, check_theorem2, is_vertical_translation

    dead = {"method", "points", "replicates", "max_rel_spread", "spf", "t_max", "t_steps", "tol"}
    for fn in (
        norm_hp, qmc_norm_hp, factorize, check_theorem1, check_theorem2, is_vertical_translation
    ):
        assert not dead & set(inspect.signature(fn).parameters), fn.__name__
    assert "mu" not in inspect.signature(two_norm_profile).parameters
    for cls, name in ((QuadratureSpec, "scheme"), (DensityMeasure, "interval_support")):
        assert name not in {f.name for f in dataclasses.fields(cls)}, cls.__name__


SETTINGS = {"seed", "eta", "eps_grid"}


def test_no_setting_the_code_works_out_for_itself():
    """The QMC shifts, the theorem-2 margin and the Lemma 1 eps are fixed
    by the inputs: no public function or method takes them."""
    import importlib

    import dirspaces
    from dirspaces.norms import _qmc_moments, _torus_moments

    fns = [_qmc_moments, _torus_moments]
    modules = [dirspaces] + [importlib.import_module(f"dirspaces.{p.stem}") for p in MODULES]
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith("dirspaces"):
                continue
            if inspect.isfunction(obj):
                fns.append(obj)
            elif inspect.isclass(obj):
                methods = vars(obj).items()
                fns += [m for n, m in methods if inspect.isfunction(m) and not n.startswith("_")]
    assert len(fns) > 50
    for fn in fns:
        assert not SETTINGS & set(inspect.signature(fn).parameters), fn.__qualname__


def test_no_seed_or_eta_flag():
    import argparse

    from dirspaces.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 8
    for name, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert not {"--seed", "--eta"} & flags, name
    path = [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    run = subprocess.run(
        [sys.executable, "-m", "dirspaces.cli", "classify", "--seed", "1", "--phi", "[[1,1,0]]"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=60,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert "unrecognized arguments: --seed 1" in run.stderr and "Traceback" not in run.stderr


def test_scipy_is_imported_only_by_the_density_kernel_tail():
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert found == [("norms.py", "scipy.integrate")]


def test_no_qmc_thread_knob():
    for path in MODULES:
        text = path.read_text()
        assert "DIRSPACES_THREADS" not in text, path.name
        assert "ThreadPoolExecutor" not in text, path.name


SAMPLED = json.dumps({"type": "density", "samples": [[0, 2], [1, 0]]})
# Every subcommand on an alpha measure, norms at even and non-even p, and
# sampled-density weights, norms and classify: none of these may load scipy,
# which only the kernel tail of a density measure imports.
SCIPY_FREE_ARGV = [
    ["classify", "--c0", "0", "--phi", "[[1,1,0],[2,0.25,0]]", "--alpha", "0", "--N", "16"],
    ["classify", "--c0", "1", "--phi", "[[1,1,0],[2,0.2,0]]", "--alpha", "1", "--N", "32"],
    ["compose", "--c0", "2", "--phi", "[]", "--n", "2", "--N", "16"],
    ["check-symbol", "--c0", "1", "--phi", "[[1,2,0],[2,1,0]]"],
    ["check-symbol", "--c0", "0", "--phi", "[[1,1,0],[2,0.25,0]]"],
    ["weights", "--alpha", "1", "--nmax", "8"],
    ["kernel", "--alpha", "0", "--s-re", "1", "--w-re", "1", "--N", "64"],
    ["lemma2", "--alpha", "1", "--sigmas", "1.5,4,8", "--N", "1000"],
    ["profile", "--c0", "2", "--phi", "[]", "--sigmas", "0.5,1", "--N", "64"],
    ["norm", "--space", "a", "--p", "2", "--alpha", "1", "--terms", "[[1,1,0],[2,1,0]]"],
    ["norm", "--space", "a", "--p", "4", "--alpha", "0", "--terms", "[[1,1,0],[3,0.5,1]]"],
    ["norm", "--space", "h", "--p", "3", "--terms", "[[1,1,0],[2,0.5,0],[3,0.2,0]]"],
    ["norm", "--space", "a", "--p", "1.5", "--alpha", "1", "--terms", "[[1,1,0],[6,0.4,0]]"],
    # |1 + 2^{-s}| vanishes on the torus: the QMC fallback
    ["norm", "--space", "h", "--p", "1", "--terms", "[[1,1,0],[2,1,0]]"],
    ["profile", "--c0", "1", "--phi", "[[1,1,0],[2,0.2,0]]", "--sigmas", "0.5", "--p", "3", "--N", "16"],
    ["weights", "--measure-json", SAMPLED, "--nmax", "64"],
    ["norm", "--space", "a", "--p", "1.5", "--measure-json", SAMPLED, "--terms", "[[1,1,0],[6,0.4,0]]"],
    ["classify", "--c0", "1", "--phi", "[[1,1,0],[2,0.2,0]]", "--measure-json", SAMPLED, "--N", "16"],
]
# The kernel tail of a density measure integrates with scipy.integrate: the
# control that the probe sees a scipy import when there is one.
DENSITY_ARGV = ["kernel", "--measure-json", SAMPLED, "--s-re", "1.5", "--w-re", "1.5", "--N", "16"]

PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import dirspaces
from dirspaces import cli

rows = [["import dirspaces", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    rows.append([" ".join(argv), code, scipy_modules()])
print(json.dumps(rows))
"""


def test_scipy_is_not_imported_off_the_density_paths():
    path = [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    run = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(SCIPY_FREE_ARGV + [DENSITY_ARGV])],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=120,
        check=True,
    )
    rows = json.loads(run.stdout)
    *clean, density = rows
    assert len(clean) == len(SCIPY_FREE_ARGV) + 1
    for what, code, modules in clean:
        assert code == 0, what
        assert modules == [], what
    assert density[1] == 0
    assert "scipy.integrate" in density[2]


# With scipy unimportable: the QMC fallback, on a 5-dimensional lift whose
# sigma-nodes mostly fail their only trapezoid grid and on |1 + 2^{-s}|; and
# a callable and a sampled density, their weights and a non-even A^p norm.
BLOCKED_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None
import numpy as np
import dirspaces as d

f = d.from_terms({61: 0.346, 60: -0.949j, 38: 3.06e-84 - 1e-300j}, 61)
print(d.norm_ap(f, 1.0, d.AlphaMeasure(0.0)))
print(d.qmc_norm_hp(d.from_terms({1: 1.0, 2: 1.0}, 2), 1.0)[0])
g = d.from_terms({1: 1.0, 6: 0.4}, 6)
for mu in (
    d.DensityMeasure(h=lambda s: 3.0 * np.exp(-3.0 * s)),
    d.SampledDensityMeasure(samples=[[0.0, 2.0], [1.0, 0.0]]),
):
    print(mu.weights(64)[1], d.norm_ap(g, 1.5, mu))
"""


def test_qmc_fallback_runs_without_scipy():
    path = [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    run = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCIPY_PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    ap, hp, w_callable, ap_callable, w_sampled, ap_sampled = map(float, run.stdout.split())
    assert ap == pytest.approx(0.3218, rel=1e-3)
    assert hp == pytest.approx(4.0 / 3.141592653589793, rel=1e-8)
    # w(2) = 3/(3 + 2 log 2) and, for h = 2 - 2 sigma on [0, 1],
    # 2 (c - 1 + e^{-c})/c^2 with c = 2 log 2
    c = 2.0 * math.log(2.0)
    assert w_callable == pytest.approx(3.0 / (3.0 + c), rel=1e-12)
    assert w_sampled == pytest.approx(2.0 * (c - 1.0 + math.exp(-c)) / c**2, rel=1e-12)
    for value in (ap_callable, ap_sampled):
        assert 1.0 < value < 1.4
