"""Source hygiene: no unused imports in the package modules, no public name
without a reader, helpers that were folded into one implementation stay
folded, no path of the package imports scipy, the measures form no weight by
np.power, and compose takes no SVD."""

import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "dirspaces"
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


def public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function and class, and
    (Class.method, node) of each public method of a public class."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
            yield top.name, top
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield f"{top.name}.{node.name}", node


def reads(tree: ast.AST) -> Counter:
    """How often each name is read in `tree`: as a name, an attribute or an
    imported name (the unused-import check sees that an import is read)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
    return found


def unread_names(modules: dict[str, ast.Module], outside: Counter) -> list[str]:
    """module.name of each public definition that no module reads outside
    the definition itself, and that `outside` does not read."""
    everywhere = sum((reads(tree) for tree in modules.values()), Counter(outside))
    return [
        f"{module}.{qualname}"
        for module, tree in modules.items()
        for qualname, node in public_definitions(tree)
        if everywhere[node.name] == reads(node)[node.name]
    ]


def test_checker_flags_unread_names():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    return h\n"
        "def h():\n    pass\n"
        "class C:\n    def m(self):\n        return self.m\n    def k(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
    )
    assert unread_names({"mod": tree}, Counter({"k": 1})) == ["mod.f", "mod.g", "mod.C", "mod.C.m"]


# Public names that only tests read, kept because tests check against them.
_TEST_REFERENCES = {
    "translate_symbol": "test_lab checks two_norm_profile's one-pass route against it",
    "linear": "test_series builds its exp reference with it",
    "column_norms": "test_acceptance reads it for an acceptance criterion",
    "density": "tests pass AlphaMeasure(5.0).density as the h of a DensityMeasure",
    "power": "test_norms checks the even-p norms' one-array route against it",
}


def test_every_public_name_has_a_reader():
    """A public function, class or method is read somewhere in the package
    (outside its own definition and __init__), a demo or the benchmark:
    a name that only its own tests read is dead code."""
    outside = Counter()
    for path in sorted(REPO.glob("demos/*.py")) + sorted(REPO.glob("bench/**/*.py")):
        outside += reads(_tree(path))
    unread = unread_names({p.stem: _tree(p) for p in MODULES}, outside)
    assert [q for q in unread if q.rsplit(".", 1)[-1] not in _TEST_REFERENCES] == []


def test_readme_names_every_export():
    """The README's module table names each name that dirspaces exports."""
    exports = {
        alias.asname or alias.name
        for node in _tree(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    readme = (REPO / "README.md").read_text().splitlines()
    table = "\n".join(line for line in readme if line.startswith("| `dirspaces."))
    assert sorted(exports - set(re.findall(r"`([A-Za-z_]\w*)", table))) == []


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
            "_kernel_tail",
            "_secant_tail",
            "_log_upper_gamma",
            "point_eval_bound_a1",
            "point_eval_ratio_alpha",
        },
        "series.py": {
            "_mono_with_table",
            "_divisor_lists",
            "monomial_of_index",
            "index_of_monomial",
            "_nth_prime_bound",
            "zero",
        },
        "primes.py": {"primes_upto", "spf_table"},
        "lab.py": {"hinf_bound_2pow"},
    }
    for name, names in gone.items():
        assert not names & top_level_names(_tree(PACKAGE / name)), name
    # no export of a section: other classes' to_json hide it from a scan by name
    compose = _tree(PACKAGE / "compose.py")
    assert not {"to_json", "to_csv"} & class_methods(compose, "OperatorMatrix")
    norms = _tree(PACKAGE / "norms.py")
    assert "_POWER_CAP_Q" not in {n.id for n in ast.walk(norms) if isinstance(n, ast.Name)}
    # even p is decided once, in the one H^p / A^p norm routine
    assert len(calls(norms, "_even_q")) == 1
    # one routine sums n^{-z}/w_h(n) and tests its divergence, at mu.abscissa
    functions = {n.name: n for n in norms.body if isinstance(n, ast.FunctionDef)}
    for name in ("kernel", "point_eval_sum"):
        assert calls(functions[name], "_weighted_sum"), name
    assert len(calls(norms, "_weighted_sum")) == 2
    # the kernel's tail is the measure's: norms names no measure class and
    # asks for the tail once, in the weighted sum
    names = {n.id for n in ast.walk(norms) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(norms) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "AlphaMeasure" not in names
    def tail_calls(tree):
        return [
            n
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "kernel_tail"
        ]

    assert len(tail_calls(norms)) == 1
    assert tail_calls(functions["_weighted_sum"]) == tail_calls(norms)
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
    for cls in (n.name for n in measures.body if isinstance(n, ast.ClassDef)):
        assert "weight_and_gap" not in class_methods(measures, cls), cls
    # weights_at is where a measure decides its weights; weight and the
    # memo read through it, and no __post_init__ sets up a lock or memo
    assert "weight" not in class_methods(measures, "AlphaMeasure")
    assert "__post_init__" not in class_methods(measures, "Measure")


def _is_strided_add(node) -> bool:
    """`x[a::d] += ...`: a Dirichlet convolution's slice-add."""
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and isinstance(node.target, ast.Subscript)
        and any(isinstance(n, ast.Slice) and n.step is not None for n in ast.walk(node.target))
    )


def test_one_convolution_loop():
    """series has one Dirichlet convolution loop, in _convolve; multiply and
    power call it, and the norms form f^q through it, not through power."""
    series = _tree(PACKAGE / "series.py")
    functions = {n.name: n for n in series.body if isinstance(n, ast.FunctionDef)}
    for name in ("multiply", "power"):
        assert calls(functions[name], "_convolve"), name
    (add,) = [n for n in ast.walk(series) if _is_strided_add(n)]
    (loop,) = [n for n in ast.walk(functions["_convolve"]) if isinstance(n, ast.For)]
    assert add in ast.walk(loop)
    norms = _tree(PACKAGE / "norms.py")
    assert not calls(norms, "power")
    assert calls(norms, "_convolve")
    assert not [n for n in ast.walk(norms) if _is_strided_add(n)]


def _sites(predicate, paths=MODULES) -> list[str]:
    """module.function for each node in `paths` matching `predicate`, by
    the top-level definition that holds it."""
    return [
        f"{path.stem}.{getattr(top, 'name', top.lineno)}"
        for path in paths
        for top in _tree(path).body
        for node in ast.walk(top)
        if predicate(node)
    ]


def _is_name(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _is_constant(node, value) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_constant(node.operand, -value)
    return isinstance(node, ast.Constant) and node.value == value


def _compares(node, name: str, value) -> bool:
    """A comparison of the variable `name` with the constant `value`."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    named = any(_is_name(x, name) for x in operands)
    return named and any(_is_constant(x, value) for x in operands)


def _attr_call(node, attr: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == attr


def test_each_folded_rule_has_one_site():
    """p, alpha, exactness, the theorem-1/2 refutation and the kernel terms
    are each decided in one place, which every entry calls."""
    norms, symbols = [PACKAGE / "norms.py"], [PACKAGE / "symbols.py"]
    assert _sites(lambda n: _compares(n, "p", 1)) == ["norms._check_p"]
    assert _sites(lambda n: _compares(n, "alpha", -1)) == ["measures.alpha_weight"]
    exact = _sites(
        lambda n: isinstance(n, ast.Attribute) and n.attr == "exact" and _is_name(n.value, "f"),
        norms,
    )
    assert exact == ["norms._homogeneous"]
    refutations = _sites(
        lambda n: isinstance(n, ast.Call) and _is_name(n.func, "_refutation_grid"), symbols
    )
    assert refutations == ["symbols._certify"]
    log_tables = _sites(
        lambda n: _attr_call(n, "log") and n.args and _attr_call(n.args[0], "arange"), norms
    )
    assert log_tables == ["norms._kernel_terms"]


def test_only_the_bohr_lift_factorizes():
    """The lift's arrays are the one factorization of a support: every
    other consumer reads them."""
    callers = []
    for path in MODULES:
        for node in _tree(path).body:
            called = {
                getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                for n in ast.walk(node)
                if isinstance(n, ast.Call)
            }
            if "factorize" in called:
                callers.append(f"{path.stem}.{getattr(node, 'name', node.lineno)}")
    assert callers == ["series.bohr_lift"]
    import dirspaces

    assert not {"monomial_of_index", "index_of_monomial", "BohrMonomial"} & set(vars(dirspaces))


_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Lock", "RLock"}


def module_state(tree: ast.Module) -> list[str]:
    """Module-level bindings of a dict, list or set, or of a lock."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            mutable = (getattr(func, "id", None) or getattr(func, "attr", None)) in _MUTABLE_CALLS
        else:
            mutable = isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
            )
        if mutable:
            found.append(f"line {node.lineno}")
    return found


def test_checker_flags_module_state():
    tree = ast.parse(
        "import threading\n_A: dict[int, int] = {}\n_B = threading.Lock()\n"
        "_C = [1]\n_D = set()\n_E = (1, 2)\n_F = 2**20\n"
    )
    assert module_state(tree) == ["line 2", "line 3", "line 4", "line 5"]


def test_no_module_keeps_state():
    """No module holds a table or a lock at module level, and none imports
    threading: the per-measure weight memo is read-only and takes no lock."""
    importers = []
    for path in MODULES + [PACKAGE / "__init__.py"]:
        tree = _tree(path)
        assert module_state(tree) == [], path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "threading" in names:
                importers.append(path.name)
    assert importers == []


def cached_helpers(tree: ast.Module) -> set[str]:
    """Top-level functions decorated with functools' lru_cache or cache."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if (getattr(dec, "id", None) or getattr(dec, "attr", None)) in ("lru_cache", "cache"):
                    found.add(node.name)
    return found


# One call of every cached helper, by module.
_CACHED_CALLS = {
    "measures": {
        "_gauss_laguerre": lambda f: f(16, 0.5),
        "_gauss_legendre": lambda f: f(16),
        "_laguerre_decay": lambda f: f(8),
        "_density_rule": lambda f: f(16),
        "_check_nodes": lambda f: f(4.0),
    },
    "series": {"_exp_plan": lambda f: f((2, 3), 64)},
    "torus": {
        "_roots_of_unity": lambda f: f(16),
        "_axes_of": lambda f: f(bytes(8 * 6), (3, 2)),
        "_lattice_vector": lambda f: f(3),
        "_grid_plan": lambda f: f((4, 2**13)),
        "_grid_characters": lambda f: f(np.array([[0, 1], [2, 1]]).tobytes(), (2, 2), (8, 4)),
    },
}


def _arrays(value):
    """The numpy arrays in `value`, through nested tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_cached_helpers_return_read_only_arrays():
    """Every lru_cache'd helper hands each caller the same arrays, so none of
    them is writable."""
    found = {p.stem: cached_helpers(_tree(p)) for p in MODULES}
    assert {m: h for m, h in found.items() if h} == {m: set(c) for m, c in _CACHED_CALLS.items()}
    for module, helpers in _CACHED_CALLS.items():
        mod = importlib.import_module(f"dirspaces.{module}")
        for name, call in helpers.items():
            arrays = list(_arrays(call(getattr(mod, name))))
            assert arrays, name
            assert not any(a.flags.writeable for a in arrays), name


def test_the_torus_lives_in_one_module():
    """Only torus defines or calls the trapezoid, lattice and axes helpers,
    and norms reaches torus through one call."""
    helpers = {
        "_start_grid",
        "_difference_axes",
        "_axes_of",
        "_independent_rows",
        "_roots_of_unity",
        "_grid_plan",
        "_root_indices",
        "_grid_characters",
        "_trapezoid_rules",
        "_qmc_moments",
        "_lattice_vector",
        "_lattice_search",
    }
    for path in MODULES:
        tree = _tree(path)
        defined = top_level_names(tree)
        called = {
            getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
        }
        if path.name == "torus.py":
            assert helpers | {"_torus_moments"} <= defined
        else:
            assert not (helpers | {"_torus_moments"}) & defined, path.name
            assert not helpers & called, path.name
    into_torus = [
        n.func.attr
        for n in ast.walk(_tree(PACKAGE / "norms.py"))
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "torus"
    ]
    assert into_torus == ["_torus_moments"]


def test_torus_makes_no_masked_reduction():
    """Each trapezoid rule sums a C-order copy of its own sub-grid, so no
    call in torus passes where=: a masked sum pays for every point of the
    grid and adds in another order than a call on the sub-grid."""
    tree = _tree(PACKAGE / "torus.py")
    masked = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and any(k.arg == "where" for k in n.keywords)
    ]
    assert masked == []


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

    from dirspaces import measures
    from dirspaces.compose import DefectReport
    from dirspaces.lab import two_norm_profile
    from dirspaces.norms import norm_hp, qmc_norm_hp
    from dirspaces.primes import factorize
    from dirspaces.symbols import check_theorem1, check_theorem2, is_vertical_translation

    dead = {"method", "points", "replicates", "max_rel_spread", "spf", "t_max", "t_steps", "tol"}
    for fn in (
        norm_hp, qmc_norm_hp, factorize, check_theorem1, check_theorem2, is_vertical_translation
    ):
        assert not dead & set(inspect.signature(fn).parameters), fn.__name__
    assert "mu" not in inspect.signature(two_norm_profile).parameters
    # every measure has the same fixed rules: no quadrature settings
    assert not hasattr(measures, "QuadratureSpec") and not hasattr(measures, "_MAX_JSON_NODES")
    for cls in (measures.AlphaMeasure, measures.DensityMeasure, measures.SampledDensityMeasure):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert not {"spec", "interval_support"} & fields, cls.__name__
    # a callable density carries no tag, and a defect report no truncation
    assert "name" not in {f.name for f in dataclasses.fields(measures.DensityMeasure)}
    assert "N" not in {f.name for f in dataclasses.fields(DefectReport)}


SETTINGS = {"seed", "eta", "eps_grid"}


def test_no_setting_the_code_works_out_for_itself():
    """The QMC shifts, the theorem-2 margin and the Lemma 1 eps are fixed
    by the inputs: no public function or method takes them."""
    import importlib

    import dirspaces
    from dirspaces.torus import _qmc_moments, _torus_moments

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


def test_no_module_imports_scipy():
    for path in MODULES + [PACKAGE / "__init__.py"]:
        assert "scipy" not in path.read_text(), path.name
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [name for name in names if name.split(".")[0] == "scipy"], path.name


def test_measures_make_no_power_call():
    """Weights are e^{-2 sigma log n}, not np.power(n, -2 sigma): at the large
    Laguerre nodes n^{-2 sigma} underflows, and there pow takes a slow path,
    several times slower than exp on the same values."""
    tree = _tree(PACKAGE / "measures.py")
    power_calls = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "power"
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "np"
    ]
    assert power_calls == []


def test_section_spectrum_makes_no_svd_call():
    """The section spectrum is Gram eigenvalues: two-column Grams in closed
    form, and one batched eigvalsh per larger Gram size, from one call site.
    np.linalg.svd pays LAPACK's per-matrix overhead on every block, most of
    which are 2 x 2 to 8 x 8, and no path of compose calls it."""
    calls = [
        n.func.attr
        for n in ast.walk(_tree(PACKAGE / "compose.py"))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    ]
    assert "svd" not in calls
    assert calls.count("eigvalsh") == 1


def test_no_qmc_thread_knob():
    for path in MODULES:
        text = path.read_text()
        assert "DIRSPACES_THREADS" not in text, path.name
        assert "ThreadPoolExecutor" not in text, path.name


SAMPLED = json.dumps({"type": "density", "samples": [[0, 2], [1, 0]]})
# Every subcommand on an alpha measure, norms at even and non-even p, and
# sampled-density weights, norms, kernel and classify: none of these may
# load scipy.
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
    ["kernel", "--measure-json", SAMPLED, "--s-re", "1.5", "--w-re", "1.5", "--N", "16"],
]

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
# the control: the probe sees a scipy import when there is one
import scipy.integrate
rows.append(["import scipy.integrate", 0, scipy_modules()])
print(json.dumps(rows))
"""


def test_scipy_is_not_imported_off_the_density_paths():
    path = [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    run = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(SCIPY_FREE_ARGV)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=120,
        check=True,
    )
    rows = json.loads(run.stdout)
    *clean, control = rows
    assert len(clean) == len(SCIPY_FREE_ARGV) + 1
    for what, code, modules in clean:
        assert code == 0, what
        assert modules == [], what
    assert "scipy.integrate" in control[2]


# With scipy unimportable: a non-even A^p norm on a 5-dimensional lift whose
# differences span 2 directions, and the QMC fallback on |1 + 2^{-s}|; and
# a callable and a sampled density, their weights, a non-even A^p norm and
# a kernel with its tail.
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
    kv = d.kernel(mu, 1.5, 1.5, 16)
    print(mu.weights(64)[1], d.norm_ap(g, 1.5, mu), kv.value.real, kv.tail)
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
    ap, hp, *density = map(float, run.stdout.split())
    w_callable, ap_callable, k_callable, tail_callable = density[:4]
    w_sampled, ap_sampled, k_sampled, tail_sampled = density[4:]
    assert ap == pytest.approx(0.3218, rel=1e-3)
    assert hp == pytest.approx(4.0 / 3.141592653589793, rel=1e-8)
    # w(2) = 3/(3 + 2 log 2) and, for h = 2 - 2 sigma on [0, 1],
    # 2 (c - 1 + e^{-c})/c^2 with c = 2 log 2
    c = 2.0 * math.log(2.0)
    assert w_callable == pytest.approx(3.0 / (3.0 + c), rel=1e-12)
    assert w_sampled == pytest.approx(2.0 * (c - 1.0 + math.exp(-c)) / c**2, rel=1e-12)
    for value in (ap_callable, ap_sampled):
        assert 1.0 < value < 1.4
    # the kernel at Re z = 3 sums past 1 + 2^{-3}/w(2); its tail is finite
    for value, tail in ((k_callable, tail_callable), (k_sampled, tail_sampled)):
        assert 1.0 < value < 2.0 and 0.0 < tail < 1.0
