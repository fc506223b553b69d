"""The benchmark's traced self-check, replayed in process: a run traced by
bench/spans.py reaches every layer and cross-module binding that
bench/run.py names for its canonical request, and a traced qmc_norm_hp
call keeps its bits."""

import ast
import contextlib
import importlib.util
import io
from pathlib import Path

import dirspaces as d
from dirspaces import cli, norms

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _run_constants() -> dict:
    """CANONICAL, CANONICAL_LAYERS and CANONICAL_EDGES of bench/run.py."""
    tree = ast.parse((BENCH / "run.py").read_text())
    wanted = {"CANONICAL", "CANONICAL_LAYERS", "CANONICAL_EDGES"}
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in wanted
    }


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_canonical_request_reaches_every_layer_and_binding():
    consts, spans = _run_constants(), _spans_module()
    f = d.from_terms({1: 1.1 - 0.2j, 6: 0.3j, 10: 0.2 - 0.1j}, 10)
    untraced = d.qmc_norm_hp(f, 3.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(consts["CANONICAL"])
        traced = norms.qmc_norm_hp(f, 3.0)
    finally:
        tracer.uninstall()
    got = tracer.spans()
    assert code == 0
    assert consts["CANONICAL_LAYERS"] - spans.layers_seen(got) == set()
    assert consts["CANONICAL_EDGES"] - spans.edges_seen(got) == set()
    assert traced == untraced
    # the span sizes the call from the lattice constants bound on norms
    qmc = [s for s in got if s[0] == "norms.qmc_norm_hp"]
    assert [s[5] for s in qmc] == [norms.QMC_POINTS * norms.QMC_REPLICATES]
