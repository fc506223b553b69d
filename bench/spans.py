"""Outside-in spans around the package's layers.

`Tracer.install` replaces, for the duration of a traced phase, every public
function of each package module with a recording wrapper: in its defining
module and under every other module-level name bound to it (for example
`lab.compose_basis`, `norms.bohr_lift`, `series.primes_upto`,
`cli.operator_matrix`).  A few methods are wrapped on their classes, and
`numpy.linalg.norm` is wrapped to record the 2-D spectral norms (one SVD
each) that compose takes.  Nothing inside the package changes.

A span is (name, start, end, parent, request, attribute).  Spans stay in
memory and are written out once at the end; self time is derived from
them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time
import types
from collections import defaultdict

LAYERS = ("cli", "lab", "compose", "series", "measures", "norms", "symbols", "primes")

# (module, class, method) -> span name.
METHODS = {
    ("series", "PolytorusPolynomial", "evaluate"): "series.torus_eval",
    ("measures", "Measure", "weights"): "measures.weights",
    ("measures", "Measure", "weight"): "measures.weight",
    ("measures", "AlphaMeasure", "weight"): "measures.weight",
    ("measures", "Measure", "integrate"): "measures.integrate",
    ("measures", "AlphaMeasure", "integrate"): "measures.integrate",
    ("measures", "DensityMeasure", "integrate"): "measures.integrate",
}
# The module-level measures.integrate/weight only call the methods above,
# which already carry these names.
SKIP = {"measures.integrate", "measures.weight"}

SVD = "compose.svd"


def _exp_len(args, kwargs):
    n = kwargs.get("N", args[1] if len(args) > 1 else None)
    return n if n is not None else args[0].truncation


def _torus_points_x_terms(args, kwargs):
    angles = args[1]
    points = angles.shape[0] if getattr(angles, "ndim", 1) == 2 else 1
    return points * len(args[0].terms)


def _qmc_points(args, kwargs):
    norms = importlib.import_module("dirspaces.norms")
    return kwargs.get("points", norms.QMC_POINTS) * kwargs.get("replicates", norms.QMC_REPLICATES)


def _section_key(args, kwargs):
    sym, mu, N = args[0], args[1], args[2]
    return [int(sym.c0), sym.phi.coeffs.tobytes().hex(), id(mu), int(N)]


# Span name -> function of the call's arguments giving the span's attribute.
ATTRS = {
    "series.exp": _exp_len,
    "series.torus_eval": _torus_points_x_terms,
    "norms.qmc_norm_hp": _qmc_points,
    "compose.operator_matrix": _section_key,
}


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.req: list[int] = []
        self.attr: list = []
        self.request = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attr) -> int:
        stack = self._stack()
        with self._lock:
            i = len(self.t0)
            self.name.append(name)
            self.parent.append(stack[-1] if stack else -1)
            self.req.append(self.request)
            self.attr.append(attr)
            self.t1.append(0.0)
            self.t0.append(time.perf_counter())
        stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        attr_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name, attr_of(args, kwargs) if attr_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_norm(self, norm):
        @functools.wraps(norm)
        def traced(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 0) == 2:
                i = self._open(SVD, list(x.shape))
                try:
                    return norm(x, ord, *args, **kwargs)
                finally:
                    self._close(i)
            return norm(x, ord, *args, **kwargs)

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import numpy as np

        package = importlib.import_module("dirspaces")
        mods = {layer: importlib.import_module(f"dirspaces.{layer}") for layer in LAYERS}
        wrapped: dict = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    wrapped[obj] = self.wrap(name, obj)
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for (layer, cls, method), name in METHODS.items():
            klass = getattr(mods[layer], cls)
            if method in klass.__dict__:
                self._patch(klass, method, self.wrap(name, klass.__dict__[method]))
        self._patch(np.linalg, "norm", self._wrap_norm(np.linalg.norm))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def spans(self) -> list[list]:
        return [
            [self.name[i], self.t0[i], self.t1[i], self.parent[i], self.req[i], self.attr[i]]
            for i in range(len(self.t0))
        ]


def merge(spans: list[list], more: list[list], request: int) -> None:
    """Append another process's spans, re-basing parent indices."""
    base = len(spans)
    for name, t0, t1, parent, _, attr in more:
        spans.append([name, t0, t1, parent + base if parent >= 0 else -1, request, attr])


def write(path, spans: list[list]) -> None:
    with gzip.open(path, "wt") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def svd_gflop(shape) -> float:
    """Computed (not measured) flops of singular values only, complex m x n:
    4 (4 m n^2 - 4 n^3 / 3) with n <= m, in Gflop."""
    m, n = max(shape), min(shape)
    return 4.0 * (4.0 * m * n * n - 4.0 * n**3 / 3.0) / 1e9


def layers_seen(spans: list[list]) -> set[str]:
    return {s[0].split(".", 1)[0] for s in spans}


def edges_seen(spans: list[list]) -> set[tuple[str, str]]:
    return {(spans[s[3]][0], s[0]) for s in spans if s[3] >= 0}


def summarize(spans: list[list], cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `cycles` whole cycles of a workload."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    attr_sum: dict[str, float] = defaultdict(float)
    for i, (name, _, _, parent, _, attr) in enumerate(spans):
        calls[name] += 1
        self_s[name] += dur[i] - child[i]
        # A span directly under a span of the same name (a method calling the
        # one it overrides) is already inside the outer span's time.
        if parent < 0 or spans[parent][0] != name:
            incl[name] += dur[i]
        if isinstance(attr, (int, float)):
            attr_sum[name] += attr

    # Descendants of each lab.classify span: section builds and SVDs.
    builds: dict[int, list] = defaultdict(list)
    svds: dict[int, int] = defaultdict(int)
    for name, _, _, parent, _, attr in spans:
        if name not in ("compose.operator_matrix", SVD):
            continue
        p = parent
        while p >= 0 and spans[p][0] != "lab.classify":
            p = spans[p][3]
        if p < 0:
            continue
        if name == SVD:
            svds[p] += 1
        else:
            builds[p].append(json.dumps(attr))
    building = list(builds)
    n_builds = sum(len(b) for b in builds.values())
    distinct = sum(len(set(b)) for b in builds.values())

    weights_spans = [i for i, s in enumerate(spans) if s[0] == "measures.weights"]
    has_weight_child = set()
    for s in spans:
        if s[0] == "measures.weight" and s[3] >= 0 and spans[s[3]][0] == "measures.weights":
            has_weight_child.add(s[3])
    hits = sum(1 for i in weights_spans if i not in has_weight_child)
    gflop = sum(svd_gflop(s[5]) for s in spans if s[0] == SVD)

    def per_cycle(x: float) -> float:
        return x / max(cycles, 1)

    return {
        "lab.classify.self_s": (per_cycle(self_s["lab.classify"]), "s/cycle"),
        "lab.two_norm_profile.s": (per_cycle(incl["lab.two_norm_profile"]), "s/cycle"),
        "lab.prop1_bound.s": (per_cycle(incl["lab.prop1_bound"]), "s/cycle"),
        "compose.operator_matrix.calls_per_classify": (n_builds / len(building) if building else 0.0, "calls/classify"),
        "compose.operator_matrix.distinct_frac": (distinct / n_builds if n_builds else 0.0, "ratio"),
        "compose.operator_matrix.calls": (per_cycle(calls["compose.operator_matrix"]), "count/cycle"),
        "compose.operator_matrix.s": (per_cycle(incl["compose.operator_matrix"]), "s/cycle"),
        "compose.compose_basis.calls": (per_cycle(calls["compose.compose_basis"]), "count/cycle"),
        "compose.compose_basis.s": (per_cycle(incl["compose.compose_basis"]), "s/cycle"),
        "compose.gram.s": (per_cycle(incl["compose.gram"]), "s/cycle"),
        "compose.svd.calls_per_classify": (sum(svds[p] for p in building) / len(building) if building else 0.0, "calls/classify"),
        "compose.svd.calls": (per_cycle(calls[SVD]), "count/cycle"),
        "compose.svd.s": (per_cycle(incl[SVD]), "s/cycle"),
        "compose.svd.gflop_computed": (per_cycle(gflop), "Gflop/cycle"),
        "series.exp.calls": (per_cycle(calls["series.exp"]), "count/cycle"),
        "series.exp.len_sum": (per_cycle(attr_sum["series.exp"]), "count/cycle"),
        "series.exp.s": (per_cycle(incl["series.exp"]), "s/cycle"),
        "series.bohr_lift.s": (per_cycle(incl["series.bohr_lift"]), "s/cycle"),
        "series.torus_eval.s": (per_cycle(incl["series.torus_eval"]), "s/cycle"),
        "series.torus_eval.points_x_terms": (per_cycle(attr_sum["series.torus_eval"]), "count/cycle"),
        "series.power.s": (per_cycle(incl["series.power"]), "s/cycle"),
        "measures.weights.calls": (per_cycle(calls["measures.weights"]), "count/cycle"),
        "measures.weights.s": (per_cycle(incl["measures.weights"]), "s/cycle"),
        "measures.weights.hit_frac": (hits / len(weights_spans) if weights_spans else 0.0, "ratio"),
        "measures.weight.calls": (per_cycle(calls["measures.weight"]), "count/cycle"),
        "measures.integrate.calls": (per_cycle(calls["measures.integrate"]), "count/cycle"),
        "measures.integrate.s": (per_cycle(incl["measures.integrate"]), "s/cycle"),
        "norms.norm_ap.s": (per_cycle(incl["norms.norm_ap"]), "s/cycle"),
        "norms.qmc_norm_hp.calls": (per_cycle(calls["norms.qmc_norm_hp"]), "count/cycle"),
        "norms.qmc_norm_hp.points": (per_cycle(attr_sum["norms.qmc_norm_hp"]), "count/cycle"),
        "norms.qmc_norm_hp.s": (per_cycle(incl["norms.qmc_norm_hp"]), "s/cycle"),
        "norms.norm_hp.s": (per_cycle(incl["norms.norm_hp"]), "s/cycle"),
        "norms.kernel.s": (per_cycle(incl["norms.kernel"]), "s/cycle"),
        "norms.point_eval_sum.s": (per_cycle(incl["norms.point_eval_sum"]), "s/cycle"),
        "symbols.check_theorem1.s": (per_cycle(incl["symbols.check_theorem1"]), "s/cycle"),
        "symbols.check_theorem2.s": (per_cycle(incl["symbols.check_theorem2"]), "s/cycle"),
        "symbols.lemma1_region.s": (per_cycle(incl["symbols.lemma1_region"]), "s/cycle"),
        "primes.spf_table.s": (per_cycle(incl["primes.spf_table"]), "s/cycle"),
        "primes.primes_upto.calls": (per_cycle(calls["primes.primes_upto"]), "count/cycle"),
        "primes.primes_upto.s": (per_cycle(incl["primes.primes_upto"]), "s/cycle"),
        "trace.spans": (per_cycle(n), "count/cycle"),
    }


def main_seconds(spans: list[list]) -> list[float]:
    """Durations of the cli.main spans (one per traced CLI process)."""
    return [s[2] - s[1] for s in spans if s[0] == "cli.main"]


def svd_shapes(spans: list[list]) -> dict[str, int]:
    """How many SVDs of each matrix shape the spans hold."""
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        if s[0] == SVD:
            out["x".join(map(str, s[5]))] += 1
    return dict(sorted(out.items()))
