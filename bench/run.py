"""Benchmark of the dirspaces package.

    python3 bench/run.py --workload {classify,norms,cli_cold} --seed N \
        --seconds S --trace {0,1}

Run from a checkout; the package is imported from its `src/`.  Each
workload is one closed-loop client issuing seeded requests (see
workloads.py) in whole cycles for at least S seconds.  Every output is
checked (checks.py); a failed check or an exception counts the request as
failed and the run goes on.

--trace 0 prints the end-to-end metrics:
    setup_s      median of three fresh-interpreter set-ups (import
                 dirspaces, build the measures, one warm-up request per
                 class)
    op_p50_s     median wall time of one request
    op_p90_s     p90 of the same
    ops_per_s    requests completed per second of request time (slot medians)
    peak_rss_mb  max RSS of this process, or of the CLI children (cli_cold)

--trace 1 runs the same requests, half of the time bare and half with the
outside-in span wrappers of spans.py installed, and prints the per-layer
metrics: layer busy seconds and call counts per cycle, the tracing
overhead, a fresh-interpreter import time, the first SVD of a process and
a self-check that a canonical request reaches every layer on its path.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; lines before it, starting with '#', are a readable summary.
Artifacts (report, spans, `python -X importtime` output) go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import execute  # noqa: E402
import workloads  # noqa: E402
from execute import CHILD, OUT, ROOT, child_env  # noqa: E402

SETUP_SAMPLES = 3
# p90 is reported from at least this many requests, so that ten lie beyond it.
MIN_OPS = {"classify": 100, "norms": 100, "cli_cold": 0}
# No timed phase runs longer than this, whatever the minimum request count.
PHASE_LIMIT_S = 100.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "DIRSPACES_THREADS",
)
# A canonical request, and what it must reach when traced: every layer on
# its path and the cross-module bindings that a missed rebinding would
# bypass.  primes is not on the path of classify.
CANONICAL = ["classify", "--c0", "1", "--phi", "[[1,1.5,0],[2,0.5,0]]", "--N", "64"]
CANONICAL_LAYERS = {"cli", "lab", "compose", "series", "measures", "symbols", "norms"}
CANONICAL_EDGES = {
    ("cli.cmd_classify", "lab.classify"),
    ("lab.classify", "compose.admissibility_certificate"),
    ("compose.admissibility_certificate", "symbols.check_theorem1"),
    ("lab.classify", "compose.isometry_defect"),
    ("compose.isometry_defect", "compose.operator_matrix"),
    ("compose.operator_matrix", "compose.compose_basis"),
    ("compose.compose_basis", "series.exp"),
    ("compose.operator_matrix", "measures.weights"),
    ("lab.two_norm_profile", "compose.compose_basis"),
    ("lab.two_norm_profile", "norms.norm_hp"),
    ("lab.classify", "symbols.lemma1_region"),
}
# The first SVD of a process is timed on this request, large enough for
# OpenBLAS to use its threads.
FIRST_SVD = ["classify", "--c0", "1", "--phi", "[[1,1.5,0],[2,0.5,0]]", "--N", "256"]


def _child_json(cmd: list[str], **env: str) -> dict:
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(**env), timeout=170)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:4])}... exited {r.returncode}: {r.stderr.strip()[-500:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(CHILD), "setup", workload, str(seed)]
    return [_child_json(cmd)["setup_s"] for _ in range(SETUP_SAMPLES)]


class Phase:
    """Whole cycles of requests for at least `seconds` (and `min_ops` successes)."""

    def __init__(self):
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[dict] = []
        self.cycles = 0
        self.by_slot: dict[int, list[float]] = {}  # request time per cycle slot, failures included

    def run(self, cycle_iter, run_one, seconds: float, min_ops: int, on_request=None) -> "Phase":
        start = time.perf_counter()
        for cycle in cycle_iter:
            for slot, req in enumerate(cycle):
                if on_request:
                    on_request(self.attempted)
                self.attempted += 1
                try:
                    dt, err = run_one(req)
                except Exception as e:  # any failure of a request is counted, never fatal
                    dt, err = 0.0, f"{type(e).__name__}: {e}"
                self.by_slot.setdefault(slot, []).append(dt)
                if err is None:
                    self.samples.append(dt)
                else:
                    self.failed += 1
                    if len(self.errors) < 20:
                        self.errors.append({"class": req["cls"], "error": err[:300]})
                if time.perf_counter() - start > PHASE_LIMIT_S:
                    return self
            self.cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(self.samples) >= min_ops:
                break
        return self

    def ops_per_s(self) -> float:
        """Completed requests per second of request time, with each slot of
        the cycle costed at its median over the run's cycles, so that a
        burst of load from outside the benchmark moves it less than it
        moves a plain mean."""
        cycle_s = sum(statistics.median(d) for d in self.by_slot.values())
        return len(self.samples) / self.attempted * len(self.by_slot) / cycle_s if cycle_s else 0.0


def in_process_runner(program):
    def run_one(req):
        call = program.prepare(req)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as e:  # the program's failure: counted with its time
            return time.perf_counter() - t0, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        return dt, checks.check_request(req, out)

    return run_one


def cli_runner(rss: list[float], traced_spans: list | None = None):
    tmp = OUT / "cli-spans.json"

    def run_one(req):
        res = execute.run_cli(req["argv"], spans_to=tmp if traced_spans is not None else None)
        rss.append(res["maxrss_mb"])
        if traced_spans is not None:
            import spans

            more = json.loads(tmp.read_text()) if tmp.exists() else []
            tmp.unlink(missing_ok=True)
            spans.merge(traced_spans, more, len(rss) - 1)
        return res["elapsed"], checks.check_cli(req, res)

    return run_one


def known_defects() -> dict:
    """Run the ROADMAP item-5 inputs; they are reported, not gated."""
    out = {}
    for name, argv, expect in workloads.KNOWN_DEFECT_PROBES:
        res = execute.run_cli(argv)
        out[name] = {"exit": res["code"], "expected": expect,
                     "error": checks.check_cli({"expect": expect}, res)}
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as e:
        env["blas"] = f"unknown ({e})"
    return env


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import dirspaces; print(time.perf_counter() - t)"
    r = [float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              cwd=ROOT, env=child_env(), timeout=120).stdout) for _ in range(3)]
    return statistics.median(r)


def import_time_breakdown() -> dict:
    """Save `python -X importtime` for `import dirspaces`; return a few totals (s)."""
    r = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dirspaces"],
                       capture_output=True, text=True, check=True, cwd=ROOT, env=child_env(), timeout=120)
    (OUT / "importtime.txt").write_text(r.stderr)
    totals = {}
    for line in r.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|(\s*)(\S+)", line)
        if m and m.group(3) in ("numpy", "scipy.integrate", "scipy.stats", "scipy.special", "dirspaces"):
            totals.setdefault(m.group(3), int(m.group(1)) / 1e6)
    return totals


def probe_cli() -> tuple[float, list[float], list[str]]:
    """Two traced fresh interpreters: the canonical request must reach every
    layer and binding on its path; the FIRST_SVD request times the first SVD.
    Returns that time, the cli.main durations and any self-check problems."""
    import spans

    problems, main_s = [], []
    path = OUT / "selfcheck-spans.json"
    for argv in (CANONICAL, FIRST_SVD):
        res = execute.run_cli(argv, spans_to=path)
        if res["code"] != 0:
            problems.append(f"{argv[:1]} exited {res['code']}: {res['stderr'][-300:]}")
        got = json.loads(path.read_text()) if path.exists() else []
        path.unlink(missing_ok=True)
        main_s += spans.main_seconds(got)
        if argv is CANONICAL:
            missing = CANONICAL_LAYERS - spans.layers_seen(got)
            missing_edges = CANONICAL_EDGES - spans.edges_seen(got)
            if missing or missing_edges:
                problems.append(f"self-check: no spans in layers {sorted(missing)} "
                                f"or bindings {sorted(missing_edges)}")
        else:
            svds = [s for s in got if s[0] == spans.SVD]
            first = min(svds, key=lambda s: s[1]) if svds else None
    return (first[2] - first[1] if first else 0.0), main_s, problems


def latency(samples: list[float]) -> dict:
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) >= 2 else samples[0]
    return {
        "op_p50_s": statistics.median(samples),
        "op_p90_s": p90,
        "n": len(samples),
        "beyond_p90": sum(1 for s in samples if s > p90),
    }


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setups = measure_setup(workload, seed)
    it = workloads.cycles(workload, seed)
    rss: list[float] = []
    if workload == "cli_cold":
        phase = Phase().run(it, cli_runner(rss), seconds, MIN_OPS[workload])
        peak = max(rss) if rss else 0.0
    else:
        import resource

        program = execute.InProcess()
        program.warm_up(next(workloads.cycles(workload, seed)))
        phase = Phase().run(it, in_process_runner(program), seconds, MIN_OPS[workload])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = latency(phase.samples) if phase.samples else {"op_p50_s": 0.0, "op_p90_s": 0.0, "n": 0, "beyond_p90": 0}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (lat["op_p50_s"], "s"),
        "op_p90_s": (lat["op_p90_s"], "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    info = {"setup_samples_s": setups, "requests_timed": lat["n"], "beyond_p90": lat["beyond_p90"]}
    return {"phases": [phase], "metrics": metrics, "info": info, "ok": True}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    import spans

    it = workloads.cycles(workload, seed)
    rss: list[float] = []
    if workload == "cli_cold":
        bare = Phase().run(it, cli_runner(rss), seconds / 2, 0)
        all_spans: list = []
        traced = Phase().run(it, cli_runner(rss, all_spans), seconds / 2, 0)
    else:
        program = execute.InProcess()
        program.warm_up(next(workloads.cycles(workload, seed)))
        run_one = in_process_runner(program)
        bare = Phase().run(it, run_one, seconds / 2, 0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = Phase().run(it, run_one, seconds / 2, 0,
                                 on_request=lambda i: setattr(tracer, "request", i))
        finally:
            tracer.uninstall()
        all_spans = tracer.spans()
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"spans-{workload}-seed{seed}.jsonl.gz", all_spans)
    metrics = spans.summarize(all_spans, traced.cycles)
    first_svd, probe_main_s, problems = probe_cli()
    # Every traced CLI process of the run: the workload's own (cli_cold) and the two probes.
    main_s = spans.main_seconds(all_spans) + probe_main_s
    untraced_rate, traced_rate = bare.ops_per_s(), traced.ops_per_s()
    metrics.update({
        "cli.import_s": (import_seconds(), "s"),
        "cli.main_s": (statistics.median(main_s) if main_s else 0.0, "s"),
        "compose.svd.first_s": (first_svd, "s"),
        "trace.ops_per_s_untraced": (untraced_rate, "1/s"),
        "trace.ops_per_s_traced": (traced_rate, "1/s"),
        "trace.overhead_frac": (1.0 - traced_rate / untraced_rate if untraced_rate else 0.0, "ratio"),
    })
    info = {"import_time_s": import_time_breakdown(), "cycles_traced": traced.cycles,
            "svd_shapes": spans.svd_shapes(all_spans), "self_check": problems or "ok"}
    if workload == "classify":
        # Ungated reference: the untraced run with OpenBLAS pinned to one thread.
        ref = _child_json([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds / 2), "--trace", "0"],
                          OPENBLAS_NUM_THREADS="1")
        info["single_thread_reference"] = ref["metrics"]
    return {"phases": [bare, traced], "metrics": metrics, "info": info, "ok": not problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not execute.have_program():
        print(f"error: no dirspaces sources under {execute.SRC}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = run_traced if args.trace else run_untraced
    res = run(args.workload, args.seed, args.seconds)
    attempted = sum(p.attempted for p in res["phases"])
    failed = sum(p.failed for p in res["phases"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "errors": [e for p in res["phases"] for e in p.errors],
        "info": res["info"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    if args.workload == "cli_cold":
        report["known_defects"] = known_defects()
    pinned = "-openblas1" if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else ""
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}{pinned}.json").write_text(
        json.dumps(report, indent=1, default=str))

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} failed_frac={report['failed_frac']:.4g}")
    print(f"# environment {json.dumps(report['environment'])}")
    for k, v in res["info"].items():
        print(f"# {k} {json.dumps(v, default=str)}")
    for e in report["errors"]:
        print(f"# error {json.dumps(e)}")
    if "known_defects" in report:
        bad = {k: v for k, v in report["known_defects"].items() if v["error"]}
        n = len(workloads.KNOWN_DEFECT_PROBES)
        print(f"# known_defects {len(bad)}/{n} ROADMAP item-5 inputs fail their check "
              f"(failed_frac with them: {(failed + len(bad)) / (attempted + n):.4g}) "
              f"{json.dumps(bad)}")
    for k, (v, u) in res["metrics"].items():
        print(f"# {k} = {v:.6g} {u}")
    print(json.dumps({
        "correct": failed == 0 and res["ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
