"""Turns generated requests into calls on the package, in process or as
fresh `python -m dirspaces.cli` processes.

The package is always the one under `src/` of the checkout this file sits
in; nothing is installed.  Building a request's inputs (symbols, series)
happens before the clock starts; the clock covers the library call only,
except that a density request also builds its fresh DensityMeasure, as
every CLI `--measure-json` call does.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"


def have_program() -> bool:
    return (SRC / "dirspaces" / "__init__.py").is_file()


def use_program() -> None:
    """Make `import dirspaces` resolve to this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra)
    return env


class InProcess:
    """Holds the measures a workload reuses and runs its requests."""

    def __init__(self):
        use_program()
        import dirspaces

        self.d = dirspaces
        self.measures = {a: dirspaces.AlphaMeasure(a) for a in (0.0, 1.0)}
        for mu in self.measures.values():
            mu.weights(1024)  # the largest truncation any request uses

    def prepare(self, req: dict):
        """Inputs for `req` and a zero-argument callable making the timed call."""
        d, mu = self.d, self.measures[req["alpha"]]
        kind = req["kind"]
        if kind in ("classify", "isometry_defect"):
            sym = d.symbol(req["c0"], {n: complex(re, im) for n, re, im in req["terms"]})
            if kind == "classify":
                return lambda: d.classify(sym, mu, req["N"], p=2.0)
            return lambda: d.isometry_defect(sym, mu, req["N"])
        if kind == "density_weights":
            import numpy as np

            rate = req["rate"]

            def h(s):
                return rate * np.exp(-rate * np.asarray(s, dtype=np.float64))

            return lambda: d.DensityMeasure(h=h).weights(req["N"])
        if kind == "kernel":
            s, w = complex(*req["s"]), complex(*req["w"])
            return lambda: d.kernel(mu, s, w, req["N"])
        f = self.series(req)
        if kind in ("norm_ap_even", "norm_ap_noneven"):
            return lambda: d.norm_ap(f, req["p"], mu)
        if kind == "qmc_norm_hp":
            return lambda: d.qmc_norm_hp(f, req["p"])
        if kind == "norm_a2":
            return lambda: d.norm_a2(f, mu)
        raise ValueError(f"unknown request kind {kind!r}")

    def series(self, req: dict):
        terms = {n: complex(re, im) for n, re, im in req["terms"]}
        return self.d.from_terms(terms, max(terms))

    def warm_up(self, slots: list[dict]) -> None:
        """One request of each class, so lazy costs land in set-up.

        The non-even norm_ap class is left out: its lazy state (the Sobol
        engine, scipy.stats, the prime table) is the qmc_norm_hp class's,
        and one such request costs seconds.  c0 = 1 classes run at N = 256
        so that the first multithreaded SVD happens here.
        """
        seen = set()
        for req in slots:
            key = (req["cls"], req.get("c0"))
            if key in seen or req["kind"] == "norm_ap_noneven":
                continue
            seen.add(key)
            if req.get("c0") == 1 and req["kind"] == "classify":
                req = dict(req, N=256)
            self.prepare(req)()


def warm_up_cli(slots: list[dict]) -> None:
    """In-process cli.main on each subcommand of the cycle, output discarded."""
    import contextlib
    import io

    use_program()
    from dirspaces import cli

    for req in slots:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(req["argv"])


def run_cli(argv: list[str], *, spans_to: Path | None = None) -> dict:
    """One fresh interpreter running the CLI; returns its outcome and max RSS.

    With `spans_to`, the interpreter is the traced launcher in child.py,
    which wraps the package before calling cli.main(argv).
    """
    if spans_to is None:
        cmd = [sys.executable, "-m", "dirspaces.cli", *argv]
    else:
        cmd = [sys.executable, str(CHILD), "cli", str(spans_to), *argv]
    OUT.mkdir(exist_ok=True)
    with open(OUT / "cli.stdout", "w+b") as out, open(OUT / "cli.stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "code": proc.returncode,
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace"),
            "elapsed": elapsed,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
        }
