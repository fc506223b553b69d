"""Output checks.  Each returns None when the output is right and a short
reason when it is not; a failed check counts the request as failed and
never stops the run.

References are computed here from closed forms, independently of the
package, so that checking adds no calls (and no spans) to the layers.
"""

from __future__ import annotations

import cmath
import json
import math

ISOMETRY = "Isometry/Invertible/Fredholm"


def alpha_weight(alpha: float, n: int) -> float:
    return (1.0 + math.log(n)) ** -(alpha + 1.0)


def _terms(req: dict) -> dict[int, complex]:
    return {n: complex(re, im) for n, re, im in req["terms"]}


def _square(f: dict[int, complex]) -> dict[int, complex]:
    """Dirichlet convolution f * f of a sparse polynomial."""
    out: dict[int, complex] = {}
    for m, a in f.items():
        for n, b in f.items():
            out[m * n] = out.get(m * n, 0j) + a * b
    return out


def _a2(f: dict[int, complex], alpha: float) -> float:
    return math.sqrt(sum(abs(c) ** 2 * alpha_weight(alpha, n) for n, c in f.items()))


def _a4(f: dict[int, complex], alpha: float) -> float:
    return _a2(_square(f), alpha) ** 0.5


def _h2(f: dict[int, complex]) -> float:
    return math.sqrt(sum(abs(c) ** 2 for c in f.values()))


def _h4(f: dict[int, complex]) -> float:
    return _h2(_square(f)) ** 0.5


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_request(req: dict, out) -> str | None:
    kind = req["kind"]
    if kind == "classify":
        return _check_classify(req, out)
    if kind == "isometry_defect":
        v = out.value
        return None if math.isfinite(v) and v >= 0 else f"isometry defect {v!r} not finite and >= 0"
    if kind == "density_weights":
        c = req["rate"]
        for n, w in enumerate(out, start=1):
            ref = c / (c + 2.0 * math.log(n))
            if not _rel(float(w), ref) <= 1e-8:
                return f"density weight w({n}) = {float(w)!r}, closed form {ref!r}"
        return None if len(out) == req["N"] else f"{len(out)} weights for N={req['N']}"
    if kind == "kernel":
        s, w = complex(*req["s"]), complex(*req["w"])
        z = s.conjugate() + w
        ref = sum(cmath.exp(-z * math.log(n)) / alpha_weight(req["alpha"], n) for n in range(1, req["N"] + 1))
        if not abs(out.value - ref) <= 1e-12 * abs(ref):
            return f"kernel value {out.value!r}, direct sum {ref!r}"
        return None if math.isfinite(out.tail) and out.tail >= 0 else f"kernel tail {out.tail!r}"
    f, alpha, p = _terms(req), req["alpha"], req["p"]
    if kind == "norm_a2":
        return None if _rel(out, _a2(f, alpha)) <= 1e-12 else f"norm_a2 {out!r} vs {_a2(f, alpha)!r}"
    if kind == "norm_ap_even":
        ref = _a2(f, alpha) if p == 2.0 else _a4(f, alpha)
        return None if _rel(out, ref) <= 1e-6 else f"norm_ap p={p} {out!r} vs closed form {ref!r}"
    if kind == "norm_ap_noneven":
        # mu x Haar is a probability measure, so the A^p norm grows with p.
        lo, hi = _a2(f, alpha), _a4(f, alpha)
        ok = lo * (1 - 1e-4) <= out <= hi * (1 + 1e-4)
        return None if ok else f"norm_ap p={p} {out!r} outside [A^2, A^4] = [{lo!r}, {hi!r}]"
    if kind == "qmc_norm_hp":
        value, stderr = out
        if not (math.isfinite(stderr) and stderr >= 0):
            return f"qmc stderr {stderr!r}"
        tol = 5.0 * stderr + 1e-9 * value
        lo, hi = _h2(f), _h4(f)
        ok = lo - tol <= value <= hi + tol
        return None if ok else f"qmc H^{p} {value!r} outside [H^2, H^4] = [{lo!r}, {hi!r}]"
    return f"no check for request kind {kind!r}"


def _check_classify(req: dict, report) -> str | None:
    verdict = report.verdict
    if req["cls"] == "translation":
        if verdict != ISOMETRY:
            return f"vertical translation classified {verdict!r}"
        if not (report.isometry_defect is not None and report.isometry_defect <= 1e-10):
            return f"vertical translation has defect {report.isometry_defect!r}"
        return None
    if verdict == ISOMETRY:
        return f"non-translation ({req['cls']}) classified as an isometry"
    if req["cls"] == "refuted":
        if verdict != "Inconclusive" or report.admissibility.verdict.value != "CertifiedNo":
            return f"refuted symbol gave {verdict!r} / {report.admissibility.verdict.value!r}"
    return None


def _no_nan(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def check_cli(req: dict, res: dict) -> str | None:
    """Expected exit code, no traceback, strict JSON (no NaN/Infinity) on stdout."""
    if res["code"] != req["expect"]:
        return f"exit {res['code']}, expected {req['expect']}"
    if "Traceback" in res["stderr"]:
        return "traceback on stderr"
    if res["stdout"].strip() or req["expect"] == 0:
        try:
            json.loads(res["stdout"], parse_constant=_no_nan)
        except ValueError as e:
            return f"stdout is not strict JSON: {e}"
    return None
