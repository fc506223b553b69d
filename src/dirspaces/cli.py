"""Command-line front end.

Every subcommand reads flags (or inline JSON), dispatches to one library
operation, and prints a JSON report (CSV with --csv where a profile is
tabular).  Exit codes: 0 success, 1 stdout closed by its reader,
2 validation error, 3 numeric error.  Output is deterministic: the same
flags print the same bytes, with keys sorted and floats in their shortest
round-trip representation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import lab, norms, series
from .compose import admissibility_certificate, compose_basis
from .compose import apply as apply_symbol
from .errors import InvalidInputError, NumericError
from .measures import AlphaMeasure, Measure, measure_from_json, measure_tag
from .symbols import Symbol, is_vertical_translation, lemma1_region, symbol_from_json


def _strict_json(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NumericError(f"result is not finite: {e}") from e


def _emit(obj) -> None:
    print(_strict_json(obj))


def _emit_csv(text: str, points) -> None:
    """Write a CSV profile only where its JSON form would be finite."""
    _strict_json([pt.to_json() for pt in points])
    sys.stdout.write(text)


def _parse_measure(args) -> Measure:
    if getattr(args, "measure_json", None):
        return measure_from_json(json.loads(args.measure_json))
    return AlphaMeasure(alpha=args.alpha)


# Largest --N or --nmax, term index or series N.  It is above every size the
# tests, demos and benchmark use (lemma2's default 10^4 is the largest), and
# it keeps the per-n weight loops and the sections that these sizes drive
# bounded.
_SIZE_CAP = 2**20


def _capped(obj):
    """A series JSON `obj` once its N and each term index are at most
    _SIZE_CAP, checked before series.from_json allocates its coefficients;
    a malformed `obj` is left for from_json to reject."""
    if isinstance(obj, dict) and isinstance(obj.get("terms"), list):
        sizes = [obj.get("N")] + [t[0] for t in obj["terms"] if isinstance(t, list) and t]
        if any(isinstance(x, (int, float)) and x > _SIZE_CAP for x in sizes):
            raise InvalidInputError(f"term indices and N must be at most {_SIZE_CAP}")
    return obj


def _parse_symbol(args) -> Symbol:
    if getattr(args, "symbol_json", None):
        obj = json.loads(args.symbol_json)
        _capped(obj.get("phi") if isinstance(obj, dict) else None)
        return symbol_from_json(obj)
    if args.phi is None:
        raise InvalidInputError("provide --phi (JSON terms) or --symbol-json")
    return Symbol(c0=args.c0, phi=series.from_json(_capped({"terms": json.loads(args.phi)})))


def _parse_series(args) -> series.DirichletSeries:
    if args.series_json:
        return series.from_json(_capped(json.loads(args.series_json)))
    if args.terms is None:
        raise InvalidInputError("provide --terms (JSON [[n,re,im],...]) or --series-json")
    return series.from_json(_capped({"terms": json.loads(args.terms), "N": args.N}))


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return value


def _size(raw: str) -> int:
    value = _positive_int(raw)
    if value > _SIZE_CAP:
        raise argparse.ArgumentTypeError(f"must be at most {_SIZE_CAP}, got {raw!r}")
    return value


def _index(raw: str) -> int:
    value = _positive_int(raw)
    if value > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"must be below the largest float, got {raw!r}")
    return value


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
    return value


def _add_measure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--alpha", type=_finite_float, default=0.0, help="alpha of the Gamma-type measure"
    )
    p.add_argument("--measure-json", help="measure config JSON (overrides --alpha)")


def _add_symbol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c0", type=int, default=1, help="integer linear coefficient of the symbol")
    p.add_argument("--phi", help="JSON terms [[n,re,im],...] of the polynomial part")
    p.add_argument("--symbol-json", help='symbol JSON {"c0":..,"phi":{...}} (overrides flags)')


def _sigma_list(raw: str) -> list[float]:
    try:
        sigmas = [float(x) for x in raw.split(",") if x.strip()]
    except ValueError as e:
        raise InvalidInputError(f"bad sigma list {raw!r}") from e
    if not all(math.isfinite(x) for x in sigmas):
        raise InvalidInputError(f"sigmas must be finite, got {raw!r}")
    return sigmas


def cmd_norm(args) -> None:
    f = _parse_series(args)
    if args.space == "h":
        value, stderr = norms._norm(f, args.p)
        out = {"space": f"H^{args.p:g}", "value": value}
        if stderr is not None:  # None where the value is exact, at even p
            out["stderr"] = stderr
        _emit(out)
        return
    mu = _parse_measure(args)
    value = norms.norm_ap(f, args.p, mu)
    out = {"space": f"A^{args.p:g}", "measure": measure_tag(mu), "value": value}
    if args.p == 2.0:
        out["coefficient_route"] = norms.norm_a2(f, mu)
    _emit(out)


def cmd_weights(args) -> None:
    mu = _parse_measure(args)
    if args.n is not None:
        weights = [[args.n, mu.weight(args.n)]]
    else:
        weights = [[n, w] for n, w in enumerate(mu.weights(args.nmax).tolist(), 1)]
    _emit({"measure": measure_tag(mu), "weights": weights})


def cmd_kernel(args) -> None:
    mu = _parse_measure(args)
    kv = norms.kernel(mu, complex(args.s_re, args.s_im), complex(args.w_re, args.w_im), args.N)
    _emit(
        {
            "measure": measure_tag(mu),
            "N": args.N,
            "value": [kv.value.real, kv.value.imag],
            "tail": kv.tail,
        }
    )


def cmd_compose(args) -> None:
    sym = _parse_symbol(args)
    if args.terms or args.series_json:
        out = apply_symbol(sym, _parse_series(args), args.N)
    else:
        out = compose_basis(sym, args.n, args.N)
    _emit({"symbol": sym.to_json(), "result": series.to_json(out)})


def cmd_check_symbol(args) -> None:
    sym = _parse_symbol(args)
    out = {"symbol": sym.to_json(), "vertical_translation": is_vertical_translation(sym)}
    out["theorem1" if sym.c0 >= 1 else "theorem2"] = admissibility_certificate(sym).to_json()
    if sym.c0 >= 1:
        out["lemma1"] = lemma1_region(sym).to_json()
    _emit(out)


def cmd_classify(args) -> None:
    sym = _parse_symbol(args)
    mu = _parse_measure(args)
    report = lab.classify(sym, mu, args.N, p=args.p)
    _emit(report.to_json())


def cmd_lemma2(args) -> None:
    mu = _parse_measure(args)
    points = lab.lemma2_profile(mu, _sigma_list(args.sigmas), args.N)
    if args.csv:
        _emit_csv(lab.lemma2_to_csv(points), points)
    else:
        _emit({"measure": measure_tag(mu), "profile": [pt.to_json() for pt in points]})


def cmd_profile(args) -> None:
    sym = _parse_symbol(args)
    points = lab.two_norm_profile(sym, args.p, _sigma_list(args.sigmas), args.N)
    if args.csv:
        _emit_csv(lab.profile_to_csv(points), points)
    else:
        _emit(
            {
                "symbol": sym.to_json(),
                "p": args.p,
                "profile": [pt.to_json() for pt in points],
            }
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirspaces",
        description="Numerics for Hardy and weighted Bergman spaces of Dirichlet series "
        "and their composition operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="H^p or A^p norm of a Dirichlet polynomial")
    p.add_argument("--terms", help="JSON [[n,re,im],...] of the polynomial")
    p.add_argument("--series-json", help="full series JSON (overrides --terms)")
    p.add_argument("--space", choices=("h", "a"), default="a")
    p.add_argument("--p", type=_finite_float, default=2.0)
    p.add_argument("--N", type=_size)
    _add_measure_flags(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("weights", help="weights w_h(n) of a measure")
    p.add_argument("--n", type=_index, help="single index")
    p.add_argument("--nmax", type=_size, default=8, help="list weights for n = 1..nmax")
    _add_measure_flags(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("kernel", help="reproducing kernel K(s, w) with tail bound")
    p.add_argument("--s-re", type=_finite_float, required=True)
    p.add_argument("--s-im", type=_finite_float, default=0.0)
    p.add_argument("--w-re", type=_finite_float, required=True)
    p.add_argument("--w-im", type=_finite_float, default=0.0)
    p.add_argument("--N", type=_size, default=256)
    _add_measure_flags(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("compose", help="coefficients of n^{-Phi} or f o Phi")
    _add_symbol_flags(p)
    p.add_argument("--n", type=_index, default=2, help="basis index to compose")
    p.add_argument("--terms", help="JSON terms of a polynomial to compose instead")
    p.add_argument("--series-json")
    p.add_argument("--N", type=_size, default=64)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("check-symbol", help="admissibility certificates for a symbol")
    _add_symbol_flags(p)
    p.set_defaults(func=cmd_check_symbol)

    p = sub.add_parser("classify", help="full isometry/invertibility diagnostic report")
    _add_symbol_flags(p)
    _add_measure_flags(p)
    p.add_argument("--N", type=_size, default=32)
    p.add_argument("--p", type=_finite_float, default=2.0)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("lemma2", help="point-evaluation bound profile S(sigma)")
    _add_measure_flags(p)
    p.add_argument("--sigmas", default="4,6,8,10,12")
    p.add_argument("--N", type=_size, default=10_000)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_lemma2)

    p = sub.add_parser("profile", help="norm profile of 2^{-Phi(sigma+.)} vs 2^{-sigma}")
    _add_symbol_flags(p)
    p.add_argument("--sigmas", default="0.25,0.5,1,2")
    p.add_argument("--p", type=_finite_float, default=2.0)
    p.add_argument("--N", type=_size, default=128)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow and invalid values reach the report, whose finiteness
        # checks exit 3; numpy's warnings about them would only add noise
        with np.errstate(all="ignore"):
            args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # the reader closed stdout: send what is left, and the flush at
        # shutdown, to devnull, so that no traceback follows
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InvalidInputError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
