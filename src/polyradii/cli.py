"""Command-line front end: body generation, functional evaluation, radii reports.

JSON results go to stdout with stable key order and 9 significant digits;
diagnostics go to stderr.  Exit codes: 0 success, 1 malformed input,
2 failed verification, 3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bodies import KINDS, BodySpec, make_body
from .convex_core import VPolytope, difference_hull, loads_vpolytope, transform
from .functionals import (
    GaugeBody,
    gauge,
    max_chord,
    radius_fn,
    support,
    width_fn,
)
from .radii import circumradius, diameter, inradius, min_width, radii_report, verify_chain

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_VERIFY_FAILED = 2
EXIT_NUMERICAL = 3

_EVAL_FUNCTIONS = ("support", "width", "gauge", "chord", "radius")
_QUANTITIES = ("R", "r", "D", "omega", "all")

# Exact values the Reuleaux study converges to: R(K-K, C), r(K-K, C),
# D(K, C), omega(K, C) for the width-2*sqrt(3) Reuleaux triangle against
# its own reflection.
_REULEAUX_REFERENCES = {
    "R": (3.0 + math.sqrt(3.0)) / 2.0,
    "r": math.sqrt(3.0),
    "D": 2.0,
    "omega": 2.0,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags, but 2 is reserved for failed
    # verification here; reroute to exit 1 with the usage text on stderr.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polyradii", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    body = sub.add_parser("body", help="emit a reference body as polytope JSON")
    body.add_argument("--kind", required=True, choices=KINDS)
    body.add_argument("--dim", type=int)
    body.add_argument("--n", type=int, help="sample count for curved bodies")
    body.add_argument("--scale", type=float, default=1.0)

    ev = sub.add_parser("eval", help="evaluate a functional on a body")
    ev.add_argument("--body", required=True, help="polytope JSON file")
    ev.add_argument("--fn", required=True, choices=_EVAL_FUNCTIONS)
    ev.add_argument("--dir", required=True, help="comma-separated vector")

    rad = sub.add_parser("radii", help="size quantities of a body in a gauge")
    rad.add_argument("--body", required=True)
    rad.add_argument("--gauge", required=True)
    rad.add_argument("--quantity", default="all", choices=_QUANTITIES)

    ver = sub.add_parser("verify", help="check the inequality chain")
    ver.add_argument("--body", required=True)
    ver.add_argument("--gauge", required=True)
    ver.add_argument("--tol", type=float, default=1e-7)

    approx = sub.add_parser("approx", help="polygonal convergence study (CSV)")
    approx.add_argument("--example", required=True, choices=("reuleaux",))
    approx.add_argument("--n-list", default="24,48,96,192")
    return parser


def _round9(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {key: _round9(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(value) for value in obj]
    return obj


def _emit(obj) -> None:
    print(json.dumps(_round9(obj)))


def _load_body(path: str) -> VPolytope:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_vpolytope(handle.read())


def _parse_vector(text: str) -> np.ndarray:
    parts = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not parts:
        raise ValueError("empty direction vector")
    return np.array([float(piece) for piece in parts])


def _cmd_body(args) -> int:
    spec = BodySpec(kind=args.kind, dim=args.dim, n=args.n, scale=args.scale)
    _emit(make_body(spec).to_dict())
    return EXIT_OK


def _cmd_eval(args) -> int:
    body = _load_body(args.body)
    vector = _parse_vector(args.dir)
    if args.fn == "support":
        out = support(body, vector)
    elif args.fn == "width":
        out = width_fn(body, vector)
    elif args.fn == "gauge":
        out = gauge(GaugeBody.from_polytope(body), vector)
    elif args.fn == "chord":
        out = max_chord(body, vector)
    else:
        out = radius_fn(body, vector)
    witness = None if out.witness is None else [float(v) for v in out.witness]
    _emit({"value": float(out.value), "witness": witness})
    return EXIT_OK


def _cmd_radii(args) -> int:
    body = _load_body(args.body)
    gauge_body = _load_body(args.gauge)
    if args.quantity == "all":
        _emit(radii_report(body, gauge_body))
        return EXIT_OK
    single = {
        "R": circumradius,
        "r": inradius,
        "D": diameter,
        "omega": min_width,
    }[args.quantity]
    _emit({args.quantity: single(body, gauge_body).to_dict()})
    return EXIT_OK


def _cmd_verify(args) -> int:
    body = _load_body(args.body)
    gauge_body = _load_body(args.gauge)
    report = verify_chain(body, gauge_body, tol=args.tol)
    _emit(report.to_dict())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_approx(args) -> int:
    try:
        samples = [int(piece) for piece in args.n_list.split(",") if piece.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --n-list: {exc}") from exc
    if not samples:
        raise ValueError("empty --n-list")
    print("n,R,r,D,omega,err_R,err_r,err_D,err_omega")
    for n in samples:
        gauge_poly = make_body(BodySpec("reuleaux_triangle", n=n))
        body = transform(gauge_poly, 1.0, [0.0, 0.0], reflect=True)
        diff = difference_hull(body)
        values = {
            "R": circumradius(diff, gauge_poly).value,
            "r": inradius(diff, gauge_poly).value,
            "D": diameter(body, gauge_poly).value,
            "omega": min_width(body, gauge_poly).value,
        }
        errors = [abs(values[q] - _REULEAUX_REFERENCES[q]) for q in ("R", "r", "D", "omega")]
        cells = [str(n)]
        cells += [f"{values[q]:.9g}" for q in ("R", "r", "D", "omega")]
        cells += [f"{e:.9g}" for e in errors]
        print(",".join(cells))
    return EXIT_OK


_DISPATCH = {
    "body": _cmd_body,
    "eval": _cmd_eval,
    "radii": _cmd_radii,
    "verify": _cmd_verify,
    "approx": _cmd_approx,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return _DISPATCH[args.command](args)
    except (RuntimeError, MemoryError) as exc:
        detail = f"out of memory: {exc}".rstrip(": ") if isinstance(exc, MemoryError) else exc
        print(f"numerical failure: {detail}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
