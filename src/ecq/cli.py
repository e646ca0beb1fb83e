"""Command line surface: every library capability behind one binary.

Output is a deterministic envelope {command, inputs, result, exact}; pass
--json for machine-readable JSON (sorted keys, canonical "p/q" rationals),
otherwise a flat human-readable listing of the same envelope. The exact flag
is true when every number in the payload is exact (no float heights).

Exit codes are a stable contract for scripts:
    0  success
    2  parse error (also argparse usage errors)
    3  point not on curve
    4  model problem (singular, non-integral, or missing 2-torsion)
    5  descent failed to contract

Note: arguments that begin with "-" (like the curve "-1,0") must follow a
"--" separator, e.g.  ecq curve-info -- -1,0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction

from . import two_descent
from .curves import (
    ShortCurve,
    compute_invariants,
    is_on_curve,
    parse_curve,
)
from .descent import descend, elliptic_problem, estimate_constants
from .ec_heights import (
    build_duplication_system,
    enumerate_points,
    g_map,
    height_cap,
    hx,
    quotient_identity_check,
    sigma,
    x_projective,
)
from .errors import (
    EcqError,
    ModelError,
    NonContractionError,
    ParseError,
    PointNotOnCurveError,
)
from .group import add, format_point, mul, negate, parse_point
from .polynomials import Poly

_EXIT_PARSE = 2
_EXIT_POINT = 3
_EXIT_MODEL = 4
_EXIT_DESCENT = 5


def _fr(x) -> str:
    return str(Fraction(x))


def _curve_inputs(curve) -> dict:
    if isinstance(curve, ShortCurve):
        return {"model": "short", "A": _fr(curve.A), "B": _fr(curve.B)}
    return {
        "model": "general",
        "a1": _fr(curve.a1),
        "a2": _fr(curve.a2),
        "a3": _fr(curve.a3),
        "a4": _fr(curve.a4),
        "a6": _fr(curve.a6),
    }


def _require_short(curve) -> ShortCurve:
    if not isinstance(curve, ShortCurve):
        raise ModelError("a short model 'A,B' is required for this command")
    return curve


def _require_on_curve(curve, point, label: str):
    if not is_on_curve(curve, point):
        raise PointNotOnCurveError(f"{label} {format_point(point)} is not on the curve")


def cmd_curve_info(args) -> dict:
    curve = parse_curve(args.curve, short=args.short or None, allow_singular=True)
    inv = compute_invariants(curve)
    return {
        "command": "curve-info",
        "inputs": {"curve": _curve_inputs(curve)},
        "result": {
            "b2": _fr(inv.b2),
            "b4": _fr(inv.b4),
            "b6": _fr(inv.b6),
            "b8": _fr(inv.b8),
            "c4": _fr(inv.c4),
            "c6": _fr(inv.c6),
            "delta": _fr(inv.delta),
            "singular": inv.delta == 0,
        },
        "exact": True,
    }


def cmd_point(args) -> dict:
    curve = parse_curve(args.curve, short=args.short or None)
    op = args.op
    if op == "add":
        if len(args.operands) != 2:
            raise ParseError("add needs two points")
        p = parse_point(args.operands[0])
        q = parse_point(args.operands[1])
        _require_on_curve(curve, p, "P")
        _require_on_curve(curve, q, "Q")
        result = add(curve, p, q)
        inputs = {"P": format_point(p), "Q": format_point(q)}
    elif op == "neg":
        if len(args.operands) != 1:
            raise ParseError("neg needs one point")
        p = parse_point(args.operands[0])
        _require_on_curve(curve, p, "P")
        result = negate(curve, p)
        inputs = {"P": format_point(p)}
    elif op == "mul":
        if len(args.operands) != 2:
            raise ParseError("mul needs a scalar and a point")
        try:
            n = int(args.operands[0])
        except ValueError:
            raise ParseError(f"bad scalar {args.operands[0]!r}") from None
        p = parse_point(args.operands[1])
        _require_on_curve(curve, p, "P")
        result = mul(curve, n, p)
        inputs = {"n": str(n), "P": format_point(p)}
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown op {op!r}")
    return {
        "command": "point",
        "inputs": {"curve": _curve_inputs(curve), "op": op, **inputs},
        "result": {"point": format_point(result)},
        "exact": True,
    }


def cmd_search(args) -> dict:
    curve = _require_short(parse_curve(args.curve, short=args.short or None))
    points = enumerate_points(curve, args.height_log)
    return {
        "command": "search",
        "inputs": {"curve": _curve_inputs(curve), "height_log": str(args.height_log)},
        "result": {
            "count": len(points),
            "points": [
                {"point": format_point(p), "height_magnitude": hx(curve, p).magnitude}
                for p in points
            ],
        },
        "exact": True,
    }


def cmd_descend(args) -> dict:
    curve = _require_short(parse_curve(args.curve, short=args.short or None))
    point = parse_point(args.point)
    _require_on_curve(curve, point, "P")
    model = two_descent.FullTwoTorsionModel.from_short_curve(curve)
    search_log = args.search_log
    if search_log is None:
        search_log = two_descent.default_torsion_search_height(curve)
    reps = two_descent.coset_representatives(model, search_log)
    if args.constants == "auto":
        est = estimate_constants(curve, search_log, reps=reps)
        c1, c2 = est.c1_prime, est.c2
    else:
        try:
            c1_text, c2_text = args.constants.split(",")
            c1, c2 = float(c1_text), float(c2_text)
        except ValueError:
            raise ParseError(f"--constants wants 'auto' or 'c1,c2', got {args.constants!r}") from None
    problem = elliptic_problem(curve, reps, c1, c2)
    chain = descend(problem, point)
    steps = [
        {
            "rep_index": i,
            "rep": format_point(reps[i]),
            "point": format_point(p),
            "height_magnitude": hx(curve, p).magnitude,
            "height_log": hx(curve, p).log_value,
        }
        for i, p in chain.steps
    ]
    final_h = hx(curve, chain.final).log_value
    return {
        "command": "descend",
        "inputs": {
            "curve": _curve_inputs(curve),
            "P": format_point(point),
            "constants": args.constants,
        },
        "result": {
            "m": 2,
            "c1_prime": c1,
            "c2": c2,
            "threshold": problem.threshold,
            "reps": [format_point(r) for r in reps],
            "steps": steps,
            "final": format_point(chain.final),
            "final_height_log": final_h,
            "final_below_threshold": final_h <= problem.threshold,
        },
        "exact": False,
    }


def cmd_rank_bounds(args) -> dict:
    curve = _require_short(parse_curve(args.curve, short=args.short or None))
    model = two_descent.FullTwoTorsionModel.from_short_curve(curve)
    search_log = args.search_log
    if search_log is None:
        search_log = two_descent.default_torsion_search_height(curve)
    bounds = two_descent.rank_bounds(model, search_log)
    return {
        "command": "rank-bounds",
        "inputs": {"curve": _curve_inputs(curve), "search_log": str(search_log)},
        "result": {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "support_primes": bounds.support_primes,
            "points_found": len(bounds.evidence_points),
            "evidence_points": [format_point(p) for p in bounds.evidence_points],
        },
        "exact": True,
    }


def cmd_torsion(args) -> dict:
    curve = _require_short(parse_curve(args.curve, short=args.short or None))
    result = two_descent.torsion_subgroup(curve, args.search_log)
    return {
        "command": "torsion",
        "inputs": {"curve": _curve_inputs(curve)},
        "result": {
            "structure": result.structure,
            "order": len(result.points),
            "points": [format_point(p) for p in result.points],
        },
        "exact": True,
    }


def cmd_verify(args) -> dict:
    curve = _require_short(parse_curve(args.curve, short=args.short or None))
    A, B = curve.A, curve.B
    X, Z = Poly.gens(2)
    system = build_duplication_system(A, B)
    disc = system.disc_short
    z7_ok = system.f1 * system.F - system.g1 * system.G == 4 * disc * Z**7
    x7_ok = system.f2 * system.F - system.g2 * system.G == 4 * disc * X**7
    phi_psi_ok = quotient_identity_check(A, B)

    pairs_checked = 0
    diagram_ok = True
    # a small box is plenty for the diagram probe and keeps big-|disc| curves fast
    sample_log = min(two_descent.default_torsion_search_height(curve), math.log(200))
    affine = [p for p in enumerate_points(curve, sample_log) if not p.is_infinity]
    for p in affine:
        for q in affine:
            if pairs_checked >= 20:
                break
            s = add(curve, p, q)
            d = add(curve, p, negate(curve, q))
            if s.is_infinity or d.is_infinity:
                continue
            lhs = g_map(A, B, sigma(x_projective(p), x_projective(q)))
            rhs = sigma(x_projective(s), x_projective(d))
            diagram_ok = diagram_ok and lhs == rhs
            pairs_checked += 1
        if pairs_checked >= 20:
            break
    return {
        "command": "verify",
        "inputs": {"curve": _curve_inputs(curve)},
        "result": {
            "identity_z7": z7_ok,
            "identity_x7": x7_ok,
            "phi_psi": phi_psi_ok,
            "diagram_pairs_checked": pairs_checked,
            "diagram": diagram_ok,
            "all_passed": z7_ok and x7_ok and phi_psi_ok and diagram_ok,
        },
        "exact": True,
    }


def _log_height(text: str) -> float:
    """argparse type for --height-log and --search-log: a float that
    height_cap accepts, so a bad bound is a usage error (exit 2)."""
    try:
        value = float(text)
        height_cap(value)
    except (ValueError, OverflowError):
        top = math.log(sys.float_info.max)
        raise argparse.ArgumentTypeError(
            f"expected a log-height in [0, {top:.2f}], got {text!r}"
        ) from None
    return value


def _render_human(envelope: dict, out) -> None:
    def walk(prefix: str, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            print(f"{prefix} = {value}", file=out)

    walk("", envelope)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecq",
        description="Exact elliptic-curve arithmetic over Q: invariants, group law, "
        "heights, descent, torsion, rank bounds.",
        epilog='Curve specs that start with "-" must follow "--", e.g. ecq curve-info -- -1,0',
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON envelope")
    parser.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get("THREADS", "1")),
        help="reserved for parallel runs; every value currently uses the same "
        "sequential (bitwise deterministic) path",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve(p):
        p.add_argument("curve", help='curve spec: "A,B" (short) or "a1,a2,a3,a4,a6" (general)')
        p.add_argument("--short", action="store_true", help="force the short reading")

    p = sub.add_parser("curve-info", help="invariant quantities and singularity flag")
    add_curve(p)
    p.set_defaults(func=cmd_curve_info)

    p = sub.add_parser("point", help="group-law operations on points")
    add_curve(p)
    p.add_argument("op", choices=("add", "neg", "mul"))
    p.add_argument("operands", nargs="+", help='points "x,y" or "O"; mul takes n first')
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("search", help="all points with x-height below a bound")
    add_curve(p)
    p.add_argument("--height-log", type=_log_height, required=True, dest="height_log")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("descend", help="run the m=2 descent on a point")
    add_curve(p)
    p.add_argument("point", help='start point "x,y" or "O"')
    p.add_argument("--constants", default="auto", help="'auto' or explicit 'c1,c2'")
    p.add_argument("--search-log", type=_log_height, default=None, dest="search_log")
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("rank-bounds", help="crude 2-descent rank bounds")
    add_curve(p)
    p.add_argument("--search-log", type=_log_height, default=None, dest="search_log")
    p.set_defaults(func=cmd_rank_bounds)

    p = sub.add_parser("torsion", help="torsion subgroup by bounded search")
    add_curve(p)
    p.add_argument("--search-log", type=_log_height, default=None, dest="search_log")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("verify", help="exact identity checks for a curve")
    add_curve(p)
    p.add_argument(
        "--identities", action="store_true", help="accepted for compatibility; always on"
    )
    p.set_defaults(func=cmd_verify)

    return parser


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift CPython's int<->str digit limit (4300 by default) while the CLI
    runs: exact results such as mul by 120 print far longer integers. A
    no-op on Pythons without sys.set_int_max_str_digits."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    previous = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def main(argv: list[str] | None = None) -> int:
    with _unlimited_int_digits():
        return _run(argv)


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    if args.threads < 1:
        print("ecq: --threads must be >= 1", file=sys.stderr)
        return _EXIT_PARSE
    try:
        envelope = args.func(args)
    except ParseError as exc:
        print(f"ecq: parse error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except PointNotOnCurveError as exc:
        print(f"ecq: {exc}", file=sys.stderr)
        return _EXIT_POINT
    except ModelError as exc:
        print(f"ecq: model error: {exc}", file=sys.stderr)
        return _EXIT_MODEL
    except NonContractionError as exc:
        print(f"ecq: descent error: {exc}", file=sys.stderr)
        return _EXIT_DESCENT
    except EcqError as exc:
        print(f"ecq: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(envelope, sort_keys=True))
    else:
        _render_human(envelope, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
