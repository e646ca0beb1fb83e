"""The four workloads: literal inputs, the fixed query list of one pass, and
the output check of every query. The cli workload lives in cli_workload.py.

A query's ``run(state)`` calls ecq through the package namespace at call time
(``ecq.enumerate_points``, not a name bound at set-up), so a traced pass
reaches the wrappers. ``state`` is fresh for every pass; it carries results
that later stages of the pass need and, in a traced pass, the tracer.

A query's ``check(result, state)`` returns a digest of the output when the
output is correct and raises ``CheckFailed`` otherwise. Digests hash integers
in hexadecimal: decimal ``str()`` of the 110k-bit ``mul`` coordinates would
exceed CPython's 4300-digit conversion limit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import ecq

WORKLOADS = ("search", "descent", "torsion-mul", "cli")


class CheckFailed(Exception):
    pass


@dataclass
class Query:
    name: str
    stage: int  # queries of one stage may run in any order; stages run in order
    run: Callable[[dict], object]
    check: Callable[[object, dict], str]


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _hexq(q: Fraction) -> str:
    return f"{q.numerator:x}/{q.denominator:x}"


def _point_text(p) -> str:
    return "O" if p.is_infinity else f"{_hexq(p.x)},{_hexq(p.y)}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _on_curve(A: int, B: int, p) -> bool:
    """y^2 = x^3 + Ax + B for x = a/e^2, y = b/e^3, in integers only."""
    if p.is_infinity:
        return True
    e = math.isqrt(p.x.denominator)
    if e * e != p.x.denominator or p.y.denominator != e**3:
        return False
    a, b, e2 = p.x.numerator, p.y.numerator, p.x.denominator
    return b * b == a**3 + A * a * e2 * e2 + B * e2**3


# --- search ------------------------------------------------------------------

# (label, A, B, {log_bound: number of points with h_x <= log_bound, O included})
SEARCH_CURVES = (
    ("x3-2", 0, -2, {8: 5, 9: 5, 10: 5}),  # sparse
    ("x3+17", 0, 17, {8: 47, 9: 51, 10: 53}),  # dense
    ("x3-25x", -25, 0, {8: 14, 9: 18, 10: 20}),  # full 2-torsion
)


def _search_query(label, curve, A, B, h, expected_count) -> Query:
    def run(state):
        return ecq.enumerate_points(curve, float(h))

    def check(points, state):
        require(len(points) == expected_count, f"{len(points)} points, expected {expected_count}")
        require(points[0].is_infinity, "basepoint missing")
        require(len(set(points)) == len(points), "duplicate points")
        cap = math.exp(h) * (1 + 1e-12)
        for p in points[1:]:
            require(_on_curve(A, B, p), f"{p!r} is not on the curve")
            require(max(abs(p.x.numerator), p.x.denominator) <= cap, f"{p!r} is above the bound")
        return digest(";".join(_point_text(p) for p in points))

    return Query(f"search/{label}/h{h}", 0, run, check)


def build_search() -> list[Query]:
    queries = []
    for label, A, B, counts in SEARCH_CURVES:
        curve = ecq.ShortCurve(A, B)
        for h, count in sorted(counts.items()):
            queries.append(_search_query(label, curve, A, B, h, count))
    return queries


# --- descent -----------------------------------------------------------------

# y^2 = x^3 - 25x = (x + 5) x (x - 5), rank one, with R = (-4, 6). The start
# points are 3R + T for T in E[2], given as literal rationals.
DESCENT_ROOTS = (-5, 0, 5)
DESCENT_STARTS = (
    ("3R", (Fraction(-2439844, 5094049), Fraction(39601568754, 11497268593))),
    ("3R+(-5,0)", (Fraction(139550445, 23030401), Fraction(-931243391100, 110522894399))),
    ("3R+(0,0)", (Fraction(127351225, 2439844), Fraction(1430549626725, 3811036328))),
    ("3R+(5,0)", (Fraction(-115152005, 27910089), Fraction(-845927888300, 147449000187))),
)
DESCENT_RANK_H = 6.0
DESCENT_REPS_H = 4.0


def build_descent() -> list[Query]:
    model = ecq.FullTwoTorsionModel.from_roots(*DESCENT_ROOTS)
    curve = model.curve
    A, B = int(curve.A), int(curve.B)

    def rank_run(state):
        return ecq.rank_bounds(model, DESCENT_RANK_H)

    def rank_check(bounds, state):
        require(bounds.lower <= 1 <= bounds.upper, f"rank 1 outside [{bounds.lower}, {bounds.upper}]")
        require(all(_on_curve(A, B, p) for p in bounds.evidence_points), "evidence off the curve")
        return digest(f"{bounds.lower},{bounds.upper},{bounds.support_primes},"
                       + ";".join(_point_text(p) for p in bounds.evidence_points))

    def reps_run(state):
        state["reps"] = ecq.coset_representatives(model, DESCENT_REPS_H)
        return state["reps"]

    def reps_check(reps, state):
        # rank 1 with full 2-torsion: E(Q)/2E(Q) has 2^3 cosets
        require(len(reps) == 8 and len(set(reps)) == 8, f"{len(reps)} coset representatives")
        require(ecq.INFINITY in reps, "basepoint is not a representative")
        require(all(_on_curve(A, B, p) for p in reps), "representative off the curve")
        return digest(";".join(_point_text(p) for p in reps))

    def constants_run(state):
        est = ecq.estimate_constants(curve, DESCENT_REPS_H, reps=state["reps"])
        state["constants"] = est
        return est

    def constants_check(est, state):
        require(est.sample_size > 0, "empty sample")
        require(all(math.isfinite(c) and c >= 0 for c in (est.c1_prime, est.c2)), "bad constants")
        return digest(f"{est.c1_prime!r},{est.c2!r},{est.sample_size}")

    queries = [
        Query(f"rank_bounds/h{DESCENT_RANK_H:g}", 0, rank_run, rank_check),
        Query(f"coset_representatives/h{DESCENT_REPS_H:g}", 0, reps_run, reps_check),
        Query(f"estimate_constants/h{DESCENT_REPS_H:g}", 1, constants_run, constants_check),
    ]
    for label, (x, y) in DESCENT_STARTS:
        queries.append(_descend_query(label, curve, A, B, ecq.Point(x, y)))
    return queries


def _descend_query(label, curve, A, B, start) -> Query:
    def run(state):
        est = state["constants"]
        problem = ecq.elliptic_problem(curve, state["reps"], est.c1_prime, est.c2)
        state[label] = problem
        return ecq.descend(problem, start)

    def check(chain, state):
        problem = state[label]
        require(_on_curve(A, B, start), "start point off the curve")
        require(chain.reconstruct(problem) == start, "chain does not reconstruct its start")
        final_h = problem.height(chain.final)
        require(final_h <= problem.threshold, f"final height {final_h} above {problem.threshold}")
        steps = ";".join(f"{i}:{_point_text(p)}" for i, p in chain.steps)
        return digest(f"{steps}|{_point_text(chain.final)}")

    return Query(f"descend/{label}", 2, run, check)


# --- torsion-mul -------------------------------------------------------------

# (A, B, structure) on a |disc| ladder; the default search height is log(4|disc|).
TORSION_CURVES = (
    (0, 1, "Z/6"),
    (0, 4, "Z/3"),
    (0, -2, "trivial"),
    (-1, 0, "Z/2 x Z/2"),
    (-4, 0, "Z/2 x Z/2"),
    (-7, 6, "Z/2 x Z/2"),
    (-9, 0, "Z/2 x Z/2"),
)
MUL_CURVE = (-25, 0)
MUL_POINT = (-4, 6)
# sha256 of "xnum/xden,ynum/yden" in hexadecimal for [k](-4, 6) on y^2 = x^3 - 25x
MUL_DIGESTS = {
    50: "c5cb4c5d05e686c580621b014c73a110393e7db93784379d4770409f6949fa3a",
    100: "030bf182e715cee8db3423956ca26289fbdaab986e8acfa26b202fa70b38e387",
    200: "972ef8c0522c471fd639d8f12184a01d3a9317a26fdefcfeed7146d4130f418e",
}


def _torsion_query(A, B, structure) -> Query:
    curve = ecq.ShortCurve(A, B)

    def run(state):
        return ecq.torsion_subgroup(curve)

    def check(result, state):
        require(result.structure == structure, f"structure {result.structure}, expected {structure}")
        require(all(_on_curve(A, B, p) for p in result.points), "torsion point off the curve")
        return digest(result.structure + "|" + ";".join(_point_text(p) for p in result.points))

    return Query(f"torsion/{A},{B}", 0, run, check)


def _mul_query(curve, A, B, k, point) -> Query:
    def run(state):
        return ecq.mul(curve, k, point)

    def check(result, state):
        require(_on_curve(A, B, result), f"[{k}]R is off the curve")
        hashed = digest(_point_text(result))
        require(hashed == MUL_DIGESTS[k], f"[{k}]R digest {hashed[:12]} differs")
        return hashed

    return Query(f"mul/k{k}", 0, run, check)


def build_torsion_mul() -> list[Query]:
    queries = [_torsion_query(A, B, s) for A, B, s in TORSION_CURVES]
    A, B = MUL_CURVE
    curve = ecq.ShortCurve(A, B)
    point = ecq.Point.affine(*MUL_POINT)
    queries += [_mul_query(curve, A, B, k, point) for k in sorted(MUL_DIGESTS)]
    return queries


def build(name: str, root: Path) -> list[Query]:
    if name == "search":
        return build_search()
    if name == "descent":
        return build_descent()
    if name == "torsion-mul":
        return build_torsion_mul()
    if name == "cli":
        import cli_workload  # only this workload needs subprocess and the golden files

        return cli_workload.build_cli(root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
