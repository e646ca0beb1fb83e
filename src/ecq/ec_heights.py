"""Heights on the curve itself: the x-coordinate height, the duplication
polynomial system and its exact identities, the sigma and g maps behind the
parallelogram law, defect measurements, and bounded-height enumeration of
rational points.

Defects are floats, but every one is computed from exact integer height
magnitudes with logarithms taken only at the last step, so an identically
zero defect really comes out as 0.0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .curves import ShortCurve
from .errors import (
    CommonZeroError,
    DenominatorVanishesError,
    IdentityFailureError,
    NonIntegralModelError,
)
from .group import INFINITY, Point, add, mul, negate
from .heights import HeightValue, ProjectivePoint, height_rational
from .polynomials import Poly


def hx(curve, p: Point) -> HeightValue:
    """Height of the x-coordinate; the basepoint has magnitude 1 (h = 0)."""
    if p.is_infinity:
        return HeightValue(1)
    return height_rational(p.x)


@dataclass(frozen=True)
class DuplicationSystem:
    """The homogeneous pair (F, G) with x([2]P) = F(a,b)/G(a,b) for
    x(P) = a/b, together with cofactor polynomials expressing how little the
    fraction can cancel.

    The defining exact identities, verified at construction:

        f1*F - g1*G = 4*disc*Z^7
        f2*F - g2*G = 4*disc*X^7

    with disc = 4A^3 + 27B^2 (the short-model discriminant, an honest 1/-16
    of the full Weierstrass discriminant; APIs say which one they mean).
    """

    A: Fraction
    B: Fraction
    F: Poly
    G: Poly
    f1: Poly
    g1: Poly
    f2: Poly
    g2: Poly
    disc_short: Fraction


def build_duplication_system(A, B) -> DuplicationSystem:
    """Build and verify the duplication system for y^2 = x^3 + Ax + B.

    Raises IdentityFailureError if either polynomial identity fails, which
    would indicate a transcription bug rather than bad input; the singular
    case disc = 0 is constructible (both identities degenerate to 0 = 0).
    """
    A = Fraction(A)
    B = Fraction(B)
    X, Z = Poly.gens(2)
    F = X**4 - 2 * A * X**2 * Z**2 - 8 * B * X * Z**3 + A**2 * Z**4
    G = 4 * X**3 * Z + 4 * A * X * Z**3 + 4 * B * Z**4
    f1 = 12 * X**2 * Z + 16 * A * Z**3
    g1 = 3 * X**3 - 5 * A * X * Z**2 - 27 * B * Z**3
    disc = 4 * A**3 + 27 * B**2
    f2 = (
        4 * disc * X**3
        - 4 * A**2 * B * X**2 * Z
        + 4 * A * (3 * A**3 + 22 * B**2) * X * Z**2
        + 12 * B * (A**3 + 8 * B**2) * Z**3
    )
    # sign convention on g2 is pinned by the X^7 identity below
    g2 = -(
        A**2 * B * X**3
        + A * (5 * A**3 + 32 * B**2) * X**2 * Z
        + 2 * B * (13 * A**3 + 96 * B**2) * X * Z**2
        - 3 * A**2 * (A**3 + 8 * B**2) * Z**3
    )
    if f1 * F - g1 * G != 4 * disc * Z**7:
        raise IdentityFailureError("f1*F - g1*G != 4*disc*Z^7")
    if f2 * F - g2 * G != 4 * disc * X**7:
        raise IdentityFailureError("f2*F - g2*G != 4*disc*X^7")
    return DuplicationSystem(A, B, F, G, f1, g1, f2, g2, disc)


def x_double_via_FG(system: DuplicationSystem, x) -> tuple[Fraction, int]:
    """x([2]P) = F(a,b)/G(a,b) for x = a/b in lowest terms, plus the
    cancellation gcd(F(a,b), G(a,b)).

    For integral A, B the cancellation divides 4*disc_short. Raises
    DenominatorVanishesError on a 2-torsion abscissa.
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    fv = system.F.evaluate((a, b))
    gv = system.G.evaluate((a, b))
    if gv == 0:
        raise DenominatorVanishesError(f"G({a},{b}) = 0: 2-torsion abscissa")
    fv = Fraction(fv)
    gv = Fraction(gv)
    scale = fv.denominator * gv.denominator // gcd(fv.denominator, gv.denominator)
    cancellation = gcd(int(fv * scale), int(gv * scale))
    return fv / gv, cancellation


def x_projective(p: Point) -> ProjectivePoint:
    """x(P) as a point of P^1: [x, 1] for affine P, [1, 0] for the basepoint."""
    if p.is_infinity:
        return ProjectivePoint([1, 0])
    return ProjectivePoint([p.x, 1])


def sigma(x1: ProjectivePoint, x2: ProjectivePoint) -> ProjectivePoint:
    """P^1 x P^1 -> P^2: ([a1,b1],[a2,b2]) -> [b1 b2, a1 b2 + a2 b1, a1 a2]."""
    if len(x1.coords) != 2 or len(x2.coords) != 2:
        raise ValueError("sigma expects two points of P^1")
    a1, b1 = x1.coords
    a2, b2 = x2.coords
    return ProjectivePoint([b1 * b2, a1 * b2 + a2 * b1, a1 * a2])


def g_map_forms(A, B) -> list[Poly]:
    """The three degree-2 forms in (t, u, v) defining the g map.

    The middle form carries the +4Bt^2 term, without which the map fails to
    commute with addition/subtraction on the curve.
    """
    A = Fraction(A)
    B = Fraction(B)
    t, u, v = Poly.gens(3)
    return [
        u**2 - 4 * t * v,
        2 * u * (A * t + v) + 4 * B * t**2,
        (v - A * t) ** 2 - 4 * B * t * u,
    ]


def g_map(A, B, point: ProjectivePoint) -> ProjectivePoint:
    """Apply the g map; satisfies g(sigma(x(P), x(Q))) = sigma(x(P+Q), x(P-Q)).

    For nonsingular A, B the three forms have no common zero on P^2; a common
    zero raises CommonZeroError (possible only for singular input).
    """
    values = [f.evaluate(point.coords) for f in g_map_forms(A, B)]
    if all(v == 0 for v in values):
        raise CommonZeroError(f"g map undefined at {point!r}")
    return ProjectivePoint(values)


def quotient_identity_check(A, B) -> bool:
    """Exact check of (12X^2+16A)*phi - (3X^3-5AX-27B)*psi == 4(4A^3+27B^2)
    with psi = 4X^3+4AX+4B and phi = X^4-2AX^2-8BX+A^2."""
    A = Fraction(A)
    B = Fraction(B)
    (X,) = Poly.gens(1)
    phi = X**4 - 2 * A * X**2 - 8 * B * X + A**2
    psi = 4 * X**3 + 4 * A * X + 4 * B
    lhs = (12 * X**2 + 16 * A) * phi - (3 * X**3 - 5 * A * X - 27 * B) * psi
    return lhs == 4 * (4 * A**3 + 27 * B**2)


def _log_ratio(num: int, den: int) -> float:
    if num == den:
        return 0.0
    return math.log(num) - math.log(den)


def parallelogram_defect(curve: ShortCurve, p: Point, q: Point) -> float:
    """h(P+Q) + h(P-Q) - 2h(P) - 2h(Q), from exact magnitudes.

    Identically zero cases (for example Q = O) return exactly 0.0.
    """
    hs = hx(curve, add(curve, p, q)).magnitude
    hd = hx(curve, add(curve, p, negate(curve, q))).magnitude
    hp = hx(curve, p).magnitude
    hq = hx(curve, q).magnitude
    return _log_ratio(hs * hd, (hp * hq) ** 2)


def multiplication_defect(curve: ShortCurve, m: int, p: Point) -> float:
    """h([m]P) - m^2 h(P), from exact magnitudes."""
    hm = hx(curve, mul(curve, m, p)).magnitude
    hp = hx(curve, p).magnitude
    return _log_ratio(hm, hp ** (m * m))


def _require_integral(curve: ShortCurve) -> tuple[int, int]:
    if curve.A.denominator != 1 or curve.B.denominator != 1:
        raise NonIntegralModelError(
            f"{curve!r} is not integral; rescale with curves.integral_short_model first"
        )
    return int(curve.A), int(curve.B)


def height_cap(log_bound: float) -> int:
    """Largest integer magnitude H with log H <= log_bound (float-fuzz safe).

    Raises ValueError unless log_bound is finite and >= 0 (NaN included), and
    OverflowError when e^log_bound exceeds the float range.
    """
    if not math.isfinite(log_bound) or log_bound < 0:
        raise ValueError(f"log_bound must be finite and >= 0, got {log_bound!r}")
    return int(math.exp(log_bound) * (1 + 1e-12) + 1e-9)


# (modulus, its prime) pairs for the row sieve of enumerate_points, in the
# order they are applied: prime powers, best rejection per unit of cost first.
_SIEVE_MODULI = (
    (16, 2), (9, 3), (5, 5), (7, 7), (11, 11), (13, 13), (17, 17), (19, 19),
    (23, 23), (29, 29), (31, 31), (37, 37), (41, 41), (43, 43), (47, 47),
    (53, 53), (59, 59), (61, 61),
)


def _sieve_moduli(cap: int) -> tuple[tuple[int, int], ...]:
    """The prefix of _SIEVE_MODULI that sieves the box |a| <= cap, d*d <= cap
    at the least modelled cost; empty for tiny boxes, which then run the plain
    loop over every cell.

    Costs are in exact cell tests. Without a sieve every cell is one test. A
    sieved cell that survives costs two: finding its bit, then the test. A
    modulus m passes about (m + 1) / 2m of the survivors, and costs about
    three tests per row for its AND plus m tests to build its pattern for
    each of at most min(rows, m) distinct rows.
    """
    rows = isqrt(cap)
    survivors = 2 * cap + 1
    best_cost, best_count = survivors * rows, 0
    sieve_cost = 0
    for count, (m, _) in enumerate(_SIEVE_MODULI, 1):
        survivors = survivors * (m + 1) // (2 * m)
        sieve_cost += 3 * rows + m * min(rows, m)
        if sieve_cost >= best_cost:
            break
        cost = sieve_cost + 2 * survivors * rows
        if cost < best_cost:
            best_cost, best_count = cost, count
    return _SIEVE_MODULI[:best_count]


@functools.cache
def _squares_mod(m: int) -> frozenset[int]:
    return frozenset(r * r % m for r in range(m))


def _residue_pattern(m: int, c1: int, c0: int, unit_only: bool, p: int) -> int:
    """The m-bit pattern whose bit r is set when a = r (mod m) passes:
    a^3 + c1 a + c0 is a square mod m and, if unit_only, p does not divide a."""
    squares = _squares_mod(m)
    pattern = 0
    for r in range(m):
        if (r * r * r + c1 * r + c0) % m in squares and not (unit_only and r % p == 0):
            pattern |= 1 << r
    return pattern


# a row is sieved in blocks of at most this many bits, so memory stays bounded
# however large the box
_SIEVE_BLOCK = 1 << 16
# byte value -> 1 when nonzero, for finding the nonzero bytes of a sieved block
_NONZERO = bytes([0]) + bytes([1]) * 255


def _sieved_row(cap: int, row_patterns, repunits):
    """The a in [-cap, cap], in increasing order, that every (m, pattern) in
    row_patterns lets through.

    Bit i of a block starting at a0 stands for a = a0 + i. Rotating an m-bit
    pattern by a0 mod m and multiplying it by the repunit of period m repeats
    it across the whole block.
    """
    for a0 in range(-cap, cap + 1, _SIEVE_BLOCK):
        width = min(_SIEVE_BLOCK, cap + 1 - a0)
        block = (1 << width) - 1
        for m, pattern in row_patterns:
            s = a0 % m
            block &= ((pattern >> s | pattern << (m - s)) & ((1 << m) - 1)) * repunits[m]
        data = block.to_bytes((width + 7) // 8, "little")
        nonzero = data.translate(_NONZERO)
        k = nonzero.find(1)
        while k >= 0:
            byte = data[k]
            while byte:
                low = byte & -byte
                yield a0 + 8 * k + low.bit_length() - 1
                byte ^= low
            k = nonzero.find(1, k + 1)


def enumerate_points(curve: ShortCurve, log_bound: float) -> list[Point]:
    """All P on E(Q) with h_x(P) <= log_bound, the basepoint included.

    Writes candidates as x = a/d^2 with gcd(a, d) = 1 and y = b/d^3, and
    keeps (a, d) exactly when a^3 + A a d^4 + B d^6 is a perfect square b^2.
    Requires integral A, B. Output order is deterministic: the basepoint,
    then increasing d, increasing a, positive y first.

    Each row d is sieved first (ratpoints-style): the row a in [-H, H] is a
    big-int bitset, ANDed with m-periodic patterns of the residues a mod m
    for which the right-hand side is a square mod m and, when p | d, a is a
    unit mod p. Only the surviving a reach the exact gcd / isqrt test, so the
    sieve changes the cost but never the output or its order.
    """
    a_coeff, b_coeff = _require_integral(curve)
    cap = height_cap(log_bound)
    moduli = _sieve_moduli(cap)
    span = min(_SIEVE_BLOCK, 2 * cap + 1)
    repunits = {m: ((1 << (m * (span // m + 2))) - 1) // ((1 << m) - 1) for m, _ in moduli}
    patterns: dict[tuple[int, int, int, bool], int] = {}
    out = [INFINITY]
    d = 1
    while d * d <= cap:
        d4 = a_coeff * d**4
        d6 = b_coeff * d**6
        dd = d * d
        d3 = d**3
        survivors = range(-cap, cap + 1)
        if moduli:
            row_patterns = []
            for m, p in moduli:
                key = (m, d4 % m, d6 % m, d % p == 0)
                pattern = patterns.get(key)
                if pattern is None:
                    pattern = patterns[key] = _residue_pattern(*key, p)
                row_patterns.append((m, pattern))
            survivors = _sieved_row(cap, row_patterns, repunits)
        for a in survivors:
            if gcd(a, d) != 1:
                continue
            rhs = a * a * a + d4 * a + d6
            if rhs < 0:
                continue
            b = isqrt(rhs)
            if b * b != rhs:
                continue
            x = Fraction(a, dd)
            if b == 0:
                out.append(Point(x, Fraction(0)))
            else:
                out.append(Point(x, Fraction(b, d3)))
                out.append(Point(x, Fraction(-b, d3)))
        d += 1
    return out


@dataclass(frozen=True)
class NaiveRepresentation:
    """Cleared-denominator coordinates x = a/d^2, y = b/d^3, lowest terms."""

    a: int
    b: int
    d: int


def naive_form(curve: ShortCurve, p: Point) -> NaiveRepresentation:
    """Write an affine point in the a/d^2, b/d^3 shape and verify
    b^2 = a^3 + A a d^4 + B d^6 exactly."""
    a_coeff, b_coeff = _require_integral(curve)
    if p.is_infinity:
        raise ValueError("the basepoint has no affine representation")
    dd = p.x.denominator
    d = isqrt(dd)
    if d * d != dd:
        raise ValueError(f"x denominator {dd} is not a square; point not on an integral model")
    a = p.x.numerator
    b_frac = p.y * d**3
    if b_frac.denominator != 1:
        raise ValueError("y denominator is not the cube matching x")
    b = int(b_frac)
    if b * b != a**3 + a_coeff * a * dd * dd + b_coeff * dd**3:
        raise ValueError(f"{p!r} does not satisfy the curve equation")
    return NaiveRepresentation(a, b, d)
