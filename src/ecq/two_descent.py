"""Concrete 2-descent bookkeeping for curves with full rational 2-torsion:
square-class images of points, the crude Selmer-support bound from primes
dividing twice the discriminant, rank bounds, and torsion computation.

The rank upper bound uses only the support argument (no local solvability
conditions at the bad primes), so it is deliberately crude; the lower bound
comes from F_2 linear algebra on the square-class images of points found by
bounded search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from .arith import factorize, squarefree_part
from .curves import ShortCurve, compute_invariants
from .errors import ModelError
from .group import INFINITY, Point, add, negate, order_of_point, two_torsion
from .ec_heights import _require_integral, enumerate_points

# Largest possible order of a rational torsion point (Mazur's theorem);
# order_of_point searches no further than this.
TORSION_ORDER_CAP = 12


@dataclass(frozen=True)
class SquareClassPair:
    """An element of (Q*/Q*^2)^2 as a pair of squarefree integers.

    The group is elementary abelian: every element squares to the identity
    (1, 1). Use SquareClassPair.of to reduce arbitrary nonzero rationals.
    """

    c1: int
    c2: int

    def __post_init__(self):
        for c in (self.c1, self.c2):
            if c == 0:
                raise ValueError("square classes are classes of nonzero rationals")
            if any(e > 1 for e in factorize(c).values()):
                raise ValueError(f"{c} is not squarefree")

    @classmethod
    def of(cls, r1, r2) -> "SquareClassPair":
        return cls(squarefree_part(Fraction(r1)), squarefree_part(Fraction(r2)))

    @classmethod
    def identity(cls) -> "SquareClassPair":
        return cls(1, 1)

    def __mul__(self, other: "SquareClassPair") -> "SquareClassPair":
        return SquareClassPair.of(self.c1 * other.c1, self.c2 * other.c2)


@dataclass(frozen=True)
class FullTwoTorsionModel:
    """y^2 = (x - e1)(x - e2)(x - e3) with rational, pairwise distinct roots.

    The roots are kept sorted ascending; e1 + e2 + e3 = 0 so the model is a
    short curve with A = e1 e2 + e1 e3 + e2 e3 and B = -e1 e2 e3.
    """

    curve: ShortCurve
    e1: Fraction
    e2: Fraction
    e3: Fraction

    @classmethod
    def from_short_curve(cls, curve: ShortCurve) -> "FullTwoTorsionModel":
        torsion2 = two_torsion(curve)
        if len(torsion2) != 3:
            raise ModelError(
                f"{curve!r} has {len(torsion2)} rational 2-torsion points; need all 3"
            )
        e1, e2, e3 = sorted(p.x for p in torsion2)
        return cls(curve, e1, e2, e3)

    @classmethod
    def from_roots(cls, e1, e2, e3) -> "FullTwoTorsionModel":
        e1, e2, e3 = sorted(Fraction(e) for e in (e1, e2, e3))
        if len({e1, e2, e3}) != 3:
            raise ModelError("roots must be pairwise distinct")
        if e1 + e2 + e3 != 0:
            raise ModelError("roots must sum to 0 to define a short model")
        curve = ShortCurve(e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3)
        return cls(curve, e1, e2, e3)


def delta_map(model: FullTwoTorsionModel, p: Point) -> SquareClassPair:
    """The square-class homomorphism E(Q) -> (Q*/Q*^2)^2 with kernel 2E(Q).

    Generic affine points map to the classes of (x - e1, x - e2); the two
    2-torsion points whose x kills a factor substitute the product of the
    other root differences so the map stays a homomorphism.
    """
    e1, e2, e3 = model.e1, model.e2, model.e3
    if p.is_infinity:
        return SquareClassPair.identity()
    x = p.x
    if x == e1:
        return SquareClassPair.of((e1 - e2) * (e1 - e3), e1 - e2)
    if x == e2:
        return SquareClassPair.of(e2 - e1, (e2 - e1) * (e2 - e3))
    return SquareClassPair.of(x - e1, x - e2)


def support_primes(curve: ShortCurve) -> list[int]:
    """Sorted primes dividing 2*Delta, Delta = -16(4A^3 + 27B^2)."""
    _require_integral(curve)
    delta = compute_invariants(curve).delta
    if delta == 0:
        raise ModelError("singular model has no descent support")
    return sorted(factorize(2 * int(delta)))


def candidate_classes(support: Sequence[int]) -> list[SquareClassPair]:
    """Every square-class pair supported on -1 and the given primes.

    Per coordinate there are 2^(1+|support|) classes, giving
    (2^(1+|support|))^2 pairs, listed in a deterministic order.
    """
    support = sorted(support)
    values = []
    for mask in range(1 << len(support)):
        prod = 1
        for k, p in enumerate(support):
            if mask >> k & 1:
                prod *= p
        values.extend((prod, -prod))
    values.sort()
    return [SquareClassPair(c1, c2) for c1 in values for c2 in values]


def _class_bits(pair: SquareClassPair, basis: Sequence[int]) -> int:
    """Encode a pair as exponent bits over the basis (-1, p1, p2, ...) twice."""
    bits = 0
    offset = 0
    for value in (pair.c1, pair.c2):
        if value < 0:
            bits |= 1 << offset
            value = -value
        for k, p in enumerate(basis):
            e = 0
            while value % p == 0:
                value //= p
                e += 1
            if e % 2:
                bits |= 1 << (offset + 1 + k)
        if value != 1:
            raise ValueError(f"class entry has a prime outside the basis {basis}")
        offset += 1 + len(basis)
    return bits


def _gf2_rank(rows: Sequence[int]) -> int:
    """Rank of bit-vector rows over F_2, eliminating on the lowest set bit."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                rank += 1
                break
    return rank


def _image_basis(support: Sequence[int], images: Sequence[SquareClassPair]) -> list[int]:
    primes = set(support)
    for img in images:
        primes |= set(factorize(img.c1)) | set(factorize(img.c2))
    return sorted(primes)


@dataclass(frozen=True)
class RankBounds:
    """lower <= rank(E(Q)) <= upper, with the points and primes behind them."""

    lower: int
    upper: int
    evidence_points: list[Point]
    support_primes: list[int]


def rank_bounds(model: FullTwoTorsionModel, search_log_height: float) -> RankBounds:
    """Crude rank bounds from the support argument and a bounded point search.

    upper: each coordinate of a candidate class has 1+|support| F_2 digits,
    bounding dim E(Q)/2E(Q) by 2(1+|support|); full 2-torsion eats 2 of
    those. lower: the F_2 rank of the found points' square-class images,
    minus the rank contributed by the found torsion points.
    """
    curve = model.curve
    support = support_primes(curve)
    upper = max(0, 2 * (1 + len(support)) - 2)
    points = enumerate_points(curve, search_log_height)
    images = [delta_map(model, p) for p in points]
    basis = _image_basis(support, images)
    total_rank = _gf2_rank([_class_bits(img, basis) for img in images])
    torsion_imgs = [
        delta_map(model, p)
        for p in points
        if order_of_point(curve, p, TORSION_ORDER_CAP) is not None
    ]
    torsion_rank = _gf2_rank([_class_bits(img, basis) for img in torsion_imgs])
    lower = max(0, total_rank - torsion_rank)
    return RankBounds(lower, upper, points, support)


def coset_representatives(
    model: FullTwoTorsionModel, search_log_height: float
) -> list[Point]:
    """One found point per distinct square class, smallest point first in
    each class; class (1, 1) is represented by the basepoint.

    These serve as E(Q)/2E(Q) coset representatives for the descent engine,
    complete exactly when the bounded search hits every coset.
    """
    points = sorted(
        enumerate_points(model.curve, search_log_height), key=Point.sort_key
    )
    by_class: dict[tuple[int, int], Point] = {}
    for p in points:
        img = delta_map(model, p)
        by_class.setdefault((img.c1, img.c2), p)
    return [by_class[key] for key in sorted(by_class)]


@dataclass(frozen=True)
class TorsionResult:
    """The found torsion subgroup and its structure label.

    structure is "trivial", "Z/n", or "Z/2 x Z/2n". The points always include
    every rational 2-torsion point (those come from the cubic, not the
    search); torsion beyond the search box would be missed, which the
    search_log_height field lets callers judge.
    """

    structure: str
    points: list[Point]
    search_log_height: float


def default_torsion_search_height(curve: ShortCurve) -> float:
    """log(max(4*|4A^3 + 27B^2|, 100)), using the short-model discriminant.

    Cheap and covers all integral-model torsion at desk scale; a guarantee
    would need Lutz-Nagell integrality bounds, which are out of scope here.
    """
    disc = 4 * curve.A**3 + 27 * curve.B**2
    return math.log(max(4 * abs(disc), 100))


def torsion_subgroup(
    curve: ShortCurve, search_log_height: float | None = None
) -> TorsionResult:
    """Bounded search for points of finite order, closed under the group law.

    Every found point's order is bounded by TORSION_ORDER_CAP (Mazur), and
    the rational 2-torsion is always included exactly. The returned set is a
    subgroup: it is closed under addition and negation by construction.
    """
    _require_integral(curve)
    if search_log_height is None:
        search_log_height = default_torsion_search_height(curve)
    found = [
        p
        for p in enumerate_points(curve, search_log_height)
        if order_of_point(curve, p, TORSION_ORDER_CAP) is not None
    ]
    subgroup = {INFINITY, *two_torsion(curve), *found}
    while True:
        extra = set()
        members = sorted(subgroup, key=Point.sort_key)
        for p in members:
            np = negate(curve, p)
            if np not in subgroup:
                extra.add(np)
        for p, q in combinations_with_replacement(members, 2):
            s = add(curve, p, q)
            if s not in subgroup:
                extra.add(s)
        if not extra:
            break
        subgroup |= extra
        if len(subgroup) > 16:
            raise RuntimeError("torsion closure exceeded Mazur's bound; non-torsion slipped in")
    points = sorted(subgroup, key=Point.sort_key)
    order2 = sum(1 for p in points if add(curve, p, p).is_infinity)
    n = len(points)
    if n == 1:
        structure = "trivial"
    elif order2 == 4:
        structure = f"Z/2 x Z/{n // 2}"
    else:
        structure = f"Z/{n}"
    return TorsionResult(structure, points, search_log_height)
