import random
from fractions import Fraction as F
from math import gcd, isqrt, log

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecq import (
    INFINITY,
    CommonZeroError,
    DenominatorVanishesError,
    NonIntegralModelError,
    Point,
    ProjectivePoint,
    ShortCurve,
    add,
    build_duplication_system,
    double,
    enumerate_points,
    enumerate_rationals,
    g_map,
    hx,
    is_on_curve,
    mul,
    multiplication_defect,
    naive_form,
    negate,
    parallelogram_defect,
    quotient_identity_check,
    sigma,
    x_double_formula,
    x_double_via_FG,
    x_projective,
)
from ecq.arith import sqrt_rational
from ecq import ec_heights
from ecq.ec_heights import g_map_forms, height_cap
from ecq.polynomials import Poly

X3P1 = ShortCurve(0, 1)
X3MX = ShortCurve(-1, 0)
X3M2 = ShortCurve(0, -2)

# scan bounds frozen from exhaustive runs; they must never grow
PARALLELOGRAM_BOUND_X3M2 = 2.135
MULTIPLICATION_BOUND_X3M2 = 4.0


def test_hx():
    assert hx(X3P1, INFINITY).magnitude == 1
    assert hx(X3P1, INFINITY).log_value == 0.0
    assert hx(X3P1, Point.affine(2, 3)).magnitude == 2
    assert hx(X3M2, mul(X3M2, 2, Point.affine(3, 5))).magnitude == 129


def test_duplication_system_examples():
    X, Z = Poly.gens(2)
    sys01 = build_duplication_system(0, 1)
    assert sys01.disc_short == 27
    assert sys01.f1 * sys01.F - sys01.g1 * sys01.G == 108 * Z**7
    sysm10 = build_duplication_system(-1, 0)
    assert sysm10.disc_short == -4
    assert sysm10.f2 * sysm10.F - sysm10.g2 * sysm10.G == -16 * X**7
    # singular input is constructible; both identities degenerate to 0 = 0
    sys00 = build_duplication_system(0, 0)
    assert sys00.disc_short == 0
    assert (sys00.f1 * sys00.F - sys00.g1 * sys00.G).is_zero()


def test_duplication_system_degrees():
    system = build_duplication_system(3, -7)
    assert system.F.is_homogeneous(4) and system.G.is_homogeneous(4)
    for poly in (system.f1, system.g1, system.f2, system.g2):
        assert poly.is_homogeneous(3)


def test_duplication_identities_random():
    X, Z = Poly.gens(2)
    rng = random.Random(13)
    for _ in range(15):
        A, B = rng.randint(-30, 30), rng.randint(-30, 30)
        system = build_duplication_system(A, B)
        disc = system.disc_short
        assert system.f1 * system.F - system.g1 * system.G == 4 * disc * Z**7
        assert system.f2 * system.F - system.g2 * system.G == 4 * disc * X**7


def test_duplication_identity_is_sign_sensitive():
    # flipping the sign of g2 breaks the X^7 identity for nonsingular input
    X, Z = Poly.gens(2)
    system = build_duplication_system(1, 1)
    assert system.f2 * system.F + system.g2 * system.G != 4 * system.disc_short * X**7


def test_x_double_via_FG_examples():
    value, _ = x_double_via_FG(build_duplication_system(0, 1), 2)
    assert value == 0
    system = build_duplication_system(-1, 0)
    assert system.F.evaluate((2, 1)) == 25 and system.G.evaluate((2, 1)) == 24
    value, cancellation = x_double_via_FG(system, 2)
    assert value == F(25, 24) and cancellation == 1
    assert value == x_double_formula(X3MX, 2)
    with pytest.raises(DenominatorVanishesError):
        x_double_via_FG(system, 0)


def test_x_double_via_FG_agreement_and_cancellation():
    rng = random.Random(17)
    for curve, base in [(X3P1, Point.affine(2, 3)), (X3M2, Point.affine(3, 5))]:
        system = build_duplication_system(curve.A, curve.B)
        for i in range(1, 6):
            p = mul(curve, i, base)
            if p.is_infinity or double(curve, p).is_infinity:
                continue
            value, cancellation = x_double_via_FG(system, p.x)
            assert value == double(curve, p).x
            assert value == x_double_formula(curve, p.x)
            # for integral models the cancellation divides 4*|disc| exactly
            assert (4 * abs(system.disc_short)) % cancellation == 0


def test_sigma_examples():
    assert sigma(ProjectivePoint([2, 1]), ProjectivePoint([0, 1])) == ProjectivePoint([1, 2, 0])
    assert sigma(ProjectivePoint([1, 0]), ProjectivePoint([1, 0])) == ProjectivePoint([0, 0, 1])
    assert sigma(ProjectivePoint([-1, 1]), ProjectivePoint([2, 1])) == ProjectivePoint([1, 1, -2])
    with pytest.raises(ValueError):
        sigma(ProjectivePoint([1, 0, 0]), ProjectivePoint([1, 0]))


def test_g_map_examples():
    assert g_map(0, 1, ProjectivePoint([1, 2, 0])) == ProjectivePoint([1, 1, -2])
    assert g_map(0, 1, ProjectivePoint([0, 0, 1])) == ProjectivePoint([0, 0, 1])
    # doubling the pair of 2-torsion abscissas (1, -1) on y^2 = x^3 - x:
    # both sums land on x = 0, so the image is [1, 0, 0]
    assert g_map(-1, 0, ProjectivePoint([1, 0, -1])) == ProjectivePoint([1, 0, 0])
    lhs = sigma(x_projective(Point.affine(0, 0)), x_projective(Point.affine(0, 0)))
    assert lhs == ProjectivePoint([1, 0, 0])


def test_g_map_forms_are_quadratic():
    for form in g_map_forms(3, -2):
        assert form.is_homogeneous(2)
    # only singular input can hit a common zero: A = B = 0 vanishes at [1,0,0]
    with pytest.raises(CommonZeroError):
        g_map(0, 0, ProjectivePoint([1, 0, 0]))


def test_commutative_diagram_sampled():
    rng = random.Random(23)
    checks = 0
    for curve, base in [(X3P1, Point.affine(2, 3)), (X3M2, Point.affine(3, 5))]:
        pool = [mul(curve, i, base) for i in range(-5, 6)]
        pool = [p for p in pool if not p.is_infinity]
        for p in pool:
            for q in pool:
                s = add(curve, p, q)
                d = add(curve, p, negate(curve, q))
                if s.is_infinity or d.is_infinity:
                    continue
                lhs = g_map(curve.A, curve.B, sigma(x_projective(p), x_projective(q)))
                rhs = sigma(x_projective(s), x_projective(d))
                assert lhs == rhs
                checks += 1
    assert checks >= 50


def test_g_map_morphism_height_scan_regression():
    # H(g(P)) / H(P)^2 over a fixed sample; extremes frozen from the first run
    from ecq import morphism_height_scan

    rng = random.Random(20260808)
    samples = []
    seen = set()
    while len(samples) < 100:
        coords = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if coords == (0, 0, 0):
            continue
        point = ProjectivePoint(coords)
        if point.coords in seen:
            continue
        seen.add(point.coords)
        samples.append(point)
    lo, hi = morphism_height_scan(g_map_forms(0, 1), 2, samples)
    assert (lo, hi) == (F(5, 49), F(52, 9))
    assert 0 < lo <= hi


def test_quotient_identity():
    assert quotient_identity_check(0, 1)
    assert quotient_identity_check(-1, 0)
    rng = random.Random(29)
    for _ in range(20):
        assert quotient_identity_check(rng.randint(-20, 20), rng.randint(-20, 20))


def test_quotient_identity_mutation():
    # dropping the A^2 term from phi must break the identity
    A, B = F(2), F(3)
    (X,) = Poly.gens(1)
    phi_bad = X**4 - 2 * A * X**2 - 8 * B * X
    psi = 4 * X**3 + 4 * A * X + 4 * B
    lhs = (12 * X**2 + 16 * A) * phi_bad - (3 * X**3 - 5 * A * X - 27 * B) * psi
    assert lhs != 4 * (4 * A**3 + 27 * B**2)


def test_parallelogram_defect_examples():
    p = Point.affine(3, 5)
    assert parallelogram_defect(X3M2, p, INFINITY) == 0.0
    expected = log(129) - 4 * log(3)
    assert parallelogram_defect(X3M2, p, p) == pytest.approx(expected, rel=1e-9)


def test_parallelogram_defect_regression_scan():
    pts = enumerate_points(X3M2, 5.0)
    assert len(pts) == 5
    worst = max(abs(parallelogram_defect(X3M2, p, q)) for p in pts for q in pts)
    assert worst <= PARALLELOGRAM_BOUND_X3M2


def test_multiplication_defect():
    p = Point.affine(3, 5)
    assert multiplication_defect(X3M2, 1, p) == 0.0
    assert multiplication_defect(X3M2, 0, p) == 0.0
    defects = [abs(multiplication_defect(X3M2, m, p)) for m in (2, 3, 4)]
    assert max(defects) <= MULTIPLICATION_BOUND_X3M2
    # h([m]P)/m^2 settles near a common limit
    ratios = [hx(X3M2, mul(X3M2, m, p)).log_value / m**2 for m in (2, 3, 4)]
    assert max(ratios) - min(ratios) <= 1.4


def test_enumerate_points_examples():
    assert {repr(p) for p in enumerate_points(X3MX, log(1))} == {
        "O",
        "(-1, 0)",
        "(0, 0)",
        "(1, 0)",
    }
    got = {repr(p) for p in enumerate_points(X3P1, log(2))}
    assert got == {"O", "(-1, 0)", "(0, 1)", "(0, -1)", "(2, 3)", "(2, -3)"}
    assert {repr(p) for p in enumerate_points(X3P1, 0.0)} == {"O", "(-1, 0)", "(0, 1)", "(0, -1)"}


def test_enumerate_points_rejects_non_integral():
    with pytest.raises(NonIntegralModelError):
        enumerate_points(ShortCurve(F(1, 2), 1), 1.0)
    with pytest.raises(ValueError):
        enumerate_points(X3P1, -1.0)


def oracle_points(curve, log_bound):
    """Independent route: try every x of bounded height, solve for y."""
    out = {INFINITY}
    for x in enumerate_rationals(height_cap(log_bound)):
        rhs = x**3 + curve.A * x + curve.B
        y = sqrt_rational(rhs)
        if y is None:
            continue
        out.add(Point(x, y))
        out.add(Point(x, -y))
    return out


@pytest.mark.parametrize(
    "curve,bound",
    [(X3MX, log(4)), (X3P1, log(6)), (X3M2, 5.0), (ShortCurve(-36, 0), log(50))],
)
def test_enumerate_points_matches_oracle(curve, bound):
    got = set(enumerate_points(curve, bound))
    assert got == oracle_points(curve, bound)
    for p in got:
        assert is_on_curve(curve, p)
        assert hx(curve, p).magnitude <= height_cap(bound)


def test_height_cap_float_fuzz():
    assert height_cap(log(129)) == 129
    assert height_cap(log(1)) == 1
    assert height_cap(0.0) == 1
    assert height_cap(log(10**6)) == 10**6


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300])
def test_height_cap_rejects_non_finite_and_negative(bad):
    with pytest.raises(ValueError):
        height_cap(bad)
    with pytest.raises(ValueError):
        enumerate_points(X3P1, bad)


def reference_points(curve, log_bound):
    """The unsieved search: an exact gcd / isqrt test on every (a, d) cell."""
    a_coeff, b_coeff = int(curve.A), int(curve.B)
    cap = height_cap(log_bound)
    out = [INFINITY]
    d = 1
    while d * d <= cap:
        d4 = a_coeff * d**4
        d6 = b_coeff * d**6
        for a in range(-cap, cap + 1):
            if gcd(a, d) != 1:
                continue
            rhs = a * a * a + d4 * a + d6
            if rhs < 0:
                continue
            b = isqrt(rhs)
            if b * b != rhs:
                continue
            x = F(a, d * d)
            if b == 0:
                out.append(Point(x, F(0)))
            else:
                out.append(Point(x, F(b, d**3)))
                out.append(Point(x, F(-b, d**3)))
        d += 1
    return out


@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.floats(min_value=0.0, max_value=7.0),
)
def test_enumerate_points_matches_reference_in_order(A, B, h):
    if 4 * A**3 + 27 * B**2 == 0:
        return
    curve = ShortCurve(A, B)
    assert enumerate_points(curve, h) == reference_points(curve, h)


@pytest.mark.parametrize(
    "A,B,bound,planted",
    [
        # rows d = 6, 10 and 12, each with two prime factors
        (-50, -23, log(144), Point.affine(F(-47, 36), F(1367, 216))),
        (-46, 18, log(144), Point.affine(F(9, 100), F(3723, 1000))),
        (-45, 25, log(144), Point.affine(F(25, 144), F(7165, 1728))),
        # full 2-torsion: points with y = 0
        (-1, 0, log(100), Point.affine(1, 0)),
        (-25, 0, 6.0, Point.affine(5, 0)),
        (-36, 0, log(300), Point.affine(-3, 9)),
        (-7, 6, log(50), Point.affine(2, 0)),
        # Z/7 torsion
        (-43, 166, 6.0, Point.affine(-5, 16)),
        # height_cap lands exactly on the height of a point
        (0, -2, log(129), Point.affine(F(129, 100), F(-383, 1000))),
        (0, 1, log(2), Point.affine(2, -3)),
    ],
)
def test_enumerate_points_fixed_cases(A, B, bound, planted):
    curve = ShortCurve(A, B)
    got = enumerate_points(curve, bound)
    assert got == reference_points(curve, bound)
    assert planted in got
    assert hx(curve, planted).magnitude <= height_cap(bound)


@pytest.mark.parametrize("A,B", [(0, 17), (-43, 166), (-36, 0), (5, -3), (0, -2)])
def test_enumerate_points_every_modulus_and_small_blocks(monkeypatch, A, B):
    # force every sieve modulus on a box where the cost model would keep
    # fewer, and split each row into blocks shorter than most moduli
    monkeypatch.setattr(ec_heights, "_sieve_moduli", lambda cap: ec_heights._SIEVE_MODULI)
    curve = ShortCurve(A, B)
    for block in (8, 23, 64):
        monkeypatch.setattr(ec_heights, "_SIEVE_BLOCK", block)
        for bound in (0.0, log(7), 5.0):
            assert enumerate_points(curve, bound) == reference_points(curve, bound)


def test_sieve_moduli_follow_the_box():
    assert ec_heights._sieve_moduli(height_cap(2.0)) == ()
    small = ec_heights._sieve_moduli(height_cap(5.0))
    large = ec_heights._sieve_moduli(height_cap(10.0))
    assert 0 < len(small) < len(large)
    assert large == ec_heights._SIEVE_MODULI[: len(large)]


def test_naive_form():
    rep = naive_form(X3M2, Point.affine(F(129, 100), F(-383, 1000)))
    assert (rep.a, rep.b, rep.d) == (129, -383, 10)
    assert rep.b**2 == rep.a**3 + int(X3M2.A) * rep.a * rep.d**4 + int(X3M2.B) * rep.d**6
    rep = naive_form(X3M2, Point.affine(3, 5))
    assert (rep.a, rep.b, rep.d) == (3, 5, 1)
    with pytest.raises(ValueError):
        naive_form(X3M2, INFINITY)
    with pytest.raises(ValueError):
        naive_form(X3M2, Point.affine(F(1, 3), 1))
