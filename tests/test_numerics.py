import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vacuumpairs import numerics
from vacuumpairs.numerics import (
    DEFAULT_QUADRATURE,
    MaxDepthExceededError,
    MaxIterExceededError,
    NonFiniteIntegrandError,
    NoSignChangeError,
    QuadratureSpec,
    find_root,
    integrate,
)


class TestIntegrate:
    def test_polynomial_closed_form(self):
        value = integrate(lambda x: x * x, 0.0, 1.0)
        assert abs(value - 1.0 / 3.0) < 1e-10

    def test_rational_arctan_closed_form(self):
        # int_0^861 x^2/(x^2+1) dx = 861 - atan(861)
        value = integrate(lambda x: x * x / (x * x + 1.0), 0.0, 861.0)
        exact = 861.0 - math.atan(861.0)
        assert abs(value / exact - 1.0) < 1e-8

    def test_planck_tail_on_half_line(self):
        # x^3/(e^x - 1) over [0, inf), written so that it does not overflow at
        # large x, mapped onto [0, 1] by x = t/(1-t); its e^-x tail makes 0
        # the mapped curve's limit at t = 1.
        def mapped(t):
            if t >= 1.0:
                return 0.0
            s = 1.0 / (1.0 - t)
            x = t * s
            return (x**3 * math.exp(-x) / -math.expm1(-x) if x > 0 else 0.0) * s * s

        value = integrate(mapped, 0.0, 1.0)
        assert abs(value / (math.pi**4 / 15.0) - 1.0) < 1e-8

    def test_half_line_with_an_inverse_square_tail(self):
        # 1/(1+x^2) over [0, inf) maps by x = t/(1-t) to 1/((1-t)^2 + t^2) on
        # [0, 1], whose limit at t = 1 is 1, not the 0 written there: the end
        # panel must still be accepted.
        value = integrate(lambda t: 1.0 / ((1.0 - t) ** 2 + t * t) if t < 1.0 else 0.0, 0.0, 1.0)
        assert abs(value / (math.pi / 2.0) - 1.0) < 1e-10

    def test_end_value_that_is_not_the_limit(self):
        # sin(x)/x written as 0 at x = 0, where its limit is 1: what the panel
        # at 0 may miss there shrinks with the panel and must come to fit tol.
        value = integrate(lambda x: math.sin(x) / x if x else 0.0, 0.0, 2.0)
        assert abs(value / float(mpmath.si(2)) - 1.0) < 1e-10

    def test_empty_interval(self):
        assert integrate(math.sin, 2.0, 2.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0)

    @pytest.mark.parametrize(
        "a, b",
        [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)],
        ids=["nan-a", "nan-b", "inf-b", "inf-a"],
    )
    def test_non_finite_bounds_rejected(self, a, b):
        # A constant integrand is finite at any bound, so only the bound
        # check stops these; a NaN bound once ran all bisection levels.
        with pytest.raises(ValueError) as refused:
            integrate(lambda x: 1.0, a, b)
        assert str(refused.value) == f"integration bounds must be finite: a={a!r}, b={b!r}"

    def test_linearity(self):
        rng = np.random.default_rng(11)
        f = lambda x: math.exp(-x) * x
        g = lambda x: 1.0 / (1.0 + x * x)
        for _ in range(5):
            a, b = float(rng.uniform(0, 1)), float(rng.uniform(2, 5))
            ca, cb = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            combined = integrate(lambda x: ca * f(x) + cb * g(x), a, b)
            split = ca * integrate(f, a, b) + cb * integrate(g, a, b)
            assert abs(combined - split) < 1e-9 * max(1.0, abs(split))

    def test_interval_additivity(self):
        f = lambda x: math.sin(x) ** 2 + x
        whole = integrate(f, 0.0, 3.0)
        parts = integrate(f, 0.0, 1.3) + integrate(f, 1.3, 3.0)
        assert abs(whole - parts) < 1e-9 * abs(whole)

    def test_overflowing_span_rejected(self):
        # Both bounds are finite, but b - a is not: the panel edges would be NaN.
        with pytest.raises(ValueError) as refused:
            integrate(lambda x: 1.0, -1e308, 1e308)
        assert str(refused.value) == "integration span b - a overflows: a=-1e+308, b=1e+308"

    def test_overflowing_panel_estimate_rejected(self):
        # Each integrand value and their weighted sum are finite; the panel's
        # estimate, that sum times its half-width, is not.
        with pytest.raises(NonFiniteIntegrandError, match="overflow their sum"):
            integrate(lambda x: 1e300, 0.0, 1e10)

    def test_overflowing_total_rejected(self):
        # Each panel's estimate is finite; the sum of all of them is not.
        with pytest.raises(NonFiniteIntegrandError) as refused:
            integrate(lambda x: 1e307, 0.0, 30.0)
        assert str(refused.value) == "integrand values on [0.0, 30.0] overflow their sum"

    def test_non_finite_integrand(self):
        with pytest.raises(NonFiniteIntegrandError):
            integrate(lambda x: float("inf") if x == 0.0 else 1.0 / x, 0.0, 1.0)

    @pytest.mark.parametrize("f, message", [
        # NaN on (0.3, 0.35) first meets the fifth node of the starting panel
        # [0.25, 0.5], the first of its nodes inside that interval.
        (lambda x: math.nan if 0.3 < x < 0.35 else 1.0, "integrand is nan at x=0.3017390955665386"),
        # Each value is finite; their weighted sum is not.
        (lambda x: 1e308, "overflow their sum"),
    ], ids=["nan-on-a-subinterval", "overflowing-sum"])
    def test_non_finite_integrand_is_named(self, f, message):
        with pytest.raises(NonFiniteIntegrandError, match=message):
            integrate(f, 0.0, 1.0)

    def test_max_depth_exceeded(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_DEPTH", 2)
        spec = QuadratureSpec(rel_tol=1e-14)
        with pytest.raises(MaxDepthExceededError):
            integrate(lambda x: math.sin(50.0 * x) * math.exp(x), 0.0, 10.0, spec)

    def test_unreachable_tolerance_stops_at_the_panel_cap(self):
        # Below rounding no panel is ever accepted; the breadth-first
        # refinement must stop instead of doubling its panels 48 times.
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(x)

        with pytest.raises(MaxDepthExceededError):
            integrate(f, 0.0, 1.0, QuadratureSpec(rel_tol=1e-300))
        # 15 nodes per panel, at most _MAX_PANELS panels on the last level
        # and as many on all levels before it, plus f(a) and f(b).
        assert len(calls) <= 15 * 2 * numerics._MAX_PANELS + 2

    def test_gauss_kronrod_weights(self):
        # K15 integrates x^p exactly up to degree 22, G7 up to degree 13;
        # the odd null rule vanishes on x^p up to degree 12, and is scaled
        # to the Euclidean norm of K15 - G7.
        def rule(weights, p):
            return math.fsum(w * x**p for w, x in zip(weights, numerics._NODES))

        for p in range(23):
            assert abs(rule(numerics._KRONROD, p) - (1 + (-1) ** p) / (p + 1)) < 1e-15
        for p in range(14):
            assert abs(rule(numerics._KRONROD_MINUS_GAUSS, p)) < 1e-15
        for p in range(13):
            assert abs(rule(numerics._ODD, p)) < 1e-15
        assert abs(rule(numerics._ODD, 13)) > 1e-5
        norm = math.hypot(*numerics._KRONROD_MINUS_GAUSS)
        assert abs(math.hypot(*numerics._ODD) / norm - 1.0) < 1e-15

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)

    def test_smooth_integral_takes_four_panels(self):
        # t^2 is resolved on the four starting panels: 15 nodes each, plus
        # f(a) and f(b).
        calls = []

        def f(t):
            calls.append(t)
            return t * t

        integrate(f, 0.0, 7.3)
        assert len(calls) == 4 * 15 + 2


def _family(name, m, b):
    """An integrand on [0, b] with parameter m, and a closed form of its
    integral at mpmath's working precision."""
    M, B = mpmath.mpf(m), mpmath.mpf(b)
    if name == "rational":
        return lambda t: t * t / (t * t + m * m), lambda: B - M * mpmath.atan(B / M)
    if name == "sqrt":
        return lambda t: math.sqrt(t + m), lambda: 2 * ((B + M) ** 1.5 - M**1.5) / 3
    if name == "exp":
        return lambda t: math.exp(-m * t), lambda: -mpmath.expm1(-M * B) / M
    # A Lorentzian of width w = m b, centred at c = 0.3 b.
    w, c = m * b, 0.3 * b
    W, C = mpmath.mpf(w), mpmath.mpf(c)
    return (
        lambda t: w / ((t - c) ** 2 + w * w),
        lambda: mpmath.atan((B - C) / W) + mpmath.atan(C / W),
    )


@pytest.mark.parametrize("name, m, b, rel_tol", [
    ("exp", 246.88, 422.49, 1e-6),
    *[("exp", k, 1.0, 1e-10) for k in (2e4, 6e4, 2e5, 1e6, 3e6)],
    *[("exp", k, 1.0, 1e-4) for k in (6e4, 2e5, 1e6, 3e6)],
    ("rational", 1e-5, 1.0, 1e-5),
    ("rational", 1e-7, 1.0, 1e-8),
])
def test_end_layer_inside_the_first_node_converges(name, m, b, rel_tol):
    # The mass of exp(-m t), or the dip of t^2/(t^2+m^2), lies between 0
    # and the first node of the first panel.  The K15 sum over the starting
    # grid is then far below the integral, or exactly 0, so it cannot fix
    # the tolerance; and the panel at 0 must not be accepted while its nodes
    # miss f(0).
    f, closed = _family(name, m, b)
    value = integrate(f, 0.0, b, QuadratureSpec(rel_tol))
    with mpmath.workdps(40):
        exact = closed()
        assert abs(value - exact) <= rel_tol * abs(exact)


def test_end_layer_inside_the_last_node_converges():
    # The dip of t^2/(t^2+m^2) at m = 1e-5, moved to the right end.
    m = 1e-5
    value = integrate(lambda t: (1.0 - t) ** 2 / ((1.0 - t) ** 2 + m * m), 0.0, 1.0,
                      QuadratureSpec(1e-5))
    exact = 1.0 - m * math.atan(1.0 / m)
    assert abs(value - exact) <= 1e-5 * exact


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


#: Log10 range of m per family: the rational and square-root scales, exp's
#: rate k up to 1e8, and the Lorentzian's width down to 1e-6 of the span.
_FAMILY_M = {"rational": (-6.0, 6.0), "sqrt": (-6.0, 6.0), "exp": (-2.0, 8.0),
             "lorentzian": (-6.0, 0.0)}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    case=st.sampled_from(sorted(_FAMILY_M)).flatmap(
        lambda name: st.tuples(st.just(name), _log_uniform(*_FAMILY_M[name]))
    ),
    b=_log_uniform(-2.0, 3.0),
    rel_tol=_log_uniform(-12.0, -4.0),
)
@example(case=("exp", 3e6), b=1.0, rel_tol=1e-10)
def test_integral_within_rel_tol_or_refused(case, b, rel_tol):
    # Refusing a tolerance is allowed; returning a value outside it is not.
    f, closed = _family(*case, b)
    try:
        value = integrate(f, 0.0, b, QuadratureSpec(rel_tol))
    except MaxDepthExceededError:
        return
    with mpmath.workdps(40):
        exact = closed()
        assert abs(value - exact) <= rel_tol * abs(exact)


class TestFindRoot:
    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0, 1e-12)
        assert abs(root - math.sqrt(2.0)) < 1e-10

    def test_inverse_alpha_bracket_equation(self):
        # Frozen from a 200-step bisection oracle on the same bracket.
        g = lambda x: x - math.atan(x) - 2.0 * math.pi * 137.035999
        root = find_root(g, 800.0, 900.0, 1e-10)
        assert abs(root - 862.5922125024447) < 1e-6

    def test_endpoint_root_returned(self):
        assert find_root(lambda x: x - 1.0, 1.0, 2.0, 1e-12) == 1.0
        assert find_root(lambda x: x - 2.0, 1.0, 2.0, 1e-12) == 2.0

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_max_iter_exceeded(self, monkeypatch):
        # Cube root defeats interpolation, so only bisection progress is
        # made; three iterations cannot shrink 1e6 to 1e-14.
        monkeypatch.setattr(numerics, "_MAX_ITER", 3)
        g = lambda x: math.copysign(abs(x - 0.37) ** (1.0 / 3.0), x - 0.37)
        with pytest.raises(MaxIterExceededError):
            find_root(g, 0.0, 1e6, 1e-14)

    def test_monotone_rescaling_invariance(self):
        g = lambda x: math.cos(x) - x
        base = find_root(g, 0.0, 1.0, 1e-12)
        scaled = find_root(lambda x: 3.7 * g(x), 0.0, 1.0, 1e-12)
        cubed = find_root(lambda x: g(x) ** 3, 0.0, 1.0, 1e-9)
        assert abs(scaled - base) < 1e-10
        assert abs(cubed - base) < 1e-6

    def test_spec_validation(self):
        g = lambda x: x - 0.5
        with pytest.raises(ValueError):
            find_root(g, 2.0, 1.0, 1e-12)
        with pytest.raises(ValueError):
            find_root(g, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [
        (0.0, math.inf), (-math.inf, 2.0), (math.nan, 2.0), (0.0, math.nan), (-1e308, 1e308),
    ], ids=["inf-hi", "inf-lo", "nan-lo", "nan-hi", "overflowing-width"])
    def test_non_finite_bracket_rejected(self, lo, hi):
        # x - 1 changes sign across each of these; such a bracket once ran
        # all _MAX_ITER iterations instead.
        with pytest.raises(ValueError) as refused:
            find_root(lambda x: x - 1.0, lo, hi, 1e-12)
        assert str(refused.value) == (
            f"root bracket must have lo < hi and a finite width: lo={lo!r}, hi={hi!r}"
        )

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(
        ends=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3, unique=True).map(sorted),
        x_tol=st.floats(1e-9, 1e-3),
        cubic=st.booleans(),
    )
    def test_root_lies_within_x_tol(self, ends, x_tol, cubic):
        lo, root, hi = ends
        g = (lambda x: (x - root) ** 3 + (x - root)) if cubic else (lambda x: 2.5 * (x - root))
        # Brent stops once the sign-changing bracket [b, c] holding the root is
        # at most 2*tol wide, tol = 2*eps*|b| + x_tol/2.
        found = find_root(g, lo, hi, x_tol)
        assert abs(found - root) <= x_tol + 4.0 * sys.float_info.epsilon * abs(found)
