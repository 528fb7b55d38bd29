import math

import numpy as np
import pytest

from vacuumpairs import numerics
from vacuumpairs.numerics import (
    DEFAULT_QUADRATURE,
    MaxDepthExceededError,
    MaxIterExceededError,
    NonFiniteIntegrandError,
    NoSignChangeError,
    QuadratureSpec,
    RootSpec,
    find_root,
    integrate,
    integrate_half_line,
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
        # x^3/(e^x - 1), written so that it does not overflow at large x.
        value = integrate_half_line(
            lambda x: x**3 * math.exp(-x) / -math.expm1(-x) if x > 0 else 0.0, 0.0
        )
        assert abs(value / (math.pi**4 / 15.0) - 1.0) < 1e-8

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

    def test_non_finite_integrand(self):
        with pytest.raises(NonFiniteIntegrandError):
            integrate(lambda x: float("inf") if x == 0.0 else 1.0 / x, 0.0, 1.0)

    @pytest.mark.parametrize("f, message", [
        # NaN on (0.3, 0.35) first meets the centre node of the panel [0.25, 0.375].
        (lambda x: math.nan if 0.3 < x < 0.35 else 1.0, "integrand is nan at x=0.3125"),
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


class TestFindRoot:
    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, RootSpec(1.0, 2.0, x_tol=1e-12))
        assert abs(root - math.sqrt(2.0)) < 1e-10

    def test_inverse_alpha_bracket_equation(self):
        # Frozen from a 200-step bisection oracle on the same bracket.
        g = lambda x: x - math.atan(x) - 2.0 * math.pi * 137.035999
        root = find_root(g, RootSpec(800.0, 900.0, x_tol=1e-10))
        assert abs(root - 862.5922125024447) < 1e-6

    def test_endpoint_root_returned(self):
        assert find_root(lambda x: x - 1.0, RootSpec(1.0, 2.0)) == 1.0
        assert find_root(lambda x: x - 2.0, RootSpec(1.0, 2.0)) == 2.0

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            find_root(lambda x: x * x + 1.0, RootSpec(-1.0, 1.0))

    def test_max_iter_exceeded(self, monkeypatch):
        # Cube root defeats interpolation, so only bisection progress is
        # made; three iterations cannot shrink 1e6 to 1e-14.
        monkeypatch.setattr(numerics, "_MAX_ITER", 3)
        g = lambda x: math.copysign(abs(x - 0.37) ** (1.0 / 3.0), x - 0.37)
        with pytest.raises(MaxIterExceededError):
            find_root(g, RootSpec(0.0, 1e6, x_tol=1e-14))

    def test_monotone_rescaling_invariance(self):
        g = lambda x: math.cos(x) - x
        spec = RootSpec(0.0, 1.0, x_tol=1e-12)
        base = find_root(g, spec)
        scaled = find_root(lambda x: 3.7 * g(x), spec)
        cubed = find_root(lambda x: g(x) ** 3, RootSpec(0.0, 1.0, x_tol=1e-9))
        assert abs(scaled - base) < 1e-10
        assert abs(cubed - base) < 1e-6

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RootSpec(2.0, 1.0)
        with pytest.raises(ValueError):
            RootSpec(0.0, 1.0, x_tol=0.0)
