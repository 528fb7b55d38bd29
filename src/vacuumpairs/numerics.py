"""Deterministic numerical kernels: Gauss–Kronrod quadrature and bracketing
root finding.

Both routines are pure functions of their arguments, so they are safe for
unrestricted concurrent use.  The integrands handled here are smooth
rational/exponential functions, which a breadth-first adaptive 15-point
Gauss–Kronrod rule (Piessens et al., QUADPACK, 1983; Gander & Gautschi,
BIT 40, 2000) resolves in a few hundred scalar calls to tight tolerances.
A caller sets the tolerance (``QuadratureSpec``, ``RootSpec``); the guards
that stop work which cannot converge, ``_MAX_DEPTH``, ``_MAX_PANELS`` and
``_MAX_ITER``, are fixed here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul
from typing import Callable

from .errors import Failure


class MaxDepthExceededError(RuntimeError, Failure):
    """Requested tolerance unreachable within the subdivision depth limit."""


class NonFiniteIntegrandError(ValueError, Failure):
    """Integrand returned NaN or infinity inside the integration interval."""


class NoSignChangeError(ValueError, Failure):
    """Root bracket endpoints do not straddle a sign change."""


class MaxIterExceededError(RuntimeError, Failure):
    """Root refinement did not converge within ``_MAX_ITER`` iterations."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Relative tolerance for ``integrate``."""

    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")


@dataclass(frozen=True)
class RootSpec:
    """Bracket and stopping rule for ``find_root``."""

    bracket_lo: float
    bracket_hi: float
    x_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not self.bracket_lo < self.bracket_hi:
            raise ValueError("bracket_lo must be < bracket_hi")
        if not self.x_tol > 0:
            raise ValueError("x_tol must be > 0")


DEFAULT_QUADRATURE = QuadratureSpec()


def _eval(f: Callable[[float], float], x: float) -> float:
    value = f(x)
    if not math.isfinite(value):
        raise NonFiniteIntegrandError(f"integrand is {value!r} at x={x!r}")
    return float(value)


# G7-K15 pair on [-1, 1] (QUADPACK qk15): the positive Kronrod nodes from the
# outside in, their Kronrod weights, and their Gauss weights (0 at the
# Kronrod-only nodes); the centre (node 0) comes last in each weight list.
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
)
#: Antisymmetric null rule of degree 12 on the positive Kronrod nodes (its
#: mirror takes the opposite sign, the centre weight is 0), scaled to the
#: Euclidean norm of K15 - G7 (Berntsen & Espelid, ACM TOMS 17, 1991).
#: K15 - G7 is symmetric, so it misses an integrand's odd part, and it can
#: vanish by coincidence on a panel it does not resolve: at x = 684.9 the
#: mode-quantum integral t^2/(t^2+1) over [0, x] was accepted 8.5x outside
#: rel_tol 1e-6 on that estimate alone.
_NULL_ODD = (
    0.045485548193512670, -0.12604699052602076, 0.18128561200539535,
    -0.20625405374029581, 0.19813287215599928, -0.15544544677694772,
    0.084968977974960981,
)


def _mirror(positive: tuple[float, ...], centre: float, sign: float = 1.0) -> tuple[float, ...]:
    """The 15 values from node -1 to node 1, given those at the 7 positive
    nodes (outermost first); each negative node takes ``sign`` times its
    mirror's value."""
    return tuple(sign * v for v in positive) + (centre,) + tuple(reversed(positive))


_NODES = _mirror(_XGK, 0.0, sign=-1.0)
_KRONROD = _mirror(_WGK[:7], _WGK[7])
_KRONROD_MINUS_GAUSS = _mirror(
    tuple(k - g for k, g in zip(_WGK[:7], _WG[:7])), _WGK[7] - _WG[7]
)
_ODD = _mirror(_NULL_ODD, 0.0, sign=-1.0)
#: Equal panels of the starting grid.
_START_PANELS = 8
#: Bisection levels below the starting grid that ``integrate`` may use.
_MAX_DEPTH = 48
#: Most panels one bisection level may hold; breadth-first refinement of an
#: integrand that never converges would otherwise double its memory per level.
_MAX_PANELS = 1 << 14


def _gauss_kronrod(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """K15 estimate of the integral over [lo, hi] and its error estimate."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    values = [f(c + h * x) for x in _NODES]
    kronrod = sum(map(mul, _KRONROD, values))
    if not math.isfinite(kronrod):
        for x, value in zip(_NODES, values):
            if not math.isfinite(value):
                raise NonFiniteIntegrandError(f"integrand is {value!r} at x={c + h * x!r}")
        raise NonFiniteIntegrandError(f"integrand values on [{lo!r}, {hi!r}] overflow their sum")
    error = math.hypot(
        sum(map(mul, _KRONROD_MINUS_GAUSS, values)), sum(map(mul, _ODD, values))
    )
    return h * kronrod, h * error


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate ``f`` over [a, b] by adaptive Gauss–Kronrod (G7-K15) panels.

    Starts from ``_START_PANELS`` equal panels and refines breadth first:
    each level evaluates the 15 Kronrod nodes of every live panel, accepts a
    panel whose error estimate is at most tol * width/(b - a), and bisects
    the others.  tol = rel_tol*|I0|, with I0 the K15 sum over the starting
    grid.  The error estimate is the norm of two null rules:
    K15 - G7 and an antisymmetric one, so a panel is accepted only when both
    are small.  The result is the ``math.fsum`` of the accepted K15 values,
    with |I - integral| <= rel_tol*|I| for smooth integrands.

    ``f`` is called with scalars only.  Every node is interior, so f(a) and
    f(b) are evaluated once, to reject a non-finite endpoint.

    Raises:
        ValueError: if a > b.
        NonFiniteIntegrandError: f returned NaN/inf at an evaluation point.
        MaxDepthExceededError: tolerance not reached within ``_MAX_DEPTH``
            bisection levels (or ``_MAX_PANELS`` panels on one level).
    """
    if a > b:
        raise ValueError(f"integration bounds reversed: a={a!r} > b={b!r}")
    if a == b:
        return 0.0
    _eval(f, a)
    _eval(f, b)
    span = b - a
    edges = [a + span * i / _START_PANELS for i in range(_START_PANELS)] + [b]
    panels = list(zip(edges, edges[1:]))
    estimates = [_gauss_kronrod(f, lo, hi) for lo, hi in panels]
    tol = spec.rel_tol * abs(math.fsum(k for k, _ in estimates))
    accepted = []
    level = 0
    while True:
        # Every panel on this level is span / (_START_PANELS * 2**level) wide.
        panel_tol = tol / (_START_PANELS * 2.0**level)
        live = []
        for panel, (kronrod, error) in zip(panels, estimates):
            if error <= panel_tol:
                accepted.append(kronrod)
            else:
                live.append(panel)
        if not live:
            return math.fsum(accepted)
        if level == _MAX_DEPTH or 2 * len(live) > _MAX_PANELS:
            lo, hi = live[0]
            raise MaxDepthExceededError(
                f"tolerance not reached after {level} bisection levels: "
                f"{len(live)} panels left, the first on [{lo!r}, {hi!r}]"
            )
        level += 1
        panels = [
            half
            for lo, hi in live
            for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))
        ]
        estimates = [_gauss_kronrod(f, lo, hi) for lo, hi in panels]


def integrate_half_line(
    f: Callable[[float], float],
    a: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate ``f`` over [a, inf) via the substitution x = a + t/(1-t).

    The image integrand is f(x)/(1-t)^2 on [0, 1); the t=1 endpoint is
    defined as 0, which is the correct limit whenever f decays faster than
    1/x^2 (the exponential tails handled here do).
    """

    def mapped(t: float) -> float:
        if t >= 1.0:
            return 0.0
        s = 1.0 / (1.0 - t)
        return f(a + t * s) * s * s

    return integrate(mapped, 0.0, 1.0, spec)


#: Brent iterations ``find_root`` may take before it gives up.
_MAX_ITER = 200


def find_root(g: Callable[[float], float], spec: RootSpec) -> float:
    """Find a root of ``g`` inside the bracket using Brent's method.

    Combines bisection, secant and inverse quadratic interpolation, so
    convergence is guaranteed for a valid bracket.  Deterministic for
    identical inputs.

    Returns the abscissa once the bracket has shrunk below x_tol.

    Raises:
        NoSignChangeError: g(bracket_lo) and g(bracket_hi) have equal signs.
        MaxIterExceededError: not converged within ``_MAX_ITER`` iterations.
    """
    a, b = spec.bracket_lo, spec.bracket_hi
    fa, fb = g(a), g(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChangeError(
            f"g({a!r})={fa!r} and g({b!r})={fb!r} have the same sign"
        )

    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * sys.float_info.epsilon * abs(b) + 0.5 * spec.x_tol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # Secant step.
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                # Inverse quadratic interpolation.
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = m
                e = m
        else:
            d = m
            e = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        elif m > 0.0:
            b += tol
        else:
            b -= tol
        fb = g(b)
    raise MaxIterExceededError(f"no convergence after {_MAX_ITER} iterations")
