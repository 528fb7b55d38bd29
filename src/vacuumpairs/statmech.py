"""Standing-wave mode statistics for a relativistic particle in a box:
mode counting, the thermal occupation of a single mode, Planck's spectral
energy density and the mode density ``mode_density``, which is also the
non-thermal vacuum density behind the virtual-pair picture.  Planck's law
has one home, ``planck_energy_density``, which the thermal quadrature
integrates and ``planck_curve`` samples as plain (momentum, density) pairs.
The quadrature maps x = pc/(kT) from [0, inf) onto [0, 1] itself and sets
the mapped curve to 0 at the end, the limit of its e^(-x) tail.
The mode-count ceiling ``_MAX_COUNT`` and the thermal quadrature's
tolerance are module constants.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

from . import numerics
from .constants import CODATA
from .errors import Failure

# numpy is imported inside the lattice sum, the only function here that
# builds arrays, so the Planck commands start without it.


class ModeCountOverflowError(RuntimeError, Failure):
    """Brute-force mode count would exceed the configured maximum."""


@dataclass(frozen=True)
class ThermalState:
    """Equilibrium temperature with its inverse energy beta = 1/(kT).

    The chemical potential is fixed to zero throughout: photon number is not
    conserved, so the grand-canonical and canonical descriptions coincide.
    """

    temperature_k: float
    beta_per_j: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0 < self.temperature_k < math.inf:
            raise ValueError("temperature_k must be finite and > 0")
        kt = CODATA.k_boltzmann_j_per_k * self.temperature_k
        if kt == 0.0 or not 1.0 / kt < math.inf:
            raise ValueError(
                f"temperature_k = {self.temperature_k} gives kT = {kt} J, whose "
                f"inverse beta is not finite"
            )
        object.__setattr__(self, "beta_per_j", 1.0 / kt)

    def hw_over_kt(self, omega_rad_per_s: float) -> float:
        """Dimensionless mode energy hbar*omega/(kT)."""
        return CODATA.hbar_j_s * omega_rad_per_s * self.beta_per_j


_FOUR_PI = 4.0 * math.pi
_H_CUBED = CODATA.h_j_s**3


def mode_density(p_kg_m_s: float) -> float:
    """Mode density 4*pi*p^2/h^3 per unit momentum per unit volume.

    It is also the density of virtual fluctuations: their 1/2 zero-point
    factor is compensated by the g=2 degeneracy.
    """
    if not p_kg_m_s >= 0:
        raise ValueError("momentum must be >= 0")
    return _FOUR_PI * p_kg_m_s**2 / _H_CUBED


def _lattice_radii(
    box_lengths_m: tuple[float, float, float],
    energy_max_mev: float,
    mass_energy_mev: float,
) -> tuple[float, float, float]:
    if not all(length > 0 for length in box_lengths_m):
        raise ValueError("box_lengths_m must be > 0")
    if not 0 <= mass_energy_mev < math.inf:
        raise ValueError("mass_energy_mev must be finite and >= 0")
    if not energy_max_mev >= mass_energy_mev:
        raise ValueError("energy_max_mev must be >= mass_energy_mev")
    pc_max = math.sqrt(energy_max_mev**2 - mass_energy_mev**2)
    # Momentum per lattice step along axis i: h*c/(2*L_i) in MeV.  A radius
    # that is 0 (energy equal to the mass) or underflows to it is kept at the
    # least positive float, which admits l_i = 0 alone and keeps the lattice
    # sum from dividing by zero.
    return tuple(
        max(pc_max * (2.0 * length) / CODATA.h_c_mev_m, math.ulp(0.0))
        for length in box_lengths_m
    )


#: Most lattice columns one numpy block of ``_lattice_sum`` holds.
_BLOCK = 1 << 14
#: Most modes ``count_box_modes`` counts before it raises.
_MAX_COUNT = 50_000_000

_OVERFLOW = "more than {} lattice points lie inside radii {}"


def _lattice_sum(radii: tuple[float, float, float], max_count: int) -> int:
    """Number of lattice points l_x, l_y, l_z >= 0 inside the ellipsoid of
    radii (r_x, r_y, r_z), the origin included.

    Row l_x reaches l_y <= int(r_y sqrt(rem)), rem = 1 - (l_x/r_x)^2, and its
    column l_y holds the F + 1 points l_z = 0..F, F = floor(r_z sqrt(max(rem
    - (l_y/r_y)^2, 0))).  Blocks of rows and columns hold at most ``_BLOCK``
    columns whatever the radii.

    Raises ``ModeCountOverflowError`` exactly when the count exceeds
    ``max_count``: at once when some floor(r_i) does, since the axis points
    l_i = 0..floor(r_i) all lie inside, and otherwise after the block whose
    columns take the running total past it.  Every column holds at least one
    point, so no more than about ``max_count`` columns are walked.
    """
    import numpy as np

    rx, ry, rz = radii
    if max(radii) >= max_count + 1:  # some floor(r_i) > max_count
        raise ModeCountOverflowError(_OVERFLOW.format(max_count, radii))
    n_rows = int(rx) + 1
    total = 0
    row = 0
    while row < n_rows:
        # Rows narrow as l_x grows, so a group's first row is its widest.
        width = int(ry * math.sqrt(1.0 - (row / rx) ** 2)) + 1
        stop = min(row + max(1, _BLOCK // width), n_rows)
        # np.float_power squares as Python's x**2 does, so each row's rem and
        # ly_max are the row loop's; numpy's x*x differs from x**2 in the
        # last bit for about one x in a thousand.
        rem = 1.0 - np.float_power(np.arange(row, stop) / rx, 2.0)[:, None]
        ly_max = (ry * np.sqrt(rem)).astype(np.int64)
        for y0 in range(0, width, _BLOCK):
            ly = np.arange(y0, min(y0 + _BLOCK, width))
            # floor(rz * sqrt(max(rem2, 0))) + 1, in place.
            points = rem - (ly / ry) ** 2
            np.maximum(points, 0.0, out=points)
            np.sqrt(points, out=points)
            points *= rz
            np.floor(points, out=points)
            points += 1.0
            total += int(np.sum(points, where=ly <= ly_max))
            if total > max_count:
                raise ModeCountOverflowError(_OVERFLOW.format(max_count, radii))
        row = stop
    return total


def count_box_modes(
    box_lengths_m: tuple[float, float, float],
    energy_max_mev: float,
    mass_energy_mev: float = 0.0,
) -> int:
    """Count of box modes with energy at most ``energy_max_mev``; floating point may miss modes
    on the energy surface (radii (140, 140, 140): 1,459,686 lattice points, not 1,459,689).

    Modes are non-negative integer triples (l_x, l_y, l_z) under the
    half-wavelength standing-wave condition p_i = h*l_i/(2*L_i); the all-zero
    triple is excluded.  Triples with some zero components are counted: they
    are the (1,0,0)-type lowest modes, and the continuum comparison absorbs
    the resulting O(1/R) boundary layer.

    Raises ``ModeCountOverflowError`` if and only if the count exceeds
    ``_MAX_COUNT``, after walking at most about ``_MAX_COUNT`` lattice
    columns whatever the box's shape.
    """
    radii = _lattice_radii(box_lengths_m, energy_max_mev, mass_energy_mev)
    return _lattice_sum(radii, _MAX_COUNT + 1) - 1  # the origin is no mode


def state_probability(omega_rad_per_s: float, n: int, state: ThermalState) -> float:
    """Occupation probability p(n) = e^(-n x) * (1 - e^(-x)).

    The zero-point offset cancels between numerator and partition function,
    so the probability does not contain it.
    """
    if not omega_rad_per_s > 0:
        raise ValueError("omega must be > 0")
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, not {n!r}") from None
    if n < 0:
        raise ValueError("n must be >= 0")
    x = state.hw_over_kt(omega_rad_per_s)
    # n * x would round n to a float first, which overflows from n = 2**1024
    # even where n*x is finite (a subnormal x); int/int division rounds the
    # exact product n*x once.
    try:
        num, den = x.as_integer_ratio()
        nx = n * num / den
    except OverflowError:  # x infinite or n*x above 1.8e308: only p(0) = 1
        return float(n == 0)
    return math.exp(-nx) * -math.expm1(-x)


def _occupation_from_x(x: float) -> float:
    if not x > 0:
        raise ValueError("hbar*omega/(kT) must be > 0")
    if x > 700.0:  # expm1 overflows past ~709; Wien tail is exact e^-x there
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def mean_occupation(omega_rad_per_s: float, state: ThermalState) -> float:
    """Bose-Einstein mean quantum number 1/(e^(hw/kT) - 1) at mu = 0."""
    return _occupation_from_x(state.hw_over_kt(omega_rad_per_s))


def mean_energy(omega_rad_per_s: float, state: ThermalState) -> float:
    """Mean mode energy hbar*omega*(1/2 + <n>) in joules.

    Equals -d(log Z)/d(beta), which the tests verify by finite differences.
    """
    x = state.hw_over_kt(omega_rad_per_s)
    return CODATA.hbar_j_s * omega_rad_per_s * (0.5 + _occupation_from_x(x))


def planck_energy_density(
    p_kg_m_s: float,
    state: ThermalState,
    include_zero_point: bool = True,
) -> float:
    """Planck's law w(p) = 2 * (4 pi p^2/h^3) * pc * (1/2 + <n>).

    Photon dispersion epsilon = p*c and polarisation degeneracy g = 2.
    With ``include_zero_point`` false only the thermal part remains.
    """
    density = mode_density(p_kg_m_s)
    if p_kg_m_s == 0:
        return 0.0
    epsilon_j = p_kg_m_s * CODATA.c_m_per_s
    zero_point = 0.5 if include_zero_point else 0.0
    occupancy = _occupation_from_x(epsilon_j * state.beta_per_j) + zero_point
    return 2.0 * density * epsilon_j * occupancy


def stefan_boltzmann_density(state: ThermalState) -> float:
    """Closed-form thermal energy density (pi^2/15) (kT)^4 / (hbar c)^3.

    Formed as (pi^2/15) (kT/(hbar c))^3 kT: (kT)^4 alone underflows below
    ~1e-57 K, while this product holds wherever the density is a normal
    float.  Raises ``ValueError`` where it is not: below ~7e-74 K, where it
    underflows, and above ~7e80 K, where it overflows.
    """
    kt = CODATA.k_boltzmann_j_per_k * state.temperature_k
    wavenumber = kt / (CODATA.hbar_j_s * CODATA.c_m_per_s)
    try:
        density = math.pi**2 / 15.0 * wavenumber**3 * kt
    except OverflowError:  # wavenumber**3, above ~1e100 K
        density = math.inf
    if not sys.float_info.min <= density < math.inf:
        end = "underflows" if density < 1.0 else "overflows"
        raise ValueError(
            f"temperature_k = {state.temperature_k} gives a Stefan-Boltzmann density "
            f"{density} J/m^3 that {end} double precision"
        )
    return density


#: Tolerance of ``integrate_thermal_density``.
_THERMAL_QUADRATURE = numerics.QuadratureSpec(rel_tol=1e-9)


def integrate_thermal_density(state: ThermalState) -> float:
    """Quadrature of the thermal Planck curve over all momenta (J/m^3), to
    relative tolerance 1e-9.

    Integrated in the dimensionless variable x = pc/(kT) so the integrand
    peaks at order unity, and mapped from [0, inf) onto [0, 1] by
    x = t/(1-t), with the Jacobian 1/(1-t)^2.  The mapped curve is set to 0
    at t = 1: its e^(-x) tail falls faster than any power of 1/x, so that is
    its limit there.  Refused, before it integrates, at the temperatures
    where ``stefan_boltzmann_density`` refuses the closed form.
    """
    stefan_boltzmann_density(state)
    kt = CODATA.k_boltzmann_j_per_k * state.temperature_k
    p_scale = kt / CODATA.c_m_per_s

    def mapped(t: float) -> float:
        if t >= 1.0:
            return 0.0
        s = 1.0 / (1.0 - t)
        return planck_energy_density(t * s * p_scale, state, False) * s * s

    return p_scale * numerics.integrate(mapped, 0.0, 1.0, _THERMAL_QUADRATURE)


def wien_peak_x() -> float:
    """Location x* = hbar*omega/kT of the thermal spectral peak.

    Stationarity of x^3/(e^x - 1) gives 3*(1 - e^-x) = x, solved by
    bracketed root finding in [2, 4] to 1e-12.
    """
    return numerics.find_root(lambda x: 3.0 * -math.expm1(-x) - x, 2.0, 4.0, 1e-12)


def planck_curve(
    state: ThermalState,
    *,
    x_max: float = 15.0,
    n_points: int = 200,
    include_zero_point: bool = True,
) -> list[tuple[float, float]]:
    """(momentum, energy density) pairs on an even grid of x = pc/(kT) in [0, x_max].

    The grid is ``numpy.linspace(0, x_max, n_points)`` bit for bit: i times
    the step x_max/(n_points - 1), with x_max itself as the last point, and
    each momentum is its x times kT/c.  Raises ``ValueError`` when the
    density is not finite somewhere on the grid: it overflows at the top for
    temperatures beyond ~1e96 K, and at grid points below ~1e-308 its
    occupation 1/x does.
    """
    if not 0 < x_max < math.inf or n_points < 2:
        raise ValueError("x_max must be finite and > 0, and n_points >= 2")
    kt = CODATA.k_boltzmann_j_per_k * state.temperature_k
    p_scale = kt / CODATA.c_m_per_s
    if not sys.float_info.min <= p_scale < math.inf:
        raise ValueError(
            f"temperature_k = {state.temperature_k} gives a momentum scale kT/c = "
            f"{p_scale} kg*m/s that underflows double precision"
        )
    step = x_max / (n_points - 1)
    momenta = [i * step * p_scale for i in range(n_points - 1)] + [x_max * p_scale]
    try:
        curve = [(p, planck_energy_density(p, state, include_zero_point)) for p in momenta]
    except OverflowError:  # p**2 in the mode density
        curve = [(x_max * p_scale, math.inf)]
    if not all(density < math.inf for _, density in curve):
        raise ValueError(
            f"temperature_k = {state.temperature_k} with x_max = {x_max} gives a "
            f"spectral energy density that is not finite on the grid (momenta up "
            f"to {x_max * p_scale} kg*m/s)"
        )
    return curve
