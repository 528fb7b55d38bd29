"""Vacuum response from virtual pairs: the cutoff-regularized permittivity /
fine-structure-constant integrals over the species table, in closed form
and by quadrature, with their cutoff fits.  The average volume per pair in
Compton units, 6 pi^2/a^3, depends on the cutoff scale a alone and has one
home, ``pair_volume_compton_units``.

Unit discipline: energies, momenta and cutoffs are MeV (pc in MeV)
throughout, and no SI constant enters.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping

from . import numerics
from .particles import ParticleSpecies, SpeciesRegistry, weighted_degeneracy_sum

_TWO_PI = 2.0 * math.pi


class OscillatorModel(enum.Enum):
    """Level spacing assumed for a virtual pair treated as an oscillator."""

    #: hbar*omega = 2*sqrt((mc^2)^2 + (pc)^2): the gap to making both
    #: partners real at momentum p (mode-quantum spacing).
    MODE_QUANTUM = "mode-quantum"
    #: hbar*omega = 2*m*c^2 independent of momentum (fixed gap).
    FIXED_GAP = "fixed-gap"


class PolicyKind(str, enum.Enum):
    GLOBAL_CONSTANT = "global-constant"
    PER_SPECIES = "per-species"
    MASS_PROPORTIONAL = "mass-proportional"


@dataclass(frozen=True)
class CutoffPolicy:
    """How the high-momentum cutoff A is assigned across species."""

    kind: PolicyKind
    cutoff_mev: float | None = None
    scale_a: float | None = None
    per_species_mev: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.GLOBAL_CONSTANT:
            if self.cutoff_mev is None or not 0 < self.cutoff_mev < math.inf:
                raise ValueError("global-constant policy needs finite cutoff_mev > 0")
        elif self.kind is PolicyKind.PER_SPECIES:
            if not self.per_species_mev or any(
                not 0 < a < math.inf for a in self.per_species_mev.values()
            ):
                raise ValueError("per-species policy needs finite positive cutoffs")
            object.__setattr__(
                self, "per_species_mev", dict(self.per_species_mev)
            )
        elif self.kind is PolicyKind.MASS_PROPORTIONAL:
            if self.scale_a is None or not 0 < self.scale_a < math.inf:
                raise ValueError("mass-proportional policy needs finite scale_a > 0")

    @classmethod
    def global_constant(cls, cutoff_mev: float) -> "CutoffPolicy":
        return cls(PolicyKind.GLOBAL_CONSTANT, cutoff_mev=cutoff_mev)

    @classmethod
    def per_species(cls, per_species_mev: Mapping[str, float]) -> "CutoffPolicy":
        return cls(PolicyKind.PER_SPECIES, per_species_mev=per_species_mev)

    @classmethod
    def mass_proportional(cls, scale_a: float) -> "CutoffPolicy":
        return cls(PolicyKind.MASS_PROPORTIONAL, scale_a=scale_a)

    def cutoff_for(self, species: ParticleSpecies) -> float:
        """Cutoff A in MeV applied to one species under this policy."""
        if self.kind is PolicyKind.GLOBAL_CONSTANT:
            return float(self.cutoff_mev)
        if self.kind is PolicyKind.PER_SPECIES:
            try:
                return float(self.per_species_mev[species.name])
            except KeyError:
                raise KeyError(f"policy has no cutoff for species {species.name!r}")
        return float(self.scale_a) * species.mass_mev

    @property
    def oscillator(self) -> OscillatorModel:
        """The oscillator this policy pairs with: the fixed gap for
        mass-proportional cutoffs, the mode quantum otherwise."""
        if self.kind is PolicyKind.MASS_PROPORTIONAL:
            return OscillatorModel.FIXED_GAP
        return OscillatorModel.MODE_QUANTUM


@dataclass(frozen=True)
class AlphaBreakdown:
    """Total 1/alpha and its per-species decomposition under one policy."""

    per_species: dict[str, float]
    cutoffs_mev: dict[str, float]

    @property
    def total_inverse_alpha(self) -> float:
        return math.fsum(self.per_species.values())

    def ranked(self) -> list[tuple[str, float]]:
        """Species and contributions, largest first."""
        return sorted(self.per_species.items(), key=lambda kv: -kv[1])

    def to_dict(self) -> dict:
        total = self.total_inverse_alpha
        if total == 0.0:
            raise ValueError(
                f"every 1/alpha contribution underflows to 0.0 at cutoff_mev up to "
                f"{max(self.cutoffs_mev.values())!r}, so no species has a share"
            )
        return {
            "total_inverse_alpha": total,
            "species": [
                {
                    "name": name,
                    "cutoff_mev": self.cutoffs_mev[name],
                    "contribution": value,
                    "share": value / total,
                }
                for name, value in self.per_species.items()
            ],
        }


# --- cutoff-regularized inverse-alpha integrals ---------------------------

#: Below this x the difference x - arctan(x) cancels (relative error
#: ~eps/x^2), so _bracket_term sums its Taylor series instead; ten terms
#: reach double precision there.
_BRACKET_SERIES_X = 0.1
#: 1/(2j+3) for j = 9 .. 0, in Horner order.
_BRACKET_SERIES = tuple(1.0 / (2 * j + 3) for j in reversed(range(10)))


def _bracket_term(x: float) -> float:
    """x - arctan(x), the closed form of int_0^x t^2/(t^2+1) dt.

    For small x: x^3 * sum_j (-x^2)^j / (2j+3), by Horner's rule.
    """
    if x >= _BRACKET_SERIES_X:
        return x - math.atan(x)
    x2 = x * x
    series = 0.0
    for coefficient in _BRACKET_SERIES:
        series = coefficient - x2 * series
    return x * x2 * series


def inverse_alpha_single(
    species: ParticleSpecies,
    cutoff_mev: float,
    oscillator: OscillatorModel = OscillatorModel.MODE_QUANTUM,
) -> float:
    """One species' contribution to 1/alpha with cutoff A (closed form).

    (1/2pi) * Q^2 c (g/2) * F(x) with x = A/mc^2: F(x) = x - arctan(x) for
    the MODE_QUANTUM oscillator and F(x) = x^3/3 for the FIXED_GAP one.
    """
    if not 0 < cutoff_mev < math.inf:
        raise ValueError("cutoff_mev must be finite and > 0")
    x = cutoff_mev / species.mass_mev
    if oscillator is OscillatorModel.MODE_QUANTUM:
        term = _bracket_term(x)
    else:
        term = x**3 / 3.0
    return species.charge_weight_float * term / _TWO_PI


def inverse_alpha_single_quadrature(
    species: ParticleSpecies,
    cutoff_mev: float,
    oscillator: OscillatorModel = OscillatorModel.MODE_QUANTUM,
    spec: numerics.QuadratureSpec = numerics.DEFAULT_QUADRATURE,
) -> float:
    """Same contribution by direct quadrature of the momentum integral.

    MODE_QUANTUM integrand: (pc)^2 / ((pc)^2 + (mc^2)^2) / mc^2;
    FIXED_GAP integrand: (pc)^2 / (mc^2)^3.
    """
    if not 0 < cutoff_mev < math.inf:
        raise ValueError("cutoff_mev must be finite and > 0")
    m = species.mass_mev
    if oscillator is OscillatorModel.MODE_QUANTUM:
        integral = numerics.integrate(
            lambda t: t * t / (t * t + m * m), 0.0, cutoff_mev, spec
        ) / m
    else:
        integral = numerics.integrate(lambda t: t * t, 0.0, cutoff_mev, spec) / m**3
    return species.charge_weight_float * integral / _TWO_PI


def inverse_alpha_total(registry: SpeciesRegistry, policy: CutoffPolicy) -> AlphaBreakdown:
    """Per-species 1/alpha contributions under a cutoff policy.

    Each species contributes ``inverse_alpha_single`` at the policy's cutoff
    for it, with the policy's oscillator (``CutoffPolicy.oscillator``).
    """
    oscillator = policy.oscillator
    contributions: dict[str, float] = {}
    cutoffs: dict[str, float] = {}
    for species in registry:
        cutoffs[species.name] = policy.cutoff_for(species)
        contributions[species.name] = inverse_alpha_single(
            species, cutoffs[species.name], oscillator
        )
    return AlphaBreakdown(per_species=contributions, cutoffs_mev=cutoffs)


def fit_cutoff(
    registry: SpeciesRegistry,
    target_inverse_alpha: float,
    policy_kind: PolicyKind | str = PolicyKind.GLOBAL_CONSTANT,
    *,
    bracket_mev: tuple[float, float] | None = None,
) -> CutoffPolicy:
    """Fit the cutoff so the total 1/alpha matches the target.

    Global-constant: bracketed root find on A (tolerance 1e-4 MeV) in
    ``bracket_mev``, which raises ``NoSignChangeError`` when it misses the
    root.  The default bracket, (1, 5000) MeV, is instead moved by
    ``_widen_bracket`` until it holds the root, which is then found to
    1e-12 of the new lower end, so fits far below 1 MeV keep their relative
    precision.
    Mass-proportional: closed form a = cbrt(6 pi target / S), which raises
    ``ValueError`` when a overflows or underflows to 0, or when every
    contribution at a underflows to 0.
    """
    if not 0 < target_inverse_alpha < math.inf:
        raise ValueError("target_inverse_alpha must be finite and > 0")
    kind = PolicyKind(policy_kind)
    if kind is PolicyKind.GLOBAL_CONSTANT:
        def total(a_mev: float) -> float:
            return inverse_alpha_total(
                registry, CutoffPolicy.global_constant(a_mev)
            ).total_inverse_alpha

        def objective(a_mev: float) -> float:
            return total(a_mev) - target_inverse_alpha

        lo, hi = bracket_mev or (1.0, 5000.0)
        try:
            root = numerics.find_root(objective, lo, hi, 1e-4)
        except numerics.NoSignChangeError:
            if bracket_mev is not None:
                raise
            lo, hi = _widen_bracket(total, target_inverse_alpha, lo, hi)
            root = numerics.find_root(objective, lo, hi, 1e-12 * lo)
        return CutoffPolicy.global_constant(root)
    if kind is PolicyKind.MASS_PROPORTIONAL:
        s = weighted_degeneracy_sum(registry)
        a = (6.0 * math.pi * target_inverse_alpha / s) ** (1.0 / 3.0)
        if not 0 < a < math.inf:
            raise ValueError(
                f"target_inverse_alpha = {target_inverse_alpha!r} is out of reach: the "
                f"mass-proportional scale a = cbrt(6 pi target / S) is {a!r}"
            )
        policy = CutoffPolicy.mass_proportional(a)
        if inverse_alpha_total(registry, policy).total_inverse_alpha == 0.0:
            raise ValueError(
                f"target_inverse_alpha = {target_inverse_alpha!r} is out of reach: every 1/alpha "
                f"contribution underflows to 0.0 at the mass-proportional scale a = {a!r}"
            )
        return policy
    raise ValueError(f"cannot fit policy kind {kind.value}")


def _widen_bracket(
    total: Callable[[float], float], target: float, lo: float, hi: float
) -> tuple[float, float]:
    """Halve or double the cutoff bracket until ``total`` crosses ``target``.

    The total 1/alpha rises monotonically with the cutoff, from 0 towards
    infinity, so the bracket steps down while ``total(lo)`` exceeds the
    target and up while ``total(hi)`` falls short of it.  Raises
    ``ValueError`` naming the reachable range when the target lies beyond
    the totals of normal, finite cutoffs.
    """
    while total(lo) > target:
        if lo < 2.0 * sys.float_info.min:
            raise ValueError(
                f"target_inverse_alpha = {target!r} is out of reach: normal "
                f"cutoffs give total 1/alpha in [{total(lo)!r}, inf)"
            )
        lo, hi = 0.5 * lo, lo
    reach = total(hi)
    while reach < target:
        wider = 2.0 * hi
        wider_total = total(wider) if wider < math.inf else math.inf
        if not wider_total < math.inf:
            raise ValueError(
                f"target_inverse_alpha = {target!r} is out of reach: finite "
                f"cutoffs give total 1/alpha in (0, {reach!r}]"
            )
        lo, hi, reach = hi, wider, wider_total
    return lo, hi


def chiral_cutoff_policy(
    registry: SpeciesRegistry,
    quark_cutoff_mev: float = 100.0,
    default_cutoff_mev: float = 292.0,
) -> CutoffPolicy:
    """Per-species policy with quark cutoffs at the chiral-symmetry scale.

    Quarks (colour factor 3) are capped at ~100 MeV where the quark
    condensate is expected to disappear; all other species keep the fitted
    global value.  The resulting 1/alpha deficit is reported, not asserted.
    """
    for name, value in (("quark_cutoff_mev", quark_cutoff_mev), ("default_cutoff_mev", default_cutoff_mev)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0")
    return CutoffPolicy.per_species(
        {
            s.name: quark_cutoff_mev if s.color_factor == 3 else default_cutoff_mev
            for s in registry
        }
    )


# --- pair volume ----------------------------------------------------------

def pair_volume_compton_units(scale_a: float) -> float:
    """Average volume per virtual pair, 6 pi^2 / a^3, in units of the cubed
    reduced Compton length of its species: the same for every species.
    ``ValueError`` names ``scale_a`` where a^3 underflows to 0 (a below
    ~1.4e-108) or overflows (above ~5.6e102); a subnormal a^3 gives inf."""
    if not 0 < scale_a < math.inf:
        raise ValueError("scale_a must be finite and > 0")
    try:
        return 6.0 * math.pi**2 / scale_a**3
    except (ZeroDivisionError, OverflowError):
        end = "underflows to 0" if scale_a < 1.0 else "overflows"
        raise ValueError(f"scale_a = {scale_a!r} has a cube that {end}") from None
