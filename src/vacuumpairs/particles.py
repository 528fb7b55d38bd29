"""Charged elementary-particle table: species records, registry loading and
the charge-weighted degeneracy sum entering every vacuum-polarisation sum.

The default table ships the three charged leptons, the six quarks and the W.
Light-quark masses follow the convention of the analysis being reproduced
(current-quark range floors, m_u = 1.5 MeV, m_d = 3.0 MeV); heavier entries
use PDG central values.  Any table can be swapped in via ``load_registry``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

from .errors import Failure


class RegistryParseError(ValueError, Failure):
    """Species file could not be parsed into records."""


class RegistryValidationError(ValueError, Failure):
    """A species record violates a registry invariant."""


class EmptyRegistryError(ValueError, Failure):
    """The operation requires at least one species."""


#: Charge fractions (units of q_e) occurring in the elementary-particle table.
ALLOWED_CHARGES = (
    Fraction(1),
    Fraction(-1),
    Fraction(2, 3),
    Fraction(-2, 3),
    Fraction(1, 3),
    Fraction(-1, 3),
)

# Decimal charges in species files are snapped to the exact rational.
_CHARGE_SNAP_TOL = 1e-6


def _is_number(value: object) -> bool:
    """An int, float or Fraction that is not a bool: JSON's ``true`` is no count."""
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)


def _as_charge_fraction(value: object) -> Fraction | None:
    """The allowed charge that ``value`` is, or as a float snaps to; else None."""
    if isinstance(value, float):
        for allowed in ALLOWED_CHARGES:
            if abs(value - float(allowed)) <= _CHARGE_SNAP_TOL:
                return allowed
        return None
    return Fraction(value) if _is_number(value) and value in ALLOWED_CHARGES else None


@dataclass(frozen=True)
class ParticleSpecies:
    """One charged elementary particle type.

    ``mass_mev`` is the rest-mass energy m*c^2, ``charge_q`` the charge in
    units of q_e, ``color_factor`` the colour degeneracy (3 for quarks) and
    ``spin_degeneracy`` 2 for fermions or 3 for the spin-1 W pair.  Each
    is an int, float or Fraction, never a bool; the mass is stored as a
    float, the factors as ints.  ``charge_weight`` is Q^2 * c * g/2, the
    exact species weight in polarisation sums, and ``charge_weight_float``
    its float; both are formed once, when the species is made.
    """

    name: str
    mass_mev: float
    charge_q: Fraction
    color_factor: int
    spin_degeneracy: int
    charge_weight: Fraction = field(init=False, repr=False, compare=False)
    charge_weight_float: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise RegistryValidationError(f"species name {self.name!r} must be a non-empty string")
        if not (_is_number(self.mass_mev) and 0 < self.mass_mev <= sys.float_info.max):
            raise RegistryValidationError(f"{self.name}: mass_mev must be finite and > 0")
        object.__setattr__(self, "mass_mev", float(self.mass_mev))
        charge = _as_charge_fraction(self.charge_q)
        if charge is None:
            raise RegistryValidationError(
                f"{self.name}: charge_q {self.charge_q!r} not in {{+-1, +-2/3, +-1/3}}"
            )
        object.__setattr__(self, "charge_q", charge)
        if not (_is_number(self.color_factor) and self.color_factor in (1, 3)):
            raise RegistryValidationError(f"{self.name}: color_factor must be 1 or 3")
        if not (_is_number(self.spin_degeneracy) and self.spin_degeneracy in (2, 3)):
            raise RegistryValidationError(f"{self.name}: spin_degeneracy must be 2 or 3")
        object.__setattr__(self, "color_factor", int(self.color_factor))
        object.__setattr__(self, "spin_degeneracy", int(self.spin_degeneracy))
        weight = self.charge_q**2 * self.color_factor * Fraction(self.spin_degeneracy, 2)
        object.__setattr__(self, "charge_weight", weight)
        object.__setattr__(self, "charge_weight_float", float(weight))


@dataclass(frozen=True)
class SpeciesRegistry:
    """Ordered, immutable collection of uniquely named species.

    ``charge_weight_sum`` is the exact sum of the species' ``charge_weight``,
    formed once, when the registry is made.
    """

    species: tuple[ParticleSpecies, ...]
    charge_weight_sum: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.species:
            raise EmptyRegistryError("registry has no species")
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise RegistryValidationError(f"duplicate species names: {dupes}")
        total = sum((s.charge_weight for s in self.species), start=Fraction(0))
        object.__setattr__(self, "charge_weight_sum", total)

    def __iter__(self) -> Iterator[ParticleSpecies]:
        return iter(self.species)

    def __len__(self) -> int:
        return len(self.species)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.species)

    def get(self, name: str) -> ParticleSpecies:
        for s in self.species:
            if s.name == name:
                return s
        raise KeyError(f"the species table has no species {name}")

    def subset(self, names: Iterable[str]) -> "SpeciesRegistry":
        wanted = tuple(names)
        return SpeciesRegistry(tuple(self.get(n) for n in wanted))


_REQUIRED_FIELDS = ("name", "mass_mev", "charge_q", "color_factor", "spin_degeneracy")


def load_registry(path: str | Path) -> SpeciesRegistry:
    """Load a species registry from a JSON file.

    The file is a JSON array of records with fields ``name``, ``mass_mev``,
    ``charge_q`` (rational charge written as a decimal), ``color_factor``
    and ``spin_degeneracy``.  Unreadable or malformed files raise
    ``RegistryParseError``; records violating the invariants of
    ``ParticleSpecies`` raise ``RegistryValidationError``, and an empty
    array ``EmptyRegistryError``.
    """
    path = Path(path)
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise RegistryParseError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise RegistryParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(records, list):
        raise RegistryParseError(f"{path}: expected a JSON array of records")
    species = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise RegistryParseError(f"{path}: record {i} is not an object")
        missing = [k for k in _REQUIRED_FIELDS if k not in rec]
        if missing:
            raise RegistryParseError(f"{path}: record {i} missing fields {missing}")
        species.append(ParticleSpecies(**{k: rec[k] for k in _REQUIRED_FIELDS}))
    return SpeciesRegistry(tuple(species))


@lru_cache(maxsize=1)
def default_registry() -> SpeciesRegistry:
    """The built-in 10-species table (e, mu, tau, u, d, s, c, b, t, W)."""
    return load_registry(Path(__file__).with_name("data") / "species.json")


def weighted_degeneracy_sum(registry: SpeciesRegistry) -> float:
    """Sum of Q_i^2 * c_i * g_i/2 over the registry (9.5 for the default).

    The exact ``registry.charge_weight_sum`` converted to float, so dyadic
    results such as 9.5 are exact.
    """
    return float(registry.charge_weight_sum)
