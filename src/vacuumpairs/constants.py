"""Physical constants (CODATA 2018), the 1/alpha fit target, and the MeV-to-SI
conversions built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants; since the 2019 redefinition h, c, k and q_e are exact."""

    h_j_s: float = 6.626_070_15e-34  # Planck constant (exact)
    c_m_per_s: float = 299_792_458.0  # speed of light (exact)
    k_boltzmann_j_per_k: float = 1.380_649e-23  # Boltzmann constant (exact)
    q_e_coulomb: float = 1.602_176_634e-19  # elementary charge (exact)
    # Fit target for the inverse fine-structure constant, truncated to the
    # precision the cutoff fits are quoted at.
    inverse_alpha_target: float = 137.035_999

    @property
    def hbar_j_s(self) -> float:
        """Reduced Planck constant h/(2*pi) in J*s."""
        return self.h_j_s / (2.0 * math.pi)

    @property
    def alpha_target(self) -> float:
        return 1.0 / self.inverse_alpha_target

    @property
    def mev_to_j(self) -> float:
        return 1.0e6 * self.q_e_coulomb

    @property
    def h_c_mev_m(self) -> float:
        """h*c in MeV*m."""
        return self.h_j_s * self.c_m_per_s / self.mev_to_j


CODATA = PhysicalConstants()
