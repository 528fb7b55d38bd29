"""Physical constants (CODATA 2018), the 1/alpha fit target, and the MeV-to-SI
conversions built on them."""

from __future__ import annotations

import math


class CODATA:
    """SI constants; since the 2019 redefinition h, c, k and q_e are exact.

    A namespace, never instantiated: the derived values are computed once,
    here."""

    h_j_s = 6.626_070_15e-34  # Planck constant (exact)
    c_m_per_s = 299_792_458.0  # speed of light (exact)
    k_boltzmann_j_per_k = 1.380_649e-23  # Boltzmann constant (exact)
    q_e_coulomb = 1.602_176_634e-19  # elementary charge (exact)
    # Fit target for the inverse fine-structure constant, truncated to the
    # precision the cutoff fits are quoted at.
    inverse_alpha_target = 137.035_999

    hbar_j_s = h_j_s / (2.0 * math.pi)  # reduced Planck constant h/(2*pi) in J*s
    alpha_target = 1.0 / inverse_alpha_target
    mev_to_j = 1.0e6 * q_e_coulomb
    h_c_mev_m = h_j_s * c_m_per_s / mev_to_j  # h*c in MeV*m
