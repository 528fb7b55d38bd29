"""Zero-point mode statistics, virtual-pair vacuum response and photon
flight-time dispersion toolkit."""

from .constants import CODATA, PhysicalConstants
from .dispersion import (
    DelayDistribution,
    FlightConfig,
    InteractionProcess,
    LifetimeKind,
    LifetimeModel,
    LimitComparison,
    PhotonFlightResult,
    SamplingMethod,
    analytic_sigma,
    compare_to_limits,
    experiment_sensitivity,
    fwhm_from_rms,
    lifetime,
    pulse_broadening,
    rms_from_fwhm,
    sigma_coefficient,
    simulate_flight,
)
from .numerics import QuadratureSpec, RootSpec, find_root, integrate, integrate_half_line
from .particles import (
    ParticleSpecies,
    SpeciesRegistry,
    default_registry,
    load_registry,
    weighted_degeneracy_sum,
)
from .statmech import (
    SpectralSample,
    ThermalState,
    count_box_modes,
    dispersion_energy,
    mean_energy,
    mean_occupation,
    mode_density,
    mode_energy,
    partition_function,
    planck_energy_density,
    state_probability,
    vacuum_density,
)
from .vacuum_response import (
    AlphaBreakdown,
    CutoffPolicy,
    LandauMode,
    OscillatorModel,
    PolicyKind,
    average_pair_volume,
    dipole_max,
    dipole_time_averaged,
    fit_cutoff,
    inverse_alpha_single,
    inverse_alpha_total,
    landau_energy,
    permeability_from_alpha,
    relativistic_magnetic_moment,
)

__version__ = "0.1.0"
