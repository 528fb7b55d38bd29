"""Zero-point mode statistics, virtual-pair vacuum response and photon
flight-time dispersion toolkit.

The names below resolve on first use (PEP 562): ``import vacuumpairs``
imports no submodule, and ``vacuumpairs.simulate_flight`` imports
``vacuumpairs.dispersion`` and returns its function.
"""

from importlib import import_module

#: Public name -> the submodule that defines it.
_SUBMODULE = {
    name: module
    for module, names in {
        "constants": "CODATA",
        "dispersion": "DelayDistribution FlightConfig InteractionProcess LifetimeKind"
        " LifetimeModel LimitComparison PhotonFlightResult SamplingMethod compare_to_limits"
        " experiment_sensitivity fwhm_from_rms lifetime pulse_broadening"
        " rms_from_fwhm sigma_coefficient simulate_flight",
        "numerics": "QuadratureSpec find_root integrate",
        "particles": "ParticleSpecies SpeciesRegistry default_registry load_registry"
        " weighted_degeneracy_sum",
        "statmech": "ThermalState count_box_modes mean_energy mean_occupation mode_density"
        " planck_energy_density state_probability",
        "vacuum_response": "AlphaBreakdown CutoffPolicy OscillatorModel PolicyKind fit_cutoff"
        " inverse_alpha_single inverse_alpha_total",
    }.items()
    for name in names.split()
}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULE:
        return getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    if name in _SUBMODULE.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE, *_SUBMODULE.values()})
