"""Reproduction report: one table of headline quantities, each compared
against its published or derived reference value.

``TABLE`` is the single place where every gate is written: one ``RowSpec``
per row with the stage that computes it, unit, provenance, reference,
tolerance and note.  The stages are the 1/alpha fits, the thermal checks,
the box count, the quadrature sweep, the dispersion closed forms and the
Monte Carlo; ``run_stages``, the one loop over them, runs and times each
once in the order of its first row, and ``build_report`` fills the table.
The acceptance suite (``tests/test_acceptance.py``) asserts on these rows
instead of recomputing them.

Rows with a reference and tolerance gate the exit status of the ``report``
CLI command; informational rows record quantities whose quoted values are
known not to follow from the formulas here (they are listed, not asserted).
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace

from . import dispersion, statmech, vacuum_response
from .constants import CODATA
from .numerics import QuadratureSpec
from .particles import (
    ParticleSpecies,
    SpeciesRegistry,
    default_registry,
    weighted_degeneracy_sum,
)

#: Default seed for the report's randomised rows (explicit, no env override).
REPORT_SEED = 20260810


@dataclass(frozen=True)
class RowSpec:
    """Everything about a report row except its computed value."""

    stage: Callable[[SpeciesRegistry, int], dict[str, float]]
    quantity: str
    unit: str
    provenance: str  # "published", "derived" or "exact"
    reference: float | None = None
    abs_tol: float | None = None
    note: str = ""


@dataclass(frozen=True)
class ReportRow(RowSpec):
    """One computed quantity compared against its reference value.

    ``reference`` + ``abs_tol`` gate pass/fail; a row with ``abs_tol`` but no
    reference passes when ``computed <= abs_tol`` (deviation-style checks);
    a row with neither is informational.
    """

    computed: float = field(kw_only=True)

    @property
    def status(self) -> str:
        if self.reference is not None:
            return "pass" if abs(self.computed - self.reference) <= self.abs_tol else "fail"
        if self.abs_tol is not None:
            return "pass" if self.computed <= self.abs_tol else "fail"
        return "info"

    @property
    def rel_diff(self) -> float | None:
        if self.reference is None or self.reference == 0:
            return None
        return (self.computed - self.reference) / self.reference

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "computed": self.computed,
            "unit": self.unit,
            "reference": self.reference,
            "abs_tol": self.abs_tol,
            "rel_diff": self.rel_diff,
            "provenance": self.provenance,
            "status": self.status,
            "note": self.note,
        }


# --- stages: each maps quantity names to computed values -------------------
#
# Each ``TABLE`` row names the stage that returns its quantity, and
# ``run_stages`` is the one loop that runs them.  A stage may also return
# intermediate values that no row shows (the box mode count); the acceptance
# suite checks those directly.  Stages that draw random numbers or fit arrays
# import numpy themselves, so importing the report does not.


def alpha_fits(registry: SpeciesRegistry, seed: int) -> dict[str, float]:
    """The global, electron-only and mass-proportional cutoff fits."""
    target = CODATA.inverse_alpha_target
    electron = registry.get("e")
    global_policy = vacuum_response.fit_cutoff(registry, target)
    breakdown = vacuum_response.inverse_alpha_total(registry, global_policy)
    ranked = breakdown.ranked()
    e_policy = vacuum_response.fit_cutoff(
        registry.subset(["e"]), target, bracket_mev=(10.0, 2000.0)
    )
    mass_policy = vacuum_response.fit_cutoff(
        registry, target, vacuum_response.PolicyKind.MASS_PROPORTIONAL
    )
    at_electron_mass = vacuum_response.inverse_alpha_total(
        registry, vacuum_response.CutoffPolicy.global_constant(electron.mass_mev)
    )
    shift = (
        vacuum_response.fit_cutoff(registry, target + 0.5).cutoff_mev
        - vacuum_response.fit_cutoff(registry, target - 0.5).cutoff_mev
    ) / 2.0
    return {
        "weighted-degeneracy-sum": weighted_degeneracy_sum(registry),
        "global-cutoff-mev": global_policy.cutoff_mev,
        "alpha-leading-contributors-ok": [name for name, _ in ranked[:2]] == ["e", "u"],
        # A table with no species besides e and u has no minor share.
        "max-minor-species-share": max(
            (
                value / breakdown.total_inverse_alpha
                for name, value in ranked
                if name not in ("e", "u")
            ),
            default=0.0,
        ),
        "electron-only-cutoff-over-mc2": e_policy.cutoff_mev / electron.mass_mev,
        "inverse-alpha-at-861-mc2": vacuum_response.inverse_alpha_single(
            electron, 861.0 * electron.mass_mev
        ),
        "mass-proportional-scale-a": mass_policy.scale_a,
        "pair-volume-compton-units": vacuum_response.pair_volume_compton_units(
            mass_policy.scale_a
        ),
        "inverse-alpha-ratio-at-electron-mass-cutoff": at_electron_mass.total_inverse_alpha
        / target,
        "global-cutoff-shift-per-half-unit-of-inverse-alpha": shift,
    }


def thermal_checks(registry: SpeciesRegistry, seed: int) -> dict[str, float]:
    """Planck integral, Wien peak, mean energy and occupation probabilities."""
    import numpy as np

    sb_devs = []
    for t_k in (2.725, 300.0, 6000.0):
        state = statmech.ThermalState(t_k)
        quad = statmech.integrate_thermal_density(state)
        sb_devs.append(abs(quad / statmech.stefan_boltzmann_density(state) - 1.0))

    # Mean energy against a central finite difference of -d(log Z)/d(beta).
    rng = np.random.default_rng(seed)
    fd_dev = 0.0
    for _ in range(50):
        x = float(rng.uniform(0.05, 30.0))
        state = statmech.ThermalState(float(rng.uniform(1.0, 6000.0)))
        omega = x / (CODATA.hbar_j_s * state.beta_per_j)

        def log_z(beta: float) -> float:
            y = CODATA.hbar_j_s * omega * beta
            return -0.5 * y - math.log(-math.expm1(-y))

        beta = state.beta_per_j
        d_beta = 1e-6 * beta
        fd = -(log_z(beta + d_beta) - log_z(beta - d_beta)) / (2.0 * d_beta)
        fd_dev = max(fd_dev, abs(fd / statmech.mean_energy(omega, state) - 1.0))

    state = statmech.ThermalState(300.0)
    sum_dev = 0.0
    for x in (0.05, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0):
        omega = x / (CODATA.hbar_j_s * state.beta_per_j)
        total = math.fsum(
            statmech.state_probability(omega, n, state) for n in range(2000)
        )
        sum_dev = max(sum_dev, abs(total - 1.0))
    return {
        "stefan-boltzmann-max-rel-dev": max(sb_devs),
        "wien-peak-x": statmech.wien_peak_x(),
        "mean-energy-fd-max-rel-dev": fd_dev,
        "probability-sum-max-dev": sum_dev,
    }


def box_count(registry: SpeciesRegistry, seed: int) -> dict[str, float]:
    """Exact box-mode count against the continuum estimate."""
    length = 1e-10
    # Lattice radius ~140: count ~1.4e6, boundary layer well under the 2% gate.
    energy = 140.0 * CODATA.h_c_mev_m / (2.0 * length)
    count = statmech.count_box_modes((length, length, length), energy)
    pc = energy * CODATA.mev_to_j / CODATA.c_m_per_s
    continuum = 4.0 * math.pi * pc**3 * length**3 / (3.0 * CODATA.h_j_s**3)
    return {"box-mode-count": count, "box-count-continuum-ratio": count / continuum}


def quadrature_sweep(registry: SpeciesRegistry, seed: int) -> dict[str, float]:
    """Quadrature against the closed form over random masses and cutoffs."""
    import numpy as np

    rng = np.random.default_rng(seed)
    spec = QuadratureSpec(rel_tol=1e-12)
    worst = 0.0
    for _ in range(100):
        mass = float(10.0 ** rng.uniform(-1.0, 3.3))
        cutoff = float(10.0 ** rng.uniform(0.0, 3.0))
        probe = ParticleSpecies("probe", mass, -1, 1, 2)
        closed = vacuum_response.inverse_alpha_single(probe, cutoff)
        quad = vacuum_response.inverse_alpha_single_quadrature(probe, cutoff, spec=spec)
        worst = max(worst, abs(quad / closed - 1.0))
    return {"quadrature-closed-form-max-rel-dev": worst}


def dispersion_closed_forms(registry: SpeciesRegistry, seed: int) -> dict[str, float]:
    """Analytic jitter coefficients, sensitivity, broadening and verdict, for
    the table's electron."""
    electron = registry.get("e")

    def sigma(model: dispersion.LifetimeModel) -> float:
        return dispersion.sigma_coefficient(model, electron)

    verdict = dispersion.compare_to_limits(dispersion.LifetimeModel.quasistationary(), electron)

    def fwhm_as(pulse_rms_s: float, length_m: float) -> float:
        return dispersion.fwhm_from_rms(
            dispersion.pulse_broadening(pulse_rms_s, 0.05e-15, length_m)
        ) * 1e18

    return {
        "sigma-half-compton-fs-per-sqrt-m": sigma(dispersion.LifetimeModel.half_compton())
        * 1e15,
        "sigma-k-scaled-fs-per-sqrt-m": sigma(dispersion.LifetimeModel.k_scaled()) * 1e15,
        "sigma-quasistationary-ns-per-sqrt-m": sigma(
            dispersion.LifetimeModel.quasistationary()
        )
        * 1e9,
        "sensitivity-fs-per-sqrt-m": dispersion.experiment_sensitivity(2e-15, 0.01, 1e4)
        * 1e15,
        "attosecond-fwhm-13cm-as": fwhm_as(0.0, 0.13),
        "attosecond-fwhm-zero-width-1cm-as": fwhm_as(0.0, 0.01),
        "attosecond-fwhm-43as-seed-1cm-as": fwhm_as(dispersion.rms_from_fwhm(43e-18), 0.01),
        "quasistationary-band-excluded": verdict.band_verdict == "excluded",
    }


def monte_carlo(registry: SpeciesRegistry, seed: int) -> dict[str, float]:
    """Simulated stddev against the compound law, its L scaling, and the
    aggregate against the per-interaction sampling path."""
    import numpy as np

    # The half-Compton lifetime of the table's electron.
    model = dispersion.LifetimeModel.custom(
        dispersion.lifetime(dispersion.LifetimeModel.half_compton(), registry.get("e"))
    )
    n = 100_000
    max_z = 0.0
    log_l, log_sd = [], []
    for i, length in enumerate((1.0, 4.0, 16.0, 64.0)):
        config = dispersion.FlightConfig(
            length_m=length, lifetime_model=model, n_photons=n, seed=seed + i
        )
        result = dispersion.simulate_flight(config)
        se = result.analytic_sigma_s / math.sqrt(2.0 * (n - 1))
        if length <= 16.0:
            max_z = max(
                max_z, abs(result.stddev_delay_s - result.analytic_sigma_s) / se
            )
        log_l.append(math.log(length))
        log_sd.append(math.log(result.stddev_delay_s))

    # Artificially long lifetime: ~3300 interactions per photon, where the
    # explicit per-interaction loop is feasible.
    base = dispersion.FlightConfig(
        length_m=1.0,
        lifetime_model=dispersion.LifetimeModel.custom(1e-12),
        n_photons=4000,
        seed=seed + 100,
        delay_distribution=dispersion.DelayDistribution.EXPONENTIAL_TAU,
    )
    agg = dispersion.simulate_flight(base)
    loop = dispersion.simulate_flight(
        replace(base, sampling=dispersion.SamplingMethod.PER_INTERACTION, seed=seed + 101)
    )
    se = math.hypot(
        agg.stddev_delay_s / math.sqrt(2.0 * (base.n_photons - 1)),
        loop.stddev_delay_s / math.sqrt(2.0 * (base.n_photons - 1)),
    )
    return {
        "mc-stddev-max-z": max_z,
        "mc-scaling-exponent": float(np.polyfit(log_l, log_sd, 1)[0]),
        "mc-sampling-paths-z": abs(agg.stddev_delay_s - loop.stddev_delay_s) / se,
    }


# --- the table --------------------------------------------------------------

TABLE = (
    RowSpec(alpha_fits, "weighted-degeneracy-sum", "1", "published", 9.5, 0.0),
    RowSpec(alpha_fits, "global-cutoff-mev", "MeV", "published", 292.0, 2.0),
    RowSpec(
        alpha_fits, "alpha-leading-contributors-ok", "bool", "published", 1.0, 0.0,
        "electron largest, u quark second",
    ),
    RowSpec(
        alpha_fits, "max-minor-species-share", "1", "published",
        note=(
            "quoted only as 'percent level and below'; a sub-2% reading is "
            "arithmetically incompatible with the 292 MeV cutoff (d quark), "
            "so the share is recorded, not gated"
        ),
    ),
    RowSpec(
        alpha_fits, "electron-only-cutoff-over-mc2", "1", "derived", 862.6, 0.1,
        "order-of-magnitude quote is 861 = 2*pi/alpha",
    ),
    RowSpec(alpha_fits, "inverse-alpha-at-861-mc2", "1", "published", 136.8, 0.1),
    RowSpec(
        alpha_fits, "mass-proportional-scale-a", "1", "published", 6.48, 0.05, "quoted as ~6.5"
    ),
    RowSpec(
        alpha_fits, "pair-volume-compton-units", "1", "published", 0.218, 0.005,
        "quoted as ~0.22",
    ),
    RowSpec(
        alpha_fits, "inverse-alpha-ratio-at-electron-mass-cutoff", "1", "published",
        note="quoted as 'only 0.1%'; computed value recorded, not forced",
    ),
    RowSpec(
        alpha_fits, "global-cutoff-shift-per-half-unit-of-inverse-alpha", "MeV", "derived",
        note="sensitivity of the fitted cutoff to +-0.5 in the 1/alpha target",
    ),
    RowSpec(
        thermal_checks, "stefan-boltzmann-max-rel-dev", "1", "derived", abs_tol=1e-6,
        note="thermal Planck integral vs closed form at 2.725, 300, 6000 K",
    ),
    RowSpec(thermal_checks, "wien-peak-x", "1", "derived", 2.821, 0.001),
    RowSpec(box_count, "box-count-continuum-ratio", "1", "derived", 1.0, 0.02),
    RowSpec(thermal_checks, "mean-energy-fd-max-rel-dev", "1", "derived", abs_tol=1e-6),
    RowSpec(thermal_checks, "probability-sum-max-dev", "1", "derived", abs_tol=1e-12),
    RowSpec(
        quadrature_sweep, "quadrature-closed-form-max-rel-dev", "1", "derived", abs_tol=1e-8
    ),
    RowSpec(
        dispersion_closed_forms, "sigma-half-compton-fs-per-sqrt-m", "fs*m^-1/2",
        "published", 1.465, 0.05, "quoted as ~1.5 fs",
    ),
    RowSpec(
        dispersion_closed_forms, "sigma-k-scaled-fs-per-sqrt-m", "fs*m^-1/2",
        "published", 0.259, 0.01, "quoted as ~0.26 fs",
    ),
    RowSpec(
        dispersion_closed_forms, "sigma-quasistationary-ns-per-sqrt-m", "ns*m^-1/2",
        "published", 0.455, 0.02, "quoted as ~0.46 ns",
    ),
    RowSpec(
        monte_carlo, "mc-stddev-max-z", "1", "derived", abs_tol=3.0,
        note="MC stddev vs analytic sigma, in standard errors, L in {1,4,16} m",
    ),
    RowSpec(monte_carlo, "mc-scaling-exponent", "1", "derived", 0.5, 0.02),
    RowSpec(
        monte_carlo, "mc-sampling-paths-z", "1", "derived", abs_tol=3.0,
        note="aggregate vs per-interaction sampling at large lifetime",
    ),
    RowSpec(
        dispersion_closed_forms, "sensitivity-fs-per-sqrt-m", "fs*m^-1/2",
        "published", 0.00284, 0.0001, "quoted as ~0.003",
    ),
    RowSpec(
        dispersion_closed_forms, "attosecond-fwhm-13cm-as", "as", "published", 42.5, 0.5,
        "quoted as 43 as after 13 cm",
    ),
    RowSpec(
        dispersion_closed_forms, "attosecond-fwhm-zero-width-1cm-as", "as", "published",
        note="quoted 16 as does not follow from the quadrature sum; unresolved",
    ),
    RowSpec(
        dispersion_closed_forms, "attosecond-fwhm-43as-seed-1cm-as", "as", "published",
        note="quoted 57 as does not follow from the quadrature sum; unresolved",
    ),
    RowSpec(
        dispersion_closed_forms, "quasistationary-band-excluded", "bool", "published", 1.0, 0.0,
        "sigma-quasistationary-ns-per-sqrt-m vs band 0.2-0.3 fs*m^-1/2",
    ),
)


def table_rows(values: dict[str, float]) -> list[ReportRow]:
    """Fill ``TABLE`` with computed values keyed by quantity."""
    return [
        ReportRow(computed=float(values[spec.quantity]), **asdict(spec))
        for spec in TABLE
    ]


def run_stages(registry: SpeciesRegistry, seed: int) -> tuple[dict, dict]:
    """Run each stage that ``TABLE`` names once, in the order of its first
    row; return the values by quantity and the wall seconds by stage name."""
    values, seconds = {}, {}
    for stage in dict.fromkeys(spec.stage for spec in TABLE):
        start = time.perf_counter()
        values.update(stage(registry, seed))
        seconds[stage.__name__] = time.perf_counter() - start
    return values, seconds


def build_report(
    registry: SpeciesRegistry | None = None, seed: int = REPORT_SEED
) -> list[ReportRow]:
    """Run every stage once and return the filled table.  Raises
    ``ValueError``, naming ``seed``, for a negative seed, before any stage."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    values, _ = run_stages(default_registry() if registry is None else registry, seed)
    return table_rows(values)


def all_pass(rows: list[ReportRow]) -> bool:
    return all(row.status != "fail" for row in rows)
