import dataclasses
import json
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuumpairs import dispersion, numerics, statmech
from vacuumpairs.constants import CODATA
from vacuumpairs.errors import Failure
from vacuumpairs.particles import ParticleSpecies, SpeciesRegistry, default_registry
from vacuumpairs.vacuum_response import (
    CutoffPolicy,
    OscillatorModel,
    PolicyKind,
    chiral_cutoff_policy,
    fit_cutoff,
    inverse_alpha_single,
    inverse_alpha_single_quadrature,
    inverse_alpha_total,
    pair_volume_compton_units,
)

TARGET = CODATA.inverse_alpha_target
REG = default_registry()
ELECTRON = REG.get("e")
#: Cutoffs of the two fits: the global one (mode quantum) and the
#: mass-proportional scale a (fixed gap).
FITTED_CUTOFF = {
    OscillatorModel.MODE_QUANTUM: lambda species: 292.0,
    OscillatorModel.FIXED_GAP: lambda species: 6.478444302297101 * species.mass_mev,
}


def si_inverse_alpha(species, cutoff_mev, oscillator):
    """One species' 1/alpha = 4 pi eps hbar c / q_e^2 built in SI units.

    eps sums, over the vacuum density ``mode_density`` up to the cutoff
    momentum, the ground-state polarisability 2 |<1|q x|0>|^2 / (hbar w) of
    a pair oscillator of the species' mass, with |<1|x|0>|^2 = hbar/(2 m w)
    and gap hbar w = 2 sqrt((mc^2)^2 + (pc)^2) (mode quantum) or 2 mc^2
    (fixed gap), times the colour and spin factors c g/2.
    """
    c, hbar = CODATA.c_m_per_s, CODATA.hbar_j_s
    rest_j = species.mass_mev * CODATA.mev_to_j
    m_kg = rest_j / c**2
    q = float(species.charge_q) * CODATA.q_e_coulomb

    def polarisability(p):
        if oscillator is OscillatorModel.MODE_QUANTUM:
            omega = 2.0 * math.hypot(rest_j, p * c) / hbar
        else:
            omega = 2.0 * rest_j / hbar
        x01_squared = hbar / (2.0 * m_kg * omega)
        return 2.0 * q * q * x01_squared / (hbar * omega)

    p_max = cutoff_mev * CODATA.mev_to_j / c
    eps = numerics.integrate(
        lambda p: statmech.mode_density(p) * polarisability(p),
        0.0,
        p_max,
        numerics.QuadratureSpec(rel_tol=1e-12),
    )
    eps *= species.color_factor * species.spin_degeneracy / 2.0
    return 4.0 * math.pi * eps * hbar * c / CODATA.q_e_coulomb**2


class TestInverseAlphaSingle:
    def test_electron_at_861(self):
        value = inverse_alpha_single(ELECTRON, 861.0 * ELECTRON.mass_mev)
        assert abs(value - 136.78259085098546) < 1e-9
        assert abs(value - 136.8) < 0.1

    def test_small_cutoff_series_limit(self):
        cutoff = 1e-4 * ELECTRON.mass_mev
        x = cutoff / ELECTRON.mass_mev
        series = (x**3 / 3.0 - x**5 / 5.0) / (2.0 * math.pi)
        assert abs(inverse_alpha_single(ELECTRON, cutoff) / series - 1.0) < 1e-6

    def test_closed_form_matches_mpmath(self):
        # x - atan(x) cancels for small x; the closed form must hold full
        # double precision over the whole cutoff range, x = 1e-12 .. 1e6.
        mp = mpmath.MPContext()
        mp.dps = 40
        for ratio in np.logspace(-12.0, 6.0, 1801):
            cutoff = float(ratio) * ELECTRON.mass_mev
            x = mp.mpf(cutoff) / mp.mpf(ELECTRON.mass_mev)
            exact = (x - mp.atan(x)) / (2 * mp.pi)
            value = inverse_alpha_single(ELECTRON, cutoff)
            assert abs(value / exact - 1) < 1e-13, float(x)

    @pytest.mark.parametrize("species", list(REG), ids=REG.names)
    @pytest.mark.parametrize(
        "oscillator", list(OscillatorModel), ids=[o.value for o in OscillatorModel]
    )
    def test_closed_form_is_the_si_polarisability_sum(self, oscillator, species):
        # The MeV closed form against the pair-oscillator physics in SI units,
        # at the fitted cutoffs, which put the heavy species on the series
        # branch of x - atan(x).
        cutoff = FITTED_CUTOFF[oscillator](species)
        closed = inverse_alpha_single(species, cutoff, oscillator)
        assert abs(si_inverse_alpha(species, cutoff, oscillator) / closed - 1.0) < 1e-10

    def test_quadrature_cross_check(self):
        closed = inverse_alpha_single(ELECTRON, 292.0)
        quad = inverse_alpha_single_quadrature(ELECTRON, 292.0)
        assert abs(quad / closed - 1.0) < 1e-8

    def test_randomised_quadrature_agreement(self):
        rng = np.random.default_rng(17)
        spec = numerics.QuadratureSpec(rel_tol=1e-12)
        for _ in range(25):
            mass = float(10.0 ** rng.uniform(-1.0, 3.3))
            cutoff = float(10.0 ** rng.uniform(0.0, 3.0))
            probe = type(ELECTRON)("probe", mass, ELECTRON.charge_q, 1, 2)
            closed = inverse_alpha_single(probe, cutoff)
            quad = inverse_alpha_single_quadrature(probe, cutoff, spec=spec)
            assert abs(quad / closed - 1.0) < 1e-8

    def test_quadrature_meets_rel_tol_on_a_dense_grid(self):
        # x = A/mc^2 on a log grid over 0.1 .. 1e4, plus +-0.1% windows
        # around 306.04 * 2^k, where a rule that compares two estimates of
        # one panel was seen to accept a panel whose estimates agree by
        # coincidence (adaptive Simpson: 1e4 x rel_tol at x = 612.088;
        # K15 - G7 alone: 8.5 x rel_tol at x = 684.8966).
        mp = mpmath.MPContext()
        mp.dps = 30
        xs = list(np.logspace(-1.0, 4.0, 241)) + [612.088, 684.8965838077139]
        for k in range(6):
            xs += list(306.04 * 2**k * np.linspace(0.999, 1.001, 41))
        oscillators = {
            OscillatorModel.MODE_QUANTUM: lambda x: x - mp.atan(x),
            OscillatorModel.FIXED_GAP: lambda x: x**3 / 3,
        }
        for species in (ELECTRON, REG.get("mu")):
            for x in xs:
                cutoff = float(x) * species.mass_mev
                x_exact = mp.mpf(cutoff) / mp.mpf(species.mass_mev)
                for oscillator, core in oscillators.items():
                    exact = float(species.charge_weight) * core(x_exact) / (2 * mp.pi)
                    for rel_tol in (1e-6, 1e-8, 1e-10, 1e-12):
                        spec = numerics.QuadratureSpec(rel_tol=rel_tol)
                        got = inverse_alpha_single_quadrature(species, cutoff, oscillator, spec)
                        err = abs(got / exact - 1)
                        assert err <= rel_tol, (species.name, oscillator, float(x), rel_tol, float(err))

    def test_monotone_in_cutoff(self):
        values = [inverse_alpha_single(ELECTRON, a) for a in (10.0, 50.0, 292.0, 900.0)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


class TestInverseAlphaTotal:
    def test_published_global_cutoff_recovers_target(self):
        breakdown = inverse_alpha_total(REG, CutoffPolicy.global_constant(292.0))
        assert abs(breakdown.total_inverse_alpha / TARGET - 1.0) < 0.01

    def test_ranking_electron_then_u(self):
        breakdown = inverse_alpha_total(REG, CutoffPolicy.global_constant(292.0))
        ranked = breakdown.ranked()
        assert ranked[0][0] == "e"
        assert ranked[1][0] == "u"

    def test_electron_mass_cutoff_ratio(self):
        breakdown = inverse_alpha_total(
            REG, CutoffPolicy.global_constant(ELECTRON.mass_mev)
        )
        ratio = breakdown.total_inverse_alpha / TARGET
        # Far below 1%; the recorded value, a few parts in 1e4.
        assert ratio < 0.01
        assert abs(ratio - 2.6896212411826745e-4) < 1e-8

    def test_contributions_sum_to_total(self):
        breakdown = inverse_alpha_total(REG, CutoffPolicy.global_constant(292.0))
        assert breakdown.total_inverse_alpha == math.fsum(
            breakdown.per_species.values()
        )

    def test_mass_proportional_contributions_mass_independent(self):
        breakdown = inverse_alpha_total(REG, CutoffPolicy.mass_proportional(6.478))
        per_weight = {
            name: breakdown.per_species[name] / float(REG.get(name).charge_weight)
            for name in REG.names
        }
        values = list(per_weight.values())
        assert max(values) - min(values) < 1e-15 * values[0]

    def test_chiral_policy_reports_deficit(self):
        policy = chiral_cutoff_policy(REG, 100.0, 292.0)
        breakdown = inverse_alpha_total(REG, policy)
        full = inverse_alpha_total(REG, CutoffPolicy.global_constant(292.0))
        assert breakdown.cutoffs_mev["u"] == 100.0
        assert breakdown.cutoffs_mev["e"] == 292.0
        assert breakdown.total_inverse_alpha < full.total_inverse_alpha

    def test_unscreened_charge_scale_hook(self):
        # A species with a rescaled charge contributes in proportion to Q^2.
        policy = CutoffPolicy.global_constant(292.0)
        base = inverse_alpha_total(REG, policy).per_species
        for charge_q in (Fraction(2, 3), Fraction(-1, 3), Fraction(1)):
            rescaled = dataclasses.replace(ELECTRON, charge_q=charge_q)
            registry = SpeciesRegistry(tuple(rescaled if s is ELECTRON else s for s in REG))
            scaled = inverse_alpha_total(registry, policy).per_species
            ratio = float(charge_q**2 / ELECTRON.charge_q**2)
            assert abs(scaled["e"] / base["e"] / ratio - 1.0) < 1e-15
            assert {k: v for k, v in scaled.items() if k != "e"} == {
                k: v for k, v in base.items() if k != "e"
            }

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(
        cutoff_mev=st.floats(1e-12, 1e6),
        kind=st.sampled_from(PolicyKind),
    )
    def test_contributions_finite_nonnegative_and_summed(self, cutoff_mev, kind):
        # cutoff_mev is the electron's cutoff under each policy.
        policy = {
            PolicyKind.GLOBAL_CONSTANT: CutoffPolicy.global_constant(cutoff_mev),
            PolicyKind.PER_SPECIES: CutoffPolicy.per_species(
                {s.name: cutoff_mev * (i + 1) for i, s in enumerate(REG)}
            ),
            PolicyKind.MASS_PROPORTIONAL: CutoffPolicy.mass_proportional(
                cutoff_mev / ELECTRON.mass_mev
            ),
        }[kind]
        breakdown = inverse_alpha_total(REG, policy)
        values = list(breakdown.per_species.values())
        assert all(math.isfinite(v) and v >= 0 for v in values)
        assert breakdown.total_inverse_alpha == math.fsum(values)

    def test_breakdown_json_round_trip(self):
        breakdown = inverse_alpha_total(REG, CutoffPolicy.global_constant(292.0))
        restored = json.loads(json.dumps(breakdown.to_dict()))
        assert restored["total_inverse_alpha"] == breakdown.total_inverse_alpha
        assert {r["name"]: r["contribution"] for r in restored["species"]} == breakdown.per_species
        assert {r["name"]: r["cutoff_mev"] for r in restored["species"]} == breakdown.cutoffs_mev

    def test_underflowed_total_has_no_shares(self):
        breakdown = inverse_alpha_total(REG, CutoffPolicy.global_constant(1e-300))
        assert breakdown.total_inverse_alpha == 0.0
        with pytest.raises(ValueError, match="cutoff_mev"):
            breakdown.to_dict()


class TestFixedGap:
    def test_closed_form_vs_quadrature(self):
        spec = numerics.QuadratureSpec(rel_tol=1e-13)
        for a in (0.5, 2.0, 6.478444302297101):
            total = math.fsum(
                inverse_alpha_single_quadrature(
                    s, a * s.mass_mev, OscillatorModel.FIXED_GAP, spec
                )
                for s in REG
            )
            fixed_gap = inverse_alpha_total(REG, CutoffPolicy.mass_proportional(a))
            assert abs(total / fixed_gap.total_inverse_alpha - 1.0) < 1e-10

    def test_vanishes_with_cutoff(self):
        policy = CutoffPolicy.mass_proportional(1e-6)
        assert inverse_alpha_total(REG, policy).total_inverse_alpha < 1e-17

    def test_inversion_recovers_target(self):
        # Frozen closed-form inversion oracle: a* = cbrt(6*pi*target/9.5).
        a_star = 6.478444302297101
        policy = CutoffPolicy.mass_proportional(a_star)
        assert abs(inverse_alpha_total(REG, policy).total_inverse_alpha / TARGET - 1.0) < 1e-3


class TestFitCutoff:
    def test_global_fit_round_trip(self):
        policy = fit_cutoff(REG, TARGET)
        assert 290.0 <= policy.cutoff_mev <= 294.0
        total = inverse_alpha_total(REG, policy).total_inverse_alpha
        assert abs(total - TARGET) < 1e-4

    @pytest.mark.parametrize(
        "kind", [PolicyKind.GLOBAL_CONSTANT, PolicyKind.MASS_PROPORTIONAL],
        ids=["global-constant", "mass-proportional"],
    )
    def test_fitted_vacuum_has_the_vacuum_permittivity(self, kind):
        # eps0 = (1/alpha) q_e^2 / (4 pi hbar c); CODATA 2018 gives
        # 8.8541878128e-12 F/m.  The global fit's 1e-4 MeV root tolerance
        # at A ~ 292 MeV moves 1/alpha by up to ~3.4e-7 of itself.
        total = inverse_alpha_total(REG, fit_cutoff(REG, TARGET, kind)).total_inverse_alpha
        eps0 = total * CODATA.q_e_coulomb**2 / (4.0 * math.pi * CODATA.hbar_j_s * CODATA.c_m_per_s)
        assert abs(eps0 / 8.8541878128e-12 - 1.0) < 1e-6

    def test_electron_only_fit(self):
        # Frozen from a 200-step bisection oracle: x* = 862.5922125024447.
        policy = fit_cutoff(REG.subset(["e"]), TARGET, bracket_mev=(10.0, 2000.0))
        assert abs(policy.cutoff_mev / ELECTRON.mass_mev - 862.5922125024447) < 1e-4

    def test_mass_proportional_fit(self):
        policy = fit_cutoff(REG, TARGET, PolicyKind.MASS_PROPORTIONAL)
        assert abs(policy.scale_a - 6.478444302297101) < 1e-8
        # The closed form agrees with a root find on the fixed-gap total.
        for target in (1.0, TARGET, 1e4):
            a = fit_cutoff(REG, target, PolicyKind.MASS_PROPORTIONAL).scale_a
            root = numerics.find_root(
                lambda v: inverse_alpha_total(
                    REG, CutoffPolicy.mass_proportional(v)
                ).total_inverse_alpha
                - target,
                0.5 * a,
                2.0 * a,
                1e-8,
            )
            assert abs(root - a) < 1e-6

    def test_monotone_fit_inverse(self):
        # fit is the exact inverse of evaluation within the root tolerance
        for target in (100.0, 137.035999, 150.0):
            policy = fit_cutoff(REG, target)
            total = inverse_alpha_total(REG, policy).total_inverse_alpha
            assert abs(total - target) < 1e-3

    def test_bad_bracket_raises(self):
        with pytest.raises(numerics.NoSignChangeError):
            fit_cutoff(REG, TARGET, bracket_mev=(1000.0, 2000.0))

    @pytest.mark.parametrize("target", [1.0, 50.0, TARGET, 1500.0])
    def test_default_bracket_fit_is_the_plain_root_find(self, target):
        # A root inside (1, 5000) MeV is found by the plain root find on that
        # bracket, evaluating the same points, so widening never moves it.
        def objective(a_mev):
            policy = CutoffPolicy.global_constant(a_mev)
            return inverse_alpha_total(REG, policy).total_inverse_alpha - target

        root = numerics.find_root(objective, 1.0, 5000.0, 1e-4)
        assert fit_cutoff(REG, target).cutoff_mev == root

    @pytest.mark.parametrize("target", [1e-300, 1e-3, 1e6, 1e300])
    def test_default_bracket_widens_to_the_root(self, target):
        policy = fit_cutoff(REG, target)
        total = inverse_alpha_total(REG, policy).total_inverse_alpha
        assert abs(total / target - 1.0) < 1e-10

    def test_target_above_every_finite_cutoff_names_the_range(self):
        with pytest.raises(ValueError, match=r"target_inverse_alpha .* out of reach.*\(0, "):
            fit_cutoff(REG, 1e308)

    def test_mass_proportional_target_beyond_finite_scales_is_out_of_reach(self):
        # 6 pi * 1e308 overflows, so the scale a would be infinite.
        with pytest.raises(ValueError, match=r"target_inverse_alpha = 1e\+308 is out of reach"):
            fit_cutoff(REG, 1e308, PolicyKind.MASS_PROPORTIONAL)

    def test_target_below_every_normal_cutoff_names_the_range(self):
        # Mass 1e-300 MeV: at the smallest normal cutoff x = A/mc^2 is still
        # ~2e-8, so the total cannot fall below ~1e-24.
        feather = SpeciesRegistry((ParticleSpecies("f", 1e-300, -1.0, 1, 2),))
        with pytest.raises(ValueError, match=r"target_inverse_alpha .* out of reach.*\[.*, inf\)"):
            fit_cutoff(feather, 1e-30)

    def test_per_species_kind_cannot_be_fitted(self):
        with pytest.raises(ValueError, match=r"^cannot fit policy kind per-species$"):
            fit_cutoff(REG, 137.0, "per-species")


class TestAveragePairVolume:
    def test_published_scale(self):
        # a ~ 6.476 reproduces the ~0.22 Compton-cubed volume within 1%.
        assert abs(pair_volume_compton_units(6.476) / 0.22 - 1.0) < 0.01

    def test_fitted_scale(self):
        volume = pair_volume_compton_units(6.478444302297101)
        assert abs(volume - 0.21779043774550835) < 1e-12

    def test_inverse_cube_scaling(self):
        assert abs(
            pair_volume_compton_units(13.0)
            / (pair_volume_compton_units(6.5) / 8.0)
            - 1.0
        ) < 1e-12

    def test_compton_units_against_mpmath(self):
        mp = mpmath.MPContext()
        mp.dps = 40
        rng = np.random.default_rng(17)
        for a in 10.0 ** rng.uniform(-3.0, 3.0, 500):
            exact = 6 * mp.pi**2 / mp.mpf(float(a)) ** 3
            value = pair_volume_compton_units(float(a))
            assert abs(mp.mpf(value) / exact - 1) < 2 * sys.float_info.epsilon, float(a)

    def test_consistent_with_vacuum_density_integral(self):
        # The volume in m^3, times the electron's cubed reduced Compton
        # length hbar/(m c), inverts the vacuum density up to A = a*mc^2.
        a = 6.478444302297101
        p_max = a * ELECTRON.mass_mev * CODATA.mev_to_j / CODATA.c_m_per_s
        density = numerics.integrate(
            statmech.mode_density, 0.0, p_max, numerics.QuadratureSpec(rel_tol=1e-12)
        )
        compton_m = CODATA.hbar_j_s * CODATA.c_m_per_s / (ELECTRON.mass_mev * CODATA.mev_to_j)
        assert abs(pair_volume_compton_units(a) * compton_m**3 * density - 1.0) < 1e-10

    @pytest.mark.parametrize("a, end", [(1e-108, "underflows to 0"), (1e110, "overflows")],
                             ids=["cube-underflows", "cube-overflows"])
    def test_cube_out_of_range_refused_by_name(self, a, end):
        # a^3 is 0.0 or overflows: a ValueError naming scale_a, not a bare
        # ZeroDivisionError or OverflowError.
        with pytest.raises(ValueError) as caught:
            pair_volume_compton_units(a)
        assert str(caught.value) == f"scale_a = {a!r} has a cube that {end}"

    def test_subnormal_cube_gives_inf(self):
        # 1e-321 is a non-zero subnormal: 6 pi^2 / a^3 overflows to inf, which
        # the CLI refuses by its key.
        assert pair_volume_compton_units(1e-107) == math.inf


class TestCutoffPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CutoffPolicy.global_constant(0.0)
        with pytest.raises(ValueError):
            CutoffPolicy.mass_proportional(-1.0)
        with pytest.raises(ValueError):
            CutoffPolicy.per_species({})

    def test_non_finite_cutoffs_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                CutoffPolicy.global_constant(bad)
            with pytest.raises(ValueError):
                CutoffPolicy.per_species({"e": bad})
            with pytest.raises(ValueError):
                inverse_alpha_single(ELECTRON, bad)
            with pytest.raises(ValueError):
                fit_cutoff(REG, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cutoff_refused_where_it_enters(self, bad):
        # Refused as a usage error naming the input, not as a quadrature
        # failure or a cutoff the caller never gave.
        with pytest.raises(ValueError, match="scale_a"):
            CutoffPolicy.mass_proportional(bad)
        with pytest.raises(ValueError, match="scale_a"):
            pair_volume_compton_units(bad)
        for oscillator in OscillatorModel:
            with pytest.raises(ValueError, match="cutoff_mev must be finite") as caught:
                inverse_alpha_single_quadrature(ELECTRON, bad, oscillator)
            assert not isinstance(caught.value, Failure)

    def test_oscillator_follows_kind(self):
        assert CutoffPolicy.mass_proportional(6.5).oscillator is OscillatorModel.FIXED_GAP
        assert CutoffPolicy.global_constant(292.0).oscillator is OscillatorModel.MODE_QUANTUM
        assert CutoffPolicy.per_species({"e": 1.0}).oscillator is OscillatorModel.MODE_QUANTUM

    def test_cutoff_for(self):
        assert CutoffPolicy.global_constant(292.0).cutoff_for(ELECTRON) == 292.0
        assert CutoffPolicy.mass_proportional(2.0).cutoff_for(ELECTRON) == pytest.approx(
            2.0 * ELECTRON.mass_mev
        )
        with pytest.raises(KeyError):
            CutoffPolicy.per_species({"u": 100.0}).cutoff_for(ELECTRON)


THERMAL = statmech.ThermalState(300.0)
HALF_COMPTON = dispersion.LifetimeModel.half_compton()

#: One call per sign-guarded argument, as a function of that argument alone.
SIGN_GUARDS = {
    "pulse_broadening-pulse_rms_s": lambda x: dispersion.pulse_broadening(x, 1e-17, 1.0),
    "pulse_broadening-sigma": lambda x: dispersion.pulse_broadening(1e-15, x, 1.0),
    "pulse_broadening-length_m": lambda x: dispersion.pulse_broadening(1e-15, 1e-17, x),
    "experiment_sensitivity-pulse_rms_s": lambda x: dispersion.experiment_sensitivity(x, 0.01, 1.0),
    "experiment_sensitivity-precision": lambda x: dispersion.experiment_sensitivity(1e-15, x, 1.0),
    "experiment_sensitivity-length_m": lambda x: dispersion.experiment_sensitivity(1e-15, 0.01, x),
    "fwhm_from_rms": dispersion.fwhm_from_rms,
    "rms_from_fwhm": dispersion.rms_from_fwhm,
    "mode_density": statmech.mode_density,
    "planck_energy_density": lambda x: statmech.planck_energy_density(x, THERMAL),
    "state_probability-omega": lambda x: statmech.state_probability(x, 0, THERMAL),
    "mean_occupation": lambda x: statmech.mean_occupation(x, THERMAL),
    "mean_energy": lambda x: statmech.mean_energy(x, THERMAL),
    "ThermalState": statmech.ThermalState,
    "LifetimeModel-k_factor": dispersion.LifetimeModel.k_scaled,
    "LifetimeModel-custom_tau_s": dispersion.LifetimeModel.custom,
    "FlightConfig-length_m": lambda x: dispersion.FlightConfig(x, HALF_COMPTON, 2, 0),
    "QuadratureSpec-rel_tol": lambda x: numerics.QuadratureSpec(rel_tol=x),
    "RootSpec-x_tol": lambda x: numerics.find_root(lambda t: t - 1.0, 0.0, 2.0, x),
    # Each on a table where no species takes that cutoff: only the guard refuses it.
    "chiral_cutoff_policy-quark_cutoff_mev": lambda x: chiral_cutoff_policy(REG.subset(["e"]), x),
    "chiral_cutoff_policy-default_cutoff_mev": lambda x: chiral_cutoff_policy(
        REG.subset(["u"]), 100.0, x
    ),
}


@pytest.mark.parametrize("call", SIGN_GUARDS.values(), ids=SIGN_GUARDS.keys())
def test_nan_fails_the_sign_guard_as_a_negative_value_does(call):
    call(1.0)  # a valid value passes, so the guard is what refuses the others
    with pytest.raises(ValueError) as negative:
        call(-1.0)
    with pytest.raises(type(negative.value)) as nan:
        call(math.nan)
    assert str(nan.value) == str(negative.value)
