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
from vacuumpairs.particles import ParticleSpecies, SpeciesRegistry, default_registry
from vacuumpairs.vacuum_response import (
    CutoffPolicy,
    LandauMode,
    NegativeRadicandError,
    OscillatorModel,
    PolicyKind,
    average_pair_volume,
    chiral_cutoff_policy,
    dipole_max,
    dipole_time_averaged,
    fit_cutoff,
    inverse_alpha_single,
    inverse_alpha_single_quadrature,
    inverse_alpha_total,
    landau_energy,
    pair_electric_dipole,
    pair_volume_compton_units,
    permeability_from_alpha,
    relativistic_magnetic_moment,
)

TARGET = CODATA.inverse_alpha_target
REG = default_registry()
ELECTRON = REG.get("e")


def oscillator_matrix_element(mass_energy_mev, omega):
    """Quadrature oracle for q_e <psi_1|x|psi_0> of the harmonic oscillator.

    In z = x*sqrt(m w/hbar) the integrand is sqrt(2/pi) z^2 exp(-z^2); the
    Gaussian tail is negligible beyond |z| = 12.
    """
    m_kg = CODATA.mass_kg(mass_energy_mev)
    scale = math.sqrt(CODATA.hbar_j_s / (m_kg * omega))
    value = numerics.integrate(
        lambda z: math.sqrt(2.0 / math.pi) * z * z * math.exp(-z * z),
        -12.0,
        12.0,
        numerics.QuadratureSpec(rel_tol=1e-12),
    )
    return CODATA.q_e_coulomb * scale * value


def fixed_gap_omega(mass_energy_mev):
    """omega with hbar*omega = 2 m c^2: the inverse half-Compton lifetime."""
    species = dataclasses.replace(ELECTRON, mass_mev=mass_energy_mev)
    return 1.0 / dispersion.lifetime(dispersion.LifetimeModel.half_compton(), species)


class TestDipoleMoments:
    def test_omega_scaling(self):
        omega = fixed_gap_omega(ELECTRON.mass_mev)
        assert abs(
            dipole_max(ELECTRON.mass_mev, 4.0 * omega)
            / (0.5 * dipole_max(ELECTRON.mass_mev, omega))
            - 1.0
        ) < 1e-12

    def test_gaussian_quadrature_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            mass = float(10.0 ** rng.uniform(-0.5, 3.0))
            omega = fixed_gap_omega(mass) * float(rng.uniform(0.2, 5.0))
            oracle = oscillator_matrix_element(mass, omega)
            assert abs(dipole_max(mass, omega) / oracle - 1.0) < 1e-8

    def test_electron_fixed_gap_is_half_compton_length(self):
        # With hbar*w = 2 m c^2 the closed form collapses to q_e*hbar/(2 m c).
        omega = fixed_gap_omega(ELECTRON.mass_mev)
        value = dipole_max(ELECTRON.mass_mev, omega)
        exact = CODATA.q_e_coulomb * CODATA.compton_length_m(ELECTRON.mass_mev) / 2.0
        assert abs(value / exact - 1.0) < 1e-12
        assert abs(value / oscillator_matrix_element(ELECTRON.mass_mev, omega) - 1.0) < 1e-8

    def test_time_averaged_zero_field(self):
        omega = fixed_gap_omega(ELECTRON.mass_mev)
        assert dipole_time_averaged(ELECTRON.mass_mev, omega, 0.0) == 0.0

    def test_time_averaged_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mass = float(10.0 ** rng.uniform(-0.5, 3.0))
            omega = fixed_gap_omega(mass) * float(rng.uniform(0.3, 3.0))
            field = float(10.0 ** rng.uniform(0.0, 6.0))
            via_dmax = 2.0 * dipole_max(mass, omega) ** 2 / (
                CODATA.hbar_j_s * omega
            ) * field
            assert abs(dipole_time_averaged(mass, omega, field) / via_dmax - 1.0) < 1e-12

    def test_half_of_doubled_reference_expression(self):
        # The fixed-gap expressions here carry factors 1/sqrt(2) and 1/2
        # relative to the variant that doubles the dipole response.
        omega = fixed_gap_omega(ELECTRON.mass_mev)
        field = 1e4
        doubled = 2.0 * CODATA.q_e_coulomb**2 / (
            CODATA.mass_kg(ELECTRON.mass_mev) * omega**2
        ) * field
        assert abs(
            dipole_time_averaged(ELECTRON.mass_mev, omega, field) / doubled - 0.5
        ) < 1e-12


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
                numerics.RootSpec(bracket_lo=0.5 * a, bracket_hi=2.0 * a, x_tol=1e-8),
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

        root = numerics.find_root(objective, numerics.RootSpec(1.0, 5000.0, x_tol=1e-4))
        assert fit_cutoff(REG, target).cutoff_mev == root

    @pytest.mark.parametrize("target", [1e-300, 1e-3, 1e6, 1e300])
    def test_default_bracket_widens_to_the_root(self, target):
        policy = fit_cutoff(REG, target)
        total = inverse_alpha_total(REG, policy).total_inverse_alpha
        assert abs(total / target - 1.0) < 1e-10

    def test_target_above_every_finite_cutoff_names_the_range(self):
        with pytest.raises(ValueError, match=r"target_inverse_alpha .* out of reach.*\(0, "):
            fit_cutoff(REG, 1e308)

    def test_target_below_every_normal_cutoff_names_the_range(self):
        # Mass 1e-300 MeV: at the smallest normal cutoff x = A/mc^2 is still
        # ~2e-8, so the total cannot fall below ~1e-24.
        feather = SpeciesRegistry((ParticleSpecies("f", 1e-300, -1.0, 1, 2),))
        with pytest.raises(ValueError, match=r"target_inverse_alpha .* out of reach.*\[.*, inf\)"):
            fit_cutoff(feather, 1e-30)


class TestAveragePairVolume:
    def test_published_scale(self):
        # a ~ 6.476 reproduces the ~0.22 Compton-cubed volume within 1%.
        lam3 = CODATA.compton_length_m(ELECTRON.mass_mev) ** 3
        assert abs(average_pair_volume(ELECTRON, 6.476) / (0.22 * lam3) - 1.0) < 0.01

    def test_fitted_scale(self):
        lam3 = CODATA.compton_length_m(ELECTRON.mass_mev) ** 3
        volume = average_pair_volume(ELECTRON, 6.478444302297101)
        assert abs(volume / lam3 - 0.21779043774550835) < 1e-12

    def test_inverse_cube_scaling(self):
        assert abs(
            average_pair_volume(ELECTRON, 13.0)
            / (average_pair_volume(ELECTRON, 6.5) / 8.0)
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
        lam3 = CODATA.compton_length_m(ELECTRON.mass_mev) ** 3
        assert average_pair_volume(ELECTRON, 6.5) == pair_volume_compton_units(6.5) * lam3

    def test_consistent_with_vacuum_density_integral(self):
        a = 6.478444302297101
        p_max = a * ELECTRON.mass_mev * CODATA.mev_to_j / CODATA.c_m_per_s
        density = numerics.integrate(
            statmech.mode_density, 0.0, p_max, numerics.QuadratureSpec(rel_tol=1e-12)
        )
        assert abs(average_pair_volume(ELECTRON, a) * density - 1.0) < 1e-10


class TestPermeability:
    def test_epsilon0(self):
        response = permeability_from_alpha(137.035999)
        assert abs(response.epsilon0_f_per_m / 8.8541878128e-12 - 1.0) < 1e-4
        assert response.light_speed_defined

    def test_product_consistency(self):
        response = permeability_from_alpha(123.0)
        product = response.epsilon0_f_per_m * response.mu0_h_per_m * CODATA.c_m_per_s**2
        assert abs(product - 1.0) < 1e-12

    def test_bare_vacuum(self):
        response = permeability_from_alpha(0.0)
        assert response.epsilon0_f_per_m == 0.0
        assert response.inv_mu0_m_per_henry == 0.0
        assert not response.light_speed_defined
        assert response.mu0_h_per_m is None


class TestMagneticMoment:
    def test_bohr_magneton(self):
        value = relativistic_magnetic_moment(ELECTRON.mass_mev)
        assert abs(value / 9.2740100783e-24 - 1.0) < 1e-4

    def test_inverse_energy_scaling(self):
        assert abs(
            relativistic_magnetic_moment(2.0 * ELECTRON.mass_mev)
            / (0.5 * relativistic_magnetic_moment(ELECTRON.mass_mev))
            - 1.0
        ) < 1e-12

    def test_dipole_relation_beta_equals_half_d_c(self):
        # beta = (d/2) c with d = q_e * hbar c / eps_f holds algebraically.
        for energy in (0.511, 1.0, 939.0, 1e5):
            beta = relativistic_magnetic_moment(energy)
            d = pair_electric_dipole(energy)
            assert abs(beta / (0.5 * d * CODATA.c_m_per_s) - 1.0) < 1e-12

    def test_pair_separation_is_compton_length_at_rest(self):
        assert pair_electric_dipole(ELECTRON.mass_mev) == (
            CODATA.q_e_coulomb * CODATA.compton_length_m(ELECTRON.mass_mev)
        )


class TestLandauLevels:
    M = ELECTRON.mass_mev

    def test_field_off_reduces_to_dispersion(self):
        value = landau_energy(self.M, 0.3, 0.0, 2)
        assert abs(value / statmech.dispersion_energy(self.M, 0.3) - 1.0) < 1e-12

    def test_first_order_matches_relativistic_at_common_fields(self):
        for spin in (0.5, -0.5):
            rel = landau_energy(self.M, 0.0, 1.0, 0, 2.0, spin, LandauMode.RELATIVISTIC)
            first = landau_energy(self.M, 0.0, 1.0, 0, 2.0, spin, LandauMode.FIRST_ORDER)
            assert abs(rel / first - 1.0) < 1e-9

    def test_non_relativistic_matches_expanded_relativistic(self):
        p_z = 1e-3 * self.M
        rel = landau_energy(self.M, p_z, 1.0, 0, 2.0, -0.5, LandauMode.RELATIVISTIC)
        nr = landau_energy(self.M, p_z, 1.0, 0, 2.0, -0.5, LandauMode.NON_RELATIVISTIC)
        assert abs((rel - self.M) / nr - 1.0) < 1e-6

    def test_magnetic_term_scale(self):
        # Level shift for (n=0, s=-1/2, g=2) is 2 * beta_B * B.
        b = 1.0
        shift = (
            landau_energy(self.M, 0.0, b, 0, 2.0, -0.5, LandauMode.NON_RELATIVISTIC)
            * CODATA.mev_to_j
        )
        assert abs(shift / (2.0 * 9.2740100783e-24 * b) - 1.0) < 1e-4

    def test_negative_radicand(self):
        with pytest.raises(NegativeRadicandError):
            landau_energy(self.M, 0.0, 1e12, 0, 10.0, 0.5, LandauMode.RELATIVISTIC)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            landau_energy(self.M, 0.0, -1.0, 0)
        with pytest.raises(ValueError):
            landau_energy(self.M, 0.0, 1.0, -1)


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
