import math
import re
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vacuumpairs import numerics, statmech
from vacuumpairs.constants import CODATA
from vacuumpairs.statmech import (
    ModeCountOverflowError,
    ThermalState,
    count_box_modes,
    integrate_thermal_density,
    mean_energy,
    mean_occupation,
    mode_density,
    planck_curve,
    planck_energy_density,
    state_probability,
    stefan_boltzmann_density,
    wien_peak_x,
)


def state_with_x(x, omega=1e14):
    """Thermal state for which hbar*omega/(kT) equals x at the given omega."""
    t_k = CODATA.hbar_j_s * omega / (CODATA.k_boltzmann_j_per_k * x)
    return ThermalState(t_k)


class TestBoxModes:
    LENGTH = 1e-10  # metres; lattice step hc/(2L) ~ 6.2 keV

    def energy_for_radius(self, radius):
        return radius * CODATA.h_c_mev_m / (2.0 * self.LENGTH)

    def test_lowest_modes_are_the_three_axis_triples(self):
        # The (1,0,0)-type triples sit at the single-step energy; the next
        # shell (1,1,0) is sqrt(2) higher.
        energy = 1.2 * self.energy_for_radius(1.0)
        box = (self.LENGTH, self.LENGTH, self.LENGTH)
        assert count_box_modes(box, energy) == 3

    def test_second_shell(self):
        energy = 1.5 * self.energy_for_radius(1.0)  # includes (1,1,0) triples
        box = (self.LENGTH, self.LENGTH, self.LENGTH)
        assert count_box_modes(box, energy) == 6

    def test_continuum_limit(self):
        box = (self.LENGTH, self.LENGTH, self.LENGTH)
        energy = self.energy_for_radius(80.0)
        count = count_box_modes(box, energy)
        pc = energy * CODATA.mev_to_j / CODATA.c_m_per_s
        continuum = 4.0 * math.pi * pc**3 * self.LENGTH**3 / (3.0 * CODATA.h_j_s**3)
        assert count > 1e5
        # Boundary layer scales as 9/(4R): ~2.8% at R=80.
        assert abs(count / continuum - 1.0) < 0.04

    def test_periodic_variant_matches_octant(self):
        # Periodic boundaries, p_i = h*l_i/L_i over signed triples, halve the
        # radii at a given energy and count about as many modes.
        box = (self.LENGTH, self.LENGTH, self.LENGTH)
        energy = self.energy_for_radius(60.0)
        octant = count_box_modes(box, energy)
        radii = statmech._lattice_radii(box, energy, 0.0)
        periodic = row_loop_signed(tuple(r / 2.0 for r in radii)) - 1
        assert abs(periodic / octant - 1.0) < 0.08

    def test_monotone_in_energy_and_length(self):
        box = (self.LENGTH, self.LENGTH, self.LENGTH)
        energies = [self.energy_for_radius(r) for r in (5.0, 10.0, 20.0)]
        counts = [count_box_modes(box, e) for e in energies]
        assert counts == sorted(counts)
        grown = (1.5 * self.LENGTH, self.LENGTH, self.LENGTH)
        assert count_box_modes(grown, energies[1]) >= counts[1]

    def test_massive_dispersion_shrinks_count(self):
        box = (self.LENGTH, self.LENGTH, self.LENGTH)
        energy = self.energy_for_radius(20.0)
        assert count_box_modes(box, energy, 0.5 * energy) < count_box_modes(box, energy)

    def test_massive_count_is_the_massless_count_at_the_same_momentum(self):
        # E^2 = (mc^2)^2 + (pc)^2 on Pythagorean triples, whose pc is exact:
        # a massive species counts the modes of a massless one at pc.
        box = (0.61 * CODATA.h_c_mev_m,) * 3  # lattice radius 1.22 per MeV of pc
        for energy, mass, pc in ((5.0, 3.0, 4.0), (13.0, 5.0, 12.0), (17.0, 8.0, 15.0)):
            assert count_box_modes(box, energy, mass) == count_box_modes(box, pc)

    def test_energy_below_mass_rejected(self):
        with pytest.raises(ValueError):
            count_box_modes((1.0, 1.0, 1.0), 1.0, 2.0)

    @pytest.mark.parametrize("args, name", [
        (((math.nan, 1.0, 1.0), 1.0), "box_lengths_m"),
        (((1.0, 0.0, 1.0), 1.0), "box_lengths_m"),
        (((1.0, 1.0, 1.0), math.nan), "energy_max_mev"),
        (((1.0, 1.0, 1.0), 1.0, math.nan), "mass_energy_mev"),
        (((1.0, 1.0, 1.0), 1.0, -1.0), "mass_energy_mev"),
        (((1.0, 1.0, 1.0), math.inf, math.inf), "mass_energy_mev"),
    ], ids=["nan-length", "zero-length", "nan-energy", "nan-mass", "negative-mass",
            "infinite-mass"])
    def test_bad_input_is_named(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            count_box_modes(*args)

    @pytest.mark.parametrize("args", [((math.inf, 1.0, 1.0), 1.0), ((1.0, 1.0, 1.0), math.inf)],
                             ids=["infinite-length", "infinite-energy"])
    def test_infinite_box_or_energy_overflows(self, args):
        with pytest.raises(ModeCountOverflowError):
            count_box_modes(*args)

    def test_energy_at_the_mass_has_no_modes(self):
        # Every lattice radius is 0: only the excluded origin is left.
        box = (self.LENGTH, self.LENGTH, self.LENGTH)
        assert count_box_modes(box, 0.5, 0.5) == 0

    def test_underflowing_radius_leaves_the_zero_plane(self):
        # r_x underflows to 0 for the least positive side; only l_x = 0 fits,
        # as for a 1e-300 m side (r_x ~ 1e-289), and the count is the plane's.
        energy = self.energy_for_radius(16.5)

        disk = sum(1 for ly in range(17) for lz in range(17) if ly * ly + lz * lz <= 16.5**2)
        for side in (5e-324, 1e-300):
            box = (side, self.LENGTH, self.LENGTH)
            assert count_box_modes(box, energy) == disk - 1

    def test_overflow_guard(self, monkeypatch):
        monkeypatch.setattr(statmech, "_MAX_COUNT", 1000)
        box = (self.LENGTH, self.LENGTH, self.LENGTH)
        with pytest.raises(ModeCountOverflowError):
            count_box_modes(box, self.energy_for_radius(100.0))

    @pytest.mark.parametrize("box", [
        # plates: one side far below a lattice step, so pi/6*r_x*r_y*r_z ~ 0
        (1e-300, 1e-8, 1e-8),
        (1e-300, 1e-3, 1e-3),
        (1e-3, 1e-3, 1e-300),
        # a rod: ~1.6e9 axis modes on one side alone
        (1e-3, 1e-300, 1e-300),
    ])
    def test_flat_and_rod_boxes_overflow_fast(self, box):
        start = time.perf_counter()
        with pytest.raises(ModeCountOverflowError):
            count_box_modes(box, 1.0)
        assert time.perf_counter() - start < 1.0


def row_loop_octant(radii):
    """The per-row octant count the blocked lattice sum replaced."""
    rx, ry, rz = radii
    count = 0
    for lx in range(int(rx) + 1):
        rem = 1.0 - (lx / rx) ** 2
        if rem < 0:
            break
        ly = np.arange(0, int(ry * math.sqrt(rem)) + 1)
        rem2 = rem - (ly / ry) ** 2
        rem2[rem2 < 0] = 0.0
        count += int(np.sum(np.floor(rz * np.sqrt(rem2))) + ly.size)
    return count


def row_loop_signed(radii):
    """Signed lattice points inside the ellipsoid, the origin included: the
    mode count under periodic boundaries."""
    rx, ry, rz = radii
    count = 0
    for lx in range(-int(rx), int(rx) + 1):
        rem = 1.0 - (lx / rx) ** 2
        if rem < 0:
            continue
        ly = np.arange(-int(ry * math.sqrt(rem)), int(ry * math.sqrt(rem)) + 1)
        rem2 = rem - (ly / ry) ** 2
        rem2[rem2 < 0] = 0.0
        count += int(np.sum(2.0 * np.floor(rz * np.sqrt(rem2))) + ly.size)
    return count


# A lattice radius anywhere in (0.05, 40], or within 1e-9 of an integer,
# where floor and int() decide whole rows and columns.
RADIUS = st.one_of(
    st.floats(0.05, 40.0),
    st.integers(1, 40).flatmap(lambda n: st.floats(n - 1e-9, n + 1e-9)),
)

#: A ``max_count`` no lattice sum in these tests reaches.
NO_LIMIT = 10**12


class TestLatticeSum:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(radii=st.tuples(RADIUS, RADIUS, RADIUS))
    # Row l_x = 48 of r_x = 108.5: Python's (l_x/r_x)**2 and numpy's x*x
    # differ in the last bit, which decides F(48, 0): 1 with the row loop's
    # power, 0 with x*x.
    @example(radii=(108.5, 0.5, 1.115051381008146))
    def test_blocked_sum_equals_the_row_loop(self, radii):
        assert statmech._lattice_sum(radii, NO_LIMIT) == row_loop_octant(radii)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(radii=st.tuples(RADIUS, RADIUS, RADIUS))
    def test_guard_raises_exactly_past_max_count(self, radii):
        count = row_loop_octant(radii)
        for max_count in (count - 1, count, count + 1):
            if count > max_count:
                with pytest.raises(ModeCountOverflowError):
                    statmech._lattice_sum(radii, max_count)
            else:
                assert statmech._lattice_sum(radii, max_count) == count

    def test_blocks_span_rows_and_columns(self):
        # Radii past the block size in each direction, so rows and columns
        # are both split into several blocks.
        for radii in ((300.5, 75.25, 20.0), (2.5, 40000.5, 3.0), (40000.5, 2.5, 3.0)):
            assert statmech._lattice_sum(radii, NO_LIMIT) == row_loop_octant(radii)

    @pytest.mark.parametrize("rx", [1_000_000.5, 1_234_567.891, 4.9e7])
    def test_float_power_squares_as_python_does(self, rx):
        # The lattice sum forms rem = 1 - (l_x/r_x)^2 with np.float_power,
        # and must match the row loop's Python x**2 bit for bit.
        rows = np.arange(1_000_001)
        rem = 1.0 - np.float_power(rows / rx, 2.0)
        assert rem.tolist() == [1.0 - (i / rx) ** 2 for i in range(rows.size)]

    def test_degenerate_box_stays_within_the_block_bound(self):
        # One 1e7-column row; the row loop allocated all of it at once.
        tracemalloc.start()
        try:
            count = statmech._lattice_sum((1.0, 1e7, 0.5), NO_LIMIT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Rows l_x = 0 (l_y = 0..1e7) and l_x = 1 (l_y = 0), each one layer.
        assert count == 10_000_002
        assert peak < 16 * 8 * statmech._BLOCK


class TestModeDensity:
    def test_zero_at_origin(self):
        assert mode_density(0.0) == 0.0

    def test_cumulative_closed_form(self):
        from vacuumpairs.numerics import integrate

        p_max = 1e-27
        value = integrate(mode_density, 0.0, p_max)
        exact = 4.0 * math.pi * p_max**3 / (3.0 * CODATA.h_j_s**3)
        assert abs(value / exact - 1.0) < 1e-10

    def test_vacuum_density_identical(self):
        # mode_density is also the vacuum density; 4 pi p^2/h^3 to 40 digits.
        mp = mpmath.MPContext()
        mp.dps = 40
        h = mp.mpf(CODATA.h_j_s)
        for p in (1e-150, 1e-30, 3.3e-22, 1.7e-5, 2.5, 1e90):
            exact = 4 * mp.pi * mp.mpf(p) ** 2 / h**3
            assert abs(mode_density(p) / exact - 1) < 1e-15, p

class TestPartitionFunction:
    """The single-mode partition function Z = sum_n e^(-(n + 1/2) x) is the
    normaliser of ``state_probability``: p(0) = e^(-x/2) / Z."""

    def series_z(self, x):
        total, n = 0.0, 0
        while True:
            term = math.exp(-(n + 0.5) * x)
            total += term
            if term < 1e-20 * total:
                return total
            n += 1

    def z_from_ground_state(self, x, omega=1e14):
        return math.exp(-0.5 * x) / state_probability(omega, 0, state_with_x(x, omega))

    def test_unit_ratio_value(self):
        # Frozen series oracle at x=1: 0.9595173756674712.
        assert abs(self.z_from_ground_state(1.0) - 0.9595173756674712) < 1e-12

    def test_matches_series_oracle(self):
        for x in (0.1, 0.5, 2.0, 10.0):
            assert abs(self.z_from_ground_state(x) / self.series_z(x) - 1.0) < 1e-12

    def test_ground_state_dominates_cold_limit(self):
        x = 60.0
        assert abs(self.z_from_ground_state(x) / math.exp(-0.5 * x) - 1.0) < 1e-12


class TestStateProbability:
    def test_half_at_log2(self):
        omega = 1e14
        p0 = state_probability(omega, 0, state_with_x(math.log(2.0), omega))
        assert abs(p0 - 0.5) < 1e-14

    def test_normalisation(self):
        omega = 1e14
        for x in (0.05, 0.7, 3.0):
            state = state_with_x(x, omega)
            total = math.fsum(state_probability(omega, n, state) for n in range(2000))
            assert abs(total - 1.0) < 1e-12

    def test_zero_point_offset_cancels(self):
        # Boltzmann weights of the levels hbar*omega*(n + 1/2), offset
        # included, over their summed series match the cancelled closed form.
        omega = 1e14
        state = state_with_x(0.8, omega)

        def weight(n):
            return math.exp(-CODATA.hbar_j_s * omega * (n + 0.5) * state.beta_per_j)

        z = math.fsum(weight(n) for n in range(200))
        for n in (0, 1, 5):
            assert abs(weight(n) / z / state_probability(omega, n, state) - 1.0) < 1e-12

    def test_mean_level_is_mean_occupation(self):
        omega = 1e14
        for x in (0.05, 0.7, 3.0):
            state = state_with_x(x, omega)
            mean = math.fsum(n * state_probability(omega, n, state) for n in range(2000))
            assert abs(mean / mean_occupation(omega, state) - 1.0) < 1e-12

    def test_mean_level_energy_is_mean_energy(self):
        # Levels hbar*omega*(n + 1/2), zero point included, averaged over p(n).
        omega = 2.3e15
        for x in (0.05, 0.7, 3.0):
            state = state_with_x(x, omega)
            mean = math.fsum(
                CODATA.hbar_j_s * omega * (n + 0.5) * state_probability(omega, n, state)
                for n in range(2000)
            )
            assert abs(mean / mean_energy(omega, state) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "n, message",
        [
            (0.5, "n must be an integer, not 0.5"),
            (2.0, "n must be an integer, not 2.0"),
            (math.nan, "n must be an integer, not nan"),
            (-1, "n must be >= 0"),
        ],
        ids=["half", "integral-float", "nan", "negative"],
    )
    def test_level_must_be_a_non_negative_integer(self, n, message):
        with pytest.raises(ValueError) as refused:
            state_probability(1e13, n, ThermalState(300.0))
        assert str(refused.value) == message

    @pytest.mark.parametrize("n", [10**308, 10**400, 2**1030], ids=["1e308", "1e400", "2^1030"])
    def test_huge_levels_match_mpmath(self, n):
        # x ~ 0.25 at 300 K, and a subnormal x ~ 2**-1030 for which n*x is
        # small at n = 10**308 and ~1 at n = 2**1030, so p(n) is not 0 there.
        hot = ThermalState(1e26)
        subnormal = (2.0**-1030 / (CODATA.hbar_j_s * hot.beta_per_j), hot)
        assert 0 < hot.hw_over_kt(subnormal[0]) < sys.float_info.min
        mp = mpmath.MPContext()
        mp.dps = 50
        for omega, state in [(1e13, ThermalState(300.0)), subnormal]:
            x = mp.mpf(state.hw_over_kt(omega))
            want = float(mp.exp(-n * x) * -mp.expm1(-x))
            got = state_probability(omega, n, state)
            assert abs(got - want) <= (math.ulp(want) if want else 0.0), (omega, got, want)
        assert (want > 0) == (n != 10**400)

    @pytest.mark.parametrize(
        "n, want", [(0, 1.0), (1, 0.0), (10**400, 0.0)], ids=["ground", "first", "1e400"]
    )
    def test_infinite_mode_energy_leaves_only_the_ground_level(self, n, want):
        # hbar*omega/kT overflows to inf; -n * x was 0 * inf, NaN, at n = 0.
        state = ThermalState(1e-20)
        assert state.hw_over_kt(1e308) == math.inf
        assert state_probability(1e308, n, state) == want


class TestMeanEnergyAndOccupation:
    def test_cold_limit_keeps_zero_point(self):
        omega = 1e14
        state = state_with_x(80.0, omega)
        assert abs(mean_energy(omega, state) / (0.5 * CODATA.hbar_j_s * omega) - 1.0) < 1e-12

    def test_unit_ratio_substitution(self):
        omega = 1e14
        state = state_with_x(1.0, omega)
        exact = CODATA.hbar_j_s * omega * (0.5 + 1.0 / (math.e - 1.0))
        assert abs(mean_energy(omega, state) / exact - 1.0) < 1e-12

    def test_occupation_unity_at_log2(self):
        omega = 1e14
        assert abs(mean_occupation(omega, state_with_x(math.log(2.0), omega)) - 1.0) < 1e-12

    def test_wien_and_rayleigh_jeans_limits(self):
        omega = 1e14
        assert abs(
            mean_occupation(omega, state_with_x(40.0, omega)) / math.exp(-40.0) - 1.0
        ) < 1e-10
        x = 1e-4
        assert abs(mean_occupation(omega, state_with_x(x, omega)) * x - 1.0) < 1e-3

    def test_log_partition_derivative(self):
        omega = 3.1e14
        state = state_with_x(1.7, omega)
        beta = state.beta_per_j

        def log_z(b):
            y = CODATA.hbar_j_s * omega * b
            return -0.5 * y - math.log(-math.expm1(-y))

        d_beta = 1e-6 * beta
        fd = -(log_z(beta + d_beta) - log_z(beta - d_beta)) / (2.0 * d_beta)
        assert abs(fd / mean_energy(omega, state) - 1.0) < 1e-6

    def test_energy_occupation_identity(self):
        omega = 5e13
        for x in (0.3, 1.0, 7.0):
            state = state_with_x(x, omega)
            lhs = mean_energy(omega, state) - 0.5 * CODATA.hbar_j_s * omega
            rhs = CODATA.hbar_j_s * omega * mean_occupation(omega, state)
            assert abs(lhs / rhs - 1.0) < 1e-12


class TestPlanckLaw:
    def test_factorises_into_density_energy_occupation(self):
        state = ThermalState(500.0)
        for p in (1e-30, 5e-29, 2e-28):
            w = planck_energy_density(p, state, include_zero_point=False)
            eps = p * CODATA.c_m_per_s
            occ = w / (2.0 * mode_density(p) * eps)
            direct = 1.0 / math.expm1(eps * state.beta_per_j)
            assert abs(occ / direct - 1.0) < 1e-12

    def test_stefan_boltzmann(self):
        state = ThermalState(300.0)
        quad = integrate_thermal_density(state)
        assert abs(quad / stefan_boltzmann_density(state) - 1.0) < 1e-6

    @pytest.mark.parametrize("temperature_k, end", [
        (1e-280, "underflows"), (1e81, "overflows"), (1e100, "overflows"),
        (1e150, "overflows"), (1e200, "overflows"), (1e300, "overflows"),
    ])
    def test_density_out_of_range_is_refused_by_both_forms(self, temperature_k, end):
        # One rule: the closed form and the quadrature refuse the same
        # temperatures, with the same error, where the density is not a
        # positive normal float.
        state = ThermalState(temperature_k)
        message = (
            f"^temperature_k = {re.escape(str(temperature_k))} gives a Stefan-Boltzmann density .* "
            f"that {end} double precision$"
        )
        with pytest.raises(ValueError, match=message):
            stefan_boltzmann_density(state)
        with pytest.raises(ValueError, match=message):
            integrate_thermal_density(state)

    def test_thermal_integral_integrates_the_planck_law(self):
        # The quadrature's integrand is planck_energy_density, bit for bit.
        state = ThermalState(300.0)
        p_scale = CODATA.k_boltzmann_j_per_k * state.temperature_k / CODATA.c_m_per_s
        direct = p_scale * numerics.integrate_half_line(
            lambda x: planck_energy_density(x * p_scale, state, include_zero_point=False),
            0.0,
            numerics.QuadratureSpec(rel_tol=1e-9),
        )
        assert integrate_thermal_density(state) == direct

    def test_zero_point_part_survives_cold_limit(self):
        cold = ThermalState(1e-6)
        p = 1e-28
        w = planck_energy_density(p, cold, include_zero_point=True)
        zpf = 2.0 * mode_density(p) * (p * CODATA.c_m_per_s) * 0.5
        assert w == zpf  # thermal occupation underflows to exactly zero

    def test_zero_point_curve_is_cubic(self):
        cold = ThermalState(1e-6)
        p = 1e-28
        w1 = planck_energy_density(p, cold, include_zero_point=True)
        w2 = planck_energy_density(2.0 * p, cold, include_zero_point=True)
        assert abs(w2 / w1 - 8.0) < 1e-12

    def test_wien_peak_against_golden_section_oracle(self):
        # Independent oracle: golden-section maximization of the thermal curve.
        state = ThermalState(300.0)
        kt = CODATA.k_boltzmann_j_per_k * state.temperature_k
        p_scale = kt / CODATA.c_m_per_s

        def value(x):
            return planck_energy_density(x * p_scale, state, include_zero_point=False)

        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = 1.0, 5.0
        c, d = b - phi * (b - a), a + phi * (b - a)
        while b - a > 1e-10:
            if value(c) > value(d):
                b, d = d, c
                c = b - phi * (b - a)
            else:
                a, c = c, d
                d = a + phi * (b - a)
        peak = 0.5 * (a + b)
        assert abs(peak - 2.8214393837121063) < 1e-6
        assert abs(wien_peak_x() - peak) < 1e-6

    def test_curve_sampling(self):
        state = ThermalState(2.725)
        curve = planck_curve(state, x_max=10.0, n_points=50, include_zero_point=False)
        assert len(curve) == 50
        assert all(type(pair) is tuple and len(pair) == 2 for pair in curve)
        assert curve[0] == (0.0, 0.0)
        assert all(p > 0.0 and w >= 0.0 for p, w in curve[1:])

    @pytest.mark.parametrize("include_zero_point", [True, False])
    @pytest.mark.parametrize("x_max, n_points", [(15.0, 200), (13.7, 1001), (40.0, 3)])
    def test_curve_pairs_bit_for_bit(self, x_max, n_points, include_zero_point):
        # At 300 K the momentum scale kT/c is not 1.0, so a momentum formed
        # as i * (step * p_scale) instead of (i * step) * p_scale shows here.
        state = ThermalState(300.0)
        p_scale = CODATA.k_boltzmann_j_per_k * 300.0 / CODATA.c_m_per_s
        assert p_scale != 1.0
        curve = planck_curve(
            state, x_max=x_max, n_points=n_points, include_zero_point=include_zero_point
        )
        momenta = [x * p_scale for x in np.linspace(0.0, x_max, n_points).tolist()]
        assert [p for p, _ in curve] == momenta
        assert [w for _, w in curve] == [
            planck_energy_density(p, state, include_zero_point) for p in momenta
        ]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        temperature_k=st.floats(min_value=1e-250, max_value=1e90),
        x_max=st.floats(min_value=1e-300, max_value=1e3),
        include_zero_point=st.booleans(),
    )
    def test_sample_validation(self, temperature_k, x_max, include_zero_point):
        curve = planck_curve(
            ThermalState(temperature_k), x_max=x_max, n_points=20,
            include_zero_point=include_zero_point,
        )
        assert all(math.isfinite(w) and w >= 0.0 for _, w in curve)
        assert all(math.isfinite(p) and p >= 0.0 for p, _ in curve)

    @pytest.mark.parametrize("temperature_k, x_max", [
        # every factor is finite but the density overflows to inf
        (1e100, 15.0),
        # the squared momentum in the mode density overflows
        (1e300, 15.0),
        # the occupation 1/x overflows at grid points below ~1e-308
        (1e31, 1e-320),
    ])
    @pytest.mark.parametrize("include_zero_point", [True, False])
    def test_non_finite_curve_is_refused(self, temperature_k, x_max, include_zero_point):
        with pytest.raises(ValueError, match="temperature_k .* x_max"):
            planck_curve(
                ThermalState(temperature_k), x_max=x_max, include_zero_point=include_zero_point
            )


# At T = c/k the momentum scale kT/c is exactly 1.0, so the abscissas of a
# curve are its grid of x = pc/(kT) itself.
UNIT_SCALE = ThermalState(CODATA.c_m_per_s / CODATA.k_boltzmann_j_per_k)


def curve_grid(x_max, n_points):
    assert CODATA.k_boltzmann_j_per_k * UNIT_SCALE.temperature_k / CODATA.c_m_per_s == 1.0
    return [p for p, _ in planck_curve(UNIT_SCALE, x_max=x_max, n_points=n_points)]


class TestPlanckGrid:
    @pytest.mark.parametrize("n_points", [2, 3, 200, 1001])
    @pytest.mark.parametrize("x_max", [15.0, 13.7, 0.1, 1e20, 1e-300])
    def test_grid_is_linspace_bit_for_bit(self, x_max, n_points):
        assert curve_grid(x_max, n_points) == np.linspace(0.0, x_max, n_points).tolist()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        x_max=st.floats(min_value=1e-300, max_value=1e30),
        n_points=st.integers(min_value=2, max_value=1001),
    )
    def test_grid_is_linspace_everywhere(self, x_max, n_points):
        assert curve_grid(x_max, n_points) == np.linspace(0.0, x_max, n_points).tolist()


class TestThermalState:
    def test_beta_consistency(self):
        state = ThermalState(300.0)
        assert abs(state.beta_per_j * CODATA.k_boltzmann_j_per_k * 300.0 - 1.0) < 1e-12

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            ThermalState(0.0)

    def test_inconsistent_beta(self):
        # beta is derived from the temperature, never given.
        with pytest.raises(TypeError):
            ThermalState(300.0, beta_per_j=1.0)
