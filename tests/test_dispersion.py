import concurrent.futures
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vacuumpairs import dispersion, particles, report
from vacuumpairs.cli import main
from vacuumpairs.constants import CODATA
from vacuumpairs.dispersion import (
    LIMIT_BAND_FS_PER_SQRT_M,
    DegenerateFlightWarning,
    DelayDistribution,
    FlightConfig,
    FlightConfigError,
    InteractionProcess,
    LifetimeKind,
    LifetimeModel,
    SamplingMethod,
    compare_to_limits,
    compound_moments,
    experiment_sensitivity,
    fwhm_from_rms,
    lifetime,
    pulse_broadening,
    rms_from_fwhm,
    sigma_coefficient,
    simulate_flight,
)
from vacuumpairs.particles import default_registry, load_registry


def sd_standard_error(sigma, n):
    return sigma / math.sqrt(2.0 * (n - 1))


class TestLifetimes:
    def test_half_compton(self):
        # hbar/(2 * 0.51099895 MeV), constants arithmetic oracle
        assert abs(lifetime(LifetimeModel.half_compton()) / 6.440443340939415e-22 - 1.0) < 1e-12

    def test_k_scaled_is_half_compton_over_k(self):
        hc = lifetime(LifetimeModel.half_compton())
        assert abs(lifetime(LifetimeModel.k_scaled()) / (hc / 31.9) - 1.0) < 1e-12
        assert abs(lifetime(LifetimeModel.k_scaled(10.0)) / (hc / 10.0) - 1.0) < 1e-12

    def test_quasistationary(self):
        assert abs(
            lifetime(LifetimeModel.quasistationary()) / 6.22470981876725e-11 - 1.0
        ) < 1e-12

    def test_custom(self):
        assert lifetime(LifetimeModel.custom(1.5e-20)) == 1.5e-20

    @pytest.mark.parametrize("kind", LifetimeKind)
    def test_default_species_is_table_electron(self, kind):
        model = LifetimeModel(kind, custom_tau_s=1.5e-20)
        assert lifetime(model) == lifetime(model, default_registry().get("e"))

    def test_species_override(self):
        muon = default_registry().get("mu")
        hc_mu = lifetime(LifetimeModel.half_compton(), muon)
        hc_e = lifetime(LifetimeModel.half_compton())
        assert abs(hc_mu / (hc_e * 0.51099895 / 105.6583755) - 1.0) < 1e-9

    def test_custom_lifetime_reads_no_builtin_table(self, tmp_path):
        # Only a mass-based rule without a species reads the built-in table:
        # the report's Monte Carlo under a species file runs custom lifetimes.
        path = tmp_path / "species.json"
        path.write_bytes((Path(particles.__file__).parent / "data" / "species.json").read_bytes())
        registry = load_registry(path)
        default_registry.cache_clear()
        lifetime(LifetimeModel.custom(1e-20))
        report.monte_carlo(registry, report.REPORT_SEED)
        assert default_registry.cache_info().misses == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LifetimeModel.custom(0.0)
        with pytest.raises(ValueError):
            LifetimeModel.k_scaled(0.0)

    @pytest.mark.parametrize("species", ["e", "mu", "W"])
    def test_each_rule_is_its_closed_form_bit_for_bit(self, species):
        particle = default_registry().get(species)
        gap_j = 2.0 * particle.mass_mev * CODATA.mev_to_j
        assert lifetime(LifetimeModel.half_compton(), particle) == CODATA.hbar_j_s / gap_j
        assert lifetime(LifetimeModel.k_scaled(7.5), particle) == CODATA.hbar_j_s / (7.5 * gap_j)
        assert lifetime(LifetimeModel.quasistationary(), particle) == CODATA.hbar_j_s / (
            CODATA.alpha_target**5 * 0.5 * gap_j
        )

    @pytest.mark.parametrize("model, mass_mev, quantity", [
        # hbar / (K * gap) underflows to 0.0.
        (LifetimeModel.k_scaled(1e308), None, "k_factor = 1e+308"),
        # K * gap underflows to 0.0, so tau would divide by zero.
        (LifetimeModel.k_scaled(1e-320), None, "k_factor = 1e-320"),
        (LifetimeModel.custom(1e-320), None, "custom_tau_s = 1e-320"),
        # tau is normal, but tau/c, the square of the coefficient, is not.
        (LifetimeModel.custom(1e-300), None, "custom_tau_s = 1e-300"),
        (LifetimeModel.half_compton(), 1e300, "mass_mev = 1e+300"),
        (LifetimeModel.quasistationary(), 1e300, "mass_mev = 1e+300"),
        (LifetimeModel.k_scaled(), 1e300, "mass_mev = 1e+300"),
    ], ids=["k-factor-huge", "k-factor-tiny", "custom-subnormal", "custom-tau-over-c",
            "half-compton-heavy", "quasistationary-heavy", "k-scaled-heavy"])
    def test_underflowing_lifetime_names_its_input(self, model, mass_mev, quantity):
        electron = default_registry().get("e")
        species = electron if mass_mev is None else dataclasses.replace(electron, mass_mev=mass_mev)
        for call in (lifetime, sigma_coefficient, compare_to_limits):
            with pytest.raises(ValueError, match=re.escape(quantity)):
                call(model, species)

    def test_lifetime_with_normal_tau_over_c_is_kept(self):
        tau = 1e-299  # tau/c ~ 3.3e-308, just above the least normal float
        assert lifetime(LifetimeModel.custom(tau)) == tau
        assert sigma_coefficient(LifetimeModel.custom(tau)) == math.sqrt(tau / CODATA.c_m_per_s)


class TestAnalyticSigma:
    def test_published_coefficients(self):
        assert abs(sigma_coefficient(LifetimeModel.half_compton()) * 1e15 - 1.4657082437154467) < 1e-9
        assert abs(sigma_coefficient(LifetimeModel.k_scaled()) * 1e15 - 0.25950885946518715) < 1e-9
        assert abs(sigma_coefficient(LifetimeModel.quasistationary()) * 1e9 - 0.4556687062513895) < 1e-9

    def test_sqrt_scaling_exact(self):
        # The Poisson, fixed-delay spread is sqrt(tau/c)*sqrt(L): 4L gives twice it.
        tau = lifetime(LifetimeModel.half_compton())

        def spread(length_m):
            expected_n = length_m / (CODATA.c_m_per_s * tau)
            _, variance = compound_moments(
                InteractionProcess.POISSON_COUNT, DelayDistribution.FIXED_TAU, expected_n, tau
            )
            return math.sqrt(variance)

        for length in (0.25, 1.0, 7.3):
            assert spread(4.0 * length) == 2.0 * spread(length)

    def test_length_validation(self):
        with pytest.raises(FlightConfigError, match="length_m"):
            FlightConfig(0.0, LifetimeModel.half_compton(), 2, 0)


class TestSimulateFlight:
    def test_fixed_count_fixed_tau_is_deterministic_delay(self):
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=5000,
            seed=3,
            interaction_process=InteractionProcess.FIXED_COUNT,
        )
        tau = lifetime(config.lifetime_model)
        # One chunk, two, and several merged by two workers.
        for n_photons, n_workers in ((2, 1), (5000, 1), (3 * dispersion.CHUNK_SIZE + 7, 2)):
            result = simulate_flight(
                dataclasses.replace(config, n_photons=n_photons, n_workers=n_workers)
            )
            assert result.stddev_delay_s == 0.0 == result.analytic_sigma_s
            assert result.mean_delay_s == round(1.0 / (CODATA.c_m_per_s * tau)) * tau

    def test_poisson_fixed_tau_matches_analytic(self):
        # lambda = 1e6: exercises the exact Poisson branch of the sampler.
        tau = 1.0 / (CODATA.c_m_per_s * 1e6)
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.custom(tau),
            n_photons=100_000,
            seed=42,
        )
        result = simulate_flight(config)
        se = sd_standard_error(result.analytic_sigma_s, config.n_photons)
        assert abs(result.stddev_delay_s - result.analytic_sigma_s) < 3.5 * se
        assert abs(result.mean_delay_s / (1e6 * tau) - 1.0) < 1e-3

    def test_half_compton_uses_normal_branch_and_matches(self):
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=100_000,
            seed=7,
        )
        result = simulate_flight(config)
        se = sd_standard_error(result.analytic_sigma_s, config.n_photons)
        assert abs(result.stddev_delay_s - result.analytic_sigma_s) < 3.5 * se

    def test_exponential_delays_inflate_by_sqrt_two(self):
        # Exponential jumps: Var = 2 lambda tau^2 for a Poisson count, N tau^2
        # for a fixed count N.
        tau = 1.0 / (CODATA.c_m_per_s * 1e6)
        for process, ratio in (
            (InteractionProcess.POISSON_COUNT, math.sqrt(2.0)),
            (InteractionProcess.FIXED_COUNT, 1.0),
        ):
            config = FlightConfig(
                length_m=1.0,
                lifetime_model=LifetimeModel.custom(tau),
                n_photons=100_000,
                seed=11,
                delay_distribution=DelayDistribution.EXPONENTIAL_TAU,
                interaction_process=process,
            )
            result = simulate_flight(config)
            expected = ratio * math.sqrt(1e6) * tau
            assert abs(result.analytic_sigma_s / expected - 1.0) < 1e-12
            se = sd_standard_error(result.analytic_sigma_s, config.n_photons)
            assert abs(result.stddev_delay_s - result.analytic_sigma_s) < 3.5 * se

    def test_uniform_fraction_variant(self):
        # Mean tau/2 per interaction, variance tau^2/12: Var = lambda tau^2/3
        # for a Poisson count, N tau^2/12 for a fixed count N.
        tau = 1.0 / (CODATA.c_m_per_s * 1e6)
        for process, ratio in (
            (InteractionProcess.POISSON_COUNT, 1.0 / math.sqrt(3.0)),
            (InteractionProcess.FIXED_COUNT, 1.0 / math.sqrt(12.0)),
        ):
            config = FlightConfig(
                length_m=1.0,
                lifetime_model=LifetimeModel.custom(tau),
                n_photons=100_000,
                seed=13,
                delay_distribution=DelayDistribution.UNIFORM_FRACTION,
                interaction_process=process,
            )
            result = simulate_flight(config)
            expected = ratio * math.sqrt(1e6) * tau
            assert abs(result.analytic_sigma_s / expected - 1.0) < 1e-12
            se = sd_standard_error(result.analytic_sigma_s, config.n_photons)
            assert abs(result.stddev_delay_s - result.analytic_sigma_s) < 3.5 * se
            assert abs(result.mean_delay_s / (0.5e6 * tau) - 1.0) < 1e-3
            mean, _ = compound_moments(process, config.delay_distribution, 1e6, tau)
            assert abs(mean / (0.5e6 * tau) - 1.0) < 1e-12

    def test_deterministic_across_runs_and_workers(self, monkeypatch):
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=20_000,
            seed=99,
        )
        first = simulate_flight(config)
        second = simulate_flight(config)
        parallel = simulate_flight(dataclasses.replace(config, n_workers=4))
        assert first.mean_delay_s == second.mean_delay_s == parallel.mean_delay_s
        assert first.stddev_delay_s == second.stddev_delay_s == parallel.stddev_delay_s
        # 20,000 photons is no multiple of CHUNK_SIZE: the short last chunk
        # is merged in the same place whichever worker draws it.
        assert config.n_photons % dispersion.CHUNK_SIZE
        # Four CPUs whatever the host has, so that 2 and 3 workers do run.
        monkeypatch.setattr(dispersion.os, "cpu_count", lambda: 4)
        runs = [drawn_chunks(dataclasses.replace(config, n_workers=w)) for w in (1, 2, 3)]
        for run, drawn in runs[1:]:
            assert (run.mean_delay_s, run.stddev_delay_s) == (first.mean_delay_s, first.stddev_delay_s)
            assert_same_chunks(drawn, runs[0][1])

    @pytest.mark.parametrize("process", list(InteractionProcess))
    @pytest.mark.parametrize("delay", list(DelayDistribution))
    def test_streamed_moments_match_two_pass(self, delay, process):
        # lambda = 1e4: exact Poisson counts; 3 chunks and a short one.
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.custom(1.0 / (CODATA.c_m_per_s * 1e4)),
            n_photons=3 * dispersion.CHUNK_SIZE + 123,
            seed=21,
            delay_distribution=delay,
            interaction_process=process,
        )
        result, delays = kept_flight(config)
        centered = delays - delays[0]
        mean = float(delays[0]) + float(centered.mean())
        sd = float(centered.std(ddof=1))
        assert abs(result.mean_delay_s - mean) <= 1e-12 * mean
        assert abs(result.stddev_delay_s - sd) <= 1e-12 * sd

    @pytest.mark.parametrize("with_sink", [False, True])
    def test_memory_is_bounded_by_chunk(self, with_sink):
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=1_000_000,
            seed=8,
        )
        # Warm numpy's lazily built state so only the ensemble is measured.
        simulate_flight(dataclasses.replace(config, n_photons=2))
        last = []

        def keep_last(start, delays):
            last[:] = [delays.copy()]

        tracemalloc.start()
        try:
            simulate_flight(config, sink=keep_last if with_sink else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A sink that keeps the last chunk holds one chunk, not 8 B per photon.
        kept = 8 * dispersion.CHUNK_SIZE if with_sink else 0
        assert peak < kept + 2 * 2**20

    def test_threaded_memory_does_not_grow_with_photons(self, monkeypatch):
        # Threads keep one round of batch moments, not ~180 B per chunk of
        # their whole share.  Both ensembles run batches of _STATE_BATCH
        # chunks, in one round and in four.
        monkeypatch.setattr(dispersion.os, "cpu_count", lambda: 4)
        config = FlightConfig(
            length_m=1.0, lifetime_model=LifetimeModel.half_compton(),
            n_photons=2 * dispersion.CHUNK_SIZE, seed=8, n_workers=2,
        )
        # Warm numpy and the threads' lazily built state.
        simulate_flight(config)
        peaks = []
        for n_batches in (2, 8):
            n_photons = n_batches * dispersion._STATE_BATCH * dispersion.CHUNK_SIZE
            tracemalloc.start()
            try:
                simulate_flight(dataclasses.replace(config, n_photons=n_photons))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 128 * 2**10, peaks

    @pytest.mark.parametrize("expected_n", [0.5, 1.0, 3.0])
    def test_uniform_fraction_exact_at_small_counts(self, expected_n):
        # A normal clipped at 0 in place of the Irwin-Hall sum biases the
        # mean by +0.6% at lambda = 0.5, which is z ~ 5.6 at 2e6 photons.
        n = 2_000_000
        tau = 1.0 / (CODATA.c_m_per_s * expected_n)
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.custom(tau),
            n_photons=n,
            seed=17,
            delay_distribution=DelayDistribution.UNIFORM_FRACTION,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateFlightWarning)
            result = simulate_flight(config)
        mean, variance = compound_moments(
            config.interaction_process, config.delay_distribution, expected_n, tau
        )
        # Compound Poisson: fourth cumulant lambda*E[X^4], E[X^4] = tau^4/5,
        # so the sample sd has variance (kappa_4 + 2 sigma^4) / (4 n sigma^2).
        kappa4 = expected_n * tau**4 / 5.0
        sd_se = math.sqrt((kappa4 + 2.0 * variance**2) / (4.0 * n * variance))
        z_mean = abs(result.mean_delay_s - mean) / math.sqrt(variance / n)
        z_sd = abs(result.stddev_delay_s - math.sqrt(variance)) / sd_se
        assert z_mean < 4.0 and z_sd < 4.0, (z_mean, z_sd)

    def test_sampling_paths_agree(self):
        # N ~ 3300 per photon: small enough for the explicit loop.
        base = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.custom(1e-12),
            n_photons=4000,
            seed=5,
            delay_distribution=DelayDistribution.EXPONENTIAL_TAU,
        )
        agg = simulate_flight(base)
        loop = simulate_flight(
            dataclasses.replace(base, sampling=SamplingMethod.PER_INTERACTION, seed=6)
        )
        n = base.n_photons
        sd_se = math.sqrt(2.0) * sd_standard_error(agg.analytic_sigma_s, n)
        mean_se = agg.stddev_delay_s / math.sqrt(n) * math.sqrt(2.0)
        assert abs(agg.stddev_delay_s - loop.stddev_delay_s) < 4.0 * sd_se
        assert abs(agg.mean_delay_s - loop.mean_delay_s) < 4.0 * mean_se

    @staticmethod
    def record_pools(monkeypatch):
        """Worker counts of the thread pools ``simulate_flight`` starts."""
        started = []

        class Recorder(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Recorder)
        return started

    def test_thread_count_is_bounded(self, monkeypatch):
        started = self.record_pools(monkeypatch)
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=3 * dispersion.CHUNK_SIZE,
            seed=4,
        )
        parallel = simulate_flight(dataclasses.replace(config, n_workers=64))
        assert all(n <= min(3, os.cpu_count() or 1) for n in started)
        assert parallel.stddev_delay_s == simulate_flight(config).stddev_delay_s

    @pytest.mark.parametrize(
        "process, delay, pool",
        [
            (InteractionProcess.FIXED_COUNT, DelayDistribution.FIXED_TAU, False),
            (InteractionProcess.FIXED_COUNT, DelayDistribution.EXPONENTIAL_TAU, True),
            (InteractionProcess.POISSON_COUNT, DelayDistribution.FIXED_TAU, True),
        ],
        ids=["fixed-count-fixed-tau", "fixed-count-exponential", "poisson-fixed-tau"],
    )
    def test_only_a_fixed_count_of_fixed_delays_skips_the_pool(
        self, monkeypatch, process, delay, pool
    ):
        # A fixed count of fixed delays draws nothing, so it runs on the
        # calling thread; every law that draws still gets its workers.
        monkeypatch.setattr(dispersion.os, "cpu_count", lambda: 4)
        started = self.record_pools(monkeypatch)
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=3 * dispersion.CHUNK_SIZE,
            seed=4,
            interaction_process=process,
            delay_distribution=delay,
        )
        parallel = simulate_flight(dataclasses.replace(config, n_workers=64))
        assert started == ([3] if pool else [])
        serial = simulate_flight(config)
        assert parallel.mean_delay_s == serial.mean_delay_s
        assert parallel.stddev_delay_s == serial.stddev_delay_s

    @pytest.mark.parametrize("n_workers", [2, 3])
    @pytest.mark.parametrize(
        "n_photons",
        [dispersion.CHUNK_SIZE + 1, 3 * dispersion.CHUNK_SIZE + 7, 20_000],
    )
    def test_one_task_per_thread(self, monkeypatch, n_photons, n_workers):
        started, submitted = [], []

        class Recorder(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

            def submit(self, fn, /, *args, **kwargs):
                submitted.append(fn)
                return super().submit(fn, *args, **kwargs)

        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=n_photons,
            seed=12,
        )
        serial, serial_drawn = drawn_chunks(config)
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Recorder)
        # Four CPUs whatever the host has, so the pool runs as configured.
        monkeypatch.setattr(dispersion.os, "cpu_count", lambda: 4)
        parallel, drawn = drawn_chunks(dataclasses.replace(config, n_workers=n_workers))
        assert started and len(submitted) <= sum(started)
        assert (parallel.mean_delay_s, parallel.stddev_delay_s) == (
            serial.mean_delay_s,
            serial.stddev_delay_s,
        )
        assert_same_chunks(drawn, serial_drawn)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_no_seed_sequence_per_chunk(self, monkeypatch, n_workers):
        made = []
        seed_sequence = np.random.SeedSequence

        def counted(*args, **kwargs):
            made.append((args, kwargs))
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        monkeypatch.setattr(dispersion.os, "cpu_count", lambda: 4)
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=3 * dispersion.CHUNK_SIZE,
            seed=12,
            n_workers=n_workers,
        )
        simulate_flight(config)
        # One for the call, from the seed alone; none per chunk.
        assert made == [((12,), {})]

    def test_sink_sees_every_chunk_once_in_order(self, monkeypatch):
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=3 * dispersion.CHUNK_SIZE + 7,
            seed=12,
            n_workers=2,
        )
        started = []
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", started.append)
        monkeypatch.setattr(dispersion.os, "cpu_count", lambda: 4)
        seen = []
        result = simulate_flight(
            config,
            sink=lambda start, delays: seen.append((start, delays.size, threading.get_ident())),
        )
        size = dispersion.CHUNK_SIZE
        assert [(start, n) for start, n, _ in seen] == [
            (0, size), (size, size), (2 * size, size), (3 * size, 7)
        ]
        # Drawn on the calling thread, with no pool started.
        assert {thread for *_, thread in seen} == {threading.get_ident()} and not started
        serial = simulate_flight(dataclasses.replace(config, n_workers=1))
        assert (result.mean_delay_s, result.stddev_delay_s) == (
            serial.mean_delay_s,
            serial.stddev_delay_s,
        )

    def test_per_interaction_count_is_bounded(self):
        # 2e6 expected interactions per photon: above the per-interaction cap.
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.custom(1.0 / (CODATA.c_m_per_s * 2e6)),
            n_photons=2,
            seed=3,
            delay_distribution=DelayDistribution.EXPONENTIAL_TAU,
            sampling=SamplingMethod.PER_INTERACTION,
        )
        with pytest.raises(FlightConfigError, match="per-interaction"):
            simulate_flight(config)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(FlightConfigError):
            FlightConfig(math.inf, LifetimeModel.half_compton(), n_photons=2, seed=1)
        # Finite length and lifetime whose ratio L/(c tau) overflows.
        config = FlightConfig(1e20, LifetimeModel.custom(1e-299), n_photons=2, seed=1)
        with pytest.raises(FlightConfigError, match="not finite"):
            simulate_flight(config)
        # A subnormal lifetime is refused before that, naming its input.
        config = FlightConfig(1.0, LifetimeModel.custom(1e-320), n_photons=2, seed=1)
        with pytest.raises(ValueError, match="custom_tau_s = 1e-320"):
            simulate_flight(config)

    def test_keep_samples(self):
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=5000,
            seed=1,
        )
        result, delays = kept_flight(config)
        assert delays.shape == (5000,)
        assert abs(float(delays.std(ddof=1)) / result.stddev_delay_s - 1.0) < 1e-9

    def test_degenerate_expected_count_warns(self):
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.custom(1.0),
            n_photons=100,
            seed=2,
        )
        with pytest.warns(DegenerateFlightWarning):
            simulate_flight(config)

    def test_config_validation(self):
        model = LifetimeModel.half_compton()
        with pytest.raises(FlightConfigError):
            FlightConfig(length_m=1.0, lifetime_model=model, n_photons=1, seed=0)
        with pytest.raises(FlightConfigError):
            FlightConfig(length_m=0.0, lifetime_model=model, n_photons=10, seed=0)
        with pytest.raises(FlightConfigError):
            FlightConfig(length_m=1.0, lifetime_model=model, n_photons=10, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, "7", None, np.float64(2.0)], ids=repr)
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(FlightConfigError, match="seed"):
            FlightConfig(length_m=1.0, lifetime_model=LifetimeModel.half_compton(),
                         n_photons=10, seed=seed)

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("n_photons", "n_workers")
        for value in (5000.0, 1.5, "7", np.float64(2.0))
    ], ids=repr)
    def test_non_integer_count_refused(self, field, value):
        fields = {"n_photons": 10, "n_workers": 1, field: value}
        with pytest.raises(FlightConfigError, match=field):
            FlightConfig(length_m=1.0, lifetime_model=LifetimeModel.half_compton(), seed=1, **fields)

    def test_integer_like_counts_draw_as_their_ints(self):
        config = FlightConfig(length_m=1.0, lifetime_model=LifetimeModel.half_compton(),
                              n_photons=np.int64(dispersion.CHUNK_SIZE + 3), seed=1,
                              n_workers=np.int64(2))
        plain = dataclasses.replace(config, n_photons=dispersion.CHUNK_SIZE + 3, n_workers=2)
        assert simulate_flight(config) == dataclasses.replace(simulate_flight(plain), config=config)

    @pytest.mark.parametrize("seed, same_as", [(True, 1), (np.int64(5), 5)], ids=["True", "int64"])
    def test_integer_like_seed_draws_as_its_int(self, seed, same_as):
        config = FlightConfig(length_m=1.0, lifetime_model=LifetimeModel.half_compton(),
                              n_photons=dispersion.CHUNK_SIZE + 3, seed=seed)
        tau = lifetime(config.lifetime_model)
        lam = config.length_m / (CODATA.c_m_per_s * tau)
        # SeedSequence takes either as the entropy its int gives.
        reference = np.concatenate([reference_chunk(config, lam, tau, 0, dispersion.CHUNK_SIZE),
                                    reference_chunk(config, lam, tau, 1, 3)])
        assert np.array_equal(kept_delays(config), reference)
        assert simulate_flight(config) == dataclasses.replace(
            simulate_flight(dataclasses.replace(config, seed=same_as)), config=config
        )

    def test_result_serialises(self):
        config = FlightConfig(
            length_m=1.0,
            lifetime_model=LifetimeModel.half_compton(),
            n_photons=100,
            seed=0,
        )
        result = simulate_flight(config)
        payload = json.loads(json.dumps(dataclasses.asdict(result)))
        assert payload["n_photons"] == 100
        assert payload["config"]["seed"] == 0
        assert payload["config"]["lifetime_model"]["kind"] == "half-compton"


def reference_chunk(config, expected_n, tau, chunk_index, size):
    """One chunk's delays as the sampler drew them with a branch per case:
    zero counts masked out of the gamma draw, a per-photon loop with its own
    zero-count and fixed-delay branches, and, for uniform fractions up to
    ``_UNIFORM_EXACT_MAX`` interactions, each photon's uniforms added one at
    a time in draw order (not with Python's ``sum``, which compensates from
    3.12 on).  Above the normal-count switch, delays other than fixed are one
    normal draw per photon.  Kept as the reference that every stream of
    ``simulate_flight`` must match."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(chunk_index,))
    )
    dist = config.delay_distribution
    if expected_n > dispersion._POISSON_EXACT_MAX and dist is not DelayDistribution.FIXED_TAU:
        # One normal draw per photon with the compound law's moments.
        mean, variance = compound_moments(config.interaction_process, dist, expected_n, tau)
        return rng.normal(mean, math.sqrt(variance), size=size)
    if config.interaction_process is InteractionProcess.FIXED_COUNT:
        counts = np.full(size, np.rint(expected_n))
    elif expected_n <= dispersion._POISSON_EXACT_MAX:
        counts = rng.poisson(expected_n, size=size)
    else:
        normal = rng.normal(expected_n, math.sqrt(expected_n), size=size)
        counts = np.clip(np.rint(normal), 0.0, None)
    delays = np.zeros(counts.shape, dtype=np.float64)
    if config.sampling is SamplingMethod.PER_INTERACTION:
        for i, n in enumerate(counts):
            n = int(n)
            if n == 0:
                delays[i] = 0.0
            elif dist is DelayDistribution.FIXED_TAU:
                delays[i] = n * tau
            elif dist is DelayDistribution.EXPONENTIAL_TAU:
                delays[i] = rng.standard_exponential(n).sum() * tau
            else:
                delays[i] = rng.random(n).sum() * tau
        return delays
    if dist is DelayDistribution.FIXED_TAU:
        return counts.astype(np.float64) * tau
    if dist is DelayDistribution.EXPONENTIAL_TAU:
        positive = counts > 0
        if np.any(positive):
            delays[positive] = rng.gamma(counts[positive].astype(np.float64), tau)
        return delays
    small = counts <= dispersion._UNIFORM_EXACT_MAX
    uniforms = iter(rng.random(int(counts[small].sum())))
    for i in np.flatnonzero(small):
        total = 0.0
        for _ in range(int(counts[i])):
            total += next(uniforms)
        delays[i] = total * tau
    step_mean, step_var = compound_moments(InteractionProcess.FIXED_COUNT, dist, 1.0, tau)
    large = counts[~small]
    normal = rng.normal(large * step_mean, np.sqrt(large * step_var))
    delays[~small] = np.clip(normal, 0.0, None)
    return delays


def custom_config(expected_n, n_photons, seed, **fields):
    """A flight of ``n_photons`` over 1 m with about ``expected_n``
    interactions per photon."""
    tau = 1.0 / (CODATA.c_m_per_s * expected_n)
    return FlightConfig(
        length_m=1.0, lifetime_model=LifetimeModel.custom(tau), n_photons=n_photons,
        seed=seed, **fields,
    )


def kept_flight(config):
    """(result, every delay in photon order) of a flight, gathered by a sink."""
    chunks = []
    result = simulate_flight(config, sink=lambda start, delays: chunks.append(delays.copy()))
    return result, np.concatenate(chunks)


def kept_delays(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateFlightWarning)
        return kept_flight(config)[1]


def reference_state(seed, chunk_index):
    """Chunk ``chunk_index``'s PCG64 seed state, as ``SeedSequence`` derives it."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)).generate_state(
        4, np.uint64
    )


def drawn_chunks(config):
    """(result, {chunk index: delays}) of a flight without a sink, recorded
    where ``_simulate_chunk`` draws each chunk, on whichever thread runs it.
    A chunk is known by its stream's seed state, which must be the state
    ``reference_state`` gives one of the flight's chunks."""
    n_chunks = -(-config.n_photons // dispersion.CHUNK_SIZE)
    index_of = {reference_state(config.seed, index).tobytes(): index for index in range(n_chunks)}
    drawn = {}
    draw = dispersion._simulate_chunk

    def record(config, expected_n, tau, moments, rng, size):
        index = index_of[rng.bit_generator.seed_seq.generate_state(4, np.uint64).tobytes()]
        delays = draw(config, expected_n, tau, moments, rng, size)
        drawn[index] = delays.copy()
        return delays

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dispersion, "_simulate_chunk", record)
        result = simulate_flight(config)
    return result, drawn


def assert_same_chunks(drawn, expected):
    assert sorted(drawn) == list(range(len(expected)))
    assert all(np.array_equal(drawn[index], expected[index]) for index in expected)


#: The 1% point of the Anderson-Darling statistic for a fully specified law
#: (Stephens, JASA 69, 1974, case 0).
AD_1PCT = 3.857


def anderson_darling(cdf, sf):
    """A^2 of sorted samples from their CDF and survival function values,
    both in the samples' ascending order; sf keeps the upper tail exact."""
    n = cdf.size
    weights = 2.0 * np.arange(1, n + 1) - 1.0
    return -n - np.sum(weights * (np.log(cdf) + np.log(sf[::-1]))) / n


def atom_checked_positive_part(config):
    """(lambda, sorted positive delays over tau) of a Poisson-count flight,
    after a binomial z-test of its atom at 0 against e^-lambda; where
    e^-lambda underflows to 0.0, no delay may be 0."""
    tau = lifetime(config.lifetime_model)
    lam = config.length_m / (CODATA.c_m_per_s * tau)
    delays = kept_delays(config)
    n, p0, zeros = delays.size, math.exp(-lam), np.count_nonzero(delays == 0.0)
    if p0 == 0.0:
        assert zeros == 0
    else:
        z = (zeros - n * p0) / math.sqrt(n * p0 * (1.0 - p0))
        assert abs(z) < 4.0, z
    return lam, np.sort(delays[delays > 0.0]) / tau


@functools.lru_cache(maxsize=None)
def irwin_hall_pieces(k):
    """Coefficients c[m][i] with F_k(m + t) = sum_i c[m][i] t^i on
    0 <= t < 1, where F_k is the CDF of a sum of k uniforms.  Expanding the
    alternating sum sum_j (-1)^j C(k, j) (m + t - j)^k / k! in t makes it
    cancel in exact integers, not in floats; each coefficient is rounded
    once, from its exact fraction.  Cached: the pieces of every k <= 60
    take ~1.7 s to build."""
    return [
        [float(Fraction(math.comb(k, i) * sum((-1) ** j * math.comb(k, j) * (m - j) ** (k - i)
                                              for j in range(m + 1)),
                        math.factorial(k)))
         for i in range(k + 1)]
        for m in range(k)
    ]


def irwin_hall_mixture(weights, y):
    """CDF and survival function at y of sum_k weights[k-1] F_k.  Piece m of
    F_k is a polynomial in t = y - m, and 1 - F_k(y) = F_k(k - y) is piece
    k - 1 - m at 1 - t, so both tails keep full relative precision."""
    from numpy.polynomial.polynomial import polyval

    piece = np.floor(y).astype(np.int64)
    t = y - piece
    cdf, sf = np.zeros_like(y), np.zeros_like(y)
    for k, weight in enumerate(weights, start=1):
        pieces = irwin_hall_pieces(k)
        for m in range(k):
            on = piece == m
            cdf[on] += weight * polyval(t[on], pieces[m])
            sf[on] += weight * polyval(1.0 - t[on], pieces[k - 1 - m])
        cdf[piece >= k] += weight
    return cdf, sf


# Each count law: Poisson at lambda, normal counts just above the switch
# (1.0000001e9, where 0 sits only sqrt(lambda) ~ 31 623 standard deviations
# below the mean) and at the half-Compton lambda ~ 5e12 (None), and fixed
# counts round(lambda).  The per-photon loop runs up to lambda = 1e3 only; at
# 1e5 it would draw ~1e9 variates.
REFERENCE_CASES = [
    (process, lam, delay, sampling, 23)
    for process in InteractionProcess
    for lam in (0.4, 3.0, 1e3, 1e5, 1.0000001e9, None)
    for delay in DelayDistribution
    for sampling in SamplingMethod
    if sampling is SamplingMethod.AGGREGATE or lam is not None and lam <= 1e3
]
# Seeds of two words and of five, past SeedSequence's pool of four.
REFERENCE_CASES += [
    (process, lam, delay, SamplingMethod.AGGREGATE, seed)
    for seed in (2**32, 2**128 + 1)
    for process in InteractionProcess
    for lam in (3.0, None)
    for delay in DelayDistribution
]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**256 - 1), start=st.integers(0, 2**40 - 1),
       count=st.integers(1, 5))
@example(seed=0, start=0, count=3)
@example(seed=2**32 - 1, start=2**32 - 1, count=1)
@example(seed=2**32, start=2**32, count=2)
@example(seed=2**128 + 1, start=2**32 - 2, count=5)
@example(seed=2**32 - 1, start=2**32 - 3, count=5)
# The last seed of four words, whose hash takes 16 steps, and the first of five.
@example(seed=2**128 - 1, start=0, count=2)
@example(seed=2**128, start=0, count=2)
def test_chunk_states_match_seed_sequence(seed, start, count):
    states = dispersion._chunk_states(np.random.SeedSequence(seed), start, start + count)
    expected = [reference_state(seed, index) for index in range(start, start + count)]
    assert states.dtype == np.uint64 and np.array_equal(states, expected)


class TestSamplerLaws:
    @pytest.mark.parametrize(
        "process, expected_n, delay, sampling, seed", REFERENCE_CASES,
        ids=["-".join([p.value, str(lam or "half-compton"), d.value, s.value]
                      + ([] if seed == 23 else [f"seed-{seed}"]))
             for p, lam, d, s, seed in REFERENCE_CASES],
    )
    def test_delays_bit_identical_to_reference(self, process, expected_n, delay, sampling, seed):
        size = dispersion.CHUNK_SIZE
        fields = dict(delay_distribution=delay, interaction_process=process, sampling=sampling)
        for n_photons in (2, size + 1, 3 * size + 7):
            if expected_n is None:
                config = FlightConfig(
                    1.0, LifetimeModel.half_compton(), n_photons=n_photons, seed=seed, **fields
                )
            else:
                config = custom_config(expected_n, n_photons, seed, **fields)
            tau = lifetime(config.lifetime_model)
            lam = config.length_m / (CODATA.c_m_per_s * tau)
            reference = np.concatenate([
                reference_chunk(config, lam, tau, index, min(size, n_photons - start))
                for index, start in enumerate(range(0, n_photons, size))
            ])
            delays = kept_delays(config)
            assert np.array_equal(delays.view(np.uint64), reference.view(np.uint64)), n_photons

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_ensemble_across_state_batches_bit_identical_to_reference(
        self, monkeypatch, n_workers
    ):
        # More than two full state batches: three batches of 356 chunks at
        # one or three workers, two rounds of two batches of 267 at two.
        n_chunks = 2 * dispersion._STATE_BATCH + 44
        config = FlightConfig(
            1.0, LifetimeModel.half_compton(), n_photons=(n_chunks - 1) * dispersion.CHUNK_SIZE + 5,
            seed=29, n_workers=n_workers,
        )
        monkeypatch.setattr(dispersion.os, "cpu_count", lambda: 4)
        _, drawn = drawn_chunks(config)
        tau = lifetime(config.lifetime_model)
        lam = config.length_m / (CODATA.c_m_per_s * tau)
        assert sorted(drawn) == list(range(n_chunks))
        for index, delays in drawn.items():
            reference = reference_chunk(config, lam, tau, index, delays.size)
            assert np.array_equal(delays.view(np.uint64), reference.view(np.uint64)), index

    @pytest.mark.parametrize("count", [1, 3, 50, 1000])
    def test_fixed_count_exponential_delays_are_gamma(self, count):
        from scipy.special import gammainc, gammaincc

        config = custom_config(
            count, 20_000, 31, delay_distribution=DelayDistribution.EXPONENTIAL_TAU,
            interaction_process=InteractionProcess.FIXED_COUNT,
        )
        y = np.sort(kept_delays(config)) / lifetime(config.lifetime_model)
        a2 = anderson_darling(gammainc(count, y), gammaincc(count, y))
        assert a2 < AD_1PCT, a2

    @pytest.mark.parametrize("process", list(InteractionProcess))
    @pytest.mark.parametrize(
        "delay", [DelayDistribution.EXPONENTIAL_TAU, DelayDistribution.UNIFORM_FRACTION]
    )
    def test_one_normal_draw_above_the_count_switch(self, process, delay):
        # lambda = 2e9: past _POISSON_EXACT_MAX, each delay is one normal draw
        # with the compound law's exact mean and variance.
        from scipy.special import ndtr

        config = custom_config(
            2e9, 20_000, 43, delay_distribution=delay, interaction_process=process
        )
        tau = lifetime(config.lifetime_model)
        lam = config.length_m / (CODATA.c_m_per_s * tau)
        assert lam > dispersion._POISSON_EXACT_MAX
        mean, variance = compound_moments(process, delay, lam, tau)
        z = (np.sort(kept_delays(config)) - mean) / math.sqrt(variance)
        a2 = anderson_darling(ndtr(z), ndtr(-z))
        assert a2 < AD_1PCT, a2

    @pytest.mark.parametrize("expected_n", [0.5, 3.0, 1e3])
    def test_poisson_exponential_delays_follow_the_compound_law(self, expected_n):
        # Atom e^-lambda at 0, and above it sum_k Pois(k; lambda) Gamma(k, tau)
        # over k >= 1, normalised by 1 - e^-lambda.  2T/tau of that law is
        # noncentral chi-square with 0 degrees of freedom (1e-300 stands in)
        # and noncentrality 2 lambda, whose atom at 0 is the same e^-lambda.
        from scipy.special import chndtr

        config = custom_config(
            expected_n, 20_000, 41, delay_distribution=DelayDistribution.EXPONENTIAL_TAU
        )
        lam, y = atom_checked_positive_part(config)
        below, positive = chndtr(2.0 * y, 1e-300, 2.0 * lam), -math.expm1(-lam)
        a2 = anderson_darling((below - math.exp(-lam)) / positive, (1.0 - below) / positive)
        assert a2 < AD_1PCT, a2

    @pytest.mark.parametrize("expected_n", [0.5, 3.0, 20.0])
    def test_poisson_uniform_fraction_delays_follow_the_irwin_hall_mixture(self, expected_n):
        # Atom e^-lambda at 0, and above it sum_k Pois(k; lambda) IH_k(y/tau)
        # over k >= 1, cut where the Poisson tail drops below 1e-12.  Counts
        # up to _UNIFORM_EXACT_MAX are summed exactly.  At lambda = 20 the
        # normal stand-in carries P(K > 16) = 0.78 of the weight; there the
        # test sees its mean, variance and weights, not the -1.2/K excess
        # kurtosis it drops.
        from scipy.special import pdtr, pdtrc

        config = custom_config(
            expected_n, 20_000, 41, delay_distribution=DelayDistribution.UNIFORM_FRACTION
        )
        lam, y = atom_checked_positive_part(config)
        top = next(k for k in itertools.count(1) if pdtrc(k, lam) < 1e-12)
        weights = np.diff(pdtr(np.arange(top + 1), lam))
        cdf, sf = irwin_hall_mixture(weights / weights.sum(), y)
        a2 = anderson_darling(cdf, sf)
        assert a2 < AD_1PCT, a2

    @pytest.mark.parametrize("expected_n", [0.4, 3.0, 30.0, 1e3])
    def test_poisson_fixed_delays_follow_the_pmf(self, expected_n):
        # Delays lie on the lattice k*tau.  Chi-square of the counts k against
        # the Poisson pmf, bins pooled until each expects at least 5 photons.
        from scipy.special import chdtrc, gammaln, pdtrc, xlogy

        config = custom_config(expected_n, 20_000, 37)
        tau = lifetime(config.lifetime_model)
        delays = kept_delays(config)
        k = np.rint(delays / tau).astype(np.int64)
        assert np.array_equal(delays, k * tau)
        lam = config.length_m / (CODATA.c_m_per_s * tau)
        observed = np.bincount(k)
        values = np.arange(observed.size)
        expected = delays.size * np.exp(xlogy(values, lam) - lam - gammaln(values + 1.0))
        expected[-1] += delays.size * pdtrc(values[-1], lam)  # the tail above max k
        bins_o, bins_e, run_o, run_e = [], [], 0, 0.0
        for o, e in zip(observed, expected):
            run_o, run_e = run_o + o, run_e + e
            if run_e >= 5.0:
                bins_o.append(run_o)
                bins_e.append(run_e)
                run_o, run_e = 0, 0.0
        bins_o[-1] += run_o
        bins_e[-1] += run_e
        chi2 = sum((o - e) ** 2 / e for o, e in zip(bins_o, bins_e))
        assert chdtrc(len(bins_o) - 1, chi2) > 1e-3, (chi2, len(bins_o))


class TestPulseBroadening:
    def test_quadrature_triangle(self):
        assert pulse_broadening(3.0, 4.0, 1.0) == 5.0

    def test_no_dispersion_leaves_pulse(self):
        assert pulse_broadening(2e-15, 0.0, 100.0) == 2e-15

    def test_zero_length_leaves_pulse(self):
        assert pulse_broadening(2e-15, 0.05e-15, 0.0) == 2e-15

    def test_monotone(self):
        base = pulse_broadening(1e-15, 0.05e-15, 1.0)
        assert pulse_broadening(2e-15, 0.05e-15, 1.0) >= base
        assert pulse_broadening(1e-15, 0.06e-15, 1.0) >= base
        assert pulse_broadening(1e-15, 0.05e-15, 2.0) >= base

    def test_fwhm_round_trip(self):
        assert abs(rms_from_fwhm(fwhm_from_rms(1.7e-17)) / 1.7e-17 - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "convert, name", [(fwhm_from_rms, "rms_s"), (rms_from_fwhm, "fwhm_s")]
    )
    def test_width_conversions_refuse_infinite_widths(self, convert, name):
        assert convert(0.0) == 0.0
        for width in (math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0$"):
                convert(width)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pulse_broadening(-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("args", [(math.inf, 0.0, 1.0), (1.0, math.inf, 1.0),
                                      (1.0, 0.0, math.inf)],
                             ids=["pulse_rms_s", "sigma", "length_m"])
    def test_infinite_argument_rejected(self, args):
        with pytest.raises(ValueError, match="^all arguments must be finite and >= 0$"):
            pulse_broadening(*args)


class TestExperimentSensitivity:
    def test_published_setup(self):
        value = experiment_sensitivity(2e-15, 0.01, 1e4)
        assert abs(value - 2.835489375751565e-18) < 1e-24

    def test_quadrupled_length_halves_exactly(self):
        assert experiment_sensitivity(2e-15, 0.01, 4e4) * 2.0 == experiment_sensitivity(
            2e-15, 0.01, 1e4
        )

    def test_round_trip_inflates_by_precision_fraction(self):
        pulse, fraction, length = 2e-15, 0.01, 1e4
        sigma = experiment_sensitivity(pulse, fraction, length)
        broadened = pulse_broadening(pulse, sigma, length)
        assert abs(broadened / (pulse * (1.0 + fraction)) - 1.0) < 1e-12

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            experiment_sensitivity(0.0, 0.01, 1.0)

    @pytest.mark.parametrize("args", [(math.inf, 0.01, 1.0), (1.0, math.inf, 1.0),
                                      (1.0, 0.01, math.inf)],
                             ids=["pulse_rms_s", "precision", "length_m"])
    def test_infinite_argument_rejected(self, args):
        with pytest.raises(ValueError, match="^all arguments must be finite and > 0$"):
            experiment_sensitivity(*args)


class TestLimitVerdicts:
    def test_quasistationary_excluded(self):
        verdict = compare_to_limits(LifetimeModel.quasistationary())
        assert verdict.band_verdict == "excluded"
        assert verdict.literature_verdict == "excluded"
        assert verdict.sigma_fs_per_sqrt_m > 1e5

    def test_half_compton_reports_both_verdicts(self):
        # The coefficient exceeds the band even though the literature calls
        # the model viable; both outcomes are carried without reconciliation.
        verdict = compare_to_limits(LifetimeModel.half_compton())
        assert verdict.band_verdict == "excluded"
        assert verdict.literature_verdict == "viable"

    def test_k_scaled_inside_band_is_viable(self):
        verdict = compare_to_limits(LifetimeModel.k_scaled())
        assert LIMIT_BAND_FS_PER_SQRT_M[0] < verdict.sigma_fs_per_sqrt_m < LIMIT_BAND_FS_PER_SQRT_M[1]
        assert verdict.band_verdict == "viable"

    def test_custom_precise_estimate_is_viable(self):
        # tau chosen so sqrt(tau/c) = 0.05 fs m^-1/2, the finer estimate for
        # the K-scaled rule.
        tau = CODATA.c_m_per_s * (0.05e-15) ** 2
        verdict = compare_to_limits(LifetimeModel.custom(tau))
        assert abs(verdict.sigma_fs_per_sqrt_m - 0.05) < 1e-12
        assert verdict.band_verdict == "viable"
        assert verdict.literature_verdict is None

    def test_verdict_serialises(self, capsys):
        assert main(["dispersion", "--all"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["limit_band_fs_per_sqrt_m"] == [0.2, 0.3]
        rows = {row["model"]: row for row in payload["models"]}
        verdict = compare_to_limits(LifetimeModel.quasistationary())
        assert rows["quasistationary"]["sigma_fs_per_sqrt_m"] == verdict.sigma_fs_per_sqrt_m
        assert rows["quasistationary"]["band_verdict"] == "excluded"
        assert rows["quasistationary"]["literature_verdict"] == "excluded"
