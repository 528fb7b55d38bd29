"""Photon flight-time dispersion from virtual-pair interactions: lifetime
models, the sqrt(tau/c) fluctuation coefficient, Monte Carlo transport,
pulse broadening and the comparison against astrophysical timing limits.

The underlying picture: a photon is trapped for one pair lifetime at each
interaction, so its total delay is a random sum over ~L/(c tau) interactions
and fluctuates as sqrt(N)*tau.  The alternative in which the photon advances
by c*tau_i during every interaction predicts exactly zero arrival-time
fluctuation; it is noted here for completeness and not simulated.

The Monte Carlo draws each chunk of photons from its own stream, then the
chunk's interaction counts, then their delays, with one expression per
count law, delay law and sampling method.  A count of 0 draws nothing.
Chunk c's stream is PCG64 seeded with the state that
``SeedSequence(entropy=seed, spawn_key=(c,))`` gives it, bit for bit.
numpy's ``SeedSequence(seed)`` hashes the seed once per call; the chunk
indices' words and ``generate_state`` then run as uint32 arrays over a
batch of at most ``_STATE_BATCH`` chunks (``_chunk_states``).
Above 1e9 expected interactions per photon, fixed delays keep a rounded
normal count, and any other delay law is one normal draw per photon with
the compound law's exact mean and variance; the skewness this drops is
below 6.7e-5 (see ``_POISSON_EXACT_MAX``).
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import os
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from .constants import CODATA
from .particles import ParticleSpecies, default_registry

# numpy is imported inside the functions that build arrays, so the
# closed-form commands start without it.
if TYPE_CHECKING:
    import numpy as np


class FlightConfigError(ValueError):
    """Monte Carlo configuration violates a precondition."""


class DegenerateFlightWarning(UserWarning):
    """Expected interaction count below one; statistics are degenerate."""


#: Fitted K of the k-scaled lifetime rule.
DEFAULT_K_FACTOR = 31.9


class LifetimeKind(str, enum.Enum):
    #: tau = hbar / (2 m c^2): half the Compton time of the pair gap.
    HALF_COMPTON = "half-compton"
    #: tau = hbar / (K * 2 m c^2) with fitted K (DEFAULT_K_FACTOR by default).
    K_SCALED = "k-scaled"
    #: tau = hbar / (alpha^5 m c^2): quasi-stationary pair-photon state.
    QUASISTATIONARY = "quasistationary"
    #: user-supplied lifetime in seconds.
    CUSTOM = "custom"


@dataclass(frozen=True)
class LifetimeModel:
    """A named virtual-pair lifetime rule tau(m)."""

    kind: LifetimeKind
    k_factor: float = DEFAULT_K_FACTOR
    custom_tau_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind is LifetimeKind.K_SCALED and not 0 < self.k_factor < math.inf:
            raise ValueError("k_factor must be finite and > 0")
        if self.kind is LifetimeKind.CUSTOM:
            if self.custom_tau_s is None or not 0 < self.custom_tau_s < math.inf:
                raise ValueError("custom model needs finite custom_tau_s > 0")

    @classmethod
    def half_compton(cls) -> "LifetimeModel":
        return cls(LifetimeKind.HALF_COMPTON)

    @classmethod
    def k_scaled(cls, k_factor: float = DEFAULT_K_FACTOR) -> "LifetimeModel":
        return cls(LifetimeKind.K_SCALED, k_factor=k_factor)

    @classmethod
    def quasistationary(cls) -> "LifetimeModel":
        return cls(LifetimeKind.QUASISTATIONARY)

    @classmethod
    def custom(cls, tau_s: float) -> "LifetimeModel":
        return cls(LifetimeKind.CUSTOM, custom_tau_s=tau_s)


def lifetime(model: LifetimeModel, species: ParticleSpecies | None = None) -> float:
    """Virtual-pair lifetime in seconds for the given species (by default the built-in
    table's electron; a custom lifetime reads no species).  Raises ``ValueError``, naming
    ``k_factor``, ``custom_tau_s`` or the species' ``mass_mev``, where tau/c, the square
    of ``sigma_coefficient``, is not a positive normal float: tau below ~6.7e-300 s."""
    if model.kind is LifetimeKind.CUSTOM:
        tau, inputs = float(model.custom_tau_s), f"custom_tau_s = {model.custom_tau_s}"
    else:
        species = default_registry().get("e") if species is None else species
        gap_j = 2.0 * species.mass_mev * CODATA.mev_to_j
        factor = {LifetimeKind.HALF_COMPTON: 1.0, LifetimeKind.K_SCALED: model.k_factor,
                  LifetimeKind.QUASISTATIONARY: CODATA.alpha_target**5 * 0.5}[model.kind]
        # factor * gap_j is 0.0 only where it underflows
        tau = CODATA.hbar_j_s / (factor * gap_j) if factor * gap_j else math.inf
        inputs = f"{species.name} mass_mev = {species.mass_mev}"
        if model.kind is LifetimeKind.K_SCALED:
            inputs = f"k_factor = {model.k_factor} and {inputs}"
    if sys.float_info.min <= tau / CODATA.c_m_per_s < math.inf:
        return tau
    raise ValueError(f"{model.kind.value} lifetime from {inputs}: tau = {tau} s, whose tau/c "
                     f"is not a positive normal float")


def sigma_coefficient(model: LifetimeModel, species: ParticleSpecies | None = None) -> float:
    """Flight-time fluctuation per sqrt(metre), sqrt(tau/c), in s*m^-1/2."""
    return math.sqrt(lifetime(model, species) / CODATA.c_m_per_s)


class DelayDistribution(str, enum.Enum):
    #: every interaction delays the photon by exactly tau
    FIXED_TAU = "fixed"
    #: exponentially distributed delay with mean tau
    EXPONENTIAL_TAU = "exponential"
    #: uniform fraction of tau in [0, tau]: photon traps a pair mid-lifetime
    UNIFORM_FRACTION = "uniform-fraction"


class InteractionProcess(str, enum.Enum):
    #: interaction count per photon drawn Poisson with mean L/(c tau)
    POISSON_COUNT = "poisson"
    #: interaction count fixed at round(L/(c tau))
    FIXED_COUNT = "fixed"


class SamplingMethod(str, enum.Enum):
    #: sample each photon's total delay from the compound law directly
    #: (Poisson count times tau, or a Gamma sum of exponentials); scales to
    #: astronomically large interaction counts
    AGGREGATE = "aggregate"
    #: draw every per-interaction delay explicitly; only viable for modest
    #: interaction counts, kept as a validation path
    PER_INTERACTION = "per-interaction"


def compound_moments(
    process: InteractionProcess,
    delay: DelayDistribution,
    expected_n: float,
    tau: float,
) -> tuple[float, float]:
    """Exact mean and variance of a photon's total delay, in s and s^2.

    The total is a sum of per-interaction delays X over a count K.  A
    Poisson count with mean lambda gives mean lambda*E[X] and variance
    lambda*E[X^2]; a fixed count N = round(lambda) gives N*E[X] and
    N*Var[X].  Fixed delays have X = tau, exponential delays mean tau and
    variance tau^2, uniform fractions mean tau/2 and variance tau^2/12.
    """
    step_mean, step_var = {
        DelayDistribution.FIXED_TAU: (tau, 0.0),
        DelayDistribution.EXPONENTIAL_TAU: (tau, tau * tau),
        DelayDistribution.UNIFORM_FRACTION: (0.5 * tau, tau * tau / 12.0),
    }[delay]
    if process is InteractionProcess.POISSON_COUNT:
        return expected_n * step_mean, expected_n * (step_var + step_mean * step_mean)
    count = round(expected_n)
    return count * step_mean, count * step_var


# Photons are processed in fixed-size chunks; chunk c draws from an RNG
# stream derived from (seed, c), so results are independent of how chunks
# are assigned to workers.
CHUNK_SIZE = 4096


@dataclass(frozen=True)
class FlightConfig:
    """Monte Carlo configuration for an ensemble of photons over length L."""

    length_m: float
    lifetime_model: LifetimeModel
    n_photons: int
    seed: int
    delay_distribution: DelayDistribution = DelayDistribution.FIXED_TAU
    interaction_process: InteractionProcess = InteractionProcess.POISSON_COUNT
    sampling: SamplingMethod = SamplingMethod.AGGREGATE
    n_workers: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.length_m < math.inf:
            raise FlightConfigError("length_m must be finite and > 0")
        for name, least in (("n_photons", 2), ("seed", 0), ("n_workers", 1)):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise FlightConfigError(f"{name} must be an integer, not {value!r}") from None
            if value < least:
                raise FlightConfigError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class PhotonFlightResult:
    """Arrival-time statistics for one simulated photon ensemble.

    ``analytic_sigma_s`` is the exact compound-law spread of the simulated
    process (``compound_moments``), not only the Poisson, fixed-delay value.
    """

    mean_delay_s: float
    stddev_delay_s: float
    n_photons: int
    analytic_sigma_s: float
    config: FlightConfig


# Above this mean the transformed-rejection Poisson sampler loses accuracy
# (its log-pmf differences cancel catastrophically, inflating the variance
# by ~lambda*eps), so the sampler switches to normal laws.  Fixed delays keep
# a rounded normal count on the tau lattice.  Any other delay law takes one
# normal draw per photon with the exact mean and variance of the compound
# law (``compound_moments``).  That drops its skewness: 2.12/sqrt(lambda)
# for a Poisson count with exponential delays, 1.30/sqrt(lambda) with
# uniform fractions and 2/sqrt(N) for a fixed count N with exponential
# delays (a fixed count of uniform fractions has none), all below 6.7e-5.
# A sample skewness resolves that at three standard errors of sqrt(6/n)
# only beyond n ~ 1.2e10 photons.  The mean sits at least
# sqrt(lambda/2) > 2.2e4 standard deviations above 0, so no delay is
# clipped.
_POISSON_EXACT_MAX = 1e9

# Per-interaction sampling draws all of a photon's interaction delays at
# once, 8 bytes each; above this expected count that array would outgrow
# memory (half-Compton lifetimes give ~5e12 per metre).
_PER_INTERACTION_MAX = 1e6

# Uniform-fraction photons with at most this many interactions get their
# uniforms summed exactly, 16 B per drawn interaction.
_UNIFORM_EXACT_MAX = 16

# The hash constants of numpy's SeedSequence (O'Neill's seed_seq, whose
# streams NEP 19 keeps stable): none depends on the data hashed.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(first: int, mult: int, steps: int) -> list[int]:
    """``first`` and the ``steps`` 32-bit products that follow it: hash
    step k XORs in constant k and multiplies by constant k + 1."""
    hashes = [first]
    for _ in range(steps):
        hashes.append(hashes[-1] * mult & _MASK32)
    return hashes


# SeedSequence.generate_state's hash constants for its eight uint32 words.
_GENERATE = _hash_constants(_INIT_B, _MULT_B, 8)

# The most chunks in one batch, the unit of work of the serial loop and of
# each thread: its states are derived together (16 KiB at most) and its
# moments kept until it is merged.  Any size gives the same states; the
# cost per chunk falls by ~5% from 128 to 512 and little beyond.
_STATE_BATCH = 512


def _words32(n: int) -> list[int]:
    """The 32-bit words of ``n >= 0``, least significant first, as
    SeedSequence splits an integer: 0 is one word."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _chunk_states(seed_seq: np.random.SeedSequence, start: int, stop: int) -> np.ndarray:
    """PCG64 seed states of chunks ``start`` to ``stop - 1``, four uint64
    each, from ``seed_seq = SeedSequence(seed)``.

    Row i is ``SeedSequence(entropy=seed, spawn_key=(start + i,))
    .generate_state(4, np.uint64)``, bit for bit: SeedSequence hashes the
    chunk index's words into ``seed_seq.pool`` with constants that do not
    depend on them, so those words and ``generate_state`` run as uint32
    operations over the rows.  Their first constant is
    ``_INIT_A * _MULT_A**(4 * max(4, w))`` for a seed of w words: the seed
    took 4 hash steps to load the pool, 12 to cross-mix it and 4 more per
    word past the fourth.  The rows are split where an index is a multiple
    of 2**32, so that only the lowest index word varies within a piece.
    """
    import numpy as np

    u32 = np.uint32
    pool = seed_seq.pool.tolist()
    seed_words = len(_words32(seed_seq.entropy))
    hash_const = _INIT_A * pow(_MULT_A, 4 * max(4, seed_words), 1 << 32) & _MASK32
    # Little-endian words, paired as generate_state pairs them on any host.
    states = np.empty((stop - start, 2, 4), "<u4")
    low = start
    while low < stop:
        high = min(stop, (low | _MASK32) + 1)
        index_words = _words32(low)
        hashes = _hash_constants(hash_const, _MULT_A, 4 * len(index_words))
        # One array, then numpy scalars and views: cheaper than ufuncs on ints.
        consts = np.array([_MIX_MULT_L, _MIX_MULT_R, *pool, *_GENERATE, *hashes], u32)
        mix_l, mix_r, mixed = consts[0], consts[1], consts[2:6]
        gen_xor, gen_mult, hashes = consts[6:14].reshape(2, 4), consts[7:15].reshape(2, 4), consts[15:]
        index_words[0] = np.arange(index_words[0], index_words[0] + high - low, dtype=u32)[:, None]
        for k, word in enumerate(index_words):
            hashed = (word ^ hashes[4 * k:4 * k + 4]) * hashes[4 * k + 1:4 * k + 5]
            hashed ^= hashed >> 16
            hashed *= mix_r
            mixed = mixed * mix_l - hashed
            mixed ^= mixed >> 16
        piece = states[low - start:high - start]
        np.bitwise_xor(mixed[:, None], gen_xor, out=piece)
        piece *= gen_mult
        piece ^= piece >> 16
        low = high
    return states.view("<u8").reshape(-1, 4).astype(np.uint64, copy=False)


class _ChunkSeed:
    """One row of ``_chunk_states``, handed to ``np.random.PCG64`` as the
    ``numpy.random.bit_generator.ISeedSequence`` that seeds it (registered
    as one in ``simulate_flight``, where numpy is imported)."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype: object = None) -> np.ndarray:
        return self.state


def _simulate_chunk(
    config: FlightConfig,
    expected_n: float,
    tau: float,
    moments: tuple[float, float],
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Delays of one chunk drawn from its stream ``rng``: its counts, then
    its delays.

    Above ``_POISSON_EXACT_MAX`` a delay law other than fixed skips the
    counts: each delay is one normal draw with the compound law's
    ``moments``, its (mean, variance).  A count of 0 draws nothing:
    ``gamma`` returns 0.0 for shape 0, and a size-0 draw leaves the stream
    where it was.
    """
    import numpy as np

    dist = config.delay_distribution
    if expected_n > _POISSON_EXACT_MAX and dist is not DelayDistribution.FIXED_TAU:
        mean, variance = moments
        return rng.normal(mean, math.sqrt(variance), size)
    if config.interaction_process is InteractionProcess.FIXED_COUNT:
        counts = np.full(size, np.rint(expected_n))
    elif expected_n <= _POISSON_EXACT_MAX:
        counts = rng.poisson(expected_n, size=size)
    else:
        # No clip at 0: a negative count needs z < -(lambda+0.5)/sqrt(lambda)
        # < -31 622, and numpy's ziggurat never returns |z| >= 14 (its tail
        # draw r - log1p(-U)/r with a 53-bit U gives |z| <= 3.65 + 36.8/3.65).
        counts = rng.normal(expected_n, math.sqrt(expected_n), size=size)
        np.rint(counts, out=counts)
    if dist is DelayDistribution.FIXED_TAU:
        return counts * tau
    if config.sampling is SamplingMethod.PER_INTERACTION:
        exponential = dist is DelayDistribution.EXPONENTIAL_TAU
        draw = rng.standard_exponential if exponential else rng.random
        return np.fromiter((draw(int(n)).sum() * tau for n in counts), np.float64, size)
    if dist is DelayDistribution.EXPONENTIAL_TAU:
        # Sum of N iid exponentials is Gamma(N, tau) exactly.
        return rng.gamma(counts, tau)
    # Uniform fractions: a sum of N uniforms is Irwin-Hall.  Up to
    # _UNIFORM_EXACT_MAX each photon's own uniforms are drawn and summed in
    # draw order; above it the normal with N times the mean and variance of
    # one interaction stands in.  Its clip at 0 sits sqrt(3N) > 6.9 standard
    # deviations below the mean there, so it moves the mean by less than
    # 1e-13 of itself.
    large = counts > _UNIFORM_EXACT_MAX
    small = np.where(large, 0, counts).astype(np.intp)
    delays = np.bincount(np.repeat(np.arange(size), small), rng.random(small.sum()), size) * tau
    step_mean, step_var = compound_moments(InteractionProcess.FIXED_COUNT, dist, 1.0, tau)
    normal = rng.normal(counts[large] * step_mean, np.sqrt(counts[large] * step_var))
    delays[large] = np.clip(normal, 0.0, None)
    return delays


def _chunk_moments(delays: np.ndarray) -> tuple[int, float, float, float]:
    """(count, first delay, mean offset from it, sum of squared deviations).

    Offsets from the chunk's own first delay keep the statistics shift
    invariant, and give exactly zero spread for a constant chunk instead of
    summation noise.  Reduces ``delays`` in place, so it overwrites them.
    """
    base = float(delays[0])
    delays -= base
    offset_mean = float(delays.sum()) / delays.size
    delays -= offset_mean
    delays *= delays
    return delays.size, base, offset_mean, float(delays.sum())


def _merge_moments(
    chunks: Iterable[tuple[int, float, float, float]],
) -> tuple[float, float]:
    """Mean and sample standard deviation of the chunks taken together.

    Merges in the given order, each chunk as it comes, with the pairwise
    update of Chan, Golub and LeVeque (1979), on offsets from the first
    chunk's first delay, so the result depends on the chunks alone, not on
    which worker drew them.
    """
    first = next(chunks := iter(chunks))
    shift = first[1]
    count, mean, m2 = 0, 0.0, 0.0
    for size, base, offset_mean, chunk_m2 in itertools.chain([first], chunks):
        total = count + size
        delta = (base - shift) + offset_mean - mean
        mean += delta * size / total
        m2 += chunk_m2 + delta * delta * count * size / total
        count = total
    return shift + mean, math.sqrt(m2 / (count - 1))


def simulate_flight(
    config: FlightConfig, *, sink: Callable[[int, np.ndarray], object] | None = None
) -> PhotonFlightResult:
    """Simulate photon delays over length L and aggregate their statistics.

    Each photon accumulates one delay per interaction with a virtual pair.
    Each chunk of ``CHUNK_SIZE`` photons is reduced to its moments as soon
    as it is drawn; a batch of at most ``_STATE_BATCH`` chunks keeps them
    (~180 B per chunk) until it is merged, and threads take one round of
    one batch each, merged before the next, so memory is bounded whatever
    ``n_photons``.  Before the reduction, ``sink(start, delays)`` gets each
    chunk with the index of its first photon, once and in photon order, on
    the calling thread; the reduction then overwrites ``delays``, so a sink
    copies what it keeps.  Results are bit-identical for a fixed
    (seed, n_photons) regardless of ``n_workers``, because randomness is
    derived per chunk from the seed and the chunk index alone and chunks
    are merged in index order (seeding as in the module docstring).  Without
    a sink at most min(n_workers, chunks, CPUs) threads run; a fixed count
    of fixed delays draws no random numbers and runs on the calling thread.
    Raises ``FlightConfigError`` when the expected interaction count per
    photon or the moments of the compound law are not finite, and for
    per-interaction sampling above ``_PER_INTERACTION_MAX``.
    """
    tau = lifetime(config.lifetime_model)
    expected_n = config.length_m / (CODATA.c_m_per_s * tau)
    if not math.isfinite(expected_n):
        raise FlightConfigError(
            f"expected interaction count L/(c tau) = {expected_n} is not finite "
            f"for length_m = {config.length_m} and lifetime tau = {tau} s"
        )
    mean, variance = compound_moments(
        config.interaction_process, config.delay_distribution, expected_n, tau
    )
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise FlightConfigError(
            f"total delay mean {mean} s or variance {variance} s^2 is not finite "
            f"for length_m = {config.length_m} and lifetime tau = {tau} s"
        )
    if expected_n < 1.0:
        warnings.warn(
            f"expected interaction count {expected_n:.3g} < 1; delay statistics "
            "are dominated by photons that never interact",
            DegenerateFlightWarning,
            stacklevel=2,
        )
    if config.sampling is SamplingMethod.PER_INTERACTION and expected_n > _PER_INTERACTION_MAX:
        raise FlightConfigError(
            f"per-interaction sampling of {expected_n:.3g} interactions per photon "
            f"exceeds {_PER_INTERACTION_MAX:.0e}; use aggregate sampling"
        )
    n = config.n_photons
    n_chunks = -(-n // CHUNK_SIZE)
    import numpy as np

    np.random.bit_generator.ISeedSequence.register(_ChunkSeed)
    # Hashed once per call; the workers only read it.
    seed_seq = np.random.SeedSequence(operator.index(config.seed))
    # A fixed count of fixed delays draws nothing, so threads would only pass the GIL around.
    serial = sink is not None or (
        config.interaction_process is InteractionProcess.FIXED_COUNT
        and config.delay_distribution is DelayDistribution.FIXED_TAU
    )
    workers = 1 if serial else min(config.n_workers, n_chunks, os.cpu_count() or 1)
    # Rounds of ``workers`` equal batches of at most _STATE_BATCH chunks; the last may be short.
    rounds = -(-n_chunks // (workers * _STATE_BATCH))
    size = -(-n_chunks // (workers * rounds))
    batches = range(0, n_chunks, size)

    def run_batch(first: int) -> list[tuple[int, float, float, float]]:
        moments = []
        states = _chunk_states(seed_seq, first, min(first + size, n_chunks))
        for start, state in zip(range(first * CHUNK_SIZE, n, CHUNK_SIZE), states):
            rng = np.random.Generator(np.random.PCG64(_ChunkSeed(state)))
            delays = _simulate_chunk(
                config, expected_n, tau, (mean, variance), rng, min(CHUNK_SIZE, n - start)
            )
            if sink is not None:
                sink(start, delays)
            moments.append(_chunk_moments(delays))
        return moments

    def merge(map_round: Callable) -> tuple[float, float]:
        # A round is mapped once the one before it is merged, in index order.
        done = (map_round(run_batch, batches[k:k + workers]) for k in range(0, len(batches), workers))
        return _merge_moments(itertools.chain.from_iterable(itertools.chain.from_iterable(done)))

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            mean_delay, stddev_delay = merge(pool.map)
    else:
        mean_delay, stddev_delay = merge(map)
    return PhotonFlightResult(
        mean_delay_s=mean_delay,
        stddev_delay_s=stddev_delay,
        n_photons=n,
        analytic_sigma_s=math.sqrt(variance),
        config=config,
    )


# --- pulse broadening and experimental reach -------------------------------

#: FWHM/RMS ratio for a Gaussian pulse, 2*sqrt(2*ln 2).
GAUSSIAN_FWHM_PER_RMS = 2.0 * math.sqrt(2.0 * math.log(2.0))


def fwhm_from_rms(rms_s: float) -> float:
    """Gaussian full width at half maximum for an RMS width."""
    if not 0 <= rms_s < math.inf:
        raise ValueError("rms_s must be finite and >= 0")
    return GAUSSIAN_FWHM_PER_RMS * rms_s


def rms_from_fwhm(fwhm_s: float) -> float:
    if not 0 <= fwhm_s < math.inf:
        raise ValueError("fwhm_s must be finite and >= 0")
    return fwhm_s / GAUSSIAN_FWHM_PER_RMS


def pulse_broadening(
    pulse_rms_s: float, sigma_s_per_sqrt_m: float, length_m: float
) -> float:
    """RMS width after propagation: sqrt(T^2 + sigma^2 * L) (widths add in
    quadrature)."""
    if not all(0 <= x < math.inf for x in (pulse_rms_s, sigma_s_per_sqrt_m, length_m)):
        raise ValueError("all arguments must be finite and >= 0")
    return math.hypot(pulse_rms_s, sigma_s_per_sqrt_m * math.sqrt(length_m))


def experiment_sensitivity(
    pulse_rms_s: float, precision_fraction: float, length_m: float
) -> float:
    """Smallest detectable fluctuation coefficient, in s*m^-1/2.

    From sqrt(T^2 + sigma^2 L) - T = sigma_frac * T:
    sigma = T * sqrt(sigma_frac * (2 + sigma_frac) / L).
    """
    if not all(0 < x < math.inf for x in (pulse_rms_s, precision_fraction, length_m)):
        raise ValueError("all arguments must be finite and > 0")
    return pulse_rms_s * math.sqrt(
        precision_fraction * (2.0 + precision_fraction) / length_m
    )


#: Astrophysical bound on flight-time jitter from GRB and pulsar timing.
LIMIT_BAND_FS_PER_SQRT_M = (0.2, 0.3)

# Viability stated in the source analyses for the three named models; the
# half-Compton and K-scaled rules are called viable there although their
# order-of-magnitude coefficients exceed the band, so both verdicts are
# reported side by side.
_LITERATURE_VERDICTS = {
    LifetimeKind.HALF_COMPTON: "viable",
    LifetimeKind.K_SCALED: "viable",
    LifetimeKind.QUASISTATIONARY: "excluded",
}


@dataclass(frozen=True)
class LimitComparison:
    """One lifetime model against the astrophysical jitter limit band."""

    sigma_fs_per_sqrt_m: float
    band_verdict: str  # "excluded" iff sigma exceeds the upper band edge
    literature_verdict: str | None


def compare_to_limits(
    model: LifetimeModel, species: ParticleSpecies | None = None
) -> LimitComparison:
    """Classify a lifetime model against the 0.2-0.3 fs*m^-1/2 limit band."""
    sigma_fs = sigma_coefficient(model, species) * 1e15
    excluded = sigma_fs > LIMIT_BAND_FS_PER_SQRT_M[1]
    return LimitComparison(
        sigma_fs_per_sqrt_m=sigma_fs,
        band_verdict="excluded" if excluded else "viable",
        literature_verdict=_LITERATURE_VERDICTS.get(model.kind),
    )
