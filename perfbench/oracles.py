"""Reference values the benchmark checks results against.

Nothing here imports ``vacuumpairs``: closed forms are evaluated in mpmath
at 40 digits from the benchmark's own copy of the SI constants, and Monte
Carlo results are judged against compound-law moments derived here.  A
check returns ``None`` when the result is acceptable and a one-line reason
when it is not; the two checks that can meet a known defect return a
``(failure, known_defect)`` pair instead.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

# A private context, so the process-wide mpmath precision stays untouched.
mp = mpmath.MPContext()
mp.dps = 40

# SI 2019 exact constants, the electron rest energy (CODATA 2018) and the
# CLI's default fit target.
H_J_S = mp.mpf("6.62607015e-34")
C_M_S = mp.mpf(299792458)
K_J_K = mp.mpf("1.380649e-23")
Q_E_C = mp.mpf("1.602176634e-19")
ELECTRON_MEV = mp.mpf("0.51099895")
INVERSE_ALPHA_TARGET = 137.035999
HBAR_J_S = H_J_S / (2 * mp.pi)
MEV_J = Q_E_C * 10**6

#: Relative accuracy demanded of every closed-form result.
CLOSED_FORM_REL_TOL = 1e-10
#: Below this A/mc^2 the closed form x - atan(x) cancels catastrophically
#: (3e-10 relative error at x = 1e-3, growing as 1/x^2).
CANCELLATION_X = 2e-3
#: Rounding bound of x - atan(x) in doubles: atan(x) carries about one ulp
#: of x, which is 3 eps/x^2 of the result x^3/3 (1.5 eps/x^2 was the most
#: measured).  A cancelling closed form may miss by at most
#: CANCELLATION_EPS_FACTOR * eps / x^2.
CANCELLATION_EPS_FACTOR = 4.0
DOUBLE_EPS = 2.220446049250313e-16

# Known defects of the program at the commit that introduced the benchmark.
# A result that misses its check in exactly one of these ways, by no more
# than was measured, is recorded under the defect's name instead of failing
# the operation, so the inputs that expose it stay in the workload (and keep
# being counted) while runs of the unchanged program still complete without
# failed operations.  Any other miss fails the operation.  Remove an entry
# once the program is fixed.
#: Closed form off by more than CLOSED_FORM_REL_TOL at x < CANCELLATION_X,
#: within the rounding bound of x - atan(x).
CLOSED_FORM_CANCELLATION = "closed_form_cancellation"
#: Adaptive Simpson on the mode-quantum integrand t^2/(t^2+m^2) accepts a
#: panel whose two Simpson estimates agree by coincidence, and returns a
#: value outside its requested rel_tol.  The integral is about x = A/mc^2
#: (in units of m), so the error such a false acceptance leaves is an area
#: a, relative error a/x, the same at every rel_tol; only the width of the
#: x windows where it happens shrinks as rel_tol tightens.  Measured over
#: x = 0.1..1e4 at rel_tol 1e-6..1e-12 and 180k integrals of the alpha_scan
#: mix (about one miss in 30k): a <= 0.06 in the windows
#: x = QUADRATURE_WINDOW_X * 2^k (+-0.02% wide at rel_tol 1e-6), a <= 9e-6
#: elsewhere, and x between 13.9 and 9.8e3 only.  Misses within these
#: measured limits (with some margin) count as this defect, up to
#: QUADRATURE_MISS_BUDGET of them in a run; any other miss fails.
QUADRATURE_TOLERANCE_MISS = "quadrature_tolerance_miss"
QUADRATURE_MISS_X = (10.0, 1e4)
QUADRATURE_MISS_AREA = 2e-5
QUADRATURE_WINDOW_X = 306.04
QUADRATURE_WINDOW_WIDTH = 1e-3
QUADRATURE_WINDOW_AREA = 0.08
#: (misses, per integral): at most 3 + 1/2000 of a run's integrals.
QUADRATURE_MISS_BUDGET = (3, 1 / 2000)
KNOWN_DEFECTS = (CLOSED_FORM_CANCELLATION, QUADRATURE_TOLERANCE_MISS)
#: z-score beyond which a Monte Carlo moment counts as wrong (p ~ 2e-9).
MC_Z_MAX = 6.0


def charge_weight(species: dict) -> Fraction:
    """Q^2 * colour * spin/2 of one species record, with Q snapped to n/3."""
    q = Fraction(round(float(species["charge_q"]) * 3), 3)
    return q * q * int(species["color_factor"]) * Fraction(int(species["spin_degeneracy"]), 2)


def _rel_err(got: float, want) -> float:
    want = mp.mpf(want)
    if want == 0:
        return abs(float(got))
    return float(abs((mp.mpf(got) - want) / want))


def alpha_term(species: dict, cutoff_mev: float, oscillator: str):
    """Exact 1/alpha contribution of one species at cutoff A.

    Mode-quantum: w/(2 pi) * (x - atan x); fixed gap: w/(2 pi) * x^3/3,
    with x = A/mc^2 and w the charge weight.
    """
    x = mp.mpf(cutoff_mev) / mp.mpf(species["mass_mev"])
    w = charge_weight(species)
    core = x - mp.atan(x) if oscillator == "mode-quantum" else x**3 / 3
    return mp.mpf(w.numerator) / w.denominator * core / (2 * mp.pi)


def alpha_total(table: list[dict], cutoff_mev) -> mp.mpf:
    return mp.fsum(alpha_term(s, cutoff_mev, "mode-quantum") for s in table)


def _false_acceptance_area(x: float) -> float:
    """Largest error area a quadrature miss at x may have as a known defect."""
    lo, hi = QUADRATURE_MISS_X
    if not lo <= x <= hi:
        return 0.0
    ratio = x / QUADRATURE_WINDOW_X
    if ratio >= 0.5 and abs(ratio / 2.0 ** round(math.log2(ratio)) - 1.0) <= QUADRATURE_WINDOW_WIDTH:
        return QUADRATURE_WINDOW_AREA
    return QUADRATURE_MISS_AREA


def check_quadrature(got: float, species: dict, cutoff_mev: float, oscillator: str, rel_tol: float):
    """(failure, (known defect, reason)): at most one of them is not None."""
    err = _rel_err(got, alpha_term(species, cutoff_mev, oscillator))
    if err <= rel_tol:
        return None, None
    x = cutoff_mev / float(species["mass_mev"])
    reason = f"quadrature rel err {err:.3g} > requested {rel_tol:.3g} at x={x:.6g}"
    if oscillator == "mode-quantum" and err * x <= _false_acceptance_area(x):
        return None, (QUADRATURE_TOLERANCE_MISS, reason)
    return reason, None


def quadrature_miss_budget(integrals: int) -> float:
    """Known quadrature misses a run of ``integrals`` integrals may have."""
    fixed, share = QUADRATURE_MISS_BUDGET
    return fixed + share * integrals


def check_closed_form(got: float, species: dict, cutoff_mev: float):
    """(failure, (known defect, reason)): at most one of them is not None."""
    if not (math.isfinite(got) and got >= 0.0):
        return f"closed form returned {got!r}", None
    err = _rel_err(got, alpha_term(species, cutoff_mev, "mode-quantum"))
    if err <= CLOSED_FORM_REL_TOL:
        return None, None
    x = cutoff_mev / float(species["mass_mev"])
    reason = f"closed form rel err {err:.3g} at x={x:.3g}"
    if x < CANCELLATION_X and err <= CANCELLATION_EPS_FACTOR * DOUBLE_EPS / (x * x):
        return None, (CLOSED_FORM_CANCELLATION, reason)
    return reason, None


def global_cutoff(table: list[dict], target: float, guess: float) -> mp.mpf:
    """Cutoff A at which the mode-quantum total equals ``target``."""
    return mp.findroot(lambda a: alpha_total(table, a) - target, mp.mpf(guess))


def check_global_fit(cutoff_mev: float, table: list[dict], target: float, x_tol: float = 1e-4):
    exact = global_cutoff(table, target, cutoff_mev)
    # Brent stops once the bracket is below x_tol (plus a few ulps of A).
    allowed = x_tol + 8 * 2.2e-16 * abs(cutoff_mev)
    diff = float(abs(mp.mpf(cutoff_mev) - exact))
    if not diff <= allowed:
        return f"fitted cutoff {cutoff_mev!r} is {diff:.3g} MeV from {float(exact)!r}"
    return None


def mass_proportional_scale(table: list[dict], target: float) -> mp.mpf:
    """a with sum_i w_i a^3 / (6 pi) = target."""
    s = sum((charge_weight(sp) for sp in table), Fraction(0))
    return mp.cbrt(6 * mp.pi * target * s.denominator / s.numerator)


def check_scale_a(scale_a: float, table: list[dict], target: float):
    err = _rel_err(scale_a, mass_proportional_scale(table, target))
    if not err <= CLOSED_FORM_REL_TOL:
        return f"scale a rel err {err:.3g}"
    return None


def check_pair_volume(volume_compton: float, scale_a: float):
    err = _rel_err(volume_compton, 6 * mp.pi**2 / mp.mpf(scale_a) ** 3)
    if not err <= CLOSED_FORM_REL_TOL:
        return f"pair volume rel err {err:.3g}"
    return None


def stefan_boltzmann(temperature_k: float) -> mp.mpf:
    kt = K_J_K * mp.mpf(temperature_k)
    return mp.pi**2 / 15 * kt**4 / (HBAR_J_S * C_M_S) ** 3


def check_thermal(got: float, temperature_k: float, rel_tol: float = 1e-9):
    err = _rel_err(got, stefan_boltzmann(temperature_k))
    if not err <= rel_tol:
        return f"thermal density rel err {err:.3g} > {rel_tol:.3g}"
    return None


def planck_density(p_kg_m_s: float, temperature_k: float, zero_point: bool) -> mp.mpf:
    """2 * (4 pi p^2 / h^3) * pc * (1/(e^x - 1) [+ 1/2]), x = pc/kT."""
    p = mp.mpf(p_kg_m_s)
    if p == 0:
        return mp.mpf(0)
    energy = p * C_M_S
    occupation = 1 / mp.expm1(energy / (K_J_K * mp.mpf(temperature_k)))
    if zero_point:
        occupation += mp.mpf(1) / 2
    return 2 * 4 * mp.pi * p**2 / H_J_S**3 * energy * occupation


def box_mode_count(radius_sq: float) -> int:
    """Non-negative integer triples with l.l <= radius_sq, origin excluded.

    Integer arithmetic only; callers choose radius_sq = n + 1/2 so that no
    lattice point lies within rounding distance of the sphere.
    """
    n = math.floor(radius_sq)
    side = np.arange(math.isqrt(n) + 1, dtype=np.int64)
    rem = n - side[:, None] ** 2 - side[None, :] ** 2
    rem = rem[rem >= 0]
    # Integer square root: the float guess is off by at most one here.
    root = np.sqrt(rem).astype(np.int64)
    root -= root * root > rem
    root += (root + 1) * (root + 1) <= rem
    return int(np.sum(root + 1)) - 1


def lifetime_s(model: str, custom_tau_s: float | None = None, k_factor: float = 31.9) -> mp.mpf:
    """Virtual-pair lifetime of the electron under one named rule."""
    gap = 2 * ELECTRON_MEV * MEV_J
    if model == "half-compton":
        return HBAR_J_S / gap
    if model == "k-scaled":
        return HBAR_J_S / (mp.mpf(k_factor) * gap)
    if model == "quasistationary":
        alpha = 1 / mp.mpf(INVERSE_ALPHA_TARGET)
        return HBAR_J_S / (alpha**5 * gap / 2)
    return mp.mpf(custom_tau_s)


def sigma_fs_per_sqrt_m(tau_s) -> float:
    return float(mp.sqrt(mp.mpf(tau_s) / C_M_S) * 10**15)


def check_rel(got: float, want, rel_tol: float, what: str):
    err = _rel_err(got, want)
    if not err <= rel_tol:
        return f"{what} rel err {err:.3g} > {rel_tol:.3g}"
    return None


# --- Monte Carlo --------------------------------------------------------------

#: (E[X]/tau, E[X^2]/tau^2, Var[X]/tau^2) of one interaction delay X.
_DELAY_MOMENTS = {
    "fixed": (1.0, 1.0, 0.0),
    "exponential": (1.0, 2.0, 1.0),
    "uniform-fraction": (0.5, 1.0 / 3.0, 1.0 / 12.0),
}


def flight_moments(length_m: float, tau_s: float, delay: str, process: str) -> tuple[float, float]:
    """Exact (mean, sd) of one photon's total delay under a compound law.

    Poisson count with mean lam: mean lam*E[X], Var lam*E[X^2].  Fixed
    count N = round(lam): mean N*E[X], Var N*Var[X].
    """
    lam = float(mp.mpf(length_m) / (C_M_S * mp.mpf(tau_s)))
    ex, ex2, var = _DELAY_MOMENTS[delay]
    if process == "fixed":
        n = round(lam)
        return n * ex * tau_s, math.sqrt(n * var) * tau_s
    return lam * ex * tau_s, math.sqrt(lam * ex2) * tau_s


def check_flight(mean: float, sd: float, n: int, length_m: float, tau_s: float, delay: str, process: str):
    want_mean, want_sd = flight_moments(length_m, tau_s, delay, process)
    if want_sd == 0.0:
        if abs(mean - want_mean) > 1e-12 * want_mean or sd > 1e-12 * want_mean:
            return f"degenerate ensemble: mean {mean!r} sd {sd!r}, want {want_mean!r} and 0"
        return None
    z_mean = abs(mean - want_mean) / (want_sd / math.sqrt(n))
    z_sd = abs(sd - want_sd) / (want_sd / math.sqrt(2.0 * (n - 1)))
    if not (z_mean <= MC_Z_MAX and z_sd <= MC_Z_MAX):
        return f"moments off: z_mean {z_mean:.3g}, z_sd {z_sd:.3g}"
    return None
