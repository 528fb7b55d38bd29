"""Seeded inputs for the three workloads.

Each workload is a list of rounds.  Every round has the same fixed
structure (the same operations in the same order, each drawn from the same
stratum of its input range) and the seed only jitters values inside the
strata.  So the work in a run hardly depends on the seed, while the
values the program sees do.  Only the standard library's ``random`` is used,
so the inputs do not depend on the numpy version either.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

INVERSE_ALPHA_TARGET = 137.035999
_C_M_S = 299792458.0
#: h*c in MeV*m, from the exact SI constants.
H_C_MEV_M = 6.62607015e-34 * _C_M_S / (1e6 * 1.602176634e-19)


def default_table(root: Path) -> list[dict]:
    """The built-in species table, read as data."""
    return json.loads((root / "src" / "vacuumpairs" / "data" / "species.json").read_text("utf-8"))


def generated_table(seed: int, base: list[dict]) -> list[dict]:
    """The built-in species with every mass scaled by up to 10% either way."""
    rng = random.Random(f"species:{seed}")
    return [{**s, "mass_mev": s["mass_mev"] * 10 ** rng.uniform(-0.04, 0.04)} for s in base]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _jitter(rng: random.Random, value: float, frac: float = 0.05) -> float:
    return value * rng.uniform(1.0 - frac, 1.0 + frac)


# --- alpha_scan ---------------------------------------------------------------

#: Cutoffs span 0.1 MeV to 10 GeV; x = A/mc^2 spans 1e-6 to 1e4 in ten
#: one-decade strata, so the small-x cancellation region is always in the mix.
CUTOFF_RANGE_MEV = (0.1, 1e4)
X_DECADES = range(-6, 4)
REL_TOLS = 4  # rel_tol strata between 1e-12 and 1e-6


def _rel_tol(stratum: int, rng: random.Random) -> float:
    return 10 ** (-6.0 - 6.0 * (stratum % REL_TOLS + rng.random()) / REL_TOLS)


def alpha_scan_rounds(seed: int, rounds: int, tables: dict[str, list[dict]]) -> list[list[dict]]:
    """Quadrature and closed-form 1/alpha points, fits, thermal integrals and
    box-mode counts.  ``tables`` maps "default" and "generated" to species
    tables."""
    rng = _rng("alpha_scan", seed)
    deck = []
    for _ in range(rounds):
        ops = []
        for k, decade in enumerate(X_DECADES):
            table_name = "default" if k % 2 == 0 else "generated"
            x = 10 ** (decade + rng.random())
            lo, hi = CUTOFF_RANGE_MEV
            feasible = [s for s in tables[table_name] if lo <= x * s["mass_mev"] <= hi]
            species = rng.choice(feasible)
            point = {"table": table_name, "species": species["name"], "cutoff_mev": x * species["mass_mev"]}
            ops.append({"kind": "quad", **point, "oscillator": "mode-quantum", "rel_tol": _rel_tol(k, rng)})
            ops.append({"kind": "quad", **point, "oscillator": "fixed-gap", "rel_tol": _rel_tol(k + 2, rng)})
            ops.append({"kind": "closed", **point})
        for table_name in ("default", "generated"):
            for policy in ("global-constant", "mass-proportional"):
                target = INVERSE_ALPHA_TARGET * rng.uniform(0.95, 1.05)
                ops.append({"kind": "fit", "table": table_name, "policy": policy, "target": target})
        for low in (0.0, 2.0):  # 1 K to 100 K, 100 K to 10^4 K
            ops.append({"kind": "thermal", "temperature_k": 10 ** (low + 2.0 * rng.random())})
        # Lattice radii 50..175 and 175..300; R^2 = n + 1/2 keeps every
        # lattice point at least 1/2 away from the sphere.
        for low in (50.0, 175.0):
            radius = low + 125.0 * rng.random()
            ops.append({
                "kind": "box",
                "length_m": 10 ** rng.uniform(-11.0, -9.0),
                "radius_sq": math.floor(radius * radius) + 0.5,
            })
        deck.append(ops)
    return deck


# --- mc_flight ----------------------------------------------------------------

#: (branch, lifetime model, delay law, count process) of the aggregate
#: sampler.  "custom" lifetimes keep the expected count between 1e4 and 1e6
#: so exact Poisson draws are used; the half-Compton lifetime gives ~5e12
#: interactions per metre, past the normal-approximation switch at 1e9.
MC_BRANCHES = (
    ("normal_count-fixed", "half-compton", "fixed", "poisson"),
    ("poisson-fixed", "custom", "fixed", "poisson"),
    ("fixed_count-fixed", "half-compton", "fixed", "fixed"),
    ("normal_count-gamma", "half-compton", "exponential", "poisson"),
    ("poisson-gamma", "custom", "exponential", "poisson"),
    ("fixed_count-gamma", "half-compton", "exponential", "fixed"),
    ("normal_count-uniform", "half-compton", "uniform-fraction", "poisson"),
)
MC_SIZE = 1_000_000
#: One ensemble per round whose delay array (128 MB) is far beyond L2 and
#: within the 300 MiB L3 of the reference VM; it sets the peak RSS.
MC_LARGE = 16_000_000
#: (delay law, expected interactions) of the per-interaction loop; 4096
#: photons each, one chunk.
MC_LOOP = (("exponential", 10**3.0), ("uniform-fraction", 10**3.9))


def _flight(rng, branch, model, delay, process, photons, sampling="aggregate", interactions=None):
    length = 10 ** rng.uniform(-0.3, 0.3)
    op = {
        "kind": "flight",
        "branch": branch,
        "model": model,
        "length_m": length,
        "photons": photons,
        "seed": rng.randrange(2**32),
        "delay": delay,
        "process": process,
        "sampling": sampling,
        "workers": 1,
        "tau_s": None,
    }
    if model == "custom":
        count = interactions if interactions is not None else 10 ** rng.uniform(4.0, 6.0)
        op["tau_s"] = length / (_C_M_S * count)
    return op


def _with_twin(op: dict) -> list[dict]:
    return [op, {**op, "workers": 2}]


def mc_flight_rounds(seed: int, rounds: int) -> list[list[dict]]:
    """Photon-flight ensembles covering every sampler branch; each aggregate
    ensemble is followed by its n_workers=2 twin."""
    rng = _rng("mc_flight", seed)
    deck = []
    for _ in range(rounds):
        ops = []
        for branch in MC_BRANCHES:
            ops += _with_twin(_flight(rng, *branch, round(_jitter(rng, MC_SIZE))))
        large = round(MC_LARGE * rng.uniform(0.98, 1.0))
        ops += _with_twin(_flight(rng, *MC_BRANCHES[0], large))
        for delay, count in MC_LOOP:
            ops.append(_flight(
                rng, "per_interaction", "custom", delay, "poisson", 4096,
                sampling="per-interaction", interactions=count * 10 ** rng.uniform(-0.05, 0.05),
            ))
        deck.append(ops)
    return deck


def mc_memory_probe(round_ops: list[dict]) -> list[dict]:
    """The single-worker ensembles of one round, without the large one."""
    return [op for op in round_ops if op["workers"] == 1 and op["photons"] < MC_LARGE / 2]


# --- cli_session ----------------------------------------------------------------

SPECIES_FILE = "{species_file}"
SAMPLES_FILE = "{samples_file}"


def cli_session_rounds(seed: int, rounds: int) -> list[list[dict]]:
    """One ``python -m vacuumpairs`` call per operation.  ``argv`` may hold
    the placeholders SPECIES_FILE and SAMPLES_FILE, replaced by paths in the
    run's work directory."""
    rng = _rng("cli_session", seed)
    deck = []
    for r in range(rounds):
        photons = round(_jitter(rng, 100_000))
        length = 10 ** rng.uniform(-0.3, 0.3)
        ops = [
            {"kind": "alpha_fit", "policy": "global-constant", "target": INVERSE_ALPHA_TARGET * rng.uniform(0.95, 1.05)},
            {"kind": "alpha_fit", "policy": "mass-proportional", "target": INVERSE_ALPHA_TARGET * rng.uniform(0.95, 1.05)},
            {"kind": "alpha_eval", "cutoff_mev": 10 ** (-1.0 + (r % 5 + rng.random())), "species_file": False},
            {"kind": "alpha_eval", "cutoff_mev": 10 ** (-1.0 + ((r + 2) % 5 + rng.random())), "species_file": True},
            {"kind": "dispersion_all"},
            {"kind": "dispersion_custom", "tau_s": 10 ** rng.uniform(-24.0, -12.0)},
            {"kind": "planck_curve", "temperature_k": 10 ** rng.uniform(0.0, 4.0), "zero_point": r % 2 == 0},
            {"kind": "planck_integrate", "temperature_k": 10 ** rng.uniform(0.0, 4.0)},
            {"kind": "simulate", "length_m": length, "photons": photons, "seed": rng.randrange(2**32), "samples": False},
            {"kind": "simulate", "length_m": length, "photons": photons, "seed": rng.randrange(2**32), "samples": True},
            {"kind": "report"},
        ]
        for op in ops:
            op["argv"] = cli_argv(op)
        deck.append(ops)
    return deck


def cli_argv(op: dict) -> list[str]:
    kind = op["kind"]
    if kind == "alpha_fit":
        return ["alpha", "--fit", "--policy", op["policy"], "--target", repr(op["target"])]
    if kind == "alpha_eval":
        argv = ["alpha", "--eval", "--cutoff-mev", repr(op["cutoff_mev"])]
        return argv + (["--species-file", SPECIES_FILE] if op["species_file"] else [])
    if kind == "dispersion_all":
        return ["dispersion", "--all"]
    if kind == "dispersion_custom":
        return ["dispersion", "--model", "custom", "--custom-tau-s", repr(op["tau_s"])]
    if kind == "planck_curve":
        zpf = "--with-zpf" if op["zero_point"] else "--thermal-only"
        return ["planck", "--temperature-k", repr(op["temperature_k"]), zpf, "--format", "csv"]
    if kind == "planck_integrate":
        return ["planck", "--temperature-k", repr(op["temperature_k"]), "--thermal-only", "--integrate"]
    if kind == "simulate":
        argv = [
            "simulate", "--model", "half-compton", "--length-m", repr(op["length_m"]),
            "--photons", str(op["photons"]), "--seed", str(op["seed"]),
        ]
        return argv + (["--samples-out", SAMPLES_FILE] if op["samples"] else [])
    if kind == "report":
        return ["report"]
    raise ValueError(f"unknown cli op {kind!r}")
