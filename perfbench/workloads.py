"""Execute and check the operations of each workload.

An executor turns one generated operation into a call of the program and
returns the raw result; its checker returns ``(failure, known_defect)``:
a reason string, or a ``(name, reason)`` pair naming one of
``oracles.KNOWN_DEFECTS``; at most one of them is set.  ``run_rounds`` drives them as a closed loop
with a single client and times only the calls.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import inputs, oracles

# Code run before timing starts, both in each fresh interpreter that
# measures set-up time and in the benchmark process itself.
_WARMUP_COMMON = "import vacuumpairs\nvacuumpairs.default_registry()\n"
WARMUP = {
    "cli_session": _WARMUP_COMMON,
    "alpha_scan": _WARMUP_COMMON + """\
from vacuumpairs import numerics, statmech, vacuum_response
_e = vacuumpairs.default_registry().get("e")
vacuum_response.inverse_alpha_single_quadrature(_e, 1.0, spec=numerics.QuadratureSpec(rel_tol=1e-8))
vacuum_response.inverse_alpha_single(_e, 1.0)
vacuum_response.fit_cutoff(vacuumpairs.default_registry(), 137.035999)
statmech.integrate_thermal_density(statmech.ThermalState(300.0))
statmech.count_box_modes((1e-10, 1e-10, 1e-10), 50.5 * 6.2e-3)
""",
    "mc_flight": _WARMUP_COMMON + """\
from vacuumpairs import dispersion as _d
for _delay, _process in (("fixed", "poisson"), ("fixed", "fixed"), ("uniform-fraction", "poisson"),
                         ("exponential", "poisson")):
    _d.simulate_flight(_d.FlightConfig(
        length_m=1.0, lifetime_model=_d.LifetimeModel.half_compton(), n_photons=8192, seed=1,
        delay_distribution=_d.DelayDistribution(_delay),
        interaction_process=_d.InteractionProcess(_process)))
""",
}
# Run in the benchmark process only, after WARMUP and outside the set-up
# probes: one ensemble of the workload's usual size lets the allocator
# settle on the array sizes the workload uses before timing starts.
SETTLE = {
    "mc_flight": """\
from vacuumpairs import dispersion as _d
_d.simulate_flight(_d.FlightConfig(
    length_m=1.0, lifetime_model=_d.LifetimeModel.half_compton(), n_photons=1_100_000, seed=1,
    delay_distribution=_d.DelayDistribution("exponential")))
""",
}


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: import vacuumpairs from root/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


@dataclass
class Outcome:
    """Everything one pass over the rounds produced."""

    seconds: list[float] = field(default_factory=list)
    ops: list[dict] = field(default_factory=list)  # the operation each time belongs to
    failures: list[str] = field(default_factory=list)
    defects: list[tuple[str, str]] = field(default_factory=list)  # (known defect, reason)
    photons: int = 0
    photon_seconds: float = 0.0
    wall_s: float = 0.0
    child_spans: list[list] = field(default_factory=list)
    process_overhead_s: list[float] = field(default_factory=list)
    rounds_run: int = 0

    def extend(self, other: "Outcome") -> None:
        for name in ("seconds", "ops", "failures", "defects", "child_spans", "process_overhead_s"):
            getattr(self, name).extend(getattr(other, name))
        self.photons += other.photons
        self.photon_seconds += other.photon_seconds
        self.wall_s += other.wall_s
        self.rounds_run += other.rounds_run


def run_rounds(deck, execute, check, deadline: float, before_round=None) -> Outcome:
    """Run every round in order; no new round starts after ``deadline``.

    ``before_round(index)``, if given, runs untimed before each round.
    """
    out = Outcome()
    untimed = 0.0
    start = perf_counter()
    for index, ops in enumerate(deck):
        if out.rounds_run and perf_counter() > deadline:
            break
        if before_round is not None:
            t0 = perf_counter()
            before_round(index)
            untimed += perf_counter() - t0
        for op in ops:
            t0 = perf_counter()
            try:
                result = execute(op)
                error = None
            except Exception as exc:  # any exception is a failed operation
                result, error = None, f"{op['kind']}: raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if error is None:
                try:
                    error, defect = check(op, result, dt, out)
                except Exception as exc:  # an unparsable result is wrong
                    error, defect = f"{op['kind']}: unreadable result ({type(exc).__name__}: {exc})", None
                if defect:
                    out.defects.append(defect)
            if error:
                out.failures.append(error if error.startswith(op["kind"]) else f"{op['kind']}: {error}")
            out.seconds.append(dt)
            out.ops.append(op)
        out.rounds_run += 1
    out.wall_s = perf_counter() - start - untimed
    return out


# --- alpha_scan ---------------------------------------------------------------

def alpha_scan(tables: dict[str, list[dict]], species_file: Path):
    from vacuumpairs import numerics, particles, statmech, vacuum_response

    registries = {
        "default": particles.default_registry(),
        "generated": particles.load_registry(species_file),
    }
    species = {name: {s.name: s for s in reg} for name, reg in registries.items()}
    records = {name: {s["name"]: s for s in table} for name, table in tables.items()}
    oscillators = {m.value: m for m in vacuum_response.OscillatorModel}
    quadratures = {"integrals": 0, "misses": 0}

    def execute(op):
        kind = op["kind"]
        if kind == "quad":
            return vacuum_response.inverse_alpha_single_quadrature(
                species[op["table"]][op["species"]], op["cutoff_mev"],
                oscillators[op["oscillator"]], numerics.QuadratureSpec(rel_tol=op["rel_tol"]),
            )
        if kind == "closed":
            return vacuum_response.inverse_alpha_single(species[op["table"]][op["species"]], op["cutoff_mev"])
        if kind == "fit":
            return vacuum_response.fit_cutoff(registries[op["table"]], op["target"], op["policy"])
        if kind == "thermal":
            return statmech.integrate_thermal_density(statmech.ThermalState(op["temperature_k"]))
        length = op["length_m"]
        energy = op["radius_sq"] ** 0.5 * inputs.H_C_MEV_M / (2.0 * length)
        return statmech.count_box_modes((length, length, length), energy)

    def check(op, result, seconds, out):
        kind = op["kind"]
        if kind in ("quad", "closed"):
            record = records[op["table"]][op["species"]]
            if kind == "closed":
                return oracles.check_closed_form(result, record, op["cutoff_mev"])
            failure, defect = oracles.check_quadrature(
                result, record, op["cutoff_mev"], op["oscillator"], op["rel_tol"])
            quadratures["integrals"] += 1
            if defect:
                quadratures["misses"] += 1
                if quadratures["misses"] > oracles.quadrature_miss_budget(quadratures["integrals"]):
                    return (f"{quadratures['misses']} quadrature misses in {quadratures['integrals']} integrals,"
                            f" more than the known defect explains; this one: {defect[1]}"), None
            return failure, defect
        if kind == "fit":
            table = tables[op["table"]]
            if op["policy"] == "global-constant":
                return oracles.check_global_fit(result.cutoff_mev, table, op["target"]), None
            return oracles.check_scale_a(result.scale_a, table, op["target"]), None
        if kind == "thermal":
            return oracles.check_thermal(result, op["temperature_k"]), None
        want = oracles.box_mode_count(op["radius_sq"])
        return (None if result == want else f"counted {result} modes, want {want}"), None

    return execute, check


# --- mc_flight ----------------------------------------------------------------

def mc_flight():
    from vacuumpairs import dispersion

    models = {
        "half-compton": dispersion.LifetimeModel.half_compton(),
    }
    twins: dict[str, tuple[float, float]] = {}

    def config_of(op):
        model = models.get(op["model"]) or dispersion.LifetimeModel.custom(op["tau_s"])
        return dispersion.FlightConfig(
            length_m=op["length_m"],
            lifetime_model=model,
            n_photons=op["photons"],
            seed=op["seed"],
            delay_distribution=dispersion.DelayDistribution(op["delay"]),
            interaction_process=dispersion.InteractionProcess(op["process"]),
            sampling=dispersion.SamplingMethod(op["sampling"]),
            n_workers=op["workers"],
        )

    def execute(op):
        result = dispersion.simulate_flight(config_of(op))
        return result.mean_delay_s, result.stddev_delay_s, result.n_photons

    def check(op, result, seconds, out):
        mean, sd, n = result
        out.photons += n
        out.photon_seconds += seconds
        if n != op["photons"]:
            return f"{n} photons reported, {op['photons']} requested", None
        key = json.dumps({**op, "workers": None}, sort_keys=True)
        if op["workers"] == 1:
            twins[key] = (mean, sd)
        elif twins.pop(key, None) != (mean, sd):
            return f"n_workers={op['workers']} gave ({mean!r}, {sd!r}), not the n_workers=1 result", None
        tau = op["tau_s"] or float(oracles.lifetime_s(op["model"]))
        return oracles.check_flight(mean, sd, n, op["length_m"], tau, op["delay"], op["process"]), None

    return execute, check


# --- cli_session ----------------------------------------------------------------

def cli_session(root: Path, work: Path, tables: dict[str, list[dict]], traced: bool):
    """Executor running each operation as a fresh interpreter.

    Untraced: ``python -m vacuumpairs ARGV``.  Traced: the benchmark's
    launcher, which installs the span wrappers, calls
    ``vacuumpairs.cli.main(ARGV)`` and writes its spans to a file.
    """
    env = child_env(root)
    species_file = work / "species.json"
    samples_file = work / "samples.csv"
    spans_file = work / "spans.json"
    placeholders = {inputs.SPECIES_FILE: str(species_file), inputs.SAMPLES_FILE: str(samples_file)}
    if traced:
        prefix = [sys.executable, str(root / "perfbench" / "launch.py"), str(spans_file)]
    else:
        prefix = [sys.executable, "-m", "vacuumpairs"]

    def execute(op):
        argv = [placeholders.get(a, a) for a in op["argv"]]
        t0 = perf_counter()
        proc = subprocess.run(prefix + argv, cwd=root, env=env, capture_output=True, text=True, timeout=150)
        return proc, perf_counter() - t0

    def check(op, result, seconds, out):
        proc, wall = result
        if traced and spans_file.exists():
            spans = json.loads(spans_file.read_text("utf-8"))
            spans_file.unlink()
            out.child_spans.append(spans)
            main_s = sum(end - start for name, start, end, parent, _ in spans if name == "cli.main" and parent < 0)
            out.process_overhead_s.append(wall - main_s)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            return f"exit code {proc.returncode}: {tail[0]}", None
        return _check_cli(op, proc.stdout, seconds, tables, samples_file, out), None

    return execute, check


def _check_cli(op, stdout: str, seconds: float, tables, samples_file: Path, out: Outcome):
    kind = op["kind"]
    if kind == "planck_curve":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if len(rows) != 200:
            return f"{len(rows)} curve rows, want 200"
        for row in rows[::20]:
            want = oracles.planck_density(float(row["momentum_kg_m_s"]), op["temperature_k"], op["zero_point"])
            error = oracles.check_rel(float(row["energy_density_per_momentum"]), want, 1e-10, "Planck density")
            if error:
                return error
        return None
    payload = json.loads(stdout)
    if kind == "alpha_fit":
        table = tables["default"]
        if op["policy"] == "global-constant":
            return oracles.check_global_fit(payload["policy"]["cutoff_mev"], table, op["target"])
        scale_a = payload["policy"]["scale_a"]
        return oracles.check_scale_a(scale_a, table, op["target"]) or oracles.check_pair_volume(
            payload["pair_volume_compton_units"], scale_a)
    if kind == "alpha_eval":
        table = tables["generated" if op["species_file"] else "default"]
        want = oracles.alpha_total(table, op["cutoff_mev"])
        return oracles.check_rel(payload["total_inverse_alpha"], want, oracles.CLOSED_FORM_REL_TOL, "1/alpha total")
    if kind == "dispersion_all":
        got = {row["model"]: row["sigma_fs_per_sqrt_m"] for row in payload["models"]}
        for model in ("half-compton", "k-scaled", "quasistationary"):
            want = oracles.sigma_fs_per_sqrt_m(oracles.lifetime_s(model))
            error = oracles.check_rel(got.get(model, float("nan")), want, 1e-12, f"{model} sigma")
            if error:
                return error
        return None
    if kind == "dispersion_custom":
        want = oracles.sigma_fs_per_sqrt_m(op["tau_s"])
        return oracles.check_rel(payload["models"][0]["sigma_fs_per_sqrt_m"], want, 1e-12, "custom sigma")
    if kind == "planck_integrate":
        return oracles.check_thermal(payload["thermal_density_quadrature_j_m3"], op["temperature_k"]) or (
            oracles.check_rel(payload["stefan_boltzmann_j_m3"], oracles.stefan_boltzmann(op["temperature_k"]),
                              1e-12, "Stefan-Boltzmann density"))
    if kind == "simulate":
        mean, sd, n = payload["mean_delay_s"], payload["stddev_delay_s"], payload["n_photons"]
        out.photons += n
        out.photon_seconds += seconds
        tau = float(oracles.lifetime_s("half-compton"))
        error = oracles.check_flight(mean, sd, n, op["length_m"], tau, "fixed", "poisson")
        if error or not op["samples"]:
            return error
        return _check_samples(samples_file, n, mean)
    if kind == "report":
        if not payload["all_pass"]:
            return "report all_pass is false"
        rows = {row["quantity"]: row["computed"] for row in payload["rows"]}
        error = oracles.check_global_fit(rows["global-cutoff-mev"], tables["default"], oracles.INVERSE_ALPHA_TARGET)
        return error or oracles.check_scale_a(rows["mass-proportional-scale-a"], tables["default"],
                                              oracles.INVERSE_ALPHA_TARGET)
    raise ValueError(f"unknown cli op {kind!r}")


def _check_samples(path: Path, n: int, mean: float):
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        delays = [float(row[1]) for row in reader]
    path.unlink()
    if header != ["photon_index", "delay_s"] or len(delays) != n:
        return f"samples file has {len(delays)} rows, want {n}"
    base = delays[0]
    sample_mean = base + sum(d - base for d in delays) / n
    return oracles.check_rel(sample_mean, mean, 1e-9, "samples-file mean")
