"""vacuumpairs benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli_session,alpha_scan,mc_flight}
        --seed N --seconds S --trace {0,1}

The untraced run (--trace 0) prints the end-to-end metrics; the traced run
(--trace 1) runs every round twice, untraced and then under span wrappers,
and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A result file with provenance goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Import the benchmark as a package from the repository root, and the
    # program from this checkout's src/ only.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

#: Wall time of one round, checks included, at the commit that introduced
#: the benchmark on a 2-CPU Xeon VM, rounded down for cli_session (so that
#: 25 s give the 110 calls a 90th percentile needs) and for mc_flight (so
#: that its noisy memory-bound rounds average over 13 rounds).  A run
#: executes round(seconds / ROUND_S) rounds, so every run of a workload does
#: the same work.
ROUND_S = {"cli_session": 2.5, "alpha_scan": 0.025, "mc_flight": 1.92}
#: Fresh interpreters started to measure set-up time; the median is reported.
SETUP_REPEATS = 21
#: No new round starts after this many seconds, so a run always ends.
HARD_STOP_S = 130.0
#: Percentiles the tail latency is taken from: the highest one that leaves
#: at least TAIL_BEYOND operations above it.  Deeper order statistics (the
#: 11th slowest of 38000 integrals) measure the host's preemptions, not the
#: program.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


# --- set-up -----------------------------------------------------------------------

def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy seconds, vacuumpairs seconds without numpy) from -X importtime.

    numpy counts only when it was imported while importing vacuumpairs.
    """
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if name.strip() in ("numpy", "vacuumpairs") and cum.strip().isdigit():
            cumulative[name.strip()] = int(cum) * 1e-6
    numpy_s = cumulative.get("numpy", 0.0)
    return numpy_s, cumulative.get("vacuumpairs", 0.0) - numpy_s


class SetupProbe:
    """Set-up time: fresh interpreters that import vacuumpairs, load the
    default table and run the workload's warm-up, each timed from outside.

    The probes are spread over the run (one before every few rounds), so a
    slow spell of the host shifts few of them and the median stays put.
    """

    def __init__(self, workload: str, traced: bool) -> None:
        from perfbench.workloads import WARMUP, child_env

        self.env = child_env(ROOT)
        self.command = [sys.executable] + (["-X", "importtime"] if traced else []) + ["-c", WARMUP[workload]]
        self.traced = traced
        self.walls: list[float] = []
        self.numpy_s: list[float] = []
        self.self_s: list[float] = []

    def sample(self, record: bool = True) -> None:
        t0 = perf_counter()
        proc = subprocess.run(self.command, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            _fail(f"set-up failed: {proc.stderr.strip().splitlines()[-1:]}")
        if not record:
            return
        self.walls.append(wall)
        if self.traced:
            numpy_s, self_s = parse_importtime(proc.stderr)
            self.numpy_s.append(numpy_s)
            self.self_s.append(self_s)

    def before_round(self, rounds: int):
        """Callback for run_rounds taking SETUP_REPEATS samples over ``rounds``."""
        plan = [k * rounds // SETUP_REPEATS for k in range(SETUP_REPEATS)]

        def hook(index: int) -> None:
            for _ in range(plan.count(index)):
                self.sample()

        return hook

    def result(self) -> dict:
        while len(self.walls) < SETUP_REPEATS:  # the run stopped early
            self.sample()
        result = {"setup_s": statistics.median(self.walls), "setup_runs_s": self.walls}
        if self.traced:
            result["import.numpy_s"] = statistics.median(self.numpy_s)
            result["import.vacuumpairs_self_s"] = statistics.median(self.self_s)
        return result


# --- provenance ---------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance(workload: str, seed: int, tables: dict[str, list[dict]]) -> dict:
    import numpy

    sources = sorted((ROOT / "src").rglob("*.py"))
    src_hash = hashlib.sha256()
    for path in sources:
        src_hash.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "src_lines": sum(len(p.read_text("utf-8").splitlines()) for p in sources),
        "species_table_sha256": {
            name: hashlib.sha256(json.dumps(t, sort_keys=True).encode()).hexdigest() for name, t in tables.items()
        },
    }


# --- metrics -------------------------------------------------------------------------

def tail(seconds: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND operations above it (nearest rank), else the median."""
    ordered = sorted(seconds)
    n = len(ordered)
    percentile = max((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9), default=50.0)
    return ordered[max(0, math.ceil(percentile * n / 100.0 - 1e-9) - 1)], percentile


def defect_counts(defects: list[tuple[str, str]]) -> dict[str, int]:
    from perfbench.oracles import KNOWN_DEFECTS

    return {name: sum(1 for n, _ in defects if n == name) for name in KNOWN_DEFECTS}


def end_to_end(outcome, setup: dict, workload: str) -> tuple[dict, dict]:
    """(gated metrics, extra figures for the result file)."""
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    tail_s, tail_pct = tail(outcome.seconds)
    attempted = len(outcome.seconds)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "ops_per_s": (attempted / sum(outcome.seconds), "1/s"),
        "op_p50_ms": (statistics.median(outcome.seconds) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
    }
    extra = {
        "op_tail_percentile": tail_pct,
        "op_count": attempted,
        "ops_failed_ratio": len(outcome.failures) / attempted,
        "ops_failed": len(outcome.failures),
        "mc_photons_per_s": outcome.photons / outcome.photon_seconds if outcome.photon_seconds else None,
        "known_defect_ops": defect_counts(outcome.defects),
        "rounds": outcome.rounds_run,
        "wall_s": outcome.wall_s,
        "setup_runs_s": setup["setup_runs_s"],
        "op_p50_ms_by_kind": {
            kind: statistics.median(s for s, op in zip(outcome.seconds, outcome.ops) if op["kind"] == kind) * 1e3
            for kind in sorted({op["kind"] for op in outcome.ops})
        },
    }
    return metrics, extra


def per_layer(spans: list[list], memory_spans: list[list], outcome, untraced_wall: float, setup: dict) -> dict:
    from perfbench.spans import summarize

    summary = summarize(spans)

    def get(name: str) -> dict:
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "evals": 0, "modes": 0})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    integrate, root = get("numerics.integrate"), get("numerics.find_root")
    boxes = get("statmech.count_box_modes")
    metrics = {
        "import.numpy_s": (setup["import.numpy_s"], "s"),
        "import.vacuumpairs_self_s": (setup["import.vacuumpairs_self_s"], "s"),
        "cli.main.calls": (get("cli.main")["calls"], "count"),
        "cli.main.s": (get("cli.main")["s"], "s"),
        "cli.process_overhead_ms": (
            statistics.median(outcome.process_overhead_s) * 1e3 if outcome.process_overhead_s else 0.0, "ms"),
        "report.build_report.calls": (get("report.build_report")["calls"], "count"),
        "report.build_report.s": (get("report.build_report")["s"], "s"),
        "report.build_report.self_s": (get("report.build_report")["self_s"], "s"),
        "numerics.integrate.calls": (integrate["calls"], "count"),
        "numerics.integrate.evals": (integrate["evals"], "count"),
        "numerics.integrate.evals_per_call": (ratio(integrate["evals"], integrate["calls"]), "count"),
        "numerics.integrate.ns_per_eval": (ratio(integrate["self_s"] * 1e9, integrate["evals"]), "ns"),
        "numerics.integrate.self_s": (integrate["self_s"], "s"),
        "numerics.find_root.calls": (root["calls"], "count"),
        "numerics.find_root.evals": (root["evals"], "count"),
        "numerics.find_root.self_s": (root["self_s"], "s"),
    }
    for name, fields in (
        ("vacuum_response.inverse_alpha_single_quadrature", ("calls", "s")),
        ("vacuum_response.inverse_alpha_total", ("calls", "self_s")),
        ("vacuum_response.fit_cutoff", ("calls", "s")),
        ("statmech.integrate_thermal_density", ("calls", "s")),
        ("statmech.count_box_modes", ("calls", "s")),
        ("dispersion.simulate_flight", ("calls", "s", "self_s")),
        ("particles.load_registry", ("calls", "s")),
    ):
        for f in fields:
            metrics[f"{name}.{f}"] = (get(name)[f], "count" if f == "calls" else "s")
    metrics["statmech.count_box_modes.modes_per_s"] = (ratio(boxes["modes"], boxes["s"]), "1/s")

    # Sampler speed comes from the traced pass's operation times; every
    # aggregate n_workers=1 ensemble is followed by its n_workers=2 twin.
    flights = [(s, op) for s, op in zip(outcome.seconds, outcome.ops) if op["kind"] == "flight"]
    from perfbench.inputs import MC_BRANCHES

    for branch in [b[0] for b in MC_BRANCHES] + ["per_interaction"]:
        chosen = [(s, op["photons"]) for s, op in flights if op["branch"] == branch and op["workers"] == 1]
        metrics[f"dispersion.ns_per_photon.{branch}"] = (
            ratio(sum(s for s, _ in chosen) * 1e9, sum(n for _, n in chosen)), "ns")
    single = sum(s for s, op in flights if op["sampling"] == "aggregate" and op["workers"] == 1)
    twins = sum(s for s, op in flights if op["workers"] == 2)
    metrics["dispersion.workers2_speedup"] = (ratio(single, twins), "ratio")
    metrics["dispersion.peak_alloc_bytes_per_photon"] = (max(
        (a["peak_alloc_bytes"] / a["photons"] for name, _, _, _, a in memory_spans if "peak_alloc_bytes" in a),
        default=0.0), "B")
    for name, count in defect_counts(outcome.defects).items():
        metrics[f"check.known_defect.{name}"] = (count, "count")
    metrics["trace.overhead_ratio"] = (ratio(outcome.wall_s, untraced_wall), "ratio")
    return metrics


# --- main ----------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vacuumpairs" / "__init__.py").is_file():
        _fail(f"no vacuumpairs sources under {ROOT / 'src'}")
    if args.seconds < 1:
        _fail("--seconds must be >= 1")

    started = perf_counter()
    from perfbench import inputs, workloads

    workload, seed, traced = args.workload, args.seed, bool(args.trace)
    out_dir = ROOT / "perfbench" / "out"
    work = out_dir / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        probe = SetupProbe(workload, traced)
        probe.sample(record=False)  # compiles the sources of a fresh checkout
        default = inputs.default_table(ROOT)
        tables = {"default": default, "generated": inputs.generated_table(seed, default)}
        species_file = work / "species.json"
        species_file.write_text(json.dumps(tables["generated"], indent=1), encoding="utf-8")
        exec(workloads.WARMUP[workload], {})
        exec(workloads.SETTLE.get(workload, ""), {})
        import vacuumpairs

        if not Path(vacuumpairs.__file__).resolve().is_relative_to(ROOT / "src"):
            _fail(f"imported vacuumpairs from {vacuumpairs.__file__}, not from {ROOT / 'src'}")

        rounds = max(1, round(args.seconds / ROUND_S[workload]))
        if workload == "alpha_scan":
            deck = inputs.alpha_scan_rounds(seed, rounds, tables)
        elif workload == "mc_flight":
            deck = inputs.mc_flight_rounds(seed, rounds)
        else:
            deck = inputs.cli_session_rounds(seed, rounds)

        def executor(traced_children: bool):
            if workload == "alpha_scan":
                return workloads.alpha_scan(tables, species_file)
            if workload == "mc_flight":
                return workloads.mc_flight()
            return workloads.cli_session(ROOT, work, tables, traced_children)

        deadline = started + HARD_STOP_S
        before_round = probe.before_round(len(deck))
        if not traced:
            outcome = workloads.run_rounds(deck, *executor(False), deadline, before_round)
            outcomes = [outcome]
        else:
            from perfbench.spans import Tracer, merge

            # Untraced and traced rounds alternate, so both passes see the
            # same drift of the host and of the allocator's state.
            plain, wrapped = executor(False), executor(True)
            outcome, traced_outcome = workloads.Outcome(), workloads.Outcome()
            tracer = Tracer()
            for index, ops in enumerate(deck):
                if index and perf_counter() > deadline:
                    break
                before_round(index)
                outcome.extend(workloads.run_rounds([ops], *plain, deadline))
                if workload != "cli_session":
                    tracer.install()
                try:
                    traced_outcome.extend(workloads.run_rounds([ops], *wrapped, deadline))
                finally:
                    tracer.uninstall()
            outcomes = [outcome, traced_outcome]
            spans = merge([tracer.export()] + traced_outcome.child_spans)
            memory_spans = spans
            if workload == "mc_flight":
                # Allocation tracking slows the sampler, so it gets a pass
                # of its own over the first round's smaller ensembles.
                memory = Tracer(track_memory=True)
                memory.install()
                try:
                    memory_round = [inputs.mc_memory_probe(deck[0])]
                    outcomes.append(workloads.run_rounds(memory_round, *wrapped, deadline))
                finally:
                    memory.uninstall()
                memory_spans = memory.export()
        setup = probe.result()
        if traced:
            metrics = per_layer(spans, memory_spans, traced_outcome, outcome.wall_s, setup)
            extra = {"rounds": traced_outcome.rounds_run, "untraced_wall_s": outcome.wall_s,
                     "traced_wall_s": traced_outcome.wall_s}
        else:
            metrics, extra = end_to_end(outcome, setup, workload)

        attempted = sum(len(o.seconds) for o in outcomes)
        failures = [f for o in outcomes for f in o.failures]
        defects = [d for o in outcomes for d in o.defects]
        record = {
            "provenance": provenance(workload, seed, tables),
            "args": vars(args),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "extra": extra,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:50],
            "known_defects": {
                name: {"count": count, "examples": [r for n, r in defects if n == name][:10]}
                for name, count in defect_counts(defects).items()
            },
        }
        stem = f"{workload}-seed{seed}-trace{int(traced)}"
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        if traced:
            (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:55s} {value:>16.6g} {unit}")
    if not traced:
        print(f"{'op_tail_ms percentile':55s} {extra['op_tail_percentile']:>16.6g} % of {extra['op_count']} ops")
        print(f"{'ops_failed_ratio':55s} {extra['ops_failed_ratio']:>16.6g} ({extra['ops_failed']}/{attempted})")
        if extra["mc_photons_per_s"]:
            print(f"{'mc_photons_per_s':55s} {extra['mc_photons_per_s']:>16.6g} 1/s")
    for name, count in defect_counts(defects).items():
        if count:
            example = next(r for n, r in defects if n == name)
            print(f"known defect {name} (not counted as failed): {count} ops, e.g. {example}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
