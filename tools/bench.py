"""Benchmark the working tree against a parent revision; write one BENCH file.

Usage (from the repository root):

    python3 tools/bench.py --parent REV --out BENCH_<n>.json

For every workload of perfbench it runs PAIRS pairs of
``perfbench/run.py --seconds SECONDS --trace 0``: one run on the working
tree and one on a clean export of REV (``git archive``, unpacked in a
temporary directory), alternating which tree runs first and cycling the
seed through SEEDS.  Before the first pair it byte-compiles ``src`` and
``perfbench`` in both trees, so neither recompiles its modules on every
process start.  Then it runs each workload traced once per tree, at
the first seed, for the per-layer metrics.  The output holds every run's
end-to-end metrics, their median and quartiles per tree, in how many pairs
the change was better (by the direction ``BENCHMARK.json`` declares), the
failed-operation counts, the per-layer metrics, the provenance of both
trees (commit, ``src/`` line count and hash) and of the host.  Each
end-to-end entry carries a ``verdict`` (see ``verdict``), also printed in
the summary lines: ``gain`` only when the change is better in at least nine
of ten pairs and its median beats the parent's by more than the parent's
quartile spread.
Both trees run with the same interpreter, so the comparison isolates the code.
``host.calibration`` records the host's speed once before the first pair,
once after the last and, in ``pairs``, once before every pair, so that
BENCH files from other hosts or days can be normalised: ns per iteration
of an empty Python loop, ns per ``numpy.random.Generator.standard_normal``
draw, each the best of CALIBRATION_REPEATS timings, and
``threads2_speedup``, the host's parallel capacity: how much faster two
threads hash a fixed buffer than one thread hashing it twice (2 with two
free CPUs, 1 with one).  The summary prints it before and after, and its
least and greatest reading over the pairs.  ``host.calibration_ratios``
holds after/before for each reading, and ``host.drift`` is true when any
ratio is more than DRIFT_LIMIT away from 1.  Then the host changed speed
during the pairs, so the medians mix two speeds, and the tool prints a
warning.
``cli_wall_ms`` holds the CLI wall time per subcommand: CLI_CALLS fresh
``python -m vacuumpairs`` calls of one fixed argv (CLI_ARGVS) per subcommand
and tree, the trees alternating call by call.  It is reported, not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_session", "alpha_scan", "mc_flight")
SEEDS = (3, 4, 5)
PAIRS = 10
SECONDS = 25
CALIBRATION_REPEATS = 5
DRIFT_LIMIT = 0.10
#: One fixed argv per subcommand, timed as CLI_CALLS fresh calls per tree.
CLI_ARGVS = {
    "alpha": ["alpha", "--fit"],
    "planck": ["planck", "--temperature-k", "300", "--format", "csv"],
    "dispersion": ["dispersion", "--all"],
    "simulate": ["simulate", "--model", "half-compton", "--length-m", "1",
                 "--photons", "100000", "--seed", "7"],
    "report": ["report"],
}
CLI_CALLS = 21
#: Each end-to-end metric's declaration: its direction and its bound.
END_TO_END = {
    m["name"]: m
    for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
}


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, into: Path) -> None:
    """Unpack the committed files of ``rev`` into ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run(side: str, tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run on ``tree``; its result file as a dict."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    print(f"[{side}] {' '.join(argv[1:])}", file=sys.stderr, flush=True)
    subprocess.run(argv, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    result = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(result.read_text(encoding="utf-8"))


def threads2_speedup() -> float:
    """Parallel capacity: two ``hashlib.sha256`` digests of a fixed 16 MiB
    buffer (the digest releases the interpreter lock) run serially, over the
    same two run in two threads, each the best of CALIBRATION_REPEATS."""
    buffer = bytes(16 * 2**20)
    serial_s, threaded_s = [], []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        for _ in range(2):
            hashlib.sha256(buffer)
        serial_s.append(time.perf_counter() - t0)
        threads = [threading.Thread(target=hashlib.sha256, args=(buffer,)) for _ in range(2)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        threaded_s.append(time.perf_counter() - t0)
    return min(serial_s) / min(threaded_s)


def calibrate() -> dict:
    """Host speed: best ns per empty-loop iteration and per normal draw, and
    the ``threads2_speedup`` of two threads."""
    import numpy as np

    n = 1_000_000
    rng = np.random.default_rng(0)
    loop_s, draw_s = [], []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            pass
        loop_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        rng.standard_normal(n)
        draw_s.append(time.perf_counter() - t0)
    return {
        "loop_ns_per_iter": min(loop_s) / n * 1e9,
        "normal_ns_per_draw": min(draw_s) / n * 1e9,
        "threads2_speedup": threads2_speedup(),
    }


def drift(calibration: dict) -> tuple[bool, dict[str, float]]:
    """Whether the host drifted, and the after/before ratio of each reading."""
    before, after = calibration["before"], calibration["after"]
    ratios = {name: after[name] / before[name] for name in before}
    return any(abs(r - 1.0) > DRIFT_LIMIT for r in ratios.values()), ratios


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def better(metric: dict, parent: float, change: float) -> bool:
    """Whether the change's reading beats the parent's, in the declared direction."""
    return change < parent if metric["better"] == "lower" else change > parent


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """The verdict on one end-to-end metric; run i of each side is pair i.

    ``gain``: better in at least 9/10 of the pairs, with a median gap larger
    than the parent's quartile spread.  ``regression``: the median is worse
    by more than the metric's relative ``bound``.  ``unresolved``: the
    parent's quartile spread, relative to its median, exceeds the bound, and
    not every change run beats every parent run.  ``unchanged``: otherwise.
    """
    p, c = summary(parent), summary(change)
    wins = sum(better(metric, a, b) for a, b in zip(parent, change))
    spread = p["q3"] - p["q1"]
    gap = abs(c["median"] - p["median"])
    if better(metric, p["median"], c["median"]) and 10 * wins >= 9 * len(parent) and gap > spread:
        return "gain"
    if better(metric, c["median"], p["median"]) and gap > metric["bound"] * abs(p["median"]):
        return "regression"
    if spread > metric["bound"] * abs(p["median"]) and not all(
        better(metric, a, b) for a in parent for b in change
    ):
        return "unresolved"
    return "unchanged"


def time_cli(trees: dict[str, Path]) -> dict[str, dict[str, list[float]]]:
    """Wall ms of CLI_CALLS fresh calls of each CLI_ARGVS argv, per tree."""
    times = {side: {name: [] for name in CLI_ARGVS} for side in trees}
    for name, argv in CLI_ARGVS.items():
        for call in range(CLI_CALLS):
            order = list(trees) if call % 2 == 0 else list(reversed(trees))
            for side in order:
                env = dict(os.environ)
                env["PYTHONPATH"] = os.pathsep.join(
                    filter(None, [str(trees[side] / "src"), env.get("PYTHONPATH")])
                )
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-m", "vacuumpairs", *argv], cwd=trees[side],
                               env=env, check=True, stdout=subprocess.DEVNULL)
                times[side][name].append((time.perf_counter() - t0) * 1e3)
    return times


def cli_summary(times: dict[str, dict[str, list[float]]]) -> dict:
    """Per subcommand: its argv, each tree's ``summary`` of its wall times
    and the change's median over the parent's."""
    out = {}
    for name, argv in CLI_ARGVS.items():
        parent, change = summary(times["parent"][name]), summary(times["change"][name])
        out[name] = {
            "unit": "ms",
            "argv": argv,
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"],
        }
    return out


def threads2_summary(calibration: dict) -> str:
    """The summary line of the host's ``threads2_speedup`` readings."""
    before, after = (calibration[when]["threads2_speedup"] for when in ("before", "after"))
    per_pair = [reading["threads2_speedup"] for reading in calibration["pairs"]]
    return (f"host threads2_speedup before {before:.2f}, after {after:.2f}; "
            f"over the {len(per_pair)} pairs {min(per_pair):.2f} to {max(per_pair):.2f}")


def compile_trees(trees: dict[str, Path]) -> None:
    # A fresh export has no bytecode, and under PYTHONDONTWRITEBYTECODE=1 it
    # would recompile every module in each process it starts (~10 ms each).
    for tree in trees.values():
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True
        )


def compare(trees: dict[str, Path]) -> tuple[dict, list[dict]]:
    """Every workload's pairs and traced runs, and the host ``calibrate``
    reading taken before each pair."""
    workloads = {}
    pair_calibrations = []
    for w_index, workload in enumerate(WORKLOADS):
        runs: dict[str, list[dict]] = {side: [] for side in trees}
        for pair in range(PAIRS):
            pair_calibrations.append({"workload": workload, "pair": pair} | calibrate())
            order = list(trees) if (w_index + pair) % 2 == 0 else list(reversed(trees))
            for side in order:
                runs[side].append(run(side, trees[side], workload, SEEDS[pair % len(SEEDS)], 0))
        traced = {side: run(side, tree, workload, SEEDS[0], trace=1) for side, tree in trees.items()}
        end_to_end = {}
        for name, first in runs["parent"][0]["metrics"].items():
            values = {
                side: [r["metrics"][name]["value"] for r in side_runs]
                for side, side_runs in runs.items()
            }
            metric = END_TO_END[name]
            end_to_end[name] = {
                "unit": first["unit"],
                "parent": summary(values["parent"]),
                "change": summary(values["change"]),
                "change_better_pairs": sum(
                    better(metric, p, c) for p, c in zip(values["parent"], values["change"])
                ),
                "verdict": verdict(metric, values["parent"], values["change"]),
            }
        workloads[workload] = {
            "end_to_end": end_to_end,
            "failed": {
                side: [f"{r['failed']}/{r['attempted']}" for r in side_runs]
                for side, side_runs in runs.items()
            },
            "per_layer": {
                name: {"unit": first["unit"]} | {
                    side: traced[side]["metrics"][name]["value"] for side in trees
                }
                for name, first in traced["parent"]["metrics"].items()
            },
            "provenance": {side: runs[side][0]["provenance"] for side in trees},
        }
    return workloads, pair_calibrations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    args = parser.parse_args(argv)
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export(parent_commit, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        compile_trees(trees)
        calibration = {"before": calibrate()}
        workloads, calibration["pairs"] = compare(trees)
        cli_wall_ms = cli_summary(time_cli(trees))
        calibration["after"] = calibrate()
    drifted, ratios = drift(calibration)
    provenance = workloads[WORKLOADS[0]]["provenance"]
    record = {
        "command": f"python3 tools/bench.py --parent {args.parent} --out {args.out.name}",
        "seeds": list(SEEDS),
        "pairs": PAIRS,
        "seconds": SECONDS,
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": {
            "base_commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        },
        "host": {k: provenance["change"][k] for k in ("python", "numpy", "nproc", "cpu_model")}
        | {"calibration": calibration, "calibration_ratios": ratios, "drift": drifted},
        "src_lines": {side: p["src_lines"] for side, p in provenance.items()},
        "src_sha256": {side: p["src_sha256"] for side, p in provenance.items()},
        "workloads": {
            name: {k: v for k, v in w.items() if k != "provenance"} for name, w in workloads.items()
        },
        "cli_wall_ms": cli_wall_ms,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, w in record["workloads"].items():
        for metric, m in w["end_to_end"].items():
            print(f"{name:12s} {metric:12s} {m['parent']['median']:>12.6g} -> "
                  f"{m['change']['median']:>12.6g} {m['unit']:5s} "
                  f"better in {m['change_better_pairs']}/{PAIRS} pairs: {m['verdict']}")
    for name, m in cli_wall_ms.items():
        print(f"cli wall     {name:12s} {m['parent']['median']:>12.6g} -> "
              f"{m['change']['median']:>12.6g} ms    x{m['change_over_parent']:.3f}")
    print(threads2_summary(calibration))
    if drifted:
        readings = ", ".join(f"{name} x{r:.2f}" for name, r in ratios.items())
        print(f"warning: the host's speed drifted during the pairs (after/before: {readings});"
              f" medians mix two speeds", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
