"""Check that the working tree gives byte-identical outputs to a parent revision.

Usage (from the repository root):

    python3 tools/same_outputs.py --parent REV

Runs each argv of ``ARGVS`` as ``python -m vacuumpairs`` on the working
tree and on a clean export of REV (``bench.export``, a ``git archive``),
each call in an empty working directory of its own.  An output is the exit
code, stdout, stderr and every file the call writes; two outputs are the
same when they are equal byte for byte.  Prints one line per argv and exits
1, naming each output that differs, when any does.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import ROOT, export, git

SIMULATE_PHOTONS = "12295"  # three chunks of 4096 photons and a short fourth
#: Lifetime flags per count law: half-Compton gives normal counts (lambda
#: ~ 5e12 per metre); tau = 1 ps with L = lambda * c * tau gives lambda.
LIFETIMES = {
    "half-compton": ["--model", "half-compton", "--length-m", "1"],
    "lambda-3": ["--model", "custom", "--custom-tau-s", "1e-12", "--length-m", "8.99377374e-4"],
    "lambda-1e3": ["--model", "custom", "--custom-tau-s", "1e-12", "--length-m", "0.299792458"],
}


def _argvs() -> dict[str, list[str]]:
    argvs = {}
    for seed, fmt in itertools.product([[], ["--seed", "5"]], ["json", "csv"]):
        argvs[" ".join(["report", fmt, *seed])] = ["report", "--format", fmt, *seed]
    for (name, lifetime), delay, process, sampling in itertools.product(
        LIFETIMES.items(),
        ["fixed", "exponential", "uniform-fraction"],
        ["poisson", "fixed"],
        ["aggregate", "per-interaction"],
    ):
        argvs[f"simulate {name} {delay} {process} {sampling}"] = [
            "simulate", *lifetime, "--photons", SIMULATE_PHOTONS, "--seed", "11",
            "--delay", delay, "--process", process, "--sampling", sampling,
            "--samples-out", "samples.csv",
        ]
    argvs["simulate half-compton 1e5 samples"] = [
        "simulate", *LIFETIMES["half-compton"], "--photons", "100000", "--seed", "7",
        "--samples-out", "samples.csv",
    ]
    targets = [[], ["--target", "130"], ["--target", "140.1"], ["--target", "145"]]
    for policy, target in itertools.product(["global-constant", "mass-proportional"], targets):
        argvs[" ".join(["alpha fit", policy, *target])] = [
            "alpha", "--fit", "--policy", policy, *target,
        ]
    for chiral in ([], ["--chiral-quark-cutoff-mev", "100"]):
        argvs[" ".join(["alpha eval 292", *chiral])] = [
            "alpha", "--eval", "--cutoff-mev", "292", *chiral,
        ]
    argvs["dispersion all"] = ["dispersion", "--all"]
    argvs["dispersion custom 1e-20 s"] = ["dispersion", "--model", "custom", "--custom-tau-s", "1e-20"]
    for t in ("2.725", "300", "6000"):
        argvs[f"planck {t} K integrate"] = ["planck", "--temperature-k", t, "--integrate"]
        argvs[f"planck {t} K csv"] = ["planck", "--temperature-k", t, "--format", "csv"]
    return argvs


#: Label -> argv of every output compared.
ARGVS = _argvs()


def output(tree: Path, argv: list[str]) -> dict[str, bytes]:
    """Exit code, stdout, stderr and written files of one call on ``tree``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as cwd:
        proc = subprocess.run([sys.executable, "-m", "vacuumpairs", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=600)
        out = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
               "stderr": proc.stderr}
        for path in sorted(Path(cwd).iterdir()):
            out[path.name] = path.read_bytes()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    differ = []
    with tempfile.TemporaryDirectory(prefix="same-outputs-parent-") as tmp:
        parent = Path(tmp)
        export(parent_commit, parent)
        for label, call in ARGVS.items():
            before, after = output(parent, call), output(ROOT, call)
            parts = [k for k in sorted(before.keys() | after.keys()) if before.get(k) != after.get(k)]
            if parts:
                differ.append(label)
            print(f"{label:62s} {'DIFFERS in ' + ', '.join(parts) if parts else 'identical'}",
                  flush=True)
    print(f"{len(ARGVS) - len(differ)} of {len(ARGVS)} outputs identical to {args.parent}"
          f" ({parent_commit[:12]})")
    for label in differ:
        print(f"differs: {label}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
