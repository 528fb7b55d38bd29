"""Check every CLI output against the stored manifest ``tests/outputs.json``.

Usage (from the repository root):

    python3 tools/same_outputs.py            # compare with the manifest
    python3 tools/same_outputs.py --update   # rewrite it from this tree

Runs each argv of ``ARGVS`` in process through ``vacuumpairs.cli.main``, in
a working directory of its own that holds only ``INPUTS``, with stdout and
stderr captured as UTF-8 bytes.  Warnings are filtered as in a fresh
interpreter; an argv that starts with the interpreter's ``-W`` flag runs
under that filter instead.  An output is the exit code, stdout, stderr and
every file the call writes.  The manifest holds, per argv, the sha256 of
each of these parts, and the Python and numpy versions it was made with;
``tests/report.json`` is the default-seed ``report`` JSON itself, so that a
moved digit reads as a one-line diff.  Prints one line per argv whose entry
is new, moved (naming each part that moved) or gone, and exits 1 when any
is, unless ``--update`` wrote them.  ``tests/test_outputs.py`` makes the
same comparison in tier-1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "outputs.json"
GOLDEN = ROOT / "tests" / "report.json"
#: The argv whose stdout ``GOLDEN`` holds: ``report`` at the default seed.
REPORT = "report json"

SIMULATE_PHOTONS = "12295"  # three chunks of 4096 photons and a short fourth
#: Lifetime flags per count law: half-Compton gives normal counts (lambda
#: ~ 5e12 per metre); tau = 1 ps with L = lambda * c * tau gives lambda, and
#: lambda ~ 1.0000001e9 gives normal counts just above the switch.
LIFETIMES = {
    "half-compton": ["--model", "half-compton", "--length-m", "1"],
    "lambda-3": ["--model", "custom", "--custom-tau-s", "1e-12", "--length-m", "8.99377374e-4"],
    "lambda-1e3": ["--model", "custom", "--custom-tau-s", "1e-12", "--length-m", "0.299792458"],
    "lambda-1e9": ["--model", "custom", "--custom-tau-s", "1e-12", "--length-m", "299792.488"],
}

_SPECIES = json.loads(
    (ROOT / "src" / "vacuumpairs" / "data" / "species.json").read_text(encoding="utf-8")
)

#: File name -> text of each file that every call finds in its working
#: directory: a species table without the electron, which the report needs,
#: the built-in table with a 4x heavier electron, and three files that the
#: loader refuses (a truncated array, an integer past the int-to-str digit
#: limit, arrays nested past the recursion limit).
INPUTS = {
    "no-electron.json": json.dumps([
        {"name": "mu", "mass_mev": 105.6583755, "charge_q": -1.0, "color_factor": 1,
         "spin_degeneracy": 2},
        {"name": "tau", "mass_mev": 1776.86, "charge_q": -1.0, "color_factor": 1,
         "spin_degeneracy": 2},
    ]),
    "heavy-electron.json": json.dumps([
        record | {"mass_mev": 4 * record["mass_mev"]} if record["name"] == "e" else record
        for record in _SPECIES
    ]),
    "truncated.json": json.dumps(_SPECIES)[:100],
    "long-integer.json": "[" + "1" * 5001 + "]",
    "nested-too-deep.json": "[" * 200_000 + "]" * 200_000,
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
    argvs["simulate half-compton 1e5 samples 2 workers"] = [
        *argvs["simulate half-compton 1e5 samples"], "--workers", "2",
    ]
    # One full chunk, and one full chunk with a single photon after it.
    for photons in ("4096", "4097"):
        argvs[f"simulate half-compton {photons} samples"] = [
            "simulate", *LIFETIMES["half-compton"], "--photons", photons, "--seed", "7",
            "--samples-out", "samples.csv",
        ]
    # CSV has no table to write: refused before the run, so no samples file.
    argvs["simulate half-compton csv samples"] = [
        "simulate", *LIFETIMES["half-compton"], "--photons", SIMULATE_PHOTONS, "--seed", "11",
        "--format", "csv", "--samples-out", "samples.csv",
    ]
    # Refused before its first chunk (c*tau overflows): no samples file.
    argvs["simulate custom 1e300 s samples"] = [
        "simulate", "--model", "custom", "--custom-tau-s", "1e300", "--length-m", "1",
        "--photons", "10", "--seed", "1", "--samples-out", "samples.csv",
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
    argvs["alpha eval 292 csv"] = ["alpha", "--eval", "--cutoff-mev", "292", "--format", "csv"]
    argvs["alpha fit mass-proportional csv"] = [
        "alpha", "--fit", "--policy", "mass-proportional", "--format", "csv",
    ]
    argvs["dispersion all"] = ["dispersion", "--all"]
    argvs["dispersion all csv"] = ["dispersion", "--all", "--format", "csv"]
    argvs["dispersion custom 1e-20 s"] = ["dispersion", "--model", "custom", "--custom-tau-s", "1e-20"]
    for t in ("2.725", "300", "6000"):
        argvs[f"planck {t} K integrate"] = ["planck", "--temperature-k", t, "--integrate"]
        argvs[f"planck {t} K csv"] = ["planck", "--temperature-k", t, "--format", "csv"]
    argvs["planck 300 K json"] = ["planck", "--temperature-k", "300"]
    argvs["planck 2.725 K thermal 1001 points csv"] = [
        "planck", "--temperature-k", "2.725", "--thermal-only", "--points", "1001",
        "--x-max", "40", "--format", "csv",
    ]
    argvs["planck 1e-250 K zpf csv"] = [
        "planck", "--temperature-k", "1e-250", "--with-zpf", "--format", "csv",
    ]
    # Refused curves: the density overflows at the top, and 1/x below ~1e-308.
    argvs["planck 1e100 K"] = ["planck", "--temperature-k", "1e100"]
    argvs["planck 1e31 K x-max 1e-320"] = ["planck", "--temperature-k", "1e31", "--x-max", "1e-320"]
    # Refused thermal integrals: the density underflows, or overflows, a
    # double (below ~7e-74 K, above ~7e80 K).
    for t in ("1e-280", "1e150", "1e200"):
        argvs[f"planck {t} K integrate"] = ["planck", "--temperature-k", t, "--integrate"]
    # A non-finite CSV or JSON value, a mass-proportional target out of
    # reach, and lifetimes that underflow or overflow: each exits 2 with an
    # error that names its key or flag.
    argvs["alpha eval 1e308 csv"] = ["alpha", "--eval", "--cutoff-mev", "1e308", "--format", "csv"]
    argvs["alpha eval 1e308"] = ["alpha", "--eval", "--cutoff-mev", "1e308"]
    for target in ("1e-320", "1e308"):
        argvs[f"alpha fit mass-proportional --target {target}"] = [
            "alpha", "--fit", "--policy", "mass-proportional", "--target", target,
        ]
    for model, flags in [("k-scaled", ["--k-factor", "1e308"]),
                         ("k-scaled", ["--k-factor", "1e-320"]),
                         ("custom", ["--custom-tau-s", "1e-320"])]:
        argvs[" ".join(["dispersion", model, *flags])] = ["dispersion", "--model", model, *flags]
    argvs["simulate k-scaled --k-factor 1e308"] = [
        "simulate", "--model", "k-scaled", "--k-factor", "1e308", "--length-m", "1",
        "--photons", "10", "--seed", "1",
    ]
    # Encoded straight into an --output file; a refused one creates none.
    argvs["report csv output"] = ["report", "--format", "csv", "--output", "out.csv"]
    argvs["planck 300 K json output"] = ["planck", "--temperature-k", "300", "--output", "out.json"]
    argvs["alpha eval 1e308 output"] = [
        "alpha", "--eval", "--cutoff-mev", "1e308", "--output", "o.json",
    ]
    # ~50 batches of JSON encoder chunks, and a curve of the fewest points.
    for points in ("20000", "2"):
        argvs[f"planck 300 K {points} points json"] = [
            "planck", "--temperature-k", "300", "--points", points,
        ]
    # Exit 2 with an error that names what is missing or out of reach.
    argvs["dispersion all reference-species zz"] = [
        "dispersion", "--all", "--reference-species", "zz",
    ]
    argvs["report no-electron species file"] = ["report", "--species-file", "no-electron.json"]
    argvs["alpha fit mass-proportional --target 5e-324"] = [
        "alpha", "--fit", "--policy", "mass-proportional", "--target", "5e-324",
    ]
    # The threaded merge: only a run without --samples-out takes it.
    for workers in ("2", "3"):
        argvs[f"simulate half-compton 1e5 {workers} workers"] = [
            "simulate", *LIFETIMES["half-compton"], "--photons", "100000", "--seed", "7",
            "--workers", workers,
        ]
    # Seeds of one, two, four and five 32-bit words, serially and threaded:
    # 2**128 - 1 is the last seed whose hash takes 16 steps.
    for seed in ("0", "4294967296", "340282366920938463463374607431768211455",
                 "340282366920938463463374607431768211457"):
        argvs[f"simulate half-compton seed {seed} samples"] = [
            "simulate", *LIFETIMES["half-compton"], "--photons", SIMULATE_PHOTONS, "--seed", seed,
            "--samples-out", "samples.csv",
        ]
        argvs[f"simulate half-compton seed {seed} 2 workers"] = [
            "simulate", *LIFETIMES["half-compton"], "--photons", SIMULATE_PHOTONS, "--seed", seed,
            "--workers", "2",
        ]
    # 1075 chunks at 2 workers: two rounds of two batches of <= 269 chunks.
    argvs["simulate half-compton 4.4e6 2 workers"] = [
        "simulate", *LIFETIMES["half-compton"], "--photons", "4400000", "--seed", "7",
        "--workers", "2",
    ]
    # 1539 chunks at 3 workers: two rounds with a short last batch, 6 of
    # <= 257 chunks on 3 or more CPUs, 4 of <= 385 on 2.
    argvs["simulate half-compton 6.3e6 3 workers"] = [
        "simulate", *LIFETIMES["half-compton"], "--photons", "6300000", "--seed", "7",
        "--workers", "3",
    ]
    argvs["simulate lambda-1e9 fixed 2 workers"] = [
        "simulate", *LIFETIMES["lambda-1e9"], "--photons", SIMULATE_PHOTONS, "--seed", "11",
        "--workers", "2",
    ]
    argvs["simulate lambda-3 exponential 2 workers"] = [
        "simulate", *LIFETIMES["lambda-3"], "--photons", SIMULATE_PHOTONS, "--seed", "11",
        "--delay", "exponential", "--workers", "2",
    ]
    # A fixed count of fixed delays draws nothing and runs on the calling
    # thread whatever --workers asks for.
    argvs["simulate half-compton fixed fixed 2 workers"] = [
        "simulate", *LIFETIMES["half-compton"], "--photons", SIMULATE_PHOTONS, "--seed", "11",
        "--delay", "fixed", "--process", "fixed", "--workers", "2",
    ]
    # A negative report seed, a warning (0.518 expected interactions), and
    # the report's notes under a table whose electron is not the built-in one.
    argvs["report seed -5"] = ["report", "--seed", "-5"]
    argvs["simulate half-compton 1e-13 m warns"] = [
        "simulate", "--model", "half-compton", "--length-m", "1e-13", "--photons", "3",
        "--seed", "1",
    ]
    argvs["report heavy-electron species file"] = ["report", "--species-file", "heavy-electron.json"]
    # A reference species other than the built-in electron: dispersion's
    # rows, and simulate's fold into a custom lifetime (which reads no
    # species), for the muon and for a table's own electron.
    for table in (["--reference-species", "mu"], ["--species-file", "heavy-electron.json"]):
        argvs[" ".join(["dispersion all", *table])] = ["dispersion", "--all", *table]
        argvs[" ".join(["simulate half-compton", *table])] = [
            "simulate", *LIFETIMES["half-compton"], *table, "--photons", SIMULATE_PHOTONS,
            "--seed", "11",
        ]
    argvs["simulate custom 1e-12 s heavy-electron species file"] = [
        "simulate", *LIFETIMES["lambda-1e3"], "--species-file", "heavy-electron.json",
        "--photons", SIMULATE_PHOTONS, "--seed", "11",
    ]
    # Chiral cutoffs refused by the name of the one that is not finite.
    for quark, default in (("nan", "292"), ("100", "nan")):
        argvs[f"alpha eval {default} chiral {quark}"] = [
            "alpha", "--eval", "--cutoff-mev", default, "--chiral-quark-cutoff-mev", quark,
        ]
    # A target that --eval divides by is refused as --fit refuses it.
    for target in ("0", "-1"):
        argvs[f"alpha eval 292 --target {target}"] = [
            "alpha", "--eval", "--cutoff-mev", "292", "--target", target,
        ]
    # Targets that fit_cutoff reaches only by widening its bracket, down and up.
    for target in ("1e-3", "1e4"):
        argvs[f"alpha fit --target {target}"] = ["alpha", "--fit", "--target", target]
    # Refused species files: exit 1 with one line that names the file.
    for name in ("truncated", "long-integer", "nested-too-deep"):
        argvs[f"alpha fit {name} species file"] = [
            "alpha", "--fit", "--species-file", f"{name}.json",
        ]
    # Uniform fractions with every count summed exactly (lambda = 0.5), and
    # with most counts above 16, where the normal stand-in draws (lambda = 20).
    for lam, length in (("0.5", "1.49896229e-4"), ("20", "5.99584916e-3")):
        for process in ("poisson", "fixed"):
            argvs[f"simulate lambda-{lam} uniform-fraction {process} aggregate"] = [
                "simulate", "--model", "custom", "--custom-tau-s", "1e-12", "--length-m", length,
                "--photons", SIMULATE_PHOTONS, "--seed", "11", "--delay", "uniform-fraction",
                "--process", process, "--samples-out", "samples.csv",
            ]
    # Warnings turned into errors: the warning ends the run with exit 2, and
    # a run without one is unchanged.
    argvs["-W error simulate half-compton 1e-13 m"] = [
        "-W", "error", *argvs["simulate half-compton 1e-13 m warns"],
    ]
    argvs["-W error report"] = ["-W", "error", "report"]
    return argvs


#: Label -> argv of every output compared.
ARGVS = _argvs()


def run(argv: list[str], cwd: Path) -> tuple[int, bytes, bytes]:
    """``cli.main(argv)`` in process, in ``cwd``, as ``python -m vacuumpairs``
    would run it: the same warning filters and stdout and stderr encodings."""
    from vacuumpairs import cli

    # An argv may start with the interpreter's own "-W" flag.
    flags = argv[:2] if argv[0] == "-W" else []
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            # A fresh interpreter's filters, whatever the caller set (pytest
            # shows DeprecationWarning, for one).
            warnings.resetwarnings()
            for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                             ResourceWarning):
                warnings.simplefilter("ignore", category)
            if flags:
                warnings.simplefilter(flags[1])
            code = cli.main(argv[len(flags):])
    finally:
        os.chdir(here)
    return code, stdout.detach().getvalue(), stderr.detach().getvalue()


def output(
    argv: list[str], call: Callable[[list[str], Path], tuple[int, bytes, bytes]] = run
) -> dict[str, bytes]:
    """Exit code, stdout, stderr and written files of ``call(argv, cwd)``,
    with ``cwd`` a fresh directory that holds ``INPUTS``."""
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as cwd:
        for name, text in INPUTS.items():
            Path(cwd, name).write_text(text, encoding="utf-8")
        code, stdout, stderr = call(argv, Path(cwd))
        out = {"exit code": str(code).encode(), "stdout": stdout, "stderr": stderr}
        for path in sorted(Path(cwd).iterdir()):
            if path.name not in INPUTS:
                out[f"file {path.name}"] = path.read_bytes()
    return out


def digest(out: dict[str, bytes]) -> dict[str, str]:
    """The sha256 of each part of one output."""
    return {part: hashlib.sha256(data).hexdigest() for part, data in out.items()}


def run_all() -> tuple[dict[str, dict[str, str]], bytes]:
    """The digests of every argv's output in process, and ``REPORT``'s stdout."""
    digests = {}
    for label, argv in ARGVS.items():
        out = output(argv)
        digests[label] = digest(out)
        if label == REPORT:
            report = out["stdout"]
    return digests, report


def versions() -> dict[str, str]:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def compare(recorded: dict[str, dict[str, str]], digests: dict[str, dict[str, str]]) -> list[str]:
    """One line per argv whose entry in ``digests`` is new, moved or gone
    against ``recorded``; a moved one names each part that moved."""
    lines = []
    for label in dict.fromkeys([*digests, *recorded]):
        before, after = recorded.get(label), digests.get(label)
        if before is None:
            lines.append(f"new: {label}")
        elif after is None:
            lines.append(f"gone: {label}")
        elif parts := [p for p in sorted(before.keys() | after.keys())
                       if before.get(p) != after.get(p)]:
            lines.append(f"moved: {label} ({', '.join(parts)})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the manifest and the golden report from this tree")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    digests, report = run_all()
    changed = compare(load_manifest()["outputs"], digests)
    for line in changed:
        print(line)
    print(f"{len(digests)} argvs run; {len(changed)} entries new, moved or gone")
    if args.update:
        manifest = {**versions(), "outputs": digests}
        MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
        GOLDEN.write_bytes(report)
        print(f"wrote {MANIFEST.relative_to(ROOT)} and {GOLDEN.relative_to(ROOT)}")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
