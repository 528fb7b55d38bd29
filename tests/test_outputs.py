"""Every CLI output of ``tools/same_outputs.py``'s argvs against the stored
manifest ``tests/outputs.json`` and the golden ``tests/report.json``.

An output that moves fails here, naming the argv and each part that moved.
``python3 tools/same_outputs.py --update`` rewrites both files; a change
that moves an output names each moved argv, and why, in CHANGES.md.
"""

import difflib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Argvs also run as ``python -m vacuumpairs`` children, so that the
#: in-process runner stays checked against the interpreter it stands for.
CHILD_ARGVS = [
    "report json",
    "simulate half-compton 4097 samples",
    "alpha fit nested-too-deep species file",
    "-W error simulate half-compton 1e-13 m",
]


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def manifest(same_outputs):
    return same_outputs.load_manifest()


@pytest.fixture(scope="module")
def in_process(same_outputs):
    return same_outputs.run_all()


def failure(same_outputs, manifest, lines):
    """``lines`` under the versions the manifest was made with and those of this run."""
    now = same_outputs.versions()
    return "\n".join([
        f"outputs recorded under Python {manifest.get('python')}, numpy {manifest.get('numpy')};"
        f" this run: Python {now['python']}, numpy {now['numpy']}",
        *lines,
        "if the move is meant, run `python3 tools/same_outputs.py --update`"
        " and name each moved argv in CHANGES.md",
    ])


def test_every_output_matches_the_manifest(same_outputs, manifest, in_process):
    changed = same_outputs.compare(manifest["outputs"], in_process[0])
    assert not changed, failure(same_outputs, manifest, changed)


def test_default_report_matches_its_golden_copy(same_outputs, manifest, in_process):
    report, golden = in_process[1], same_outputs.GOLDEN.read_bytes()
    diff = difflib.unified_diff(
        golden.decode().splitlines(), report.decode().splitlines(),
        str(same_outputs.GOLDEN.relative_to(ROOT)), same_outputs.REPORT, lineterm="",
    )
    assert report == golden, failure(same_outputs, manifest, diff)


@pytest.mark.parametrize("label", CHILD_ARGVS)
def test_child_interpreter_matches_the_manifest(same_outputs, manifest, label):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def child(argv, cwd):
        flags = argv[:2] if argv[0] == "-W" else []
        proc = subprocess.run([sys.executable, *flags, "-m", "vacuumpairs", *argv[len(flags):]],
                              cwd=cwd, env=env, capture_output=True, timeout=600)
        return proc.returncode, proc.stdout, proc.stderr

    digests = same_outputs.digest(same_outputs.output(same_outputs.ARGVS[label], child))
    changed = same_outputs.compare({label: manifest["outputs"][label]}, {label: digests})
    assert not changed, failure(same_outputs, manifest, changed)
