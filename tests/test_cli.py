import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vacuumpairs
from vacuumpairs import dispersion, report
from vacuumpairs.cli import main
from vacuumpairs.constants import CODATA
from vacuumpairs.particles import default_registry, load_registry


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def electron_only_file(tmp_path):
    e = default_registry().get("e")
    path = tmp_path / "electron.json"
    path.write_text(
        json.dumps(
            [
                {
                    "name": "e",
                    "mass_mev": e.mass_mev,
                    "charge_q": -1.0,
                    "color_factor": 1,
                    "spin_degeneracy": 2,
                }
            ]
        ),
        encoding="utf-8",
    )
    return path


def heavy_electron_file(tmp_path):
    """The built-in table with the electron at 1 MeV."""
    records = [
        {
            "name": s.name,
            "mass_mev": 1.0 if s.name == "e" else s.mass_mev,
            "charge_q": float(s.charge_q),
            "color_factor": s.color_factor,
            "spin_degeneracy": s.spin_degeneracy,
        }
        for s in default_registry()
    ]
    path = tmp_path / "heavy-electron.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


class TestAlphaCommand:
    def test_global_fit(self, capsys):
        code, out, _ = run(capsys, ["alpha", "--fit", "--policy", "global-constant"])
        assert code == 0
        payload = json.loads(out)
        assert 290.0 <= payload["policy"]["cutoff_mev"] <= 294.0
        assert abs(payload["ratio_to_target"] - 1.0) < 1e-6
        names = [row["name"] for row in payload["species"]]
        assert names == list(default_registry().names)

    def test_mass_proportional_fit_reports_volume(self, capsys):
        code, out, _ = run(capsys, ["alpha", "--fit", "--policy", "mass-proportional"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["policy"]["scale_a"] - 6.478) < 0.05
        assert abs(payload["pair_volume_compton_units"] - 0.218) < 0.005

    def test_mass_proportional_fit_needs_no_electron(self, capsys, tmp_path):
        # The pair volume in Compton units, 6 pi^2/a^3, is the same for every
        # species, so a table without "e" still reports it.
        muon = default_registry().get("mu")
        path = tmp_path / "muon.json"
        path.write_text(json.dumps([{
            "name": "mu", "mass_mev": muon.mass_mev, "charge_q": -1.0,
            "color_factor": 1, "spin_degeneracy": 2,
        }]), encoding="utf-8")
        argv = ["alpha", "--fit", "--policy", "mass-proportional", "--species-file", str(path)]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        a = payload["policy"]["scale_a"]
        assert payload["pair_volume_compton_units"] == 6.0 * math.pi**2 / a**3

    def test_eval_at_electron_mass(self, capsys):
        code, out, _ = run(capsys, ["alpha", "--eval", "--cutoff-mev", "0.51099895"])
        assert code == 0
        assert json.loads(out)["ratio_to_target"] < 0.01

    @pytest.mark.parametrize("flag", ["--cutoff-mev", "--chiral-quark-cutoff-mev"])
    def test_fit_names_an_ignored_flag(self, capsys, flag):
        code, out, err = run(capsys, ["alpha", "--fit", flag, "300"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and flag in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, ["alpha", "--eval", "--cutoff-mev", "292", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 10
        assert rows[0]["name"] == "e"

    def test_species_file_override(self, capsys, tmp_path):
        path = electron_only_file(tmp_path)
        code, out, _ = run(
            capsys, ["alpha", "--fit", "--species-file", str(path)]
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["policy"]["cutoff_mev"] / 0.51099895 - 862.59) < 0.1

    def test_chiral_eval(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "alpha",
                "--eval",
                "--cutoff-mev",
                "292",
                "--chiral-quark-cutoff-mev",
                "100",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio_to_target"] < 1.0
        by_name = {row["name"]: row for row in payload["species"]}
        assert by_name["u"]["cutoff_mev"] == 100.0
        assert by_name["e"]["cutoff_mev"] == 292.0

    def test_missing_mode_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["alpha"])
        assert code == 2

    @pytest.mark.parametrize("target", ["1e6", "1e-3"])
    def test_fit_beyond_the_default_bracket(self, capsys, target):
        # The roots lie near 2.1e6 MeV and 0.135 MeV, outside (1, 5000) MeV.
        code, out, _ = run(capsys, ["alpha", "--fit", "--target", target])
        assert code == 0
        assert abs(json.loads(out)["ratio_to_target"] - 1.0) < 1e-10

    def test_bad_species_file_is_failure(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[{", encoding="utf-8")
        code, _, err = run(capsys, ["alpha", "--fit", "--species-file", str(path)])
        assert code == 1
        assert "error" in err


class TestPlanckCommand:
    def test_integrate_matches_stefan_boltzmann(self, capsys):
        code, out, _ = run(
            capsys,
            ["planck", "--temperature-k", "2.725", "--thermal-only", "--integrate"],
        )
        assert code == 0
        assert abs(json.loads(out)["rel_dev"]) < 1e-6

    def test_integrate_takes_thermal_only(self, capsys):
        # The thermal integral has no zero-point term, so --thermal-only is
        # consistent with it, unlike --with-zpf, --points and --x-max.
        _, plain, _ = run(capsys, ["planck", "--temperature-k", "300", "--integrate"])
        code, out, _ = run(
            capsys, ["planck", "--temperature-k", "300", "--integrate", "--thermal-only"]
        )
        assert (code, out) == (0, plain)

    def test_cold_zpf_curve_is_cubic(self, capsys):
        # Beyond the Wien tail (x = pc/kT >= 10) the zero-point term carries
        # the curve and w scales as p^3.
        code, out, _ = run(
            capsys,
            ["planck", "--temperature-k", "1e-6", "--with-zpf", "--points", "5", "--x-max", "40"],
        )
        assert code == 0
        samples = json.loads(out)["samples"]
        v1 = samples[1]["energy_density_per_momentum"]
        v2 = samples[2]["energy_density_per_momentum"]
        assert abs(v2 / v1 - 8.0) < 1e-2

    def test_csv_curve(self, capsys):
        code, out, _ = run(
            capsys,
            ["planck", "--temperature-k", "300", "--format", "csv", "--points", "11"],
        )
        assert code == 0
        assert len(out.splitlines()) == 12  # header + samples

    def test_zero_temperature_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["planck", "--temperature-k", "0"])
        assert code == 2

    def test_species_file_is_rejected(self, capsys):
        # planck reads no species table, so argparse refuses the flag.
        argv = ["planck", "--temperature-k", "300", "--integrate", "--species-file", "x.json"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "--species-file" in err


class TestDispersionCommand:
    def test_single_model(self, capsys):
        code, out, _ = run(capsys, ["dispersion", "--model", "half-compton"])
        assert code == 0
        row = json.loads(out)["models"][0]
        assert abs(row["sigma_fs_per_sqrt_m"] - 1.4657) < 0.001
        assert row["literature_verdict"] == "viable"

    def test_all_models(self, capsys):
        code, out, _ = run(capsys, ["dispersion", "--all"])
        assert code == 0
        payload = json.loads(out)
        kinds = [row["model"] for row in payload["models"]]
        assert kinds == ["half-compton", "k-scaled", "quasistationary"]

    def test_all_models_honour_k_factor(self, capsys):
        _, out, _ = run(capsys, ["dispersion", "--all", "--k-factor", "10"])
        rows = {row["model"]: row for row in json.loads(out)["models"]}
        _, single, _ = run(capsys, ["dispersion", "--model", "k-scaled", "--k-factor", "10"])
        assert rows["k-scaled"] == json.loads(single)["models"][0]

    def test_quasistationary_excluded(self, capsys):
        code, out, _ = run(capsys, ["dispersion", "--model", "quasistationary"])
        assert code == 0
        assert json.loads(out)["models"][0]["band_verdict"] == "excluded"

    def test_unknown_model_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["dispersion", "--model", "bogus"])
        assert code == 2

    def test_model_or_all_required(self, capsys):
        code, _, _ = run(capsys, ["dispersion"])
        assert code == 2


class TestSimulateCommand:
    ARGS = [
        "simulate",
        "--model",
        "half-compton",
        "--length-m",
        "1",
        "--photons",
        "20000",
        "--seed",
        "7",
    ]

    def test_matches_analytic_sigma(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert (
            abs(payload["stddev_delay_s"] / payload["analytic_sigma_s"] - 1.0) < 0.02
        )

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, self.ARGS)
        _, second, _ = run(capsys, self.ARGS)
        assert first == second

    def test_worker_count_invariance(self, capsys):
        _, serial, _ = run(capsys, self.ARGS)
        _, parallel, _ = run(capsys, self.ARGS + ["--workers", "4"])
        assert json.loads(serial)["stddev_delay_s"] == json.loads(parallel)["stddev_delay_s"]

    def test_samples_csv(self, capsys, tmp_path):
        path = tmp_path / "delays.csv"
        code, _, _ = run(
            capsys,
            ["simulate", "--model", "half-compton", "--length-m", "1", "--photons", "50", "--seed", "1", "--samples-out", str(path)],
        )
        assert code == 0
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == 50
        assert float(rows[0]["delay_s"]) > 0

    def test_samples_file_is_what_csv_writer_gives(self, capsys, tmp_path):
        for workers in (1, 2):
            path = tmp_path / f"delays-{workers}.csv"
            argv = ["simulate", "--model", "half-compton", "--length-m", "1",
                    "--photons", "10000", "--seed", "3", "--workers", str(workers),
                    "--samples-out", str(path)]
            assert run(capsys, argv)[0] == 0
            config = dispersion.FlightConfig(
                length_m=1.0,
                lifetime_model=dispersion.LifetimeModel.half_compton(),
                n_photons=10_000,
                seed=3,
                n_workers=workers,
            )
            delays = dispersion.simulate_flight(config, keep_samples=True).delays_s
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(("photon_index", "delay_s"))
            writer.writerows(enumerate(map(repr, delays.tolist())))
            assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_samples_file_memory_is_that_of_the_delays(self, capsys, tmp_path):
        # The delays take 8 B per photon; the rows are formed one chunk of
        # Python floats at a time, not as one list of every delay.
        def argv(photons):
            return ["simulate", "--model", "half-compton", "--length-m", "1",
                    "--photons", str(photons), "--seed", "3",
                    "--samples-out", str(tmp_path / "delays.csv")]

        assert run(capsys, argv(2))[0] == 0  # warm numpy and the imports
        photons = 200_000
        tracemalloc.start()
        try:
            code = main(argv(photons))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak / photons < 20.0

    def test_fixed_count_beyond_int64(self, capsys):
        # ~5e20 interactions per photon, more than an int64 holds.
        argv = ["simulate", "--model", "half-compton", "--length-m", "1e8",
                "--photons", "10", "--seed", "1", "--process", "fixed"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        tau = dispersion.lifetime(dispersion.LifetimeModel.half_compton())
        expected = np.rint(1e8 / (CODATA.c_m_per_s * tau)) * tau
        assert payload["stddev_delay_s"] == 0.0
        assert abs(payload["mean_delay_s"] / expected - 1.0) < 1e-12

    def test_single_photon_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys,
            ["simulate", "--model", "half-compton", "--length-m", "1", "--photons", "1", "--seed", "7"],
        )
        assert code == 2

    def test_custom_requires_tau(self, capsys):
        code, _, _ = run(
            capsys,
            ["simulate", "--model", "custom", "--length-m", "1", "--photons", "10", "--seed", "7"],
        )
        assert code == 2

    def test_species_file_sets_reference_electron(self, capsys, tmp_path):
        # An electron at 1 MeV moves simulate's spread as it moves dispersion's.
        table = ["--model", "half-compton", "--species-file", str(heavy_electron_file(tmp_path))]
        _, out, _ = run(capsys, ["dispersion"] + table)
        sigma_1m_s = json.loads(out)["models"][0]["sigma_1m_fs"] * 1e-15
        argv = ["simulate"] + table + ["--length-m", "1", "--photons", "10", "--seed", "1"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert abs(json.loads(out)["analytic_sigma_s"] / sigma_1m_s - 1.0) < 1e-15

    def test_builtin_electron_echoes_its_model(self, capsys, tmp_path):
        # Only a reference species other than the built-in electron is folded
        # into a custom lifetime.
        tail = ["--length-m", "1", "--photons", "10", "--seed", "1"]
        for table in ([], ["--species-file", str(electron_only_file(tmp_path))]):
            code, out, _ = run(capsys, ["simulate", "--model", "half-compton"] + table + tail)
            assert code == 0
            assert json.loads(out)["config"]["lifetime_model"]["kind"] == "half-compton"

    def test_echo_names_the_requested_model_and_species(self, capsys):
        # The muon's lifetime runs as a custom model; the echo still says
        # what was asked for.
        argv = ["simulate", "--model", "half-compton", "--reference-species", "mu",
                "--length-m", "1", "--photons", "10", "--seed", "1"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["lifetime_model"]["kind"] == "custom"
        assert (payload["model"], payload["reference_species"]) == ("half-compton", "mu")


class TestReportCommand:
    def test_exit_zero_and_deterministic(self, capsys):
        code1, first, _ = run(capsys, ["report"])
        code2, second, _ = run(capsys, ["report"])
        assert code1 == 0 and code2 == 0
        assert first == second
        payload = json.loads(first)
        assert payload["all_pass"] is True
        assert {row["status"] for row in payload["rows"]} == {"pass", "info"}

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["report", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert {"quantity", "computed", "status"} <= set(rows[0])

    def test_injected_wrong_constant_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "weighted_degeneracy_sum", lambda registry: 9.0)
        code, out, err = run(capsys, ["report"])
        assert code == 1
        assert "FAIL weighted-degeneracy-sum" in err
        assert json.loads(out)["all_pass"] is False

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["report", "--override", "x=1"])
        assert code == 2
        assert "Traceback" not in err

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, ["report"])
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("names, leaders_ok", [(["e"], False), (["e", "u"], True)])
    def test_tables_without_minor_species(self, names, leaders_ok):
        values = report.alpha_fits(default_registry().subset(names), report.REPORT_SEED)
        assert values["alpha-leading-contributors-ok"] is leaders_ok
        assert values["max-minor-species-share"] == 0.0

    def test_species_file_sets_reference_electron(self, capsys, tmp_path, monkeypatch):
        # The closed forms and the Monte Carlo use the table's electron, as
        # dispersion and simulate do.
        path = heavy_electron_file(tmp_path)
        table = ["--species-file", str(path)]
        _, out, _ = run(capsys, ["dispersion", "--model", "half-compton"] + table)
        sigma = json.loads(out)["models"][0]["sigma_fs_per_sqrt_m"]
        lifetimes = []
        simulate_flight = dispersion.simulate_flight

        def spy(config, **kwargs):
            lifetimes.append(dispersion.lifetime(config.lifetime_model))
            return simulate_flight(config, **kwargs)

        monkeypatch.setattr(dispersion, "simulate_flight", spy)
        _, out, _ = run(capsys, ["report"] + table)
        rows = {row["quantity"]: row["computed"] for row in json.loads(out)["rows"]}
        assert rows["sigma-half-compton-fs-per-sqrt-m"] == sigma
        electron = load_registry(path).get("e")
        tau = dispersion.lifetime(dispersion.LifetimeModel.half_compton(), electron)
        assert lifetimes[:4] == [tau] * 4


# --- imports ----------------------------------------------------------------

NUMPY_FREE = {
    "fit-global": ["alpha", "--fit"],
    "fit-mass-proportional": ["alpha", "--fit", "--policy", "mass-proportional"],
    "eval": ["alpha", "--eval", "--cutoff-mev", "292"],
    "eval-species-file": ["alpha", "--eval", "--cutoff-mev", "292", "--species-file", "{species}"],
    "dispersion-all": ["dispersion", "--all"],
    "dispersion-custom": ["dispersion", "--model", "custom", "--custom-tau-s", "1e-20"],
    "planck-csv": ["planck", "--temperature-k", "300", "--format", "csv"],
    "planck-integrate": ["planck", "--temperature-k", "300", "--integrate"],
}
NUMPY_USERS = {
    "simulate": ["simulate", "--model", "half-compton", "--length-m", "1", "--photons", "100",
                 "--seed", "1"],
    "report": ["report"],
}
#: Modules that each numpy-free subcommand runs without.
NOT_LOADED = {
    "alpha": {"vacuumpairs.dispersion", "vacuumpairs.statmech"},
    "dispersion": {"vacuumpairs.numerics", "vacuumpairs.statmech", "vacuumpairs.vacuum_response"},
    "planck": {"vacuumpairs.particles", "fractions", "vacuumpairs.dispersion"},
}
# Imports vacuumpairs in one fresh interpreter and runs each argv, if any,
# through cli.main, then reports the exit codes and every module loaded.
IMPORT_PROBE = """\
import contextlib, io, json, sys
import vacuumpairs
argvs = json.loads(sys.argv[1])
if argvs:
    from vacuumpairs import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def child_env():
    """This process's environment, with the tested package first on the path."""
    src = str(Path(vacuumpairs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def probe_imports(argvs):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=child_env(), check=True, timeout=120,
    )
    return json.loads(proc.stdout)


class TestImports:
    def test_closed_form_commands_never_import_numpy(self, tmp_path):
        species = str(electron_only_file(tmp_path))
        argvs = [[a.format(species=species) for a in argv] for argv in NUMPY_FREE.values()]
        result = probe_imports(argvs)
        assert result["codes"] == [0] * len(argvs)
        assert "numpy" not in result["modules"]

    @pytest.mark.parametrize("argv", NUMPY_USERS.values(), ids=NUMPY_USERS.keys())
    def test_array_commands_import_numpy(self, argv):
        result = probe_imports([argv])
        assert result["codes"] == [0]
        assert "numpy" in result["modules"]

    def test_package_import_loads_no_submodule(self):
        result = probe_imports([])
        assert [m for m in result["modules"] if m.startswith("vacuumpairs.")] == []

    @pytest.mark.parametrize("argv", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
    def test_closed_form_commands_skip_report_and_thread_pool(self, tmp_path, argv):
        species = str(electron_only_file(tmp_path))
        result = probe_imports([[a.format(species=species) for a in argv]])
        assert result["codes"] == [0]
        assert not {"vacuumpairs.report", "concurrent.futures"} & set(result["modules"])

    @pytest.mark.parametrize("argv", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
    def test_closed_form_commands_load_only_their_modules(self, tmp_path, argv):
        species = str(electron_only_file(tmp_path))
        result = probe_imports([[a.format(species=species) for a in argv]])
        assert result["codes"] == [0]
        assert not NOT_LOADED[argv[0]] & set(result["modules"])

    def test_serial_simulate_skips_thread_pool(self):
        result = probe_imports([NUMPY_USERS["simulate"]])
        assert result["codes"] == [0]
        assert "concurrent.futures" not in result["modules"]

    def test_package_names_resolve_to_their_submodule_objects(self):
        for name in vacuumpairs.__all__:
            value = getattr(vacuumpairs, name)
            module = sys.modules[f"vacuumpairs.{vacuumpairs._SUBMODULE[name]}"]
            assert value is getattr(module, name)
        assert set(vacuumpairs.__all__) <= set(dir(vacuumpairs))
        with pytest.raises(AttributeError, match="no_such_name"):
            vacuumpairs.no_such_name


SIMULATE = ["simulate", "--model", "half-compton", "--length-m", "1", "--photons", "100", "--seed", "1"]
USAGE_ERRORS = {
    "planck-one-point": ["planck", "--temperature-k", "300", "--points", "1"],
    "negative-cutoff": ["alpha", "--eval", "--cutoff-mev", "-5"],
    "negative-custom-tau": ["dispersion", "--model", "custom", "--custom-tau-s", "-1"],
    "unknown-reference-species": ["dispersion", "--all", "--reference-species", "zz"],
    "simulate-csv": SIMULATE + ["--format", "csv"],
    "planck-integrate-csv": ["planck", "--integrate", "--temperature-k", "3", "--format", "csv"],
    # 2e6 expected interactions per photon, above the per-interaction cap.
    "per-interaction-cap": [
        "simulate", "--model", "custom", "--custom-tau-s", repr(1.0 / (CODATA.c_m_per_s * 2e6)),
        "--length-m", "1", "--photons", "2", "--seed", "1",
        "--sampling", "per-interaction", "--delay", "exponential",
    ],
    # Non-finite values, and values that overflow or underflow to 0.
    "infinite-length": ["simulate", "--model", "half-compton", "--length-m", "inf",
                        "--photons", "100", "--seed", "1"],
    "infinite-interaction-count": ["simulate", "--model", "half-compton", "--length-m", "1e300",
                                   "--photons", "100", "--seed", "1"],
    "infinite-temperature": ["planck", "--temperature-k", "inf"],
    "infinite-x-max": ["planck", "--temperature-k", "300", "--x-max", "inf"],
    "infinite-custom-tau": ["dispersion", "--model", "custom", "--custom-tau-s", "inf"],
    "infinite-cutoff": ["alpha", "--eval", "--cutoff-mev", "inf"],
    "nan-target": ["alpha", "--fit", "--target", "nan"],
    "zero-stefan-boltzmann-density": ["planck", "--temperature-k", "1e-300", "--integrate"],
    "zero-temperature-energy": ["planck", "--temperature-k", "1e-320"],
    "overflowing-temperature": ["planck", "--temperature-k", "1e300"],
    "zero-inverse-alpha": ["alpha", "--eval", "--cutoff-mev", "1e-320"],
    # --fit would ignore either cutoff.
    "fit-with-cutoff": ["alpha", "--fit", "--cutoff-mev", "5"],
    "fit-with-chiral-cutoff": ["alpha", "--fit", "--chiral-quark-cutoff-mev", "300"],
    # --eval, --all and --integrate would ignore these flags.
    "eval-with-policy": ["alpha", "--eval", "--cutoff-mev", "292", "--policy", "mass-proportional"],
    "all-with-model": ["dispersion", "--all", "--model", "half-compton"],
    "all-with-custom-tau": ["dispersion", "--all", "--custom-tau-s", "1e-20"],
    "integrate-with-zpf": ["planck", "--integrate", "--temperature-k", "300", "--with-zpf"],
    "integrate-with-points": ["planck", "--integrate", "--temperature-k", "300", "--points", "50"],
    "integrate-with-x-max": ["planck", "--integrate", "--temperature-k", "300", "--x-max", "10"],
    # Only k-scaled reads --k-factor, and only custom reads --custom-tau-s.
    "half-compton-with-k-factor": ["dispersion", "--model", "half-compton", "--k-factor", "5"],
    "half-compton-with-custom-tau": [
        "simulate", "--model", "half-compton", "--custom-tau-s", "1e-20",
        "--length-m", "1", "--photons", "10", "--seed", "1",
    ],
}
#: The flag that each row above for --eval, --all, --integrate or --model
#: names in its error (TestAlphaCommand checks the --fit rows).
IGNORED_FLAGS = {
    "eval-with-policy": "--policy",
    "all-with-model": "--model",
    "all-with-custom-tau": "--custom-tau-s",
    "integrate-with-zpf": "--with-zpf",
    "integrate-with-points": "--points",
    "integrate-with-x-max": "--x-max",
    "half-compton-with-k-factor": "--k-factor",
    "half-compton-with-custom-tau": "--custom-tau-s",
}


class TestExitCodes:
    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
    def test_rejected_argument_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("row, flag", IGNORED_FLAGS.items(), ids=IGNORED_FLAGS.keys())
    def test_ignored_flag_is_named(self, capsys, row, flag):
        _, _, err = run(capsys, USAGE_ERRORS[row])
        assert err.startswith("error:") and flag in err

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "no-such-dir" / "x.json"
        code, _, err = run(capsys, ["dispersion", "--all", "--output", str(missing)])
        assert code == 2
        assert err.startswith("error:")
        assert not missing.parent.exists()

    def test_unreachable_target_is_failure(self, capsys):
        # No finite cutoff gives a total 1/alpha above ~2.6e307.
        code, out, err = run(capsys, ["alpha", "--fit", "--target", "1e308"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "target" in err and "out of reach" in err

    @pytest.mark.parametrize("argv, quantity", [
        # c*tau overflows, so L/(c tau) is 0.0 and the variance 0*inf.
        (["simulate", "--model", "custom", "--custom-tau-s", "1e300", "--length-m", "1",
          "--photons", "10", "--seed", "1"], "lifetime"),
        # kT/c underflows to 0.0, so every momentum would read 0.0.
        (["planck", "--temperature-k", "1e-300"], "temperature_k"),
        # p**2 in the mode density overflows at the largest momentum.
        (["planck", "--temperature-k", "1e300"], "temperature_k"),
        # kT underflows to 0.0, so beta = 1/kT does not exist.
        (["planck", "--temperature-k", "1e-320"], "temperature_k"),
        (["planck", "--temperature-k", "5e-324"], "temperature_k"),
        # Every contribution underflows, so the species shares divide by 0.0.
        (["alpha", "--eval", "--cutoff-mev", "1e-300"], "cutoff_mev"),
        # The Stefan-Boltzmann density itself underflows.
        (["planck", "--temperature-k", "1e-280", "--integrate"], "temperature_k"),
    ], ids=["overflowing-lifetime", "underflowing-momentum-scale", "overflowing-mode-density",
            "underflowing-kt", "smallest-subnormal-temperature", "underflowing-inverse-alpha",
            "underflowing-stefan-boltzmann-density"])
    def test_degenerate_value_names_its_quantity(self, capsys, argv, quantity):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and quantity in err

    def test_stefan_boltzmann_density_below_kt_fourth_underflow(self, capsys):
        # (kT)^4 underflows at 1e-60 K; the density, ~7.6e-256 J/m^3, does not.
        code, out, _ = run(capsys, ["planck", "--temperature-k", "1e-60", "--integrate"])
        assert code == 0
        assert abs(json.loads(out)["rel_dev"]) < 1e-6

    def test_empty_species_file_is_failure(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        argv = ["alpha", "--fit", "--policy", "mass-proportional", "--species-file", str(path)]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "error: registry has no species\n"


# --- the process entry ------------------------------------------------------

def run_entry(argv, unbuffered=False, **kwargs):
    """``python -m vacuumpairs ARGV`` in a fresh interpreter, with stdout
    block-buffered or, with ``unbuffered``, written through."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "vacuumpairs", *argv], env=env,
                          timeout=120, **kwargs)


ENTRY_OUTPUTS = {
    "planck-csv": ["planck", "--temperature-k", "300", "--points", "200000", "--format", "csv"],
    "simulate-workers": SIMULATE + ["--workers", "2"],
}


class TestEntry:
    @pytest.mark.parametrize("argv", ENTRY_OUTPUTS.values(), ids=ENTRY_OUTPUTS.keys())
    def test_stdout_is_what_main_writes(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        proc = run_entry(argv)
        assert code == proc.returncode == 0
        assert proc.stdout == out.encode("utf-8")

    @pytest.mark.parametrize("argv, code", [
        (["dispersion", "--all"], 0),
        (["--help"], 0),
        (["alpha", "--fit", "--target", "1e308"], 2),
        (["planck"], 2),
    ], ids=["dispersion", "help", "unreachable-target", "missing-flag"])
    def test_exit_code_is_mains(self, argv, code):
        assert run_entry(argv).returncode == code

    def test_single_species_report_fails_without_traceback(self, tmp_path):
        proc = run_entry(["report", "--species-file", str(electron_only_file(tmp_path))])
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert "FAIL alpha-leading-contributors-ok" in err
        assert "Traceback" not in err
        assert json.loads(proc.stdout)["all_pass"] is False

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stdout, argv", [
        # The curve overflows the buffer, so main's write fails before the flush.
        ("full", ENTRY_OUTPUTS["planck-csv"]),
        ("full", ENTRY_OUTPUTS["simulate-workers"]),
        ("closed", ENTRY_OUTPUTS["simulate-workers"]),
    ], ids=["full-planck-csv", "full-simulate", "closed-simulate"])
    def test_unwritable_stdout_is_usage_error(self, stdout, argv, unbuffered):
        if stdout == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this platform")
            with open("/dev/full", "wb") as full:
                proc = run_entry(argv, unbuffered, stdout=full)
        else:
            proc = run_entry(argv, unbuffered, stdout=None, preexec_fn=lambda: os.close(1))
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stderr", ["full", "closed"])
    @pytest.mark.parametrize("argv, code", [
        (["alpha", "--eval", "--cutoff-mev", "-5"], 2),
        (["report", "--species-file", "{heavy}"], 1),
    ], ids=["usage-error", "failed-report"])
    def test_unwritable_stderr_keeps_exit_code(self, tmp_path, stderr, argv, code, unbuffered):
        # The error and FAIL lines are lost; the exit code is not.
        argv = [a.format(heavy=heavy_electron_file(tmp_path)) for a in argv]
        if stderr == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this platform")
            with open("/dev/full", "wb") as full:
                proc = run_entry(argv, unbuffered, stdout=subprocess.DEVNULL, stderr=full)
        else:
            proc = run_entry(argv, unbuffered, stdout=subprocess.DEVNULL,
                             preexec_fn=lambda: os.close(2))
        assert proc.returncode == code


# --- argv fuzzing -----------------------------------------------------------

EXTREME = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1e-300", "1e300", "junk")
FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "csv"]])


def flag(name, *typical, required=False):
    """``[name, value]`` with the value drawn from extremes and typical values."""
    drawn = st.sampled_from(EXTREME + typical).map(lambda value: [name, value])
    return drawn if required else st.just([]) | drawn


def choice(*options):
    return st.sampled_from([list(o) for o in options])


def argv_of(head, *parts):
    return st.tuples(*parts).map(lambda drawn: [head] + [a for part in drawn for a in part])


MODEL = choice(*[["--model", k.value] for k in dispersion.LifetimeKind])
LIFETIME = (
    flag("--k-factor", "31.9", "10"),
    flag("--custom-tau-s", "1e-12", "1e-21"),
    choice([], ["--reference-species", "mu"], ["--reference-species", "zz"]),
)
ARGV = st.one_of(
    argv_of(
        "alpha", FORMAT, choice([], ["--fit"], ["--eval"]),
        choice([], ["--policy", "mass-proportional"]),
        flag("--cutoff-mev", "292", "0.511"),
        flag("--chiral-quark-cutoff-mev", "100"),
        flag("--target", "137.036", "100"),
    ),
    argv_of(
        "planck", FORMAT, flag("--temperature-k", "300", "2.725", required=True),
        choice([], ["--thermal-only"], ["--with-zpf"]), choice([], ["--integrate"]),
        flag("--x-max", "15", "40"),
        choice([], *[["--points", p] for p in ("-1", "0", "1", "2", "50")]),
    ),
    argv_of("dispersion", FORMAT, MODEL | choice([], ["--all"]), *LIFETIME),
    argv_of(
        "simulate", FORMAT, MODEL, *LIFETIME,
        flag("--length-m", "1", "0.5", required=True),
        choice(*[["--photons", n] for n in ("-1", "1", "2", "10", "100")]),
        choice(*[["--seed", n] for n in ("-1", "0", "7")]),
        choice(*[["--delay", d.value] for d in dispersion.DelayDistribution]),
        choice(*[["--process", p.value] for p in dispersion.InteractionProcess]),
        choice([], *[["--workers", w] for w in ("0", "1", "2")]),
    ),
)


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(argv=ARGV)
def test_fuzzed_argv_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "csv" not in argv:
        json.loads(out.getvalue(), parse_constant=_no_constant)
