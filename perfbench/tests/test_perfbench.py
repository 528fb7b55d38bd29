"""Self-tests of the benchmark: checkers reject wrong results, inputs follow
the seed, and traced spans nest."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import inputs, oracles, spans, workloads  # noqa: E402

DEFAULT = inputs.default_table(ROOT)
TABLES = {"default": DEFAULT, "generated": inputs.generated_table(7, DEFAULT)}
ELECTRON = DEFAULT[0]


# --- checkers reject a perturbed result ------------------------------------------

def test_quadrature_check_rejects_a_perturbed_value():
    exact = float(oracles.alpha_term(ELECTRON, 300.0, "mode-quantum"))
    assert oracles.check_quadrature(exact, ELECTRON, 300.0, "mode-quantum", 1e-10) == (None, None)
    failure, defect = oracles.check_quadrature(exact * (1 + 1e-9), ELECTRON, 300.0, "mode-quantum", 1e-10)
    assert failure is None and defect[0] == oracles.QUADRATURE_TOLERANCE_MISS
    for wrong in (exact * (1 + 1e-6), exact * 1.01, 0.0):
        failure, defect = oracles.check_quadrature(wrong, ELECTRON, 300.0, "mode-quantum", 1e-10)
        assert failure and defect is None
    # Within the measured miss factor, but at an x where no miss was seen.
    exact_low = float(oracles.alpha_term(ELECTRON, 1.0, "mode-quantum"))
    failure, defect = oracles.check_quadrature(exact_low * (1 + 1e-9), ELECTRON, 1.0, "mode-quantum", 1e-10)
    assert failure and defect is None
    # The false acceptance near x = 612 loses 1e-4 at any rel_tol; the same
    # error elsewhere is a failure.
    window = 612.07 * ELECTRON["mass_mev"]
    exact_window = float(oracles.alpha_term(ELECTRON, window, "mode-quantum"))
    failure, defect = oracles.check_quadrature(exact_window * (1 - 9.8e-5), ELECTRON, window, "mode-quantum", 1e-8)
    assert failure is None and defect[0] == oracles.QUADRATURE_TOLERANCE_MISS
    failure, defect = oracles.check_quadrature(exact * (1 - 9.8e-5), ELECTRON, 300.0, "mode-quantum", 1e-8)
    assert failure and defect is None
    exact_gap = float(oracles.alpha_term(ELECTRON, 3.0, "fixed-gap"))
    failure, defect = oracles.check_quadrature(exact_gap * (1 + 1e-5), ELECTRON, 3.0, "fixed-gap", 1e-6)
    assert failure and defect is None


def test_more_quadrature_misses_than_the_defect_explains_fail(tmp_path):
    species_file = tmp_path / "species.json"
    species_file.write_text(json.dumps(TABLES["generated"]), encoding="utf-8")
    _, check = workloads.alpha_scan(TABLES, species_file)
    op = {"kind": "quad", "table": "default", "species": ELECTRON["name"], "cutoff_mev": 300.0,
          "oscillator": "mode-quantum", "rel_tol": 1e-10}
    slightly_off = float(oracles.alpha_term(ELECTRON, 300.0, "mode-quantum")) * (1 + 1e-9)
    results = [check(op, slightly_off, 0.0, None) for _ in range(5)]
    assert all(failure is None and defect for failure, defect in results[:3])
    assert results[3][0] and results[4][0]


def test_closed_form_check_separates_failures_from_the_known_cancellation():
    top = DEFAULT[8]
    small_x_cutoff = 1e-4 * top["mass_mev"]
    exact = float(oracles.alpha_term(top, small_x_cutoff, "mode-quantum"))
    assert oracles.check_closed_form(exact, top, small_x_cutoff) == (None, None)
    # Rounding of x - atan(x) allows up to 4 eps / x^2 = 8.9e-8 here.
    failure, defect = oracles.check_closed_form(exact * (1 + 1e-8), top, small_x_cutoff)
    assert failure is None and defect[0] == oracles.CLOSED_FORM_CANCELLATION and "x=0.0001" in defect[1]
    for wrong in (exact * (1 + 1e-6), 0.0, float("nan")):
        failure, defect = oracles.check_closed_form(wrong, top, small_x_cutoff)
        assert failure and defect is None
    big = float(oracles.alpha_term(ELECTRON, 300.0, "mode-quantum"))
    failure, defect = oracles.check_closed_form(big * (1 + 1e-9), ELECTRON, 300.0)
    assert failure and defect is None


def test_fit_checks_reject_a_moved_cutoff():
    target = 137.035999
    cutoff = float(oracles.global_cutoff(DEFAULT, target, 290.0))
    assert oracles.check_global_fit(cutoff, DEFAULT, target) is None
    assert oracles.check_global_fit(cutoff + 1e-3, DEFAULT, target)
    scale = float(oracles.mass_proportional_scale(DEFAULT, target))
    assert abs(scale - 6.478444302297101) < 1e-9
    assert oracles.check_scale_a(scale, DEFAULT, target) is None
    assert oracles.check_scale_a(scale * (1 + 1e-8), DEFAULT, target)
    volume = 6 * math.pi**2 / scale**3
    assert oracles.check_pair_volume(volume, scale) is None
    assert oracles.check_pair_volume(volume * 1.001, scale)


def test_thermal_and_planck_checks_reject_perturbed_values():
    exact = float(oracles.stefan_boltzmann(300.0))
    assert oracles.check_thermal(exact, 300.0) is None
    assert oracles.check_thermal(exact * (1 + 1e-8), 300.0)
    header = "momentum_kg_m_s,energy_density_per_momentum,includes_zero_point\n"
    p_scale = 1.380649e-23 * 300.0 / 299792458.0
    rows = [[p, float(oracles.planck_density(p, 300.0, False))] for p in [p_scale * 15 * i / 199 for i in range(200)]]

    def csv_of(rows):
        return header + "".join(f"{p!r},{w!r},False\n" for p, w in rows)

    op = {"kind": "planck_curve", "temperature_k": 300.0, "zero_point": False}
    out = workloads.Outcome()
    assert workloads._check_cli(op, csv_of(rows), 0.1, TABLES, Path("unused"), out) is None
    rows[20][1] *= 1.001
    assert workloads._check_cli(op, csv_of(rows), 0.1, TABLES, Path("unused"), out)
    assert "199 curve rows" in workloads._check_cli(op, csv_of(rows[1:]), 0.1, TABLES, Path("unused"), out)


def test_box_count_matches_brute_force_and_rejects_an_off_by_one(tmp_path):
    for radius_sq in (0.5, 2.5, 50.5, 130.5):
        side = range(math.isqrt(int(radius_sq)) + 1)
        brute = sum(1 for a, b, c in product(side, side, side) if a * a + b * b + c * c <= radius_sq) - 1
        assert oracles.box_mode_count(radius_sq) == brute
    species_file = tmp_path / "species.json"
    species_file.write_text(json.dumps(TABLES["generated"]), encoding="utf-8")
    execute, check = workloads.alpha_scan(TABLES, species_file)
    op = {"kind": "box", "length_m": 1e-10, "radius_sq": 2500.5}
    count = execute(op)
    assert check(op, count, 0.0, None) == (None, None)
    assert check(op, count + 1, 0.0, None)[0]


def test_flight_check_uses_compound_law_moments():
    tau, length, n = 1e-12, 1.0, 100_000
    for delay, process in product(("fixed", "exponential", "uniform-fraction"), ("poisson", "fixed")):
        mean, sd = oracles.flight_moments(length, tau, delay, process)
        assert oracles.check_flight(mean, sd, n, length, tau, delay, process) is None
        shift = 10 * (sd or mean * 1e-10) / math.sqrt(n)
        assert oracles.check_flight(mean + shift, sd, n, length, tau, delay, process)
    mean, sd = oracles.flight_moments(length, tau, "exponential", "poisson")
    # The fixed-tau Poisson sigma sqrt(tau L / c) is wrong for exponential delays.
    assert oracles.check_flight(mean, sd / math.sqrt(2.0), n, length, tau, "exponential", "poisson")


def test_worker_twin_must_match_bit_for_bit():
    _, check = workloads.mc_flight()
    op = inputs.mc_flight_rounds(3, 1)[0][0]
    mean, sd = oracles.flight_moments(op["length_m"], float(oracles.lifetime_s(op["model"])), op["delay"], op["process"])
    out = workloads.Outcome()
    assert check(op, (mean, sd, op["photons"]), 0.1, out) == (None, None)
    twin = {**op, "workers": 2}
    assert check(twin, (math.nextafter(mean, 1.0), sd, op["photons"]), 0.1, out)[0]


def test_cli_checks_reject_perturbed_physics(tmp_path):
    out = workloads.Outcome()
    sigma = {m: oracles.sigma_fs_per_sqrt_m(oracles.lifetime_s(m)) for m in ("half-compton", "k-scaled", "quasistationary")}
    payload = {"models": [{"model": m, "sigma_fs_per_sqrt_m": s} for m, s in sigma.items()]}
    op = {"kind": "dispersion_all"}
    assert workloads._check_cli(op, json.dumps(payload), 0.1, TABLES, tmp_path, out) is None
    payload["models"][1]["sigma_fs_per_sqrt_m"] *= 1.001
    assert workloads._check_cli(op, json.dumps(payload), 0.1, TABLES, tmp_path, out)
    samples = tmp_path / "samples.csv"
    samples.write_text("photon_index,delay_s\n0,1.0\n1,3.0\n", encoding="utf-8")
    assert workloads._check_samples(samples, 2, 2.0) is None
    samples.write_text("photon_index,delay_s\n0,1.0\n1,3.5\n", encoding="utf-8")
    assert workloads._check_samples(samples, 2, 2.0)


# --- inputs follow the seed -------------------------------------------------------

def _decks(seed: int):
    tables = {"default": DEFAULT, "generated": inputs.generated_table(seed, DEFAULT)}
    return json.dumps([
        tables["generated"],
        inputs.alpha_scan_rounds(seed, 3, tables),
        inputs.mc_flight_rounds(seed, 2),
        inputs.cli_session_rounds(seed, 2),
    ])


def test_same_seed_same_inputs():
    assert _decks(5) == _decks(5)


def test_other_seed_other_inputs_same_structure():
    a, b = json.loads(_decks(5)), json.loads(_decks(6))
    for deck_a, deck_b in zip(a[1:], b[1:]):
        assert deck_a != deck_b
        assert [[op["kind"] for op in r] for r in deck_a] == [[op["kind"] for op in r] for r in deck_b]
    assert a[0] != b[0]


# --- traced spans nest ------------------------------------------------------------

def test_spans_nest_and_self_times_are_never_negative():
    import vacuumpairs
    from vacuumpairs import cli, statmech, vacuum_response

    tracer = spans.Tracer()
    original = vacuum_response.inverse_alpha_total
    tracer.install()
    try:
        assert hasattr(cli.load_registry, "__wrapped__")  # a name bound at import
        vacuum_response.fit_cutoff(vacuumpairs.default_registry(), 137.035999)
        statmech.integrate_thermal_density(statmech.ThermalState(300.0))
    finally:
        tracer.uninstall()
    assert vacuum_response.inverse_alpha_total is original
    exported = tracer.export()
    names = [s[0] for s in exported]
    assert names[0] == "vacuum_response.fit_cutoff"
    assert "numerics.find_root" in names and "numerics.integrate" in names
    for name, start, end, parent, _ in exported:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, _ = exported[parent]
            assert p_start <= start and end <= p_end
    root_finds = [i for i, s in enumerate(exported) if s[0] == "numerics.find_root"]
    assert any(s[3] == root_finds[0] and s[0] == "vacuum_response.inverse_alpha_total" for s in exported)
    assert all(t >= 0 for t in spans.self_times(exported))
    summary = spans.summarize(exported)
    assert summary["numerics.integrate"]["evals"] > 0
    assert summary["numerics.find_root"]["self_s"] < summary["numerics.find_root"]["s"]


def test_merge_rebases_parents():
    first = [["a", 0.0, 2.0, -1, {}], ["b", 0.5, 1.0, 0, {}]]
    merged = spans.merge([first, first])
    assert [s[3] for s in merged] == [-1, 0, -1, 2]
    assert spans.self_times(merged) == [1.5, 0.5, 1.5, 0.5]


def test_launcher_wraps_names_bound_at_import(tmp_path):
    out = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    species = tmp_path / "species.json"
    species.write_text(json.dumps(DEFAULT), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(out),
         "alpha", "--eval", "--cutoff-mev", "1.0", "--species-file", str(species)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(out.read_text(encoding="utf-8"))
    assert [s[0] for s in recorded if s[3] < 0] == ["cli.main"]
    assert "particles.load_registry" in [s[0] for s in recorded]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "alpha_scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_keeps_ten_operations_beyond_it():
    from perfbench.run import tail

    assert tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert tail([float(i) for i in range(99)]) == (74.0, 75.0)
    assert tail([float(i) for i in range(38000)]) == (37961.0, 99.9)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
