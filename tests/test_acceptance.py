"""Reproduction acceptance suite.

One test per headline criterion, each printing a single pass/fail line
(run with ``pytest -s`` for the checklist).  The tests read the rows of the
report table (``vacuumpairs.report``), where every reference value and
tolerance is written once; each report stage runs once per module, timed
by ``report.run_stages``.  Checks that no report row makes stay in this
file: the sub-2% bound on every minor species' share, the golden-section
Wien oracle, the box-mode count above 1e5, the wall-time bounds, the
report command's determinism and the map from rows to their stages.

One check is intentionally red: the sub-2% bound on every minor species'
share of 1/alpha cannot coexist with the 292 MeV cutoff fit (the d-quark
share is necessarily ~3-4% once the electron and u-quark terms are pinned),
so that assertion fails with the computed value rather than being loosened.
"""

import json
import math

import pytest

from vacuumpairs import dispersion, report, statmech
from vacuumpairs.cli import main
from vacuumpairs.constants import CODATA
from vacuumpairs.particles import default_registry


@pytest.fixture(scope="module")
def report_run():
    """Report rows by quantity, stage values and wall seconds per stage."""
    values, seconds = report.run_stages(default_registry(), report.REPORT_SEED)
    rows = {row.quantity: row for row in report.table_rows(values)}
    return rows, values, seconds


@pytest.fixture(scope="module")
def rows(report_run):
    return report_run[0]


def passed(*checked):
    return all(row.status == "pass" for row in checked)


def test_c01_weighted_degeneracy_sum(rows):
    row = rows["weighted-degeneracy-sum"]
    ok = passed(row)
    print(f"criterion 01 {'PASS' if ok else 'FAIL'}: weighted degeneracy sum = {row.computed}")
    assert ok


def test_c02_constant_cutoff_fit(report_run):
    rows, _, seconds = report_run
    cutoff, leaders = rows["global-cutoff-mev"], rows["alpha-leading-contributors-ok"]
    share = rows["max-minor-species-share"].computed
    elapsed = seconds["alpha_fits"]
    share_ok = share < 0.02
    ok = passed(cutoff, leaders) and share_ok
    print(
        f"criterion 02 {'PASS' if ok else 'FAIL'}: A = {cutoff.computed:.3f} MeV, "
        f"leaders e,u {leaders.status}, max minor share = {share:.4f}, {elapsed:.2f} s"
    )
    assert elapsed < 1.0
    assert passed(cutoff)
    assert passed(leaders)
    # Known-red: see module docstring. The computed share is reported in the
    # failure message instead of widening the bound.
    assert share_ok, (
        f"a minor species contributes {share:.2%} of 1/alpha: a sub-2% share for "
        "every minor species is arithmetically incompatible with the 292 MeV "
        "cutoff (any global cutoff at or below 294 MeV forces the d-quark term "
        "above 3%)"
    )


def test_c03_electron_only_fit(rows):
    ratio, at_861 = rows["electron-only-cutoff-over-mc2"], rows["inverse-alpha-at-861-mc2"]
    ok = passed(ratio, at_861)
    print(
        f"criterion 03 {'PASS' if ok else 'FAIL'}: A/m_e c^2 = {ratio.computed:.4f}, "
        f"closed form at 861 = {at_861.computed:.4f}"
    )
    assert passed(ratio)
    assert passed(at_861)


def test_c04_mass_proportional_fit(rows):
    scale, volume = rows["mass-proportional-scale-a"], rows["pair-volume-compton-units"]
    ok = passed(scale, volume)
    print(
        f"criterion 04 {'PASS' if ok else 'FAIL'}: a = {scale.computed:.4f}, "
        f"<V>/lambda_C^3 = {volume.computed:.4f}"
    )
    assert passed(scale)
    assert passed(volume)


def test_c05_quadrature_vs_closed_form(rows):
    row = rows["quadrature-closed-form-max-rel-dev"]
    ok = passed(row)
    print(f"criterion 05 {'PASS' if ok else 'FAIL'}: max rel diff = {row.computed:.3e}")
    assert ok


def test_c06_stefan_boltzmann_and_wien(report_run):
    rows, _, seconds = report_run
    sb, wien = rows["stefan-boltzmann-max-rel-dev"], rows["wien-peak-x"]

    # Independent oracle: golden-section maximization of the thermal curve.
    state = statmech.ThermalState(300.0)
    p_scale = CODATA.k_boltzmann_j_per_k * state.temperature_k / CODATA.c_m_per_s
    value = lambda x: statmech.planck_energy_density(
        x * p_scale, state, include_zero_point=False
    )
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1.0, 5.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    while b - a > 1e-10:
        if value(c) > value(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    peak = 0.5 * (a + b)
    peak_ok = abs(peak - wien.reference) <= wien.abs_tol
    elapsed = seconds["thermal_checks"]
    ok = passed(sb, wien) and peak_ok
    print(
        f"criterion 06 {'PASS' if ok else 'FAIL'}: max SB rel dev = {sb.computed:.3e}, "
        f"Wien x* = {peak:.6f}, {elapsed:.2f} s"
    )
    assert elapsed < 1.0
    assert passed(sb)
    assert passed(wien)
    assert peak_ok


def test_c07_box_modes_vs_continuum(report_run):
    rows, values, seconds = report_run
    count, ratio = values["box-mode-count"], rows["box-count-continuum-ratio"]
    elapsed = seconds["box_count"]
    ok = count > 1e5 and passed(ratio)
    print(
        f"criterion 07 {'PASS' if ok else 'FAIL'}: count = {count}, "
        f"count/continuum = {ratio.computed:.5f}, {elapsed:.2f} s"
    )
    assert elapsed < 10.0
    assert count > 1e5
    assert passed(ratio)


def test_c08_mean_energy_and_probabilities(rows):
    fd, total = rows["mean-energy-fd-max-rel-dev"], rows["probability-sum-max-dev"]
    ok = passed(fd, total)
    print(
        f"criterion 08 {'PASS' if ok else 'FAIL'}: max FD rel dev = {fd.computed:.3e}, "
        f"max probability-sum dev = {total.computed:.3e}"
    )
    assert passed(fd)
    assert passed(total)


def test_c09_analytic_dispersion_coefficients(rows):
    hc = rows["sigma-half-compton-fs-per-sqrt-m"]
    ks = rows["sigma-k-scaled-fs-per-sqrt-m"]
    qs = rows["sigma-quasistationary-ns-per-sqrt-m"]
    ok = passed(hc, ks, qs)
    print(
        f"criterion 09 {'PASS' if ok else 'FAIL'}: sigma = {hc.computed:.4f} fs, "
        f"{ks.computed:.4f} fs, {qs.computed:.4f} ns per sqrt(m)"
    )
    assert passed(hc)
    assert passed(ks)
    assert passed(qs)


def test_c10_monte_carlo_dispersion(report_run):
    rows, _, seconds = report_run
    max_z, exponent = rows["mc-stddev-max-z"], rows["mc-scaling-exponent"]
    # Aggregate compound-law draw against the explicit per-interaction loop.
    paths_z = rows["mc-sampling-paths-z"]
    elapsed = seconds["monte_carlo"]
    ok = passed(max_z, exponent, paths_z)
    print(
        f"criterion 10 {'PASS' if ok else 'FAIL'}: max z = {max_z.computed:.2f}, "
        f"exponent = {exponent.computed:.4f}, dual-path z = {paths_z.computed:.2f}, "
        f"{elapsed:.1f} s"
    )
    assert elapsed < 60.0
    assert passed(max_z)
    assert passed(exponent)
    assert passed(paths_z)


def test_c11_sensitivity_formula(rows):
    row = rows["sensitivity-fs-per-sqrt-m"]
    ok = passed(row)
    print(f"criterion 11 {'PASS' if ok else 'FAIL'}: sigma_min = {row.computed:.6f} fs m^-1/2")
    assert ok


def test_c12_attosecond_broadening(rows):
    fwhm = rows["attosecond-fwhm-13cm-as"]
    unresolved = (
        rows["attosecond-fwhm-zero-width-1cm-as"].status == "info"
        and rows["attosecond-fwhm-43as-seed-1cm-as"].status == "info"
    )
    ok = passed(fwhm) and unresolved
    print(
        f"criterion 12 {'PASS' if ok else 'FAIL'}: FWHM(13 cm) = {fwhm.computed:.3f} as; "
        "16-as and 57-as figures listed as unresolved info rows"
    )
    assert passed(fwhm)
    assert unresolved


def test_c13_quasistationary_excluded(rows):
    ok = passed(rows["quasistationary-band-excluded"])
    sigma_fs = rows["sigma-quasistationary-ns-per-sqrt-m"].computed * 1e6
    print(
        f"criterion 13 {'PASS' if ok else 'FAIL'}: sigma = {sigma_fs:.3g} fs m^-1/2 "
        f"vs band {dispersion.LIMIT_BAND_FS_PER_SQRT_M}"
    )
    assert ok


def test_c14_report_command(capsys, rows):
    code1 = main(["report"])
    first = capsys.readouterr().out
    code2 = main(["report"])
    second = capsys.readouterr().out
    payload = json.loads(first)
    statuses = {row["status"] for row in payload["rows"]}
    ok = code1 == 0 and code2 == 0 and first == second and payload["all_pass"]
    print(
        f"criterion 14 {'PASS' if ok else 'FAIL'}: exit codes ({code1}, {code2}), "
        f"byte-identical = {first == second}, rows = {len(payload['rows'])}"
    )
    assert code1 == 0 and code2 == 0
    assert first == second
    assert payload["all_pass"] is True
    assert statuses == {"pass", "info"}
    # The command prints the same table the criteria above assert on.
    assert [(r["quantity"], r["computed"]) for r in payload["rows"]] == [
        (row.quantity, row.computed) for row in rows.values()
    ]


def test_report_rows_are_well_formed(rows):
    names = [spec.quantity for spec in report.TABLE]
    assert len(set(names)) == len(names) == len(rows)
    assert all(row.note.strip() for row in rows.values() if row.status == "info")
    assert {row.provenance for row in rows.values()} <= {"published", "derived", "exact"}
    assert all(row.abs_tol is not None for row in rows.values() if row.reference is not None)


def test_each_row_names_the_one_stage_that_computes_it(report_run):
    _, values, seconds = report_run
    stages = list(dict.fromkeys(spec.stage for spec in report.TABLE))
    assert [stage.__name__ for stage in stages] == [
        "alpha_fits", "thermal_checks", "box_count",
        "quadrature_sweep", "dispersion_closed_forms", "monte_carlo",
    ]
    assert list(seconds) == [stage.__name__ for stage in stages]
    keys = {
        stage: set(stage(default_registry(), report.REPORT_SEED)) for stage in stages
    }
    for spec in report.TABLE:
        returned_by = [stage for stage in stages if spec.quantity in keys[stage]]
        assert returned_by == [spec.stage], spec.quantity
    # The box-mode count is the one stage value that no row shows.
    rows_of = {spec.quantity for spec in report.TABLE}
    assert set().union(*keys.values()) - rows_of == {"box-mode-count"}
    assert set(values) == set().union(*keys.values())
