"""The host calibration and drift flag, the metric verdicts, the CLI
wall-time summary and the BENCH trajectory of ``tools/bench.py``."""

import importlib.util
import json
import time
from pathlib import Path

import pytest

BENCH_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", BENCH_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def calibration(loop_after, draw_after):
    return {
        "before": {"loop_ns_per_iter": 20.0, "normal_ns_per_draw": 16.0},
        "after": {"loop_ns_per_iter": loop_after, "normal_ns_per_draw": draw_after},
    }


def test_readings_within_ten_percent_do_not_drift(bench):
    drifted, ratios = bench.drift(calibration(21.0, 14.5))
    assert not drifted
    assert ratios == {"loop_ns_per_iter": 21.0 / 20.0, "normal_ns_per_draw": 14.5 / 16.0}


@pytest.mark.parametrize("loop_after, draw_after", [(17.9, 16.0), (20.0, 17.7), (14.2, 13.3)])
def test_either_reading_beyond_ten_percent_drifts(bench, loop_after, draw_after):
    assert bench.drift(calibration(loop_after, draw_after))[0]


def test_calibration_records_parallel_capacity(bench, monkeypatch):
    monkeypatch.setattr(bench, "CALIBRATION_REPEATS", 2)
    reading = bench.calibrate()
    assert set(reading) == {"loop_ns_per_iter", "normal_ns_per_draw", "threads2_speedup"}
    # Two threads finish two digests no faster than two free CPUs allow.
    assert 0.3 < reading["threads2_speedup"] < 2.5


@pytest.mark.parametrize("work, low, high", [
    # Sleeping releases the interpreter lock, so two threads overlap fully.
    (lambda: time.sleep(0.02), 1.6, 2.4),
    # A builtin sum holds it, so two threads run one after the other.
    (lambda: sum(range(400_000)), 0.5, 1.3),
], ids=["lock-released", "lock-held"])
def test_threads2_speedup_is_serial_over_threaded(bench, monkeypatch, work, low, high):
    monkeypatch.setattr(bench, "CALIBRATION_REPEATS", 2)
    monkeypatch.setattr(bench.hashlib, "sha256", lambda data: work())
    assert low < bench.threads2_speedup() < high


LOWER = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
STEADY = [100.0 + i for i in range(10)]  # quartile spread 4.5, 4% of the median
# Quartile spread 55, 55% of the median 100.
NOISY = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]


@pytest.mark.parametrize("metric, parent, change, expected", [
    # 10/10 pairs better, median gap 20 > spread 4.5.
    (LOWER, STEADY, [v - 20.0 for v in STEADY], "gain"),
    (HIGHER, STEADY, [v + 20.0 for v in STEADY], "gain"),
    # 9/10 pairs better still gains; 8/10 does not.
    (LOWER, STEADY, [v - 20.0 for v in STEADY[:9]] + [200.0], "gain"),
    (LOWER, STEADY, [v - 20.0 for v in STEADY[:8]] + [200.0, 200.0], "unchanged"),
    # Better in every pair, but by less than the spread.
    (LOWER, STEADY, [v - 1.0 for v in STEADY], "unchanged"),
    # The median is worse by 30% and 40%, beyond the 25% bound.
    (LOWER, STEADY, [v * 1.4 for v in STEADY], "regression"),
    (HIGHER, STEADY, [v * 0.7 for v in STEADY], "regression"),
    # Worse by 20%, within the bound.
    (LOWER, STEADY, [v * 1.2 for v in STEADY], "unchanged"),
    # The parent's own runs spread beyond the bound.
    (LOWER, NOISY, list(NOISY), "unresolved"),
    (HIGHER, NOISY, [v + 10.0 for v in NOISY], "unresolved"),
    # ... unless every change run beats every parent run.
    (LOWER, NOISY, [45.0 + 0.5 * i for i in range(10)], "unchanged"),
    (LOWER, STEADY, list(reversed(STEADY)), "unchanged"),
])
def test_verdict(bench, metric, parent, change, expected):
    assert bench.verdict(metric, parent, change) == expected


def test_cli_summary(bench):
    # Change runs 80% of the parent's wall time on every subcommand.
    parent = {name: [100.0 + i for i in range(bench.CLI_CALLS)] for name in bench.CLI_ARGVS}
    change = {name: [0.8 * v for v in values] for name, values in parent.items()}
    out = bench.cli_summary({"parent": parent, "change": change})
    assert list(out) == list(bench.CLI_ARGVS) == ["alpha", "planck", "dispersion", "simulate", "report"]
    middle = (bench.CLI_CALLS - 1) / 2
    for name, entry in out.items():
        assert entry["argv"][0] == name and entry["unit"] == "ms"
        assert entry["parent"]["median"] == 100.0 + middle
        assert entry["parent"]["q1"] < entry["parent"]["median"] < entry["parent"]["q3"]
        assert entry["change"]["runs"] == change[name]
        assert entry["change_over_parent"] == pytest.approx(0.8)


def test_compare_calibrates_the_host_before_every_pair(bench, monkeypatch):
    calls = []

    def run(side, tree, workload, seed, trace):
        calls.append(("run", workload, trace))
        return {
            "metrics": {"ops_per_s": {"value": float(len(calls)), "unit": "1/s"}},
            "failed": 0,
            "attempted": 1,
            "provenance": {},
        }

    def calibrate():
        calls.append(("calibrate",))
        return {"loop_ns_per_iter": 20.0, "normal_ns_per_draw": 16.0,
                "threads2_speedup": float(len(calls))}

    monkeypatch.setattr(bench, "run", run)
    monkeypatch.setattr(bench, "calibrate", calibrate)
    workloads, pairs = bench.compare({"parent": Path("parent"), "change": Path("change")})
    assert list(workloads) == list(bench.WORKLOADS)
    # Per workload: a reading and then the two runs of each pair, and then
    # the two traced runs, which no reading precedes.
    for workload in bench.WORKLOADS:
        untraced = [("calibrate",), ("run", workload, 0), ("run", workload, 0)]
        traced = [("run", workload, 1)] * 2
        assert calls[:3 * bench.PAIRS + 2] == untraced * bench.PAIRS + traced
        del calls[:3 * bench.PAIRS + 2]
    assert calls == []
    assert [(r["workload"], r["pair"]) for r in pairs] == [
        (w, p) for w in bench.WORKLOADS for p in range(bench.PAIRS)
    ]
    assert all(set(r) == {"workload", "pair", "loop_ns_per_iter", "normal_ns_per_draw",
                          "threads2_speedup"} for r in pairs)


def test_threads2_summary_gives_the_range_over_the_pairs(bench):
    calibration = {
        "before": {"threads2_speedup": 1.5},
        "after": {"threads2_speedup": 1.25},
        "pairs": [{"threads2_speedup": s} for s in (1.1, 1.9, 1.4)],
    }
    assert bench.threads2_summary(calibration) == (
        "host threads2_speedup before 1.50, after 1.25; over the 3 pairs 1.10 to 1.90"
    )


def bench_record(src_lines, p50_ms, ops_per_s, calibration=None):
    """A BENCH record with one end-to-end change median per unit for two
    workloads, and ``calibration`` under ``host`` unless it is None."""
    metrics = {"op_p50_ms": ("ms", p50_ms), "ops_per_s": ("1/s", ops_per_s),
               "peak_rss_mb": ("MiB", 42.5)}
    end_to_end = {name: {"unit": unit, "change": {"median": value}}
                  for name, (unit, value) in metrics.items()}
    host = {} if calibration is None else {"calibration": calibration}
    return {
        "src_lines": {"parent": src_lines + 1, "change": src_lines},
        "host": host,
        "workloads": {w: {"end_to_end": end_to_end} for w in ("alpha_scan", "mc_flight")},
    }


def write_bench_files(directory, records):
    for n, record in records.items():
        (directory / f"BENCH_{n}.json").write_text(json.dumps(record), encoding="utf-8")


def test_trajectory_normalises_by_each_kind_of_calibration(bench, tmp_path):
    write_bench_files(tmp_path, {
        # No calibration (BENCH_6-10): raw values only.
        7: bench_record(2500, 80.0, 10.0),
        # A reading before the first pair and after the last (BENCH_12-19).
        12: bench_record(2600, 80.0, 10.0, {
            "before": {"loop_ns_per_iter": 20.0, "normal_ns_per_draw": 16.0},
            "after": {"loop_ns_per_iter": 99.0, "normal_ns_per_draw": 99.0},
        }),
        # A reading before every pair (BENCH_20 on): each workload's median.
        20: bench_record(2700, 80.0, 10.0, {
            "before": {"loop_ns_per_iter": 99.0, "normal_ns_per_draw": 99.0},
            "after": {"loop_ns_per_iter": 99.0, "normal_ns_per_draw": 99.0},
            "pairs": [{"workload": w, "pair": p, "loop_ns_per_iter": loop,
                       "normal_ns_per_draw": draw}
                      for w, readings in [("alpha_scan", [(40.0, 1.0), (10.0, 1.0), (20.0, 1.0)]),
                                          ("mc_flight", [(1.0, 5.0), (1.0, 8.0), (1.0, 2.0)])]
                      for p, (loop, draw) in enumerate(readings)],
        }),
    })
    assert bench.trajectory(tmp_path) == [
        "BENCH_7   src_lines 2500"
        " | alpha_scan op_p50_ms 80 ops_per_s 10 peak_rss_mb 42.5"
        " | mc_flight op_p50_ms 80 ops_per_s 10 peak_rss_mb 42.5",
        # alpha_scan over loop_ns_per_iter 20, mc_flight over normal_ns_per_draw 16.
        "BENCH_12  src_lines 2600"
        " | alpha_scan op_p50_ms 80/4 ops_per_s 10/200 peak_rss_mb 42.5"
        " | mc_flight op_p50_ms 80/5 ops_per_s 10/160 peak_rss_mb 42.5",
        # Medians over the workload's own pairs: 20 and 5.
        "BENCH_20  src_lines 2700"
        " | alpha_scan op_p50_ms 80/4 ops_per_s 10/200 peak_rss_mb 42.5"
        " | mc_flight op_p50_ms 80/16 ops_per_s 10/50 peak_rss_mb 42.5",
    ]


def test_trajectory_orders_files_by_number(bench, tmp_path):
    write_bench_files(tmp_path, {n: bench_record(n, 1.0, 1.0) for n in (10, 9, 100, 24)})
    lines = bench.trajectory(tmp_path)
    assert [line.split()[0] for line in lines] == ["BENCH_9", "BENCH_10", "BENCH_24", "BENCH_100"]
    assert [int(line.split()[2]) for line in lines] == [9, 10, 24, 100]


def test_trajectory_of_every_checked_in_bench_file(bench):
    lines = bench.trajectory(BENCH_TOOL.parent.parent)
    assert len(lines) == len(list(BENCH_TOOL.parent.parent.glob("BENCH_*.json")))
    assert all(line.count(" | ") == len(bench.WORKLOADS) for line in lines)
