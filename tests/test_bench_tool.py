"""The host calibration and drift flag, the metric verdicts and the CLI
wall-time summary of ``tools/bench.py``."""

import importlib.util
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
