"""The host-drift flag of ``tools/bench.py``."""

import importlib.util
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
