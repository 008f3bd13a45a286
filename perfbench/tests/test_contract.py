"""``BENCHMARK.json`` and the benchmark's result line agree."""

import json
from pathlib import Path

import run
from workloads import KNOWN_FAILING, WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)


def test_tracked_end_to_end_metrics_match_the_declaration():
    declared = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(declared) == sorted(run.TRACKED_END_TO_END)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_declared_workloads_are_the_correct_ones():
    declared = sorted(w["name"] for w in BENCHMARK["workloads"])
    assert set(KNOWN_FAILING) <= set(WORKLOADS)
    assert declared == sorted(set(WORKLOADS) - set(KNOWN_FAILING))
