"""Every BENCH_*.json benchmark point at the repository root parses as JSON
and carries the top-level keys a point is read by; a point that claims a
gain names an end-to-end metric and a workload of BENCHMARK.json."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
POINTS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"name", "change", "parent", "host", "end_to_end"}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_points_exist():
    assert POINTS


@pytest.mark.parametrize("path", POINTS, ids=lambda p: p.name)
def test_point_parses_with_top_level_keys(path):
    point = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(point, dict), f"{path.name} is not a JSON object"
    assert not KEYS - point.keys(), f"{path.name} lacks {sorted(KEYS - point.keys())}"


@pytest.mark.parametrize("path", POINTS, ids=lambda p: p.name)
def test_claim_names_a_metric_on_a_workload(path):
    end_to_end = json.loads(path.read_text(encoding="utf-8"))["end_to_end"]
    if "claim" not in end_to_end:
        return
    claim = end_to_end["claim"]
    words = claim.split(" ") if isinstance(claim, str) else []
    assert len(words) == 3 and words[1] == "on", (
        f"{path.name}: claim {claim!r} must read '<metric> on <workload>'")
    metric, _, workload = words
    assert metric in {m["name"] for m in BENCHMARK["end_to_end"]}, (
        f"{path.name}: {metric!r} is not an end-to-end metric of BENCHMARK.json")
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}, (
        f"{path.name}: {workload!r} is not a workload of BENCHMARK.json")
