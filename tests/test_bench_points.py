"""Every BENCH_*.json benchmark point at the repository root parses as JSON
and carries the top-level keys a point is read by."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
POINTS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"name", "change", "parent", "host", "end_to_end"}


def test_points_exist():
    assert POINTS


@pytest.mark.parametrize("path", POINTS, ids=lambda p: p.name)
def test_point_parses_with_top_level_keys(path):
    point = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(point, dict), f"{path.name} is not a JSON object"
    assert not KEYS - point.keys(), f"{path.name} lacks {sorted(KEYS - point.keys())}"
