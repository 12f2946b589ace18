"""Smoke test of the scale ladder at a tiny rung."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ["load", "graph", "prefilter", "index", "save_index", "bm25_pool_run"]


def load_scale():
    spec = importlib.util.spec_from_file_location("scale", ROOT / "bench" / "scale.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_rung_records_every_stage(tmp_path):
    scale = load_scale()
    out = tmp_path / "BENCH_scale_test.json"
    args = [str(out), "--rungs", "300", "--cache", str(tmp_path / "cache"), "--label", "a"]
    assert scale.main(args) == 0
    # a second label joins the first in the same point, from the cached corpus
    assert scale.main(args[:-1] + ["b"]) == 0
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["corpus_300_seed1.jsonl"]
    point = json.loads(out.read_text(encoding="utf-8"))
    assert {"name", "change", "parent", "host", "end_to_end"} <= point.keys()
    for label in ("a", "b"):
        rung = point["end_to_end"][label]["300"]
        assert rung["fit"] and 0 < rung["kept"] <= 300 and rung["postings"] > 0
        stages = point["stages"][label]["300"]
        assert list(stages) == STAGES
        for record in stages.values():
            assert record["wall_ms"] >= 0 and record["cpu_ms"] >= 0
            assert 0 < record["peak_rss_mb"] <= rung["peak_rss_mb"]
        assert rung["wall_ms"] == round(sum(s["wall_ms"] for s in stages.values()), 1)
