import json

import pytest

from citebench import cli, synthetic
from citebench.cli import main
from citebench.corpus import load_corpus, write_corpus_jsonl
from citebench.dense import save_embeddings


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus file, prefiltered corpus file, and embeddings for two dense models."""
    root = tmp_path_factory.mktemp("cli")
    corpus = synthetic.generate_corpus(1000, seed=3)
    corpus_path = root / "corpus.jsonl"
    write_corpus_jsonl(corpus, corpus_path)

    assert main(["prefilter", "--corpus", str(corpus_path), "--out", str(root / "pref")]) == 0
    pref_path = root / "pref" / "prefiltered.jsonl"
    kept = load_corpus(pref_path)

    emb = {}
    for label in ("dense_a", "dense_b"):
        store = synthetic.embed_corpus(kept, dim=16, label=label)
        vec = root / f"{label}.f32"
        save_embeddings(store.ids, store.vectors, vec, root / f"{label}.f32.json")
        emb[label] = str(vec)
    return root, str(corpus_path), str(pref_path), emb


def test_ingest_summary(workspace, capsys):
    root, corpus_path, _, _ = workspace
    assert main(["ingest", "--corpus", corpus_path, "--out", str(root / "ingest")]) == 0
    out = capsys.readouterr().out
    assert "ingest: 1000 articles" in out
    summary = json.loads((root / "ingest" / "corpus_summary.json").read_text())
    assert summary["articles"] == 1000
    manifest = json.loads((root / "ingest" / "corpus_summary.manifest.json").read_text())
    assert manifest["tool"] == "citebench" and "config_hash" in manifest


def test_pool_determinism_byte_identical(workspace):
    root, _, pref_path, _ = workspace
    argv = ["pool", "--corpus", pref_path, "--setup", "field", "--field", "Med",
            "--size", "300", "--queries", "4", "--repetitions", "2", "--seed", "7"]
    assert main([*argv, "--out", str(root / "pools_a")]) == 0
    assert main([*argv, "--out", str(root / "pools_b")]) == 0
    for rep in (0, 1):
        name = f"pool_field_Med_300_rep{rep}.json"
        assert (root / "pools_a" / name).read_bytes() == (root / "pools_b" / name).read_bytes()


def test_pool_requires_seed(workspace, capsys):
    root, _, pref_path, _ = workspace
    rc = main(["pool", "--corpus", pref_path, "--setup", "dataset", "--size", "100",
               "--queries", "3", "--out", str(root / "noseed")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "--seed" in err["error"]["message"]


def test_config_file_defaults_and_flag_override(workspace, tmp_path):
    root, _, pref_path, _ = workspace
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "corpus": pref_path, "setup": "dataset", "size": 150, "queries": 3,
        "repetitions": 1, "seed": 11,
    }))
    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    assert main(["pool", "--config", str(config), "--out", str(out_a)]) == 0
    # flag overrides config seed
    assert main(["pool", "--config", str(config), "--seed", "12", "--out", str(out_b)]) == 0
    a = (out_a / "pool_dataset_150_rep0.json").read_bytes()
    b = (out_b / "pool_dataset_150_rep0.json").read_bytes()
    assert a != b


@pytest.fixture(scope="module")
def pipeline(workspace):
    """pool -> tune -> run x3 -> benchgen over two fields."""
    root, _, pref_path, emb = workspace
    pools = []
    for field in ("Med", "CS"):
        out = root / f"pools_{field}"
        assert main(["pool", "--corpus", pref_path, "--setup", "field", "--field", field,
                     "--size", "250", "--queries", "4", "--repetitions", "1",
                     "--seed", "21", "--out", str(out)]) == 0
        pools.append(str(out / f"pool_field_{field}_250_rep0.json"))

    assert main(["tune", "--corpus", pref_path, "--pool", pools[0], "--cutoff", "100",
                 "--out", str(root / "tune")]) == 0
    params_path = str(root / "tune" / "bm25_params.json")

    run_files = {}
    for pool_path, field in zip(pools, ("Med", "CS")):
        for model in ("bm25", "dense_a", "dense_b"):
            out = root / f"runs_{field}_{model}"
            argv = ["run", "--corpus", pref_path, "--pool", pool_path, "--model", model,
                    "--cutoff", "200", "--out", str(out)]
            if model == "bm25":
                argv += ["--params", params_path]
            else:
                argv += ["--embeddings", f"{model}={emb[model]}"]
            assert main(argv) == 0
            run_files.setdefault(model, []).append(str(out / f"run_{model}.tsv"))

    bench_out = root / "bench"
    argv = ["benchgen", "--corpus", pref_path, "--seed", "31", "--out", str(bench_out)]
    for p in pools:
        argv += ["--pool", p]
    for model, files in run_files.items():
        for f in files:
            argv += ["--run", f"{model}={f}"]
    assert main(argv) == 0
    return root, pref_path, emb, pools, run_files, str(bench_out / "benchmark.jsonl")


def test_eval_pool_mode_with_repetitions(pipeline, capsys):
    root, pref_path, emb, pools, run_files, _ = pipeline
    out = root / "eval_pool"
    assert main(["eval", "--run", run_files["bm25"][0], "--pool", pools[0],
                 "--recall-cutoff", "30", "--out", str(out)]) == 0
    data = json.loads((out / "eval_run_bm25.json").read_text())
    assert set(data) == {"repetitions", "mean", "std"}
    assert set(data["mean"]) == {"map", "ndcg", "recall@30"}
    assert 0.0 <= data["mean"]["map"] <= 1.0


def test_eval_unknown_query_fails_with_query_id(pipeline, tmp_path, capsys):
    root, pref_path, emb, pools, run_files, _ = pipeline
    bad_run = tmp_path / "bad_run.tsv"
    bad_run.write_text("ghost_query\tS000001\t1\t3.5\n")
    rc = main(["eval", "--run", str(bad_run), "--pool", pools[0], "--out", str(tmp_path)])
    assert rc != 0
    err = json.loads(capsys.readouterr().err)
    assert "ghost_query" in err["error"]["message"]


def test_benchmark_shape(pipeline):
    *_, bench_path = pipeline
    lines = [json.loads(l) for l in open(bench_path, encoding="utf-8")]
    assert len(lines) == 8  # 2 fields x 4 queries
    for obj in lines:
        assert len(obj["positives"]) == 5
        assert len(obj["negatives"]) == 6
        assert all(len(ids) == 10 for ids in obj["negatives"].values())
    manifest = json.loads((open(bench_path[:-6] + ".manifest.json", encoding="utf-8")).read())
    assert manifest["entries"] == 8
    assert manifest["pairs"] == 8 * 65
    assert len(manifest["models"]) == 3


def test_run_eval_breakdown_report_on_benchmark(pipeline, capsys):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    evals = {}
    for model in ("bm25", "dense_a"):
        run_out = root / f"benchrun_{model}"
        argv = ["run", "--corpus", pref_path, "--benchmark", bench_path,
                "--model", model, "--out", str(run_out)]
        if model != "bm25":
            argv += ["--embeddings", f"{model}={emb[model]}"]
        assert main(argv) == 0
        eval_out = root / f"bencheval_{model}"
        assert main(["eval", "--run", str(run_out / f"run_{model}.tsv"),
                     "--benchmark", bench_path, "--out", str(eval_out)]) == 0
        evals[model] = str(eval_out / f"eval_run_{model}.json")
        data = json.loads(open(evals[model], encoding="utf-8").read())
        assert set(data["per_field"]) == {"Med", "CS"}
        assert set(data["avg"]) == {"map", "recall@5"}
        tsv = open(eval_out / f"eval_run_{model}.tsv", encoding="utf-8").read().splitlines()
        assert tsv[0] == "Field\tMAP\tR@5"
        assert tsv[-1].startswith("AVG\t")

    bd_out = root / "breakdown"
    assert main(["breakdown", "--corpus", pref_path, "--benchmark", bench_path,
                 "--model", "bm25", "--out", str(bd_out)]) == 0
    table = json.loads((bd_out / "breakdown_bm25.json").read_text())
    assert len(table) == 6
    assert {"graph", "most_cited", "random"} <= set(table)
    tsv = (bd_out / "breakdown_bm25.tsv").read_text().splitlines()
    assert tsv[0] == "Type\tMAP\tR@5"

    rep_out = root / "report"
    assert main(["report", "--eval", f"bm25={evals['bm25']}",
                 "--eval", f"dense_a={evals['dense_a']}",
                 "--format", "tsv", "--out", str(rep_out)]) == 0
    lines = (rep_out / "report.tsv").read_text().splitlines()
    assert lines[0] == "Field\tbm25 MAP\tbm25 R@5\tdense_a MAP\tdense_a R@5"
    # rows follow the canonical field order, AVG last
    assert [l.split("\t")[0] for l in lines[1:]] == ["CS", "Med", "AVG"]
    md_out = root / "report_md"
    assert main(["report", "--eval", f"bm25={evals['bm25']}", "--format", "markdown",
                 "--out", str(md_out)]) == 0
    assert (md_out / "report.md").read_text().startswith("| Field |")


def test_run_needs_pool_xor_benchmark(workspace, capsys):
    root, _, pref_path, _ = workspace
    rc = main(["run", "--corpus", pref_path, "--out", str(root / "nothing")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "exactly one" in err["error"]["message"]


def test_unknown_model_error(pipeline, capsys):
    root, pref_path, emb, pools, run_files, _ = pipeline
    rc = main(["run", "--corpus", pref_path, "--pool", pools[0],
               "--model", "mystery", "--out", str(root / "x")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "mystery" in err["error"]["message"]


@pytest.mark.parametrize("command", ["run", "tune"])
def test_extra_pools_rejected(pipeline, capsys, command):
    root, pref_path, emb, pools, run_files, _ = pipeline
    rc = main([command, "--corpus", pref_path, "--pool", pools[0], "--pool", pools[1],
               "--out", str(root / f"two_pools_{command}")])
    assert rc == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert pools[1] in message and "one --pool" in message


def test_run_tune_builds_index_once(pipeline, monkeypatch):
    root, pref_path, emb, pools, run_files, _ = pipeline
    calls = []

    def counting_build_index(*args, **kwargs):
        calls.append(args)
        return build_index(*args, **kwargs)

    build_index = cli.build_index
    monkeypatch.setattr(cli, "build_index", counting_build_index)
    out = root / "run_tuned"
    assert main(["run", "--corpus", pref_path, "--pool", pools[0], "--tune", "--cutoff", "50",
                 "--out", str(out)]) == 0
    assert len(calls) == 1
    assert (out / "run_bm25.tsv").exists()
