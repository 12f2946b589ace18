import json
import subprocess
from pathlib import Path

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


@pytest.mark.parametrize("extra, flag", [
    (["--benchmark", "BENCH"], "--benchmark"),
    (["--pool", "POOL", "--model", "dense_a"], "--model dense_a"),
    (["--pool", "POOL", "--k1", "1.5"], "--k1"),
    (["--pool", "POOL", "--b", "0.2"], "--b"),
    (["--pool", "POOL", "--params", "bm25_params.json"], "--params"),
], ids=["benchmark", "dense", "k1", "b", "params"])
def test_run_tune_conflicting_flag_rejected(pipeline, capsys, extra, flag):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    paths = {"BENCH": bench_path, "POOL": pools[0]}
    out = root / "tune_conflict"
    rc = main(["run", "--corpus", pref_path, *(paths.get(a, a) for a in extra), "--tune",
               "--embeddings", f"dense_a={emb['dense_a']}", "--out", str(out)])
    assert rc == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert "--tune" in message and flag in message
    assert not out.exists()


def _error(capsys) -> str:
    return json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize("command, config, key", [
    ("pool", {"query_yaer": 2015}, "query_yaer"),
    ("pool", {"size": "300"}, "size"),
    ("pool", {"size": True}, "size"),
    ("tune", {"pool": "x.json"}, "pool"),
    ("benchgen", {"pool": "x.json"}, "pool"),
    ("prefilter", {"k1": 1.2}, "k1"),
    ("run", {"metric": "manhattan"}, "metric"),
    ("run", {"tune": 1}, "tune"),
    ("eval", {"run": []}, "run"),
    ("report", {"eval": ["a=b", 3]}, "eval"),
    ("ingest", {"config": "other.json"}, "config"),
], ids=["unknown-key", "str-for-int", "bool-for-int", "tune-str-for-list",
        "benchgen-str-for-list", "flag-of-another-subcommand", "outside-choices",
        "int-for-bool", "empty-list", "non-str-in-list", "config-key"])
def test_config_rejects_bad_key_or_value(workspace, tmp_path, capsys, command, config, key):
    _, _, pref_path, _ = workspace
    path = tmp_path / "cfg.json"
    # pool settings that run on their own, so only the bad entry can fail
    runnable = {"corpus": pref_path, "setup": "field", "field": "Med", "size": 250, "seed": 3}
    path.write_text(json.dumps({**runnable, **config} if command == "pool" else config))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    message = _error(capsys)
    assert str(path) in message and repr(key) in message
    assert not out.exists()


@pytest.mark.parametrize("flags, config", [
    (["pool", "--corpus", "PREF", "--setup", "field", "--field", "Med", "--size", "250",
      "--queries", "4", "--repetitions", "1", "--seed", "21"],
     {"corpus": "PREF", "setup": "field", "field": "Med", "size": 250, "queries": 4,
      "repetitions": 1, "seed": 21}),
    # an int for the float flag --k1 hashes like --k1 1
    (["run", "--corpus", "PREF", "--pool", "POOL", "--model", "dense_a", "--embeddings",
      "EMB", "--metric", "dot", "--k1", "1", "--b", "0.5", "--cutoff", "50", "--threads", "2"],
     {"corpus": "PREF", "pool": ["POOL"], "model": "dense_a", "embeddings": ["EMB"],
      "metric": "dot", "k1": 1, "b": 0.5, "cutoff": 50, "threads": 2}),
], ids=["pool", "run"])
def test_config_gives_same_bytes_as_flags(pipeline, tmp_path, flags, config):
    root, pref_path, emb, pools, run_files, _ = pipeline
    paths = {"PREF": pref_path, "POOL": pools[0], "EMB": f"dense_a={emb['dense_a']}"}
    command = flags[0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: [paths.get(v, v) for v in value] if isinstance(value, list)
                                else paths.get(value, value) for key, value in config.items()}))
    assert main([paths.get(a, a) for a in flags] + ["--out", str(tmp_path / "flags")]) == 0
    assert main([command, "--config", str(path), "--out", str(tmp_path / "config")]) == 0
    by_flags = sorted((tmp_path / "flags").iterdir())
    by_config = sorted((tmp_path / "config").iterdir())
    assert [p.name for p in by_flags] == [p.name for p in by_config]
    assert any(p.name.endswith(".manifest.json") for p in by_flags)
    for a, b in zip(by_flags, by_config):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_config_list_flags_and_flag_precedence(pipeline, tmp_path):
    root, pref_path, emb, pools, run_files, _ = pipeline
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"corpus": pref_path, "pool": [pools[1]], "cutoff": 100}))
    # --pool given as a flag wins over the config's list
    assert main(["tune", "--config", str(path), "--pool", pools[0],
                 "--out", str(tmp_path / "tune")]) == 0
    assert ((tmp_path / "tune" / "bm25_params.json").read_bytes()
            == (root / "tune" / "bm25_params.json").read_bytes())
    assert ((tmp_path / "tune" / "bm25_params.manifest.json").read_bytes()
            == (root / "tune" / "bm25_params.manifest.json").read_bytes())


@pytest.mark.parametrize("command", ["ingest", "report"])
def test_malformed_json_names_its_path(workspace, tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    if command == "ingest":
        argv = ["ingest", "--config", str(bad)]
    else:
        argv = ["report", "--eval", f"bm25={bad}"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    message = _error(capsys)
    assert str(bad) in message and "malformed JSON" in message


@pytest.mark.parametrize("params", [{"b": 0.4}, {"k1": "0.9", "b": 0.4}, {"k1": 0.9, "b": None},
                                    [0.9, 0.4]],
                         ids=["missing-k1", "str-k1", "null-b", "not-an-object"])
def test_params_file_needs_numeric_k1_and_b(pipeline, tmp_path, capsys, params):
    root, pref_path, emb, pools, run_files, _ = pipeline
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main(["run", "--corpus", pref_path, "--pool", pools[0], "--params", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    message = _error(capsys)
    assert str(path) in message and "k1 and b" in message


@pytest.mark.parametrize("flag", ["--embeddings", "--eval", "--run"])
def test_name_path_spec_without_name_rejected(pipeline, tmp_path, capsys, flag):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    command = {"--embeddings": "run", "--eval": "report", "--run": "benchgen"}[flag]
    argv = [command, flag, "no-equals-sign", "--corpus", pref_path, "--seed", "1",
            "--out", str(tmp_path / "out")]
    if command != "report":
        argv += ["--pool", pools[0]]
    assert main(argv) == 1
    assert f"{flag} takes NAME=PATH, got 'no-equals-sign'" in _error(capsys)


@pytest.mark.parametrize("flag", ["--embeddings", "--eval"])
def test_repeated_name_rejected(pipeline, tmp_path, capsys, flag):
    root, pref_path, emb, pools, run_files, _ = pipeline
    if flag == "--embeddings":
        argv = ["run", "--corpus", pref_path, "--pool", pools[0], "--model", "dense_a",
                "--embeddings", f"dense_a={emb['dense_a']}",
                "--embeddings", f"dense_a={emb['dense_b']}"]
    else:
        argv = ["report", "--eval", "dense_a=a.json", "--eval", "dense_a=b.json"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert f"{flag} names 'dense_a' more than once" in _error(capsys)


def test_demo_tune_config_equals_flag_form(tmp_path, monkeypatch):
    demo = Path(__file__).resolve().parent.parent / "demos" / "run_cli_pipeline.sh"
    work = tmp_path / "pipeline"
    done = subprocess.run(["bash", str(demo), str(work)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    monkeypatch.chdir(work)
    assert main(["tune", "--corpus", "out/pref/prefiltered.jsonl",
                 "--pool", "out/pools_Med/pool_field_Med_250_rep0.json", "--cutoff", "100",
                 "--out", "out/tune_flags"]) == 0
    for name in ("bm25_params.json", "bm25_params.manifest.json"):
        assert (work / "out/tune" / name).read_bytes() == (work / "out/tune_flags" / name).read_bytes()
