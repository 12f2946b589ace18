import argparse
import copy
import json
import math
import subprocess
from pathlib import Path

import pytest

from citebench import cli, synthetic
from citebench.benchgen import read_benchmark_jsonl
from citebench.cli import main
from citebench.corpus import load_corpus, write_corpus_jsonl
from citebench.dense import load_embeddings, save_embeddings
from citebench.metrics import read_run_tsv
from citebench.pools import read_pool_json


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


# the flags each subcommand requires, in the order they are checked
_REQUIRED = {
    "ingest": ["corpus", "out"], "prefilter": ["corpus", "out"],
    "pool": ["corpus", "out", "setup", "size", "seed"], "tune": ["corpus", "pool", "out"],
    "run": ["corpus", "out"], "eval": ["run", "out"],
    "benchgen": ["corpus", "pool", "run", "seed", "out"],
    "breakdown": ["corpus", "benchmark", "out"], "report": ["eval", "out"],
}
# a value for each; no input file is read before the required flags are checked
_REQUIRED_VALUES = {"corpus": "corpus.jsonl", "setup": "dataset", "size": "10", "seed": "1",
                    "pool": "pool.json", "run": "run.tsv", "benchmark": "benchmark.jsonl",
                    "eval": "a=eval.json"}


@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command, flags in _REQUIRED.items() for flag in flags),
    ("pool", "field"),  # required with --setup field
], ids=lambda v: v)
def test_required_flag_omitted_rejected(tmp_path, capsys, command, flag):
    """With the flag and every flag checked after it omitted, the error names the flag."""
    required = _REQUIRED[command] + (["field"] if flag == "field" else [])
    values = {**_REQUIRED_VALUES, "out": str(tmp_path / "out"),
              "setup": "field" if flag == "field" else "dataset"}
    given = required[:required.index(flag)]
    argv = [command, *(a for f in given for a in (f"--{f}", values[f]))]
    assert main(argv) == 1
    assert _error(capsys) == f"--{flag} is required for {command}"
    assert not any(tmp_path.iterdir())


# each subcommand's flags in parser order; every flag's dest is its name and
# its default None, so these and the dests fix the keys config_hash covers
_OPTIONS = {
    "ingest": ["--config", "--corpus", "--out", "--seed", "--threads", "--reject-budget"],
    "prefilter": ["--config", "--corpus", "--out", "--seed", "--threads", "--reject-budget",
                  "--min-abstract-chars", "--min-citations"],
    "pool": ["--config", "--corpus", "--out", "--seed", "--threads", "--setup", "--field",
             "--size", "--queries", "--query-year", "--repetitions", "--exclude"],
    "tune": ["--config", "--corpus", "--out", "--seed", "--threads", "--pool", "--objective",
             "--cutoff"],
    "run": ["--config", "--corpus", "--out", "--seed", "--threads", "--model", "--embeddings",
            "--metric", "--k1", "--b", "--params", "--pool", "--benchmark", "--cutoff", "--tune"],
    "eval": ["--config", "--corpus", "--out", "--seed", "--threads", "--run", "--pool",
             "--benchmark", "--recall-cutoff"],
    "benchgen": ["--config", "--corpus", "--out", "--seed", "--threads", "--pool", "--run",
                 "--depth", "--top", "--positives", "--negatives"],
    "breakdown": ["--config", "--corpus", "--out", "--seed", "--threads", "--model",
                  "--embeddings", "--metric", "--k1", "--b", "--params", "--benchmark"],
    "report": ["--config", "--corpus", "--out", "--seed", "--threads", "--eval", "--format"],
}


@pytest.mark.parametrize("command", _OPTIONS)
def test_subcommand_flags_are_pinned(command):
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = [a for a in sub.choices[command]._actions if a.dest != "help"]
    assert [o for a in flags for o in a.option_strings] == _OPTIONS[command]
    assert [(a.dest, a.default) for a in flags] == [
        (o[2:].replace("-", "_"), None) for o in _OPTIONS[command]]


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
    assert main([*_benchgen_argv(pref_path, pools, run_files), "--out", str(bench_out)]) == 0
    return root, pref_path, emb, pools, run_files, str(bench_out / "benchmark.jsonl")


def _benchgen_argv(pref_path, pools, run_files) -> list[str]:
    argv = ["benchgen", "--corpus", pref_path, "--seed", "31"]
    for p in pools:
        argv += ["--pool", p]
    for model, files in run_files.items():
        for f in files:
            argv += ["--run", f"{model}={f}"]
    return argv


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


def test_eval_run_of_another_pool_names_both_files(pipeline, tmp_path, capsys):
    root, pref_path, emb, pools, run_files, _ = pipeline
    med_pool, cs_run = pools[0], run_files["bm25"][1]
    med_queries = read_pool_json(med_pool).positives
    outside = next(q for q in read_run_tsv(cs_run) if q not in med_queries)
    assert main(["eval", "--run", cs_run, "--pool", med_pool, "--out", str(tmp_path)]) == 1
    assert _error(capsys) == f"{cs_run}: query {outside!r} is not a query of {med_pool}"


def test_benchmark_shape(pipeline):
    *_, bench_path = pipeline
    lines = [json.loads(l) for l in Path(bench_path).read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 8  # 2 fields x 4 queries
    for obj in lines:
        assert len(obj["positives"]) == 5
        assert len(obj["negatives"]) == 6
        assert all(len(ids) == 10 for ids in obj["negatives"].values())
    manifest = json.loads(Path(bench_path[:-6] + ".manifest.json").read_text(encoding="utf-8"))
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
        data = json.loads(Path(evals[model]).read_text(encoding="utf-8"))
        assert set(data["per_field"]) == {"Med", "CS"}
        assert set(data["avg"]) == {"map", "recall@5"}
        tsv = (eval_out / f"eval_run_{model}.tsv").read_text(encoding="utf-8").splitlines()
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


def _bench_run(pipeline, tmp_path) -> str:
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    assert main(["run", "--corpus", pref_path, "--benchmark", bench_path, "--model", "bm25",
                 "--out", str(tmp_path / "benchrun")]) == 0
    return str(tmp_path / "benchrun" / "run_bm25.tsv")


def test_eval_benchmark_takes_recall_cutoff(pipeline, tmp_path):
    *_, bench_path = pipeline
    run_path = _bench_run(pipeline, tmp_path)
    out = tmp_path / "eval"
    assert main(["eval", "--run", run_path, "--benchmark", bench_path, "--recall-cutoff", "10",
                 "--out", str(out)]) == 0
    data = json.loads((out / "eval_run_bm25.json").read_text())
    assert set(data["avg"]) == {"map", "recall@10"}
    assert (out / "eval_run_bm25.tsv").read_text().splitlines()[0] == "Field\tMAP\tR@10"


def test_eval_benchmark_rejects_pool(pipeline, tmp_path, capsys):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    out = tmp_path / "eval"
    assert main(["eval", "--run", _bench_run(pipeline, tmp_path), "--benchmark", bench_path,
                 "--pool", pools[0], "--out", str(out)]) == 1
    assert _error(capsys) == "eval --benchmark does not read --pool"
    assert not out.exists()


def test_report_rejects_pool_eval_file(pipeline, tmp_path, capsys):
    root, pref_path, emb, pools, run_files, _ = pipeline
    assert main(["eval", "--run", run_files["bm25"][0], "--pool", pools[0],
                 "--out", str(tmp_path / "eval")]) == 0
    pool_eval = tmp_path / "eval" / "eval_run_bm25.json"
    out = tmp_path / "report"
    assert main(["report", "--eval", f"bm25={pool_eval}", "--out", str(out)]) == 1
    message = _error(capsys)
    assert message.startswith(f"{pool_eval}: missing key 'per_field'")
    assert "report takes benchmark eval files" in message
    assert not out.exists()


@pytest.fixture(scope="module")
def bench_eval(pipeline, tmp_path_factory):
    """The benchmark eval file of a BM25 benchmark run, as a dict."""
    _, pref_path, *_, bench_path = pipeline
    root = tmp_path_factory.mktemp("bench_eval")
    assert main(["run", "--corpus", pref_path, "--benchmark", bench_path, "--model", "bm25",
                 "--out", str(root / "run")]) == 0
    assert main(["eval", "--run", str(root / "run" / "run_bm25.tsv"), "--benchmark", bench_path,
                 "--out", str(root / "eval")]) == 0
    return json.loads((root / "eval" / "eval_run_bm25.json").read_text(encoding="utf-8"))


_METRICS = "an object of avg's metrics ['map', 'recall@5']"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["per_field"].update(Medicine=d["per_field"].pop("Med")),
     "per_field 'Medicine' is not one of the field abbreviations"),
    (lambda d: d["per_field"]["Med"].update(map="0.5"),
     "per_field 'Med' metric 'map' must be a number, got '0.5'"),
    (lambda d: d["avg"].update({"recall@5": True}),
     "avg metric 'recall@5' must be a number, got True"),
    # a JSON integer has no bound; float() of this one raises OverflowError
    (lambda d: d["avg"].update(map=10 ** 400),
     f"avg metric 'map' must be a number, got {10 ** 400}"),
    (lambda d: d["per_field"]["CS"].pop("map"), f"per_field 'CS' must be {_METRICS}"),
    (lambda d: d["per_field"]["Med"].update(ndcg=0.5), f"per_field 'Med' must be {_METRICS}"),
    (lambda d: d["per_field"].update(CS=[0.5]), f"per_field 'CS' must be {_METRICS}"),
], ids=["field-name", "str-metric", "bool-metric", "int-past-float", "missing-metric",
        "extra-metric", "list-for-object"])
def test_report_rejects_malformed_eval_file(bench_eval, tmp_path, capsys, edit, message):
    data = copy.deepcopy(bench_eval)
    edit(data)
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", "--eval", f"bm25={path}", "--out", str(out)]) == 1
    assert _error(capsys) == f"{path}: {message}"
    assert not out.exists()


@pytest.mark.parametrize("lacking", ["first", "second"])
def test_report_rejects_eval_files_of_different_fields(bench_eval, tmp_path, capsys, lacking):
    full, partial = tmp_path / "full.json", tmp_path / "partial.json"
    full.write_text(json.dumps(bench_eval), encoding="utf-8")
    data = copy.deepcopy(bench_eval)
    del data["per_field"]["CS"]
    partial.write_text(json.dumps(data), encoding="utf-8")
    first, second = (partial, full) if lacking == "first" else (full, partial)
    out = tmp_path / "out"
    assert main(["report", "--eval", f"a={first}", "--eval", f"b={second}",
                 "--out", str(out)]) == 1
    assert _error(capsys) == (f"{partial} has no field 'CS', which {full} has; "
                              "report needs the same fields in every eval file")
    assert not out.exists()


@pytest.mark.parametrize("types, expected", [
    (["m1", "m2", "m3", "graph", "most_cited", "randm"], "are not the benchmark types"),
    ("graph", "types must be a list of strings"),
], ids=["misspelt-type", "types-str"])
def test_breakdown_rejects_bad_manifest_types(pipeline, tmp_path, capsys, types, expected):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    bench = tmp_path / "benchmark.jsonl"
    bench.write_bytes(Path(bench_path).read_bytes())
    (tmp_path / "benchmark.manifest.json").write_text(json.dumps({"types": types}))
    assert main(["breakdown", "--corpus", pref_path, "--benchmark", str(bench),
                 "--model", "bm25", "--out", str(tmp_path / "out")]) == 1
    message = _error(capsys)
    assert str(tmp_path / "benchmark.") in message and expected in message


def test_tune_rejects_unknown_objective(pipeline, tmp_path, capsys):
    root, pref_path, emb, pools, run_files, _ = pipeline
    assert main(["tune", "--corpus", pref_path, "--pool", pools[0], "--objective", "recall@x",
                 "--out", str(tmp_path / "tune")]) == 1
    assert "unknown metric 'recall@x'" in _error(capsys)


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


def test_each_subcommand_loads_and_builds_as_often_as_before(pipeline, tmp_path, monkeypatch):
    """The (load_corpus, build_citation_graph, build_index) calls of each
    subcommand over the demo pipeline: the corpus once where it is read, the
    graph or the index once where it is used."""
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    calls = []

    def counting(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("load_corpus", "build_citation_graph", "build_index"):
        monkeypatch.setattr(cli, name, counting(name))
    dense = ["--model", "dense_a", "--embeddings", f"dense_a={emb['dense_a']}"]
    params = str(root / "tune" / "bm25_params.json")
    out = tmp_path / "out"
    steps = [
        (["ingest", "--corpus", pref_path], (1, 1, 0)),
        (["prefilter", "--corpus", pref_path], (1, 1, 0)),
        (["pool", "--corpus", pref_path, "--setup", "field", "--field", "Med", "--size", "250",
          "--queries", "4", "--repetitions", "1", "--seed", "21"], (1, 1, 0)),
        (["tune", "--corpus", pref_path, "--pool", pools[0], "--cutoff", "100"], (1, 0, 1)),
        (["run", "--corpus", pref_path, "--pool", pools[0], "--params", params], (1, 0, 1)),
        (["run", "--corpus", pref_path, "--pool", pools[0], *dense], (1, 0, 0)),
        (["run", "--corpus", pref_path, "--pool", pools[0], "--tune", "--cutoff", "50"],
         (1, 0, 1)),
        (["eval", "--run", run_files["bm25"][0], "--pool", pools[0]], (0, 0, 0)),
        (_benchgen_argv(pref_path, pools, run_files), (1, 1, 0)),
        (["run", "--corpus", pref_path, "--benchmark", bench_path], (1, 0, 1)),
        (["run", "--corpus", pref_path, "--benchmark", bench_path, *dense], (1, 0, 0)),
        (["eval", "--run", str(out / "run_bm25.tsv"), "--benchmark", bench_path], (0, 0, 0)),
        (["breakdown", "--corpus", pref_path, "--benchmark", bench_path], (1, 0, 1)),
        (["report", "--eval", f"bm25={out / 'eval_run_bm25.json'}"], (0, 0, 0)),
    ]
    for argv, expected in steps:
        calls.clear()
        assert main([*argv, "--out", str(out)]) == 0, argv
        counts = tuple(calls.count(name) for name in
                       ("load_corpus", "build_citation_graph", "build_index"))
        assert counts == expected, argv


@pytest.mark.parametrize("extra, message", [
    (["--benchmark", "BENCH"], "run --tune does not read --benchmark"),
    (["--pool", "POOL", "--model", "dense_a"], "run --model dense_a does not read --tune"),
    (["--pool", "POOL", "--k1", "1.5"], "run --tune does not read --k1"),
    (["--pool", "POOL", "--b", "0.2"], "run --tune does not read --b"),
    (["--pool", "POOL", "--params", "bm25_params.json"], "run --tune does not read --params"),
], ids=["benchmark", "dense", "k1", "b", "params"])
def test_run_tune_conflicting_flag_rejected(pipeline, capsys, extra, message):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    paths = {"BENCH": bench_path, "POOL": pools[0]}
    out = root / "tune_conflict"
    rc = main(["run", "--corpus", pref_path, *(paths.get(a, a) for a in extra), "--tune",
               "--embeddings", f"dense_a={emb['dense_a']}", "--out", str(out)])
    assert rc == 1
    assert _error(capsys) == message
    assert not out.exists()


def _error(capsys) -> str:
    return json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["ingest"], ["prefilter"], ["pool", "--setup", "dataset", "--size", "10", "--seed", "1"],
], ids=["ingest", "prefilter", "pool"])
def test_corpus_that_fails_to_load_leaves_no_out(tmp_path, capsys, argv):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("{not json\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([*argv, "--corpus", str(corpus), "--out", str(out)]) == 1
    assert _error(capsys).startswith(f"{corpus}:1: malformed JSON")
    assert not out.exists()


def test_pool_that_fails_to_sample_leaves_no_out(workspace, tmp_path, capsys):
    root, _, pref_path, _ = workspace
    out = tmp_path / "out"
    assert main(["pool", "--corpus", pref_path, "--setup", "dataset", "--size", "100",
                 "--queries", "100000", "--seed", "1", "--out", str(out)]) == 1
    assert "eligible query articles" in _error(capsys)
    assert not out.exists()


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
    # a JSON integer has no bound; float() of this one raises OverflowError
    ("run", {"k1": 10 ** 400}, "k1"),
], ids=["unknown-key", "str-for-int", "bool-for-int", "tune-str-for-list",
        "benchgen-str-for-list", "flag-of-another-subcommand", "outside-choices",
        "int-for-bool", "empty-list", "non-str-in-list", "config-key", "int-past-float"])
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


@pytest.mark.parametrize("model", ["bm25", "dense_a"])
def test_config_store_true_flag_takes_only_true(pipeline, tmp_path, capsys, model):
    root, pref_path, emb, pools, run_files, _ = pipeline
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tune": False}))
    out = tmp_path / "out"
    assert main(["run", "--corpus", pref_path, "--pool", pools[0], "--model", model,
                 "--embeddings", f"dense_a={emb['dense_a']}", "--config", str(config),
                 "--out", str(out)]) == 1
    assert _error(capsys) == f"{config}: key 'tune' takes true, got False"
    assert not out.exists()


@pytest.mark.parametrize("flags, config", [
    (["pool", "--corpus", "PREF", "--setup", "field", "--field", "Med", "--size", "250",
      "--queries", "4", "--repetitions", "1", "--seed", "21"],
     {"corpus": "PREF", "setup": "field", "field": "Med", "size": 250, "queries": 4,
      "repetitions": 1, "seed": 21}),
    # an int for the float flag --k1 hashes like --k1 1
    (["run", "--corpus", "PREF", "--pool", "POOL", "--model", "bm25", "--embeddings", "EMB",
      "--k1", "1", "--b", "0.5", "--cutoff", "50"],
     {"corpus": "PREF", "pool": ["POOL"], "model": "bm25", "embeddings": ["EMB"],
      "k1": 1, "b": 0.5, "cutoff": 50}),
    (["run", "--corpus", "PREF", "--pool", "POOL", "--model", "dense_a", "--embeddings",
      "EMB", "--metric", "dot", "--cutoff", "50", "--threads", "2"],
     {"corpus": "PREF", "pool": ["POOL"], "model": "dense_a", "embeddings": ["EMB"],
      "metric": "dot", "cutoff": 50, "threads": 2}),
], ids=["pool", "run", "run-dense"])
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


@pytest.mark.parametrize("params, expected", [
    ({"b": 0.4}, "missing key 'k1'"),
    ({"k1": "0.9", "b": 0.4}, "k1 must be a number"),
    ({"k1": 0.9, "b": None}, "b must be a number"),
    ({"k1": True, "b": 0.4}, "k1 must be a number"),
    ({"k1": 10 ** 400, "b": 0.4}, "k1 must be a number"),
    ([0.9, 0.4], "params file must be a JSON object"),
    # json.dumps writes NaN, which no JSON reader may take as a number
    ({"k1": math.nan, "b": 0.4}, "malformed JSON: NaN is not a JSON value"),
], ids=["missing-k1", "str-k1", "null-b", "bool-k1", "int-past-float-k1", "not-an-object",
        "nan-k1"])
def test_params_file_needs_numeric_k1_and_b(pipeline, tmp_path, capsys, params, expected):
    root, pref_path, emb, pools, run_files, _ = pipeline
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main(["run", "--corpus", pref_path, "--pool", pools[0], "--params", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert _error(capsys) == f"{path}: {expected}"


@pytest.mark.parametrize("flag", ["--embeddings", "--eval", "--run"])
def test_name_path_spec_without_name_rejected(pipeline, tmp_path, capsys, flag):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    command = {"--embeddings": "run", "--eval": "report", "--run": "benchgen"}[flag]
    argv = [command, flag, "no-equals-sign", "--seed", "1", "--out", str(tmp_path / "out")]
    if command != "report":
        argv += ["--corpus", pref_path, "--pool", pools[0]]
    assert main(argv) == 1
    assert f"{flag} takes NAME=PATH, got 'no-equals-sign'" in _error(capsys)


@pytest.mark.parametrize("flag", ["--embeddings", "--eval", "--run"])
def test_name_path_spec_with_empty_path_rejected(pipeline, tmp_path, capsys, flag):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    command = {"--embeddings": "run", "--eval": "report", "--run": "benchgen"}[flag]
    argv = [command, flag, "dense_a=", "--seed", "1", "--out", str(tmp_path / "out")]
    if command != "report":
        argv += ["--corpus", pref_path, "--pool", pools[0]]
    if command == "run":
        argv += ["--model", "dense_a"]
    assert main(argv) == 1
    assert _error(capsys) == f"{flag} 'dense_a=' has an empty PATH"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("source", ["pool", "benchmark"])
@pytest.mark.parametrize("model", ["bm25", "dense_a"])
def test_run_rejects_cutoff_below_one(pipeline, tmp_path, capsys, model, source):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    ids = ["--pool", pools[0]] if source == "pool" else ["--benchmark", bench_path]
    out = tmp_path / "run"
    assert main(["run", "--corpus", pref_path, *ids, "--model", model,
                 "--embeddings", f"dense_a={emb['dense_a']}", "--cutoff", "0",
                 "--out", str(out)]) == 1
    # a closed pool is ranked whole, so run --benchmark takes no cutoff at all
    assert _error(capsys) == ("cutoff must be >= 1, got 0" if source == "pool"
                              else "run --benchmark does not read --cutoff")
    assert not out.exists()


@pytest.mark.parametrize("k1", ["nan", "inf", "-inf"])
def test_run_rejects_a_non_finite_k1(pipeline, tmp_path, capsys, k1):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    out = tmp_path / "run"
    # argparse's float() reads these spellings (the = form lets "-inf" be a value);
    # the run would score every candidate nan
    assert main(["run", "--corpus", pref_path, "--pool", pools[0], "--model", "bm25",
                 f"--k1={k1}", "--out", str(out)]) == 1
    assert _error(capsys) == "k1 must be a finite number >= 0"
    assert not out.exists()


@pytest.mark.parametrize("model", ["bm25", "dense_a"])
def test_run_benchmark_rejects_a_cutoff_of_any_size(pipeline, tmp_path, capsys, model):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    argv = ["run", "--corpus", pref_path, "--benchmark", bench_path, "--model", model,
            "--embeddings", f"dense_a={emb['dense_a']}"]
    # one below a closed pool's candidate count and one that covers every pool
    largest = max(len(e.candidate_ids()) for e in read_benchmark_jsonl(bench_path).entries)
    for cutoff in ("3", str(largest)):
        assert main([*argv, "--cutoff", cutoff, "--out", str(tmp_path / "out")]) == 1
        assert _error(capsys) == "run --benchmark does not read --cutoff"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model", ["bm25", "dense_a"])
def test_run_benchmark_ranks_a_closed_pool_past_500_whole(workspace, tmp_path, capsys, model):
    root, _, pref_path, emb = workspace
    ids = load_corpus(pref_path).ids()
    entry = {"query_id": ids[0], "field": "Med", "positives": ids[1:6],
             "negatives": {"random": ids[6:606]}}
    bench_path = tmp_path / "benchmark.jsonl"
    bench_path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    argv = ["run", "--corpus", pref_path, "--benchmark", str(bench_path), "--model", model,
            "--embeddings", f"dense_a={emb['dense_a']}"]
    # the default depth of a pool run does not cut a closed pool
    assert main([*argv, "--out", str(tmp_path / "whole")]) == 0
    ranked = read_run_tsv(tmp_path / "whole" / f"run_{model}.tsv")[ids[0]]
    if model == "dense_a":  # BM25 leaves out the candidates no query term hits
        assert len(ranked) == 605
    assert len(ranked) > 500 and {doc for doc, _ in ranked} <= set(ids[1:606])
    capsys.readouterr()
    assert main([*argv, "--cutoff", "500", "--out", str(tmp_path / "cut")]) == 1
    assert _error(capsys) == "run --benchmark does not read --cutoff"
    assert not (tmp_path / "cut").exists()


@pytest.mark.parametrize("command, where", [("run", "query"), ("run", "pool"),
                                            ("breakdown", "negative")])
def test_missing_embedding_row_names_the_vector_file(pipeline, tmp_path, capsys, command,
                                                     where):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    if command == "run":
        pool_set = read_pool_json(pools[0])
        missing = min(pool_set.positives) if where == "query" else pool_set.pool_ids[-1]
        ids = ["--pool", pools[0]]
    else:
        entry = json.loads(Path(bench_path).read_text(encoding="utf-8").splitlines()[0])
        missing = entry["negatives"]["random"][0]
        ids = ["--benchmark", bench_path]
    store = load_embeddings(emb["dense_a"], emb["dense_a"] + ".json")
    keep = [r for r, i in enumerate(store.ids) if i != missing]
    vec = str(tmp_path / "missing_row.f32")
    save_embeddings([store.ids[r] for r in keep], store.vectors[keep], vec, vec + ".json")
    out = tmp_path / "out"
    assert main([command, "--corpus", pref_path, *ids, "--model", "dense_a",
                 "--embeddings", f"dense_a={vec}", "--out", str(out)]) == 1
    assert _error(capsys) == f"{vec}: id {missing!r} has no embedding row"
    assert not out.exists()


@pytest.mark.parametrize("first", [(), ("vec_path",), ("store",), ("vec_path", "corpus")],
                         ids=["pools", "vec_path", "store", "vec_path-corpus"])
def test_pool_ids_checked_against_the_vectors_in_any_order(pipeline, tmp_path, first):
    # the context's model spec and store follow from args, so whatever a
    # subcommand reads before the pool files, their rows are still checked
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    missing = read_pool_json(pools[0]).pool_ids[0]
    store = load_embeddings(emb["dense_a"], emb["dense_a"] + ".json")
    keep = [r for r, i in enumerate(store.ids) if i != missing]
    vec = str(tmp_path / "missing_row.f32")
    save_embeddings([store.ids[r] for r in keep], store.vectors[keep], vec, vec + ".json")
    args = cli.build_parser().parse_args(
        ["run", "--corpus", pref_path, "--pool", pools[0], "--model", "dense_a",
         "--embeddings", f"dense_a={vec}", "--out", str(tmp_path / "out")])
    inputs = cli._Inputs(args)
    for name in first:
        getattr(inputs, name)
    with pytest.raises(ValueError, match=f"id {missing!r} has no embedding row"):
        inputs.pools


@pytest.mark.parametrize("command", ["run", "eval", "breakdown"])
def test_benchmark_repeating_a_query_rejected(pipeline, tmp_path, capsys, command):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    lines = Path(bench_path).read_text(encoding="utf-8").splitlines(keepends=True)
    bench = tmp_path / "benchmark.jsonl"
    bench.write_text("".join([*lines, lines[0]]), encoding="utf-8")
    argv = {"run": ["run", "--corpus", pref_path, "--model", "bm25"],
            "eval": ["eval", "--run", _bench_run(pipeline, tmp_path)],
            "breakdown": ["breakdown", "--corpus", pref_path, "--model", "bm25"]}[command]
    out = tmp_path / "out"
    assert main([*argv, "--benchmark", str(bench), "--out", str(out)]) == 1
    message = _error(capsys)
    query = json.loads(lines[0])["query_id"]
    assert message.startswith(f"{bench}: benchmark query {query!r} has more than one entry")
    assert not any(out.glob("*"))


@pytest.mark.parametrize("flag, value, param", [
    ("--positives", "0", "positives_per_query"),
    ("--negatives", "-1", "negatives_per_type"),
    ("--depth", "0", "model_pool_depth"),
    ("--top", "0", "most_cited_top"),
])
def test_benchgen_rejects_counts_below_one(pipeline, tmp_path, capsys, flag, value, param):
    root, pref_path, emb, pools, run_files, _ = pipeline
    out = tmp_path / "bench"
    assert main([*_benchgen_argv(pref_path, pools, run_files), flag, value,
                 "--out", str(out)]) == 1
    assert f"{param} must be >= 1, got {value}" in _error(capsys)
    assert not (out / "benchmark.jsonl").exists()


@pytest.mark.parametrize("mode", ["pool", "benchmark"])
def test_eval_creates_out_only_after_its_inputs_pass(pipeline, tmp_path, capsys, mode):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    out = tmp_path / "out"
    if mode == "pool":
        # a CS run scored against the Med pool
        argv = ["eval", "--run", run_files["bm25"][1], "--pool", pools[0]]
    else:
        argv = ["eval", "--run", _bench_run(pipeline, tmp_path), "--benchmark",
                str(tmp_path / "nonexistent.jsonl")]
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()


def test_breakdown_creates_out_only_after_its_inputs_pass(pipeline, tmp_path, capsys):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    out = tmp_path / "out"
    assert main(["breakdown", "--corpus", pref_path, "--model", "bm25",
                 "--benchmark", str(tmp_path / "nonexistent.jsonl"), "--out", str(out)]) == 1
    assert "nonexistent.jsonl" in _error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv, flags, unread", [
    (["run", "--pool", "POOL", "--model", "bm25"], {"threads": 7}, "threads"),
    (["run", "--pool", "POOL", "--model", "bm25"], {"metric": "dot"}, "metric"),
    (["run", "--pool", "POOL", "--model", "bm25", "--tune"], {"threads": 7}, "threads"),
    (["run", "--pool", "POOL", "--model", "dense_a"],
     {"k1": 1.0, "b": 0.5, "params": "PARAMS"}, "k1"),
    (["run", "--pool", "POOL", "--model", "dense_a"], {"params": "PARAMS"}, "params"),
    (["breakdown", "--benchmark", "BENCH", "--model", "bm25"],
     {"threads": 3, "metric": "euclidean"}, "metric"),
    (["breakdown", "--benchmark", "BENCH", "--model", "dense_a"], {"b": 0.5}, "b"),
], ids=["run-bm25-threads", "run-bm25-metric", "run-tune-threads", "run-dense-k1-b-params",
        "run-dense-params", "breakdown-bm25", "breakdown-dense"])
def test_model_flag_the_backend_never_reads_rejected(pipeline, tmp_path, capsys, by_config,
                                                     argv, flags, unread):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    paths = {"POOL": pools[0], "BENCH": bench_path,
             "PARAMS": str(root / "tune" / "bm25_params.json")}
    flags = {key: paths.get(value, value) for key, value in flags.items()}
    command, model = argv[0], argv[argv.index("--model") + 1]
    argv = [*(paths.get(a, a) for a in argv), "--corpus", pref_path,
            "--embeddings", f"dense_a={emb['dense_a']}"]
    if by_config:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(flags))
        argv += ["--config", str(config)]
    else:
        for key, value in flags.items():
            argv += [f"--{key}", str(value)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert _error(capsys) == f"{command} --model {model} does not read --{unread}"
    assert not out.exists()


_DENSE = ["--model", "dense_a", "--embeddings", "dense_a=dense_a.f32"]
# (argv, flag, value, who) for every flag that an invocation never reads:
# `who` is the command and the flags in argv that decide it
_UNREAD = [
    *(([command], "threads", 7, command)
      for command in ("ingest", "prefilter", "pool", "tune", "eval", "benchgen", "report")),
    *(([command], "corpus", "corpus.jsonl", command) for command in ("eval", "report")),
    *(([command, "--model", "bm25"], flag, value, f"{command} --model bm25")
      for command in ("run", "breakdown") for flag, value in (("metric", "dot"), ("threads", 7))),
    *(([command, *_DENSE], flag, value, f"{command} --model dense_a")
      for command in ("run", "breakdown")
      for flag, value in (("k1", 1.5), ("b", 0.5), ("params", "params.json"), ("tune", True))
      if (command, flag) != ("breakdown", "tune")),
    *((["run", "--tune"], flag, value, "run --tune")
      for flag, value in (("k1", 1.5), ("b", 0.5), ("params", "params.json"),
                          ("benchmark", "benchmark.jsonl"))),
    *(([command, "--benchmark", "benchmark.jsonl"], flag, value, f"{command} --benchmark")
      for command, flag, value in (("run", "cutoff", 500), ("run", "pool", ["pool.json"]),
                                   ("eval", "pool", ["pool.json"]))),
    (["pool", "--setup", "dataset"], "field", "Nonsense", "pool --setup dataset"),
]


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv, flag, value, who", _UNREAD,
                         ids=[f"{who.replace(' --', '-').replace(' ', '-')}-{flag}"
                              for _, flag, _, who in _UNREAD])
def test_flag_the_invocation_never_reads_rejected(tmp_path, capsys, by_config, argv, flag,
                                                  value, who):
    if by_config:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({flag: value}))
        argv = [*argv, "--config", str(config)]
    elif value is True:
        argv = [*argv, f"--{flag}"]
    else:
        argv = [*argv, f"--{flag}", *map(str, value if isinstance(value, list) else [value])]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert _error(capsys) == f"{who} does not read --{flag}"
    assert not out.exists()


# (argv, flag, value) for an integer flag set below its least value in an
# otherwise valid invocation; the error names the flag by its dest
_BELOW_LEAST = [
    *((["run", "--pool", "POOL", "--model", "dense_a"], "threads", value) for value in (0, -3)),
    (["breakdown", "--benchmark", "BENCH", "--model", "dense_a"], "threads", 0),
    *(([command], "reject_budget", -1) for command in ("ingest", "prefilter")),
    *((["tune", "--pool", "POOL"], "cutoff", value) for value in (0, -3)),
    *((["eval", "--run", "RUN", "--pool", "POOL"], "recall_cutoff", value) for value in (0, -2)),
]


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv, flag, value", _BELOW_LEAST,
                         ids=[f"{argv[0]}-{flag}={value}" for argv, flag, value in _BELOW_LEAST])
def test_flag_below_its_least_value_rejected(pipeline, tmp_path, capsys, by_config, argv, flag,
                                             value):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    paths = {"POOL": pools[0], "BENCH": bench_path, "RUN": run_files["bm25"][0]}
    argv = [paths.get(a, a) for a in argv]
    if argv[0] != "eval":  # eval reads no --corpus
        argv += ["--corpus", pref_path]
    if argv[0] in ("run", "breakdown"):
        argv += ["--embeddings", f"dense_a={emb['dense_a']}"]
    if by_config:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({flag: value}))
        argv += ["--config", str(config)]
    else:
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    least = 0 if flag == "reject_budget" else 1
    assert _error(capsys) == f"{flag} must be >= {least}, got {value}"
    assert not out.exists()


def _with_ghosts(pool_path, tmp_path, *, pool_ids=(), query_ids=()) -> str:
    """A copy of the pool file with ids that no corpus holds added."""
    obj = json.loads(Path(pool_path).read_text(encoding="utf-8"))
    obj["pool_ids"] += list(pool_ids)
    obj["queries"] += [{"query_id": q, "positives": obj["pool_ids"][:1]} for q in query_ids]
    path = tmp_path / "ghost_pool.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("ghosts, named", [
    ({"pool_ids": ["GHOST1", "GHOST2"]}, "GHOST1"),
    ({"query_ids": ["GHOSTQ"]}, "GHOSTQ"),
], ids=["pool-id", "query-id"])
@pytest.mark.parametrize("command", ["tune", "run-bm25", "run-dense"])
def test_pool_ids_outside_the_corpus_rejected(pipeline, tmp_path, capsys, ghosts, named,
                                              command):
    root, pref_path, emb, pools, run_files, _ = pipeline
    pool_path = _with_ghosts(pools[0], tmp_path, **ghosts)
    argv = {"tune": ["tune"], "run-bm25": ["run", "--model", "bm25"],
            "run-dense": ["run", "--model", "dense_a",
                          "--embeddings", f"dense_a={emb['dense_a']}"]}[command]
    out = tmp_path / "out"
    assert main([*argv, "--corpus", pref_path, "--pool", pool_path, "--out", str(out)]) == 1
    assert _error(capsys) == f"{pool_path}: id {named!r} is not in the corpus"
    assert not out.exists()


@pytest.mark.parametrize("ghosts, named", [
    ({"pool_ids": ["GHOST1", "GHOST2"]}, "GHOST1"),
    ({"query_ids": ["GHOST"]}, "GHOST"),
], ids=["pool-id", "query-id"])
def test_benchgen_pool_ids_outside_the_corpus_rejected(pipeline, tmp_path, capsys, ghosts,
                                                       named):
    root, pref_path, emb, pools, run_files, _ = pipeline
    pool_path = _with_ghosts(pools[0], tmp_path, **ghosts)
    out = tmp_path / "out"
    argv = _benchgen_argv(pref_path, [pool_path, pools[1]], run_files)
    assert main([*argv, "--out", str(out)]) == 1
    assert _error(capsys) == f"{pool_path}: id {named!r} is not in the corpus"
    assert not out.exists()


@pytest.mark.parametrize("column, named", [(0, "GHOSTQ"), (1, "GHOST")],
                         ids=["query-id", "doc-id"])
def test_benchgen_run_ids_outside_the_corpus_rejected(pipeline, tmp_path, capsys, column, named):
    root, pref_path, emb, pools, run_files, _ = pipeline
    lines = Path(run_files["dense_b"][0]).read_text(encoding="utf-8").splitlines()
    cells = lines[0].split("\t")
    cells[column] = named
    run_path = tmp_path / "ghost_run.tsv"
    run_path.write_text("\n".join(["\t".join(cells), *lines[1:]]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = _benchgen_argv(pref_path, pools,
                          {**run_files, "dense_b": [str(run_path), run_files["dense_b"][1]]})
    assert main([*argv, "--out", str(out)]) == 1
    assert _error(capsys) == f"{run_path}: id {named!r} is not in the corpus"
    assert not out.exists()


def test_json_artifacts_keep_non_ascii_raw(pipeline, tmp_path):
    # a model name becomes a negative group type, so it reaches the benchmark
    # manifest and the breakdown table
    root, pref_path, emb, pools, run_files, _ = pipeline
    bench_out, bd_out = tmp_path / "bench", tmp_path / "breakdown"
    renamed = {"ñ" if model == "dense_b" else model: files for model, files in run_files.items()}
    assert main([*_benchgen_argv(pref_path, pools, renamed), "--out", str(bench_out)]) == 0
    assert main(["breakdown", "--corpus", pref_path, "--benchmark",
                 str(bench_out / "benchmark.jsonl"), "--model", "bm25",
                 "--out", str(bd_out)]) == 0
    for path in (bench_out / "benchmark.manifest.json", bd_out / "breakdown_bm25.json"):
        data = path.read_bytes()
        assert b'"\xc3\xb1"' in data and b"\\u00f1" not in data, path.name


@pytest.mark.parametrize("where", ["negative", "query"])
@pytest.mark.parametrize("command", ["run-bm25", "run-dense", "breakdown"])
def test_benchmark_ids_outside_the_corpus_rejected(pipeline, tmp_path, capsys, where, command):
    root, pref_path, emb, pools, run_files, bench_path = pipeline
    lines = Path(bench_path).read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[0])
    if where == "negative":
        entry["negatives"]["random"][3] = "GHOST"
    else:
        entry["query_id"] = "GHOST"
    bench = tmp_path / "benchmark.jsonl"
    bench.write_text("\n".join([json.dumps(entry), *lines[1:]]) + "\n", encoding="utf-8")
    argv = {"run-bm25": ["run", "--model", "bm25"],
            "run-dense": ["run", "--model", "dense_a",
                          "--embeddings", f"dense_a={emb['dense_a']}"],
            "breakdown": ["breakdown", "--model", "bm25"]}[command]
    out = tmp_path / "out"
    assert main([*argv, "--corpus", pref_path, "--benchmark", str(bench),
                 "--out", str(out)]) == 1
    assert _error(capsys) == f"{bench}: id 'GHOST' is not in the corpus"
    assert not out.exists()


# one accepted invocation per subcommand, and a --config form of two, with the
# config_hash its manifests record; a change to a flag's dest, default, type
# or config coercion changes these digests
_HASHED = [
    (["ingest", "--corpus", "corpus.jsonl", "--reject-budget", "3"], {},
     "2b94d939f8ff29b0c8677d1d48a8b999784c5e9ece00db04fa8b3305539e4852"),
    (["prefilter", "--corpus", "corpus.jsonl", "--min-citations", "2"], {},
     "7d8bda023e00fa11e525eea7920e4822f52aa6580fb655dcc62258e8b61ce276"),
    (["pool", "--corpus", "pref.jsonl", "--setup", "field", "--field", "Med", "--size", "250",
      "--queries", "4", "--repetitions", "1", "--seed", "97"], {},
     "a169cad9f8c9e11de356b791c46c1765cc9a29bc25c502be63cb44e69e2bb8ff"),
    (["tune", "--corpus", "pref.jsonl", "--pool", "pool.json", "--cutoff", "100"], {},
     "322b442a48606a097ce25109ed1bee8b0d41d71c62535a66712147b123d6ac87"),
    (["tune", "--pool", "pool.json"], {"corpus": "pref.jsonl", "cutoff": 100},
     "322b442a48606a097ce25109ed1bee8b0d41d71c62535a66712147b123d6ac87"),
    (["run", "--corpus", "pref.jsonl", "--pool", "pool.json", "--model", "bm25",
      "--params", "params.json", "--cutoff", "200"], {},
     "7437354cdec09d29d236c7d04c5c3b8f94bc21e1509db8e8f6e2ad80629df11e"),
    (["run", "--corpus", "pref.jsonl", "--pool", "pool.json", *_DENSE, "--metric", "dot",
      "--threads", "2"], {},
     "651e58737e6086950074ff00ca71f4e0f8dce320c53ab06673f0bbdea141102e"),
    (["run", "--pool", "pool.json"], {"corpus": "pref.jsonl", "k1": 1, "b": 0.5},
     "1c2587de3f0577c19efabf580a04ffff11d3c2136aa5103fb378a1b8ba226560"),
    (["run", "--corpus", "pref.jsonl", "--benchmark", "benchmark.jsonl", "--model", "bm25"],
     {}, "52bf7ecd52aa65af27a0cf0ea5c8b8bd30eea566d72a3b4813241eb085c55c57"),
    (["eval", "--run", "run_bm25.tsv", "--pool", "pool.json", "--recall-cutoff", "30"], {},
     "b07fd25f67dcf595c2451ab9e88c87777706f1dabab2622e28183e9ff48b87b9"),
    (["eval", "--run", "run_bm25.tsv", "--benchmark", "benchmark.jsonl"], {},
     "e7f35d299da32241fb850e274b0769f13ce6eccf188d2873bca9bd597bd47638"),
    (["benchgen", "--corpus", "pref.jsonl", "--seed", "98", "--pool", "pool.json",
      "--run", "bm25=run_bm25.tsv", "--depth", "50"], {},
     "c67739e1eecc59af6f9821f7f9bf609c7aeafa06a49a4749eb1edb258c45e02b"),
    (["breakdown", "--corpus", "pref.jsonl", "--benchmark", "benchmark.jsonl", *_DENSE], {},
     "6a7ef30c02a486bcd2823916c8a6872a3f8ef70ce035c8cb12acf545a344f8bb"),
    (["report", "--eval", "bm25=eval.json", "--format", "markdown"], {},
     "4a5c5850e84f7f7aa7d83bf9ef57adbe4ada1285dc6690ea03bc873b64f2bc4a"),
]


@pytest.mark.parametrize("argv, config, digest", _HASHED,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _, _) in enumerate(_HASHED)])
def test_config_hash_is_pinned(tmp_path, argv, config, digest):
    if config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    parser = cli.build_parser()
    args = parser.parse_args([*argv, "--out", str(tmp_path / "out")])
    cli._merge_config(args, parser)
    assert cli._config_hash(args) == digest
