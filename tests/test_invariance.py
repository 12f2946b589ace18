"""What an output may depend on: inputs that mean the same give the same tree.

The demo pipeline runs in-process through cli.main once as given, then once
under each change that must not reach an output: the corpus's line order,
the row order of each vector file (its manifest ids moved with its rows),
the order of `pool_ids` in the pool files, and the row chunks a dense model
scans (--threads 1 against 4). Every artifact after prefilter must keep its
bytes, config_hash included, except where a change edits the artifact
itself: prefiltered.jsonl keeps the corpus's line order, the shuffled pool
files are inputs of the later steps, and --threads is part of config_hash.
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from citebench import synthetic
from citebench.cli import main
from citebench.corpus import Corpus, build_citation_graph, prefilter, write_corpus_jsonl
from citebench.dense import EmbeddingStore, save_embeddings

MODELS = ("bm25", "dense_a", "dense_b")
PREF = "out/pref/prefiltered.jsonl"
POOLS = [f"out/pools_{field}/pool_field_{field}_250_rep0.json" for field in ("Med", "CS")]


def _cli(*argv: str) -> None:
    assert main(list(argv)) == 0, argv


def _model_flags(model: str, threads: int) -> list[str]:
    if model == "bm25":
        return ["--model", "bm25"]
    return ["--model", model, "--embeddings", f"{model}={model}.f32", "--threads", str(threads)]


def _shuffle_pool_ids(path: str) -> None:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    random.Random(5).shuffle(obj["pool_ids"])
    Path(path).write_text(json.dumps(obj), encoding="utf-8")


def _pipeline(threads: int, shuffle_pools: bool) -> None:
    """The demo's subcommands, run in the current directory on its inputs."""
    _cli("ingest", "--corpus", "corpus.jsonl", "--out", "out/ingest")
    _cli("prefilter", "--corpus", "corpus.jsonl", "--out", "out/pref")
    for field, pool in zip(("Med", "CS"), POOLS):
        _cli("pool", "--corpus", PREF, "--setup", "field", "--field", field, "--size", "250",
             "--queries", "4", "--repetitions", "1", "--seed", "97", "--out", f"out/pools_{field}")
        if shuffle_pools:
            _shuffle_pool_ids(pool)
    _cli("tune", "--corpus", PREF, "--pool", POOLS[0], "--cutoff", "100", "--out", "out/tune")
    runs = []
    for field, pool in zip(("Med", "CS"), POOLS):
        for model in MODELS:
            params = ["--params", "out/tune/bm25_params.json"] if model == "bm25" else []
            _cli("run", "--corpus", PREF, "--pool", pool, *_model_flags(model, threads), *params,
                 "--cutoff", "200", "--out", f"out/run_{field}_{model}")
            runs += ["--run", f"{model}=out/run_{field}_{model}/run_{model}.tsv"]
    _cli("eval", "--run", "out/run_Med_bm25/run_bm25.tsv", "--pool", POOLS[0], "--out",
         "out/eval_pool")
    _cli("benchgen", "--corpus", PREF, "--seed", "98", "--pool", POOLS[0], "--pool", POOLS[1],
         *runs, "--out", "out/bench")
    bench, evals = "out/bench/benchmark.jsonl", []
    for model in ("bm25", "dense_a"):
        _cli("run", "--corpus", PREF, "--benchmark", bench, *_model_flags(model, threads),
             "--out", f"out/benchrun_{model}")
        _cli("eval", "--run", f"out/benchrun_{model}/run_{model}.tsv", "--benchmark", bench,
             "--out", f"out/bencheval_{model}")
        _cli("breakdown", "--corpus", PREF, "--benchmark", bench, *_model_flags(model, threads),
             "--out", f"out/breakdown_{model}")
        evals += ["--eval", f"{model}=out/bencheval_{model}/eval_run_{model}.json"]
    _cli("report", *evals, "--out", "out/report")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The demo's corpus file and vector stores, with ties that only the id
    order breaks: every fifth article takes its predecessor's text, and every
    odd row of a store its predecessor's vector."""
    root = tmp_path_factory.mktemp("inputs")
    articles = list(synthetic.generate_corpus(1000, seed=77))
    for i in range(5, len(articles), 5):
        articles[i] = replace(articles[i], title=articles[i - 1].title,
                              abstract=articles[i - 1].abstract)
    corpus = Corpus(articles)
    write_corpus_jsonl(corpus, root / "corpus.jsonl")
    kept = prefilter(corpus, build_citation_graph(corpus)).corpus
    stores = {}
    for label in ("dense_a", "dense_b"):
        store = synthetic.embed_corpus(kept, dim=16, label=label)
        vectors = np.array(store.vectors)
        vectors[1::2] = vectors[0:len(vectors) - 1:2]
        stores[label] = EmbeddingStore(store.ids, vectors)
    return (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True), stores


def _tree(base, name, inputs, monkeypatch, *, shuffle_lines=False, shuffle_rows=False,
          shuffle_pools=False, threads=1) -> dict[str, bytes]:
    """Run the pipeline in `base/name` and return the bytes of every file it wrote."""
    lines, stores = inputs
    tree = base / name
    tree.mkdir()
    if shuffle_lines:
        lines = random.Random(3).sample(lines, len(lines))
    (tree / "corpus.jsonl").write_text("".join(lines), encoding="utf-8")
    for label, store in stores.items():
        order = (np.random.default_rng(4).permutation(len(store)) if shuffle_rows
                 else np.arange(len(store)))
        save_embeddings([store.ids[r] for r in order], store.vectors[order],
                        tree / f"{label}.f32", tree / f"{label}.f32.json")
    monkeypatch.chdir(tree)
    _pipeline(threads, shuffle_pools)
    return {str(p.relative_to(tree)): p.read_bytes()
            for p in sorted((tree / "out").rglob("*")) if p.is_file()}


def _without_config_hash(data: bytes) -> dict:
    manifest = json.loads(data)
    del manifest["config_hash"]
    return manifest


def test_outputs_depend_only_on_what_the_inputs_mean(tmp_path, inputs, monkeypatch, capsys):
    given = _tree(tmp_path, "given", inputs, monkeypatch)
    variants = {
        "corpus-lines": (dict(shuffle_lines=True), {"out/pref/prefiltered.jsonl"}),
        "vector-rows": (dict(shuffle_rows=True), set()),
        "pool-ids": (dict(shuffle_pools=True), set(POOLS)),
        "threads": (dict(threads=4), set()),
    }
    for name, (change, edited) in variants.items():
        tree = _tree(tmp_path, name, inputs, monkeypatch, **change)
        assert tree.keys() == given.keys(), name
        assert all(tree[path] != given[path] for path in edited), name
        differ = sorted(path for path in given if path not in edited and tree[path] != given[path])
        if name == "threads":
            # the dense steps' manifests hash --threads; nothing else may differ
            assert all(path.endswith(".manifest.json") for path in differ), differ
            assert [_without_config_hash(tree[p]) for p in differ] == [
                _without_config_hash(given[p]) for p in differ]
            assert differ, "--threads should reach config_hash"
        else:
            assert differ == [], f"{name} changed {differ}"
    capsys.readouterr()
