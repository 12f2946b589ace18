"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values come from the independent oracles in oracles.py,
never from the code paths under test.
"""

import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import citebench
from citebench import synthetic
from citebench.benchgen import (build_benchmark, graph_negatives, overlap_similarity,
                                select_diverse_models, RANDOM_TYPE)
from citebench.corpus import (Corpus, build_citation_graph, resolve_field,
                              write_corpus_jsonl, FIELD_ABBREVS)
from citebench.dense import EmbeddingStore, knn, save_embeddings
from citebench.harness import Bm25Model, DenseModel, candidate_type_breakdown, run_retrieval
from citebench.lexical import Bm25Params, analyze, build_index, search
from citebench.metrics import average_precision, ndcg, recall_at_k
from citebench.pools import (SamplingPlan, build_dataset_pool, build_field_pool,
                             sample_queries)
from conftest import make_article
from oracles import (brute_knn, brute_select_diverse, frac_average_precision,
                     frac_recall_at_k, mp_ndcg, naive_bm25_rank, replay_graph_negatives)


def _passed(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: PASS{suffix}")


# -----------------------------------------------------------------------
# 1. BM25 oracle equivalence
# -----------------------------------------------------------------------


def test_criterion_1_bm25_oracle_equivalence():
    rng = random.Random(1001)
    started = time.monotonic()
    corpora = queries = 0
    for _ in range(50):
        vocab = [f"t{i}" for i in range(rng.randint(3, 12))]
        n_docs = rng.randint(5, 100)
        texts = {f"d{i:03d}": " ".join(rng.choices(vocab, k=rng.randint(1, 30)))
                 for i in range(n_docs)}
        corpus = Corpus([make_article(i, title=t, abstract="") for i, t in texts.items()])
        index = build_index(corpus)
        doc_tokens = {i: analyze(t) for i, t in texts.items()}
        params = Bm25Params(k1=round(rng.uniform(0.0, 3.0), 2), b=round(rng.uniform(0.0, 1.0), 2))
        corpora += 1
        for _ in range(3):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
            got = search(index, query, params, k=n_docs)
            expected = naive_bm25_rank(doc_tokens, analyze(query), params.k1, params.b)
            assert [d for d, _ in got] == [d for d, _ in expected]
            for (_, sg), (_, se) in zip(got, expected):
                assert sg == pytest.approx(se, rel=1e-9)
            queries += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"BM25 oracle comparison took {elapsed:.1f}s"
    _passed(1, "BM25 oracle equivalence",
            f"{corpora} corpora, {queries} queries, {elapsed:.2f}s")


# -----------------------------------------------------------------------
# 2. Metric oracle equivalence
# -----------------------------------------------------------------------


def test_criterion_2_metric_oracle_equivalence():
    rng = random.Random(2002)
    ids = [f"d{i}" for i in range(60)]
    for _ in range(1000):
        ranked = rng.sample(ids, k=rng.randint(0, 40))
        relevant = set(rng.sample(ids, k=rng.randint(1, 12)))
        k = rng.randint(1, 50)
        assert abs(average_precision(ranked, relevant)
                   - float(frac_average_precision(ranked, relevant))) <= 1e-12
        assert abs(recall_at_k(ranked, relevant, k)
                   - float(frac_recall_at_k(ranked, relevant, k))) <= 1e-12
        assert abs(ndcg(ranked, relevant) - float(mp_ndcg(ranked, relevant))) <= 1e-12
    ap = average_precision(["a", "c", "b"], {"a", "b"})
    nd = ndcg(["a", "c", "b"], {"a", "b"})
    assert f"{ap:.6f}" == "0.833333"
    assert f"{nd:.6f}" == "0.919721"
    _passed(2, "metric oracle equivalence", "1000 instances, worked values hit")


# -----------------------------------------------------------------------
# 3. Dense exactness and chunk determinism
# -----------------------------------------------------------------------


def test_criterion_3_dense_exactness():
    rng = np.random.default_rng(3003)
    for instance in range(100):
        ids = [f"v{i:03d}" for i in range(200)]
        matrix = rng.standard_normal((200, 16)).astype(np.float32)
        store = EmbeddingStore(ids, matrix)
        query = rng.standard_normal(16)
        k = int(rng.integers(1, 201))
        for metric in ("cosine", "dot", "euclidean"):
            got = knn(store, query, k=k, metric=metric)
            expected = brute_knn(ids, matrix, query, metric, k=k)
            assert [i for i, _ in got] == [i for i, _ in expected], (instance, metric)
            for (_, sg), (_, se) in zip(got, expected):
                assert sg == pytest.approx(se, rel=1e-9, abs=1e-12)
            for chunks in (2, 4, 8):
                assert knn(store, query, k=k, metric=metric, chunks=chunks) == got
    _passed(3, "dense exactness", "100 instances x 3 metrics, chunk counts 1/2/4/8")


# -----------------------------------------------------------------------
# 4. Pool invariants over 30 seeded runs
# -----------------------------------------------------------------------


def _check_pool(pool, corpus, graph, queries):
    members = set(pool.pool_ids)
    cited_union = set()
    for q in queries:
        cited_union.update(graph.outgoing.ids_of(q))
        assert set(pool.positives[q]) <= members, "positives must sit in the pool"
    if pool.shortfall:
        assert len(pool.pool_ids) < pool.target_size
    else:
        assert len(pool.pool_ids) == pool.target_size, "exact target size"
    for i in members - cited_union:
        year = corpus.article(i).year
        assert year is not None and year <= pool.query_year, "fill must respect the year cap"
    assert not members & set(queries) - cited_union, "queries never enter via fill"


def test_criterion_4_pool_invariants(synth10k):
    corpus, graph = synth10k
    violations = 0
    for run in range(30):
        seed = 4000 + run
        plan = SamplingPlan(queries_per_unit=10, rng_seed=seed)
        if run % 2 == 0:
            queries = sample_queries(corpus, graph, plan)
            build = lambda s: build_dataset_pool(corpus, graph, queries, 2000, s)
        else:
            abbrev = FIELD_ABBREVS[run % len(FIELD_ABBREVS)]
            queries = sample_queries(corpus, graph, plan, field=abbrev)
            build = lambda s: build_field_pool(corpus, graph, abbrev, queries, 2000, s)
        first = build(seed)
        again = build(seed)
        _check_pool(first, corpus, graph, queries)
        if (first.pool_ids, first.positives) != (again.pool_ids, again.positives):
            violations += 1
    assert violations == 0
    _passed(4, "pool invariants", "30 seeded runs on the 10k corpus, 0 violations")


# -----------------------------------------------------------------------
# 5. Benchmark structure at desk scale, full-scale arithmetic symbolically
# -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_benchmark(synth10k):
    """19 fields x 5 queries, three real model runs over field pools."""
    corpus, graph = synth10k
    queries_by_field = {}
    rng = random.Random(5005)
    for abbrev in FIELD_ABBREVS:
        name = resolve_field(abbrev).name
        eligible = sorted(
            a.id for a in corpus
            if a.year == 2019 and name in a.fields and len(graph.outgoing.ids_of(a.id)) >= 5
        )
        assert len(eligible) >= 5, f"fixture needs 5 eligible queries for {abbrev}"
        queries_by_field[abbrev] = rng.sample(eligible, 5)

    index = build_index(corpus)
    stores = {label: synthetic.embed_corpus(corpus, dim=24, label=label)
              for label in ("dense_a", "dense_b")}
    models = {
        "bm25": Bm25Model(index, Bm25Params(k1=0.9, b=0.4)),
        "dense_a": DenseModel(stores["dense_a"], name="dense_a"),
        "dense_b": DenseModel(stores["dense_b"], name="dense_b"),
    }
    model_runs = {name: {} for name in models}
    for abbrev, queries in queries_by_field.items():
        pool = build_field_pool(corpus, graph, abbrev, queries, size=300, seed=5100)
        for name, model in models.items():
            run = run_retrieval(model, pool, corpus, cutoff=250)
            model_runs[name].update(run.rankings)
    benchmark = build_benchmark(corpus, graph, queries_by_field, model_runs, seed=5200)
    return corpus, graph, benchmark, models


def test_criterion_5_benchmark_structure(full_benchmark):
    corpus, graph, benchmark, _ = full_benchmark
    assert benchmark.manifest["dropped"] == {}
    assert len(benchmark.entries) == 19 * 5
    assert benchmark.pair_count() == 19 * 5 * 65 == 6175
    for entry in benchmark.entries:
        assert len(entry.positives) == 5
        groups = [frozenset(ids) for ids in entry.negatives.values()]
        assert len(groups) == 6
        assert all(len(g) == 10 for g in groups)
        union = frozenset().union(*groups)
        assert len(union) == 60, "negative groups must be pairwise disjoint"
        assert union.isdisjoint(entry.positives)
        assert entry.query_id not in union | set(entry.positives)
        cited = set(graph.outgoing.ids_of(entry.query_id))
        assert union.isdisjoint(cited)
        assert set(entry.positives) <= cited
    # full-scale arithmetic, asserted symbolically
    assert 19 * 200 * (5 + 6 * 10) == 247_000
    _passed(5, "benchmark structure", "95 entries, 6175 pairs, 247000 symbolic")


# -----------------------------------------------------------------------
# 6. Diverse-model selection vs brute force
# -----------------------------------------------------------------------


def test_criterion_6_diverse_model_selection():
    rng = random.Random(6006)
    for config in range(100):
        vocab = [f"c{i}" for i in range(rng.randint(10, 40))]
        queries = [f"q{j}" for j in range(rng.randint(2, 5))]
        per_model = {}
        for k in range(4):
            lists = {}
            for q in queries:
                size = rng.randint(0, min(10, len(vocab)))
                lists[q] = rng.sample(vocab, size)
            per_model[f"m{k}"] = lists
        m = rng.randint(1, 4)
        assert select_diverse_models(per_model, m) == brute_select_diverse(per_model, m), config
    _passed(6, "diverse-model selection", "100 random 4-model configurations")


# -----------------------------------------------------------------------
# 7. Graph-negative walk vs step-by-step oracle replay
# -----------------------------------------------------------------------


def test_criterion_7_graph_negative_replay():
    rng = random.Random(7007)
    for trial in range(50):
        ids = [f"n{i:02d}" for i in range(30)]
        density = rng.uniform(0.05, 0.3)
        edges = {(a, b) for a in ids for b in ids if a != b and rng.random() < density}
        corpus = Corpus([
            make_article(i, cites=[b for a, b in edges if a == i]) for i in ids
        ])
        graph = build_citation_graph(corpus)
        out_map = {i: {b for a, b in edges if a == i} for i in ids}
        in_map = {i: {a for a, b in edges if b == i} for i in ids}
        candidates = [i for i in ids if out_map[i]]
        if not candidates:
            continue
        query = rng.choice(candidates)
        exclude = set(rng.sample(ids, rng.randint(0, 5)))
        n = rng.randint(1, 12)
        expected_ids, expected_short, oracle_overlaps = replay_graph_negatives(
            out_map, in_map, query, n, exclude)
        sel = graph_negatives(graph, query, n, exclude)
        assert sel.ids == expected_ids, trial
        assert sel.shortfall == expected_short, trial
        for cited, frac in oracle_overlaps.items():
            got = overlap_similarity(graph, query, cited)
            assert got == frac.numerator / frac.denominator, (trial, cited)
            assert Fraction(got).limit_denominator(len(out_map[query])) == frac
    _passed(7, "graph-negative replay", "50 random 30-node graphs, exact overlaps")


# -----------------------------------------------------------------------
# 8. Qualitative candidate-type ordering (soft: warn, never fail)
# -----------------------------------------------------------------------


def test_criterion_8_type_ordering_soft(full_benchmark):
    corpus, graph, benchmark, models = full_benchmark
    issues = []
    for name, model in models.items():
        table = candidate_type_breakdown(model, benchmark, corpus)
        random_map = table[RANDOM_TYPE]["map"]
        hardest = max(table, key=lambda t: table[t]["map"])
        if hardest != RANDOM_TYPE:
            issues.append(f"{name}: highest MAP on {hardest!r}, not on the random type")
        if name in table and table[name]["map"] >= random_map:
            issues.append(f"{name}: own hard-negative type not harder than random")
    if issues:
        for issue in issues:
            warnings.warn("type-ordering check: " + issue)
        _passed(8, "candidate-type ordering", f"SOFT WARN: {'; '.join(issues)}")
    else:
        _passed(8, "candidate-type ordering",
                "random easiest and own type hardest for all models")


# -----------------------------------------------------------------------
# 9. End-to-end pipeline determinism via the CLI
# -----------------------------------------------------------------------


def _cli(cwd: Path, hash_seed: str, *argv: str) -> None:
    # The child runs in `cwd`, where a relative PYTHONPATH (such as `src`) no
    # longer resolves; put the directory of the imported package first.
    package_root = str(Path(citebench.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])),
               PYTHONHASHSEED=hash_seed)
    result = subprocess.run([sys.executable, "-m", "citebench", *argv],
                            cwd=cwd, env=env, capture_output=True, text=True)
    assert result.returncode == 0, f"{argv}: {result.stderr}"


def _run_pipeline(tree: Path, hash_seed: str) -> None:
    """Run every subcommand in `tree`, each child with PYTHONHASHSEED=hash_seed."""
    def cli(*argv: str) -> None:
        _cli(tree, hash_seed, *argv)

    corpus_rel = "../inputs/corpus.jsonl"
    cli("ingest", "--corpus", corpus_rel, "--out", "out/ingest")
    cli("prefilter", "--corpus", corpus_rel, "--out", "out/pref")
    pref = "out/pref/prefiltered.jsonl"
    pools = []
    for field in ("Med", "CS"):
        cli("pool", "--corpus", pref, "--setup", "field", "--field", field,
            "--size", "250", "--queries", "4", "--repetitions", "1",
            "--seed", "97", "--out", f"out/pools_{field}")
        pools.append(f"out/pools_{field}/pool_field_{field}_250_rep0.json")
    cli("tune", "--corpus", pref, "--pool", pools[0], "--cutoff", "100",
        "--out", "out/tune")
    run_specs = []
    for pool_path, field in zip(pools, ("Med", "CS")):
        for model in ("bm25", "dense_a", "dense_b"):
            argv = ["run", "--corpus", pref, "--pool", pool_path, "--model", model,
                    "--cutoff", "200", "--out", f"out/run_{field}_{model}"]
            if model == "bm25":
                argv += ["--params", "out/tune/bm25_params.json"]
            else:
                argv += ["--embeddings", f"{model}=../inputs/{model}.f32"]
            cli(*argv)
            run_specs.append(f"{model}=out/run_{field}_{model}/run_{model}.tsv")
    cli("eval", "--run", "out/run_Med_bm25/run_bm25.tsv", "--pool", pools[0],
        "--recall-cutoff", "30", "--out", "out/eval_pool")
    argv = ["benchgen", "--corpus", pref, "--seed", "98", "--out", "out/bench"]
    for p in pools:
        argv += ["--pool", p]
    for spec in run_specs:
        argv += ["--run", spec]
    cli(*argv)
    bench = "out/bench/benchmark.jsonl"
    eval_specs = []
    for model in ("bm25", "dense_a"):
        argv = ["run", "--corpus", pref, "--benchmark", bench, "--model", model,
                "--out", f"out/benchrun_{model}"]
        if model != "bm25":
            argv += ["--embeddings", f"{model}=../inputs/{model}.f32"]
        cli(*argv)
        cli("eval", "--run", f"out/benchrun_{model}/run_{model}.tsv",
            "--benchmark", bench, "--out", f"out/bencheval_{model}")
        eval_specs.append(f"{model}=out/bencheval_{model}/eval_run_{model}.json")
    cli("breakdown", "--corpus", pref, "--benchmark", bench, "--model", "bm25",
        "--out", "out/breakdown")
    cli("report", *sum((["--eval", s] for s in eval_specs), []),
        "--format", "tsv", "--out", "out/report")


def _tree_bytes(tree: Path) -> dict[str, bytes]:
    return {str(p.relative_to(tree)): p.read_bytes()
            for p in sorted(tree.rglob("*")) if p.is_file()}


def test_criterion_9_pipeline_determinism(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    inputs = base / "inputs"
    inputs.mkdir()
    corpus = synthetic.generate_corpus(1000, seed=77)
    write_corpus_jsonl(corpus, inputs / "corpus.jsonl")
    graph = build_citation_graph(corpus)
    from citebench.corpus import prefilter
    kept = prefilter(corpus, graph).corpus
    for label in ("dense_a", "dense_b"):
        store = synthetic.embed_corpus(kept, dim=16, label=label)
        save_embeddings(store.ids, store.vectors, inputs / f"{label}.f32",
                        inputs / f"{label}.f32.json")

    started = time.monotonic()
    trees = []
    # two fixed, different hash seeds: an output that depends on set or dict
    # order then differs between the trees on every run, not only by chance
    for name, hash_seed in (("tree_a", "0"), ("tree_b", "1")):
        tree = base / name
        tree.mkdir()
        _run_pipeline(tree, hash_seed)
        trees.append(tree)
    elapsed = time.monotonic() - started

    files_a, files_b = _tree_bytes(trees[0]), _tree_bytes(trees[1])
    assert files_a.keys() == files_b.keys()
    different = [name for name in files_a if files_a[name] != files_b[name]]
    assert different == [], f"outputs differ: {different}"
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"
    report = (trees[0] / "out/report/report.tsv").read_text().splitlines()
    assert report[0].startswith("Field\t")
    assert report[-1].startswith("AVG\t")
    _passed(9, "pipeline determinism",
            f"{len(files_a)} files byte-identical, two executions in {elapsed:.1f}s")
