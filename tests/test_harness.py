import random
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citebench import synthetic
from citebench.benchgen import Benchmark, build_benchmark
from citebench.corpus import Corpus
from citebench.dense import EmbeddingStore, knn
from citebench.harness import (Bm25Model, DenseModel, RetrievalModel, RetrievalRun,
                               candidate_type_breakdown, emit_report, evaluate_benchmark,
                               rank_benchmark, render_report, run_retrieval,
                               score_benchmark_rankings)
from citebench.lexical import Bm25Params, build_index, search
from citebench.pools import SamplingPlan, build_dataset_pool, sample_queries
from conftest import make_article
from oracles import (listwise_score_benchmark_rankings, listwise_type_breakdown,
                     subset_type_breakdown)
from test_benchgen import small_benchmark_inputs


class OrderedModel(RetrievalModel):
    """Ranks candidates by an explicit priority function (test stub)."""

    def __init__(self, key, name="stub"):
        self.key = key
        self.name = name

    def rank(self, query, candidates, k):
        ordered = sorted(candidates, key=lambda d: (self.key(query.id, d), d))
        return [(d, float(len(ordered) - i)) for i, d in enumerate(ordered)][:k]


def perfect_model(graph):
    # positives (cited by the query) first
    return OrderedModel(lambda q, d: 0 if d in graph.outgoing.ids_of(q) else 1, name="perfect")


def adversarial_model(graph):
    return OrderedModel(lambda q, d: 1 if d in graph.outgoing.ids_of(q) else 0, name="worst")


class CountingModel(RetrievalModel):
    """Passes `rank` calls through to another model and counts them."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0

    def rank(self, query, candidates, k):
        self.calls += 1
        return self.inner.rank(query, candidates, k)


class ShuffleModel(RetrievalModel):
    """Ranks by a fresh seeded shuffle per call (for Monte-Carlo estimates)."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.name = "shuffle"

    def rank(self, query, candidates, k):
        ordered = sorted(candidates)
        self.rng.shuffle(ordered)
        return [(d, float(len(ordered) - i)) for i, d in enumerate(ordered)][:k]


@pytest.fixture(scope="module")
def bench_fixture(synth_prefiltered):
    corpus, graph, queries_by_field, model_runs = small_benchmark_inputs(synth_prefiltered)
    bench = build_benchmark(corpus, graph, queries_by_field, model_runs, seed=5)
    return corpus, graph, bench


class TestRunRetrieval:
    def test_bm25_equals_search_with_pool_restriction(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        queries = sample_queries(corpus, graph, SamplingPlan(queries_per_unit=6, rng_seed=1))
        pool_set = build_dataset_pool(corpus, graph, queries, size=200, seed=2)
        index = build_index(corpus)
        params = Bm25Params(k1=1.2, b=0.7)
        run = run_retrieval(Bm25Model(index, params), pool_set, corpus, cutoff=50)
        members = pool_set.members()
        for q in queries:
            expected = search(index, corpus.article(q).text, params, k=50,
                              pool=members - {q})
            assert run.rankings[q] == expected

    def test_dense_equals_knn_with_pool_restriction(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        queries = sample_queries(corpus, graph, SamplingPlan(queries_per_unit=4, rng_seed=3))
        pool_set = build_dataset_pool(corpus, graph, queries, size=120, seed=4)
        store = synthetic.embed_corpus(corpus, dim=16, label="h")
        run = run_retrieval(DenseModel(store, name="dense"), pool_set, corpus, cutoff=30)
        members = pool_set.members()
        for q in queries:
            expected = knn(store, store.vector(q), 30, metric="cosine", pool=members - {q})
            assert run.rankings[q] == expected

    def test_small_pool_fully_ranked(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        queries = sample_queries(corpus, graph, SamplingPlan(queries_per_unit=3, rng_seed=9))
        pool_set = build_dataset_pool(corpus, graph, queries, size=60, seed=5)
        store = synthetic.embed_corpus(corpus, dim=8, label="h2")
        run = run_retrieval(DenseModel(store), pool_set, corpus, cutoff=500)
        for q in queries:
            # dense scoring matches every candidate, so the whole pool comes back
            assert len(run.rankings[q]) == len(pool_set.pool_ids) - (q in pool_set.members())

    def test_cutoff_truncates(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        queries = sample_queries(corpus, graph, SamplingPlan(queries_per_unit=3, rng_seed=9))
        pool_set = build_dataset_pool(corpus, graph, queries, size=100, seed=6)
        store = synthetic.embed_corpus(corpus, dim=8, label="h2")
        run = run_retrieval(DenseModel(store), pool_set, corpus, cutoff=7)
        assert all(len(r) == 7 for r in run.rankings.values())

    def test_missing_embedding_raises(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        queries = sample_queries(corpus, graph, SamplingPlan(queries_per_unit=2, rng_seed=9))
        pool_set = build_dataset_pool(corpus, graph, queries, size=60, seed=7)
        ids = [i for i in corpus.ids() if i not in queries][:20]
        store = synthetic.embed_corpus(corpus, dim=8, label="h3")
        partial = type(store)(ids, np.stack([store.vector(i) for i in ids]))
        with pytest.raises(KeyError, match="query"):
            run_retrieval(DenseModel(partial), pool_set, corpus, cutoff=10)

    def test_run_invariants_enforced(self):
        with pytest.raises(ValueError, match="cutoff"):
            RetrievalRun("m", {"q": [("a", 1.0), ("b", 0.5)]}, cutoff=1)
        with pytest.raises(ValueError, match="duplicate"):
            RetrievalRun("m", {"q": [("a", 1.0), ("a", 0.5)]}, cutoff=5)


class TestEvaluateBenchmark:
    def test_perfect_model_scores_one(self, bench_fixture):
        corpus, graph, bench = bench_fixture
        report = evaluate_benchmark(perfect_model(graph), bench, corpus)
        for field_vals in report.per_field.values():
            assert field_vals["map"] == 1.0
            assert field_vals["recall@5"] == 1.0
        assert report.macro["map"] == 1.0

    def test_adversarial_model_floor(self, bench_fixture):
        corpus, graph, bench = bench_fixture
        report = evaluate_benchmark(adversarial_model(graph), bench, corpus)
        # positives land at ranks 61..65 of the 65-candidate pool
        expected = float(sum(Fraction(i, 60 + i) for i in range(1, 6)) / 5)
        assert report.macro["recall@5"] == 0.0
        assert report.macro["map"] == pytest.approx(expected, abs=1e-12)

    def test_random_model_recall_matches_monte_carlo(self, bench_fixture):
        corpus, graph, bench = bench_fixture
        # expected R@5 on a 65-candidate pool with 5 positives is 5/65
        trials = 0
        total = 0.0
        model = ShuffleModel(1234)
        while trials < 10_000:
            report = evaluate_benchmark(model, bench, corpus)
            for vals in report.per_query.values():
                total += vals["recall@5"]
                trials += 1
        assert total / trials == pytest.approx(5 / 65, abs=0.02)

    def test_macro_is_mean_of_fields(self, bench_fixture):
        corpus, graph, bench = bench_fixture
        store = synthetic.embed_corpus(corpus, dim=16, label="macro")
        report = evaluate_benchmark(DenseModel(store), bench, corpus)
        for metric in ("map", "recall@5"):
            mean = sum(v[metric] for v in report.per_field.values()) / len(report.per_field)
            assert abs(report.macro[metric] - mean) < 1e-12

    def test_missing_query_in_rankings(self, bench_fixture):
        corpus, graph, bench = bench_fixture
        with pytest.raises(ValueError, match=bench.entries[0].query_id):
            score_benchmark_rankings({}, bench)


class TestRankBenchmark:
    @pytest.mark.parametrize("kind", ["bm25", "hashed"])
    def test_ranks_each_closed_pool_whole(self, bench_fixture, kind):
        corpus, graph, bench = bench_fixture
        if kind == "bm25":  # BM25 leaves out the candidates no query term hits
            model = Bm25Model(build_index(corpus))
        else:
            model = OrderedModel(lambda q, d: zlib.crc32(f"{q}|{d}".encode()))
        rankings = rank_benchmark(model, bench, corpus)
        assert list(rankings) == [entry.query_id for entry in bench.entries]
        for entry in bench.entries:
            candidates = frozenset(entry.candidate_ids())
            ranked = rankings[entry.query_id]
            assert ranked == model.rank(corpus.article(entry.query_id), candidates,
                                        len(candidates))
            if kind == "hashed":
                assert len(ranked) == len(candidates)

    @pytest.mark.parametrize("kind", ["bm25", "cosine"])
    def test_scores_equal_list_forms(self, bench_fixture, kind):
        corpus, graph, bench = bench_fixture
        if kind == "bm25":
            model = Bm25Model(build_index(corpus))
        else:
            model = DenseModel(synthetic.embed_corpus(corpus, dim=16, label="lf"), name=kind)
        rankings = rank_benchmark(model, bench, corpus)
        assert evaluate_benchmark(model, bench, corpus) == listwise_score_benchmark_rankings(
            rankings, bench)
        assert candidate_type_breakdown(model, bench, corpus) == listwise_type_breakdown(
            rankings, bench)

    def test_duplicate_query_entry_rejected(self, bench_fixture):
        *_, bench = bench_fixture
        with pytest.raises(ValueError, match=f"{bench.entries[0].query_id!r} has more than one"):
            Benchmark([*bench.entries, bench.entries[0]], bench.manifest)


class TestBreakdown:
    def test_pool_shapes(self, bench_fixture):
        corpus, graph, bench = bench_fixture
        for entry in bench.entries:
            full = set(entry.candidate_ids())
            union = set()
            for t in bench.negative_types():
                subset = set(entry.positives) | set(entry.negatives[t])
                assert len(subset) == 15
                union |= subset
            # union of per-type pools is the full pool (positives shared)
            assert union == full
            assert len(full) == 65

    def test_perfect_model_everywhere(self, bench_fixture):
        corpus, graph, bench = bench_fixture
        table = candidate_type_breakdown(perfect_model(graph), bench, corpus)
        assert set(table) == set(bench.negative_types())
        for vals in table.values():
            assert vals["map"] == 1.0 and vals["recall@5"] == 1.0

    @pytest.mark.parametrize("kind", ["bm25", "cosine", "euclidean", "perfect", "adversarial",
                                      "hashed"])
    def test_equals_one_ranking_per_type(self, bench_fixture, kind):
        corpus, graph, bench = bench_fixture
        if kind == "bm25":
            model = Bm25Model(build_index(corpus), Bm25Params(k1=1.2, b=0.75))
        elif kind in ("cosine", "euclidean"):
            store = synthetic.embed_corpus(corpus, dim=16, label=f"bd_{kind}")
            model = DenseModel(store, metric=kind, name=kind)
        elif kind == "perfect":
            model = perfect_model(graph)
        elif kind == "adversarial":
            model = adversarial_model(graph)
        else:
            model = OrderedModel(lambda q, d: zlib.crc32(f"{q}|{d}".encode()))
        expected = subset_type_breakdown(model, bench, corpus)
        counting = CountingModel(model)
        assert candidate_type_breakdown(counting, bench, corpus) == expected
        assert counting.calls == len(bench.entries)

    def test_adversarial_value_from_oracle(self, bench_fixture):
        corpus, graph, bench = bench_fixture
        table = candidate_type_breakdown(adversarial_model(graph), bench, corpus)
        # positives at ranks 11..15: AP = (1/11 + 2/12 + 3/13 + 4/14 + 5/15)/5
        expected_ap = float(sum(Fraction(i, 10 + i) for i in range(1, 6)) / 5)
        assert expected_ap == pytest.approx(0.2214785, abs=1e-7)
        for vals in table.values():
            assert vals["map"] == pytest.approx(expected_ap, abs=1e-12)
            assert vals["recall@5"] == 0.0


POOL_IDS = [f"d{i}" for i in range(10)] + ["B7", "a1", "Z", "zz9", "m"]


def nested_pools(draw, ids):
    """A candidate superset drawn from `ids` and a non-empty subset of it."""
    superset = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    subset = draw(st.lists(st.sampled_from(superset), min_size=1, unique=True))
    return frozenset(superset), frozenset(subset)


def filtered(ranked, keep):
    return [item for item in ranked if item[0] in keep]


class TestPoolIndependence:
    """Ranking a subset of candidates equals filtering the superset ranking,
    which is what lets the breakdown reuse one ranking per entry."""

    @settings(max_examples=150, deadline=None)
    @given(docs=st.lists(st.tuples(st.sampled_from(POOL_IDS),
                                   st.lists(st.sampled_from("abcdef"), max_size=12)),
                         min_size=1, max_size=len(POOL_IDS), unique_by=lambda item: item[0]),
           query=st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6),
           k1=st.sampled_from([0.0, 0.9, 2.9]), b=st.sampled_from([0.0, 0.4, 1.0]),
           data=st.data())
    def test_bm25(self, docs, query, k1, b, data):
        # empty documents and ones sharing no query term never match; equal
        # documents tie and break by id
        corpus = Corpus([make_article(i, title=" ".join(t), abstract="") for i, t in docs])
        model = Bm25Model(build_index(corpus), Bm25Params(k1, b))
        superset, subset = nested_pools(data.draw, [i for i, _ in docs])
        article = make_article("query", title=" ".join(query), abstract="")
        assert (model.rank(article, subset, len(subset))
                == filtered(model.rank(article, superset, len(superset)), subset))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, len(POOL_IDS)), dim=st.integers(1, 4),
           metric=st.sampled_from(["cosine", "dot", "euclidean"]), chunks=st.integers(1, 3),
           data=st.data())
    def test_dense(self, n, dim, metric, chunks, data):
        # small integers give ties, duplicate rows and zero vectors
        ids = POOL_IDS[:n]
        cells = st.integers(-2, 2).map(float)
        matrix = data.draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                                    min_size=n, max_size=n))
        model = DenseModel(EmbeddingStore(ids, np.array(matrix)), metric=metric,
                           chunks=chunks)
        superset, subset = nested_pools(data.draw, ids)
        article = make_article(data.draw(st.sampled_from(ids)))
        assert (model.rank(article, subset, len(subset))
                == filtered(model.rank(article, superset, len(superset)), subset))


class TestReports:
    def test_empty_table_header_only(self, tmp_path):
        path = emit_report({}, tmp_path / "empty.tsv", columns=["MAP"], row_header="Field")
        assert (tmp_path / "empty.tsv").read_text() == "Field\tMAP\n"

    def test_value_formatting(self):
        text = render_report({"Med": {"MAP": 0.404}}, row_header="Field")
        assert text == "Field\tMAP\nMed\t40.4\n"

    def test_golden_field_table_layout(self):
        table = {
            "Art": {"MAP": 0.382, "R@5": 0.323},
            "Bio": {"MAP": 0.383, "R@5": 0.336},
            "AVG": {"MAP": 0.3825, "R@5": 0.3295},
        }
        got = render_report(table, columns=["MAP", "R@5"], row_header="Field")
        golden = (
            "Field\tMAP\tR@5\n"
            "Art\t38.2\t32.3\n"
            "Bio\t38.3\t33.6\n"
            "AVG\t38.2\t33.0\n"
        )
        assert got == golden

    def test_markdown_layout(self):
        got = render_report({"graph": {"MAP": 0.559}}, fmt="markdown", row_header="Type")
        assert got.splitlines()[0] == "| Type | MAP |"
        assert "| graph | 55.9 |" in got

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report({}, fmt="xml")
