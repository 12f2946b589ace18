"""Differential tests: the array kernels and benchmark construction against
the implementations they replaced (kept in oracles.py), compared with ==,
never approx."""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citebench import dense, metrics
from citebench.benchgen import (BenchmarkParams, _SortedWithout, build_benchmark,
                                most_cited_negatives, random_negatives)
from citebench.corpus import Corpus, build_citation_graph, resolve_field
from citebench.dense import EmbeddingStore, knn
from citebench.harness import Bm25Model, DenseModel, RetrievalModel, run_retrieval
from citebench.lexical import (AnalyzerConfig, Bm25Params, analyze, build_index, load_index,
                               save_index, score, search, tune_params)
from citebench.pools import DATASET_LEVEL, PoolSet
from conftest import make_article
from oracles import (dict_bm25_index, dict_bm25_search, per_query_build_benchmark,
                     per_query_most_cited_negatives, per_query_random_negatives,
                     per_query_run_retrieval, tuple_sort_knn)

VOCAB = ["a", "b", "c", "d", "e", "f"]
# ids whose sorted order differs from insertion order, mixed case included
ID_POOL = [f"d{i}" for i in range(12)] + ["B7", "a1", "Z", "zz9", "m"]

SETTINGS = settings(max_examples=150, deadline=None)

# long documents over a small vocabulary give term frequencies well above 2
doc_texts = st.lists(
    st.tuples(st.sampled_from(ID_POOL), st.lists(st.sampled_from(VOCAB), max_size=24)),
    min_size=1, max_size=len(ID_POOL), unique_by=lambda item: item[0],
)
query_tokens = st.lists(st.sampled_from(VOCAB + ["unseen"]), max_size=7)
k1_values = st.one_of(st.sampled_from([0.0, 0.9, 1.2, 2.9]), st.floats(0.0, 3.0))
b_values = st.one_of(st.sampled_from([0.0, 1.0, 0.4]), st.floats(0.0, 1.0))


def index_of(docs):
    corpus = Corpus([make_article(i, title=" ".join(tokens), abstract="") for i, tokens in docs])
    return build_index(corpus), {i: list(tokens) for i, tokens in docs}


def pool_from(draw, ids):
    if draw(st.booleans()):
        return None
    chosen = draw(st.lists(st.sampled_from(ids), unique=True))
    ghosts = draw(st.lists(st.sampled_from(["ghost", "x404"]), unique=True))
    return set(chosen) | set(ghosts)


class TestBm25AgainstDictKernel:
    @SETTINGS
    @given(docs=doc_texts, tokens=query_tokens, k1=k1_values, b=b_values, data=st.data())
    def test_search_equals_dict_search(self, docs, tokens, k1, b, data):
        ix, texts = index_of(docs)
        postings, doc_lengths = dict_bm25_index(texts)
        pool = pool_from(data.draw, [i for i, _ in docs])
        k = data.draw(st.integers(1, len(docs) + 2))
        query = " ".join(tokens)
        got = search(ix, query, Bm25Params(k1, b), k=k, pool=pool)
        assert got == dict_bm25_search(postings, doc_lengths, analyze(query), k1, b, k, pool)
        for doc, s in got:
            assert s == score(ix, analyze(query), doc, Bm25Params(k1, b))

    @SETTINGS
    @given(docs=doc_texts, data=st.data())
    def test_tune_equals_dict_tune(self, docs, data):
        ix, texts = index_of(docs)
        postings, doc_lengths = dict_bm25_index(texts)
        ids = [i for i, _ in docs]
        validation = data.draw(st.lists(
            st.tuples(query_tokens.map(" ".join), st.sets(st.sampled_from(ids), min_size=1)),
            min_size=1, max_size=4))
        grid = data.draw(st.lists(st.builds(Bm25Params, k1_values, b_values), min_size=1,
                                  max_size=6))
        pool = pool_from(data.draw, ids)
        cutoff = data.draw(st.one_of(st.none(), st.integers(1, len(ids) + 1)))
        k = cutoff if cutoff is not None else (len(pool) if pool is not None else len(ids))
        best_key, expected = None, None
        for params in grid:
            total = 0.0
            for text, positives in validation:
                ranked = dict_bm25_search(postings, doc_lengths, analyze(text), params.k1,
                                          params.b, k, pool)
                total += metrics.average_precision([d for d, _ in ranked], positives)
            key = (-(total / len(validation)), params.b, params.k1)
            if best_key is None or key < best_key:
                best_key, expected = key, params
        assert tune_params(ix, validation, grid, pool=pool, cutoff=cutoff) == expected

    def test_k_cuts_through_tie(self):
        docs = [(f"t{i}", ["a", "b"]) for i in (3, 1, 4, 0, 2)] + [("w", ["a"])]
        ix, texts = index_of(docs)
        postings, doc_lengths = dict_bm25_index(texts)
        got = search(ix, "a b", k=3)
        assert [d for d, _ in got] == ["t0", "t1", "t2"]
        assert got == dict_bm25_search(postings, doc_lengths, ["a", "b"], 0.9, 0.4, 3)

    def test_empty_documents_only(self):
        ix, _ = index_of([("e1", []), ("e2", [])])
        assert ix.avgdl == 0.0
        assert search(ix, "a b", k=5) == []


vectors_and_ids = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from(ID_POOL + [f"r{i}" for i in range(30)]), min_size=n, max_size=n,
             unique=True),
    st.integers(1, 6),
))


class TestKnnAgainstTupleSort:
    @SETTINGS
    @given(shape=vectors_and_ids, metric=st.sampled_from(["cosine", "dot", "euclidean"]),
           chunks=st.integers(1, 5), data=st.data())
    def test_knn_equals_tuple_sort(self, shape, metric, chunks, data):
        ids, dim = shape
        # small integers give ties, duplicate vectors and zero vectors
        cells = st.integers(-2, 2).map(float)
        matrix = np.array(data.draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                                             min_size=len(ids), max_size=len(ids))),
                          dtype=np.float32)
        query = data.draw(st.lists(cells, min_size=dim, max_size=dim))
        pool = None
        if data.draw(st.booleans()):
            pool = set(data.draw(st.lists(st.sampled_from(ids), unique=True)))
        k = data.draw(st.integers(1, len(ids) + 2))
        store = EmbeddingStore(ids, matrix)
        got = knn(store, query, k, metric=metric, pool=pool, chunks=chunks)
        assert got == tuple_sort_knn(ids, matrix, query, k, metric, pool, chunks)

    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 16, 33, 128, 768])
    def test_blocked_row_norms_on_wide_stores(self, dim):
        # more rows than one norm block, real-valued vectors, pools of every shape
        rng = np.random.default_rng(dim)
        n = 1100
        ids = [f"v{i:05d}" for i in rng.permutation(n)]
        matrix = rng.standard_normal((n, dim)).astype(np.float32)
        matrix[5] = 0.0
        matrix[700] = matrix[3]
        store = EmbeddingStore(ids, matrix)
        q = rng.standard_normal(dim)
        for size in (1, 2, 3, 65, 600, n):
            pool = set(rng.choice(ids, size=size, replace=False).tolist())
            for chunks in (1, 3):
                got = knn(store, q, 50, metric="cosine", pool=pool, chunks=chunks)
                assert got == tuple_sort_knn(ids, matrix, q, 50, "cosine", pool, chunks)
        assert knn(store, q, n) == tuple_sort_knn(ids, matrix, q, n, "cosine")


class TestIndexFormat:
    def _index(self):
        texts = {"doc2": "alpha beta beta", "doc0": "gamma alpha", "doc1": "", "Δ": "ünï code"}
        corpus = Corpus([make_article(i, title=t, abstract="") for i, t in texts.items()])
        return build_index(corpus, AnalyzerConfig(stopwords=frozenset({"code"})))

    def test_version_2_roundtrip(self, tmp_path):
        ix = self._index()
        path = tmp_path / "index.bin"
        save_index(ix, path)
        assert path.read_bytes()[:8] == b"CBIX" + struct.pack("<I", 2)
        loaded = load_index(path)
        assert loaded.ids == ix.ids and loaded.vocab == ix.vocab
        for name in ("lengths", "indptr", "rows", "tfs"):
            a, b = getattr(loaded, name), getattr(ix, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert loaded.analyzer == ix.analyzer
        assert loaded.avgdl == ix.avgdl
        for query in ("alpha", "beta alpha gamma", "ünï", "nothing"):
            assert search(loaded, query, k=10) == search(ix, query, k=10)

    def test_no_stopwords_roundtrip(self, tmp_path):
        ix = build_index(Corpus([make_article("d", title="x y", abstract="")]))
        save_index(ix, tmp_path / "i.bin")
        assert load_index(tmp_path / "i.bin").analyzer == AnalyzerConfig()

    def test_version_1_rejected(self, tmp_path):
        # header of a version-1 file: magic, version, analyzer flags, doc count
        path = tmp_path / "v1.bin"
        path.write_bytes(b"CBIX" + struct.pack("<I", 1) + struct.pack("<BBI", 1, 0, 0)
                         + struct.pack("<Q", 0) + struct.pack("<Q", 0))
        with pytest.raises(ValueError, match="unsupported index version 1"):
            load_index(path)

    def test_truncated_file_rejected(self, tmp_path):
        ix = self._index()
        path = tmp_path / "index.bin"
        save_index(ix, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_index(path)
        path.write_bytes(data[:40])
        with pytest.raises(ValueError, match="corrupt index header"):
            load_index(path)

    def test_arrays_are_read_only(self, tmp_path):
        ix = self._index()
        assert ix.lengths.tolist() == [3, 2, 0, 1]
        t = ix.vocab["beta"]
        assert ix.rows[ix.indptr[t]:ix.indptr[t + 1]].tolist() == [0]
        assert ix.tfs[ix.indptr[t]:ix.indptr[t + 1]].tolist() == [2.0]
        save_index(ix, tmp_path / "index.bin")
        for index in (ix, load_index(tmp_path / "index.bin")):
            for name in ("lengths", "indptr", "rows", "tfs"):
                arr = getattr(index, name)
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[0] = 1


# ---------------------------------------------------------------------------
# benchmark construction against the per-query copies in oracles.py
# ---------------------------------------------------------------------------

# str(i) sorts "10" before "9", so sorted order differs from numeric order
CORPUS_IDS = [str(i) for i in range(40)] + ["Q", "a9", "zz"]
# excluded ids outside the corpus, sorting before, between and after its ids
GHOSTS = ["", "0.5", "19x", "ghost", "zzz"]
BENCH_FIELDS = ["Physics", "Biology", "Chemistry"]


def outcome(fn, *args, **kwargs):
    """The result, or the ValueError's type and message, so raising and
    returning both compare with ==."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def cited_corpora(draw):
    """Corpora dense enough that many queries fill every group: hypothesis
    draws the size, citation density and a seed for the rest."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ids = rng.sample(CORPUS_IDS, draw(st.integers(1, len(CORPUS_IDS))))
    density = draw(st.sampled_from([0.05, 0.2, 0.4, 0.7]))
    articles = [
        make_article(i, fields=[f for f in BENCH_FIELDS if rng.random() < 0.4],
                     cites=[c for c in ids + ["ghost"] if rng.random() < density])
        for i in ids
    ]
    corpus = Corpus(articles)
    return corpus, build_citation_graph(corpus)


def plain_corpus(size):
    """`size` articles in an insertion order other than the sorted one."""
    ids = [str(i) for i in range(size)]
    random.Random(size).shuffle(ids)
    return Corpus([make_article(i) for i in ids])


class TestRandomNegativesAgainstPerQuery:
    @SETTINGS
    @given(size=st.one_of(st.integers(0, 30), st.integers(80, 100), st.integers(100, 400)),
           n=st.integers(1, 12), seed=st.integers(0, 2**32), data=st.data())
    def test_equals_sorted_copy(self, size, n, seed, data):
        corpus = plain_corpus(size)
        ids = sorted(corpus.ids())
        query = data.draw(st.sampled_from(ids + GHOSTS))
        exclude = set(data.draw(st.lists(st.sampled_from(ids + GHOSTS), unique=True)))
        got = random_negatives(corpus, query, n, exclude, seed)
        assert got == per_query_random_negatives(corpus, query, n, exclude, seed)

    # random.sample copies a population of at most 85 with list() when
    # drawing 10, and indexes a larger one
    @pytest.mark.parametrize("eligible", [9, 10, 11, 84, 85, 86, 87, 300])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_both_sample_paths_and_shortfall(self, eligible, seed):
        corpus = plain_corpus(eligible + 20)
        ids = sorted(corpus.ids())
        query = ids[0]
        exclude = set(random.Random(eligible).sample(ids[1:], 19)) | {"ghost", "0.5"}
        view = _SortedWithout(corpus.sorted_ids, exclude | {query})
        assert len(view) == eligible
        got = random_negatives(corpus, query, 10, exclude, seed)
        assert got == per_query_random_negatives(corpus, query, 10, exclude, seed)
        assert got.shortfall == (eligible < 10)

    def test_view_matches_filtered_list(self):
        view = _SortedWithout(("a", "b", "c", "d"), {"b", "d", "ghost", ""})
        assert len(view) == 2 and list(view) == ["a", "c"]
        assert (view[0], view[1], view[-1], view[-2]) == ("a", "c", "c", "a")
        for past_end in (2, 3, -3):
            with pytest.raises(IndexError):
                view[past_end]
        with pytest.raises(IndexError):
            _SortedWithout(("a",), {"a"})[0]


class TestMostCitedAgainstPerQuery:
    @SETTINGS
    @given(graph_corpus=cited_corpora(), n=st.integers(1, 6), top=st.integers(0, 45),
           seed=st.integers(0, 2**32), data=st.data())
    def test_equals_per_query_ranking(self, graph_corpus, n, top, seed, data):
        corpus, graph = graph_corpus
        ids = sorted(corpus.ids())
        field = data.draw(st.sampled_from(["Phy", "Bio", "Ch", "Chemistry"]))
        query = data.draw(st.sampled_from(ids + GHOSTS))
        exclude = set(data.draw(st.lists(st.sampled_from(ids + GHOSTS), unique=True)))
        got = outcome(most_cited_negatives, corpus, graph, field, query, n, top=top,
                      exclude=exclude, seed=seed)
        assert got == outcome(per_query_most_cited_negatives, corpus, graph, field, query, n,
                              top=top, exclude=exclude, seed=seed)


def benchmark_case(draw, corpus):
    """Disjoint queries for three fields, four model runs and small params."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ids = sorted(corpus.ids())
    queries = rng.sample(ids, min(len(ids), draw(st.integers(0, 12))))
    cuts = sorted(rng.randint(0, len(queries)) for _ in range(2))
    queries_by_field = {"Phy": queries[:cuts[0]], "Bio": queries[cuts[0]:cuts[1]],
                        "Ch": queries[cuts[1]:]}
    model_runs = {}
    for name in ("m1", "m2", "m3", "m4"):
        model_runs[name] = {q: [(d, 1.0) for d in rng.sample(ids, rng.randint(0, len(ids)))]
                            for q in queries}
    params = BenchmarkParams(positives_per_query=draw(st.integers(1, 3)),
                             negatives_per_type=draw(st.integers(1, 3)),
                             model_pool_depth=draw(st.integers(1, 15)),
                             most_cited_top=draw(st.integers(1, 20)))
    return queries_by_field, model_runs, params


class TestBuildBenchmarkAgainstPerQuery:
    @SETTINGS
    @given(graph_corpus=cited_corpora(), seed=st.integers(0, 2**32), data=st.data())
    def test_equals_per_query_build(self, graph_corpus, seed, data):
        corpus, graph = graph_corpus
        queries_by_field, model_runs, params = benchmark_case(data.draw, corpus)
        got = outcome(build_benchmark, corpus, graph, queries_by_field, model_runs, params, seed)
        assert got == outcome(per_query_build_benchmark, corpus, graph, queries_by_field,
                              model_runs, params, seed)

    def test_synthetic_scale(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        queries_by_field = {}
        for field in ("Med", "CS", "Bio"):
            name = resolve_field(field).name
            queries_by_field[field] = sorted(
                a.id for a in corpus if a.year == 2019 and name in a.fields
                and len(graph.outgoing[a.id]) >= 5)[:6]
        queries = [q for qs in queries_by_field.values() for q in qs]
        universe = sorted(corpus.ids())
        rng = random.Random(3)
        model_runs = {m: {q: [(d, 1.0) for d in rng.sample(universe, 250)] for q in queries}
                      for m in ("alpha", "beta", "gamma")}
        got = build_benchmark(corpus, graph, queries_by_field, model_runs, seed=11)
        assert got.entries
        assert got == per_query_build_benchmark(corpus, graph, queries_by_field, model_runs,
                                                seed=11)

    def test_field_whose_queries_all_drop_needs_no_labels(self):
        # no article is labeled Chemistry; its queries cite too few articles
        # to get positives, so the field's most-cited ranking is never needed
        cited = [f"c{i}" for i in range(8)]
        articles = [make_article(c, fields=("Physics",)) for c in cited]
        articles += [make_article(f"p{i}", fields=("Physics",), cites=cited) for i in range(4)]
        articles += [make_article(f"x{i}", fields=("Physics",)) for i in range(4)]
        articles += [make_article("weak", cites=cited[:2])]
        corpus = Corpus(articles)
        graph = build_citation_graph(corpus)
        queries_by_field = {"Ch": ["weak"], "Phy": ["p0"]}
        model_runs = {m: {"p0": [(d, 1.0) for d in sorted(corpus.ids())]}
                      for m in ("m1", "m2", "m3")}
        params = BenchmarkParams(positives_per_query=3, negatives_per_type=1,
                                 most_cited_top=20)
        got = build_benchmark(corpus, graph, queries_by_field, model_runs, params, seed=2)
        assert got.manifest["dropped"] == {"Ch": 1}
        assert got == per_query_build_benchmark(corpus, graph, queries_by_field, model_runs,
                                                params, seed=2)
        # a query that does reach the most-cited step still needs labels
        articles += [make_article("strong", cites=cited)]
        corpus = Corpus(articles)
        graph = build_citation_graph(corpus)
        model_runs = {m: {"strong": [(d, 1.0) for d in sorted(corpus.ids())]}
                      for m in ("m1", "m2", "m3")}
        with pytest.raises(ValueError, match="no articles labeled 'Chemistry'"):
            build_benchmark(corpus, graph, {"Ch": ["strong"]}, model_runs, params, seed=2)


# ---------------------------------------------------------------------------
# run_retrieval: one rank_pool call per run against the per-query loop
# ---------------------------------------------------------------------------

METRIC_NAMES = ["cosine", "dot", "euclidean"]


def pool_set_of(pool_ids, queries):
    """A pool file's worth of run input: run_retrieval reads only the pool
    ids and the query ids."""
    return PoolSet(DATASET_LEVEL, None, 0, 2019, len(pool_ids), False, sorted(pool_ids),
                   {q: [] for q in queries})


def draw_pool_and_queries(draw, query_ids, pool_ids):
    """Queries drawn from `query_ids`; a pool drawn from `pool_ids` that may
    be empty, hold only one query, or hold or miss any query."""
    queries = draw(st.lists(st.sampled_from(query_ids), unique=True, max_size=6))
    shape = draw(st.sampled_from(["any", "any", "empty", "only-query"]))
    if shape == "empty":
        pool = set()
    elif shape == "only-query" and queries:
        pool = {draw(st.sampled_from(queries))}
    else:
        pool = set(draw(st.lists(st.sampled_from(pool_ids), unique=True)))
    return pool, queries


def assert_same_run(run, expected):
    assert run == expected
    assert list(run.rankings) == list(expected.rankings)


# articles outside the index: queries with no indexed row and pool ids the
# index lacks
UNINDEXED = ["u1", "Q0", "zz0"]


class TestRunRetrievalBm25AgainstPerQuery:
    @SETTINGS
    @given(docs=doc_texts, extra=st.lists(query_tokens, min_size=len(UNINDEXED),
                                          max_size=len(UNINDEXED)),
           k1=k1_values, b=b_values, data=st.data())
    def test_equals_per_query_loop(self, docs, extra, k1, b, data):
        ix, texts = index_of(docs)
        corpus = Corpus([make_article(i, title=" ".join(tokens), abstract="")
                         for i, tokens in list(docs) + list(zip(UNINDEXED, extra))])
        ids = list(corpus.ids())
        pool, queries = draw_pool_and_queries(data.draw, ids, ids + ["ghost", "x404"])
        cutoff = data.draw(st.integers(1, len(ids) + 3))
        model = Bm25Model(ix, Bm25Params(k1, b))
        run = run_retrieval(model, pool_set_of(pool, queries), corpus, cutoff)
        assert_same_run(run, per_query_run_retrieval(model, pool_set_of(pool, queries), corpus,
                                                     cutoff))
        postings, doc_lengths = dict_bm25_index(texts)
        for q in queries:
            assert run.rankings[q] == dict_bm25_search(
                postings, doc_lengths, analyze(corpus.article(q).text), k1, b, cutoff,
                pool - {q})

    def test_query_without_pooled_posting(self):
        texts = {"d1": "a b", "d2": "c", "Q0": "a c"}
        ix, _ = index_of([(i, t.split()) for i, t in texts.items()])
        corpus = Corpus([make_article(i, title=t, abstract="") for i, t in texts.items()])
        model = Bm25Model(ix)
        for pool in ({"Q0"}, {"d1"}, {"Q0", "d2"}, {"ghost"}, set()):
            pool_set = pool_set_of(pool, ["Q0", "d2"])
            run = run_retrieval(model, pool_set, corpus, 5)
            assert_same_run(run, per_query_run_retrieval(model, pool_set, corpus, 5))
        # Q0's only pooled posting is its own; d2's term is not pooled at all
        assert run_retrieval(model, pool_set_of({"Q0"}, ["Q0"]), corpus, 5).rankings == {"Q0": []}
        assert run_retrieval(model, pool_set_of({"d1"}, ["d2"]), corpus, 5).rankings == {"d2": []}


@st.composite
def dense_cases(draw):
    """An integer-valued store (ties, duplicate and zero rows) and a corpus
    holding its ids."""
    ids, dim = draw(vectors_and_ids)
    cells = st.integers(-2, 2).map(float)
    matrix = np.array(draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                                    min_size=len(ids), max_size=len(ids))), dtype=np.float32)
    return ids, matrix


class TestRunRetrievalDenseAgainstPerQuery:
    @SETTINGS
    @given(case=dense_cases(), metric=st.sampled_from(METRIC_NAMES), chunks=st.integers(1, 5),
           block=st.sampled_from([1, 2, 3, 7, 512]),
           group=st.sampled_from([1, 2, 3, None]), data=st.data())
    def test_equals_per_query_loop(self, case, metric, chunks, block, group, data):
        ids, matrix = case
        corpus = Corpus([make_article(i) for i in ids])
        pool, queries = draw_pool_and_queries(data.draw, ids, ids)
        cutoff = data.draw(st.integers(1, len(ids) + 2))
        # a budget of `group` score rows for the largest pool, so pools
        # span several blocks and runs several query groups
        budget = 1 << 30 if group is None else 8 * max(len(pool), 1) * group
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_BLOCK", block)
            mp.setattr(dense, "_SCORE_BUDGET", budget)
            store = EmbeddingStore(ids, matrix)
            model = DenseModel(store, metric, chunks=chunks)
            run = run_retrieval(model, pool_set_of(pool, queries), corpus, cutoff)
            expected = per_query_run_retrieval(model, pool_set_of(pool, queries), corpus,
                                               cutoff)
        assert_same_run(run, expected)
        for q in queries:
            assert run.rankings[q] == tuple_sort_knn(ids, matrix, store.vector(q), cutoff,
                                                     metric, pool - {q}, chunks)

    @pytest.mark.parametrize("metric", METRIC_NAMES)
    def test_several_blocks_and_groups_real_valued(self, metric, monkeypatch):
        rng = np.random.default_rng(11)
        n, dim = 1300, 24
        ids = [f"v{i:05d}" for i in rng.permutation(n)]
        matrix = rng.standard_normal((n, dim)).astype(np.float32)
        matrix[4] = 0.0
        matrix[900] = matrix[2]
        corpus = Corpus([make_article(i) for i in ids])
        pool = set(rng.choice(ids, size=1200, replace=False).tolist())
        queries = sorted(rng.choice(ids, size=9, replace=False).tolist())
        # three 512-row blocks, and query groups of two
        monkeypatch.setattr(dense, "_SCORE_BUDGET", 8 * len(pool) * 2)
        store = EmbeddingStore(ids, matrix)
        for chunks in (1, 4):
            model = DenseModel(store, metric, chunks=chunks)
            run = run_retrieval(model, pool_set_of(pool, queries), corpus, 40)
            assert_same_run(run, per_query_run_retrieval(model, pool_set_of(pool, queries),
                                                         corpus, 40))
            for q in queries:
                assert run.rankings[q] == tuple_sort_knn(ids, matrix, store.vector(q), 40,
                                                         metric, pool - {q}, chunks)


def run_outcome(run, *args):
    """The run, or the KeyError's message, so raising and returning both
    compare with ==."""
    try:
        return run(*args)
    except KeyError as exc:
        return str(exc)


class TestRunRetrievalErrors:
    def _store(self, ids):
        return EmbeddingStore(ids, np.arange(2 * len(ids), dtype=np.float32).reshape(-1, 2))

    def test_missing_query_embedding(self):
        corpus = Corpus([make_article(i) for i in ("a", "b", "c", "q")])
        model = DenseModel(self._store(["a", "b", "c"]))
        pool_set = pool_set_of({"a", "b"}, ["a", "q"])
        with pytest.raises(KeyError, match="query"):
            run_retrieval(model, pool_set, corpus, 5)
        assert (run_outcome(run_retrieval, model, pool_set, corpus, 5)
                == run_outcome(per_query_run_retrieval, model, pool_set, corpus, 5))

    def test_pool_id_without_embedding_row(self):
        corpus = Corpus([make_article(i) for i in ("a", "b", "c")])
        model = DenseModel(self._store(["a", "b", "c"]))
        pool_set = pool_set_of({"a", "ghost"}, ["b", "c"])
        with pytest.raises(KeyError, match="pool id 'ghost' has no embedding row"):
            run_retrieval(model, pool_set, corpus, 5)
        assert (run_outcome(run_retrieval, model, pool_set, corpus, 5)
                == run_outcome(per_query_run_retrieval, model, pool_set, corpus, 5))

    def test_no_queries_ranks_nothing(self):
        corpus = Corpus([make_article(i) for i in ("a", "b")])
        for model in (DenseModel(self._store(["a", "b"])), Bm25Model(build_index(corpus))):
            run = run_retrieval(model, pool_set_of({"a", "ghost"}, []), corpus, 5)
            assert run.rankings == {}


class CountingStub(RetrievalModel):
    """Overrides only `rank`, recording each call's query and candidates."""

    name = "stub"

    def __init__(self):
        self.calls = []

    def rank(self, query, candidates, k):
        self.calls.append((query.id, candidates))
        return [(d, 1.0) for d in sorted(candidates)][:k]


def test_rank_only_stub_gets_one_rank_call_per_query():
    corpus = Corpus([make_article(i) for i in ("a", "b", "c", "q1", "q2")])
    pool_set = pool_set_of({"a", "b", "q1"}, ["q2", "q1"])
    stub = CountingStub()
    run = run_retrieval(stub, pool_set, corpus, 10)
    assert stub.calls == [("q1", frozenset({"a", "b"})), ("q2", frozenset({"a", "b", "q1"}))]
    assert run.rankings == {"q1": [("a", 1.0), ("b", 1.0)],
                            "q2": [("a", 1.0), ("b", 1.0), ("q1", 1.0)]}
