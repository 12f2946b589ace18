"""Differential tests: the array kernels and benchmark construction against
the implementations they replaced (kept in oracles.py), compared with ==,
never approx."""

import random
import re
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citebench import dense, lexical, metrics
from citebench.benchgen import (Benchmark, BenchmarkEntry, BenchmarkParams, build_benchmark,
                                graph_negatives, most_cited, overlap_similarity,
                                random_negatives, ranked_negatives)
from citebench.corpus import (Corpus, PrefilterRules, build_citation_graph, field_cited_set,
                              prefilter, resolve_field)
from citebench.dense import EmbeddingStore, knn
from citebench.harness import (Bm25Model, DenseModel, RetrievalModel, candidate_type_breakdown,
                               rank_benchmark, run_retrieval, score_benchmark_rankings)
from citebench.lexical import (Bm25Params, analyze, build_index, load_index,
                               save_index, score, search, search_pool, tune_params)
from citebench.pools import (DATASET_LEVEL, PoolSet, SamplingPlan, build_dataset_pool,
                             build_field_pool, sample_queries)
from conftest import make_article
from citebench.util import Numbering
from oracles import (add_at_ranked, counter_build_index, delete_cut_top, dict_bm25_index,
                     dict_bm25_search, dict_build_field_pool, dict_citation_graph,
                     dict_field_cited_set, dict_graph_negatives, dict_overlap_similarity,
                     dict_prefilter, dict_sample_queries, inline_mean, listed_positive_ranks,
                     list_metric, listwise_evaluate_run, listwise_score_benchmark_rankings,
                     listwise_tune_params, listwise_tune_values, listwise_type_breakdown,
                     loop_average_precision, loop_evaluate_run, loop_ndcg, loop_recall_at_k,
                     mask_query_terms, mask_search, mask_search_pool, per_query_build_benchmark,
                     per_block_knn, per_block_scan, per_query_most_cited_negatives,
                     per_query_random_negatives, per_query_run_retrieval, pool_mask,
                     touched_mask_ranked, touched_mask_top, tuple_sort_knn)

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
objectives = st.one_of(st.sampled_from(["map", "ndcg"]),
                       st.integers(1, 6).map(lambda k: f"recall@{k}"))


def index_of(docs):
    corpus = Corpus([make_article(i, title=" ".join(tokens), abstract="") for i, tokens in docs])
    return build_index(corpus), {i: list(tokens) for i, tokens in docs}


def pool_from(draw, ids):
    if draw(st.booleans()):
        return None
    return set(draw(st.lists(st.sampled_from(ids), unique=True)))


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
        objective = data.draw(objectives)
        objective_of = list_metric(objective)
        k = cutoff if cutoff is not None else (len(pool) if pool is not None else len(ids))
        best_key, expected = None, None
        for params in grid:
            total = 0.0
            for text, positives in validation:
                ranked = dict_bm25_search(postings, doc_lengths, analyze(text), params.k1,
                                          params.b, k, pool)
                total += objective_of([d for d, _ in ranked], positives)
            key = (-(total / len(validation)), params.b, params.k1)
            if best_key is None or key < best_key:
                best_key, expected = key, params
        assert tune_params(ix, validation, grid, pool=pool, cutoff=cutoff,
                           objective=objective) == expected

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


def gathers(ix, rows, tokens):
    """Every gather's (place, tf, idf) arrays of one query over candidate
    `rows`: the lookup, the pooled view of the whole pool and, for a
    non-empty pool, that of just the query's terms."""
    query = lexical._token_terms(ix, tokens)
    found = [lexical._looked_up(ix, rows, *query), lexical._pooled(ix, rows).postings(*query)]
    return found + [lexical._filtered(ix, rows, *query)] if rows.size else found


def tied_docs(docs):
    # repeated documents tie; a document may hold a token twice
    return docs + [(f"{i}x", words) for i, words in docs]


class TestBm25AgainstMaskSearch:
    """search, search_pool and each gather against the search that filtered
    every posting list through an N-row pool mask (oracles.mask_search)."""

    @SETTINGS
    @given(docs=doc_texts, tokens=query_tokens, k1=k1_values, b=b_values, data=st.data())
    def test_search_equals_mask_search(self, docs, tokens, k1, b, data):
        docs = tied_docs(docs)
        ix, _ = index_of(docs)
        ids = [i for i, _ in docs]
        pool = data.draw(st.one_of(st.none(), st.just(set()), st.sets(st.sampled_from(ids))))
        k = data.draw(st.integers(1, ix.N + 2))
        params, query = Bm25Params(k1, b), " ".join(tokens)
        assert search(ix, query, params, k, pool) == mask_search(ix, query, params, k, pool)

    @SETTINGS
    @given(docs=doc_texts, k1=k1_values, b=b_values, data=st.data())
    def test_search_pool_equals_mask_search_pool(self, docs, k1, b, data):
        docs = tied_docs(docs)
        ix, _ = index_of(docs)
        ids = [i for i, _ in docs]
        pool = data.draw(st.sets(st.sampled_from(ids)))
        # query ids inside the pool, outside it, and unknown to the index
        queries = data.draw(st.lists(st.tuples(st.sampled_from(ids + ["q404"]),
                                               query_tokens.map(" ".join)),
                                     max_size=4, unique_by=lambda q: q[0]))
        k = data.draw(st.integers(1, ix.N + 2))
        params = Bm25Params(k1, b)
        got = search_pool(ix, queries, pool, params, k)
        assert got == mask_search_pool(ix, queries, pool, params, k)
        assert list(got) == [qid for qid, _ in queries]

    @SETTINGS
    @given(docs=doc_texts, tokens=query_tokens, k1=k1_values, b=b_values, data=st.data())
    def test_gathers_equal_mask_gather(self, docs, tokens, k1, b, data):
        docs = tied_docs(docs)
        ix, _ = index_of(docs)
        pool = data.draw(st.sets(st.sampled_from([i for i, _ in docs])))
        rows = ix._pool_rows(pool)
        terms = mask_query_terms(ix, tokens, pool_mask(ix, pool))
        exclude = data.draw(st.one_of(st.none(), st.integers(0, ix.N - 1)))
        k = data.draw(st.integers(1, ix.N + 2))
        params = Bm25Params(k1, b)
        expected = add_at_ranked(ix, terms, params, k, exclude)
        first = None
        for postings in gathers(ix, rows, tokens):
            # every gather lays out the same postings, in query-token order
            if first is None:
                first = postings
            assert all(np.array_equal(a, b) for a, b in zip(postings, first))
            if terms is not None:
                assert np.array_equal(rows[postings[0]], terms[0])
                assert np.array_equal(postings[1], terms[1])
            assert lexical._ranked(ix, rows, postings, params, k, exclude) == expected

    def test_edge_cases(self):
        docs = [("d1", ["a", "a", "b"]), ("d2", ["b", "c"]), ("d3", ["c"]),
                ("d4", ["a", "c"]), ("d5", ["a", "c"]), ("e", [])]
        ix, _ = index_of(docs)
        cases = [
            ("a c", set()),                       # an empty pool
            ("a b", {"d3"}),                      # no pooled token
            ("zz unseen", None),                  # no token in the index
            ("a a c a", {"d1", "d4", "d5"}),      # repeated tokens
            ("a c", {"d4", "d5", "d3", "d1"}),    # d4 and d5 tie
        ]
        for query, pool in cases:
            for k1, b in ((0.0, 0.4), (0.9, 0.0), (0.9, 1.0), (1.2, 0.75)):
                for k in (1, 2, 10):                # k at, below and past the hits
                    params = Bm25Params(k1, b)
                    got = search(ix, query, params, k, pool)
                    assert got == mask_search(ix, query, params, k, pool)
        assert search(ix, "a c", k=10, pool=set()) == []
        assert search(ix, "a b", k=10, pool={"d3"}) == []
        assert [d for d, _ in search(ix, "a c", k=10, pool={"d4", "d5", "d3"})] == [
            "d4", "d5", "d3"]

    def test_k1_zero_scores_only_present_pairs(self):
        # at k1 = 0 a (term, doc) pair without the term would score 0/0
        docs = [("d1", ["a"]), ("d2", ["b", "b"]), ("d3", ["c"]), ("d4", ["a", "b"])]
        ix, _ = index_of(docs)
        params = Bm25Params(0.0, 0.5)
        for pool in (None, {"d1", "d2", "d3"}, {"d2", "d4"}):
            got = search(ix, "a b", params, 10, pool)
            assert got == mask_search(ix, "a b", params, 10, pool)
            assert all(s == score(ix, ["a", "b"], d, params) and s > 0 for d, s in got)
            assert "d3" not in dict(got)

    def test_query_inside_its_own_pool(self):
        docs = [("d1", ["a", "b"]), ("d2", ["a"]), ("d3", ["b", "c"]), ("d4", ["c"])]
        ix, _ = index_of(docs)
        pool = {"d1", "d2", "d3"}
        queries = [("d1", "a b"), ("d3", "c b"), ("d4", "c")]
        got = search_pool(ix, queries, pool, k=10)
        assert got == mask_search_pool(ix, queries, pool, k=10)
        assert "d1" not in dict(got["d1"]) and "d3" not in dict(got["d3"])
        assert got["d1"] == search(ix, "a b", k=10, pool=pool - {"d1"})

    def test_pools_on_both_sides_of_the_gather_switch(self):
        # 40 documents: a pool of 2 is looked up, one of 40 is pooled
        docs = [(f"d{i:02d}", ["a", "b"][: 1 + i % 2] + ["c"] * (i % 3)) for i in range(40)]
        ix, _ = index_of(docs)
        ids = [i for i, _ in docs]
        chosen = []
        with mock.patch.object(lexical, "_looked_up", side_effect=lexical._looked_up) as lookup, \
                mock.patch.object(lexical, "_filtered", side_effect=lexical._filtered) as pooled:
            for pool in (set(ids[:2]), set(ids[:5]), set(ids)):
                for query in ("a", "a b c", "c c"):
                    assert search(ix, query, k=50, pool=pool) == mask_search(
                        ix, query, k=50, pool=pool)
                    chosen.append((lookup.call_count, pooled.call_count))
        # the pools of 2 look up, the whole pool is filtered
        assert chosen[2] == (3, 0) and chosen[-1][1] == 3


class TestPositiveRanksAgainstRankedList:
    """Numbering.positive_ranks and the rank-form metrics against Numbering.top
    followed by metrics._first_ranks, the path tuning took before."""

    @staticmethod
    def _check(numbering, rows, scores, relevant, k, at=None):
        rows, scores = np.asarray(rows, dtype=np.intp), np.asarray(scores, dtype=np.float64)
        if at is None:
            at = [i for i, r in enumerate(rows.tolist()) if numbering.ids[r] in relevant]
        at = np.asarray(at, dtype=np.intp)
        got = numbering.positive_ranks(rows, scores, at, k)
        length, count = min(k, rows.size), len(set(relevant))
        assert (got, length, count) == listed_positive_ranks(numbering, rows, scores, relevant, k)
        ranked = numbering.top(rows, scores, k)
        for name in ("map", "ndcg", "recall@1", "recall@3", "recall@30"):
            assert metrics._metric(name)(got, length, count) == list_metric(name)(ranked,
                                                                                 relevant)
        return got

    @SETTINGS
    @given(data=st.data())
    def test_equals_top_then_first_ranks(self, data):
        ids = data.draw(st.lists(st.sampled_from(ID_POOL + [f"r{i}" for i in range(30)]),
                                 min_size=1, max_size=40, unique=True))
        numbering = Numbering(ids)
        rows = sorted(data.draw(st.sets(st.integers(0, len(ids) - 1))))
        # small integers give heavy ties; the floats give distinct scores
        scores = data.draw(st.lists(st.one_of(st.integers(0, 3).map(float),
                                              st.floats(0.5, 4.0)),
                                    min_size=len(rows), max_size=len(rows)))
        # positives the index lacks still count in |relevant|
        relevant = data.draw(st.sets(st.sampled_from(ids + ["ghost", "x404"]), min_size=1))
        k = data.draw(st.integers(1, len(rows) + 2))
        at = [i for i, r in enumerate(rows) if ids[r] in relevant]
        self._check(numbering, rows, scores, relevant, k, data.draw(st.permutations(at)))

    def test_ties_cut_by_k_and_missing_positives(self):
        numbering = Numbering(["d9", "d1", "d5", "d3", "d7", "d2", "d8"])
        rows = [0, 1, 2, 3, 4, 5]  # d8 (row 6) is a positive with no hit
        scores = [2.0, 2.0, 1.0, 2.0, 1.0, 3.0]
        # (-score, id) order: d2, d1, d3, d9, d5, d7
        relevant = {"d9", "d5", "d7", "d8", "ghost"}
        assert self._check(numbering, rows, scores, relevant, 6) == [4, 5, 6]
        assert self._check(numbering, rows, scores, relevant, 100) == [4, 5, 6]
        assert self._check(numbering, rows, scores, relevant, 5) == [4, 5]
        assert self._check(numbering, rows, scores, relevant, 1) == []
        assert self._check(numbering, rows, scores, {"d2"}, 1) == [1]
        assert self._check(numbering, [], [], relevant, 1) == []


class TestTuneAgainstListwise:
    """Every (grid point, query) objective value of tune_params against its
    old loop, which ranked each pair into a list (oracles.listwise_tune_values)."""

    @SETTINGS
    @given(docs=doc_texts, data=st.data())
    def test_values_equal_listwise(self, docs, data):
        ix, _ = index_of(docs)
        ids = [i for i, _ in docs]
        validation = data.draw(st.lists(
            st.tuples(query_tokens.map(" ".join),
                      st.sets(st.sampled_from(ids + ["ghost"]), min_size=1)),
            min_size=1, max_size=4))
        grid = data.draw(st.lists(st.builds(Bm25Params, k1_values, b_values), min_size=1,
                                  max_size=6))
        pool = pool_from(data.draw, ids)
        cutoff = data.draw(st.one_of(st.none(), st.integers(1, len(ids) + 1)))
        objective = data.draw(objectives)
        got = lexical._grid_values(ix, validation, grid, pool, objective, cutoff)
        assert got == listwise_tune_values(ix, validation, grid, pool=pool,
                                           objective=objective, cutoff=cutoff)
        assert tune_params(ix, validation, grid, pool=pool, objective=objective,
                           cutoff=cutoff) == listwise_tune_params(
            ix, validation, grid, pool=pool, objective=objective, cutoff=cutoff)

    @SETTINGS
    @given(docs=doc_texts, tokens=query_tokens, k1=k1_values, b=b_values, data=st.data())
    def test_hit_scores_equal_search_scores(self, docs, tokens, k1, b, data):
        ix, _ = index_of(docs)
        pool = pool_from(data.draw, [i for i, _ in docs])
        view = lexical._whole(ix) if pool is None else lexical._pooled(ix, ix._pool_rows(pool))
        query = lexical._TuningQuery(ix, view, tokens, {"ghost"})
        params = Bm25Params(k1, b)
        scores = query.scores(params, ix._length_norm(query.rows, b))
        got = dict(zip([ix.ids[r] for r in query.hit_rows.tolist()], scores.tolist()))
        assert got == dict(search(ix, " ".join(tokens), params, k=len(docs), pool=pool))
        for doc, s in got.items():
            assert s == score(ix, tokens, doc, params)

    def test_query_with_no_pooled_token(self):
        docs = [("d1", ["a", "a", "b"]), ("d2", ["b", "c"]), ("d3", ["c"]), ("d4", ["a", "c"])]
        ix, _ = index_of(docs)
        pool = {"d1", "d2", "d3"}
        # "d" is in no document and "a c" reaches the pool only through d1 and d3
        validation = [("d", {"d1"}), ("a c", {"d4", "d3"}), ("unseen", {"d2", "ghost"}),
                      ("b a", {"d1", "d2"})]
        grid = [Bm25Params(k1, b) for b in (0.0, 0.4, 1.0) for k1 in (0.1, 0.9, 2.9)]
        for objective in ("map", "ndcg", "recall@1", "recall@2"):
            for cutoff in (None, 1, 2, 10):
                got = lexical._grid_values(ix, validation, grid, pool, objective, cutoff)
                assert got == listwise_tune_values(ix, validation, grid, pool=pool,
                                                   objective=objective, cutoff=cutoff)
                assert all(values[0] == values[2] == 0.0 for values in got)

    def test_empty_positive_set_raises_as_before(self):
        ix, _ = index_of([("d1", ["a"]), ("d2", ["a", "b"])])
        validation = [("a", {"d1"}), ("b", set())]
        for tune in (tune_params, listwise_tune_params):
            with pytest.raises(ValueError, match="^relevant set must be non-empty$"):
                tune(ix, validation, [Bm25Params()])


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


# words of every kind the analyzer keeps, and separators it drops
BUILD_WORDS = ["alpha", "Alpha", "beta", "x1", "snake_case", "ünï", "Δelta", "naïve", "日本語",
               "ǅemal", "42"]
BUILD_SEPARATORS = [" ", "  ", ", ", "\t", "\n", " -- ", "!"]
build_docs = st.lists(
    st.one_of(
        st.lists(st.tuples(st.sampled_from(BUILD_WORDS), st.sampled_from(BUILD_SEPARATORS)),
                 max_size=20).map(lambda pairs: "".join(w + sep for w, sep in pairs)),
        st.sampled_from(["", " ", "\t\n  ", "?!"]),
    ),
    min_size=1, max_size=40,
)


def index_bytes(index) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/index.bin"
        save_index(index, path)
        with open(path, "rb") as fh:
            return fh.read()


def assert_same_index(got, want):
    assert list(got.vocab.items()) == list(want.vocab.items())
    for name in ("lengths", "indptr", "rows", "tfs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.avgdl == want.avgdl
    assert index_bytes(got) == index_bytes(want)


class TestBuildIndexAgainstCounterLoop:
    @SETTINGS
    @given(texts=build_docs, block=st.sampled_from([1, 2, 3, 7, lexical._BLOCK]),
           order=st.randoms(use_true_random=False))
    def test_block_build_equals_counter_loop(self, texts, block, order):
        # ids whose sorted order differs from corpus order; titles and
        # abstracts both feed the text
        ids = [f"d{i}" for i in range(len(texts))]
        order.shuffle(ids)
        corpus = Corpus([make_article(i, title=t, abstract=t[::-1]) for i, t in zip(ids, texts)])
        with mock.patch.object(lexical, "_BLOCK", block):
            got = build_index(corpus)
        assert_same_index(got, counter_build_index(corpus))

    @pytest.mark.parametrize("extra", [-1, 0, 1, lexical._BLOCK + 1])
    def test_real_block_boundaries(self, extra):
        # one block short of full, exactly full, one over, and two full
        # blocks and a final block of one document
        rng = random.Random(extra)
        words = BUILD_WORDS + [f"w{i}" for i in range(300)]
        texts = [" ".join(rng.choices(words, k=rng.randint(0, 30)))
                 for _ in range(lexical._BLOCK + extra)]
        corpus = Corpus([make_article(f"a{i}", title=t, abstract="") for i, t in enumerate(texts)])
        assert_same_index(build_index(corpus), counter_build_index(corpus))

    def test_repeated_tokens_count_once_per_document(self):
        corpus = Corpus([make_article(i, title=t, abstract="")
                         for i, t in [("b", "x x x y"), ("a", ""), ("c", "y x y y")]])
        with mock.patch.object(lexical, "_BLOCK", 2):
            ix = build_index(corpus)
        assert_same_index(ix, counter_build_index(corpus))
        assert ix.vocab == {"x": 0, "y": 1} and ix.lengths.tolist() == [4, 0, 4]
        assert ix.rows.tolist() == [0, 2, 0, 2] and ix.tfs.tolist() == [3.0, 1.0, 1.0, 3.0]


class TestIndexFormat:
    def _index(self):
        texts = {"doc2": "alpha beta beta", "doc0": "gamma alpha", "doc1": "", "Δ": "ünï code"}
        corpus = Corpus([make_article(i, title=t, abstract="") for i, t in texts.items()])
        return build_index(corpus)

    def test_version_3_roundtrip(self, tmp_path):
        ix = self._index()
        path = tmp_path / "index.bin"
        save_index(ix, path)
        assert path.read_bytes()[:8] == b"CBIX" + struct.pack("<I", 3)
        loaded = load_index(path)
        assert loaded.ids == ix.ids and loaded.vocab == ix.vocab
        for name in ("lengths", "indptr", "rows", "tfs"):
            a, b = getattr(loaded, name), getattr(ix, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert loaded.avgdl == ix.avgdl
        for query in ("alpha", "beta alpha gamma", "ünï", "code", "nothing"):
            assert search(loaded, query, k=10) == search(ix, query, k=10)

    def test_version_1_rejected(self, tmp_path):
        # header of a version-1 file: magic, version, analyzer flags, doc count
        path = tmp_path / "v1.bin"
        path.write_bytes(b"CBIX" + struct.pack("<I", 1) + struct.pack("<BBI", 1, 0, 0)
                         + struct.pack("<Q", 0) + struct.pack("<Q", 0))
        with pytest.raises(ValueError, match="unsupported index version 1"):
            load_index(path)

    def test_version_2_rejected(self, tmp_path):
        # a version-2 file: magic, version, header length, then a header that
        # also holds the analyzer settings
        header = b'{"lowercase":true,"stopwords":null,"ids":[],"terms":[]}'
        path = tmp_path / "v2.bin"
        path.write_bytes(b"CBIX" + struct.pack("<IQ", 2, len(header)) + header
                         + struct.pack("<q", 0))
        with pytest.raises(ValueError, match="unsupported index version 2"):
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

    def test_repeated_doc_id_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        save_index(self._index(), path)
        data = path.read_bytes()
        # same length, so the header length in the prefix still holds
        path.write_bytes(data.replace(b'"doc0"', b'"doc2"', 1))
        message = f"{path}: index header repeats doc id 'doc2'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_index(path)

    @pytest.mark.parametrize("header, message", [
        (b'{"terms":[]}', "missing key 'ids'"),
        (b'[]', "index header must be a JSON object"),
        (b'{"ids":["a",1],"terms":[]}', "ids must be a list of strings"),
        (b'{"ids":[],"terms":{}}', "terms must be a list of strings"),
    ])
    def test_malformed_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "index.bin"
        path.write_bytes(b"CBIX" + struct.pack("<IQ", 3, len(header)) + header)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_index(path)

    # _index()'s arrays: lengths [3, 2, 0, 2]; terms alpha, beta, gamma, ünï,
    # code; indptr [0, 2, 3, 4, 5, 6]; rows [0, 1, 0, 1, 3, 3]; tfs [1, 1, 2, 1, 1, 1]
    @pytest.mark.parametrize("array, at, value, message", [
        ("rows", 2, -1, "index rows must lie in [0, 4)"),
        ("rows", 2, 7, "index rows must lie in [0, 4)"),
        ("rows", [0, 1], [1, 0], "index rows must ascend strictly within each term"),
        ("rows", 1, 0, "index rows must ascend strictly within each term"),
        ("indptr", 0, 1, "index term offsets must start at 0 and never decrease"),
        ("indptr", 1, 4, "index term offsets must start at 0 and never decrease"),
        ("lengths", 2, -1, "index document lengths must be >= 0"),
        ("tfs", 2, 0.0, "index term frequencies must be positive whole numbers"),
        ("tfs", 2, -2.0, "index term frequencies must be positive whole numbers"),
        ("tfs", 2, 1.5, "index term frequencies must be positive whole numbers"),
        ("tfs", 2, float("nan"), "index term frequencies must be positive whole numbers"),
        ("tfs", 2, float("inf"), "index term frequencies must be positive whole numbers"),
        ("tfs", 2, 3.0, "index term frequencies must sum to each document's length"),
        ("lengths", 2, 1, "index term frequencies must sum to each document's length"),
    ], ids=["row-negative", "row-past-end", "rows-fall", "rows-repeat", "indptr-start",
            "indptr-falls", "length-negative", "tf-zero", "tf-negative", "tf-fraction",
            "tf-nan", "tf-inf", "tf-sum", "length-sum"])
    def test_corrupt_arrays_rejected(self, tmp_path, array, at, value, message):
        ix = self._index()
        arrays = {name: getattr(ix, name).copy() for name in ("lengths", "indptr", "rows", "tfs")}
        arrays[array][at] = value
        path = tmp_path / "index.bin"
        save_index(lexical.Bm25Index(ix.numbering, arrays["lengths"], ix.vocab, arrays["indptr"],
                                     arrays["rows"], arrays["tfs"]), path)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_index(path)

    def test_index_without_postings_loads(self, tmp_path):
        corpus = Corpus([make_article(i, title=" ", abstract="") for i in ("b", "a")])
        save_index(build_index(corpus), tmp_path / "index.bin")
        loaded = load_index(tmp_path / "index.bin")
        assert loaded.lengths.tolist() == [0, 0] and loaded.rows.size == 0

    def test_arrays_are_read_only(self, tmp_path):
        ix = self._index()
        assert ix.lengths.tolist() == [3, 2, 0, 2]
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
        got = random_negatives(corpus, query, 10, exclude, seed)
        assert got == per_query_random_negatives(corpus, query, 10, exclude, seed)
        assert got.shortfall == (eligible < 10)


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
        got = outcome(lambda: ranked_negatives(most_cited(corpus, graph, field, top), query, n,
                                               exclude, seed))
        assert got == outcome(per_query_most_cited_negatives, corpus, dict_citation_graph(corpus),
                              field, query, n, top=top, exclude=exclude, seed=seed)


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
        assert got == outcome(per_query_build_benchmark, corpus, dict_citation_graph(corpus),
                              queries_by_field, model_runs, params, seed)

    def test_synthetic_scale(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        queries_by_field = {}
        for field in ("Med", "CS", "Bio"):
            name = resolve_field(field).name
            queries_by_field[field] = sorted(
                a.id for a in corpus if a.year == 2019 and name in a.fields
                and len(graph.outgoing.ids_of(a.id)) >= 5)[:6]
        queries = [q for qs in queries_by_field.values() for q in qs]
        universe = sorted(corpus.ids())
        rng = random.Random(3)
        model_runs = {m: {q: [(d, 1.0) for d in rng.sample(universe, 250)] for q in queries}
                      for m in ("alpha", "beta", "gamma")}
        got = build_benchmark(corpus, graph, queries_by_field, model_runs, seed=11)
        assert got.entries
        assert got == per_query_build_benchmark(corpus, dict_citation_graph(corpus),
                                                queries_by_field, model_runs, seed=11)

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
        assert got == per_query_build_benchmark(corpus, dict_citation_graph(corpus),
                                                queries_by_field, model_runs, params, seed=2)
        # a query that does reach the most-cited step still needs labels
        articles += [make_article("strong", cites=cited)]
        corpus = Corpus(articles)
        graph = build_citation_graph(corpus)
        model_runs = {m: {"strong": [(d, 1.0) for d in sorted(corpus.ids())]}
                      for m in ("m1", "m2", "m3")}
        with pytest.raises(ValueError, match="no articles labeled 'Chemistry'"):
            build_benchmark(corpus, graph, {"Ch": ["strong"]}, model_runs, params, seed=2)


# ---------------------------------------------------------------------------
# the CSR citation graph and its consumers against the dict graph in oracles.py
# ---------------------------------------------------------------------------

# ids in an insertion order unlike their sorted one; ghosts are cited but absent
GRAPH_IDS = ["m", "B7", "a1", "Z", "zz9", "d10", "d9", "d1", "10", "9", "Ω", "é"]
GRAPH_GHOSTS = ["ghost", "A0", "zzz"]


@st.composite
def graph_corpora(draw):
    """Corpora with dangling targets, self-citations, articles citing nothing
    or never cited, and prefilter-relevant years, titles and abstracts."""
    ids = draw(st.permutations(GRAPH_IDS))[:draw(st.integers(0, len(GRAPH_IDS)))]
    articles = [
        make_article(i, title=draw(st.sampled_from(["", "  ", "a title"])),
                     abstract=draw(st.sampled_from(["", "short", "an abstract long enough"])),
                     year=draw(st.sampled_from([None, 0, 2015, 2019])),
                     fields=draw(st.lists(st.sampled_from(BENCH_FIELDS), unique=True)),
                     cites=draw(st.lists(st.sampled_from(GRAPH_IDS + GRAPH_GHOSTS), unique=True)))
        for i in ids
    ]
    return Corpus(articles)


def neighbour_ids(adjacency, row):
    return [adjacency.numbering.ids[r] for r in adjacency.of(row)]


class TestCitationGraphAgainstDict:
    @SETTINGS
    @given(corpus=graph_corpora())
    def test_graph_equals_dict_graph(self, corpus):
        graph, oracle = build_citation_graph(corpus), dict_citation_graph(corpus)
        assert graph.dangling == oracle.dangling
        for got, want in ((graph.outgoing, oracle.outgoing), (graph.incoming, oracle.incoming)):
            assert list(want) == corpus.ids()
            # ghosts are outside the corpus: no neighbours, in either direction
            for i in [*corpus.ids(), *GRAPH_GHOSTS]:
                assert got.ids_of(i) == sorted(want.get(i, frozenset()))
            for row in range(len(corpus)):
                assert neighbour_ids(got, row) == sorted(want[corpus.ids()[row]])
            for arr in (got.ptr, got.rows):
                assert arr.dtype == np.int32 and not arr.flags.writeable
        in_degrees = [oracle.in_degree(i) for i in corpus.ids()]
        assert graph.incoming.degrees(corpus).tolist() == in_degrees

    @SETTINGS
    @given(corpus=graph_corpora(), min_abstract=st.integers(0, 30),
           min_citations=st.integers(0, 4))
    def test_prefilter(self, corpus, min_abstract, min_citations):
        rules = PrefilterRules(min_abstract, min_citations)
        got = prefilter(corpus, build_citation_graph(corpus), rules)
        want = dict_prefilter(corpus, dict_citation_graph(corpus), rules)
        assert got.removed == want.removed and list(got.corpus) == list(want.corpus)

    @SETTINGS
    @given(corpus=graph_corpora())
    def test_field_cited_set(self, corpus):
        graph, oracle = build_citation_graph(corpus), dict_citation_graph(corpus)
        for field in [*BENCH_FIELDS, "Art"]:
            assert field_cited_set(corpus, graph, field) == dict_field_cited_set(
                corpus, oracle, field)

    @SETTINGS
    @given(corpus=graph_corpora(), data=st.data())
    def test_sample_queries_and_pools(self, corpus, data):
        graph, oracle = build_citation_graph(corpus), dict_citation_graph(corpus)
        ids = corpus.ids()
        plan = SamplingPlan(queries_per_unit=data.draw(st.integers(1, 4)),
                            rng_seed=data.draw(st.integers(0, 2**32)),
                            query_year=data.draw(st.sampled_from([2015, 2019])),
                            exclusion_ids=frozenset(data.draw(st.lists(st.sampled_from(
                                ids + GRAPH_GHOSTS), unique=True))))
        field = data.draw(st.sampled_from([None, *BENCH_FIELDS]))
        assert outcome(sample_queries, corpus, graph, plan, field) == outcome(
            dict_sample_queries, corpus, oracle, plan, field)
        if not ids:
            return
        queries = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))
        size, seed = data.draw(st.integers(0, len(ids))), data.draw(st.integers(0, 2**32))
        assert outcome(build_dataset_pool, corpus, graph, queries, size, seed) == outcome(
            build_dataset_pool, corpus, oracle, queries, size, seed)
        field = data.draw(st.sampled_from(BENCH_FIELDS))
        assert outcome(build_field_pool, corpus, graph, field, queries, size, seed) == outcome(
            dict_build_field_pool, corpus, oracle, field, queries, size, seed)

    @SETTINGS
    @given(corpus=graph_corpora(), n=st.integers(1, 8), data=st.data())
    def test_overlap_similarity_and_graph_negatives(self, corpus, n, data):
        graph, oracle = build_citation_graph(corpus), dict_citation_graph(corpus)
        everyone = [*corpus.ids(), *GRAPH_GHOSTS]
        exclude = set(data.draw(st.lists(st.sampled_from(everyone), unique=True)))
        for query in everyone:
            for cited in everyone:
                assert outcome(overlap_similarity, graph, query, cited) == outcome(
                    dict_overlap_similarity, oracle, query, cited)
            assert outcome(graph_negatives, graph, query, n, exclude) == outcome(
                dict_graph_negatives, oracle, query, n, exclude)

    def test_consumers_reject_a_graph_of_another_corpus(self):
        corpus = Corpus([make_article("a", year=2019, fields=("Physics",), cites=["b"]),
                         make_article("b", fields=("Physics",))])
        other = build_citation_graph(Corpus(list(corpus)))
        plan = SamplingPlan(queries_per_unit=1, rng_seed=0)
        for call in (lambda: prefilter(corpus, other), lambda: sample_queries(corpus, other, plan),
                     lambda: field_cited_set(corpus, other, "Phy"),
                     lambda: most_cited(corpus, other, "Phy", 200)):
            with pytest.raises(ValueError, match="built from another corpus"):
                call()


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
    pooled = [q for q in queries if q in pool_ids]
    shape = draw(st.sampled_from(["any", "any", "empty", "only-query"]))
    if shape == "empty":
        pool = set()
    elif shape == "only-query" and pooled:
        pool = {draw(st.sampled_from(pooled))}
    else:
        pool = set(draw(st.lists(st.sampled_from(pool_ids), unique=True)))
    return pool, queries


def assert_same_run(run, expected):
    assert run == expected
    assert list(run.rankings) == list(expected.rankings)


# articles outside the index: queries with no indexed row
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
        pool, queries = draw_pool_and_queries(data.draw, ids, [i for i, _ in docs])
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
        for pool in ({"Q0"}, {"d1"}, {"Q0", "d2"}, set()):
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


class TestScanAgainstPerBlockFinish:
    """dense._scan finishes each score row once; per_block_scan, the scan it
    replaced, ran each metric's whole score per (query, block of rows)."""

    @SETTINGS
    @given(case=dense_cases(), metric=st.sampled_from(METRIC_NAMES),
           block=st.sampled_from([1, 2, 3, 512]), data=st.data())
    def test_scan_knn_and_knn_pool_equal_per_block_scan(self, case, metric, block, data):
        ids, matrix = case
        store = EmbeddingStore(ids, matrix)
        chunks = data.draw(st.integers(1, len(ids)))
        pool = (set(data.draw(st.lists(st.sampled_from(ids), unique=True)))
                if data.draw(st.booleans()) else None)
        queries = data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=6))
        free = data.draw(st.lists(st.integers(-2, 2).map(float), min_size=store.dim,
                                  max_size=store.dim))
        k = data.draw(st.integers(1, len(ids) + 1))
        rows = np.arange(len(ids)) if pool is None else store.numbering.rows(pool)
        # the stored queries, a free one and a zero-norm one, scored together
        vectors = np.array([*(matrix[store.numbering.row[q]] for q in queries), free,
                            np.zeros(store.dim)], dtype=np.float64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_BLOCK", block)
            if rows.size:
                got = dense._scan(store, rows, vectors, metric, chunks)
                assert got.tobytes() == per_block_scan(store, rows, vectors, metric, chunks,
                                                       block).tobytes()
            for query in vectors[-2:]:
                assert (knn(store, query, k, metric, pool, chunks)
                        == per_block_knn(store, query, k, metric, pool, chunks))
            ranked = dense.knn_pool(store, queries, pool, k, metric, chunks)
        for q in queries:
            assert ranked[q] == per_block_knn(store, store.vector(q), k, metric,
                                              set(pool if pool is not None else ids) - {q},
                                              chunks)

    @pytest.mark.parametrize("metric", METRIC_NAMES)
    def test_several_blocks_with_zero_norm_rows_and_query(self, metric):
        rng = np.random.default_rng(7)
        n, dim = 1300, 24
        ids = [f"v{i:05d}" for i in rng.permutation(n)]
        matrix = rng.standard_normal((n, dim)).astype(np.float32)
        matrix[[4, 600, 1299]] = 0.0
        matrix[900] = matrix[2]
        store = EmbeddingStore(ids, matrix)
        pool = set(rng.choice(ids, size=1200, replace=False).tolist()) | {ids[4], ids[600]}
        queries = [ids[4], *rng.choice(ids, size=5, replace=False).tolist()]
        rows = store.numbering.rows(pool)
        vectors = np.vstack([store.vectors[[store.numbering.row[q] for q in queries]],
                             np.zeros((1, dim))]).astype(np.float64)
        for chunks in (1, 2, 5, 512, n):
            assert (dense._scan(store, rows, vectors, metric, chunks).tobytes()
                    == per_block_scan(store, rows, vectors, metric, chunks).tobytes())
            assert (knn(store, vectors[-1], 300, metric, pool, chunks)
                    == per_block_knn(store, vectors[-1], 300, metric, pool, chunks))
            ranked = dense.knn_pool(store, queries, pool, 300, metric, chunks)
            for q in queries:
                assert ranked[q] == per_block_knn(store, store.vector(q), 300, metric,
                                                  pool - {q}, chunks)


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

    def test_pool_id_outside_the_index(self):
        corpus = Corpus([make_article(i) for i in ("a", "b", "c")])
        model = Bm25Model(build_index(corpus))
        pool_set = pool_set_of({"a", "ghost"}, ["b", "c"])
        with pytest.raises(KeyError, match="pool id 'ghost' is not in the index"):
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


# ---------------------------------------------------------------------------
# one cut, one rank walk and one mean against the copies they replaced
# ---------------------------------------------------------------------------

# integer scores over few values, so most candidates tie
tied_scores = st.integers(0, 3).map(float)


@st.composite
def pool_rows_and_cut(draw):
    """Ids, ascending pool rows and the row to cut: absent, the first, the
    last, the only one or any other pool row."""
    ids = draw(st.lists(st.sampled_from(ID_POOL), min_size=1, unique=True))
    where = draw(st.sampled_from(["absent", "first", "last", "only", "any"]))
    rows = sorted(draw(st.sets(st.integers(0, len(ids) - 1), min_size=1)))
    if where == "only":
        rows = rows[:1]
    if where == "absent":
        outside = sorted(set(range(len(ids) + 2)) - set(rows))
        exclude = draw(st.sampled_from(outside))
    else:
        exclude = {"first": rows[0], "last": rows[-1], "only": rows[0]}.get(
            where, draw(st.sampled_from(rows)))
    return ids, np.array(rows, dtype=np.intp), exclude


class TestCutAgainstOldCuts:
    @SETTINGS
    @given(case=pool_rows_and_cut(), descending=st.booleans(), data=st.data())
    def test_top_equals_np_delete_cut(self, case, descending, data):
        ids, rows, exclude = case
        scores = np.array(data.draw(st.lists(tied_scores, min_size=rows.size,
                                             max_size=rows.size)))
        k = data.draw(st.integers(1, rows.size + 2))
        assert Numbering(ids).top(rows, scores, k, descending, exclude=exclude) == (
            delete_cut_top(ids, rows, scores, k, descending, exclude))

    @SETTINGS
    @given(ids=st.lists(st.sampled_from(ID_POOL), min_size=1, unique=True), data=st.data())
    def test_top_equals_touched_mask_cut(self, ids, data):
        rows = st.integers(0, len(ids) - 1)
        postings = np.array(data.draw(st.lists(rows, max_size=30)), dtype=np.intp)
        acc = np.array(data.draw(st.lists(tied_scores, min_size=len(ids), max_size=len(ids))))
        exclude = data.draw(st.one_of(st.none(), rows))
        k = data.draw(st.integers(1, len(ids) + 2))
        hit = np.unique(postings)
        assert Numbering(ids).top(hit, acc[hit], k, exclude=exclude) == (
            touched_mask_top(ids, postings, acc, k, exclude))

    @SETTINGS
    @given(docs=doc_texts, tokens=query_tokens, k1=k1_values, b=b_values, data=st.data())
    def test_ranked_equals_touched_mask_ranked(self, docs, tokens, k1, b, data):
        # repeated documents tie; k runs past the number of hits
        docs = docs + [(f"{i}x", words) for i, words in docs]
        ix, _ = index_of(docs)
        pool = pool_from(data.draw, [i for i, _ in docs])
        view = lexical._whole(ix) if pool is None else lexical._pooled(ix, ix._pool_rows(pool))
        terms = mask_query_terms(ix, tokens, None if pool is None else pool_mask(ix, pool))
        exclude = data.draw(st.one_of(st.none(), st.integers(0, ix.N - 1)))
        k = data.draw(st.integers(1, ix.N + 2))
        params = Bm25Params(k1, b)
        postings = view.postings(*lexical._token_terms(ix, tokens))
        assert lexical._ranked(ix, view.rows, postings, params, k, exclude) == (
            touched_mask_ranked(ix, terms, params, k, exclude))


RANKED_IDS = ["p", "q", "r", "n1", "n2", "n3"]
# a ranking may repeat an id, hold no relevant one, or come as (id, score) pairs
rankings = st.lists(st.sampled_from(RANKED_IDS), max_size=12).flatmap(
    lambda ids: st.sampled_from([ids, [(i, float(-r)) for r, i in enumerate(ids)]]))
relevant_sets = st.sets(st.sampled_from(["p", "q", "r", "absent"]))


class TestRankWalkAgainstMetricLoops:
    @settings(max_examples=400, deadline=None)
    @given(ranked=rankings, relevant=relevant_sets, k=st.integers(0, 14))
    def test_metrics_equal_loops(self, ranked, relevant, k):
        # an empty relevant set, and k = 0 for recall, raise the same error
        assert outcome(metrics.average_precision, ranked, relevant) == outcome(
            loop_average_precision, ranked, relevant)
        assert outcome(metrics.ndcg, ranked, relevant) == outcome(loop_ndcg, ranked, relevant)
        assert outcome(metrics.recall_at_k, ranked, relevant, k) == outcome(
            loop_recall_at_k, ranked, relevant, k)

    def test_empty_relevant_set_raises(self):
        for fn in (metrics.average_precision, metrics.ndcg,
                   lambda ranked, rel: metrics.recall_at_k(ranked, rel, 3)):
            with pytest.raises(ValueError, match="relevant set must be non-empty"):
                fn(["p", "q"], set())

    @SETTINGS
    @given(run=st.dictionaries(st.sampled_from(["a", "b", "c"]), rankings, max_size=3),
           extra=st.dictionaries(st.sampled_from(["d", "e"]), relevant_sets, max_size=2),
           relevant=st.lists(relevant_sets.filter(bool), min_size=3, max_size=3),
           cutoff=st.integers(1, 20))
    def test_evaluate_run_equals_loops_and_inline_mean(self, run, extra, relevant, cutoff):
        # a cutoff past a ranking's 12 items reads the whole ranking
        qrels = {**dict(zip("abc", relevant)), **{q: r for q, r in extra.items() if r}}
        got = metrics.evaluate_run(run, qrels, cutoff)
        assert got == loop_evaluate_run(run, qrels, cutoff)
        # and with each metric's list form walking the ranking itself
        assert got == listwise_evaluate_run(run, qrels, cutoff)
        assert list(got.per_query) == sorted(qrels)

    @SETTINGS
    @given(rows=st.lists(st.fixed_dictionaries({"map": st.floats(0, 1), "ndcg": st.floats(0, 1)}),
                         max_size=8))
    def test_metric_means_equal_inline_mean(self, rows):
        assert metrics.metric_means(rows, ["map", "ndcg"]) == inline_mean(rows, ["map", "ndcg"])


@st.composite
def closed_benchmarks(draw):
    """A Benchmark of up to six entries over distinct ids, in a few fields
    (one of them no field the library knows), with the ranking a run holds
    for each: a shuffled prefix of the entry's candidates, so positives may
    be missing, as bare ids or as (id, score) pairs."""
    types = ["graph", "random", "m1"][:draw(st.integers(1, 3))]
    entries, rankings = [], {}
    for i in range(draw(st.integers(0, 6))):
        q = f"q{i}"
        positives = [f"{q}p{j}" for j in range(draw(st.integers(1, 5)))]
        negatives = {t: [f"{q}{t}{j}" for j in range(draw(st.integers(0, 4)))] for t in types}
        entry = BenchmarkEntry(q, draw(st.sampled_from(["Med", "CS", "Bio", "Zz"])), positives,
                               negatives)
        entries.append(entry)
        candidates = entry.candidate_ids()
        ranked = draw(st.permutations(candidates))[:draw(st.integers(0, len(candidates)))]
        if draw(st.booleans()):
            ranked = [(doc, float(-r)) for r, doc in enumerate(ranked)]
        rankings[q] = ranked
    return Benchmark(entries, {"types": types}), rankings


class _Replay(RetrievalModel):
    """Ranks a query's candidates in a fixed order, leaving out the ids that
    order lacks, so a closed-pool ranking may miss positives."""

    name = "replay"

    def __init__(self, order):
        self.order = order

    def rank(self, query, candidates, k):
        return [(doc, score) for doc, score in self.order[query.id] if doc in candidates][:k]


class TestScoringAgainstListForms:
    """score_benchmark_rankings and candidate_type_breakdown, which score
    each ranking from one walk of it, against the per-metric list-form loops
    they replaced: per-query, per-field, macro and per-type values compared
    with == (evaluate_run's are in TestRankWalkAgainstMetricLoops)."""

    @SETTINGS
    @given(drawn=closed_benchmarks(), cutoff=st.integers(1, 20))
    def test_score_benchmark_rankings(self, drawn, cutoff):
        bench, rankings = drawn
        got = score_benchmark_rankings(rankings, bench, cutoff)
        assert got == listwise_score_benchmark_rankings(rankings, bench, cutoff)
        assert list(got.per_query) == [e.query_id for e in bench.entries]

    @SETTINGS
    @given(drawn=closed_benchmarks())
    def test_candidate_type_breakdown(self, drawn):
        bench, rankings = drawn
        order = {q: [(doc, -float(r)) for r, doc in enumerate(metrics._ranked_ids(ranked))]
                 for q, ranked in rankings.items()}
        model = _Replay(order)
        corpus = Corpus([make_article(e.query_id) for e in bench.entries])
        closed = rank_benchmark(model, bench, corpus)
        assert closed == order
        assert candidate_type_breakdown(model, bench, corpus) == listwise_type_breakdown(closed,
                                                                                       bench)
