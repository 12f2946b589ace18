import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from citebench import lexical, synthetic
from citebench.corpus import Corpus
from citebench.util import Numbering
from citebench.lexical import (Bm25Params, analyze, build_index,
                               default_tuning_grid, idf, load_index, save_index, score,
                               search, search_pool, tune_params)
from conftest import make_article
from oracles import counter_build_index, dict_bm25_index, frac_average_precision, naive_bm25_rank


def corpus_from_texts(texts: dict[str, str]) -> Corpus:
    return Corpus([make_article(i, title=t, abstract="") for i, t in texts.items()])


def assert_csr_holds(ix, postings, doc_lengths):
    """The index's CSR arrays hold the dict index: ids and lengths in corpus
    order, terms first-seen, each term's rows ascending with their tfs."""
    assert ix.ids == list(doc_lengths)
    assert ix.lengths.tolist() == list(doc_lengths.values())
    assert list(ix.vocab) == list(postings)
    for term, t in ix.vocab.items():
        span = slice(ix.indptr[t], ix.indptr[t + 1])
        assert [ix.ids[r] for r in ix.rows[span].tolist()] == list(postings[term])
        assert ix.tfs[span].tolist() == list(postings[term].values())


class TestAnalyze:
    def test_empty(self):
        assert analyze("") == []

    def test_case_and_punctuation(self):
        assert analyze("Quantum, quantum!") == ["quantum", "quantum"]

    def test_matches_reference_segmenter(self):
        rng = random.Random(1)
        words = [f"w{i}" for i in range(20)] + ["Alpha", "BETA", "mixedCase"]
        parts = []
        for _ in range(50):
            parts.append(rng.choice(words))
            parts.append(rng.choice([" ", ", ", "; ", "! ", " -- ", "\n"]))
        text = "".join(parts)
        # independent one-pass segmenter over lowercased text
        expected, current = [], []
        for ch in text.lower():
            if ch.isalnum() or ch == "_":
                current.append(ch)
            elif current:
                expected.append("".join(current))
                current = []
        if current:
            expected.append("".join(current))
        assert analyze(text) == expected


class TestBuildIndex:
    def test_single_doc_counts(self):
        ix = build_index(corpus_from_texts({"d": "a b a"}))
        assert ix.vocab == {"a": 0, "b": 1}
        assert ix.indptr.tolist() == [0, 1, 2]
        assert ix.rows.tolist() == [0, 0] and ix.tfs.tolist() == [2.0, 1.0]
        assert ix.lengths.tolist() == [3]
        assert ix.avgdl == 3.0

    def test_avgdl_mean(self):
        ix = build_index(corpus_from_texts({"d1": "a b", "d2": "a b c d"}))
        assert ix.avgdl == 3.0

    def test_random_docs_match_nested_loop_oracle(self):
        rng = random.Random(2)
        vocab = [f"t{i}" for i in range(8)]
        texts = {f"d{i:02d}": " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
                 for i in range(20)}
        ix = build_index(corpus_from_texts(texts))
        postings, doc_lengths = dict_bm25_index({d: text.split() for d, text in texts.items()})
        assert_csr_holds(ix, postings, doc_lengths)
        for term in vocab:
            expected = {}
            for doc_id, text in texts.items():
                count = sum(1 for w in text.split() if w == term)
                if count:
                    expected[doc_id] = count
            assert postings.get(term, {}) == expected
        for doc_id, text in texts.items():
            assert doc_lengths[doc_id] == len(text.split())

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            build_index(Corpus([]))

    def test_peak_memory_at_most_the_counter_loop(self):
        # several blocks of generated articles; each build runs once before
        # it is measured, so one-off allocations count for neither
        corpus = synthetic.generate_corpus(10 * lexical._BLOCK, seed=5)
        assert len(corpus) > 9 * lexical._BLOCK
        peaks = {}
        for build in (build_index, counter_build_index, build_index, counter_build_index):
            tracemalloc.start()
            try:
                build(corpus)
                peaks[build] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[build_index] <= peaks[counter_build_index]


class TestIdf:
    def test_known_values(self):
        ix = build_index(corpus_from_texts({"d1": "a b", "d2": "b"}))
        assert idf(ix, "a") == pytest.approx(math.log(2), abs=1e-12)  # N=2, n=1
        ix1 = build_index(corpus_from_texts({"d1": "a"}))
        assert idf(ix1, "a") == pytest.approx(math.log(4 / 3), abs=1e-12)  # N=1, n=1

    def test_positive_even_when_term_everywhere(self):
        for n_docs in range(1, 6):
            ix = build_index(corpus_from_texts({f"d{i}": "common" for i in range(n_docs)}))
            assert idf(ix, "common") > 0.0

    def test_unseen_term_uses_n_zero(self):
        ix = build_index(corpus_from_texts({"d1": "a", "d2": "b"}))
        assert idf(ix, "zzz") == pytest.approx(math.log((2 + 0.5) / 0.5 + 1.0), abs=1e-12)


class TestScore:
    def test_absent_term_contributes_zero(self):
        ix = build_index(corpus_from_texts({"d1": "alpha beta", "d2": "gamma"}))
        params = Bm25Params(1.2, 0.75)
        assert score(ix, ["alpha", "zzz"], "d1", params) == score(ix, ["alpha"], "d1", params)

    def test_worked_example(self):
        ix = build_index(corpus_from_texts({
            "D1": "quantum computing basics", "D2": "classical computing",
        }))
        params = Bm25Params(k1=0.9, b=0.4)
        got = score(ix, analyze("quantum"), "D1", params)
        expected = math.log(2) * 1.9 / (1 + 0.9 * (0.6 + 0.4 * 3 / 2.5))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.6678396, abs=1e-6)

    def test_b_zero_ignores_length(self):
        ix = build_index(corpus_from_texts({"short": "x", "long": "x " + "pad " * 9}))
        params = Bm25Params(k1=1.5, b=0.0)
        assert score(ix, ["x"], "short", params) == score(ix, ["x"], "long", params)

    def test_b_extremes_normalizer(self):
        ix = build_index(corpus_from_texts({"d1": "x y", "d2": "x y z w"}))
        k1 = 1.3
        f = 1
        term_idf = idf(ix, "x")
        # b=1: normalizer is exactly |D|/avgdl
        got = score(ix, ["x"], "d2", Bm25Params(k1=k1, b=1.0))
        assert got == pytest.approx(term_idf * f * (k1 + 1) / (f + k1 * (4 / 3)), rel=1e-12)
        # b=0: normalizer is exactly 1
        got = score(ix, ["x"], "d2", Bm25Params(k1=k1, b=0.0))
        assert got == pytest.approx(term_idf * f * (k1 + 1) / (f + k1), rel=1e-12)

    def test_duplicate_query_terms_sum_per_occurrence(self):
        ix = build_index(corpus_from_texts({"d1": "a b", "d2": "b"}))
        params = Bm25Params()
        assert score(ix, ["a", "a"], "d1", params) == pytest.approx(
            2 * score(ix, ["a"], "d1", params), rel=1e-12)

    def test_monotone_in_term_frequency(self):
        # equal lengths, so only f varies
        ix = build_index(corpus_from_texts({"d1": "t x", "d2": "t t"}))
        params = Bm25Params(k1=0.8, b=0.5)
        assert score(ix, ["t"], "d2", params) > score(ix, ["t"], "d1", params)

    def test_unknown_doc(self):
        ix = build_index(corpus_from_texts({"d1": "a"}))
        with pytest.raises(KeyError):
            score(ix, ["a"], "nope", Bm25Params())

    @pytest.mark.parametrize("terms, params", [([], Bm25Params(0.0, 0.0)), (["x"], Bm25Params())],
                             ids=["no-terms", "absent-term"])
    def test_index_of_empty_documents_scores_zero(self, terms, params):
        # avgdl is 0, so no term has a posting: every score is 0.0, as search
        # finds nothing, and an unknown id is still a KeyError
        ix = build_index(corpus_from_texts({"d0": ""}))
        assert ix.avgdl == 0.0 and search(ix, "x") == []
        assert score(ix, terms, "d0", params) == 0.0
        with pytest.raises(KeyError):
            score(ix, terms, "d1", params)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=-0.1)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)
        for k1 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"^k1 must be a finite number >= 0$"):
                Bm25Params(k1=k1)
        with pytest.raises(ValueError, match=r"^b must be in \[0, 1\]$"):
            Bm25Params(b=math.nan)

    def test_params_past_a_floats_range_rejected(self):
        # 10 ** 400 has no float, so converting it raises OverflowError
        for k1 in (10 ** 400, -10 ** 400):
            with pytest.raises(ValueError, match=r"^k1 must be a finite number >= 0$"):
                Bm25Params(k1=k1)
        with pytest.raises(ValueError, match=r"^b must be in \[0, 1\]$"):
            Bm25Params(b=10 ** 400)
        assert Bm25Params(k1=sys.float_info.max, b=1).k1 == sys.float_info.max


class TestSearch:
    def test_k_zero_rejected(self):
        ix = build_index(corpus_from_texts({"d1": "a"}))
        with pytest.raises(ValueError):
            search(ix, "a", k=0)

    def test_k_beyond_matching_docs(self):
        ix = build_index(corpus_from_texts({"d1": "a", "d2": "a", "d3": "b"}))
        got = search(ix, "a", k=10)
        assert sorted(doc for doc, _ in got) == ["d1", "d2"]

    def test_tie_broken_by_ascending_id(self):
        ix = build_index(corpus_from_texts({"d2": "same words", "d1": "same words"}))
        got = search(ix, "same", k=2)
        assert [doc for doc, _ in got] == ["d1", "d2"]
        assert got[0][1] == got[1][1]

    def test_thirty_doc_fixture_matches_oracle(self):
        rng = random.Random(9)
        vocab = [f"v{i}" for i in range(10)]
        texts = {f"d{i:02d}": " ".join(rng.choices(vocab, k=rng.randint(2, 15)))
                 for i in range(30)}
        corpus = corpus_from_texts(texts)
        ix = build_index(corpus)
        params = Bm25Params(k1=1.1, b=0.6)
        doc_tokens = {i: analyze(t) for i, t in texts.items()}
        for _ in range(5):
            query = " ".join(rng.choices(vocab, k=3))
            got = search(ix, query, params, k=30)
            expected = naive_bm25_rank(doc_tokens, analyze(query), 1.1, 0.6, k=30)
            assert [d for d, _ in got] == [d for d, _ in expected]
            for (_, s_got), (_, s_exp) in zip(got, expected):
                assert s_got == pytest.approx(s_exp, rel=1e-9)

    def test_search_scores_equal_score_exactly(self):
        rng = random.Random(4)
        vocab = ["red", "green", "blue", "cyan"]
        texts = {f"d{i}": " ".join(rng.choices(vocab, k=rng.randint(1, 8))) for i in range(12)}
        ix = build_index(corpus_from_texts(texts))
        params = Bm25Params(k1=0.9, b=0.4)
        query = "red blue red"
        for doc, s in search(ix, query, params, k=12):
            assert s == score(ix, analyze(query), doc, params)  # bit-exact

    def test_pool_restriction(self):
        ix = build_index(corpus_from_texts({"d1": "a", "d2": "a", "d3": "a"}))
        got = search(ix, "a", k=10, pool={"d2", "d3"})
        assert sorted(doc for doc, _ in got) == ["d2", "d3"]

    def test_duplicated_pool_ids_rank_once(self):
        ix = build_index(corpus_from_texts({"d1": "a", "d2": "a b", "d3": "a"}))
        pool = ["d2", "d3", "d2", "d3", "d2"]
        expected = search(ix, "a b", k=10, pool={"d2", "d3"})
        assert [doc for doc, _ in expected] == ["d2", "d3"]
        assert search(ix, "a b", k=10, pool=pool) == expected
        assert lexical.search_pool(ix, [("d1", "a b")], pool, k=10) == {"d1": expected}

    def test_pool_id_the_index_lacks_raises(self):
        ix = build_index(corpus_from_texts({"d1": "a", "d2": "a b"}))
        pool = ["d1", "GHOST", "d2"]
        for call in (lambda: search(ix, "a", pool=pool),
                     lambda: search_pool(ix, [("d1", "a")], pool),
                     lambda: tune_params(ix, [("a", {"d2"})], [Bm25Params()], pool=pool)):
            with pytest.raises(KeyError, match="pool id 'GHOST' is not in the index"):
                call()
        # a query outside the index is still ranked against the pool
        assert search_pool(ix, [("q404", "a")], ["d1"]) == {"q404": search(ix, "a", pool=["d1"])}

    def test_deterministic_across_calls(self):
        ix = build_index(corpus_from_texts({f"d{i}": f"w{i % 3} w{i % 5}" for i in range(20)}))
        first = search(ix, "w0 w1 w2", k=20)
        for _ in range(3):
            assert search(ix, "w0 w1 w2", k=20) == first


class TestTune:
    def test_singleton_grid(self):
        ix = build_index(corpus_from_texts({"d1": "a"}))
        only = Bm25Params(1.0, 0.5)
        assert tune_params(ix, [("a", {"d1"})], [only]) == only

    def test_picks_higher_map_point(self):
        # with b=0 the long doc (f=2) wins; with b=1 length normalization
        # flips the order, so MAP differs between the two grid points
        texts = {"A": "q q filler filler filler filler", "B": "q one"}
        ix = build_index(corpus_from_texts(texts))
        validation = [("q", {"A"})]
        grid = [Bm25Params(k1=1.0, b=0.0), Bm25Params(k1=1.0, b=1.0)]
        doc_tokens = {i: analyze(t) for i, t in texts.items()}
        # oracle: evaluate both grid points by exhaustive scoring + exact AP
        best_oracle, best_ap = None, -1
        for params in grid:
            ranked = [d for d, _ in naive_bm25_rank(doc_tokens, ["q"], params.k1, params.b)]
            ap = frac_average_precision(ranked, {"A"})
            if ap > best_ap:
                best_oracle, best_ap = params, ap
        got = tune_params(ix, validation, grid)
        assert got == best_oracle == Bm25Params(k1=1.0, b=0.0)

    def test_tie_prefers_smaller_b_then_k1(self):
        ix = build_index(corpus_from_texts({"d1": "solo"}))
        grid = [Bm25Params(2.0, 0.8), Bm25Params(0.5, 0.2), Bm25Params(0.1, 0.2)]
        got = tune_params(ix, [("solo", {"d1"})], grid)
        assert got == Bm25Params(0.1, 0.2)

    def test_empty_grid_and_validation(self):
        ix = build_index(corpus_from_texts({"d1": "a"}))
        with pytest.raises(ValueError):
            tune_params(ix, [("a", {"d1"})], [])
        with pytest.raises(ValueError):
            tune_params(ix, [], [Bm25Params()])

    def test_leaves_the_index_as_found(self):
        rng = random.Random(4)
        texts = {f"d{i}": " ".join(rng.choices("abcdef", k=rng.randint(1, 9))) for i in range(30)}
        ix = build_index(corpus_from_texts(texts))
        before = dict(vars(ix))
        validation = [("a b", {"d1", "d2"}), ("c", {"d3"})]
        best = tune_params(ix, validation, default_tuning_grid())
        assert tune_params(ix, validation, default_tuning_grid(), pool=set(texts) - {"d4"},
                           cutoff=5) is not None
        search_pool(ix, [("d1", "a b"), ("d2", "c a")], set(texts), k=5)
        # same keys, same array objects: nothing is cached on the index
        assert vars(ix).keys() == before.keys()
        assert all(vars(ix)[key] is value for key, value in before.items())
        assert tune_params(ix, validation, default_tuning_grid()) == best

    def test_closed_search_allocates_less_than_a_row_array(self):
        rng = np.random.default_rng(3)
        n = 20_000
        lists = [np.sort(rng.choice(n, size=m, replace=False)) for m in (15_000, 6_000, 900, 40)]
        rows = np.concatenate(lists).astype(np.int32)
        tfs = rng.integers(1, 4, rows.size).astype(np.float64)
        ix = lexical.Bm25Index(Numbering([f"d{i}" for i in range(n)]),
                               np.bincount(rows, weights=tfs, minlength=n).astype(np.int64),
                               {"a": 0, "b": 1, "c": 2, "d": 3},
                               np.cumsum([0] + [r.size for r in lists]), rows, tfs)
        pool = {f"d{i}" for i in rng.choice(n, size=65, replace=False).tolist()}
        expected = search(ix, "a b c d a", k=65, pool=pool)  # also fills id_rank once
        assert expected
        tracemalloc.start()
        try:
            got = search(ix, "a b c d a", k=65, pool=pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < np.zeros(n).nbytes

    def test_default_grid_shape(self):
        grid = default_tuning_grid()
        assert len(grid) == 11 * 15
        assert len(set((p.k1, p.b) for p in grid)) == len(grid)
        assert all(0.0 <= p.b <= 1.0 and p.k1 > 0 for p in grid)


class TestPersistence:
    def test_roundtrip_bit_exact_rankings(self, tmp_path):
        rng = random.Random(17)
        vocab = [f"term{i}" for i in range(15)]
        texts = {f"doc{i:02d}": " ".join(rng.choices(vocab, k=rng.randint(3, 20)))
                 for i in range(25)}
        ix = build_index(corpus_from_texts(texts))
        path = tmp_path / "index.bin"
        save_index(ix, path)
        loaded = load_index(path)
        assert loaded.N == ix.N
        assert loaded.avgdl == ix.avgdl  # bit-identical
        assert loaded.ids == ix.ids and loaded.vocab == ix.vocab
        for name in ("lengths", "indptr", "rows", "tfs"):
            assert np.array_equal(getattr(loaded, name), getattr(ix, name)), name
        params = Bm25Params(1.4, 0.3)
        for _ in range(5):
            query = " ".join(rng.choices(vocab, k=4))
            assert search(loaded, query, params, k=25) == search(ix, query, params, k=25)

    def test_save_writes_the_arrays_without_copying_them(self, tmp_path):
        rng = np.random.default_rng(8)
        # the header's JSON encoding takes about 85 bytes per id
        n, terms = 1_000, 200
        lists = [np.sort(rng.choice(n, size=900, replace=False)) for _ in range(terms)]
        rows = np.concatenate(lists).astype(np.int32)
        tfs = rng.integers(1, 5, rows.size).astype(np.float64)
        ix = lexical.Bm25Index(Numbering([f"d{i}" for i in range(n)]),
                               np.bincount(rows, weights=tfs, minlength=n).astype(np.int64),
                               {f"t{t}": t for t in range(terms)},
                               np.cumsum([0] + [r.size for r in lists]), rows, tfs)
        tracemalloc.start()
        try:
            save_index(ix, tmp_path / "a.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ix.tfs.nbytes // 4
        # a loaded index's read-only arrays save to the same bytes
        save_index(load_index(tmp_path / "a.bin"), tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not an index file"):
            load_index(path)
