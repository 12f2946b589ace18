import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citebench.metrics import (_first_ranks, _metric, _scorer, average_precision, evaluate_run,
                               jaccard, ndcg, read_run_tsv, recall_at_k, write_run_tsv)
from oracles import frac_average_precision, frac_recall_at_k, mp_ndcg


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision(["a", "b"], {"a"}) == 1.0

    def test_rank_two(self):
        assert average_precision(["b", "a"], {"a"}) == 0.5

    def test_worked_value(self):
        got = average_precision(["a", "c", "b"], {"a", "b"})
        assert got == pytest.approx(float(frac_average_precision(["a", "c", "b"], {"a", "b"})),
                                    abs=1e-15)
        assert got == pytest.approx(0.833333, abs=1e-6)

    def test_unretrieved_relevant_contribute_zero(self):
        assert average_precision(["a"], {"a", "zzz"}) == 0.5

    def test_empty_relevant(self):
        with pytest.raises(ValueError):
            average_precision(["a"], set())

    def test_tail_permutation_invariance(self):
        rng = random.Random(2)
        ranked = ["r1", "x1", "r2", "x2", "x3", "x4"]
        relevant = {"r1", "r2"}
        base = average_precision(ranked, relevant)
        tail = ranked[3:]
        for _ in range(5):
            rng.shuffle(tail)
            assert average_precision(ranked[:3] + tail, relevant) == base


class TestNdcg:
    def test_ideal(self):
        assert ndcg(["a", "b", "x"], {"a", "b"}) == pytest.approx(1.0, abs=1e-15)

    def test_worked_value(self):
        got = ndcg(["a", "c", "b"], {"a", "b"})
        assert got == pytest.approx(float(mp_ndcg(["a", "c", "b"], {"a", "b"})), abs=1e-12)
        assert got == pytest.approx(0.919721, abs=1e-6)

    def test_nothing_retrieved(self):
        assert ndcg(["x", "y"], {"a"}) == 0.0
        assert ndcg([], {"a"}) == 0.0

    def test_empty_relevant(self):
        with pytest.raises(ValueError):
            ndcg(["a"], set())


class TestRecall:
    def test_three_of_five(self):
        ranked = ["r1", "x", "r2", "r3"] + [f"y{i}" for i in range(26)] + ["r4", "r5"]
        assert recall_at_k(ranked, {"r1", "r2", "r3", "r4", "r5"}, 30) == pytest.approx(0.6)

    def test_full_recall(self):
        assert recall_at_k(["a", "b"], {"a", "b"}, 10) == 1.0

    def test_random_fixture_matches_oracle(self):
        rng = random.Random(8)
        ids = [f"d{i}" for i in range(40)]
        for _ in range(20):
            ranked = rng.sample(ids, k=rng.randint(0, 40))
            relevant = set(rng.sample(ids, k=rng.randint(1, 10)))
            k = rng.randint(1, 45)
            assert recall_at_k(ranked, relevant, k) == pytest.approx(
                float(frac_recall_at_k(ranked, relevant, k)), abs=1e-15)

    def test_k_zero(self):
        with pytest.raises(ValueError):
            recall_at_k(["a"], {"a"}, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 30), max_size=20, unique=True),
           st.sets(st.integers(0, 30), min_size=1, max_size=8))
    def test_monotone_in_k(self, ranked, relevant):
        values = [recall_at_k(ranked, relevant, k) for k in range(1, len(ranked) + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestJaccard:
    def test_identical(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_half(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_both_empty(self):
        with pytest.raises(ValueError):
            jaccard(set(), set())

    def test_one_empty(self):
        assert jaccard(set(), {"a"}) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(0, 10), min_size=1), st.sets(st.integers(0, 10)))
    def test_symmetric_and_one_iff_equal(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)
        assert (jaccard(a, b) == 1.0) == (a == b)


class TestPerfectRankingEquivalence:
    def test_one_iff_relevant_on_top(self):
        relevant = {"r1", "r2", "r3"}
        on_top = ["r2", "r1", "r3", "x", "y"]
        assert average_precision(on_top, relevant) == 1.0
        assert ndcg(on_top, relevant) == pytest.approx(1.0, abs=1e-15)
        mixed = ["r2", "x", "r1", "r3", "y"]
        assert average_precision(mixed, relevant) < 1.0
        assert ndcg(mixed, relevant) < 1.0


class TestEvaluateRun:
    def test_single_perfect_query(self):
        run = {"q1": [("a", 2.0), ("b", 1.0)]}
        report = evaluate_run(run, {"q1": {"a"}}, recall_cutoff=30)
        assert report.aggregates == {"map": 1.0, "ndcg": 1.0, "recall@30": 1.0}

    def test_mean_of_two_queries(self):
        run = {"q1": [("a", 2.0)], "q2": [("x", 2.0), ("b", 1.0)]}
        qrels = {"q1": {"a"}, "q2": {"b"}}
        report = evaluate_run(run, qrels)
        assert report.aggregates["map"] == pytest.approx(0.75)

    def test_query_missing_from_run_scores_zero(self):
        report = evaluate_run({}, {"q1": {"a"}})
        assert report.aggregates["map"] == 0.0
        assert report.per_query["q1"]["ndcg"] == 0.0

    def test_run_query_missing_from_qrels(self):
        with pytest.raises(ValueError, match="q9"):
            evaluate_run({"q9": [("a", 1.0)]}, {"q1": {"a"}})

    def test_ten_query_fixture_composes_oracles(self):
        rng = random.Random(31)
        ids = [f"d{i}" for i in range(30)]
        run, qrels = {}, {}
        for qi in range(10):
            q = f"q{qi}"
            ranked = rng.sample(ids, k=rng.randint(1, 30))
            run[q] = [(d, float(30 - r)) for r, d in enumerate(ranked)]
            qrels[q] = set(rng.sample(ids, k=rng.randint(1, 6)))
        report = evaluate_run(run, qrels, recall_cutoff=10)
        for q in qrels:
            ranked = [d for d, _ in run[q]]
            assert report.per_query[q]["map"] == pytest.approx(
                float(frac_average_precision(ranked, qrels[q])), abs=1e-12)
            assert report.per_query[q]["ndcg"] == pytest.approx(
                float(mp_ndcg(ranked, qrels[q])), abs=1e-12)
            assert report.per_query[q]["recall@10"] == pytest.approx(
                float(frac_recall_at_k(ranked, qrels[q], 10)), abs=1e-12)
        assert report.aggregates["map"] == pytest.approx(
            sum(v["map"] for v in report.per_query.values()) / 10, abs=1e-15)

    def test_values_in_unit_interval(self):
        rng = random.Random(77)
        ids = [f"d{i}" for i in range(20)]
        for _ in range(50):
            ranked = rng.sample(ids, k=rng.randint(0, 20))
            relevant = set(rng.sample(ids, k=rng.randint(1, 8)))
            for value in (average_precision(ranked, relevant), ndcg(ranked, relevant),
                          recall_at_k(ranked, relevant, 5)):
                assert 0.0 <= value <= 1.0


class TestFileFormats:
    def test_run_roundtrip(self, tmp_path):
        rankings = {"q1": [("a", 1.5), ("b", 0.25)], "q2": [("c", 3.0)]}
        path = tmp_path / "run.tsv"
        write_run_tsv(rankings, path)
        assert read_run_tsv(path) == rankings
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == ["q1", "a", "1", "1.5"]

    def test_run_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q1\ta\t1\t2.0\nq1\ta\t2\t1.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_run_tsv(path)

    @pytest.mark.parametrize("bad_line, message", [
        ("q1\tb\ttwo\t1.0", "rank 'two' is not an integer"),
        ("q1\tb\t2\thigh", "score 'high' is not a number"),
        ("q1\tb\t2\tnan", "score 'nan' is not finite"),
        ("q1\tb\t2\t-inf", "score '-inf' is not finite"),
        ("q1\tb\t1\t1.0", "rank 1 repeats line 1 for query 'q1'"),
        ("q1\ta\t2\t1.0", "duplicate doc 'a' repeats line 1 for query 'q1'"),
    ], ids=["rank", "score", "nan", "inf", "repeated-rank", "repeated-doc"])
    def test_run_bad_line_named(self, tmp_path, bad_line, message):
        path = tmp_path / "run.tsv"
        path.write_text(f"q1\ta\t1\t2.0\nq2\ta\t1\t2.0\n{bad_line}\n")
        with pytest.raises(ValueError, match=f"run.tsv:3: {message}"):
            read_run_tsv(path)

    def test_run_same_rank_in_two_queries_accepted(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("q1\ta\t1\t2.0\nq2\ta\t1\t2.0\n")
        assert read_run_tsv(path) == {"q1": [("a", 2.0)], "q2": [("a", 2.0)]}


class TestMetricNamed:
    @settings(max_examples=100, deadline=None)
    @given(ranked=st.lists(st.sampled_from("abcdefgh"), unique=True),
           relevant=st.sets(st.sampled_from("abcdefghij"), min_size=1),
           k=st.integers(1, 12), pairs=st.booleans())
    def test_equals_direct_calls(self, ranked, relevant, k, pairs):
        if pairs:
            ranked = [(doc, float(-i)) for i, doc in enumerate(ranked)]
        found = _first_ranks(ranked, relevant)
        assert _metric("map")(*found) == average_precision(ranked, relevant)
        assert _metric("ndcg")(*found) == ndcg(ranked, relevant)
        assert _metric(f"recall@{k}")(*found) == recall_at_k(ranked, relevant, k)
        assert _scorer(["map", "ndcg", f"recall@{k}"])(ranked, relevant) == {
            "map": average_precision(ranked, relevant), "ndcg": ndcg(ranked, relevant),
            f"recall@{k}": recall_at_k(ranked, relevant, k)}

    @pytest.mark.parametrize("name", ["ndgc", "recall@x", "recall@0", "recall@-1", "recall@",
                                      "recall5", "MAP", "precision@5", ""])
    def test_bad_name_rejected(self, name):
        with pytest.raises(ValueError, match=f"unknown metric {name!r}"):
            _metric(name)
        with pytest.raises(ValueError, match=f"unknown metric {name!r}"):
            _scorer(["map", name])

    def test_evaluate_run_rejects_bad_cutoff(self):
        with pytest.raises(ValueError, match="'recall@0'"):
            evaluate_run({}, {}, recall_cutoff=0)
