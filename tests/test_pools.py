import json

import pytest

from citebench.corpus import (Corpus, UnknownFieldError, build_citation_graph,
                              field_cited_set)
from citebench.harness import Bm25Model, run_retrieval
from citebench.lexical import build_index
from citebench.pools import (SamplingPlan, build_dataset_pool, build_field_pool,
                             read_pool_json, repeat_pools, sample_queries, write_pool_json)
from conftest import make_article


def grid_corpus():
    """Queries Q1/Q2 (2019) citing old articles; fill candidates across years."""
    arts = [
        make_article("Q1", year=2019, fields=("Medicine",), cites=("O1", "O2", "O3")),
        make_article("Q2", year=2019, fields=("Medicine",), cites=("O2", "O4")),
    ]
    for i in range(1, 5):
        arts.append(make_article(f"O{i}", year=2010, fields=("Medicine",)))
    for i in range(20):
        arts.append(make_article(f"F{i:02d}", year=2015 + (i % 3), fields=("Medicine",)))
    for i in range(4):
        arts.append(make_article(f"L{i}", year=2020, fields=("Medicine",)))  # postdates queries
    return Corpus(arts)


class TestSampleQueries:
    def _plan(self, n, seed=1, **kw):
        return SamplingPlan(queries_per_unit=n, rng_seed=seed, **kw)

    def test_population_equals_request(self):
        corpus = grid_corpus()
        graph = build_citation_graph(corpus)
        got = sample_queries(corpus, graph, self._plan(2))
        assert sorted(got) == ["Q1", "Q2"]

    def test_exclusion(self):
        corpus = grid_corpus()
        graph = build_citation_graph(corpus)
        got = sample_queries(corpus, graph, self._plan(1, exclusion_ids=frozenset({"Q1"})))
        assert got == ["Q2"]

    def test_requires_outgoing_citation(self):
        corpus = Corpus([
            make_article("Q1", year=2019, cites=("B",)),
            make_article("Q2", year=2019),  # no citations: ineligible
            make_article("B", year=2000),
        ])
        graph = build_citation_graph(corpus)
        assert sample_queries(corpus, graph, self._plan(1)) == ["Q1"]
        with pytest.raises(ValueError, match="eligible"):
            sample_queries(corpus, graph, self._plan(2))

    def test_field_filter(self):
        corpus = Corpus([
            make_article("Q1", year=2019, fields=("Medicine",), cites=("B",)),
            make_article("Q2", year=2019, fields=("Physics",), cites=("B",)),
            make_article("B", year=2000),
        ])
        graph = build_citation_graph(corpus)
        assert sample_queries(corpus, graph, self._plan(1), field="Med") == ["Q1"]

    def test_determinism_and_seed_sensitivity(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        plan_a = SamplingPlan(queries_per_unit=20, rng_seed=5)
        plan_b = SamplingPlan(queries_per_unit=20, rng_seed=6)
        first = sample_queries(corpus, graph, plan_a)
        assert sample_queries(corpus, graph, plan_a) == first
        assert sample_queries(corpus, graph, plan_b) != first

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(queries_per_unit=0, rng_seed=1)
        with pytest.raises(ValueError):
            SamplingPlan(queries_per_unit=1, rng_seed=1, repetitions=0)


class TestDatasetPool:
    def test_exact_boundary_no_fill(self):
        corpus = grid_corpus()
        graph = build_citation_graph(corpus)
        pool = build_dataset_pool(corpus, graph, ["Q1", "Q2"], size=4, seed=3)
        assert pool.pool_ids == ["O1", "O2", "O3", "O4"]
        assert not pool.shortfall

    def test_cited_articles_exempt_from_year_filter(self):
        # corpus noise: Q1 cites an article published after the query year
        arts = [
            make_article("Q1", year=2019, cites=("O1", "LATE")),
            make_article("O1", year=2000),
            make_article("LATE", year=2021),
            make_article("F1", year=2010),
        ]
        corpus = Corpus(arts)
        graph = build_citation_graph(corpus)
        pool = build_dataset_pool(corpus, graph, ["Q1"], size=3, seed=1)
        assert "LATE" in pool.pool_ids
        assert set(pool.positives["Q1"]) == {"O1", "LATE"}

    def test_fill_respects_year_and_disjointness(self):
        corpus = grid_corpus()
        graph = build_citation_graph(corpus)
        pool = build_dataset_pool(corpus, graph, ["Q1", "Q2"], size=10, seed=9)
        cited = {"O1", "O2", "O3", "O4"}
        fill = set(pool.pool_ids) - cited
        # set-arithmetic oracle: fill is disjoint from cited and queries, year <= 2019
        assert len(pool.pool_ids) == 10
        assert fill.isdisjoint(cited)
        assert fill.isdisjoint({"Q1", "Q2"})
        assert all(corpus.article(i).year <= 2019 for i in fill)
        assert not any(i.startswith("L") for i in fill)

    def test_size_too_small(self):
        corpus = grid_corpus()
        graph = build_citation_graph(corpus)
        with pytest.raises(ValueError, match="cannot hold"):
            build_dataset_pool(corpus, graph, ["Q1", "Q2"], size=3, seed=1)

    def test_shortfall_flag(self):
        corpus = Corpus([
            make_article("Q1", year=2019, cites=("O1",)),
            make_article("O1", year=2000),
            make_article("F1", year=2001),
        ])
        graph = build_citation_graph(corpus)
        pool = build_dataset_pool(corpus, graph, ["Q1"], size=5, seed=1)
        assert pool.shortfall
        assert set(pool.pool_ids) == {"O1", "F1"}

    def test_determinism(self):
        corpus = grid_corpus()
        graph = build_citation_graph(corpus)
        a = build_dataset_pool(corpus, graph, ["Q1", "Q2"], size=12, seed=4)
        b = build_dataset_pool(corpus, graph, ["Q1", "Q2"], size=12, seed=4)
        c = build_dataset_pool(corpus, graph, ["Q1", "Q2"], size=12, seed=5)
        assert a.pool_ids == b.pool_ids
        assert a.pool_ids != c.pool_ids

    def test_run_retrieval_excludes_query_from_own_ranking(self):
        # Q2 cites Q1, so Q1 sits in the shared pool; Q1 must not be its own candidate
        arts = [
            make_article("Q1", year=2019, cites=("O1", "O2", "O3")),
            make_article("Q2", year=2019, cites=("Q1", "O1")),
            make_article("O1", year=2005), make_article("O2", year=2005),
            make_article("O3", year=2005),
        ]
        corpus = Corpus(arts)
        graph = build_citation_graph(corpus)
        pool = build_dataset_pool(corpus, graph, ["Q1", "Q2"], size=4, seed=0)
        assert "Q1" in pool.pool_ids
        # every article shares the default text, so BM25 ranks the whole pool
        rankings = run_retrieval(Bm25Model(build_index(corpus)), pool, corpus).rankings
        assert "Q1" not in [doc for doc, _ in rankings["Q1"]]
        assert "Q1" in [doc for doc, _ in rankings["Q2"]]

    def test_positives_contained_in_pool(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        plan = SamplingPlan(queries_per_unit=10, rng_seed=2)
        queries = sample_queries(corpus, graph, plan)
        pool = build_dataset_pool(corpus, graph, queries, size=400, seed=11)
        members = set(pool.pool_ids)
        for q in queries:
            assert set(pool.positives[q]) <= members


class TestFieldPool:
    def test_negatives_within_field_cited_set(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        plan = SamplingPlan(queries_per_unit=5, rng_seed=3)
        queries = sample_queries(corpus, graph, plan, field="Med")
        pool = build_field_pool(corpus, graph, "Med", queries, size=150, seed=2)
        fcs = field_cited_set(corpus, graph, "Med")
        for q in queries:
            assert set(pool.pool_ids) - set(pool.positives[q]) - {q} <= fcs

    def test_exact_fill(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        plan = SamplingPlan(queries_per_unit=5, rng_seed=3)
        queries = sample_queries(corpus, graph, plan, field="CS")
        pool = build_field_pool(corpus, graph, "CS", queries, size=120, seed=2)
        if not pool.shortfall:
            assert len(pool.pool_ids) == 120

    def test_small_field_shortfall(self):
        arts = [make_article("Q1", year=2019, fields=("Art",), cites=("O1", "O2"))]
        arts += [make_article(f"O{i}", year=2000, fields=("Art",)) for i in (1, 2)]
        arts += [make_article("A1", year=2001, fields=("Art",), cites=("O1", "X1"))]
        arts += [make_article("X1", year=2002, fields=("Art",))]
        corpus = Corpus(arts)
        graph = build_citation_graph(corpus)
        pool = build_field_pool(corpus, graph, "Art", ["Q1"], size=50, seed=1)
        assert pool.shortfall
        # cited union plus the entire remaining field-cited set
        assert set(pool.pool_ids) == {"O1", "O2", "X1"}

    def test_unknown_field(self):
        corpus = grid_corpus()
        graph = build_citation_graph(corpus)
        with pytest.raises(UnknownFieldError):
            build_field_pool(corpus, graph, "Alchemy", ["Q1"], size=10, seed=1)


class TestRepeatPools:
    def test_single_repetition(self):
        corpus = grid_corpus()
        graph = build_citation_graph(corpus)
        builder = lambda s: build_dataset_pool(corpus, graph, ["Q1", "Q2"], 10, s)
        pools = repeat_pools(builder, 1, base_seed=7)
        assert len(pools) == 1 and pools[0].seed == 7

    def test_three_repetitions_deterministic(self):
        corpus = grid_corpus()
        graph = build_citation_graph(corpus)
        builder = lambda s: build_dataset_pool(corpus, graph, ["Q1", "Q2"], 10, s)
        first = [p.pool_ids for p in repeat_pools(builder, 3, base_seed=7)]
        second = [p.pool_ids for p in repeat_pools(builder, 3, base_seed=7)]
        assert first == second
        assert [p.seed for p in repeat_pools(builder, 3, base_seed=7)] == [7, 8, 9]

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            repeat_pools(lambda s: None, 0, 1)


class TestPoolFile:
    def test_roundtrip_and_byte_determinism(self, tmp_path):
        corpus = grid_corpus()
        graph = build_citation_graph(corpus)
        pool = build_field_pool(corpus, graph, "Med", ["Q1", "Q2"], size=9, seed=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_pool_json(pool, p1)
        write_pool_json(pool, p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = read_pool_json(p1)
        assert loaded.pool_ids == pool.pool_ids
        assert loaded.positives == pool.positives
        assert loaded.setup == "field" and loaded.field == "Med"
        assert loaded.seed == 5 and loaded.query_year == pool.query_year

    def test_dataset_pool_roundtrip_without_field(self, tmp_path):
        corpus = grid_corpus()
        pool = build_dataset_pool(corpus, build_citation_graph(corpus), ["Q1", "Q2"], size=40,
                                  seed=3)
        path = tmp_path / "d.json"
        write_pool_json(pool, path)
        assert "field" not in json.loads(path.read_text(encoding="utf-8"))
        assert read_pool_json(path) == pool


def _field_pool_obj():
    corpus = grid_corpus()
    pool = build_field_pool(corpus, build_citation_graph(corpus), "Med", ["Q1", "Q2"], size=9,
                            seed=5)
    return pool


def _without(key):
    def edit(obj):
        del obj[key]
    return edit


def _setting(key, value):
    def edit(obj):
        obj[key] = value
    return edit


def _query_setting(key, value):
    def edit(obj):
        obj["queries"][0][key] = value
    return edit


def _duplicate_pool_id(obj):
    obj["pool_ids"].append(obj["pool_ids"][0])


def _duplicate_query(obj):
    obj["queries"].append(dict(obj["queries"][0]))


def _outside_positive(obj):
    obj["queries"][0]["positives"].append("NOT-IN-POOL")


BAD_POOL_FILES = {
    **{f"missing-{key}": (_without(key), f"missing key '{key}'")
       for key in ("setup", "field", "seed", "query_year", "target_size", "shortfall",
                   "pool_ids", "queries")},
    "setup-int": (_setting("setup", 1), "setup must be a string"),
    "field-int": (_setting("field", 7), "field must be a string"),
    "seed-str": (_setting("seed", "5"), "seed must be an integer"),
    "seed-bool": (_setting("seed", True), "seed must be an integer"),
    "query-year-float": (_setting("query_year", 2019.0), "query_year must be an integer"),
    "query-year-bool": (_setting("query_year", False), "query_year must be an integer"),
    "target-size-null": (_setting("target_size", None), "target_size must be an integer"),
    "shortfall-int": (_setting("shortfall", 0), "shortfall must be a boolean"),
    "pool-ids-str": (_setting("pool_ids", "O1O2"), "pool_ids must be a list of strings"),
    "pool-ids-int": (_setting("pool_ids", [1, 2]), "pool_ids must be a list of strings"),
    "queries-object": (_setting("queries", {"Q1": []}), "queries must be a list"),
    "query-not-object": (_setting("queries", [["Q1", []]]), "each query must be an object"),
    "query-id-int": (_query_setting("query_id", 1), "each query must be an object"),
    "query-id-missing": (_query_setting("query_id", None), "each query must be an object"),
    "positives-str": (_query_setting("positives", "O1"), "each query must be an object"),
    "duplicate-pool-id": (_duplicate_pool_id, "duplicate pool ids"),
    "duplicate-query": (_duplicate_query, "duplicate query id 'Q1'"),
    "positive-outside-pool": (_outside_positive, "positives outside pool_ids"),
}


class TestStrictPoolReader:
    @pytest.mark.parametrize("case", sorted(BAD_POOL_FILES))
    def test_bad_pool_file_named(self, tmp_path, case):
        edit, message = BAD_POOL_FILES[case]
        path = tmp_path / "pool.json"
        write_pool_json(_field_pool_obj(), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        edit(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValueError, match=message) as err:
            read_pool_json(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("text", ["{", "", "[]", "null"])
    def test_malformed_or_non_object_named(self, tmp_path, text):
        path = tmp_path / "pool.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="malformed JSON|must be a JSON object") as err:
            read_pool_json(path)
        assert str(path) in str(err.value)

    def test_field_optional_for_dataset_setup(self, tmp_path):
        path = tmp_path / "pool.json"
        write_pool_json(_field_pool_obj(), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["setup"] = "dataset"
        del obj["field"]
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert read_pool_json(path).field is None
