import random

import pytest

from citebench.benchgen import (BenchmarkParams, build_benchmark,
                                graph_negatives, most_cited, overlap_similarity,
                                random_negatives, ranked_negatives,
                                read_benchmark_jsonl, sample_positives,
                                select_diverse_models, top_negatives_per_model,
                                write_benchmark_jsonl, GRAPH_TYPE, MOST_CITED_TYPE,
                                RANDOM_TYPE)
from citebench.corpus import Corpus, UnknownFieldError, build_citation_graph
from conftest import make_article
from oracles import brute_select_diverse, replay_graph_negatives


class TestTopNegatives:
    def test_all_positives_removed(self):
        run = {"q": [("p1", 3.0), ("p2", 2.0), ("p3", 1.0)]}
        got = top_negatives_per_model(run, {"q": frozenset({"p1", "p2", "p3"})}, depth=3)
        assert got["q"] == []

    def test_depth_beyond_run_length(self):
        run = {"q": [("a", 2.0), ("b", 1.0)]}
        got = top_negatives_per_model(run, {"q": frozenset()}, depth=10)
        assert got["q"] == ["a", "b"]

    def test_matches_filter_then_slice_oracle(self):
        rng = random.Random(3)
        docs = [f"d{i}" for i in range(10)]
        rng.shuffle(docs)
        run = {"q": [(d, float(10 - i)) for i, d in enumerate(docs)]}
        positives = frozenset(rng.sample(docs, 3))
        got = top_negatives_per_model(run, {"q": positives}, depth=4)
        expected = [d for d in docs if d not in positives][:4]
        assert got["q"] == expected


class TestSelectDiverseModels:
    def test_disjoint_model_wins(self):
        twin = {"q1": ["a", "b"], "q2": ["c", "d"]}
        loner = {"q1": ["x", "y"], "q2": ["z", "w"]}
        per_model = {"m1": twin, "m2": dict(twin), "m3": loner}
        assert select_diverse_models(per_model, 1) == ["m3"]

    def test_m_equals_model_count(self):
        per_model = {"m1": {"q": ["a"]}, "m2": {"q": ["b"]}}
        assert sorted(select_diverse_models(per_model, 2)) == ["m1", "m2"]

    def test_too_few_models(self):
        with pytest.raises(ValueError):
            select_diverse_models({"m1": {}}, 2)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(12)
        vocab = [f"c{i}" for i in range(40)]
        for _ in range(25):
            per_model = {
                f"m{k}": {
                    f"q{j}": rng.sample(vocab, rng.randint(0, 8)) for j in range(3)
                }
                for k in range(4)
            }
            for m in (1, 2, 3):
                assert select_diverse_models(per_model, m) == brute_select_diverse(per_model, m)


class TestModelBasedNegatives:
    def test_exactly_n_eligible(self):
        sel = ranked_negatives(["a", "b", "c"], "q", 3, set(), seed=1)
        assert sorted(sel.ids) == ["a", "b", "c"] and not sel.shortfall

    def test_all_excluded(self):
        sel = ranked_negatives(["a", "b"], "q", 2, {"a", "b"}, seed=1)
        assert sel.ids == [] and sel.shortfall

    def test_seed_determinism(self):
        pool = [f"x{i}" for i in range(50)]
        first = ranked_negatives(pool, "q", 10, set(), seed=9)
        assert ranked_negatives(pool, "q", 10, set(), seed=9) == first
        assert ranked_negatives(pool, "q", 10, set(), seed=10).ids != first.ids

    def test_query_never_sampled(self):
        sel = ranked_negatives(["q", "a", "b"], "q", 2, set(), seed=0)
        assert "q" not in sel.ids


def star_graph():
    """q cites c1..c3; c1 has many neighbors, c2/c3 fewer; plus bystanders."""
    arts = [
        make_article("q", cites=("c1", "c2", "c3")),
        make_article("c1", cites=("n1", "n2", "c2")),
        make_article("c2", cites=("n3",)),
        make_article("c3"),
        make_article("n1"), make_article("n2"),
        make_article("n3", cites=("c3",)),
        make_article("n4", cites=("c1",)),
    ]
    return Corpus(arts)


class TestOverlapSimilarity:
    def test_disjoint_zero(self):
        corpus = Corpus([
            make_article("q", cites=("a", "b")),
            make_article("a"), make_article("b"),
            make_article("z", cites=("a",)),
        ])
        g = build_citation_graph(corpus)
        # a's neighborhood is {q, z}; OC_q = {a, b}; intersection empty
        assert overlap_similarity(g, "q", "a") == 0.0

    def test_full_containment_is_one(self):
        corpus = Corpus([
            make_article("q", cites=("a", "b")),
            make_article("a", cites=("b",)),
            make_article("b", cites=("a",)),
        ])
        g = build_citation_graph(corpus)
        # a's neighborhood: out {b} + in {q, b} -> contains OC_q \ {a}... plus a? OC_q={a,b}
        # neighborhood(a) = {b, q}; OC_q & nbhd = {b}; |OC_q| = 2 -> 0.5
        assert overlap_similarity(g, "q", "a") == 0.5

    def test_worked_half(self):
        # OC_q = {x, y, z, w}; neighborhood(c) = {x, y, p} -> 2/4
        arts = [
            make_article("q", cites=("x", "y", "z", "w")),
            make_article("c", cites=("x", "y", "p")),
            make_article("x"), make_article("y"), make_article("z"),
            make_article("w"), make_article("p"),
        ]
        g = build_citation_graph(Corpus(arts))
        assert overlap_similarity(g, "q", "c") == 0.5

    def test_empty_outgoing_raises(self):
        g = build_citation_graph(Corpus([make_article("q"), make_article("c")]))
        with pytest.raises(ValueError):
            overlap_similarity(g, "q", "c")


class TestGraphNegatives:
    def test_exhaustion_shortfall(self):
        corpus = Corpus([make_article("q", cites=("c1",)), make_article("c1")])
        g = build_citation_graph(corpus)
        sel = graph_negatives(g, "q", 10, exclude=set())
        assert sel.ids == [] and sel.shortfall

    def test_first_cited_article_supplies_all(self):
        # c1 has the highest overlap and enough neighbors for the whole quota
        arts = [
            make_article("q", cites=("c1", "c2")),
            make_article("c1", cites=("c2", "m1", "m2", "m3")),
            make_article("c2"),
            make_article("m1"), make_article("m2"), make_article("m3"),
            make_article("z1", cites=("c2",)),
        ]
        g = build_citation_graph(Corpus(arts))
        # overlaps: c1 -> |{c2}|/2 = 0.5; c2 -> neighborhood {q, c1, z1} -> |{c1}|/2 = 0.5
        # tie broken by id: c1 first; its eligible neighbors m1,m2,m3 fill n=3
        sel = graph_negatives(g, "q", 3, exclude=set())
        assert sel.ids == ["m1", "m2", "m3"] and not sel.shortfall

    def test_never_returns_cited_query_or_excluded(self):
        corpus = star_graph()
        g = build_citation_graph(corpus)
        sel = graph_negatives(g, "q", 10, exclude={"n1"})
        assert "q" not in sel.ids
        assert not set(sel.ids) & {"c1", "c2", "c3"}
        assert "n1" not in sel.ids

    def test_matches_replay_oracle_on_random_graphs(self):
        rng = random.Random(21)
        for trial in range(10):
            ids = [f"g{i:02d}" for i in range(12)]
            edges = {(a, b) for a in ids for b in ids if a != b and rng.random() < 0.25}
            corpus = Corpus([
                make_article(i, cites=[b for a, b in edges if a == i]) for i in ids
            ])
            g = build_citation_graph(corpus)
            out_map = {i: set(g.outgoing.ids_of(i)) for i in ids}
            in_map = {i: set(g.incoming.ids_of(i)) for i in ids}
            queries = [i for i in ids if out_map[i]]
            q = rng.choice(queries)
            exclude = set(rng.sample(ids, 2))
            expected_ids, expected_short, _ = replay_graph_negatives(
                out_map, in_map, q, 5, exclude)
            sel = graph_negatives(g, q, 5, exclude)
            assert sel.ids == expected_ids
            assert sel.shortfall == expected_short

    def test_no_outgoing_citations_raises(self):
        g = build_citation_graph(Corpus([make_article("q")]))
        with pytest.raises(ValueError):
            graph_negatives(g, "q", 5, set())


class TestMostCited:
    def _corpus(self):
        rng = random.Random(5)
        arts = []
        for i in range(30):
            arts.append(make_article(f"m{i:02d}", fields=("Physics",)))
        citers = []
        for i in range(30):
            # article m_i gets i incoming citations
            for j in range(i):
                citers.append(make_article(f"c{i:02d}_{j:02d}", cites=(f"m{i:02d}",)))
        return Corpus(arts + citers)

    def test_top_list_matches_sort_oracle(self):
        corpus = self._corpus()
        g = build_citation_graph(corpus)
        sel = ranked_negatives(most_cited(corpus, g, "Phy", top=5), "query", 5, set(), seed=3)
        labeled = [a.id for a in corpus if "Physics" in a.fields]
        oracle_top = sorted(labeled, key=lambda i: (-len(g.incoming.ids_of(i)), i))[:5]
        assert sorted(sel.ids) == sorted(oracle_top)

    def test_exclusion_shrinks_to_shortfall(self):
        corpus = self._corpus()
        g = build_citation_graph(corpus)
        ranked = most_cited(corpus, g, "Phy", top=5)
        top5 = set(ranked_negatives(ranked, "query", 5, set(), seed=3).ids)
        sel = ranked_negatives(ranked, "query", 5, set(list(top5)[:2]), seed=3)
        assert sel.shortfall and len(sel.ids) == 3

    def test_unknown_field(self):
        corpus = self._corpus()
        g = build_citation_graph(corpus)
        with pytest.raises(UnknownFieldError):
            most_cited(corpus, g, "Wizardry", top=200)

    def test_no_labeled_articles(self):
        corpus = Corpus([make_article("a", fields=("Biology",))])
        g = build_citation_graph(corpus)
        with pytest.raises(ValueError, match="labeled"):
            most_cited(corpus, g, "Phy", top=200)


class TestRandomNegatives:
    def test_population_exactly_n(self):
        corpus = Corpus([make_article(f"a{i}") for i in range(5)])
        sel = random_negatives(corpus, "a0", 4, exclude=set(), seed=1)
        assert sorted(sel.ids) == ["a1", "a2", "a3", "a4"]

    def test_exclude_everything(self):
        corpus = Corpus([make_article("a"), make_article("b")])
        sel = random_negatives(corpus, "a", 1, exclude={"a", "b"}, seed=1)
        assert sel.ids == [] and sel.shortfall

    def test_seed_reproducible(self):
        corpus = Corpus([make_article(f"a{i}") for i in range(100)])
        first = random_negatives(corpus, "a0", 10, set(), seed=6)
        assert random_negatives(corpus, "a0", 10, set(), seed=6) == first


class TestSamplePositives:
    def _graph(self, n_cited):
        cited = [f"p{i}" for i in range(n_cited)]
        corpus = Corpus([make_article("q", cites=cited)] + [make_article(c) for c in cited])
        return build_citation_graph(corpus)

    def test_exactly_five(self):
        got = sample_positives(self._graph(5), "q", 5, seed=1)
        assert sorted(got.ids) == [f"p{i}" for i in range(5)] and not got.shortfall

    def test_four_cited_fall_short(self):
        got = sample_positives(self._graph(4), "q", 5, seed=1)
        assert got.ids == [f"p{i}" for i in range(4)] and got.shortfall

    def test_subset_of_cited(self):
        g = self._graph(20)
        got = sample_positives(g, "q", 5, seed=2)
        assert len(got.ids) == 5 and set(got.ids) <= set(g.outgoing.ids_of("q"))


def small_benchmark_inputs(synth_prefiltered, fields=("Med", "CS"), queries_per_field=5):
    """Queries plus three synthetic model runs over the prefiltered corpus."""
    from citebench.corpus import resolve_field
    corpus, graph = synth_prefiltered
    queries_by_field = {}
    for abbrev in fields:
        name = resolve_field(abbrev).name
        eligible = sorted(
            a.id for a in corpus
            if a.year == 2019 and name in a.fields and len(graph.outgoing.ids_of(a.id)) >= 5
        )
        queries_by_field[abbrev] = eligible[:queries_per_field]
        assert len(queries_by_field[abbrev]) == queries_per_field
    all_queries = [q for qs in queries_by_field.values() for q in qs]
    universe = sorted(corpus.ids())
    rng = random.Random(99)
    model_runs = {}
    for m in ("alpha", "beta", "gamma"):
        rankings = {}
        for q in all_queries:
            docs = rng.sample([d for d in universe if d != q], 250)
            rankings[q] = [(d, float(250 - i)) for i, d in enumerate(docs)]
        model_runs[m] = rankings
    return corpus, graph, queries_by_field, model_runs


class TestBuildBenchmark:
    def test_desk_scale_shape(self, synth_prefiltered):
        corpus, graph, queries_by_field, model_runs = small_benchmark_inputs(synth_prefiltered)
        bench = build_benchmark(corpus, graph, queries_by_field, model_runs, seed=5)
        assert len(bench.entries) == 10
        assert bench.pair_count() == 2 * 5 * 65
        assert bench.manifest["models"] == sorted(model_runs)[:3] or len(bench.manifest["models"]) == 3
        for entry in bench.entries:
            assert len(entry.positives) == 5
            assert set(entry.negatives) == set(bench.manifest["types"])
            groups = [frozenset(ids) for ids in entry.negatives.values()]
            assert all(len(g) == 10 for g in groups)
            union = frozenset().union(*groups)
            assert len(union) == 60  # pairwise disjoint
            assert union.isdisjoint(entry.positives)
            assert entry.query_id not in union | set(entry.positives)
            cited = set(graph.outgoing.ids_of(entry.query_id))
            assert union.isdisjoint(cited)  # no negative is cited by the query
            assert set(entry.positives) <= cited
            # model-based negatives come from each run's candidates
            for label in bench.manifest["models"]:
                run_docs = {d for d, _ in model_runs[label][entry.query_id]}
                assert set(entry.negatives[label]) <= run_docs

    def test_insufficiently_cited_query_dropped(self, synth_prefiltered):
        corpus, graph, queries_by_field, model_runs = small_benchmark_inputs(synth_prefiltered)
        # swap in a query citing fewer than 5 articles
        weak = sorted(
            a.id for a in corpus
            if "Medicine" in a.fields and 1 <= len(graph.outgoing.ids_of(a.id)) < 5
        )
        assert weak, "fixture needs a weakly-citing query"
        queries_by_field["Med"] = queries_by_field["Med"][:4] + [weak[0]]
        for rankings in model_runs.values():
            docs = sorted(corpus.ids())[:250]
            rankings[weak[0]] = [(d, float(250 - i)) for i, d in enumerate(docs) if d != weak[0]]
        bench = build_benchmark(corpus, graph, queries_by_field, model_runs, seed=5)
        assert len(bench.entries) == 9
        assert bench.manifest["dropped"] == {"Med": 1}

    def test_deterministic_file_output(self, synth_prefiltered, tmp_path):
        corpus, graph, queries_by_field, model_runs = small_benchmark_inputs(synth_prefiltered)
        paths = []
        for tag in ("one", "two"):
            bench = build_benchmark(corpus, graph, queries_by_field, model_runs, seed=5)
            path = tmp_path / f"{tag}.jsonl"
            write_benchmark_jsonl(bench, path, tmp_path / f"{tag}.manifest.json")
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert ((tmp_path / "one.manifest.json").read_bytes()
                == (tmp_path / "two.manifest.json").read_bytes())

    def test_roundtrip(self, synth_prefiltered, tmp_path):
        corpus, graph, queries_by_field, model_runs = small_benchmark_inputs(synth_prefiltered)
        bench = build_benchmark(corpus, graph, queries_by_field, model_runs, seed=5)
        write_benchmark_jsonl(bench, tmp_path / "b.jsonl", tmp_path / "b.manifest.json")
        loaded = read_benchmark_jsonl(tmp_path / "b.jsonl", tmp_path / "b.manifest.json")
        assert len(loaded.entries) == len(bench.entries)
        assert loaded.negative_types() == bench.manifest["types"]
        assert loaded.entries[0].negatives == bench.entries[0].negatives

    def test_reserved_name_collision(self, synth_prefiltered):
        corpus, graph, queries_by_field, model_runs = small_benchmark_inputs(synth_prefiltered)
        model_runs[GRAPH_TYPE] = next(iter(model_runs.values()))
        with pytest.raises(ValueError, match="reserved"):
            build_benchmark(corpus, graph, queries_by_field, model_runs, seed=5)

    def test_query_in_two_fields_rejected(self, synth_prefiltered):
        corpus, graph, queries_by_field, model_runs = small_benchmark_inputs(synth_prefiltered)
        shared = queries_by_field["Med"][0]
        queries_by_field["CS"] = [*queries_by_field["CS"], shared]
        with pytest.raises(ValueError, match=f"{shared!r}.*'Med'.*'CS'"):
            build_benchmark(corpus, graph, queries_by_field, model_runs, seed=5)

    def test_full_scale_arithmetic(self):
        params = BenchmarkParams()
        per_query = params.positives_per_query + 6 * params.negatives_per_type
        assert per_query == 65
        assert 19 * 200 * per_query == 247_000

    @pytest.mark.parametrize("param", ["positives_per_query", "negatives_per_type",
                                       "model_pool_depth", "most_cited_top", "model_count"])
    def test_params_below_one_rejected(self, param):
        with pytest.raises(ValueError, match=f"{param} must be >= 1, got 0"):
            BenchmarkParams(**{param: 0})
        assert getattr(BenchmarkParams(**{param: 1}), param) == 1

    def test_type_order_fixed(self, synth_prefiltered):
        corpus, graph, queries_by_field, model_runs = small_benchmark_inputs(synth_prefiltered)
        bench = build_benchmark(corpus, graph, queries_by_field, model_runs, seed=5)
        types = bench.manifest["types"]
        assert types[3:] == [GRAPH_TYPE, MOST_CITED_TYPE, RANDOM_TYPE]
        assert types[:3] == bench.manifest["models"]
        for entry in bench.entries:
            assert list(entry.negatives) == types


GOOD_LINE = '{"query_id":"q1","field":"Med","positives":["a"],"negatives":{"graph":["b"]}}'


class TestReadBenchmark:
    @pytest.mark.parametrize("bad_line, message", [
        ('{"query_id": "q2",', "malformed JSON"),
        ('["q2"]', "entry must be a JSON object"),
        ('{"query_id":"q2","field":"Med","positives":["a"]}', "missing key 'negatives'"),
        ('{"field":"Med","positives":["a"],"negatives":{}}', "missing key 'query_id'"),
        ('{"query_id":2,"field":"Med","positives":["a"],"negatives":{}}',
         "query_id must be a string"),
        ('{"query_id":"q2","field":null,"positives":["a"],"negatives":{}}',
         "field must be a string"),
        ('{"query_id":"q2","field":"Medicine","positives":["a"],"negatives":{"graph":["b"]}}',
         "field 'Medicine' is not one of the field abbreviations"),
        ('{"query_id":"q2","field":"Med","positives":"ab","negatives":{}}',
         "positives must be a list of strings"),
        ('{"query_id":"q2","field":"Med","positives":["a",1],"negatives":{}}',
         "positives must be a list of strings"),
        ('{"query_id":"q2","field":"Med","positives":["a"],"negatives":[["b"]]}',
         "negatives must be an object of lists of strings"),
        ('{"query_id":"q2","field":"Med","positives":["a"],"negatives":{"graph":"bc"}}',
         "negatives must be an object of lists of strings"),
        ('{"query_id":"q2","field":"Med","positives":["a"],"negatives":{"graph":[null]}}',
         "negatives must be an object of lists of strings"),
        ('{"query_id":"q2","field":"Med","positives":[],"negatives":{"graph":["b"]}}',
         "entry has no positives"),
        ('{"query_id":"q2","field":"Med","positives":["a","q2"],"negatives":{"graph":["b"]}}',
         "query 'q2' is among its own candidates"),
        ('{"query_id":"q2","field":"Med","positives":["a"],"negatives":{"graph":["q2"]}}',
         "query 'q2' is among its own candidates"),
        ('{"query_id":"q2","field":"Med","positives":["a","a"],"negatives":{"graph":["b"]}}',
         "candidate 'a' is listed more than once"),
        ('{"query_id":"q2","field":"Med","positives":["a"],"negatives":{"graph":["b","a"]}}',
         "candidate 'a' is listed more than once"),
        ('{"query_id":"q2","field":"Med","positives":["a"],"negatives":{"graph":["b","b"]}}',
         "candidate 'b' is listed more than once"),
    ], ids=["json", "not-object", "no-negatives", "no-query", "query-int", "field-null",
            "field-name",
            "positives-str", "positives-int", "negatives-list", "negatives-str",
            "negatives-null", "positives-empty", "query-positive", "query-negative",
            "positive-twice", "positive-and-negative", "negative-twice"])
    def test_bad_line_named(self, tmp_path, bad_line, message):
        path = tmp_path / "b.jsonl"
        path.write_text(f"{GOOD_LINE}\n\n{bad_line}\n")
        with pytest.raises(ValueError, match=f"b.jsonl:3: {message}"):
            read_benchmark_jsonl(path)

    def test_bad_manifest_named(self, tmp_path):
        path, manifest = tmp_path / "b.jsonl", tmp_path / "b.manifest.json"
        path.write_text(f"{GOOD_LINE}\n")
        manifest.write_text('{"types": [')
        with pytest.raises(ValueError, match="b.manifest.json: malformed JSON"):
            read_benchmark_jsonl(path, manifest)

    @pytest.mark.parametrize("manifest_text, message", [
        ("[]", "b.manifest.json: benchmark manifest must be a JSON object"),
        ('{"types": "graph"}', "b.manifest.json: types must be a list of strings"),
        ('{"types": ["graph", 1]}', "b.manifest.json: types must be a list of strings"),
        ('{"types": ["randm"]}', r"b.jsonl:1: negative groups \['graph'\] are not the "
                                 r"benchmark types \['randm'\]"),
        ('{"types": ["graph", "random"]}', "b.jsonl:1: negative groups"),
        ('{"types": ["graph", "graph"]}', "b.jsonl:1: negative groups"),
    ], ids=["not-object", "types-str", "types-int", "misspelt", "missing-group", "repeated"])
    def test_bad_manifest_types_named(self, tmp_path, manifest_text, message):
        path, manifest = tmp_path / "b.jsonl", tmp_path / "b.manifest.json"
        path.write_text(f"{GOOD_LINE}\n")
        manifest.write_text(manifest_text)
        with pytest.raises(ValueError, match=message):
            read_benchmark_jsonl(path, manifest)

    def test_id_in_two_groups_named(self, tmp_path):
        path, manifest = tmp_path / "b.jsonl", tmp_path / "b.manifest.json"
        good = GOOD_LINE.replace('{"graph":["b"]}', '{"graph":["b"],"random":["c"]}')
        bad = GOOD_LINE.replace('{"graph":["b"]}', '{"graph":["b","c"],"random":["c"]}')
        path.write_text(f"{good.replace('q1', 'q0')}\n{bad}\n")
        manifest.write_text('{"types": ["graph", "random"]}')
        with pytest.raises(ValueError, match="b.jsonl:2: candidate 'c' is listed more than once"):
            read_benchmark_jsonl(path, manifest)

    def test_groups_differ_from_first_entry(self, tmp_path):
        path = tmp_path / "b.jsonl"
        other = GOOD_LINE.replace('"graph"', '"random"')
        path.write_text(f"{GOOD_LINE}\n{other}\n")
        with pytest.raises(ValueError, match=r"b.jsonl:2: negative groups \['random'\]"):
            read_benchmark_jsonl(path)

    def test_manifest_types_in_any_order(self, tmp_path):
        path, manifest = tmp_path / "b.jsonl", tmp_path / "b.manifest.json"
        line = GOOD_LINE.replace('{"graph":["b"]}', '{"graph":["b"],"random":["c"]}')
        path.write_text(f"{line}\n{line.replace('q1', 'q2')}\n")
        manifest.write_text('{"types": ["random", "graph"]}')
        bench = read_benchmark_jsonl(path, manifest)
        assert bench.negative_types() == ["random", "graph"]
        assert [e.query_id for e in bench.entries] == ["q1", "q2"]
