import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citebench.corpus import (Article, Corpus, CorpusError, PrefilterRules,
                              UnknownFieldError, build_citation_graph, field_cited_set,
                              load_corpus, prefilter, resolve_field, write_corpus_jsonl,
                              FIELDS, FIELD_ABBREVS)
from conftest import make_article


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _record(ident, **extra):
    obj = {"id": ident, "title": "t", "abstract": "a" * 40, "year": 2015,
           "fields": [], "out_citations": []}
    obj.update(extra)
    return json.dumps(obj)


class TestLoadCorpus:
    def test_three_valid_lines(self, tmp_path):
        path = _write_lines(tmp_path / "c.jsonl", [_record("A"), _record("B"), _record("C")])
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus.rejected == 0

    def test_duplicate_id_is_an_error(self, tmp_path):
        path = _write_lines(tmp_path / "c.jsonl", [_record("A"), _record("A")])
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    @pytest.mark.parametrize("line, expected", [
        ("{broken", ":2: malformed JSON"),
        ('{"id": "B", "year": NaN}',
         ":2: malformed JSON: NaN is not a JSON value (rejection budget 0 exceeded)"),
        ('{"id": 3}', ":2: missing or invalid 'id' (rejection budget 0 exceeded)"),
        (_record("A"), ": duplicate article id: 'A'"),
    ], ids=["malformed-json", "non-finite", "bad-record", "duplicate-id"])
    def test_errors_name_the_file_once(self, tmp_path, line, expected):
        path = _write_lines(tmp_path / "c.jsonl", [_record("A"), line])
        with pytest.raises(CorpusError) as info:
            load_corpus(path)
        assert str(info.value).startswith(f"{path}{expected}")
        assert str(info.value).count(str(path)) == 1

    def test_truncated_line_within_budget(self, tmp_path):
        lines = [_record("A"), _record("B"), '{"id": "C", "title": "tru']
        path = _write_lines(tmp_path / "c.jsonl", lines)
        # oracle: count lines that parse as complete JSON objects
        parseable = 0
        for line in lines:
            try:
                json.loads(line)
                parseable += 1
            except json.JSONDecodeError:
                pass
        corpus = load_corpus(path, reject_budget=1)
        assert len(corpus) == parseable == 2
        assert corpus.rejected == 1

    def test_non_finite_line_counts_against_the_budget(self, tmp_path):
        path = _write_lines(tmp_path / "c.jsonl",
                            [_record("A"), '{"id": "B", "year": Infinity}', _record("C")])
        corpus = load_corpus(path, reject_budget=1)
        assert [a.id for a in corpus] == ["A", "C"]
        assert corpus.rejected == 1

    def test_budget_exceeded_raises(self, tmp_path):
        path = _write_lines(tmp_path / "c.jsonl", [_record("A"), "{broken"])
        with pytest.raises(CorpusError, match="budget"):
            load_corpus(path, reject_budget=0)

    def test_negative_budget_rejected(self, tmp_path):
        path = _write_lines(tmp_path / "c.jsonl", [_record("A")])
        with pytest.raises(ValueError, match="reject_budget must be >= 0, got -1"):
            load_corpus(path, reject_budget=-1)

    def test_unknown_keys_ignored_and_null_year(self, tmp_path):
        path = _write_lines(tmp_path / "c.jsonl",
                            [_record("A", year=None, venue="ignored", extra=[1, 2])])
        corpus = load_corpus(path)
        assert corpus.article("A").year is None

    def test_self_citation_dropped(self, tmp_path):
        path = _write_lines(tmp_path / "c.jsonl", [_record("A", out_citations=["A", "B"])])
        art = load_corpus(path).article("A")
        assert art.out_citations == frozenset({"B"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "absent.jsonl")

    def test_roundtrip(self, tmp_path):
        arts = [make_article("A", cites=("B",), fields=("Medicine",)), make_article("B")]
        write_corpus_jsonl(Corpus(arts), tmp_path / "c.jsonl")
        again = load_corpus(tmp_path / "c.jsonl")
        assert set(again.ids()) == {"A", "B"}
        assert again.article("A").out_citations == frozenset({"B"})
        assert again.article("A").fields == frozenset({"Medicine"})


class TestCitationGraph:
    def test_single_edge_transpose(self):
        corpus = Corpus([make_article("A", cites=("B",)), make_article("B")])
        g = build_citation_graph(corpus)
        assert g.outgoing.ids_of("A") == ["B"]
        assert g.incoming.ids_of("B") == ["A"]
        assert g.incoming.ids_of("A") == []

    def test_dangling_edge_dropped_and_counted(self):
        corpus = Corpus([make_article("A", cites=("X",))])
        g = build_citation_graph(corpus)
        assert g.outgoing.ids_of("A") == []
        assert g.outgoing.ids_of("X") == [] and g.incoming.ids_of("X") == []
        assert g.dangling == 1

    def test_random_digraph_matches_edge_enumeration(self):
        rng = random.Random(5)
        nodes = ["N0", "N1", "N2", "N3"]
        edges = {(a, b) for a in nodes for b in nodes
                 if a != b and rng.random() < 0.5}
        corpus = Corpus([
            make_article(n, cites=[b for a, b in edges if a == n]) for n in nodes
        ])
        g = build_citation_graph(corpus)
        for a in nodes:
            for b in nodes:
                assert (b in g.outgoing.ids_of(a)) == ((a, b) in edges)
                assert (a in g.incoming.ids_of(b)) == ((a, b) in edges)

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40))
    def test_symmetry_property(self, raw_edges):
        nodes = sorted({f"N{i}" for pair in raw_edges for i in pair} | {"N0"})
        corpus = Corpus([
            make_article(n, cites=[f"N{b}" for a, b in raw_edges if f"N{a}" == n])
            for n in nodes
        ])
        g = build_citation_graph(corpus)
        for a in nodes:
            for b in nodes:
                assert (b in g.outgoing.ids_of(a)) == (a in g.incoming.ids_of(b))


class TestPrefilter:
    def _corpus_with_citers(self, target, n_citers, **kwargs):
        citers = [make_article(f"C{i}", cites=(target.id,)) for i in range(n_citers)]
        return Corpus([target, *citers])

    def test_short_abstract_removed(self):
        art = make_article("A", abstract="x" * 29)
        corpus = self._corpus_with_citers(art, 5)
        g = build_citation_graph(corpus)
        result = prefilter(corpus, g)
        assert "A" not in result.corpus
        assert result.removed["short_abstract"] == 1

    def test_thirty_char_abstract_retained(self):
        art = make_article("A", abstract="x" * 30)
        corpus = self._corpus_with_citers(art, 5)
        result = prefilter(corpus, build_citation_graph(corpus))
        assert "A" in result.corpus

    def test_empty_title_removed(self):
        art = make_article("A", title="")
        corpus = self._corpus_with_citers(art, 5)
        result = prefilter(corpus, build_citation_graph(corpus))
        assert "A" not in result.corpus
        assert result.removed["empty_title"] == 1

    def test_missing_and_zero_year_removed(self):
        for bad_year in (None, 0):
            art = make_article("A", year=bad_year)
            corpus = self._corpus_with_citers(art, 5)
            result = prefilter(corpus, build_citation_graph(corpus))
            assert "A" not in result.corpus
            assert result.removed["missing_year"] == 1

    def test_exactly_three_incoming_retained(self):
        art = make_article("A")
        corpus = self._corpus_with_citers(art, 3)
        result = prefilter(corpus, build_citation_graph(corpus))
        assert "A" in result.corpus

    def test_two_incoming_removed(self):
        art = make_article("A")
        corpus = self._corpus_with_citers(art, 2)
        result = prefilter(corpus, build_citation_graph(corpus))
        assert "A" not in result.corpus
        assert result.removed["few_incoming_citations"] >= 1

    def test_single_pass_counts_frozen(self):
        # A's three citers all fail the year rule; A keeps its citation count
        # because counts come from the input graph.
        target = make_article("A")
        citers = [make_article(f"C{i}", year=None, cites=("A",)) for i in range(3)]
        corpus = Corpus([target, *citers])
        result = prefilter(corpus, build_citation_graph(corpus))
        assert "A" in result.corpus
        assert result.removed["missing_year"] == 3

    def test_monotone_in_min_citations(self):
        rng = random.Random(11)
        ids = [f"P{i}" for i in range(30)]
        arts = [make_article(i, cites=[j for j in ids if j != i and rng.random() < 0.2])
                for i in ids]
        corpus = Corpus(arts)
        g = build_citation_graph(corpus)
        prev = None
        for m in range(0, 6):
            kept = set(prefilter(corpus, g, PrefilterRules(min_citations=m)).corpus.ids())
            if prev is not None:
                assert kept <= prev
            prev = kept

    def test_invalid_rules(self):
        with pytest.raises(ValueError):
            PrefilterRules(min_citations=-1)


class TestFields:
    def test_nineteen_fields(self):
        assert len(FIELDS) == 19
        assert len(set(FIELD_ABBREVS)) == 19
        assert resolve_field("Medicine").abbrev == "Med"
        assert resolve_field("Med").name == "Medicine"

    def test_unknown_field(self):
        with pytest.raises(UnknownFieldError):
            resolve_field("Astrology")


class TestFieldCitedSet:
    def test_no_labeled_articles(self):
        corpus = Corpus([make_article("A", fields=("Physics",))])
        g = build_citation_graph(corpus)
        assert field_cited_set(corpus, g, "Med") == set()

    def test_single_medicine_article(self):
        corpus = Corpus([
            make_article("A", fields=("Medicine",), cites=("B", "C")),
            make_article("B"), make_article("C"),
        ])
        g = build_citation_graph(corpus)
        assert field_cited_set(corpus, g, "Medicine") == {"B", "C"}

    def test_overlapping_citations_match_union_oracle(self):
        rng = random.Random(3)
        ids = [f"F{i}" for i in range(10)]
        arts = []
        for i, ident in enumerate(ids):
            fields = ("Biology",) if i % 2 == 0 else ("Physics",)
            cites = [j for j in ids if j != ident and rng.random() < 0.4]
            arts.append(make_article(ident, fields=fields, cites=cites))
        corpus = Corpus(arts)
        g = build_citation_graph(corpus)
        expected = set()
        for art in arts:
            if "Biology" in art.fields:
                expected |= set(art.out_citations) & set(ids)
        assert field_cited_set(corpus, g, "Bio") == expected

    def test_subset_of_corpus_ids(self, synth_prefiltered):
        corpus, graph = synth_prefiltered
        ids = set(corpus.ids())
        for f in FIELDS[:5]:
            assert field_cited_set(corpus, graph, f) <= ids

    def test_unknown_field_raises(self):
        corpus = Corpus([make_article("A")])
        g = build_citation_graph(corpus)
        with pytest.raises(UnknownFieldError):
            field_cited_set(corpus, g, "NotAField")


def test_article_invariants():
    with pytest.raises(CorpusError):
        Article("", "t", "a" * 40, 2000, frozenset(), frozenset())
    with pytest.raises(CorpusError):
        Corpus([make_article("A"), make_article("A")])
