"""Retrieval model drivers, benchmark evaluation, and report rendering."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from . import dense, lexical, metrics
from .benchgen import Benchmark
from .corpus import Article, Corpus, FIELD_ABBREVS
from .lexical import DEFAULT_CUTOFF
from .pools import PoolSet

# the R@ cutoff of a closed benchmark, whose entries hold 5 positives
BENCHMARK_RECALL_CUTOFF = 5


class RetrievalModel(ABC):
    """Ranks candidate article ids for a query article.

    Implementations define `rank` and may override `rank_pool` to prepare
    one shared candidate set once for many queries. They must be
    deterministic (identical inputs give identical output) and safe to call
    concurrently once constructed.
    """

    name: str

    @abstractmethod
    def rank(self, query: Article, candidates, k: int) -> list[tuple[str, float]]:
        """Ranked (id, score) list, ids drawn from `candidates`, best first.

        The order must not depend on which other candidates are in the set:
        ranking a subset of `candidates` gives the subset's items in the
        order the full set ranks them. `candidate_type_breakdown` relies on
        this. BM25 meets it because idf and avgdl come from the whole index,
        and dense scores because each reduction runs within one row.
        """

    def rank_pool(self, queries: Sequence[Article], candidates: frozenset[str],
                  k: int) -> dict[str, list[tuple[str, float]]]:
        """Rank one shared candidate set for many query articles, keyed by
        query id in the order given. A query is never its own candidate:
        each ranking equals `rank(q, candidates - {q.id}, k)`, which is what
        this default calls, once per query. Backends override it to prepare
        the candidate set once for all queries.
        """
        return {q.id: self.rank(q, candidates - {q.id}, k) for q in queries}


class Bm25Model(RetrievalModel):
    name = "bm25"

    def __init__(self, index: lexical.Bm25Index, params: lexical.Bm25Params | None = None):
        self.index = index
        self.params = params or lexical.Bm25Params()

    def rank(self, query: Article, candidates, k: int) -> list[tuple[str, float]]:
        return lexical.search(self.index, query.text, self.params, k=k, pool=candidates)

    def rank_pool(self, queries: Sequence[Article], candidates: frozenset[str],
                  k: int) -> dict[str, list[tuple[str, float]]]:
        return lexical.search_pool(self.index, [(q.id, q.text) for q in queries], candidates,
                                   self.params, k=k)


class DenseModel(RetrievalModel):
    def __init__(self, store: dense.EmbeddingStore, metric: str = "cosine",
                 name: str = "dense", chunks: int = 1):
        self.store = store
        self.metric = metric
        self.name = name
        self.chunks = chunks

    def rank(self, query: Article, candidates, k: int) -> list[tuple[str, float]]:
        if query.id not in self.store:
            raise KeyError(f"no embedding row for query {query.id!r}")
        return dense.knn(self.store, self.store.vector(query.id), k,
                         metric=self.metric, pool=candidates, chunks=self.chunks)

    def rank_pool(self, queries: Sequence[Article], candidates: frozenset[str],
                  k: int) -> dict[str, list[tuple[str, float]]]:
        return dense.knn_pool(self.store, [q.id for q in queries], candidates, k,
                              metric=self.metric, chunks=self.chunks)


@dataclass
class RetrievalRun:
    """Per-query ranked candidate lists produced by one model."""

    model: str
    rankings: dict[str, list[tuple[str, float]]]
    cutoff: int

    def __post_init__(self) -> None:
        for q, ranked in self.rankings.items():
            if len(ranked) > self.cutoff:
                raise ValueError(f"query {q!r} has {len(ranked)} results, cutoff is {self.cutoff}")
            if len(dict(ranked)) != len(ranked):
                raise ValueError(f"duplicate doc ids in results for query {q!r}")


def run_retrieval(model: RetrievalModel, pool_set: PoolSet, corpus: Corpus,
                  cutoff: int = DEFAULT_CUTOFF) -> RetrievalRun:
    """Rank the shared pool for every pool query, in query id order, with one
    `rank_pool` call; a query is never its own candidate. The cutoff
    truncates each ranking."""
    queries = [corpus.article(q) for q in sorted(pool_set.positives)]
    return RetrievalRun(model.name, model.rank_pool(queries, pool_set.members(), cutoff), cutoff)


@dataclass
class BenchmarkReport:
    """Per-field aggregates plus their macro average and per-query values."""

    per_field: dict[str, dict[str, float]]
    macro: dict[str, float]
    per_query: dict[str, dict[str, float]]


def score_benchmark_rankings(rankings: Mapping[str, Sequence], benchmark: Benchmark,
                             recall_cutoff: int = BENCHMARK_RECALL_CUTOFF) -> BenchmarkReport:
    """Score precomputed per-entry rankings (e.g. a run file) against a
    benchmark's positives: per-field means, macro-averaged over fields."""
    names = ("map", f"recall@{recall_cutoff}")
    score = metrics._scorer(names)
    per_query: dict[str, dict[str, float]] = {}
    for entry in benchmark.entries:
        if entry.query_id not in rankings:
            raise ValueError(f"benchmark query {entry.query_id!r} is missing from the run")
        per_query[entry.query_id] = score(rankings[entry.query_id], entry.positives)
    per_field: dict[str, dict[str, float]] = {}
    for abbrev in FIELD_ABBREVS:
        rows = [per_query[e.query_id] for e in benchmark.entries if e.field == abbrev]
        if rows:
            per_field[abbrev] = metrics.metric_means(rows, names)
    return BenchmarkReport(per_field, metrics.metric_means(per_field.values(), names), per_query)


def rank_benchmark(model: RetrievalModel, benchmark: Benchmark,
                   corpus: Corpus) -> dict[str, list[tuple[str, float]]]:
    """Rank each entry's closed candidate pool (positives plus all negative
    groups) with no depth cut, keyed by query id. A dense ranking holds every
    candidate; a BM25 ranking only those that some query term hits."""
    rankings: dict[str, list[tuple[str, float]]] = {}
    for entry in benchmark.entries:
        candidates = frozenset(entry.candidate_ids())
        rankings[entry.query_id] = model.rank(corpus.article(entry.query_id), candidates,
                                              len(candidates))
    return rankings


def evaluate_benchmark(model: RetrievalModel, benchmark: Benchmark,
                       corpus: Corpus) -> BenchmarkReport:
    """Rank each entry's closed candidate pool and aggregate AP and recall
    per field, macro-averaged overall."""
    return score_benchmark_rankings(rank_benchmark(model, benchmark, corpus), benchmark)


def candidate_type_breakdown(model: RetrievalModel, benchmark: Benchmark,
                             corpus: Corpus) -> dict[str, dict[str, float]]:
    """For each candidate type, score each entry's subset pool (positives
    plus that type's negatives) and average AP and recall over all entries.

    The subset ranking is the closed-pool ranking with the other types'
    negatives filtered out, which equals ranking the subset on its own
    because `RetrievalModel.rank` orders a subset as it orders the full set.
    The full pool is ranked with no depth cut, so filtering never loses a
    candidate that the subset's own ranking would hold.
    """
    names = ("map", f"recall@{BENCHMARK_RECALL_CUTOFF}")
    score = metrics._scorer(names)
    types = benchmark.negative_types()
    rankings = rank_benchmark(model, benchmark, corpus)
    per_type: dict[str, list[dict[str, float]]] = {t: [] for t in types}
    for entry in benchmark.entries:
        positives = frozenset(entry.positives)
        ranked = rankings[entry.query_id]
        for t in types:
            keep = positives | frozenset(entry.negatives[t])
            per_type[t].append(score([item for item in ranked if item[0] in keep], positives))
    return {t: metrics.metric_means(rows, names) for t, rows in per_type.items()}


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def render_report(table: Mapping[str, Mapping[str, float]], columns: Sequence[str] | None = None,
                  fmt: str = "tsv", row_header: str = "") -> str:
    """Render metric values times 100 with one decimal, rows and columns in
    the given (or insertion) order."""
    rows = list(table)
    if columns is None:
        columns = list(next(iter(table.values()))) if table else []

    def cell(value: float) -> str:
        return f"{value * 100:.1f}"

    if fmt == "tsv":
        lines = ["\t".join([row_header, *columns])]
        for r in rows:
            lines.append("\t".join([r, *(cell(table[r][c]) for c in columns)]))
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join([row_header or " ", *columns]) + " |"]
        lines.append("|" + "|".join([" --- "] * (len(columns) + 1)) + "|")
        for r in rows:
            lines.append("| " + " | ".join([r, *(cell(table[r][c]) for c in columns)]) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(table: Mapping[str, Mapping[str, float]], path,
                fmt: str = "tsv", columns: Sequence[str] | None = None,
                row_header: str = "") -> str:
    """Write a rendered report to `path` and return the path."""
    Path(path).write_text(render_report(table, columns, fmt, row_header), encoding="utf-8")
    return str(path)
