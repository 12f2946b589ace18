"""Benchmark construction: 5 cited positives plus 60 typed hard negatives per query.

Four selection strategies feed six negative groups of ten:

  * model-based: three groups sampled from the top-ranked non-cited
    candidates of the three most mutually diverse retrieval runs (lowest
    mean pairwise Jaccard between their top negatives);
  * graph: neighbors of the query's cited articles, walked from the cited
    article with the highest citation-overlap similarity downward;
  * most_cited: sampled from the field's most-cited articles, ranked once
    per field and `build_benchmark` call;
  * random: sampled from the whole prefiltered corpus, as positions among
    its sorted ids that skip the excluded ones.

Groups are generated in a fixed order and each group excludes the query, its
cited articles, and every previously chosen negative, so the 60 negatives
are pairwise disjoint and none is cited by the query. Queries that cannot
fill a quota are dropped, never padded.
"""

from __future__ import annotations

import functools
import json
import random
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import CitationGraph, Corpus, FIELD_ABBREVS, resolve_field
from .metrics import _ranked_ids, jaccard
from .util import checked, derive_seed, parse_json, read_json, sum_in_order

GRAPH_TYPE = "graph"
MOST_CITED_TYPE = "most_cited"
RANDOM_TYPE = "random"
RESERVED_TYPES = (GRAPH_TYPE, MOST_CITED_TYPE, RANDOM_TYPE)


class Selection(NamedTuple):
    ids: list[str]
    shortfall: bool


class QueryRejected(ValueError):
    """The query cannot supply its candidate quota and is dropped."""


@dataclass(frozen=True)
class BenchmarkParams:
    positives_per_query: int = 5
    negatives_per_type: int = 10
    model_pool_depth: int = 200
    most_cited_top: int = 200
    model_count: int = 3

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class BenchmarkEntry:
    query_id: str
    field: str
    positives: list[str]
    negatives: dict[str, list[str]]

    def candidate_ids(self) -> list[str]:
        out = list(self.positives)
        for ids in self.negatives.values():
            out.extend(ids)
        return out


@dataclass
class Benchmark:
    entries: list[BenchmarkEntry]
    manifest: dict

    def __post_init__(self) -> None:
        # evaluation keys rankings by query id, so two entries for one id
        # would both be scored with one of their rankings
        repeated = [q for q, n in Counter(e.query_id for e in self.entries).items() if n > 1]
        if repeated:
            raise ValueError(f"benchmark query {repeated[0]!r} has more than one entry")

    def negative_types(self) -> list[str]:
        if "types" in self.manifest:
            return list(self.manifest["types"])
        return list(self.entries[0].negatives) if self.entries else []

    def pair_count(self) -> int:
        return sum(
            len(e.positives) + sum(len(ids) for ids in e.negatives.values())
            for e in self.entries
        )


def top_negatives_per_model(run, qrels: Mapping[str, frozenset],
                            depth: int = BenchmarkParams.model_pool_depth) -> dict[str, list[str]]:
    """Per query: the ranked candidates with the true positives removed,
    truncated to `depth`. Positives are filtered before truncation so the
    full depth stays available."""
    rankings = getattr(run, "rankings", run)
    out: dict[str, list[str]] = {}
    for q, ranked in rankings.items():
        relevant = qrels.get(q, frozenset())
        negatives: list[str] = []
        for doc in _ranked_ids(ranked):
            if doc in relevant:
                continue
            negatives.append(doc)
            if len(negatives) == depth:
                break
        out[q] = negatives
    return out


def select_diverse_models(per_model_negatives: Mapping[str, Mapping[str, Sequence[str]]],
                          m: int) -> list[str]:
    """The m models whose top negatives overlap least with the others'.

    A model's diversity score is the mean over the other models of the mean
    per-query Jaccard between top-negative sets; the m lowest win, ties by
    model name.
    """
    names = sorted(per_model_negatives)
    if len(names) < m:
        raise ValueError(f"need at least {m} models, have {len(names)}")
    pair_mean: dict[tuple[str, str], float] = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            values = []
            for q in sorted(set(per_model_negatives[a]) | set(per_model_negatives[b])):
                sa = set(per_model_negatives[a].get(q, ()))
                sb = set(per_model_negatives[b].get(q, ()))
                if not sa and not sb:
                    continue
                values.append(jaccard(sa, sb))
            pair_mean[(a, b)] = sum_in_order(values) / len(values) if values else 0.0
    scores = {}
    for name in names:
        others = [pair_mean[tuple(sorted((name, other)))] for other in names if other != name]
        scores[name] = sum_in_order(others) / len(others) if others else 0.0
    return sorted(names, key=lambda name: (scores[name], name))[:m]


def ranked_negatives(ranked: Sequence[str], query_id: str, n: int, exclude,
                     seed: int) -> Selection:
    """Uniform sample of n ids from a ranked list (a model's top negatives or
    a field's most-cited articles) minus the query and `exclude`."""
    return _sample([d for d in ranked if d not in exclude and d != query_id], n, seed)


def _sample(eligible: Sequence, n: int, seed: int) -> Selection:
    """Uniform sample of n of `eligible`, or all of it (a shortfall) when it
    holds fewer than n."""
    if len(eligible) < n:
        return Selection(list(eligible), True)
    return Selection(random.Random(seed).sample(eligible, n), False)


def overlap_similarity(graph: CitationGraph, query_id: str, cited_id: str) -> float:
    """Fraction of the query's outgoing citations found among the cited
    article's combined incoming and outgoing citations."""
    cites = _cited_rows(graph, query_id)
    row = graph.numbering.row.get(cited_id)
    neighbourhood = [] if row is None else graph.outgoing.of(row) + graph.incoming.of(row)
    return len(cites.intersection(neighbourhood)) / len(cites)


def _cited_rows(graph: CitationGraph, query_id: str) -> set[int]:
    row = graph.numbering.row.get(query_id)
    cites = set() if row is None else set(graph.outgoing.of(row))
    if not cites:
        raise ValueError(f"query {query_id!r} has no outgoing citations")
    return cites


def graph_negatives(graph: CitationGraph, query_id: str, n: int, exclude) -> Selection:
    """Walk the query's cited articles in descending overlap-similarity order
    (ties by ascending id), collecting their citation neighbors that are not
    cited by the query, not the query, and not excluded. Within one cited
    article, neighbors are added in ascending id order."""
    cites = _cited_rows(graph, query_id)
    ids, query_row = graph.numbering.ids, graph.numbering.row[query_id]
    # two runs in ascending id order; an article both citing and cited by c is in both
    hoods = {c: graph.outgoing.of(c) + graph.incoming.of(c) for c in cites}
    # the similarities share one denominator, so the overlaps order them alike
    ordered = sorted(cites, key=lambda c: (-len(cites.intersection(hoods[c])), ids[c]))
    picked: list[str] = []
    seen: set[str] = set()
    for cited in ordered:
        # sorted() merges the two runs, and a repeated neighbour is skipped as seen
        for neighbor in sorted([ids[r] for r in hoods[cited] if r not in cites and r != query_row]):
            if neighbor in exclude or neighbor in seen:
                continue
            picked.append(neighbor)
            seen.add(neighbor)
            if len(picked) == n:
                return Selection(picked, False)
    return Selection(picked, True)


def most_cited(corpus: Corpus, graph: CitationGraph, field, top: int) -> list[str]:
    """The field's `top` most-cited article ids, by descending incoming
    citation count within the corpus, ties by ascending id."""
    label = resolve_field(field)
    labeled = [art.id for art in corpus if label.name in art.fields]
    if not labeled:
        raise ValueError(f"no articles labeled {label.name!r}")
    row, cited_by = corpus.numbering.row, graph.incoming.degrees(corpus).tolist()
    return sorted(labeled, key=lambda i: (-cited_by[row[i]], i))[:top]


def random_negatives(corpus: Corpus, query_id: str, n: int, exclude, seed: int) -> Selection:
    """Uniform sample of n ids from the whole corpus minus `exclude`: random.sample
    reads its population only by len() and index, so sampling positions among the
    kept ids and mapping them to ids equals sampling the filtered sorted list."""
    numbering = corpus.numbering
    drop = numbering.rows(d for d in {query_id, *exclude} if d in numbering.row)
    dropped = np.sort(numbering.id_rank[drop])
    # kept ids before each dropped rank; nondecreasing
    kept_before = dropped - np.arange(len(dropped))
    positions = _sample(range(len(corpus) - len(dropped)), n, seed)
    ranks = np.array(positions.ids, dtype=np.intp)
    ranks += np.searchsorted(kept_before, ranks, side="right")
    return Selection(list(map(numbering.sorted_ids.__getitem__, ranks.tolist())),
                     positions.shortfall)


def sample_positives(graph: CitationGraph, query_id: str, n: int, seed: int) -> list[str]:
    """Uniform sample of n articles cited by the query; rejects the query
    (raises) when it cites fewer than n corpus articles."""
    cited = graph.outgoing.ids_of(query_id)
    if len(cited) < n:
        raise QueryRejected(f"query {query_id!r} cites {len(cited)} articles, needs {n}")
    return random.Random(seed).sample(cited, n)


def build_benchmark(corpus: Corpus, graph: CitationGraph,
                    queries_by_field: Mapping[str, Sequence[str]],
                    model_runs: Mapping[str, object],
                    params: BenchmarkParams = BenchmarkParams(),
                    seed: int = 0) -> Benchmark:
    """Assemble benchmark entries for every query, dropping queries with any
    unfixable shortfall.

    `model_runs` maps run names (must not collide with the reserved type
    labels) to rankings; the most diverse `params.model_count` runs supply
    the model-based groups. Per-query RNG streams derive from the master
    seed, so generation order cannot change the output. Each field's
    most-cited ranking is computed once per call, when its first query
    reaches the most-cited step.
    """
    for name in model_runs:
        if name in RESERVED_TYPES:
            raise ValueError(f"model run name {name!r} collides with a reserved type label")
    qrels: dict[str, set[str]] = {}
    field_of: dict[str, str] = {}
    for field_key, queries in queries_by_field.items():
        for q in queries:
            if q in field_of:
                raise ValueError(f"query {q!r} is listed for fields {field_of[q]!r} "
                                 f"and {field_key!r}; benchmark query ids must be unique")
            field_of[q] = field_key
            qrels[q] = set(graph.outgoing.ids_of(q))
    per_model = {
        name: top_negatives_per_model(run, qrels, params.model_pool_depth)
        for name, run in model_runs.items()
    }
    chosen = select_diverse_models(per_model, params.model_count)
    types = [*chosen, *RESERVED_TYPES]

    by_abbrev = {resolve_field(key).abbrev: key for key in queries_by_field}
    # computed on the first query that reaches the most-cited step, so a
    # field whose queries all drop earlier needs no labeled articles
    most_cited_of = functools.cache(
        lambda abbrev: most_cited(corpus, graph, abbrev, params.most_cited_top))
    entries: list[BenchmarkEntry] = []
    dropped: dict[str, int] = {}
    for abbrev in FIELD_ABBREVS:
        if abbrev not in by_abbrev:
            continue
        field_key = by_abbrev[abbrev]
        for q in sorted(queries_by_field[field_key]):
            entry = _build_entry(corpus, graph, q, abbrev, types, per_model, params, seed,
                                 most_cited_of)
            if entry is None:
                dropped[abbrev] = dropped.get(abbrev, 0) + 1
            else:
                entries.append(entry)
    benchmark = Benchmark(entries, {})
    benchmark.manifest = {
        "seed": seed,
        "models": list(chosen),
        "types": types,
        "params": asdict(params),
        "corpus_hash": corpus.content_hash(),
        "entries": len(entries),
        "dropped": {k: dropped[k] for k in sorted(dropped)},
        "pairs": benchmark.pair_count(),
    }
    return benchmark


def _build_entry(corpus, graph, query_id, abbrev, types, per_model, params, seed, most_cited_of):
    try:
        positives = sorted(
            sample_positives(graph, query_id, params.positives_per_query,
                             derive_seed(seed, query_id, "positives"))
        )
    except QueryRejected:
        return None
    # the positives are among the query's cited articles
    exclude = {query_id, *graph.outgoing.ids_of(query_id)}
    n = params.negatives_per_type
    groups: dict[str, list[str]] = {}
    for label in types:
        if label == GRAPH_TYPE:
            sel = graph_negatives(graph, query_id, n, exclude)
        elif label == MOST_CITED_TYPE:
            sel = ranked_negatives(most_cited_of(abbrev), query_id, n, exclude,
                                   derive_seed(seed, query_id, label))
        elif label == RANDOM_TYPE:
            sel = random_negatives(corpus, query_id, n, exclude, derive_seed(seed, query_id, label))
        else:
            sel = ranked_negatives(per_model[label].get(query_id, []), query_id, n, exclude,
                                   derive_seed(seed, query_id, "model", label))
        if sel.shortfall:
            return None
        groups[label] = sorted(sel.ids)
        exclude |= set(sel.ids)
    return BenchmarkEntry(query_id, abbrev, positives, groups)


# ---------------------------------------------------------------------------
# benchmark file format (JSON Lines + manifest)
# ---------------------------------------------------------------------------


def write_benchmark_jsonl(benchmark: Benchmark, path, manifest_path=None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for entry in benchmark.entries:
            obj = {
                "query_id": entry.query_id,
                "field": entry.field,
                "positives": entry.positives,
                "negatives": entry.negatives,
            }
            fh.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
    if manifest_path is not None:
        Path(manifest_path).write_text(
            json.dumps(benchmark.manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )


def read_benchmark_jsonl(path, manifest_path=None) -> Benchmark:
    """Read a benchmark file; errors name `path:line` or the manifest path.
    Each line is an object with string `query_id`, `field` one of
    FIELD_ABBREVS, `positives` a list of strings and `negatives` an object
    of lists of strings, keyed by the manifest's `types` (a list of strings)
    or else the first entry's. An entry needs a positive, and its query and
    candidates (positives and negatives) must be distinct ids."""
    manifest = {} if manifest_path is None else checked(
        read_json(manifest_path), manifest_path, "benchmark manifest")
    if "types" in manifest:
        checked(manifest, manifest_path, "benchmark manifest", types="a list of strings")
    types = manifest.get("types")
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            entry = _parse_entry(parse_json(line, where), where)
            types = list(entry.negatives) if types is None else types
            if sorted(entry.negatives) != sorted(types):
                raise ValueError(f"{where}: negative groups {sorted(entry.negatives)} "
                                 f"are not the benchmark types {sorted(types)}")
            entries.append(entry)
    try:
        return Benchmark(entries, manifest)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_entry(obj, where: str) -> BenchmarkEntry:
    checked(obj, where, "entry", query_id="a string", field="a string",
            positives="a list of strings", negatives="an object of lists of strings")
    entry = BenchmarkEntry(obj["query_id"], obj["field"], obj["positives"], obj["negatives"])
    if entry.field not in FIELD_ABBREVS:
        raise ValueError(f"{where}: field {entry.field!r} is not one of the field abbreviations")
    # a closed pool ranks its candidates once each, never against the query
    if not entry.positives:
        raise ValueError(f"{where}: entry has no positives")
    candidates = entry.candidate_ids()
    if entry.query_id in candidates:
        raise ValueError(f"{where}: query {entry.query_id!r} is among its own candidates")
    repeated = [i for i, n in Counter(candidates).items() if n > 1]
    if repeated:
        raise ValueError(f"{where}: candidate {repeated[0]!r} is listed more than once")
    return entry
