"""Query sampling and shared candidate-pool construction.

Both evaluation setups share one candidate universe per run: the pool holds
the union of every query's cited articles plus a seeded random fill, and
each query splits that universe into its own positives and negatives. Fill
articles must not postdate the query year; positives are exempt from the
year rule so noisy citation data cannot silently delete relevant items.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from .corpus import Article, CitationGraph, Corpus, FieldLabel, field_cited_set, resolve_field
from .util import checked, read_json

DATASET_LEVEL = "dataset"
FIELD_LEVEL = "field"

@dataclass(frozen=True)
class SamplingPlan:
    queries_per_unit: int
    rng_seed: int
    query_year: int = 2019
    repetitions: int = 3
    exclusion_ids: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.queries_per_unit < 1:
            raise ValueError("queries_per_unit must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def sample_queries(corpus: Corpus, graph: CitationGraph, plan: SamplingPlan,
                   field: str | FieldLabel | None = None) -> list[str]:
    """Uniform sample (without replacement) of query article ids.

    Eligible articles have year == plan.query_year, carry `field` when one is
    given, are not excluded, and cite at least one article inside the corpus.
    Deterministic for a fixed plan.rng_seed.
    """
    label = resolve_field(field) if field is not None else None
    eligible = []
    cites, row = graph.outgoing.degrees(corpus), corpus.numbering.row
    for art in corpus:
        if art.year != plan.query_year:
            continue
        if label is not None and label.name not in art.fields:
            continue
        if art.id in plan.exclusion_ids:
            continue
        if not cites[row[art.id]]:
            continue
        eligible.append(art.id)
    eligible.sort()
    if len(eligible) < plan.queries_per_unit:
        raise ValueError(
            f"only {len(eligible)} eligible query articles, need {plan.queries_per_unit}"
        )
    return random.Random(plan.rng_seed).sample(eligible, plan.queries_per_unit)


@dataclass
class PoolSet:
    """A shared candidate universe plus per-query positives."""

    setup: str
    field: str | None
    seed: int
    query_year: int
    target_size: int
    shortfall: bool
    pool_ids: list[str]
    positives: dict[str, list[str]]

    def queries(self) -> list[str]:
        return list(self.positives)

    def members(self) -> frozenset[str]:
        return frozenset(self.pool_ids)


def build_dataset_pool(corpus: Corpus, graph: CitationGraph, queries: Iterable[str],
                       size: int, seed: int) -> PoolSet:
    """Shared pool: all articles cited by any query, topped up to `size` with
    random corpus articles of year <= query year. Query articles themselves
    are never used as fill."""
    return _build_pool(corpus, graph, queries, size, seed, corpus, DATASET_LEVEL, None)


def build_field_pool(corpus: Corpus, graph: CitationGraph, field: str | FieldLabel,
                     queries: Iterable[str], size: int, seed: int) -> PoolSet:
    """Field-level pool: cited union plus fill sampled from the field-cited
    set (articles cited by any article labeled with the field). A fill
    population smaller than needed sets the shortfall flag instead of failing."""
    label = resolve_field(field)
    population = map(corpus.article, field_cited_set(corpus, graph, label))
    return _build_pool(corpus, graph, queries, size, seed, population, FIELD_LEVEL, label.abbrev)


def _build_pool(corpus: Corpus, graph: CitationGraph, queries: Iterable[str], size: int,
                seed: int, population: Iterable[Article], setup: str,
                field: str | None) -> PoolSet:
    """The queries' cited union topped up to `size` with a seeded sample of
    the population's articles that are not cited, not queries and not newer
    than the latest query year (all of them, a shortfall, when too few)."""
    queries = list(queries)
    years = [corpus.article(q).year for q in queries if corpus.article(q).year is not None]
    if not years:
        raise ValueError("no query has a publication year")
    query_year = max(years)
    positives = {q: graph.outgoing.ids_of(q) for q in sorted(set(queries))}
    cited = set().union(*positives.values())
    if size < len(cited):
        raise ValueError(
            f"pool size {size} cannot hold the {len(cited)} articles cited by the queries"
        )
    taken = cited.union(queries)
    # filtered as it is read: the population may be the whole corpus
    fill_population = sorted(
        art.id for art in population
        if art.id not in taken and art.year is not None and art.year <= query_year
    )
    need = size - len(cited)
    shortfall = need > len(fill_population)
    fill = fill_population if shortfall else random.Random(seed).sample(fill_population, need)
    return PoolSet(setup, field, seed, query_year, size, shortfall, sorted(cited.union(fill)),
                   positives)


def repeat_pools(builder: Callable[[int], PoolSet], repetitions: int, base_seed: int) -> list[PoolSet]:
    """Build `repetitions` pools with derived seeds base_seed + i."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return [builder(base_seed + i) for i in range(repetitions)]


# ---------------------------------------------------------------------------
# pool file format
# ---------------------------------------------------------------------------


def write_pool_json(pool: PoolSet, path) -> None:
    obj: dict = {"setup": pool.setup}
    if pool.field is not None:
        obj["field"] = pool.field
    obj.update(
        seed=pool.seed,
        query_year=pool.query_year,
        target_size=pool.target_size,
        shortfall=pool.shortfall,
        pool_ids=pool.pool_ids,
        queries=[{"query_id": q, "positives": pool.positives[q]} for q in sorted(pool.positives)],
    )
    Path(path).write_text(
        json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def read_pool_json(path) -> PoolSet:
    """Read a pool file as write_pool_json writes it; errors name the path.

    Every key write_pool_json writes is required (`field` when `setup` is
    "field"): string `setup` and `field`, integer `seed`, `query_year` and
    `target_size` (not bools), boolean `shortfall`, `pool_ids` a list of
    distinct strings, and `queries` a list of {"query_id": str, "positives":
    [str, ...]} objects with distinct query ids and positives in `pool_ids`.
    """
    obj = checked(read_json(path), path, "pool file", setup="a string", seed="an integer",
                  query_year="an integer", target_size="an integer", shortfall="a boolean",
                  pool_ids="a list of strings", queries="a list")
    if obj["setup"] == FIELD_LEVEL or "field" in obj:
        checked(obj, path, "pool file", field="a string")
    pool_ids = obj["pool_ids"]
    members = set(pool_ids)
    if len(members) != len(pool_ids):
        raise ValueError(f"{path}: duplicate pool ids")
    positives: dict[str, list[str]] = {}
    for entry in obj["queries"]:
        checked(entry, path, "each query", query_id="a string", positives="a list of strings")
        q = entry["query_id"]
        if q in positives:
            raise ValueError(f"{path}: duplicate query id {q!r}")
        outside = [p for p in entry["positives"] if p not in members]
        if outside:
            raise ValueError(f"{path}: query {q!r} has positives outside pool_ids: {outside[:3]}")
        positives[q] = entry["positives"]
    return PoolSet(
        setup=obj["setup"],
        field=obj.get("field"),
        seed=obj["seed"],
        query_year=obj["query_year"],
        target_size=obj["target_size"],
        shortfall=obj["shortfall"],
        pool_ids=pool_ids,
        positives=positives,
    )
