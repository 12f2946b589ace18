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

from .corpus import CitationGraph, Corpus, FieldLabel, field_cited_set, resolve_field
from .util import is_str_list

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
    for art in corpus:
        if art.year != plan.query_year:
            continue
        if label is not None and label.name not in art.fields:
            continue
        if art.id in plan.exclusion_ids:
            continue
        if not graph.outgoing.get(art.id):
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


def _query_year(corpus: Corpus, queries: Iterable[str]) -> int:
    years = [corpus.article(q).year for q in queries if corpus.article(q).year is not None]
    if not years:
        raise ValueError("no query has a publication year")
    return max(years)


def _cited_union(graph: CitationGraph, queries: list[str]) -> set[str]:
    cited: set[str] = set()
    for q in queries:
        cited |= graph.outgoing.get(q, frozenset())
    return cited


def _assemble(graph: CitationGraph, queries: list[str], cited_union: set[str], size: int,
              seed: int, fill_population: list[str], setup: str, field_abbrev: str | None,
              query_year: int) -> PoolSet:
    if size < len(cited_union):
        raise ValueError(
            f"pool size {size} cannot hold the {len(cited_union)} articles cited by the queries"
        )
    need = size - len(cited_union)
    if need > len(fill_population):
        fill = list(fill_population)
        shortfall = True
    else:
        fill = random.Random(seed).sample(fill_population, need)
        shortfall = False
    pool_ids = sorted(cited_union | set(fill))
    positives = {q: sorted(graph.outgoing.get(q, frozenset())) for q in sorted(set(queries))}
    return PoolSet(setup, field_abbrev, seed, query_year, size, shortfall, pool_ids, positives)


def build_dataset_pool(corpus: Corpus, graph: CitationGraph, queries: Iterable[str],
                       size: int, seed: int) -> PoolSet:
    """Shared pool: all articles cited by any query, topped up to `size` with
    random corpus articles of year <= query year. Query articles themselves
    are never used as fill."""
    queries = list(queries)
    query_year = _query_year(corpus, queries)
    cited = _cited_union(graph, queries)
    qset = set(queries)
    fill_population = sorted(
        art.id for art in corpus
        if art.id not in cited and art.id not in qset
        and art.year is not None and art.year <= query_year
    )
    return _assemble(graph, queries, cited, size, seed, fill_population,
                     DATASET_LEVEL, None, query_year)


def build_field_pool(corpus: Corpus, graph: CitationGraph, field: str | FieldLabel,
                     queries: Iterable[str], size: int, seed: int) -> PoolSet:
    """Field-level pool: cited union plus fill sampled from the field-cited
    set (articles cited by any article labeled with the field). A fill
    population smaller than needed sets the shortfall flag instead of failing."""
    label = resolve_field(field)
    queries = list(queries)
    query_year = _query_year(corpus, queries)
    cited = _cited_union(graph, queries)
    qset = set(queries)
    fcs = field_cited_set(corpus, graph, label)
    fill_population = sorted(
        i for i in fcs
        if i not in cited and i not in qset
        and corpus.article(i).year is not None and corpus.article(i).year <= query_year
    )
    return _assemble(graph, queries, cited, size, seed, fill_population,
                     FIELD_LEVEL, label.abbrev, query_year)


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from None

    def fail(message: str):
        raise ValueError(f"{path}: {message}")

    if not isinstance(obj, dict):
        fail("pool file must be a JSON object")
    required = ["setup", "seed", "query_year", "target_size", "shortfall", "pool_ids", "queries"]
    if obj.get("setup") == FIELD_LEVEL:
        required.append("field")
    for key in required:
        if key not in obj:
            fail(f"missing key {key!r}")
    for key in ("setup", "field"):
        if key in obj and not isinstance(obj[key], str):
            fail(f"{key} must be a string")
    for key in ("seed", "query_year", "target_size"):
        if isinstance(obj[key], bool) or not isinstance(obj[key], int):
            fail(f"{key} must be an integer, got {obj[key]!r}")
    if not isinstance(obj["shortfall"], bool):
        fail(f"shortfall must be a boolean, got {obj['shortfall']!r}")
    pool_ids = obj["pool_ids"]
    if not is_str_list(pool_ids):
        fail("pool_ids must be a list of strings")
    members = set(pool_ids)
    if len(members) != len(pool_ids):
        fail("duplicate pool ids")
    if not isinstance(obj["queries"], list):
        fail("queries must be a list")
    positives: dict[str, list[str]] = {}
    for entry in obj["queries"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("query_id"), str)
                and is_str_list(entry.get("positives"))):
            fail("each query must be an object with a string query_id and a list of "
                 "string positives")
        q = entry["query_id"]
        if q in positives:
            fail(f"duplicate query id {q!r}")
        outside = [p for p in entry["positives"] if p not in members]
        if outside:
            fail(f"query {q!r} has positives outside pool_ids: {outside[:3]}")
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
