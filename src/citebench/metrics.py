"""Ranking metrics (AP, nDCG, recall@k), set similarity, and run evaluation.

All metrics use binary relevance and live in [0, 1]. nDCG uses 1/log2(r+1)
discounts with the ideal gain truncated at min(|relevant|, |ranked|). The AP
denominator is always the full relevant count, so truncated runs are
penalized for what they failed to retrieve.

Each metric is one formula over three values: the ascending ranks of the
relevant ids found, the ranking's length and |relevant|. One walk of a
ranking (_first_ranks) reads those values for every metric that scores it;
BM25 tuning counts them with util.Numbering.positive_ranks instead, without
ranking, and scores the same formulas, so both give the same values.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass

from .util import sum_in_order

# the metric that BM25 tuning maximizes when the caller names none
DEFAULT_OBJECTIVE = "map"


def _ranked_ids(ranked: Iterable) -> list[str]:
    """The ids of a ranking given as bare ids or (id, score) pairs, in rank order."""
    return [item[0] if isinstance(item, tuple) else item for item in ranked]


def _relevant_set(relevant) -> set:
    """The relevant ids as a set; an empty set raises."""
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    return set(relevant)


def _first_ranks(ranked: Iterable, relevant) -> tuple[list[int], int, int]:
    """The 1-based ranks, ascending, at which each relevant id first appears
    in `ranked`, the ranking's length and the number of relevant ids: the
    arguments of every metric's rank form."""
    missing = _relevant_set(relevant)
    count = len(missing)
    ids = _ranked_ids(ranked)
    ranks = []
    for rank, doc in enumerate(ids, start=1):
        if doc in missing:
            missing.remove(doc)
            ranks.append(rank)
            if not missing:
                break
    return ranks, len(ids), count


def _average_precision(ranks: list[int], length: int, count: int) -> float:
    return sum_in_order(found / rank for found, rank in enumerate(ranks, start=1)) / count


def _ndcg(ranks: list[int], length: int, count: int) -> float:
    ideal = min(count, length)
    if ideal == 0:
        return 0.0
    idcg = sum_in_order(1.0 / math.log2(r + 1) for r in range(1, ideal + 1))
    return sum_in_order(1.0 / math.log2(rank + 1) for rank in ranks) / idcg


def _recall(ranks: list[int], length: int, count: int, k: int) -> float:
    return bisect.bisect_right(ranks, k) / count


def average_precision(ranked: Sequence[str], relevant) -> float:
    """Mean of precision at each relevant item's rank; unretrieved relevant
    items contribute zero."""
    return _average_precision(*_first_ranks(ranked, relevant))


def ndcg(ranked: Sequence[str], relevant) -> float:
    """Binary-gain nDCG. Returns 0.0 when nothing relevant was retrieved."""
    return _ndcg(*_first_ranks(ranked, relevant))


def recall_at_k(ranked: Sequence[str], relevant, k: int) -> float:
    """Fraction of relevant items found in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _recall(*_first_ranks(ranked[:k], relevant), k)


def jaccard(a, b) -> float:
    """|a n b| / |a u b|; undefined (raises) when both sets are empty."""
    a, b = set(a), set(b)
    if not a and not b:
        raise ValueError("jaccard undefined for two empty sets")
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def _metric(name: str) -> Callable[[list[int], int, int], float]:
    """The metric "map", "ndcg" or "recall@K" (K >= 1) names, as its rank
    form f(ranks, length, count)."""
    k = name.removeprefix("recall@")
    if k != name and k.isdecimal() and int(k) >= 1:
        return functools.partial(_recall, k=int(k))
    if name == "map":
        return _average_precision
    if name == "ndcg":
        return _ndcg
    raise ValueError(f"unknown metric {name!r}: expected map, ndcg or recall@K with K >= 1")


def _scorer(names: Iterable[str]) -> Callable[[Iterable, object], dict[str, float]]:
    """f(ranked, relevant): each named metric of one ranking, all read off
    one walk of it. An unknown name raises here, before any ranking is scored."""
    forms = {name: _metric(name) for name in names}

    def score(ranked: Iterable, relevant) -> dict[str, float]:
        found = _first_ranks(ranked, relevant)
        return {name: f(*found) for name, f in forms.items()}

    return score


def metric_means(rows: Collection[Mapping[str, float]], names) -> dict[str, float]:
    """Each name's mean over `rows`, summed in row order; 0.0 with no rows."""
    return {m: sum_in_order(row[m] for row in rows) / len(rows) if rows else 0.0 for m in names}


@dataclass
class MetricsReport:
    """Aggregate metric values plus the per-query values they average."""

    aggregates: dict[str, float]
    per_query: dict[str, dict[str, float]]


def evaluate_run(run, qrels: Mapping[str, set], recall_cutoff: int = 30) -> MetricsReport:
    """Score a retrieval run against qrels.

    Every run query must appear in qrels; qrels queries absent from the run
    score 0 on all metrics rather than being excluded. Aggregates are
    unweighted means over qrels queries.
    """
    rankings = getattr(run, "rankings", run)
    for q in rankings:
        if q not in qrels:
            raise ValueError(f"query {q!r} in run is missing from qrels")
    names = ("map", "ndcg", f"recall@{recall_cutoff}")
    score = _scorer(names)
    per_query = {q: score(rankings.get(q, []), qrels[q]) for q in sorted(qrels)}
    return MetricsReport(metric_means(per_query.values(), names), per_query)


# ---------------------------------------------------------------------------
# run file format
# ---------------------------------------------------------------------------


def write_run_tsv(run, path) -> None:
    """Write `query_id <TAB> doc_id <TAB> rank <TAB> score` lines, queries sorted."""
    rankings = getattr(run, "rankings", run)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for q in sorted(rankings):
            for rank, (doc, score) in enumerate(rankings[q], start=1):
                fh.write(f"{q}\t{doc}\t{rank}\t{score!r}\n")


def read_run_tsv(path) -> dict[str, list[tuple[str, float]]]:
    """Read a run file; errors name `path:line`. Ranks must parse as
    integers and be unique per query, scores as finite floats."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    rank_lines: dict[tuple[str, int], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated columns")
            q, doc, rank_text, score_text = parts
            try:
                rank = int(rank_text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: rank {rank_text!r} "
                                 "is not an integer") from None
            try:
                score = float(score_text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: score {score_text!r} "
                                 "is not a number") from None
            if not math.isfinite(score):
                raise ValueError(f"{path}:{lineno}: score {score_text!r} is not finite")
            first = rank_lines.setdefault((q, rank), lineno)
            if first != lineno:
                raise ValueError(f"{path}:{lineno}: rank {rank} repeats line {first} "
                                 f"for query {q!r}")
            rows.setdefault(q, []).append((rank, doc, score))
    rankings: dict[str, list[tuple[str, float]]] = {}
    for q, items in rows.items():
        items.sort(key=lambda t: t[0])
        docs = [doc for _, doc, _ in items]
        if len(set(docs)) != len(docs):
            raise ValueError(f"duplicate doc ids for query {q!r} in {path}")
        rankings[q] = [(doc, score) for _, doc, score in items]
    return rankings
