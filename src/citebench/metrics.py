"""Ranking metrics (AP, nDCG, recall@k), set similarity, and run evaluation.

All metrics use binary relevance and live in [0, 1]. nDCG uses 1/log2(r+1)
discounts with the ideal gain truncated at min(|relevant|, |ranked|). The AP
denominator is always the full relevant count, so truncated runs are
penalized for what they failed to retrieve.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass


def _ranked_ids(ranked: Sequence) -> list[str]:
    # accepts bare ids or (id, score) pairs
    return [item[0] if isinstance(item, tuple) else item for item in ranked]


def average_precision(ranked: Sequence[str], relevant) -> float:
    """Mean of precision at each relevant item's rank; unretrieved relevant
    items contribute zero."""
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    relevant = set(relevant)
    found: set[str] = set()
    total = 0.0
    for rank, doc in enumerate(_ranked_ids(ranked), start=1):
        if doc in relevant and doc not in found:
            found.add(doc)
            total += len(found) / rank
    return total / len(relevant)


def ndcg(ranked: Sequence[str], relevant) -> float:
    """Binary-gain nDCG. Returns 0.0 when nothing relevant was retrieved."""
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    relevant = set(relevant)
    seen: set[str] = set()
    dcg = 0.0
    for rank, doc in enumerate(_ranked_ids(ranked), start=1):
        if doc in relevant and doc not in seen:
            seen.add(doc)
            dcg += 1.0 / math.log2(rank + 1)
    ideal = min(len(relevant), len(ranked))
    if ideal == 0:
        return 0.0
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, ideal + 1))
    return dcg / idcg


def recall_at_k(ranked: Sequence[str], relevant, k: int) -> float:
    """Fraction of relevant items found in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    relevant = set(relevant)
    top = set(_ranked_ids(ranked[:k]))
    return len(top & relevant) / len(relevant)


def jaccard(a, b) -> float:
    """|a n b| / |a u b|; undefined (raises) when both sets are empty."""
    a, b = set(a), set(b)
    if not a and not b:
        raise ValueError("jaccard undefined for two empty sets")
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


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
    recall_key = f"recall@{recall_cutoff}"
    per_query: dict[str, dict[str, float]] = {}
    for q in sorted(qrels):
        relevant = qrels[q]
        ranked = rankings.get(q, [])
        per_query[q] = {
            "map": average_precision(ranked, relevant),
            "ndcg": ndcg(ranked, relevant),
            recall_key: recall_at_k(ranked, relevant, recall_cutoff),
        }
    n = len(per_query)
    aggregates = {
        name: (sum(vals[name] for vals in per_query.values()) / n if n else 0.0)
        for name in ("map", "ndcg", recall_key)
    }
    return MetricsReport(aggregates, per_query)


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
